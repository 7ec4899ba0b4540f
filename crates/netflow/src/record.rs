//! Flow records: the header-only unit of the ISP dataset.

use iotmap_nettypes::{PortProto, SimTime};
use std::net::IpAddr;

/// An (anonymized) subscriber-line identifier. The ISP cannot see users,
/// only broadband lines; all per-"household" analyses in §5 are per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub u64);

/// Flow direction relative to the subscriber line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Line → remote server (upload).
    Upstream,
    /// Remote server → line (download).
    Downstream,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(&self) -> Direction {
        match self {
            Direction::Upstream => Direction::Downstream,
            Direction::Downstream => Direction::Upstream,
        }
    }
}

/// One sampled, anonymized flow record as exported by a border router.
///
/// NetFlow exports 5-tuples; we keep the fields the analyses consume: the
/// subscriber line (anonymized), the remote endpoint and its service port,
/// direction, and the **estimated** byte/packet counts (sample-scaled, see
/// [`crate::sampler`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Start-of-flow timestamp.
    pub time: SimTime,
    /// The subscriber line.
    pub line: LineId,
    /// Remote (server-side) address.
    pub remote: IpAddr,
    /// Remote service port and transport.
    pub port: PortProto,
    /// Direction of this record.
    pub direction: Direction,
    /// Estimated bytes (scaled by the sampling rate).
    pub bytes: u64,
    /// Estimated packets (scaled by the sampling rate).
    pub packets: u64,
}

impl FlowRecord {
    /// The hour bucket this flow belongs to.
    pub fn epoch_hour(&self) -> u64 {
        self.time.epoch_hours()
    }

    /// The day (epoch days) this flow belongs to.
    pub fn epoch_day(&self) -> i64 {
        self.time.epoch_days()
    }

    /// A stable identity of the flow: its start time, line, remote,
    /// service port and direction. The router's per-flow decisions (the
    /// sampler's draws and the export-drop roll) are keyed on it, so a
    /// flow meets the same fate whatever buffer, order or thread routes
    /// it.
    pub(crate) fn key(&self) -> u64 {
        iotmap_faults::key3(
            iotmap_faults::key2(self.time.unix(), self.line.0),
            iotmap_faults::key_ip(self.remote),
            iotmap_faults::key2(self.port.port as u64, self.direction as u64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_nettypes::Date;

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Upstream.flip(), Direction::Downstream);
        assert_eq!(Direction::Downstream.flip(), Direction::Upstream);
    }

    #[test]
    fn time_bucketing() {
        let r = FlowRecord {
            time: Date::new(2022, 3, 1).midnight() + iotmap_nettypes::SimDuration::hours(5),
            line: LineId(1),
            remote: "192.0.2.1".parse().unwrap(),
            port: PortProto::tcp(8883),
            direction: Direction::Downstream,
            bytes: 1000,
            packets: 10,
        };
        assert_eq!(r.epoch_day(), Date::new(2022, 3, 1).epoch_days());
        assert_eq!(r.epoch_hour() % 24, 5);
    }
}
