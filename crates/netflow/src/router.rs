//! Border-router collection: sampling + ingress filtering + anonymization.
//!
//! The pipeline a true flow passes before reaching any analysis:
//!
//! 1. **BCP 38 ingress filtering** (§3.7): flows claiming a source address
//!    outside the subscriber's assigned space are dropped, so remote
//!    scanners cannot spoof themselves into the subscriber-line analyses.
//! 2. **Packet sampling** at the configured rate.
//! 3. **Anonymization** of the line identity.
//!
//! What emerges is the dataset §5 works with.

use crate::anonymize::Anonymizer;
use crate::record::FlowRecord;
#[cfg(test)]
use crate::record::LineId;
use crate::sampler::PacketSampler;
use iotmap_faults::NetflowFaults;
use iotmap_nettypes::SimRng;

/// A border router exporting sampled, anonymized NetFlow.
pub struct BorderRouter {
    sampler: PacketSampler,
    anonymizer: Anonymizer,
    /// Highest legitimate raw line id; anything above is treated as a
    /// spoofed source and dropped (BCP 38 stand-in).
    max_line: u64,
    /// Export faults: wire drops and exporter resets, applied *after*
    /// sampling so the sampler's RNG stream is identical with or without
    /// a fault plan.
    faults: NetflowFaults,
    fault_seed: u64,
    /// Counters for drop accounting.
    pub spoofed_dropped: u64,
    pub sampled_out: u64,
    pub exported: u64,
    /// Records lost to export faults (wire drops + reset hours).
    pub export_dropped: u64,
    /// Of those, records lost because the exporter was resetting.
    pub reset_dropped: u64,
}

impl BorderRouter {
    /// Create a router with sampling rate 1:`rate` for an ISP with
    /// `max_line + 1` subscriber lines.
    pub fn new(rate: u64, max_line: u64, salt: u64, rng: SimRng) -> Self {
        Self::with_faults(rate, max_line, salt, rng, 0, NetflowFaults::NONE)
    }

    /// [`BorderRouter::new`] with an export-fault plan: a record that
    /// survives sampling can still be lost to a per-flow wire drop or to
    /// an exporter reset that blacks out a whole epoch hour. Both are
    /// pure rolls on the flow/hour identity, so export loss is
    /// deterministic and independent of processing order.
    pub fn with_faults(
        rate: u64,
        max_line: u64,
        salt: u64,
        rng: SimRng,
        fault_seed: u64,
        faults: NetflowFaults,
    ) -> Self {
        BorderRouter {
            sampler: PacketSampler::new(rate, rng),
            anonymizer: Anonymizer::new(salt),
            max_line,
            faults,
            fault_seed,
            spoofed_dropped: 0,
            sampled_out: 0,
            exported: 0,
            export_dropped: 0,
            reset_dropped: 0,
        }
    }

    /// Process one true flow and append the exported record, if any, to
    /// `out`.
    pub fn process(&mut self, true_flow: &FlowRecord, out: &mut Vec<FlowRecord>) {
        if true_flow.line.0 > self.max_line {
            self.spoofed_dropped += 1;
            return;
        }
        match self.sampler.sample(true_flow) {
            None => self.sampled_out += 1,
            Some(mut est) => {
                // Export faults come after the sampler so its RNG stream —
                // and therefore every surviving estimate — is unchanged by
                // the fault layer. Without a fault plan neither roll (nor
                // its key) is computed.
                if self.faults.is_active() && self.export_fault(true_flow) {
                    return;
                }
                est.line = self.anonymizer.anonymize(true_flow.line);
                self.exported += 1;
                out.push(est);
            }
        }
    }

    /// Roll the export faults for one sampled flow, accounting a drop.
    fn export_fault(&mut self, true_flow: &FlowRecord) -> bool {
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.reset",
            true_flow.time.epoch_hours(),
            self.faults.reset_rate,
        ) {
            self.export_dropped += 1;
            self.reset_dropped += 1;
            return true;
        }
        let flow_key = iotmap_faults::key3(
            iotmap_faults::key2(true_flow.time.unix(), true_flow.line.0),
            iotmap_faults::key_ip(true_flow.remote),
            iotmap_faults::key2(true_flow.port.port as u64, true_flow.direction as u64),
        );
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.export_drop",
            flow_key,
            self.faults.export_drop_rate,
        ) {
            self.export_dropped += 1;
            return true;
        }
        false
    }

    /// Report this router's lifetime tallies to the observability layer
    /// (called once per simulation run, not per flow, so the per-flow hot
    /// path stays uninstrumented).
    pub fn flush_metrics(&self) {
        iotmap_obs::count!("netflow.flows_spoofed_dropped", self.spoofed_dropped);
        iotmap_obs::count!("netflow.flows_sampled_out", self.sampled_out);
        iotmap_obs::count!("netflow.flows_exported", self.exported);
        if self.faults.is_active() {
            iotmap_obs::count!("faults.netflow.reset_dropped", self.reset_dropped);
            iotmap_obs::count!("faults.netflow.records_dropped", self.export_dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Direction;
    use iotmap_nettypes::{Date, PortProto, SimDuration};

    fn flow(line: u64, bytes: u64, packets: u64) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 3, 1).midnight(),
            line: LineId(line),
            remote: "192.0.2.1".parse().unwrap(),
            port: PortProto::tcp(8883),
            direction: Direction::Upstream,
            bytes,
            packets,
        }
    }

    #[test]
    fn spoofed_sources_dropped() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        let mut out = Vec::new();
        r.process(&flow(100, 10, 1), &mut out);
        r.process(&flow(99, 10, 1), &mut out);
        assert_eq!(r.spoofed_dropped, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn lines_are_anonymized_consistently() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        let mut out = Vec::new();
        r.process(&flow(5, 10, 1), &mut out);
        r.process(&flow(5, 20, 1), &mut out);
        r.process(&flow(6, 30, 1), &mut out);
        assert_ne!(out[0].line, LineId(5));
        assert_eq!(out[0].line, out[1].line);
        assert_ne!(out[0].line, out[2].line);
    }

    #[test]
    fn sampling_accounted() {
        let mut r = BorderRouter::new(1000, 99, 7, SimRng::new(2));
        let mut out = Vec::new();
        for _ in 0..500 {
            r.process(&flow(1, 100, 1), &mut out);
        }
        assert_eq!(r.exported + r.sampled_out, 500);
        assert!(r.sampled_out > 450, "sampled_out {}", r.sampled_out);
        assert_eq!(out.len() as u64, r.exported);
    }

    #[test]
    fn unsampled_router_exports_everything() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(3));
        let mut out = Vec::new();
        for i in 0..50 {
            r.process(&flow(i % 10, 100, 5), &mut out);
        }
        assert_eq!(r.exported, 50);
        assert_eq!(out.len(), 50);
        assert_eq!(out[0].bytes, 100);
    }

    /// The router makes the only export-fault rolls: they are pure
    /// (identical reruns), a zero rate drops nothing, a heavier plan's
    /// survivors all survive a lighter plan, and every processed flow is
    /// accounted for exactly once.
    #[test]
    fn export_faults_are_deterministic_nested_and_accounted() {
        let flows: Vec<FlowRecord> = (0..400u64)
            .map(|i| FlowRecord {
                time: Date::new(2022, 3, 1).midnight() + SimDuration::hours(i % 48),
                remote: format!("192.0.2.{}", i % 200).parse().unwrap(),
                // Lines above 99 are spoofed and dropped before sampling.
                ..flow(i % 110, 100 * (i + 1), 1 + i % 3)
            })
            .collect();
        let run = |export_drop_rate: f64, reset_rate: f64| {
            let faults = NetflowFaults {
                export_drop_rate,
                reset_rate,
            };
            let mut r = BorderRouter::with_faults(2, 99, 7, SimRng::new(4), 11, faults);
            let mut out = Vec::new();
            for f in &flows {
                r.process(f, &mut out);
            }
            assert_eq!(
                r.exported + r.sampled_out + r.spoofed_dropped + r.export_dropped,
                flows.len() as u64,
                "every flow accounted once"
            );
            assert_eq!(r.exported, out.len() as u64);
            out
        };
        assert_eq!(run(0.3, 0.1), run(0.3, 0.1), "pure rolls: identical reruns");
        let clean = run(0.0, 0.0);
        let unfaulted = {
            let mut r = BorderRouter::new(2, 99, 7, SimRng::new(4));
            let mut out = Vec::new();
            flows.iter().for_each(|f| r.process(f, &mut out));
            out
        };
        assert_eq!(clean, unfaulted, "zero rate drops nothing");
        let (light, heavy) = (run(0.1, 0.05), run(0.5, 0.2));
        assert!(heavy.len() < light.len() && light.len() < clean.len());
        // Nested drops: every survivor of the heavy plan survived light
        // (the sampler's stream is untouched by faults, so survivors are
        // the same estimates).
        assert!(heavy.iter().all(|r| light.contains(r)));
        assert!(light.iter().all(|r| clean.contains(r)));
    }
}
