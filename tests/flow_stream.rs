//! Pins the exported flow stream: an FNV-1a digest over every
//! `FlowRecord` that `TrafficSimulator::run` exports (time, line, remote,
//! port, direction, bytes, packets), in export order, plus the pass's
//! generated/exported/device-day counts. Covered: the main study week and
//! the outage week at several thread counts, and the main week under a
//! NetFlow fault plan.
//!
//! The small preset runs in tier-1; the paper-preset variant is
//! `#[ignore]`d and run by CI's `paper-equivalence` job.

use iotmap::faults::FaultPlan;
use iotmap::netflow::{Direction, FlowRecord, StoringSink};
use iotmap::nettypes::Transport;
use iotmap::prelude::*;
use iotmap::world::TrafficSimulator;
use std::net::IpAddr;

/// FNV-1a over a byte stream, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn record(&mut self, r: &FlowRecord) {
        self.u64(r.time.unix());
        self.u64(r.line.0);
        match r.remote {
            IpAddr::V4(a) => {
                self.u64(4);
                self.bytes(&a.octets());
            }
            IpAddr::V6(a) => {
                self.u64(6);
                self.bytes(&a.octets());
            }
        }
        self.u64(match r.port.transport {
            Transport::Tcp => 0,
            Transport::Udp => 1,
        });
        self.u64(r.port.port as u64);
        self.u64(match r.direction {
            Direction::Upstream => 0,
            Direction::Downstream => 1,
        });
        self.u64(r.bytes);
        self.u64(r.packets);
    }
}

/// Digest of one simulated period's export sequence and its counters.
fn stream_digest(sim: &TrafficSimulator, period: StudyPeriod, threads: usize) -> u64 {
    let mut store = StoringSink::new();
    let stats = with_threads(threads, || sim.run(period, &mut store));
    assert_eq!(stats.flows_exported as usize, store.records.len());
    let mut h = Fnv::new();
    h.u64(stats.flows_generated);
    h.u64(stats.flows_exported);
    h.u64(stats.device_days);
    for r in &store.records {
        h.record(r);
    }
    h.0
}

/// `(period, fault plan, expected digest)` checked at every thread count.
type Case = (StudyPeriod, FaultPlan, u64);

fn check(config: &WorldConfig, threads: &[usize], cases: &[Case]) {
    let world = World::generate(config);
    for (period, faults, expected) in cases {
        let sim = TrafficSimulator::with_faults(&world, faults.seed, faults.netflow.clone());
        for &t in threads {
            assert_eq!(
                stream_digest(&sim, *period, t),
                *expected,
                "flow-stream digest changed: period {period:?}, threads {t}, netflow faults {:?}",
                faults.netflow
            );
        }
    }
}

#[test]
fn small_flow_stream_digest_is_pinned() {
    check(
        &WorldConfig::small(42),
        &[1, 2, 4],
        &[
            (
                StudyPeriod::main_week(),
                FaultPlan::none(),
                0x9c77_8405_57a5_6a1f,
            ),
            (
                StudyPeriod::outage_week(),
                FaultPlan::none(),
                0x145a_83c3_e0e2_95de,
            ),
            (
                StudyPeriod::main_week(),
                FaultPlan::heavy(),
                0xc10d_9e70_7ac3_0128,
            ),
        ],
    );
}

#[test]
#[ignore = "paper preset; run by the paper-equivalence CI job"]
fn paper_flow_stream_digest_is_pinned() {
    check(
        &WorldConfig::paper(42),
        &[1, 2],
        &[
            (
                StudyPeriod::main_week(),
                FaultPlan::none(),
                0xb0b6_f09e_0c7b_139c,
            ),
            (
                StudyPeriod::outage_week(),
                FaultPlan::none(),
                0x7c95_d362_ce85_d807,
            ),
        ],
    );
}
