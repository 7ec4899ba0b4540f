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

    /// Route a buffer of true flows in place: every flow is either
    /// dropped or replaced by its exported estimate, in buffer order.
    ///
    /// Each flow passes the spoof check, the sampler, the export-fault
    /// rolls and the anonymizer, in that order, so routing a sequence in
    /// one call or in consecutive pieces consumes the sampler's RNG
    /// stream identically.
    pub fn route(&mut self, flows: &mut Vec<FlowRecord>) {
        flows.retain_mut(|flow| {
            if flow.line.0 > self.max_line {
                self.spoofed_dropped += 1;
                return false;
            }
            let Some(mut est) = self.sampler.sample(flow) else {
                self.sampled_out += 1;
                return false;
            };
            // Export faults come after the sampler so its RNG stream —
            // and therefore every surviving estimate — is unchanged by
            // the fault layer. Without a fault plan neither roll (nor
            // its key) is computed.
            if self.faults.is_active() && self.export_fault(flow) {
                return false;
            }
            est.line = self.anonymizer.anonymize(flow.line);
            self.exported += 1;
            *flow = est;
            true
        });
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

    /// Route `flows` through `r` in one call, returning the exports.
    fn routed(r: &mut BorderRouter, flows: &[FlowRecord]) -> Vec<FlowRecord> {
        let mut buf = flows.to_vec();
        r.route(&mut buf);
        buf
    }

    #[test]
    fn spoofed_sources_dropped() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        let out = routed(&mut r, &[flow(100, 10, 1), flow(99, 10, 1)]);
        assert_eq!(r.spoofed_dropped, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn lines_are_anonymized_consistently() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(1));
        let out = routed(&mut r, &[flow(5, 10, 1), flow(5, 20, 1), flow(6, 30, 1)]);
        assert_ne!(out[0].line, LineId(5));
        assert_eq!(out[0].line, out[1].line);
        assert_ne!(out[0].line, out[2].line);
        assert_eq!(
            out.iter().map(|f| f.bytes).collect::<Vec<_>>(),
            [10, 20, 30],
            "exports keep buffer order"
        );
    }

    #[test]
    fn sampling_accounted() {
        let mut r = BorderRouter::new(1000, 99, 7, SimRng::new(2));
        let out = routed(&mut r, &vec![flow(1, 100, 1); 500]);
        assert_eq!(r.exported + r.sampled_out, 500);
        assert!(r.sampled_out > 450, "sampled_out {}", r.sampled_out);
        assert_eq!(out.len() as u64, r.exported);
    }

    #[test]
    fn unsampled_router_exports_everything() {
        let mut r = BorderRouter::new(1, 99, 7, SimRng::new(3));
        let flows: Vec<FlowRecord> = (0..50).map(|i| flow(i % 10, 100, 5)).collect();
        let out = routed(&mut r, &flows);
        assert_eq!(r.exported, 50);
        assert_eq!(out.len(), 50);
        assert_eq!(out[0].bytes, 100);
    }

    /// 400 flows over two days and 200 remotes; lines above 99 are
    /// spoofed and dropped before sampling.
    fn mixed_flows() -> Vec<FlowRecord> {
        (0..400u64)
            .map(|i| FlowRecord {
                time: Date::new(2022, 3, 1).midnight() + SimDuration::hours(i % 48),
                remote: format!("192.0.2.{}", i % 200).parse().unwrap(),
                ..flow(i % 110, 100 * (i + 1), 1 + i % 3)
            })
            .collect()
    }

    fn faulted_router(export_drop_rate: f64, reset_rate: f64) -> BorderRouter {
        let faults = NetflowFaults {
            export_drop_rate,
            reset_rate,
        };
        BorderRouter::with_faults(2, 99, 7, SimRng::new(4), 11, faults)
    }

    /// The router makes the only export-fault rolls: they are pure
    /// (identical reruns), a zero rate drops nothing, a heavier plan's
    /// survivors all survive a lighter plan, and every routed flow is
    /// accounted for exactly once.
    #[test]
    fn export_faults_are_deterministic_nested_and_accounted() {
        let flows = mixed_flows();
        let run = |export_drop_rate: f64, reset_rate: f64| {
            let mut r = faulted_router(export_drop_rate, reset_rate);
            let out = routed(&mut r, &flows);
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
        let unfaulted = routed(&mut BorderRouter::new(2, 99, 7, SimRng::new(4)), &flows);
        assert_eq!(clean, unfaulted, "zero rate drops nothing");
        let (light, heavy) = (run(0.1, 0.05), run(0.5, 0.2));
        assert!(heavy.len() < light.len() && light.len() < clean.len());
        // Nested drops: every survivor of the heavy plan survived light
        // (the sampler's stream is untouched by faults, so survivors are
        // the same estimates).
        assert!(heavy.iter().all(|r| light.contains(r)));
        assert!(light.iter().all(|r| clean.contains(r)));
    }

    /// Routing is a stream operation: one buffer routed in one call
    /// equals the same flows routed as consecutive pieces through one
    /// router, at 1:N sampling under an active fault plan — same
    /// exports in the same order, same drop accounting.
    #[test]
    fn routing_in_pieces_equals_routing_in_one_call() {
        let flows = mixed_flows();
        let mut whole = faulted_router(0.2, 0.1);
        let once = routed(&mut whole, &flows);
        assert!(whole.sampled_out > 0 && whole.export_dropped > 0 && whole.spoofed_dropped > 0);
        for piece in [1, 7, 64, 399] {
            let mut r = faulted_router(0.2, 0.1);
            let pieces: Vec<FlowRecord> = flows
                .chunks(piece)
                .flat_map(|chunk| routed(&mut r, chunk))
                .collect();
            assert_eq!(pieces, once, "pieces of {piece}");
            let tallies = |r: &BorderRouter| {
                (
                    r.spoofed_dropped,
                    r.sampled_out,
                    r.exported,
                    r.export_dropped,
                    r.reset_dropped,
                )
            };
            assert_eq!(tallies(&r), tallies(&whole), "pieces of {piece}");
        }
    }
}
