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

/// A border router exporting sampled, anonymized NetFlow.
///
/// Routing is order-free: every decision on a flow is keyed on the flow
/// itself (its time, line, remote, port and direction), so any split of
/// a flow set, routed in any order or on any thread, exports the same
/// records and sums to the same [`RouteTally`].
pub struct BorderRouter {
    sampler: PacketSampler,
    anonymizer: Anonymizer,
    /// Highest legitimate raw line id; anything above is treated as a
    /// spoofed source and dropped (BCP 38 stand-in).
    max_line: u64,
    /// Export faults: wire drops and exporter resets, applied *after*
    /// sampling, so every flow's sampled estimate is the same with or
    /// without a fault plan.
    faults: NetflowFaults,
    fault_seed: u64,
}

/// What routing did to the flows it was given: one count per outcome.
/// Tallies of disjoint flow sets add up to the tally of their union.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteTally {
    pub spoofed_dropped: u64,
    pub sampled_out: u64,
    pub exported: u64,
    /// Records lost to export faults (wire drops + reset hours).
    pub export_dropped: u64,
    /// Of those, records lost because the exporter was resetting.
    pub reset_dropped: u64,
}

impl std::ops::AddAssign for RouteTally {
    fn add_assign(&mut self, other: RouteTally) {
        self.spoofed_dropped += other.spoofed_dropped;
        self.sampled_out += other.sampled_out;
        self.exported += other.exported;
        self.export_dropped += other.export_dropped;
        self.reset_dropped += other.reset_dropped;
    }
}

impl BorderRouter {
    /// Create a router with sampling rate 1:`rate` for an ISP with
    /// `max_line + 1` subscriber lines, anonymizing under `salt` and
    /// salting the sampler's per-flow draws with `sample_seed`.
    pub fn new(rate: u64, max_line: u64, salt: u64, sample_seed: u64) -> Self {
        Self::with_faults(rate, max_line, salt, sample_seed, 0, NetflowFaults::NONE)
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
        sample_seed: u64,
        fault_seed: u64,
        faults: NetflowFaults,
    ) -> Self {
        BorderRouter {
            sampler: PacketSampler::new(rate, sample_seed),
            anonymizer: Anonymizer::new(salt),
            max_line,
            faults,
            fault_seed,
        }
    }

    /// Route a buffer of true flows in place: every flow is either
    /// dropped or replaced by its exported estimate, in buffer order, and
    /// its outcome is counted in `tally`.
    ///
    /// Each flow passes the spoof check, the sampler, the export-fault
    /// rolls and the anonymizer, in that order.
    pub fn route(&self, flows: &mut Vec<FlowRecord>, tally: &mut RouteTally) {
        flows.retain_mut(|flow| {
            if flow.line.0 > self.max_line {
                tally.spoofed_dropped += 1;
                return false;
            }
            let Some(mut est) = self.sampler.sample(flow) else {
                tally.sampled_out += 1;
                return false;
            };
            // Without a fault plan neither roll (nor its key) is computed.
            if self.faults.is_active() && self.export_fault(flow, tally) {
                return false;
            }
            est.line = self.anonymizer.anonymize(flow.line);
            tally.exported += 1;
            *flow = est;
            true
        });
    }

    /// Roll the export faults for one sampled flow, accounting a drop.
    fn export_fault(&self, true_flow: &FlowRecord, tally: &mut RouteTally) -> bool {
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.reset",
            true_flow.time.epoch_hours(),
            self.faults.reset_rate,
        ) {
            tally.export_dropped += 1;
            tally.reset_dropped += 1;
            return true;
        }
        if iotmap_faults::drops(
            self.fault_seed,
            "netflow.export_drop",
            true_flow.key(),
            self.faults.export_drop_rate,
        ) {
            tally.export_dropped += 1;
            return true;
        }
        false
    }

    /// Report a pass's routing tally to the observability layer (called
    /// once per simulation run, not per flow, so the per-flow hot path
    /// stays uninstrumented).
    pub fn flush_metrics(&self, tally: &RouteTally) {
        iotmap_obs::count!("netflow.flows_spoofed_dropped", tally.spoofed_dropped);
        iotmap_obs::count!("netflow.flows_sampled_out", tally.sampled_out);
        iotmap_obs::count!("netflow.flows_exported", tally.exported);
        if self.faults.is_active() {
            iotmap_obs::count!("faults.netflow.reset_dropped", tally.reset_dropped);
            iotmap_obs::count!("faults.netflow.records_dropped", tally.export_dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Direction;
    use iotmap_nettypes::{Date, PortProto, SimDuration, SimRng};

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

    /// Route `flows` through `r` in one call, returning the exports and
    /// the tally.
    fn routed(r: &BorderRouter, flows: &[FlowRecord]) -> (Vec<FlowRecord>, RouteTally) {
        let mut buf = flows.to_vec();
        let mut tally = RouteTally::default();
        r.route(&mut buf, &mut tally);
        (buf, tally)
    }

    #[test]
    fn spoofed_sources_dropped() {
        let r = BorderRouter::new(1, 99, 7, 1);
        let (out, t) = routed(&r, &[flow(100, 10, 1), flow(99, 10, 1)]);
        assert_eq!(t.spoofed_dropped, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn lines_are_anonymized_consistently() {
        let r = BorderRouter::new(1, 99, 7, 1);
        let (out, _) = routed(&r, &[flow(5, 10, 1), flow(5, 20, 1), flow(6, 30, 1)]);
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
        let r = BorderRouter::new(1000, 99, 7, 2);
        // 500 one-packet flows, one second apart: distinct flows, so
        // independent sampling draws.
        let flows: Vec<FlowRecord> = (0..500)
            .map(|i| FlowRecord {
                time: flow(1, 100, 1).time + SimDuration::seconds(i),
                ..flow(1, 100, 1)
            })
            .collect();
        let (out, t) = routed(&r, &flows);
        assert_eq!(t.exported + t.sampled_out, 500);
        assert!(t.sampled_out > 450, "sampled_out {}", t.sampled_out);
        assert_eq!(out.len() as u64, t.exported);
    }

    #[test]
    fn unsampled_router_exports_everything() {
        let r = BorderRouter::new(1, 99, 7, 3);
        let flows: Vec<FlowRecord> = (0..50).map(|i| flow(i % 10, 100, 5)).collect();
        let (out, t) = routed(&r, &flows);
        assert_eq!(t.exported, 50);
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
        BorderRouter::with_faults(2, 99, 7, 4, 11, faults)
    }

    /// The router makes the only export-fault rolls: they are pure
    /// (identical reruns), a zero rate drops nothing, a heavier plan's
    /// survivors all survive a lighter plan, and every routed flow is
    /// accounted for exactly once.
    #[test]
    fn export_faults_are_deterministic_nested_and_accounted() {
        let flows = mixed_flows();
        let run = |export_drop_rate: f64, reset_rate: f64| {
            let r = faulted_router(export_drop_rate, reset_rate);
            let (out, t) = routed(&r, &flows);
            assert_eq!(
                t.exported + t.sampled_out + t.spoofed_dropped + t.export_dropped,
                flows.len() as u64,
                "every flow accounted once"
            );
            assert_eq!(t.exported, out.len() as u64);
            out
        };
        assert_eq!(run(0.3, 0.1), run(0.3, 0.1), "pure rolls: identical reruns");
        let clean = run(0.0, 0.0);
        let (unfaulted, _) = routed(&BorderRouter::new(2, 99, 7, 4), &flows);
        assert_eq!(clean, unfaulted, "zero rate drops nothing");
        let (light, heavy) = (run(0.1, 0.05), run(0.5, 0.2));
        assert!(heavy.len() < light.len() && light.len() < clean.len());
        // Nested drops: every survivor of the heavy plan survived light
        // (faults act after the sampler, so survivors are the same
        // estimates).
        assert!(heavy.iter().all(|r| light.contains(r)));
        assert!(light.iter().all(|r| clean.contains(r)));
    }

    /// One buffer routed in one call equals the same flows routed as
    /// consecutive pieces through one router, at 1:N sampling under an
    /// active fault plan — same exports in the same order, same drop
    /// accounting.
    #[test]
    fn routing_in_pieces_equals_routing_in_one_call() {
        let flows = mixed_flows();
        let r = faulted_router(0.2, 0.1);
        let (once, whole) = routed(&r, &flows);
        assert!(whole.sampled_out > 0 && whole.export_dropped > 0 && whole.spoofed_dropped > 0);
        for piece in [1, 7, 64, 399] {
            let mut tally = RouteTally::default();
            let pieces: Vec<FlowRecord> = flows
                .chunks(piece)
                .flat_map(|chunk| {
                    let (out, t) = routed(&r, chunk);
                    tally += t;
                    out
                })
                .collect();
            assert_eq!(pieces, once, "pieces of {piece}");
            assert_eq!(tally, whole, "pieces of {piece}");
        }
    }

    /// `n` random true flows over two days: 120 lines (lines above 99 are
    /// spoofed), v4 and v6 remotes, flows of 1 to 200 packets (both the
    /// per-packet and the normal-approximation sampling branches).
    fn random_flows(rng: &mut SimRng, n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|_| {
                let remote = if rng.chance(0.8) {
                    std::net::IpAddr::from([198, 51, 100, rng.gen_below(256) as u8])
                } else {
                    std::net::IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, rng.gen_below(64) as u16])
                };
                let packets = 1 + rng.gen_below(200);
                FlowRecord {
                    time: Date::new(2022, 3, 1).midnight()
                        + SimDuration::seconds(rng.gen_below(2 * 86_400)),
                    line: LineId(rng.gen_below(120)),
                    remote,
                    port: PortProto::tcp(*rng.choose(&[443, 8883, 5671])),
                    direction: if rng.chance(0.5) {
                        Direction::Upstream
                    } else {
                        Direction::Downstream
                    },
                    bytes: packets * (40 + rng.gen_below(1460)),
                    packets,
                }
            })
            .collect()
    }

    /// Exports as a sorted multiset, for splits that reorder the stream.
    fn sorted(mut flows: Vec<FlowRecord>) -> Vec<FlowRecord> {
        flows.sort_by_key(|f| {
            (
                f.time.unix(),
                f.line,
                f.remote,
                f.port.port,
                f.direction as u8,
                f.bytes,
                f.packets,
            )
        });
        flows
    }

    /// Routing is order-free: at 1:1, 1:2 and 1:1000 sampling, with and
    /// without a fault plan, routing a random flow set whole, line by
    /// line, in reversed line order or in random contiguous splits
    /// exports the same records (in stream order wherever the split
    /// keeps it) and sums to the same tally.
    #[test]
    fn routing_is_order_free_under_any_split() {
        let mut rng = SimRng::new(0x5eed);
        let plans = [
            NetflowFaults::NONE,
            NetflowFaults {
                export_drop_rate: 0.2,
                reset_rate: 0.1,
            },
        ];
        for rate in [1, 2, 1000] {
            for faults in plans.clone() {
                let r = BorderRouter::with_faults(rate, 99, 7, 0xabc, 11, faults.clone());
                let flows = random_flows(&mut rng, 3000);
                let (whole, whole_tally) = routed(&r, &flows);
                let what = format!("rate {rate}, faults {faults:?}");
                assert!(whole_tally.spoofed_dropped > 0, "{what}");
                assert!(whole_tally.exported > 0, "{what}");
                assert_eq!(rate > 1, whole_tally.sampled_out > 0, "{what}");
                assert_eq!(faults.is_active(), whole_tally.export_dropped > 0, "{what}");

                // Route each piece, collecting exports and the summed tally.
                let route_pieces = |pieces: &[Vec<FlowRecord>]| {
                    let mut tally = RouteTally::default();
                    let mut out = Vec::new();
                    for piece in pieces {
                        let (exports, t) = routed(&r, piece);
                        out.extend(exports);
                        tally += t;
                    }
                    (out, tally)
                };
                let mut by_line: Vec<Vec<FlowRecord>> = vec![Vec::new(); 120];
                for f in &flows {
                    by_line[f.line.0 as usize].push(*f);
                }
                let (lines, lines_tally) = route_pieces(&by_line);
                assert_eq!(sorted(lines), sorted(whole.clone()), "line by line, {what}");
                assert_eq!(lines_tally, whole_tally, "line by line, {what}");
                by_line.reverse();
                let (reversed, reversed_tally) = route_pieces(&by_line);
                assert_eq!(sorted(reversed), sorted(whole.clone()), "reversed, {what}");
                assert_eq!(reversed_tally, whole_tally, "reversed, {what}");

                for _ in 0..5 {
                    let mut cuts: Vec<usize> = (0..1 + rng.gen_below(20))
                        .map(|_| rng.gen_below(flows.len() as u64 + 1) as usize)
                        .collect();
                    cuts.extend([0, flows.len()]);
                    cuts.sort_unstable();
                    let pieces: Vec<Vec<FlowRecord>> = cuts
                        .windows(2)
                        .map(|w| flows[w[0]..w[1]].to_vec())
                        .collect();
                    let (split, split_tally) = route_pieces(&pieces);
                    assert_eq!(split, whole, "cuts {cuts:?}, {what}");
                    assert_eq!(split_tally, whole_tally, "cuts {cuts:?}, {what}");
                }
            }
        }
    }
}
