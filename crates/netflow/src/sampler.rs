//! Packet sampling.
//!
//! NetFlow on high-speed border routers samples packets at a fixed rate
//! 1:N. A flow of `p` packets is *observed at all* with probability
//! `1 − (1 − 1/N)^p`, and when observed, its byte/packet counters are
//! scaled by `N` to estimate the true volume ("We estimate the exchanged
//! traffic considering the sampling rate", §5.6). Small flows are thus
//! under-represented — a bias the paper's analyses inherit and ours
//! faithfully reproduces.

use crate::record::FlowRecord;
use iotmap_nettypes::SimRng;

/// A deterministic 1:N packet sampler.
///
/// The sampler holds no stream: each flow's draws come from a generator
/// seeded by the sampler's seed and the flow's own identity (time, line,
/// remote, port, direction), so a flow samples the same way in any
/// buffer, order or thread.
#[derive(Debug)]
pub struct PacketSampler {
    rate: u64,
    seed: u64,
}

impl PacketSampler {
    /// Sampling rate 1:`rate`, with per-flow draws salted by `seed`.
    /// `rate == 1` disables sampling.
    pub fn new(rate: u64, seed: u64) -> Self {
        assert!(rate >= 1, "sampling rate must be at least 1:1");
        PacketSampler { rate, seed }
    }

    /// The configured rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Sample a true flow. Returns the **estimated** flow (counters scaled
    /// back by the rate) if at least one packet was sampled, else `None`.
    /// At rate 1 every flow passes unchanged and nothing is drawn.
    pub fn sample(&self, true_flow: &FlowRecord) -> Option<FlowRecord> {
        if self.rate == 1 {
            return Some(*true_flow);
        }
        let mut rng = SimRng::new(iotmap_faults::key2(self.seed, true_flow.key()));
        let p = 1.0 / self.rate as f64;
        // Number of sampled packets ~ Binomial(packets, 1/N); approximate
        // cheaply: each packet sampled independently, but avoid a loop for
        // huge flows by using the normal approximation above a threshold.
        let sampled = if true_flow.packets <= 64 {
            (0..true_flow.packets).filter(|_| rng.chance(p)).count() as u64
        } else {
            let mean = true_flow.packets as f64 * p;
            let sd = (true_flow.packets as f64 * p * (1.0 - p)).sqrt();
            let x = iotmap_nettypes::dist::normal_with(&mut rng, mean, sd);
            x.round().clamp(0.0, true_flow.packets as f64) as u64
        };
        if sampled == 0 {
            return None;
        }
        let bytes_per_packet = true_flow.bytes as f64 / true_flow.packets.max(1) as f64;
        Some(FlowRecord {
            bytes: (sampled as f64 * bytes_per_packet * self.rate as f64).round() as u64,
            packets: sampled * self.rate,
            ..*true_flow
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Direction, LineId};
    use iotmap_nettypes::{Date, PortProto, SimDuration};

    fn flow(bytes: u64, packets: u64) -> FlowRecord {
        nth_flow(0, bytes, packets)
    }

    /// The `i`-th of a run of otherwise-equal flows, one second apart:
    /// distinct keys, so independent draws.
    fn nth_flow(i: u64, bytes: u64, packets: u64) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 3, 1).midnight() + SimDuration::seconds(i),
            line: LineId(1),
            remote: "192.0.2.1".parse().unwrap(),
            port: PortProto::tcp(443),
            direction: Direction::Downstream,
            bytes,
            packets,
        }
    }

    #[test]
    fn rate_one_is_identity() {
        let s = PacketSampler::new(1, 1);
        let f = flow(1234, 7);
        assert_eq!(s.sample(&f), Some(f));
    }

    #[test]
    fn tiny_flows_often_missed() {
        let s = PacketSampler::new(1000, 2);
        let missed = (0..1000)
            .filter(|&i| s.sample(&nth_flow(i, 100, 1)).is_none())
            .count();
        // P(missed) = 1 - 1/1000 → expect ~999.
        assert!(missed > 980, "missed {missed}");
    }

    #[test]
    fn large_flows_always_observed_with_accurate_estimates() {
        let s = PacketSampler::new(100, 3);
        let mut total = 0.0;
        let n = 200;
        for i in 0..n {
            let f = nth_flow(i, 150_000_000, 100_000); // 100k packets, 1500 B each
            let est = s.sample(&f).expect("must be observed");
            total += est.bytes as f64;
        }
        let mean = total / n as f64;
        // Estimator is unbiased: mean within 1% of the truth.
        assert!(
            (mean - 150_000_000.0).abs() < 1_500_000.0,
            "mean estimate {mean}"
        );
    }

    #[test]
    fn estimator_is_unbiased_for_small_flows() {
        let s = PacketSampler::new(10, 4);
        let n = 20_000;
        let mut total = 0.0;
        for i in 0..n {
            if let Some(est) = s.sample(&nth_flow(i, 10_000, 20)) {
                total += est.bytes as f64;
            }
        }
        let mean = total / n as f64;
        // E[estimate · observed] = truth.
        assert!((mean - 10_000.0).abs() < 300.0, "mean {mean}");
    }
}
