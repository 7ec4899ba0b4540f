//! Deterministic random-number generation.
//!
//! Every stochastic decision in the synthetic world is driven by a
//! [`SimRng`] derived from a single seed, so that each experiment is exactly
//! reproducible from `(seed, scale)`. The generator is xoshiro256++ with
//! SplitMix64 seeding (the reference initialization recommended by the
//! xoshiro authors); child generators are *forked* by hashing a label into
//! the parent's stream, which decouples the randomness of independent
//! subsystems (provider catalogs, ISP lines, scan noise, …) from each other.

/// SplitMix64 step — used for seeding and label hashing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, for deterministic stream forking.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// xoshiro256++ deterministic PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator for a named subsystem. Forking
    /// with the same label always yields the same stream; different labels
    /// yield decorrelated streams.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut sm = self.s[0] ^ self.s[2] ^ fnv1a(label);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive a child generator from a numeric stream id.
    pub fn fork_idx(&self, idx: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[2] ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` using Lemire's unbiased method. Panics if
    /// `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (bound as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "gen_range requires lo < hi");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform signed range `[lo, hi)`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(hi > lo);
        lo.wrapping_add(self.gen_below((hi - lo) as u64) as i64)
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Choose a uniformly random element of a slice. Panics on empty input.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.gen_below(items.len() as u64) as usize]
    }

    /// Choose an index according to non-negative weights. Panics if all
    /// weights are zero or the slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        self.choose_weighted_with_total(weights, weights.iter().sum())
    }

    /// [`SimRng::choose_weighted`] with the weights' sum precomputed, for
    /// a table drawn from many times. Pass `weights.iter().sum()` (summed
    /// left to right) and every draw is bit-identical to the summing form.
    pub fn choose_weighted_with_total(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            total > 0.0,
            "choose_weighted requires positive total weight"
        );
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir when `k << n`).
    /// Panics if `k > n`. The result is sorted.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample more items than available");
        if k == 0 {
            return Vec::new();
        }
        // Floyd's algorithm: O(k) expected insertions.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.gen_below(j as u64 + 1) as usize;
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_deterministic_and_label_sensitive() {
        let root = SimRng::new(7);
        let mut a1 = root.fork("isp");
        let mut a2 = root.fork("isp");
        let mut b = root.fork("providers");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_below_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_below(7) < 7);
        }
        // All residues hit.
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.gen_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_uniformish() {
        let mut r = SimRng::new(9);
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[r.gen_range(0, 10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should be within 10% of the expectation.
            assert!((c as f64 - n as f64 / 10.0).abs() < n as f64 / 100.0);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(4);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::new(5);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut r = SimRng::new(6);
        let w = [1.0, 3.0];
        let ones = (0..100_000).filter(|_| r.choose_weighted(&w) == 1).count();
        assert!((72_000..78_000).contains(&ones), "ones {ones}");
    }

    #[test]
    fn precomputed_total_draws_like_the_summing_form() {
        let w = [0.25, 0.7, 1.0, 3.0, 2.0, 0.35];
        let total: f64 = w.iter().sum();
        let (mut a, mut b) = (SimRng::new(12), SimRng::new(12));
        for _ in 0..10_000 {
            assert_eq!(
                a.choose_weighted(&w),
                b.choose_weighted_with_total(&w, total)
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::new(10);
        let s = r.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 50));
        // Edge cases.
        assert!(r.sample_indices(5, 0).is_empty());
        assert_eq!(r.sample_indices(5, 5).len(), 5);
    }

    #[test]
    fn gen_range_i64_negative() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let x = r.gen_range_i64(-10, 10);
            assert!((-10..10).contains(&x));
        }
    }
}
