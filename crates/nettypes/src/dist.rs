//! Probability distributions over [`SimRng`].
//!
//! The synthetic workload models need heavy-tailed and diurnal shapes:
//! per-device daily volume is log-normal (the >99% < 10 MB/day finding of
//! Fig. 12a emerges from the log-normal body with a thin heavy tail), device
//! counts per subscriber line are zipf-ish, and flow inter-arrivals are
//! exponential/Poisson.

use crate::rng::SimRng;

/// Standard-normal sample (Box–Muller, taking one of the pair).
pub fn normal(rng: &mut SimRng) -> f64 {
    // Avoid ln(0).
    let u1 = loop {
        let u = rng.f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal with mean and standard deviation.
pub fn normal_with(rng: &mut SimRng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * normal(rng)
}

/// Log-normal sample with parameters of the underlying normal
/// (`mu`, `sigma` in log space).
pub fn log_normal(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// Log-normal parameterized by its *median* (`exp(mu)`), which is more
/// intuitive for traffic models: half the samples are below the median.
pub fn log_normal_median(rng: &mut SimRng, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0);
    log_normal(rng, median.ln(), sigma)
}

/// Exponential sample with the given rate (`1/mean`).
pub fn exponential(rng: &mut SimRng, rate: f64) -> f64 {
    assert!(rate > 0.0);
    let u = loop {
        let u = rng.f64();
        if u > 0.0 {
            break u;
        }
    };
    -u.ln() / rate
}

/// Poisson sample. Uses Knuth's method for small means and a rounded
/// normal approximation for large means.
pub fn poisson(rng: &mut SimRng, mean: f64) -> u64 {
    assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal_with(rng, mean, mean.sqrt());
        if x < 0.0 {
            0
        } else {
            x.round() as u64
        }
    }
}

/// Pareto (type I) sample with scale `x_min` and shape `alpha`.
pub fn pareto(rng: &mut SimRng, x_min: f64, alpha: f64) -> f64 {
    assert!(x_min > 0.0 && alpha > 0.0);
    let u = loop {
        let u = rng.f64();
        if u > 0.0 {
            break u;
        }
    };
    x_min / u.powf(1.0 / alpha)
}

/// A precomputed Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Sampling is by inverse CDF over the cumulative weights (O(log n)).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf over `n` ranks with exponent `s` (s=1 is classic Zipf).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Sample a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.f64() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xD15EA5E)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = normal(&mut r);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_median_matches() {
        let mut r = rng();
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n)
            .map(|_| log_normal_median(&mut r, 5.0, 1.2))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[n / 2];
        assert!((med - 5.0).abs() < 0.3, "median {med}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut r, 3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut r, 200.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn pareto_min_respected() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(pareto(&mut r, 2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn zipf_rank_ordering() {
        let z = Zipf::new(10, 1.0);
        let mut r = rng();
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank 0 strictly most popular; monotone-ish decay.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[4]);
        assert!(counts[4] > counts[9]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(25, 0.8);
        let total: f64 = (0..25).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    /// Inputs per randomized property; case `c` draws from `SimRng::new(c)`.
    const CASES: u64 = 256;

    /// Samplers stay within their mathematical supports for arbitrary
    /// seeds and parameters.
    #[test]
    fn supports_hold() {
        for case in 0..CASES {
            let mut params = SimRng::new(case);
            let seed = params.next_u64();
            let median = params.f64_range(1.0, 1e9);
            let sigma = params.f64_range(0.01, 3.0);
            let alpha = params.f64_range(0.2, 5.0);
            let ctx =
                format!("case {case}: seed={seed} median={median} sigma={sigma} alpha={alpha}");
            let mut rng = SimRng::new(seed);
            for _ in 0..64 {
                assert!(log_normal_median(&mut rng, median, sigma) > 0.0, "{ctx}");
                assert!(exponential(&mut rng, 1.0 / median) >= 0.0, "{ctx}");
                assert!(pareto(&mut rng, median, alpha) >= median, "{ctx}");
            }
        }
    }

    /// Zipf samples are valid ranks and rank-0 dominates for s >= 1.
    #[test]
    fn zipf_valid() {
        for case in 0..CASES {
            let mut params = SimRng::new(case);
            let seed = params.next_u64();
            let n = params.gen_range(2, 64) as usize;
            let ctx = format!("case {case}: seed={seed} n={n}");
            let z = Zipf::new(n, 1.2);
            let mut rng = SimRng::new(seed);
            let mut counts = vec![0u32; n];
            for _ in 0..512 {
                let k = z.sample(&mut rng);
                assert!(k < n, "{ctx}: rank {k}");
                counts[k] += 1;
            }
            assert!(counts[0] >= counts[n - 1], "{ctx}: counts={counts:?}");
        }
    }
}
