//! The seeded generator and the samplers used across workload generation.
//!
//! Nothing outside the repository is a dependency, so both live here: the
//! generator ([`StdRng`], xoshiro256**, in [`xoshiro`]) and the
//! distributions the workload needs — Poisson (Knuth's method with a
//! normal approximation for large rates), log-normal via Box–Muller, and a
//! Zipf sampler for hot-row selection.

mod xoshiro;

pub use xoshiro::rngs::StdRng;
pub use xoshiro::{Rng, RngExt, SeedableRng};

/// Creates the deterministic RNG used throughout the workload layer.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard normal deviate via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `LogNormal(μ, σ)` where μ/σ are the parameters of the underlying
/// normal. Use [`lognormal_with_mean`] to parameterize by the target mean.
pub fn lognormal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples a log-normal with the given *mean* and coefficient-of-variation
/// shape `sigma` (σ of the underlying normal). `mean(LogN(μ,σ)) = e^{μ+σ²/2}`
/// so `μ = ln(mean) − σ²/2`.
///
/// Query response-time distributions are heavy-tailed; log-normal service
/// demands are the standard modelling choice for OLTP cost profiles.
pub fn lognormal_with_mean(rng: &mut impl Rng, mean: f64, sigma: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let mu = mean.ln() - sigma * sigma / 2.0;
    lognormal(rng, mu, sigma)
}

/// Samples `Poisson(lambda)`.
///
/// Knuth's multiplication method for small rates; for `λ > 30` a rounded
/// normal approximation `N(λ, λ)` (clamped at zero) keeps this O(1) — the
/// error is far below the noise of the workloads generated here.
pub fn poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = lambda + lambda.sqrt() * standard_normal(rng);
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples an exponential inter-arrival time with the given rate (per
/// second), in seconds.
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

/// A Zipf sampler over `{0, …, n−1}` with exponent `s`, used to pick hot
/// rows: low indices are sampled most often.
///
/// Uses the rejection-inversion-free approach of precomputing the CDF,
/// which is fine for the table cardinalities the lock model uses (hot
/// ranges of at most a few thousand slots).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `s ≥ 0` (s = 0 is
    /// uniform).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Samples an index in `{0, …, n−1}`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    /// Known answers, computed from `benchmark/shims/rand` before it was
    /// copied here. A failure means every workload, table and golden file
    /// in the repository has silently moved.
    #[test]
    fn stream_is_pinned() {
        let first8 = |seed| -> [u64; 8] {
            let mut rng = rng_from_seed(seed);
            std::array::from_fn(|_| rng.random::<u64>())
        };
        assert_eq!(
            first8(0),
            [
                0x99ec5f36cb75f2b4,
                0xbf6e1f784956452a,
                0x1a5f849d4933e6e0,
                0x6aa594f1262d2d2c,
                0xbba5ad4a1f842e59,
                0xffef8375d9ebcaca,
                0x6c160deed2f54c98,
                0x8920ad648fc30a3f,
            ]
        );
        assert_eq!(
            first8(1),
            [
                0xb3f2af6d0fc710c5,
                0x853b559647364cea,
                0x92f89756082a4514,
                0x642e1c7bc266a3a7,
                0xb27a48e29a233673,
                0x24c123126ffda722,
                0x123004ef8df510e6,
                0x61954dcc47b1e89d,
            ]
        );
        assert_eq!(
            first8(12000),
            [
                0xc6c6845349d70594,
                0x35eeacecf5a9d684,
                0xfc1054111292d147,
                0x38fb83d95491adec,
                0x015a5655ea4a3fe1,
                0x6162123e00261493,
                0xabd5bf06285d6c50,
                0xb005a08eb6555470,
            ]
        );
        // One draw of every kind, in sequence, from seed 1: the unit
        // float, Lemire's `below` at both ends of u64, the one-value
        // range (no draw consumed would shift what follows), the full
        // range (`span` wraps to 0) and the float range.
        let mut rng = rng_from_seed(1);
        assert_eq!(rng.random::<f64>().to_bits(), 0x3fe67e55eda1f8e2);
        assert_eq!(rng.random_range(u64::MAX - 1..=u64::MAX), u64::MAX);
        assert_eq!(rng.random_range(5..=5usize), 5);
        assert_eq!(rng.random_range(0..=u64::MAX), 0x642e1c7bc266a3a7);
        assert_eq!(rng.random_range(-1.5..2.5).to_bits(), 0x3ff49e9238a688cc);
        assert_eq!(rng.random::<u32>(), 616637202);
        assert_eq!(rng.random_range(0..3u32), 0);
        assert_eq!(rng.random::<u64>(), 0x61954dcc47b1e89d);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_with_mean_hits_target_mean() {
        let mut rng = rng_from_seed(2);
        let n = 50_000;
        let target = 12.5;
        let sum: f64 = (0..n).map(|_| lognormal_with_mean(&mut rng, target, 0.8)).sum();
        let mean = sum / n as f64;
        assert!((mean - target).abs() / target < 0.05, "mean {mean}");
        assert_eq!(lognormal_with_mean(&mut rng, 0.0, 1.0), 0.0);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = rng_from_seed(3);
        let n = 50_000;
        let lambda = 3.5;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean_and_variance() {
        let mut rng = rng_from_seed(4);
        let n = 20_000;
        let lambda = 250.0;
        let xs: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() / lambda < 0.02, "mean {mean}");
        assert!((var - lambda).abs() / lambda < 0.1, "var {var}");
    }

    #[test]
    fn poisson_zero_or_negative_lambda_is_zero() {
        let mut rng = rng_from_seed(5);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = rng_from_seed(6);
        let n = 50_000;
        let rate = 4.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let mut rng = rng_from_seed(7);
        let z = Zipf::new(100, 1.2);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // All samples are in range (would have panicked otherwise).
    }

    #[test]
    fn zipf_with_zero_exponent_is_roughly_uniform() {
        let mut rng = rng_from_seed(8);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (lo, hi) = counts.iter().fold((usize::MAX, 0), |(l, h), &c| (l.min(c), h.max(c)));
        assert!((hi as f64 - lo as f64) / 10_000.0 < 0.1, "lo={lo} hi={hi}");
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn zipf_empty_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
