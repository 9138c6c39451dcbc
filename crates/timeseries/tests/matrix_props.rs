//! Robustness properties of the correlation kernel (ISSUE 2, satellite 1c).
//!
//! Unlike `proptests.rs`, which draws from well-behaved finite ranges, these
//! sweeps draw every class of `f64` — NaN, ±Inf, ±0, subnormals, arbitrary
//! bit patterns — plus deliberately constant and empty series, and assert
//! the kernel never emits anything outside `[-1, 1]` and never emits NaN.
//! This is the contract the clustering step (§VI) and the H-SQL fusion (§V)
//! rely on when telemetry is degraded. Failures name the seed.

use pinsql_timeseries::{pearson, weighted_pearson, NormalizedMatrix};
use pinsql_workload::rng::{rng_from_seed, RngExt, StdRng};

const CASES: u64 = 256;

/// Any f64: the special classes are drawn on purpose (uniform bit
/// patterns would meet a NaN once in two thousand draws).
fn any_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        // Subnormal: zero exponent, random sign and mantissa.
        5 => f64::from_bits(rng.random::<u64>() & 0x800f_ffff_ffff_ffff),
        _ => f64::from_bits(rng.random()),
    }
}

fn any_vec(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
    (0..rng.random_range(0..max_len)).map(|_| any_f64(rng)).collect()
}

/// A batch of series of arbitrary (possibly zero, possibly unequal) lengths.
fn any_series_batch(rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..rng.random_range(0..8usize)).map(|_| any_vec(rng, 48)).collect()
}

#[test]
fn matrix_dot_bounded_and_nan_free() {
    for seed in 0..CASES {
        let batch = any_series_batch(&mut rng_from_seed(seed));
        let refs: Vec<&[f64]> = batch.iter().map(|s| s.as_slice()).collect();
        let m = NormalizedMatrix::from_series(&refs);
        assert_eq!(m.len(), batch.len(), "seed {seed}");
        for i in 0..m.len() {
            for j in 0..m.len() {
                let d = m.dot(i, j);
                assert!(!d.is_nan(), "seed {seed}: dot({i},{j}) is NaN");
                assert!((-1.0..=1.0).contains(&d), "seed {seed}: dot({i},{j}) = {d}");
            }
        }
    }
}

#[test]
fn matrix_rows_are_finite_or_invalid() {
    for seed in 0..CASES {
        let batch = any_series_batch(&mut rng_from_seed(seed));
        let refs: Vec<&[f64]> = batch.iter().map(|s| s.as_slice()).collect();
        let m = NormalizedMatrix::from_series(&refs);
        for i in 0..m.len() {
            if let Some(row) = m.row(i) {
                assert!(row.iter().all(|v| v.is_finite()), "seed {seed}: valid row {i} not finite");
            }
        }
    }
}

#[test]
fn matrix_constant_rows_are_invalid() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let (value, len) = (any_f64(&mut rng), rng.random_range(0..32usize));
        let series = vec![value; len];
        let ramp: Vec<f64> = (0..len.max(2)).map(|k| k as f64).collect();
        let m = NormalizedMatrix::from_series(&[&series, &ramp]);
        assert!(!m.is_valid(0), "seed {seed}: {len} × {value}");
        assert_eq!(m.dot(0, 1), 0.0, "seed {seed}: {len} × {value}");
    }
}

#[test]
fn pearson_any_input_bounded() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let r = pearson(&any_vec(&mut rng, 48), &any_vec(&mut rng, 48));
        assert!(!r.is_nan() && (-1.0..=1.0).contains(&r), "seed {seed}: r = {r}");
    }
}

#[test]
fn weighted_pearson_any_input_bounded() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let (xs, ys, ws) = (any_vec(&mut rng, 48), any_vec(&mut rng, 48), any_vec(&mut rng, 48));
        let r = weighted_pearson(&xs, &ys, &ws);
        assert!(!r.is_nan() && (-1.0..=1.0).contains(&r), "seed {seed}: r = {r}");
    }
}

/// For finite inputs the matrix and the pairwise kernel must agree —
/// hardening must not change the clean-telemetry result.
#[test]
fn matrix_agrees_with_pearson_on_finite_input() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let mut finite = || -> Vec<f64> {
            (0..rng.random_range(4..48usize)).map(|_| rng.random_range(-1e6..1e6)).collect()
        };
        let (xs, ys) = (finite(), finite());
        let m = NormalizedMatrix::from_series(&[&xs, &ys]);
        let n = xs.len().min(ys.len());
        let expect = pearson(&xs[..n], &ys[..n]);
        let got = m.dot(0, 1);
        assert!((got - expect).abs() < 1e-9, "seed {seed}: {got} vs {expect}");
    }
}
