//! Property sweeps for the time-series substrate: each property runs on
//! `CASES` seeded random inputs and names the failing seed.

use pinsql_timeseries::rolling::RollingWindow;
use pinsql_timeseries::{
    connected_components, mean_squared_error, min_max_normalize, pearson, sigmoid_window_weights,
    tukey_fences, weighted_pearson, TimeSeries,
};
use pinsql_workload::rng::{rng_from_seed, RngExt, StdRng};

const CASES: u64 = 256;

/// `lo..hi` values, each in `range`.
fn vec_in(rng: &mut StdRng, lo: usize, hi: usize, range: std::ops::Range<f64>) -> Vec<f64> {
    (0..rng.random_range(lo..hi)).map(|_| rng.random_range(range.clone())).collect()
}

fn finite_vec(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
    vec_in(rng, 2, max_len, -1e6..1e6)
}

/// An integer in `lo..hi`.
fn int_in(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    lo + rng.random_range(0..(hi - lo) as u64) as i64
}

#[test]
fn pearson_is_symmetric() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let (xs, ys) = (finite_vec(&mut rng, 64), finite_vec(&mut rng, 64));
        let a = pearson(&xs, &ys);
        let b = pearson(&ys, &xs);
        assert!((a - b).abs() < 1e-9, "seed {seed}: a={a} b={b}");
    }
}

#[test]
fn pearson_bounded() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let r = pearson(&finite_vec(&mut rng, 64), &finite_vec(&mut rng, 64));
        assert!((-1.0..=1.0).contains(&r) && !r.is_nan(), "seed {seed}: r={r}");
    }
}

#[test]
fn pearson_invariant_under_affine_transform() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let xs = finite_vec(&mut rng, 32);
        let (scale, shift) = (rng.random_range(0.01..100.0), rng.random_range(-1e3..1e3));
        let ys: Vec<f64> = xs.iter().map(|&x| scale * x + shift).collect();
        let r = pearson(&xs, &ys);
        // Either xs is constant (r = 0) or correlation is exactly 1.
        assert!(r == 0.0 || (r - 1.0).abs() < 1e-6, "seed {seed}: r={r}");
    }
}

#[test]
fn weighted_pearson_with_uniform_weights_matches_plain() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let (xs, ys) = (finite_vec(&mut rng, 32), finite_vec(&mut rng, 32));
        let n = xs.len().min(ys.len());
        let ws = vec![1.0; n];
        let a = weighted_pearson(&xs[..n], &ys[..n], &ws);
        let b = pearson(&xs[..n], &ys[..n]);
        assert!((a - b).abs() < 1e-6, "seed {seed}: a={a} b={b}");
    }
}

#[test]
fn weighted_pearson_bounded() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let (xs, ys) = (finite_vec(&mut rng, 32), finite_vec(&mut rng, 32));
        let ws = vec_in(&mut rng, 2, 32, 0.0..1.0);
        let r = weighted_pearson(&xs, &ys, &ws);
        assert!((-1.0..=1.0).contains(&r) && !r.is_nan(), "seed {seed}: r={r}");
    }
}

#[test]
fn min_max_normalize_into_unit_interval() {
    for seed in 0..CASES {
        let mut xs = finite_vec(&mut rng_from_seed(seed), 64);
        min_max_normalize(&mut xs);
        assert!(xs.iter().all(|x| (0.0..=1.0).contains(x)), "seed {seed}: {xs:?}");
        // Some element attains 0 (the minimum maps there).
        assert!(xs.contains(&0.0), "seed {seed}: {xs:?}");
    }
}

#[test]
fn sigmoid_weights_in_unit_interval() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let span = int_in(&mut rng, 1, 500);
        let a = int_in(&mut rng, 0, 400);
        let len = int_in(&mut rng, 1, 100);
        let ks = rng.random_range(0.01..1e4);
        let ws = sigmoid_window_weights(0, span, 1, a, a + len, ks);
        assert_eq!(ws.len(), span as usize, "seed {seed}");
        assert!(ws.iter().all(|w| (0.0..=1.0).contains(w)), "seed {seed}: {ws:?}");
    }
}

#[test]
fn tukey_fences_contain_the_quartiles() {
    for seed in 0..CASES {
        let xs = finite_vec(&mut rng_from_seed(seed), 64);
        let f = tukey_fences(&xs, 1.5).unwrap();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The median never lies outside the fences.
        let med = sorted[sorted.len() / 2];
        assert!(med >= f.lower - 1e-9 && med <= f.upper + 1e-9, "seed {seed}: {med} vs {f:?}");
    }
}

#[test]
fn rolling_window_median_matches_naive() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let xs = vec_in(&mut rng, 1, 200, -1e3..1e3);
        let cap = rng.random_range(1..20usize);
        let mut w = RollingWindow::new(cap);
        for (i, &x) in xs.iter().enumerate() {
            w.push(x);
            let lo = (i + 1).saturating_sub(cap);
            let mut naive: Vec<f64> = xs[lo..=i].to_vec();
            naive.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = naive.len();
            let expect =
                if n % 2 == 1 { naive[n / 2] } else { (naive[n / 2 - 1] + naive[n / 2]) / 2.0 };
            assert!((w.median_mad().unwrap().0 - expect).abs() < 1e-9, "seed {seed}: push {i}");
        }
    }
}

#[test]
fn series_window_sum_matches_slice_sum() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let values = vec_in(&mut rng, 0, 64, -100.0..100.0);
        let from = int_in(&mut rng, -10, 80);
        let span = int_in(&mut rng, 0, 80);
        let ts = TimeSeries::from_values(0, 1, values);
        let a = ts.sum_window(from, from + span);
        let b: f64 = ts.window(from, from + span).iter().sum();
        assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
    }
}

#[test]
fn mse_nonnegative_and_zero_on_self() {
    for seed in 0..CASES {
        let xs = finite_vec(&mut rng_from_seed(seed), 64);
        assert_eq!(mean_squared_error(&xs, &xs), 0.0, "seed {seed}");
        let ys: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        assert!((mean_squared_error(&xs, &ys) - 1.0).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn components_partition_all_nodes() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let series: Vec<Vec<f64>> = (0..rng.random_range(0..12usize))
            .map(|_| vec_in(&mut rng, 4, 12, -100.0..100.0))
            .collect();
        let tau = rng.random_range(0.0..1.0);
        let refs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let comps = connected_components(&refs, tau);
        let mut seen: Vec<usize> = comps.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..series.len()).collect::<Vec<_>>(), "seed {seed}");
    }
}
