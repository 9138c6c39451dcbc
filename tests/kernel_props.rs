//! Property checks of the timeseries kernels against scalar formulations.
//!
//! The unrolled slice kernels (`pinsql_timeseries::kernels`) must agree
//! with serial loops: ~ulp in general, bitwise on integer-valued data.
//! The selection-based `RollingWindow::median_mad` must be *bit-identical*
//! to an allocate-and-sort median/MAD of the window's contents, which this
//! suite recomputes from `arrival_values()` after every push. The streams
//! are seeded (`pinsql_testkit::sweep`): random, out-of-order arrivals,
//! perturbation-degraded (dropped, duplicated and spiked samples — the
//! shapes the chaos layer produces), constant series and ±inf edge cases.
//! The timeseries crate's own
//! `rolling::tests::median_mad_kernels_are_bit_identical` sweeps the same
//! shapes against its in-crate oracle over 320 seeds.

use pinsql_testkit::sweep;
use pinsql_timeseries::kernels;
use pinsql_timeseries::rolling::RollingWindow;
use pinsql_workload::rng::{rng_from_seed, RngExt};

/// Median of an ascending slice: the middle value, or the mean of the two
/// middle values.
fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Allocate-and-sort median and MAD of `values`.
fn sorted_median_mad(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in window"));
    let med = median_of(&sorted);
    let mut devs: Vec<f64> = sorted.iter().map(|&v| (v - med).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in deviations"));
    (med, median_of(&devs))
}

/// Asserts `median_mad()` equals the allocate-and-sort oracle bitwise
/// after every push.
fn assert_window_equivalence(capacity: usize, stream: &[f64], ctx: &str) {
    let mut w = RollingWindow::new(capacity);
    for (i, &x) in stream.iter().enumerate() {
        w.push(x);
        let fast = w.median_mad().expect("non-empty window");
        let reference = sorted_median_mad(&w.arrival_values());
        assert_eq!(
            (fast.0.to_bits(), fast.1.to_bits()),
            (reference.0.to_bits(), reference.1.to_bits()),
            "{ctx}: kernel divergence at step {i} (cap {capacity}, fast {fast:?}, reference {reference:?})"
        );
    }
}

#[test]
fn rolling_median_mad_matches_reference_on_random_streams() {
    sweep(0..32, |_, rng| {
        let capacity = 1 + rng.random_range(0..64usize);
        let stream: Vec<f64> = (0..200).map(|_| (rng.random::<f64>() - 0.5) * 1e3).collect();
        assert_window_equivalence(capacity, &stream, "random");
    });
}

#[test]
fn rolling_median_mad_matches_reference_on_out_of_order_streams() {
    // The window is arrival-ordered, so "out of order" means the sorted
    // buffer sees inserts at arbitrary positions: feed ascending, then
    // descending, then block-shuffled versions of the same values.
    let rng = &mut rng_from_seed(0xD15EA5E);
    let mut values: Vec<f64> = (0..150).map(|_| rng.random::<f64>() * 100.0).collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for capacity in [1, 2, 5, 32] {
        assert_window_equivalence(capacity, &values, "ascending");
        let descending: Vec<f64> = values.iter().rev().copied().collect();
        assert_window_equivalence(capacity, &descending, "descending");
        let mut shuffled = values.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.random_range(0..i + 1));
        }
        assert_window_equivalence(capacity, &shuffled, "shuffled");
    }
}

#[test]
fn rolling_median_mad_matches_reference_on_degraded_streams() {
    // Perturbation-shaped degradation: a smooth baseline with samples
    // dropped (gaps change the window's phase), duplicated (heavy ties),
    // and spiked (outliers push the median off-center).
    sweep(0..16, |_, rng| {
        let mut stream = Vec::new();
        let mut last = 10.0;
        for t in 0..300 {
            let base = 10.0 + (t as f64 / 20.0).sin() * 2.0 + rng.random::<f64>();
            match rng.random_range(0..10usize) {
                0 => continue,                      // dropped sample
                1 => {
                    stream.push(last);              // duplicated sample
                    stream.push(last);
                }
                2 => stream.push(base * 50.0),      // spike
                _ => stream.push(base),
            }
            last = base;
        }
        let capacity = 1 + rng.random_range(0..48usize);
        assert_window_equivalence(capacity, &stream, "degraded");
    });
}

#[test]
fn rolling_median_mad_matches_reference_on_constant_series() {
    for value in [0.0, -0.0, 1.0, -273.15, 1e300] {
        let stream = vec![value; 40];
        for capacity in [1, 2, 7, 40] {
            assert_window_equivalence(capacity, &stream, "constant");
        }
        let mut w = RollingWindow::new(8);
        for _ in 0..8 {
            w.push(value);
        }
        let (med, mad) = w.median_mad().unwrap();
        assert_eq!(med.to_bits(), value.to_bits(), "median of a constant series is the value");
        assert_eq!(mad, 0.0, "MAD of a constant series is zero");
    }
}

#[test]
fn rolling_median_mad_matches_reference_with_infinities() {
    // ±inf sorts and subtracts deterministically as long as the median
    // itself stays finite; both formulations must agree bit-for-bit.
    let mut stream: Vec<f64> = (0..30).map(|i| i as f64).collect();
    stream[7] = f64::INFINITY;
    stream[19] = f64::NEG_INFINITY;
    for capacity in [5, 9, 30] {
        assert_window_equivalence(capacity, &stream, "infinities");
    }
}

#[test]
fn slice_kernels_agree_with_serial_loops() {
    // The lane-split sum/sumsq/dot promise ~ulp agreement with the serial
    // loop in general and bitwise equality on integer-valued data.
    let rng = &mut rng_from_seed(0xAB5);
    for n in [0usize, 1, 7, 8, 9, 64, 65, 333] {
        let xs: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 10.0 - 3.0).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 10.0 - 3.0).collect();
        let serial_sum: f64 = xs.iter().sum();
        let serial_dot: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((kernels::sum(&xs) - serial_sum).abs() <= 1e-9 * (1.0 + serial_sum.abs()));
        assert!((kernels::dot(&xs, &ys) - serial_dot).abs() <= 1e-9 * (1.0 + serial_dot.abs()));

        let counts: Vec<f64> = (0..n).map(|_| rng.random_range(0..100_000usize) as f64).collect();
        let serial: f64 = counts.iter().sum();
        if n > 0 {
            assert_eq!(kernels::sum(&counts).to_bits(), serial.to_bits(), "integer sums are exact");
        }
    }
    // std's `Iterator::sum` folds from a -0.0 identity, so the *serial*
    // empty sum is -0.0; the kernel's is +0.0. Numerically equal — and the
    // kernel's sign is the stable one across input lengths.
    assert_eq!(kernels::sum(&[]).to_bits(), 0.0f64.to_bits());
    assert!(kernels::sum(&[1.0, f64::NAN]).is_nan(), "NaN propagates");
    assert!(kernels::sumsq(&[f64::INFINITY]).is_infinite());
}
