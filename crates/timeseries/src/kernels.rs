//! Unrolled, SIMD-friendly f64 kernels for the per-event hot path.
//!
//! The online pipeline's cost is dominated by a handful of tiny numeric
//! loops: summing slices when matrices are normalized and re-deriving
//! rolling median/MAD on every detector step. This module concentrates
//! those loops so they are written once, with two properties the rest of
//! the workspace leans on:
//!
//! * **Deterministic lane semantics.** The slice kernels ([`sum`],
//!   [`sumsq`], [`dot`]) accumulate in eight independent lanes with a
//!   serial tail — a *fixed* association order, identical on every call
//!   site, thread count, and build. They are not "the same rounding as a
//!   serial loop" (they differ by the usual ~1 ulp); they are the same
//!   rounding as *themselves*, everywhere, which is what byte-stable golden
//!   output needs.
//! * **Bit-identical selection statistics.** [`median_of_sorted`] /
//!   [`mad_of_sorted`] produce *exactly* the bits of the "collect, sort,
//!   index the middle" computation, without allocating or sorting: the
//!   rolling window already maintains its contents sorted, and the
//!   absolute deviations about the median form two implicitly sorted
//!   arrays (values below the median, read right-to-left; values at or
//!   above it, read left-to-right), so the middle deviations are order
//!   statistics reachable by an `O(log w)` two-array selection. See
//!   DESIGN.md "Kernel layer" for the rounding argument. The
//!   allocate-and-sort formulation is the test oracle
//!   (`rolling::tests::median_mad_kernels_are_bit_identical`, this
//!   module's tests).

/// The detector statistics kernel: the selection kernels above.
///
/// Single-valued; deleted by the `benchmark` PR (ROADMAP 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Unrolled slice kernels + selection-based rolling median/MAD.
    #[default]
    Fast,
}

/// The window-cut path: one sweep of the resident cells builds the
/// per-template minute rows.
///
/// Single-valued; deleted by the `benchmark` PR (ROADMAP 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CutKind {
    /// Minute rows bucketed during the window cut's cell sweep.
    #[default]
    Incremental,
}

/// Sum of a slice in eight independent lanes plus a serial tail.
///
/// Fixed association order — deterministic across call sites and builds,
/// ~1 ulp from a serial sum. Exact (and order-independent) when every
/// partial sum is an integer below 2^53, the case for execution counts.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for x8 in &mut chunks {
        for k in 0..8 {
            acc[k] += x8[k];
        }
    }
    let tail: f64 = chunks.remainder().iter().sum();
    acc.iter().sum::<f64>() + tail
}

/// Sum of squares of a slice, with [`sum`]'s lane semantics.
#[inline]
pub fn sumsq(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for x8 in &mut chunks {
        for k in 0..8 {
            acc[k] += x8[k] * x8[k];
        }
    }
    let tail: f64 = chunks.remainder().iter().map(|x| x * x).sum();
    acc.iter().sum::<f64>() + tail
}

/// Dot product of two equally-long slices with eight independent
/// accumulators.
///
/// Strict left-to-right f64 summation forms a serial dependence chain
/// LLVM must not reorder, which blocks vectorization of the pair loop —
/// the whole point of the normalized matrix. The fixed lane split keeps
/// the result deterministic (identical for every parallelism level and
/// every call site); it merely differs from single-chain rounding by the
/// usual ~1 ulp, far below the clustering threshold's resolution.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (a8, b8) in (&mut ca).zip(&mut cb) {
        for k in 0..8 {
            acc[k] += a8[k] * b8[k];
        }
    }
    let tail: f64 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    acc.iter().sum::<f64>() + tail
}

/// Median of an ascending-sorted slice; `None` when empty.
///
/// The exact expression of the allocate-and-sort oracle's median (odd:
/// middle element; even: arithmetic mean of the two middles), so the
/// kernel is bit-identical to it by construction.
#[inline]
pub fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Median absolute deviation about `med` of an ascending-sorted slice,
/// without allocating or sorting: `O(log n)` selection instead of the
/// oracle's collect + `O(n log n)` sort.
///
/// The deviations `|v - med|` split at `p = #{v < med}` into two
/// implicitly sorted arrays — `med - sorted[p-1-i]` (values below the
/// median, ascending in `i`) and `sorted[p+j] - med` (values at or above
/// it, ascending in `j`). Both expressions reproduce `(v - med).abs()`
/// *bitwise*: IEEE-754 subtraction rounds sign-symmetrically, so
/// `med - v` and `-(v - med)` are the same bits, and `.abs()` of a
/// negative difference is exactly its negation. The middle deviation(s)
/// are then order statistics of the two-array merge, selected in
/// `O(log n)` by [`kth_of_two_sorted`]; the even-length case averages the
/// two middles with the oracle's exact expression.
///
/// Returns `0.0` for an empty slice (callers gate on emptiness through
/// [`median_of_sorted`]).
pub fn mad_of_sorted(sorted: &[f64], med: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let p = sorted.partition_point(|&v| v < med);
    let below = |i: usize| med - sorted[p - 1 - i];
    let at_or_above = |j: usize| sorted[p + j] - med;
    let (nb, na) = (p, n - p);
    if n % 2 == 1 {
        kth_of_two_sorted(&below, nb, &at_or_above, na, n / 2 + 1)
    } else {
        let lo = kth_of_two_sorted(&below, nb, &at_or_above, na, n / 2);
        let hi = kth_of_two_sorted(&below, nb, &at_or_above, na, n / 2 + 1);
        (lo + hi) / 2.0
    }
}

/// `k`-th smallest (1-indexed) element of the merged contents of two
/// ascending arrays, given as index functions so callers need not
/// materialize them. `O(log)` comparisons: binary search on how many
/// elements the answer's prefix takes from `a`.
fn kth_of_two_sorted(
    a: &impl Fn(usize) -> f64,
    na: usize,
    b: &impl Fn(usize) -> f64,
    nb: usize,
    k: usize,
) -> f64 {
    debug_assert!(k >= 1 && k <= na + nb, "selection rank out of range");
    // i = elements taken from `a`; the prefix is valid once a(i) can no
    // longer be beaten by the b element it would displace.
    let mut lo = k.saturating_sub(nb);
    let mut hi = k.min(na);
    while lo < hi {
        let i = (lo + hi) / 2;
        if a(i) < b(k - i - 1) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, k - lo);
    let mut best = f64::NEG_INFINITY;
    if i > 0 {
        best = a(i - 1);
    }
    if j > 0 {
        let bj = b(j - 1);
        if bj > best {
            best = bj;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_workload::rng::RngExt;

    /// `n` values uniform in [-20, 80), a function of `seed`.
    fn series(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = pinsql_workload::rng::rng_from_seed(seed);
        (0..n).map(|_| rng.random_range(-20.0..80.0)).collect()
    }

    fn reference_mad(sorted: &[f64], med: f64) -> f64 {
        let mut devs: Vec<f64> = sorted.iter().map(|&v| (v - med).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let n = devs.len();
        if n % 2 == 1 {
            devs[n / 2]
        } else {
            (devs[n / 2 - 1] + devs[n / 2]) / 2.0
        }
    }

    #[test]
    fn slice_kernels_match_serial_within_ulps() {
        for n in [0usize, 1, 3, 7, 8, 9, 63, 64, 65, 1000] {
            let xs = series(n as u64 + 1, n);
            let serial_sum: f64 = xs.iter().sum();
            let serial_sumsq: f64 = xs.iter().map(|x| x * x).sum();
            assert!((sum(&xs) - serial_sum).abs() <= 1e-9 * (1.0 + serial_sum.abs()), "n={n}");
            assert!(
                (sumsq(&xs) - serial_sumsq).abs() <= 1e-9 * (1.0 + serial_sumsq),
                "n={n}"
            );
        }
    }

    #[test]
    fn sum_is_exact_on_integer_values() {
        // Execution counts are integer-valued f64s; lane-split summation is
        // exact there, so it equals the serial sum bit-for-bit.
        let xs: Vec<f64> = (0..999).map(|i| ((i * 37) % 1000) as f64).collect();
        let serial: f64 = xs.iter().sum();
        assert_eq!(sum(&xs).to_bits(), serial.to_bits());
    }

    #[test]
    fn dot_matches_serial_within_ulps() {
        for n in [0usize, 5, 8, 17, 200] {
            let a = series(7, n);
            let b = series(11, n);
            let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - serial).abs() <= 1e-9 * (1.0 + serial.abs()), "n={n}");
        }
    }

    #[test]
    fn selection_mad_is_bit_identical_to_reference() {
        for trial in 0..50u64 {
            let n = 1 + (trial as usize * 7) % 130;
            let mut sorted = series(trial, n);
            // Inject duplicates and exact-median hits on some trials.
            if trial % 3 == 0 && n > 4 {
                sorted[1] = sorted[0];
                sorted[n - 1] = sorted[n - 2];
            }
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let med = median_of_sorted(&sorted).unwrap();
            let fast = mad_of_sorted(&sorted, med);
            let reference = reference_mad(&sorted, med);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "trial {trial}, n {n}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn selection_mad_handles_constant_and_tiny_windows() {
        for sorted in [vec![4.0; 9], vec![4.0; 8], vec![1.0], vec![1.0, 1.0], vec![]] {
            match median_of_sorted(&sorted) {
                Some(med) => {
                    let fast = mad_of_sorted(&sorted, med);
                    let reference = reference_mad(&sorted, med);
                    assert_eq!(fast.to_bits(), reference.to_bits());
                    assert_eq!(fast, 0.0, "constant window has zero MAD");
                }
                None => assert!(sorted.is_empty()),
            }
        }
    }

    #[test]
    fn kth_selection_agrees_with_merged_sort() {
        for trial in 0..20u64 {
            let mut a = series(trial * 2 + 1, (trial as usize) % 9);
            let mut b = series(trial * 2 + 2, 1 + (trial as usize * 3) % 11);
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let mut merged: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            merged.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for k in 1..=merged.len() {
                let got = kth_of_two_sorted(&|i| a[i], a.len(), &|j| b[j], b.len(), k);
                assert_eq!(got.to_bits(), merged[k - 1].to_bits(), "trial {trial} k {k}");
            }
        }
    }
}
