//! Unrolled, SIMD-friendly f64 kernels and streaming moment state for the
//! per-event hot path.
//!
//! The online pipeline's cost is dominated by a handful of tiny numeric
//! loops: summing slices when matrices are normalized, re-deriving rolling
//! median/MAD on every detector step, and re-counting window aggregates at
//! snapshot time. This module concentrates those loops so they are written
//! once, with two properties the rest of the workspace leans on:
//!
//! * **Deterministic lane semantics.** The slice kernels ([`sum`],
//!   [`sumsq`], [`dot`]) accumulate in eight independent lanes with a
//!   serial tail — a *fixed* association order, identical on every call
//!   site, thread count, and build. They are not "the same rounding as a
//!   serial loop" (they differ by the usual ~1 ulp); they are the same
//!   rounding as *themselves*, everywhere, which is what byte-stable golden
//!   output needs.
//! * **Bit-identical selection statistics.** [`median_of_sorted`] /
//!   [`mad_of_sorted`] produce *exactly* the bits of the reference
//!   "collect, sort, index the middle" computation, without allocating or
//!   sorting: the rolling window already maintains its contents sorted, and
//!   the absolute deviations about the median form two implicitly sorted
//!   arrays (values below the median, read right-to-left; values at or
//!   above it, read left-to-right), so the middle deviations are order
//!   statistics reachable by an `O(log w)` two-array selection. See
//!   DESIGN.md "Kernel layer" for the rounding argument.
//!
//! [`KernelKind`] is the knob: `Reference` is the straight-line scalar
//! formulation kept for equivalence testing, `Fast` the kernels here. The
//! two are pinned bit-identical by unit tests below, `kernel_props` at the
//! workspace root, and the golden-corpus equivalence suites.

/// Which statistics implementation the detector layers use.
///
/// Both kinds produce bit-identical output (pinned by the golden corpus
/// across shards × fanout × kernel); `Reference` exists so the equivalence
/// suites always have a straight-line scalar formulation to diff against,
/// and as the escape hatch if a future platform's rounding ever disagrees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Allocate-and-sort scalar statistics (the original formulation).
    Reference,
    /// Unrolled slice kernels + selection-based rolling median/MAD.
    #[default]
    Fast,
}

impl KernelKind {
    /// Stable lowercase label for bench output and summaries.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Reference => "reference",
            KernelKind::Fast => "fast",
        }
    }
}

/// How a case cut assembles its per-template minute trends and gate
/// correlations.
///
/// Both kinds produce bit-identical diagnosis output (pinned by the golden
/// corpus across shards × fanout × kernel × cut): the incremental path
/// buckets the same integer execution counts into the same minute rows the
/// reference path derives by re-scanning the window, and both feed the one
/// shared [`crate::NormalizedMatrix::from_series`] normalization.
/// `Reference` exists as the re-scan formulation the equivalence suites
/// diff against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CutKind {
    /// Rebuild minute trends by re-scanning the window at every cut.
    Reference,
    /// Assemble the cut from running per-template moments kept at ingest.
    #[default]
    Incremental,
}

impl CutKind {
    /// Stable lowercase label for bench output and summaries.
    pub fn label(self) -> &'static str {
        match self {
            CutKind::Reference => "reference",
            CutKind::Incremental => "incremental",
        }
    }
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
/// The exact expression of the reference rolling-window median (odd:
/// middle element; even: arithmetic mean of the two middles), so the fast
/// path is bit-identical by construction.
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
/// reference's collect + `O(n log n)` sort.
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
/// two middles with the reference's exact expression.
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

/// Running first and second moments of a value stream with eviction.
///
/// Backs the collector's O(1)-per-template snapshot finalize: per-slot
/// window moments accumulate in one sweep over the touched cells, after
/// which each template's membership, total executions, and exact
/// `record_idx` capacity are plain field reads. Add/evict symmetry is
/// *exact* for integer-valued data below 2^53 (per-second execution
/// counts), the only data the collector feeds it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MomentAccumulator {
    n: u64,
    sum: f64,
    sumsq: f64,
}

impl MomentAccumulator {
    /// Reconstructs an accumulator from exported sums (checkpoint restore;
    /// the inverse of reading [`count`](Self::count) / [`sum`](Self::sum) /
    /// [`sum_sq`](Self::sum_sq)).
    pub fn from_sums(n: u64, sum: f64, sumsq: f64) -> Self {
        Self { n, sum, sumsq }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sumsq += x * x;
    }

    /// Removes one previously-pushed observation (exact inverse of
    /// [`push`](Self::push) for integer-valued data).
    #[inline]
    pub fn evict(&mut self, x: f64) {
        debug_assert!(self.n > 0, "evict from empty accumulator");
        self.n -= 1;
        self.sum -= x;
        self.sumsq -= x * x;
    }

    /// Folds another accumulator's observations in.
    #[inline]
    pub fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }

    /// Removes another accumulator's observations (exact inverse of
    /// [`merge`](Self::merge) for integer-valued data) — the complement
    /// trick: window moments are the resident total minus the out-of-window
    /// remainder, without walking the window itself.
    #[inline]
    pub fn unmerge(&mut self, other: &Self) {
        debug_assert!(self.n >= other.n, "unmerge more observations than folded in");
        self.n -= other.n;
        self.sum -= other.sum;
        self.sumsq -= other.sumsq;
    }

    /// Resets to the empty state (for scratch reuse).
    #[inline]
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Observations folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum of squared observations.
    #[inline]
    pub fn sum_sq(&self) -> f64 {
        self.sumsq
    }

    /// Mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Population variance `E[x²] − E[x]²`, floored at zero against
    /// cancellation; `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        Some((self.sumsq / self.n as f64 - mean * mean).max(0.0))
    }
}

/// Running bivariate moments of an `(x, y)` pair stream with eviction —
/// everything a Pearson correlation needs, updatable in O(1) per
/// observation.
///
/// Backs the collector's incremental cut gate: per-template co-moments of
/// (execution count, session metric) accumulate at ingest, so the
/// template↔metric correlation that gates H-SQL candidate selection is a
/// handful of field reads at cut time instead of a window scan. Push/evict
/// and merge/unmerge are exact inverses for integer-valued data; mixed
/// real-valued streams instead lean on periodic renormalization (pinned by
/// the `cut_props` drift suite).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoMomentAccumulator {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl CoMomentAccumulator {
    /// Builds directly from raw sums (for assembling a window view out of
    /// separately maintained marginal and cross moments).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn from_sums(n: u64, sx: f64, sy: f64, sxx: f64, syy: f64, sxy: f64) -> Self {
        Self { n, sx, sy, sxx, syy, sxy }
    }

    /// Folds one `(x, y)` observation in.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    /// Removes one previously-pushed observation.
    #[inline]
    pub fn evict(&mut self, x: f64, y: f64) {
        debug_assert!(self.n > 0, "evict from empty co-accumulator");
        self.n -= 1;
        self.sx -= x;
        self.sy -= y;
        self.sxx -= x * x;
        self.syy -= y * y;
        self.sxy -= x * y;
    }

    /// Folds another accumulator's observations in.
    #[inline]
    pub fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sx += other.sx;
        self.sy += other.sy;
        self.sxx += other.sxx;
        self.syy += other.syy;
        self.sxy += other.sxy;
    }

    /// Removes another accumulator's observations — the complement trick,
    /// see [`MomentAccumulator::unmerge`].
    #[inline]
    pub fn unmerge(&mut self, other: &Self) {
        debug_assert!(self.n >= other.n, "unmerge more observations than folded in");
        self.n -= other.n;
        self.sx -= other.sx;
        self.sy -= other.sy;
        self.sxx -= other.sxx;
        self.syy -= other.syy;
        self.sxy -= other.sxy;
    }

    /// Resets to the empty state (for scratch reuse).
    #[inline]
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Observations folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Pearson correlation of the folded stream, clamped to `[-1, 1]`;
    /// `0.0` for degenerate input (fewer than two observations, zero
    /// variance on either side, or cancellation-poisoned sums), matching
    /// [`crate::stats::pearson`]'s degenerate-input contract.
    pub fn pearson(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let cov = self.sxy / n - (self.sx / n) * (self.sy / n);
        let var_x = (self.sxx / n - (self.sx / n) * (self.sx / n)).max(0.0);
        let var_y = (self.syy / n - (self.sy / n) * (self.sy / n)).max(0.0);
        let denom = (var_x * var_y).sqrt();
        if !denom.is_finite() || denom <= f64::EPSILON * f64::EPSILON {
            return 0.0;
        }
        let r = cov / denom;
        if r.is_finite() {
            r.clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64) * 100.0 - 20.0
            })
            .collect()
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
            let xs = lcg_series(n as u64 + 1, n);
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
            let a = lcg_series(7, n);
            let b = lcg_series(11, n);
            let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - serial).abs() <= 1e-9 * (1.0 + serial.abs()), "n={n}");
        }
    }

    #[test]
    fn selection_mad_is_bit_identical_to_reference() {
        for trial in 0..50u64 {
            let n = 1 + (trial as usize * 7) % 130;
            let mut sorted = lcg_series(trial, n);
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
            let mut a = lcg_series(trial * 2 + 1, (trial as usize) % 9);
            let mut b = lcg_series(trial * 2 + 2, 1 + (trial as usize * 3) % 11);
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

    #[test]
    fn moment_accumulator_push_evict_is_exact_on_counts() {
        let mut acc = MomentAccumulator::default();
        let xs: Vec<f64> = (0..500).map(|i| ((i * 13) % 97) as f64).collect();
        for &x in &xs {
            acc.push(x);
        }
        let full = acc;
        for &x in &xs[..200] {
            acc.evict(x);
        }
        let mut tail = MomentAccumulator::default();
        for &x in &xs[200..] {
            tail.push(x);
        }
        assert_eq!(acc.count(), tail.count());
        assert_eq!(acc.sum().to_bits(), tail.sum().to_bits(), "integer eviction is exact");
        assert_eq!(acc.sum_sq().to_bits(), tail.sum_sq().to_bits());

        let mut merged = acc;
        let mut head = MomentAccumulator::default();
        for &x in &xs[..200] {
            head.push(x);
        }
        merged.merge(&head);
        assert_eq!(merged.count(), full.count());
        assert_eq!(merged.sum(), full.sum());
    }

    #[test]
    fn moment_accumulator_stats() {
        let mut acc = MomentAccumulator::default();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
        for x in [2.0, 4.0, 6.0] {
            acc.push(x);
        }
        assert_eq!(acc.mean(), Some(4.0));
        let var = acc.variance().unwrap();
        assert!((var - 8.0 / 3.0).abs() < 1e-12);
        acc.clear();
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn moment_accumulator_unmerge_inverts_merge_on_counts() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 29) % 83) as f64).collect();
        let mut total = MomentAccumulator::default();
        let mut head = MomentAccumulator::default();
        for (i, &x) in xs.iter().enumerate() {
            total.push(x);
            if i < 120 {
                head.push(x);
            }
        }
        let mut tail = total;
        tail.unmerge(&head);
        let mut expect = MomentAccumulator::default();
        for &x in &xs[120..] {
            expect.push(x);
        }
        assert_eq!(tail.count(), expect.count());
        assert_eq!(tail.sum().to_bits(), expect.sum().to_bits());
        assert_eq!(tail.sum_sq().to_bits(), expect.sum_sq().to_bits());
    }

    #[test]
    fn co_moments_match_direct_pearson() {
        let xs = lcg_series(3, 240);
        let ys = lcg_series(9, 240);
        let mut acc = CoMomentAccumulator::default();
        for (&x, &y) in xs.iter().zip(&ys) {
            acc.push(x, y);
        }
        let direct = crate::stats::pearson(&xs, &ys);
        assert!((acc.pearson() - direct).abs() < 1e-9, "{} vs {direct}", acc.pearson());
    }

    #[test]
    fn co_moments_evict_and_unmerge_are_exact_on_counts() {
        // Integer-valued pairs (the collector's execution counts against
        // integer-ish session samples): the inverse ops are bit-exact.
        let pairs: Vec<(f64, f64)> =
            (0..400).map(|i| (((i * 13) % 57) as f64, ((i * 7) % 91) as f64)).collect();
        let mut acc = CoMomentAccumulator::default();
        let mut head = CoMomentAccumulator::default();
        for (i, &(x, y)) in pairs.iter().enumerate() {
            acc.push(x, y);
            if i < 150 {
                head.push(x, y);
            }
        }
        let mut by_unmerge = acc;
        by_unmerge.unmerge(&head);
        let mut by_evict = acc;
        for &(x, y) in &pairs[..150] {
            by_evict.evict(x, y);
        }
        let mut expect = CoMomentAccumulator::default();
        for &(x, y) in &pairs[150..] {
            expect.push(x, y);
        }
        for got in [by_unmerge, by_evict] {
            assert_eq!(got.count(), expect.count());
            assert_eq!(got.sx.to_bits(), expect.sx.to_bits());
            assert_eq!(got.sy.to_bits(), expect.sy.to_bits());
            assert_eq!(got.sxx.to_bits(), expect.sxx.to_bits());
            assert_eq!(got.syy.to_bits(), expect.syy.to_bits());
            assert_eq!(got.sxy.to_bits(), expect.sxy.to_bits());
        }

        let mut merged = by_unmerge;
        merged.merge(&head);
        assert_eq!(merged, acc);

        let rebuilt = CoMomentAccumulator::from_sums(
            acc.count(),
            acc.sx,
            acc.sy,
            acc.sxx,
            acc.syy,
            acc.sxy,
        );
        assert_eq!(rebuilt, acc);
    }

    #[test]
    fn co_moments_degenerate_inputs_yield_zero() {
        let mut empty = CoMomentAccumulator::default();
        assert_eq!(empty.pearson(), 0.0);
        empty.push(1.0, 2.0);
        assert_eq!(empty.pearson(), 0.0, "a single pair has no correlation");

        let mut constant_x = CoMomentAccumulator::default();
        for i in 0..10 {
            constant_x.push(4.0, i as f64);
        }
        assert_eq!(constant_x.pearson(), 0.0, "zero variance on x");

        let mut cleared = constant_x;
        cleared.clear();
        assert_eq!(cleared, CoMomentAccumulator::default());
    }

    #[test]
    fn cut_kind_defaults_and_labels() {
        assert_eq!(CutKind::default(), CutKind::Incremental);
        assert_eq!(CutKind::Incremental.label(), "incremental");
        assert_eq!(CutKind::Reference.label(), "reference");
    }

    #[test]
    fn kernel_kind_defaults_and_labels() {
        assert_eq!(KernelKind::default(), KernelKind::Fast);
        assert_eq!(KernelKind::Fast.label(), "fast");
        assert_eq!(KernelKind::Reference.label(), "reference");
    }
}
