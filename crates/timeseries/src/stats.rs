//! Statistical primitives: means, variance, covariance, Pearson correlation
//! (plain and weighted), min-max normalization, and MSE.
//!
//! The High-impact SQL Identification Module (§V of the paper) fuses three
//! scores that all live in `[-1, 1]`:
//!
//! * **trend-level** — a *weighted* Pearson correlation that emphasizes the
//!   anomaly window through the sigmoid weights in [`crate::weights`];
//! * **scale-level** — a min-max normalization of the per-template active
//!   session mass rescaled to `[-1, 1]`;
//! * **scale-trend-level** — a plain Pearson correlation of the template's
//!   session *share* against the instance session.
//!
//! All functions treat degenerate inputs (empty slices, zero variance, zero
//! total weight) by returning `0.0` rather than `NaN`, because a template
//! with a constant metric carries no trend information — correlating with it
//! should neither promote nor demote it in a ranking.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population covariance over the common prefix of `xs` and `ys`.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = mean(&xs[..n]);
    let my = mean(&ys[..n]);
    xs[..n]
        .iter()
        .zip(&ys[..n])
        .map(|(&x, &y)| (x - mx) * (y - my))
        .sum::<f64>()
        / n as f64
}

/// Pearson correlation coefficient over the common prefix of `xs` and `ys`.
///
/// Returns `0.0` when either side has (numerically) zero variance, so that a
/// flat series is treated as uncorrelated rather than producing `NaN`; the
/// same applies when either input contains non-finite samples (a gappy
/// metric carries no usable trend either).
///
/// ```
/// use pinsql_timeseries::pearson;
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
/// let z = [8.0, 6.0, 4.0, 2.0];
/// assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
/// ```
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = mean(&xs[..n]);
    let my = mean(&ys[..n]);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs[..n].iter().zip(&ys[..n]) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let denom = (sxx * syy).sqrt();
    if !(denom > f64::EPSILON) {
        // `!(>)` also catches a NaN denominator from non-finite inputs.
        return 0.0;
    }
    let r = sxy / denom;
    if r.is_finite() {
        r.clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

/// Weighted mean `m(X; W) = Σ w_i x_i / Σ w_i`; `0.0` when the total weight
/// is (numerically) zero.
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
pub fn weighted_mean(xs: &[f64], ws: &[f64]) -> f64 {
    let n = xs.len().min(ws.len());
    let wsum: f64 = ws[..n].iter().sum();
    if !(wsum > f64::EPSILON) {
        return 0.0;
    }
    xs[..n].iter().zip(&ws[..n]).map(|(&x, &w)| w * x).sum::<f64>() / wsum
}

/// Weighted covariance
/// `cov(X, Y; W) = Σ w_i (x_i − m(X;W)) (y_i − m(Y;W)) / Σ w_i` (§V).
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
pub fn weighted_covariance(xs: &[f64], ys: &[f64], ws: &[f64]) -> f64 {
    let n = xs.len().min(ys.len()).min(ws.len());
    if n < 2 {
        return 0.0;
    }
    let wsum: f64 = ws[..n].iter().sum();
    if !(wsum > f64::EPSILON) {
        return 0.0;
    }
    let mx = weighted_mean(&xs[..n], &ws[..n]);
    let my = weighted_mean(&ys[..n], &ws[..n]);
    let mut acc = 0.0;
    for i in 0..n {
        acc += ws[i] * (xs[i] - mx) * (ys[i] - my);
    }
    acc / wsum
}

/// Weighted Pearson correlation
/// `corr(X, Y; W) = cov(X,Y;W) / sqrt(cov(X,X;W) · cov(Y,Y;W))`.
///
/// This is the trend-level score of §V: with sigmoid window weights the
/// correlation is dominated by the anomaly period while still drawing some
/// information from its surroundings. Returns `0.0` for degenerate inputs.
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
pub fn weighted_pearson(xs: &[f64], ys: &[f64], ws: &[f64]) -> f64 {
    let cxy = weighted_covariance(xs, ys, ws);
    let cxx = weighted_covariance(xs, xs, ws);
    let cyy = weighted_covariance(ys, ys, ws);
    let denom = (cxx * cyy).sqrt();
    if !(denom > f64::EPSILON) {
        return 0.0;
    }
    let r = cxy / denom;
    if r.is_finite() {
        r.clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

/// Min-max normalizes `xs` into `[0, 1]` in place. A constant slice maps to
/// all zeros (there is no scale information to preserve). The range is taken
/// over finite samples only, and any non-finite sample is mapped to `0.0`, so
/// a single corrupted value cannot wipe out the scale of the rest.
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
pub fn min_max_normalize(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs.iter() {
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let range = hi - lo;
    if !(range > f64::EPSILON) {
        xs.iter_mut().for_each(|x| *x = 0.0);
    } else {
        xs.iter_mut().for_each(|x| {
            *x = if x.is_finite() { (*x - lo) / range } else { 0.0 };
        });
    }
}

/// Mean squared error over the common prefix of `xs` and `ys`; `0.0` for
/// empty input. Used by the Table III active-session estimation case study.
pub fn mean_squared_error(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return 0.0;
    }
    xs[..n]
        .iter()
        .zip(&ys[..n])
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < EPS);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < EPS);
    }

    #[test]
    fn covariance_of_identical_is_variance() {
        let xs = [1.0, 4.0, 2.0, 8.0];
        assert!((covariance(&xs, &xs) - variance(&xs)).abs() < EPS);
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < EPS);
        assert!((pearson(&x, &z) + 1.0).abs() < EPS);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        let flat = [2.0, 2.0, 2.0, 2.0];
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(pearson(&flat, &x), 0.0);
        assert_eq!(pearson(&x, &flat), 0.0);
    }

    #[test]
    fn pearson_uses_common_prefix() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 100.0, -5.0];
        assert!((pearson(&x, &y) - 1.0).abs() < EPS);
    }

    #[test]
    fn weighted_mean_matches_plain_with_uniform_weights() {
        let xs = [1.0, 5.0, 9.0];
        let ws = [1.0, 1.0, 1.0];
        assert!((weighted_mean(&xs, &ws) - mean(&xs)).abs() < EPS);
    }

    #[test]
    fn weighted_mean_zero_weight_is_zero() {
        assert_eq!(weighted_mean(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn weighted_pearson_uniform_weights_matches_plain() {
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        let y = [2.0, 2.5, 2.2, 4.0, 3.0];
        let w = [1.0; 5];
        assert!((weighted_pearson(&x, &y, &w) - pearson(&x, &y)).abs() < EPS);
    }

    #[test]
    fn weighted_pearson_focuses_on_high_weight_region() {
        // x and y agree on the second half, disagree on the first half.
        let x = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0];
        let early = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let late = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        assert!(weighted_pearson(&x, &y, &late) > 0.99);
        assert!(weighted_pearson(&x, &y, &early) < -0.99);
    }

    #[test]
    fn min_max_normalize_range_and_constants() {
        let mut xs = [3.0, 7.0, 5.0];
        min_max_normalize(&mut xs);
        assert_eq!(xs, [0.0, 1.0, 0.5]);
        let mut flat = [4.0, 4.0];
        min_max_normalize(&mut flat);
        assert_eq!(flat, [0.0, 0.0]);
        let mut empty: [f64; 0] = [];
        min_max_normalize(&mut empty);
    }

    #[test]
    fn pearson_non_finite_inputs_yield_zero() {
        let x = [1.0, 2.0, f64::NAN, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
        let inf = [1.0, f64::INFINITY, 3.0, 4.0];
        assert_eq!(pearson(&inf, &y), 0.0);
        assert_eq!(pearson(&inf, &inf), 0.0);
    }

    #[test]
    fn weighted_pearson_non_finite_yields_zero() {
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let w = [1.0; 4];
        assert_eq!(weighted_pearson(&x, &y, &w), 0.0);
        let wn = [1.0, f64::NAN, 1.0, 1.0];
        assert_eq!(weighted_pearson(&y, &y, &wn), 0.0);
        assert_eq!(weighted_mean(&y, &wn), 0.0);
    }

    #[test]
    fn min_max_normalize_ignores_non_finite() {
        let mut xs = [3.0, f64::NAN, 7.0, f64::INFINITY, 5.0];
        min_max_normalize(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 1.0, 0.0, 0.5]);
        let mut all_bad = [f64::NAN, f64::INFINITY];
        min_max_normalize(&mut all_bad);
        assert_eq!(all_bad, [0.0, 0.0]);
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mean_squared_error(&[], &[]), 0.0);
        assert!((mean_squared_error(&[1.0, 2.0], &[1.0, 4.0]) - 2.0).abs() < EPS);
    }
}
