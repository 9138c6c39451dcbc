//! Tukey's rule for outlier labelling (Hoaglin, Iglewicz & Tukey, 1986).
//!
//! The History Trend Verification step (§VI) must decide, cheaply, whether a
//! template's execution count shows a *sudden increase* during the anomaly
//! period — both in the current window and in the same window 1/3/7 days
//! ago. The paper applies Tukey's rule: observations outside
//! `[Q1 − k·IQR, Q3 + k·IQR]` are labelled outliers (`k = 1.5` by default,
//! `k = 3` for "far out" values).

/// First, second (median) and third quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quantiles {
    /// Interquartile range `Q3 − Q1`.
    #[inline]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Computes quartiles with linear interpolation between order statistics
/// (the common "R-7" definition). Non-finite samples are ignored — degraded
/// telemetry must not panic the history check. Returns `None` when no finite
/// sample remains.
pub fn quantiles(xs: &[f64]) -> Option<Quantiles> {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(Quantiles {
        q1: interpolate(&sorted, 0.25),
        median: interpolate(&sorted, 0.5),
        q3: interpolate(&sorted, 0.75),
    })
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The Tukey fences for a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TukeyFences {
    pub lower: f64,
    pub upper: f64,
}

impl TukeyFences {
    /// True when `x` lies above the upper fence (a "sudden increase").
    #[inline]
    pub fn is_upper_outlier(&self, x: f64) -> bool {
        x > self.upper
    }

    /// True when `x` lies below the lower fence.
    #[inline]
    pub fn is_lower_outlier(&self, x: f64) -> bool {
        x < self.lower
    }
}

/// Computes Tukey fences `[Q1 − k·IQR, Q3 + k·IQR]` for the sample.
/// Returns `None` for an empty sample.
///
/// ```
/// use pinsql_timeseries::tukey_fences;
/// let baseline = [10.0, 11.0, 9.0, 10.0, 12.0, 10.0, 11.0, 9.0];
/// let fences = tukey_fences(&baseline, 1.5).unwrap();
/// assert!(fences.is_upper_outlier(40.0));
/// assert!(!fences.is_upper_outlier(12.5));
/// ```
pub fn tukey_fences(xs: &[f64], k: f64) -> Option<TukeyFences> {
    let q = quantiles(xs)?;
    let iqr = q.iqr();
    Some(TukeyFences { lower: q.q1 - k * iqr, upper: q.q3 + k * iqr })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_empty_is_none() {
        assert!(quantiles(&[]).is_none());
        assert!(tukey_fences(&[], 1.5).is_none());
    }

    #[test]
    fn quantiles_single_element() {
        let q = quantiles(&[7.0]).unwrap();
        assert_eq!(q.q1, 7.0);
        assert_eq!(q.median, 7.0);
        assert_eq!(q.q3, 7.0);
        assert_eq!(q.iqr(), 0.0);
    }

    #[test]
    fn quantiles_match_r7_definition() {
        // 1..=5: q1 = 2, median = 3, q3 = 4 under linear interpolation.
        let q = quantiles(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!((q.q1 - 2.0).abs() < 1e-12);
        assert!((q.median - 3.0).abs() < 1e-12);
        assert!((q.q3 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_skip_non_finite_samples() {
        let q = quantiles(&[5.0, f64::NAN, 1.0, 3.0, f64::INFINITY, 2.0, 4.0]).unwrap();
        assert!((q.q1 - 2.0).abs() < 1e-12);
        assert!((q.median - 3.0).abs() < 1e-12);
        assert!((q.q3 - 4.0).abs() < 1e-12);
        assert!(quantiles(&[f64::NAN, f64::NEG_INFINITY]).is_none());
    }

    #[test]
    fn fences_flag_a_spike() {
        let baseline: Vec<f64> = (0..50).map(|i| 10.0 + (i % 3) as f64).collect();
        let fences = tukey_fences(&baseline, 1.5).unwrap();
        assert!(fences.is_upper_outlier(25.0));
        assert!(fences.is_lower_outlier(-5.0));
    }

    #[test]
    fn constant_baseline_flags_any_change() {
        // IQR = 0, so fences collapse onto the constant: any deviation is an
        // outlier. This matches the intended history check: a template that
        // never executed before and suddenly runs is anomalous.
        let fences = tukey_fences(&[0.0; 20], 1.5).unwrap();
        assert!(fences.is_upper_outlier(1.0));
        assert!(!fences.is_upper_outlier(0.0));
    }
}
