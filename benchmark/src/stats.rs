//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method) so spreads printed here match the ones the benchmark
//! driver computes from the same values. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of the fastest quarter of `times` (of at least one of them);
/// 0 for an empty sample. What a neighbour on the shared host does to a
/// rep only ever adds to its time, and does so in bursts that slow every
/// rep of tens of seconds at once, so the reps this picks are the ones the
/// machine left alone; a slower program is slower in them too.
pub fn quiet_quarter(times: &[f64]) -> f64 {
    let v = sorted(times);
    median(&v[..(v.len() / 4).max(1).min(v.len())])
}

/// `(q1, q2, q3)` by the exclusive method: quantile `k/4` sits at rank
/// `k·(n+1)/4` (1-based), linearly interpolated and clamped to the sample.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has
/// [`MIN_BEYOND`] samples beyond it, or `None` when only the median is
/// supported (fewer than 40 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per mille, so "ten beyond" is decided in integers.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|pm| pm as f64 / 1000.0)
}

/// The percentile a tail metric may report over `values`: `want`, or the
/// highest supported one when the sample is too small for it (the median
/// when no tail is supported). Returns `(percentile, value)`, so that the
/// caller can say which it got.
pub fn tail(values: &[f64], want: f64) -> (f64, f64) {
    let p = supported_tail(values.len()).unwrap_or(0.5).min(want);
    (p, percentile(values, p))
}

/// Median, quartiles, the supported tail and the sample count — what the
/// human-readable report prints for every timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        let tail = supported_tail(values.len()).map(|p| (p, percentile(values, p)));
        Self { n: values.len(), median, q1, q3, tail }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4} [q1 {:.4}, q3 {:.4}]", self.median, self.q1, self.q3)?;
        if let Some((p, v)) = self.tail {
            write!(f, " p{} {:.4}", p * 100.0, v)?;
        }
        write!(f, " n={}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_quarter_is_the_median_of_the_fastest_quarter() {
        // Twelve reps, five of them slowed: the fastest three are 1, 2, 3.
        let v = [9.0, 1.0, 8.0, 3.0, 2.0, 4.0, 7.5, 4.5, 5.0, 9.5, 6.0, 8.5];
        assert_eq!(quiet_quarter(&v), 2.0);
        // Eight reps: the fastest two.
        assert_eq!(quiet_quarter(&v[..8]), 1.5);
        // Fewer than four: the fastest one.
        assert_eq!(quiet_quarter(&[5.0, 4.0, 6.0]), 4.0);
        assert_eq!(quiet_quarter(&[5.0]), 5.0);
        assert_eq!(quiet_quarter(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(11), None);
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&thousand);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert!(s.to_string().ends_with("n=1000"), "{s}");
        // A named tail is granted when supported, and lowered when not.
        assert_eq!(tail(&thousand, 0.99), (0.99, 990.0));
        assert_eq!(tail(&thousand, 0.90), (0.90, 900.0));
        assert_eq!(tail(&thousand[..100], 0.99), (0.90, 90.0));
        assert_eq!(tail(&thousand[..11], 0.99), (0.5, 6.0));
    }
}
