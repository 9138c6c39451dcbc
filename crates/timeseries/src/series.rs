//! The fixed-interval time-series type (Definition II.1).
//!
//! A time series is a sequence of observations `x_1 … x_N` taken at a fixed
//! interval starting at a known timestamp. Following the paper, elements can
//! be addressed either by *index* or by *timestamp*; the conversion is
//! `(timestamp − start) / interval`.

/// A fixed-interval sequence of `f64` observations.
///
/// Timestamps are expressed in seconds (Unix-epoch style, but any consistent
/// origin works — the simulator uses seconds since simulation start).
///
/// # Examples
///
/// ```
/// use pinsql_timeseries::TimeSeries;
///
/// let ts = TimeSeries::from_values(100, 1, vec![1.0, 2.0, 3.0]);
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.at(101), Some(2.0));     // by timestamp
/// assert_eq!(ts.values()[1], 2.0);       // by index
/// assert_eq!(ts.end(), 103);             // exclusive end timestamp
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: i64,
    interval: u32,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series starting at `start` with the given sampling
    /// interval in seconds.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(start: i64, interval: u32) -> Self {
        assert!(interval > 0, "time-series interval must be positive");
        Self { start, interval, values: Vec::new() }
    }

    /// Creates a series from existing observations.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn from_values(start: i64, interval: u32, values: Vec<f64>) -> Self {
        assert!(interval > 0, "time-series interval must be positive");
        Self { start, interval, values }
    }

    /// Creates a zero-filled series covering `[start, start + n*interval)`.
    pub fn zeros(start: i64, interval: u32, n: usize) -> Self {
        Self::from_values(start, interval, vec![0.0; n])
    }

    /// Timestamp of the first observation.
    #[inline]
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Exclusive end timestamp: the instant just after the last observation's
    /// interval.
    #[inline]
    pub fn end(&self) -> i64 {
        self.start + self.values.len() as i64 * self.interval as i64
    }

    /// Sampling interval in seconds.
    #[inline]
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw observations.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning its observations.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Appends one observation at the next interval boundary.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Converts a timestamp to an index, if it falls within the series.
    #[inline]
    pub fn index_of(&self, timestamp: i64) -> Option<usize> {
        if timestamp < self.start {
            return None;
        }
        let idx = ((timestamp - self.start) / self.interval as i64) as usize;
        (idx < self.values.len()).then_some(idx)
    }

    /// Converts an index to the timestamp at which it was observed.
    #[inline]
    pub fn timestamp_of(&self, index: usize) -> i64 {
        self.start + index as i64 * self.interval as i64
    }

    /// Observation at `timestamp`, or `None` outside the series.
    #[inline]
    pub fn at(&self, timestamp: i64) -> Option<f64> {
        self.index_of(timestamp).map(|i| self.values[i])
    }

    /// Returns the sub-slice of observations covering `[from, to)`
    /// (timestamps), clamped to the available range. Returns an empty slice
    /// when the window does not intersect the series.
    pub fn window(&self, from: i64, to: i64) -> &[f64] {
        if self.values.is_empty() || to <= from {
            return &[];
        }
        let step = self.interval as i64;
        let lo = ((from - self.start).max(0) / step) as usize;
        // Round the exclusive end up so a partially covered interval counts.
        let hi_ts = to.min(self.end());
        if hi_ts <= self.start {
            return &[];
        }
        let hi = (((hi_ts - self.start) + step - 1) / step) as usize;
        let lo = lo.min(self.values.len());
        let hi = hi.min(self.values.len());
        &self.values[lo..hi]
    }

    /// Returns a new series restricted to `[from, to)`, clamped to the
    /// available range.
    pub fn slice(&self, from: i64, to: i64) -> TimeSeries {
        let w = self.window(from, to);
        let start = if w.is_empty() {
            from
        } else {
            // First timestamp actually covered.
            let step = self.interval as i64;
            let lo = ((from - self.start).max(0) / step) as usize;
            self.timestamp_of(lo)
        };
        TimeSeries::from_values(start, self.interval, w.to_vec())
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum of observations inside `[from, to)`.
    pub fn sum_window(&self, from: i64, to: i64) -> f64 {
        self.window(from, to).iter().sum()
    }

    /// Element-wise ratio `self / denom`, mapping divisions by values whose
    /// magnitude is below `eps` to `0.0`. Used by the scale-trend-level score
    /// `session_Q(t) / session(t)` where the instance session can be zero.
    pub fn ratio(&self, denom: &TimeSeries, eps: f64) -> TimeSeries {
        assert_eq!(self.start, denom.start, "series starts differ");
        assert_eq!(self.interval, denom.interval, "series intervals differ");
        let n = self.values.len().min(denom.values.len());
        let values = (0..n)
            .map(|i| {
                let d = denom.values[i];
                if d.abs() < eps {
                    0.0
                } else {
                    self.values[i] / d
                }
            })
            .collect();
        TimeSeries::from_values(self.start, self.interval, values)
    }

    /// Iterator over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        let start = self.start;
        let step = self.interval as i64;
        self.values.iter().enumerate().map(move |(i, &v)| (start + i as i64 * step, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(10, 2, values)
    }

    #[test]
    fn empty_series_reports_empty() {
        let ts = TimeSeries::new(0, 1);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.end(), 0);
        assert_eq!(ts.at(0), None);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = TimeSeries::new(0, 0);
    }

    #[test]
    fn timestamp_index_equivalence() {
        // Def II.1: X_{t1} and X_1 address the same observation.
        let ts = s(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.at(10), Some(1.0));
        assert_eq!(ts.at(11), Some(1.0)); // mid-interval maps to the covering sample
        assert_eq!(ts.at(12), Some(2.0));
        assert_eq!(ts.index_of(16), Some(3));
        assert_eq!(ts.timestamp_of(3), 16);
        assert_eq!(ts.at(18), None);
        assert_eq!(ts.at(9), None);
    }

    #[test]
    fn window_clamps_to_range() {
        let ts = s(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.window(12, 16), &[2.0, 3.0]);
        assert_eq!(ts.window(0, 100), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.window(16, 12), &[] as &[f64]);
        assert_eq!(ts.window(100, 200), &[] as &[f64]);
        // partially covered final interval rounds up
        assert_eq!(ts.window(12, 15), &[2.0, 3.0]);
    }

    #[test]
    fn slice_preserves_interval_and_start() {
        let ts = s(vec![1.0, 2.0, 3.0, 4.0]);
        let sub = ts.slice(12, 16);
        assert_eq!(sub.start(), 12);
        assert_eq!(sub.interval(), 2);
        assert_eq!(sub.values(), &[2.0, 3.0]);
    }

    #[test]
    fn ratio_maps_zero_denominator_to_zero() {
        let a = s(vec![2.0, 4.0, 6.0]);
        let b = s(vec![1.0, 0.0, 2.0]);
        let r = a.ratio(&b, 1e-9);
        assert_eq!(r.values(), &[2.0, 0.0, 3.0]);
    }

    #[test]
    fn sum_window_matches_manual() {
        let ts = s(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((ts.sum_window(12, 18) - 9.0).abs() < 1e-12);
        assert!((ts.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_timestamp_value_pairs() {
        let ts = s(vec![1.0, 2.0]);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(10, 1.0), (12, 2.0)]);
    }
}
