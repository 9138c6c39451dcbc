//! Resampling between collection granularities.
//!
//! The collector aggregates query metrics at 1-second and 1-minute intervals
//! (§IV-A). Detection runs on the fine series; clustering runs on the coarse
//! one. Downsampling must preserve the aggregation semantics of the metric:
//! counts and totals are *summed*, averages are *averaged*, and gauges
//! (like the active-session probe) can be averaged or max-pooled.

use crate::series::TimeSeries;

/// How observations combine when several fine-grained samples fold into one
/// coarse-grained sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Downsample {
    /// Sum the samples (counts, total response time).
    Sum,
    /// Average the samples (mean response time, utilization gauges).
    Mean,
    /// Take the maximum (peak-oriented gauges).
    Max,
}

/// Downsamples `series` by an integral `factor` (e.g. 60 for 1 s → 1 min).
///
/// A trailing partial bucket is aggregated over the samples it has (for
/// `Mean` this means the partial bucket averages fewer samples rather than
/// being zero-padded).
///
/// # Panics
/// Panics if `factor` is zero.
pub fn downsample(series: &TimeSeries, factor: u32, how: Downsample) -> TimeSeries {
    assert!(factor > 0, "downsample factor must be positive");
    let values = series.values();
    let out_interval = series.interval() * factor;
    let mut out = TimeSeries::new(series.start(), out_interval);
    for chunk in values.chunks(factor as usize) {
        let v = match how {
            Downsample::Sum => chunk.iter().sum(),
            Downsample::Mean => chunk.iter().sum::<f64>() / chunk.len() as f64,
            Downsample::Max => chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_sum_and_mean() {
        let ts = TimeSeries::from_values(0, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sum = downsample(&ts, 3, Downsample::Sum);
        assert_eq!(sum.interval(), 3);
        assert_eq!(sum.values(), &[6.0, 15.0]);
        let mean = downsample(&ts, 3, Downsample::Mean);
        assert_eq!(mean.values(), &[2.0, 5.0]);
        let max = downsample(&ts, 2, Downsample::Max);
        assert_eq!(max.values(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn downsample_partial_trailing_bucket() {
        let ts = TimeSeries::from_values(0, 1, vec![2.0, 4.0, 9.0]);
        let mean = downsample(&ts, 2, Downsample::Mean);
        assert_eq!(mean.values(), &[3.0, 9.0]);
        let sum = downsample(&ts, 2, Downsample::Sum);
        assert_eq!(sum.values(), &[6.0, 9.0]);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let ts = TimeSeries::from_values(5, 2, vec![1.0, 2.0]);
        let out = downsample(&ts, 1, Downsample::Sum);
        assert_eq!(out.values(), ts.values());
        assert_eq!(out.interval(), 2);
    }
}
