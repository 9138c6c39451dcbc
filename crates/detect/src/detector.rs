//! The Basic Perception Layer: robust streaming feature detection.
//!
//! For each metric the detector keeps a trailing baseline (rolling median +
//! MAD over "normal" samples only) and flags samples whose robust z-score
//! crosses a trigger threshold. Consecutive flagged samples form a
//! segment, judged against the baseline statistics frozen when it opened;
//! flagged samples never enter the baseline. A segment that recovers to
//! baseline within `spike_max_s` seconds is a *spike*; one that recovers
//! later, or runs to the end of data, is a *level shift*.
//!
//! The algorithm lives in [`OnlineFeatureDetector`], one sample at a time;
//! [`detect_features`] is that detector pushed over a whole series.

use crate::features::Feature;
use crate::online::OnlineFeatureDetector;

/// Detector tuning.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Baseline window length in samples.
    pub baseline_len: usize,
    /// Robust z-score that opens an anomaly segment.
    pub trigger_z: f64,
    /// Robust z-score below which the metric counts as recovered.
    pub recover_z: f64,
    /// Consecutive recovered samples that close a segment.
    pub recover_len: usize,
    /// Max seconds a recovering segment may last and still be a spike.
    pub spike_max_s: i64,
    /// MAD floor, in metric units, to keep flat baselines from exploding
    /// the z-score on trivial jitter.
    pub mad_floor: f64,
    /// Minimum samples before detection starts (baseline warm-up).
    pub warmup: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            baseline_len: 120,
            trigger_z: 6.0,
            recover_z: 3.0,
            recover_len: 5,
            spike_max_s: 60,
            mad_floor: 1.0,
            warmup: 20,
        }
    }
}

impl DetectorConfig {
    /// A floor appropriate for fraction-valued metrics (cpu/iops usage).
    pub fn for_utilization() -> Self {
        Self { mad_floor: 0.02, ..Self::default() }
    }

    /// The standard configuration for a metric by canonical name:
    /// utilization metrics (fraction-valued, `*_usage`) get the lower MAD
    /// floor, everything else the default. This is the single mapping both
    /// the per-metric `detect_features` loop and the online detector bank
    /// use.
    pub fn for_metric(name: &str) -> Self {
        if name.contains("usage") {
            Self::for_utilization()
        } else {
            Self::default()
        }
    }
}

/// Detects anomalous features in `series`, whose first sample is at
/// `start_second` (1-second sampling): the series pushed through one
/// [`OnlineFeatureDetector`], then finished.
pub fn detect_features(
    metric: &str,
    series: &[f64],
    start_second: i64,
    cfg: &DetectorConfig,
) -> Vec<Feature> {
    let mut det = OnlineFeatureDetector::new(metric, start_second, cfg.clone());
    let mut features = Vec::new();
    for &x in series {
        det.push(x, &mut features);
    }
    features.extend(det.finish());
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureKind;

    fn flat(n: usize, level: f64) -> Vec<f64> {
        (0..n).map(|i| level + ((i * 7) % 3) as f64 * 0.3).collect()
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig { baseline_len: 40, warmup: 10, spike_max_s: 30, ..Default::default() }
    }

    #[test]
    fn quiet_series_yields_nothing() {
        let s = flat(200, 10.0);
        assert!(detect_features("m", &s, 0, &cfg()).is_empty());
    }

    #[test]
    fn detects_spike_up() {
        let mut s = flat(200, 10.0);
        for v in s.iter_mut().skip(100).take(10) {
            *v = 60.0;
        }
        let feats = detect_features("m", &s, 1000, &cfg());
        assert_eq!(feats.len(), 1);
        let f = &feats[0];
        assert_eq!(f.kind, FeatureKind::SpikeUp);
        assert_eq!(f.metric, "m");
        assert!(f.start >= 1098 && f.start <= 1101, "start {}", f.start);
        assert!(f.end >= 1109 && f.end <= 1112, "end {}", f.end);
        assert!(f.peak_z > 6.0);
    }

    #[test]
    fn detects_spike_down() {
        let mut s = flat(200, 50.0);
        for v in s.iter_mut().skip(120).take(8) {
            *v = 0.0;
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].kind, FeatureKind::SpikeDown);
    }

    #[test]
    fn detects_level_shift_up_and_recovery_shift() {
        let mut s = flat(300, 10.0);
        for v in s.iter_mut().skip(100) {
            *v += 70.0; // permanent shift
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert!(!feats.is_empty());
        assert_eq!(feats[0].kind, FeatureKind::LevelShiftUp);
        assert_eq!(feats[0].start, 100);
        // After re-baselining at the new level, no further anomalies.
        assert_eq!(feats.len(), 1, "{feats:?}");
    }

    #[test]
    fn long_slow_anomaly_is_level_shift_not_spike() {
        let mut s = flat(400, 10.0);
        // 120-second plateau, longer than spike_max_s.
        for v in s.iter_mut().skip(100).take(120) {
            *v = 80.0;
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert!(!feats.is_empty());
        assert_eq!(feats[0].kind, FeatureKind::LevelShiftUp);
    }

    #[test]
    fn two_separate_spikes_are_two_features() {
        let mut s = flat(400, 10.0);
        for v in s.iter_mut().skip(100).take(6) {
            *v = 70.0;
        }
        for v in s.iter_mut().skip(250).take(6) {
            *v = 70.0;
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert_eq!(feats.len(), 2, "{feats:?}");
        assert!(feats.iter().all(|f| f.kind == FeatureKind::SpikeUp));
    }

    #[test]
    fn anomaly_running_to_end_of_data_is_reported() {
        let mut s = flat(150, 10.0);
        for v in s.iter_mut().skip(130) {
            *v = 90.0;
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].end, 150);
    }

    #[test]
    fn baseline_is_not_poisoned_by_anomaly() {
        // A spike then a second identical spike: the second must still be
        // detected, which fails if the spike values entered the baseline.
        let mut s = flat(300, 10.0);
        for v in s.iter_mut().skip(100).take(20) {
            *v = 70.0;
        }
        for v in s.iter_mut().skip(200).take(20) {
            *v = 70.0;
        }
        let feats = detect_features("m", &s, 0, &cfg());
        assert_eq!(feats.len(), 2);
    }

    #[test]
    fn short_series_never_warm_enough() {
        let s = flat(5, 10.0);
        assert!(detect_features("m", &s, 0, &cfg()).is_empty());
        assert!(detect_features("m", &[], 0, &cfg()).is_empty());
    }

    #[test]
    fn utilization_floor_avoids_jitter_alerts() {
        let s: Vec<f64> = (0..200).map(|i| 0.30 + ((i % 5) as f64) * 0.002).collect();
        let feats = detect_features("cpu", &s, 0, &DetectorConfig::for_utilization());
        assert!(feats.is_empty(), "{feats:?}");
    }
}
