//! Change-point confirmation of level-shift features.
//!
//! The Basic Perception Layer's streaming detector is deliberately eager;
//! §IV-B describes integrating multiple methods ([9], [20], [28]–[30]),
//! among them Pettitt's non-parametric change-point test. This layer
//! re-examines each *level-shift* feature over a context window around its
//! start: a genuine shift exhibits a statistically significant change
//! point there; an eager false positive (e.g. a slow ramp that tripped the
//! z-threshold) does not. Spikes are passed through untouched — they
//! recover by definition, so a change-point test is the wrong instrument.

use crate::features::{Feature, FeatureKind};
use pinsql_timeseries::changepoint::pettitt;

/// Confirmation tuning.
#[derive(Debug, Clone)]
pub struct ConfirmConfig {
    /// Context seconds taken before the feature start (clamped to data).
    pub context_before_s: i64,
    /// Context seconds taken after the feature start (clamped to data).
    pub context_after_s: i64,
    /// Required significance of the Pettitt statistic.
    pub alpha: f64,
    /// How far (seconds) the Pettitt change point may sit from the
    /// feature's reported start and still confirm it.
    pub max_offset_s: i64,
}

impl Default for ConfirmConfig {
    fn default() -> Self {
        Self { context_before_s: 120, context_after_s: 120, alpha: 0.01, max_offset_s: 30 }
    }
}

/// Filters `features`, keeping spikes unconditionally and level shifts
/// only when a significant, correctly-located, correctly-signed change
/// point confirms them. `series` is the metric the features came from,
/// starting at `start_second`.
pub fn confirm_level_shifts(
    series: &[f64],
    start_second: i64,
    features: Vec<Feature>,
    cfg: &ConfirmConfig,
) -> Vec<Feature> {
    features
        .into_iter()
        .filter(|f| {
            if f.kind.is_spike() {
                return true;
            }
            shift_is_confirmed(series, start_second, f, cfg)
        })
        .collect()
}

fn shift_is_confirmed(
    series: &[f64],
    start_second: i64,
    feature: &Feature,
    cfg: &ConfirmConfig,
) -> bool {
    let n = series.len() as i64;
    let fstart = feature.start - start_second; // index of the shift start
    let lo = (fstart - cfg.context_before_s).clamp(0, n);
    let hi = (fstart + cfg.context_after_s).clamp(lo, n);
    let window = &series[lo as usize..hi as usize];
    let Some(p) = pettitt(window) else {
        return false;
    };
    if p.p_value >= cfg.alpha {
        return false;
    }
    // Location: the change point must sit near the reported start.
    let cp_abs = lo + p.index as i64;
    if (cp_abs - fstart).abs() > cfg.max_offset_s {
        return false;
    }
    // Direction must agree.
    let up = feature.kind == FeatureKind::LevelShiftUp;
    (p.direction > 0) == up
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{detect_features, DetectorConfig};

    fn base(n: usize) -> Vec<f64> {
        (0..n).map(|i| 10.0 + ((i * 5) % 4) as f64 * 0.4).collect()
    }

    fn det_cfg() -> DetectorConfig {
        DetectorConfig { baseline_len: 60, warmup: 15, ..Default::default() }
    }

    #[test]
    fn genuine_shift_is_confirmed() {
        let mut s = base(400);
        for v in s.iter_mut().skip(200) {
            *v += 50.0;
        }
        let feats = detect_features("m", &s, 0, &det_cfg());
        assert!(!feats.is_empty());
        let confirmed = confirm_level_shifts(&s, 0, feats.clone(), &ConfirmConfig::default());
        assert_eq!(confirmed.len(), feats.len(), "a clean shift must survive");
        assert!(confirmed.iter().any(|f| f.kind == FeatureKind::LevelShiftUp));
    }

    #[test]
    fn spikes_pass_through_unconditionally() {
        let mut s = base(400);
        for v in s.iter_mut().skip(200).take(8) {
            *v += 60.0;
        }
        let feats = detect_features("m", &s, 0, &det_cfg());
        assert!(feats.iter().any(|f| f.kind == FeatureKind::SpikeUp));
        let confirmed = confirm_level_shifts(&s, 0, feats.clone(), &ConfirmConfig::default());
        assert_eq!(confirmed, feats);
    }

    #[test]
    fn fabricated_shift_on_stationary_data_is_rejected() {
        // Hand a bogus level-shift feature over stationary data to the
        // confirmer: no significant change point exists → rejected.
        let s = base(400);
        let bogus = Feature {
            metric: "m".into(),
            kind: FeatureKind::LevelShiftUp,
            start: 200,
            end: 400,
            peak_z: 10.0,
        };
        let confirmed = confirm_level_shifts(&s, 0, vec![bogus], &ConfirmConfig::default());
        assert!(confirmed.is_empty());
    }

    #[test]
    fn mislocated_shift_is_rejected() {
        // A real change point exists at t=200, but the feature claims the
        // shift started at t=320 — outside max_offset_s.
        let mut s = base(400);
        for v in s.iter_mut().skip(200) {
            *v += 50.0;
        }
        let mislocated = Feature {
            metric: "m".into(),
            kind: FeatureKind::LevelShiftUp,
            start: 320,
            end: 400,
            peak_z: 10.0,
        };
        let confirmed = confirm_level_shifts(&s, 0, vec![mislocated], &ConfirmConfig::default());
        assert!(confirmed.is_empty());
    }

    #[test]
    fn wrong_direction_is_rejected() {
        let mut s = base(400);
        for v in s.iter_mut().skip(200) {
            *v += 50.0; // the level goes UP
        }
        let wrong = Feature {
            metric: "m".into(),
            kind: FeatureKind::LevelShiftDown,
            start: 200,
            end: 400,
            peak_z: 10.0,
        };
        let confirmed = confirm_level_shifts(&s, 0, vec![wrong], &ConfirmConfig::default());
        assert!(confirmed.is_empty());
    }

    #[test]
    fn nonzero_start_second_offsets_are_handled() {
        let mut s = base(400);
        for v in s.iter_mut().skip(200) {
            *v += 50.0;
        }
        // The series starts at absolute second 5 000.
        let feats = detect_features("m", &s, 5_000, &det_cfg());
        let confirmed = confirm_level_shifts(&s, 5_000, feats.clone(), &ConfirmConfig::default());
        assert_eq!(confirmed.len(), feats.len());
    }
}
