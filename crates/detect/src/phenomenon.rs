//! The Phenomenon Perception Layer: typed anomalies from feature combos.
//!
//! Users configure which feature combinations constitute an anomaly (Fig. 5
//! shows `[cpu_usage.spike]` gating a repair action). A
//! [`PhenomenonRule`] names an anomaly type and lists the features that
//! must co-occur; detected phenomena of the same type that lie close in
//! time are merged (§IV-B), and those shorter than a minimum duration are
//! dropped.

use crate::features::{Feature, FeatureKind};

/// A required feature: metric plus an acceptable set of kinds.
#[derive(Debug, Clone)]
pub struct MetricFeature {
    pub metric: String,
    /// Any of these kinds satisfies the requirement.
    pub kinds: Vec<FeatureKind>,
}

impl MetricFeature {
    /// Any upward anomaly on the metric.
    pub fn any_up(metric: &str) -> Self {
        Self {
            metric: metric.to_string(),
            kinds: vec![FeatureKind::SpikeUp, FeatureKind::LevelShiftUp],
        }
    }

    fn matches(&self, f: &Feature) -> bool {
        f.metric == self.metric && self.kinds.contains(&f.kind)
    }
}

/// One rule: all listed features must co-occur (within the merge gap).
#[derive(Debug, Clone)]
pub struct PhenomenonRule {
    /// Anomaly type this rule produces, e.g. `"active_session_anomaly"`.
    pub anomaly_type: String,
    pub all_of: Vec<MetricFeature>,
}

/// Configuration of the phenomenon layer.
#[derive(Debug, Clone)]
pub struct PhenomenonConfig {
    pub rules: Vec<PhenomenonRule>,
    /// Phenomena of the same type closer than this merge into one (s).
    pub merge_gap_s: i64,
    /// Phenomena shorter than this are ignored (s).
    pub min_duration_s: i64,
}

impl Default for PhenomenonConfig {
    fn default() -> Self {
        // The paper's default watches active session, CPU usage, and IOPS
        // usage.
        use pinsql_dbsim::metrics::names;
        Self {
            rules: vec![
                PhenomenonRule {
                    anomaly_type: "active_session_anomaly".into(),
                    all_of: vec![MetricFeature::any_up(names::ACTIVE_SESSION)],
                },
                PhenomenonRule {
                    anomaly_type: "cpu_usage_anomaly".into(),
                    all_of: vec![MetricFeature::any_up(names::CPU_USAGE)],
                },
                PhenomenonRule {
                    anomaly_type: "iops_usage_anomaly".into(),
                    all_of: vec![MetricFeature::any_up(names::IOPS_USAGE)],
                },
            ],
            merge_gap_s: 60,
            min_duration_s: 5,
        }
    }
}

/// A typed anomalous phenomenon over `[start, end)` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Phenomenon {
    pub anomaly_type: String,
    pub start: i64,
    pub end: i64,
}

impl Phenomenon {
    /// Duration in seconds.
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }
}

/// Applies the rule table to a set of detected features.
pub fn classify(features: &[Feature], cfg: &PhenomenonConfig) -> Vec<Phenomenon> {
    let mut out: Vec<Phenomenon> = Vec::new();
    for rule in &cfg.rules {
        // Candidate instances: every feature matching the first
        // requirement anchors a window; remaining requirements must have a
        // feature near it.
        let Some(first_req) = rule.all_of.first() else { continue };
        for anchor in features.iter().filter(|f| first_req.matches(f)) {
            let mut start = anchor.start;
            let mut end = anchor.end;
            let mut ok = true;
            for req in &rule.all_of[1..] {
                match features
                    .iter()
                    .filter(|f| req.matches(f) && f.near(anchor, cfg.merge_gap_s))
                    .min_by_key(|f| (f.start - anchor.start).abs())
                {
                    Some(f) => {
                        start = start.min(f.start);
                        end = end.max(f.end);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                out.push(Phenomenon { anomaly_type: rule.anomaly_type.clone(), start, end });
            }
        }
    }
    merge_and_filter(out, cfg)
}

/// Merges same-type phenomena closer than the gap and drops short ones.
fn merge_and_filter(mut phenomena: Vec<Phenomenon>, cfg: &PhenomenonConfig) -> Vec<Phenomenon> {
    phenomena.sort_by(|a, b| (a.anomaly_type.as_str(), a.start).cmp(&(b.anomaly_type.as_str(), b.start)));
    let mut merged: Vec<Phenomenon> = Vec::with_capacity(phenomena.len());
    for p in phenomena {
        match merged.last_mut() {
            Some(last)
                if last.anomaly_type == p.anomaly_type && p.start <= last.end + cfg.merge_gap_s =>
            {
                last.end = last.end.max(p.end);
            }
            _ => merged.push(p),
        }
    }
    merged.retain(|p| p.duration() >= cfg.min_duration_s);
    merged.sort_by_key(|p| p.start);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(metric: &str, kind: FeatureKind, start: i64, end: i64) -> Feature {
        Feature { metric: metric.into(), kind, start, end, peak_z: 10.0 }
    }

    fn cfg_one_rule() -> PhenomenonConfig {
        PhenomenonConfig {
            rules: vec![PhenomenonRule {
                anomaly_type: "session".into(),
                all_of: vec![MetricFeature::any_up("active_session")],
            }],
            merge_gap_s: 30,
            min_duration_s: 5,
        }
    }

    #[test]
    fn single_feature_rule_fires() {
        let feats = vec![feat("active_session", FeatureKind::SpikeUp, 100, 160)];
        let ph = classify(&feats, &cfg_one_rule());
        assert_eq!(ph, vec![Phenomenon { anomaly_type: "session".into(), start: 100, end: 160 }]);
    }

    #[test]
    fn wrong_metric_or_kind_does_not_fire() {
        let feats = vec![
            feat("cpu_usage", FeatureKind::SpikeUp, 100, 160),
            feat("active_session", FeatureKind::SpikeDown, 200, 260),
        ];
        assert!(classify(&feats, &cfg_one_rule()).is_empty());
    }

    #[test]
    fn short_phenomena_are_dropped() {
        let feats = vec![feat("active_session", FeatureKind::SpikeUp, 100, 103)];
        assert!(classify(&feats, &cfg_one_rule()).is_empty());
    }

    #[test]
    fn close_phenomena_merge() {
        let feats = vec![
            feat("active_session", FeatureKind::SpikeUp, 100, 130),
            feat("active_session", FeatureKind::SpikeUp, 150, 180),
            feat("active_session", FeatureKind::SpikeUp, 400, 430),
        ];
        let ph = classify(&feats, &cfg_one_rule());
        assert_eq!(ph.len(), 2);
        assert_eq!((ph[0].start, ph[0].end), (100, 180));
        assert_eq!((ph[1].start, ph[1].end), (400, 430));
    }

    #[test]
    fn multi_metric_rule_requires_co_occurrence() {
        let cfg = PhenomenonConfig {
            rules: vec![PhenomenonRule {
                anomaly_type: "cpu_bound_session".into(),
                all_of: vec![
                    MetricFeature::any_up("active_session"),
                    MetricFeature::any_up("cpu_usage"),
                ],
            }],
            merge_gap_s: 30,
            min_duration_s: 5,
        };
        // Co-occurring pair fires; lone session anomaly at t=500 does not.
        let feats = vec![
            feat("active_session", FeatureKind::SpikeUp, 100, 160),
            feat("cpu_usage", FeatureKind::LevelShiftUp, 110, 170),
            feat("active_session", FeatureKind::SpikeUp, 500, 560),
        ];
        let ph = classify(&feats, &cfg);
        assert_eq!(ph.len(), 1);
        assert_eq!((ph[0].start, ph[0].end), (100, 170));
    }

    #[test]
    fn default_config_watches_three_metrics() {
        let cfg = PhenomenonConfig::default();
        assert_eq!(cfg.rules.len(), 3);
        let feats = vec![feat("active_session", FeatureKind::LevelShiftUp, 10, 100)];
        let ph = classify(&feats, &cfg);
        assert_eq!(ph.len(), 1);
        assert_eq!(ph[0].anomaly_type, "active_session_anomaly");
    }
}
