//! Anomalous-feature types produced by the Basic Perception Layer.

use std::fmt;

/// The anomalous feature kinds of §II: spike = sudden change that recovers;
/// level shift = sudden change that persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    SpikeUp,
    SpikeDown,
    LevelShiftUp,
    LevelShiftDown,
}

impl FeatureKind {
    /// The configuration-string suffix (`"spike"` / `"levelshift"` with
    /// direction), e.g. `active_session.spike_up`.
    pub fn suffix(&self) -> &'static str {
        match self {
            FeatureKind::SpikeUp => "spike_up",
            FeatureKind::SpikeDown => "spike_down",
            FeatureKind::LevelShiftUp => "levelshift_up",
            FeatureKind::LevelShiftDown => "levelshift_down",
        }
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// One detected anomalous feature on a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Canonical metric name (see `pinsql_dbsim::metrics::names`).
    pub metric: String,
    pub kind: FeatureKind,
    /// Segment start (second, inclusive).
    pub start: i64,
    /// Segment end (second, exclusive).
    pub end: i64,
    /// Peak robust z-score observed inside the segment.
    pub peak_z: f64,
}

impl Feature {
    /// Duration of the feature in seconds.
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }

    /// True when two features overlap in time or sit within `gap` seconds
    /// of each other.
    pub fn near(&self, other: &Feature, gap: i64) -> bool {
        self.start <= other.end + gap && other.start <= self.end + gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(start: i64, end: i64) -> Feature {
        Feature { metric: "m".into(), kind: FeatureKind::SpikeUp, start, end, peak_z: 10.0 }
    }

    #[test]
    fn kind_predicates() {
        assert_eq!(FeatureKind::SpikeUp.to_string(), "spike_up");
        assert_eq!(FeatureKind::SpikeDown.to_string(), "spike_down");
        assert_eq!(FeatureKind::LevelShiftUp.to_string(), "levelshift_up");
        assert_eq!(FeatureKind::LevelShiftDown.to_string(), "levelshift_down");
    }

    #[test]
    fn nearness_with_gap() {
        let a = feat(10, 20);
        assert!(a.near(&feat(18, 25), 0));
        assert!(!a.near(&feat(25, 30), 0));
        assert!(a.near(&feat(25, 30), 5));
        assert!(feat(25, 30).near(&a, 5), "symmetric");
        assert_eq!(a.duration(), 10);
    }
}
