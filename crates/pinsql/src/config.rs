//! PinSQL configuration: the paper's hyper-parameters and the ablation
//! switchboard used by the Fig. 6 study — plus the versioned-delta types
//! the resident fleet daemon pushes at runtime ([`ConfigEpoch`],
//! [`PinSqlDelta`]).

use pinsql_timeseries::CutKind;
use std::fmt;

/// Monotone version of a pushed configuration.
///
/// The fleet control plane tags every config push with an epoch; agents
/// accept a push only if its epoch is *strictly greater* than the epoch
/// they are running, so a delayed or replayed frame can never roll a
/// fleet back to stale settings. Epoch 0 is the cold-start configuration
/// (nothing has been pushed yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConfigEpoch(pub u64);

impl ConfigEpoch {
    /// The cold-start epoch (no push applied).
    pub const INITIAL: ConfigEpoch = ConfigEpoch(0);

    /// The next epoch in sequence.
    pub fn next(self) -> Self {
        ConfigEpoch(self.0 + 1)
    }
}

impl fmt::Display for ConfigEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// A sparse override of [`PinSqlConfig`] — what a config push carries.
///
/// Every field is optional; `None` keeps the running value. Deltas cover
/// the knobs that make sense to retune on a live fleet (detector and
/// reporting thresholds, cluster budgets, diagnosis parallelism); the
/// structural switches (estimator variant, ablations) stay cold-start
/// settings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PinSqlDelta {
    /// Clustering correlation threshold `τ`.
    pub tau: Option<f64>,
    /// Max clusters examined by the cumulative threshold, `K_c`.
    pub kc: Option<usize>,
    /// Cumulative correlation threshold `τ_c`.
    pub tau_c: Option<f64>,
    /// Tukey fence multiplier for history verification.
    pub tukey_k: Option<f64>,
    /// Minimum final R-SQL score for the reported set.
    pub rsql_score_min: Option<f64>,
    /// Worker threads for the parallel diagnosis hot paths.
    pub parallelism: Option<usize>,
}

impl PinSqlDelta {
    /// True when the delta overrides nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Applies every present override onto `cfg` in place.
    pub fn apply(&self, cfg: &mut PinSqlConfig) {
        if let Some(v) = self.tau {
            cfg.tau = v;
        }
        if let Some(v) = self.kc {
            cfg.kc = v;
        }
        if let Some(v) = self.tau_c {
            cfg.tau_c = v;
        }
        if let Some(v) = self.tukey_k {
            cfg.tukey_k = v;
        }
        if let Some(v) = self.rsql_score_min {
            cfg.rsql_score_min = v;
        }
        if let Some(v) = self.parallelism {
            cfg.parallelism = v;
        }
    }
}

/// Which individual-active-session estimator to use (the Table III
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// `Estimate by RT`: per-second total response time, in seconds, as a
    /// session proxy.
    ByRt,
    /// `Estimate w/o buckets`: expected activity over the whole second.
    NoBuckets,
    /// `Estimate (K)`: §IV-C bucket localization of the probe instant.
    Buckets,
}

/// Component toggles for the Fig. 6 ablation study. All `false` = full
/// PinSQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// Replace the estimated individual active session with the aggregated
    /// response-time metric (PinSQL w/o Estimate Session).
    pub no_estimate_session: bool,
    /// Drop the trend-level score (PinSQL w/o Trend-level Score).
    pub no_trend_level: bool,
    /// Drop the scale-level score (PinSQL w/o Scale-level Score).
    pub no_scale_level: bool,
    /// Drop the scale-trend-level score (PinSQL w/o Trend-scale-level).
    pub no_scale_trend_level: bool,
    /// Replace the adaptive α/β weights with the constant 1
    /// (PinSQL w/o Weighted Final Score).
    pub no_weighted_final: bool,
    /// Always select exactly the top-1 cluster
    /// (PinSQL w/o Cumulative Threshold).
    pub no_cumulative_threshold: bool,
    /// Rank clusters by Top-RT instead of H-SQL impact
    /// (PinSQL w/o Direct Cause SQL Ranking).
    pub no_direct_cause_ranking: bool,
    /// Skip history trend verification
    /// (PinSQL w/o History Trend Verification).
    pub no_history_verification: bool,
}

/// All tunables, with the defaults of §VIII-A.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSqlConfig {
    /// Sigmoid smooth factor `k_s` for the trend-level weights.
    pub ks: f64,
    /// Clustering correlation threshold `τ`.
    pub tau: f64,
    /// Max clusters examined by the cumulative threshold, `K_c`.
    pub kc: usize,
    /// Cumulative correlation threshold `τ_c`.
    pub tau_c: f64,
    /// Number of sub-second buckets `K` for session estimation.
    pub buckets_k: usize,
    /// Which estimator variant to run.
    pub estimator: EstimatorKind,
    /// Tukey fence multiplier for history verification.
    pub tukey_k: f64,
    /// Days back to verify against (paper: 1, 3, 7).
    pub history_days: Vec<u32>,
    /// Worker threads for the parallel hot paths (clustering, H-SQL
    /// scoring; session estimation is serial, see `session_estimate`):
    /// `0` = all available cores, `1` = serial. Results are identical for
    /// every value — parallelism only fans out independent (i, j)/template
    /// units with a deterministic merge order.
    pub parallelism: usize,
    /// Minimum final R-SQL score for a template to be *reported* as a root
    /// cause (the false-positive guard). The full ranking is always kept
    /// for Hits@k evaluation; this threshold only gates
    /// `Diagnosis::reported_rsqls`, so a negative case — where nothing
    /// survives history verification or every candidate correlates weakly —
    /// reports an empty set instead of its least-bad candidate.
    pub rsql_score_min: f64,
    /// The window-cut path. Single-valued; deleted by the `benchmark` PR
    /// (ROADMAP 3).
    pub cut: CutKind,
    /// Ablation switches (all off for full PinSQL).
    pub ablation: Ablation,
}

impl Default for PinSqlConfig {
    fn default() -> Self {
        Self {
            ks: 30.0,
            tau: 0.8,
            kc: 5,
            tau_c: 0.95,
            buckets_k: 10,
            estimator: EstimatorKind::Buckets,
            tukey_k: 1.5,
            history_days: vec![1, 3, 7],
            parallelism: 0,
            rsql_score_min: default_rsql_score_min(),
            cut: CutKind::default(),
            ablation: Ablation::default(),
        }
    }
}

fn default_rsql_score_min() -> f64 {
    0.35
}

impl PinSqlConfig {
    /// Builder-style ablation override.
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// Builder-style estimator override.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Builder-style bucket-count override.
    pub fn with_buckets(mut self, k: usize) -> Self {
        self.buckets_k = k;
        self
    }

    /// Builder-style parallelism override (`0` = all cores, `1` = serial).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// A no-op: `cut` has one value. Single-valued; deleted by the
    /// `benchmark` PR (ROADMAP 3).
    pub fn with_cut(self, cut: CutKind) -> Self {
        let CutKind::Incremental = cut;
        self
    }

    /// The resolved worker-thread count (`parallelism`, with `0` mapped to
    /// the machine's available cores).
    pub fn effective_parallelism(&self) -> usize {
        pinsql_timeseries::effective_parallelism(self.parallelism)
    }
}

/// Sizing policy for the cross-process ingest transport (the `PEVT` wire
/// between a telemetry source and a daemon-hosting agent).
///
/// These are deployment knobs, not diagnosis knobs: any policy yields the
/// same diagnoses (the equivalence suite pins that); the policy only
/// trades memory bound against batching efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportPolicy {
    /// Events the sink will buffer per connection before withholding
    /// credits — the hard per-connection memory bound and the total credit
    /// pool a source draws on.
    pub queue_capacity: usize,
    /// Events a source packs into one `Batch` frame (the last frame of a
    /// stream may be shorter).
    pub batch_events: usize,
    /// Largest frame either endpoint will accept on the byte stream;
    /// larger length prefixes are a torn/hostile stream, not a read.
    pub max_frame_bytes: usize,
}

impl Default for TransportPolicy {
    fn default() -> Self {
        Self { queue_capacity: 8192, batch_events: 256, max_frame_bytes: 1 << 22 }
    }
}

impl TransportPolicy {
    /// Builder-style queue-capacity override.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch_events(mut self, batch_events: usize) -> Self {
        self.batch_events = batch_events;
        self
    }

    /// A policy is usable only if a full batch fits inside the credit
    /// window — otherwise a compliant source could block forever waiting
    /// for credits the sink can never grant.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_events == 0 {
            return Err("batch_events must be at least 1".into());
        }
        if self.queue_capacity < self.batch_events {
            return Err(format!(
                "queue_capacity {} cannot admit one batch of {} events",
                self.queue_capacity, self.batch_events
            ));
        }
        if self.max_frame_bytes < 64 {
            return Err(format!("max_frame_bytes {} below minimum frame size", self.max_frame_bytes));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PinSqlConfig::default();
        assert_eq!(c.ks, 30.0);
        assert_eq!(c.tau, 0.8);
        assert_eq!(c.kc, 5);
        assert_eq!(c.tau_c, 0.95);
        assert_eq!(c.buckets_k, 10);
        assert_eq!(c.history_days, vec![1, 3, 7]);
        assert_eq!(c.parallelism, 0, "default parallelism is all-cores (0)");
        assert_eq!(c.rsql_score_min, 0.35);
        assert_eq!(c.cut, CutKind::Incremental, "incremental cut is the default");
        assert_eq!(c.ablation, Ablation::default());
    }

    #[test]
    fn parallelism_builder_and_resolution() {
        let c = PinSqlConfig::default().with_parallelism(3);
        assert_eq!(c.parallelism, 3);
        assert_eq!(c.effective_parallelism(), 3);
        let auto = PinSqlConfig::default();
        assert!(auto.effective_parallelism() >= 1);
        assert_eq!(
            PinSqlConfig::default().with_parallelism(1).effective_parallelism(),
            1
        );
    }

    #[test]
    fn epochs_are_ordered_and_display() {
        let e0 = ConfigEpoch::INITIAL;
        let e1 = e0.next();
        assert!(e1 > e0);
        assert_eq!(e1, ConfigEpoch(1));
        assert_eq!(e1.to_string(), "epoch 1");
        assert_eq!(ConfigEpoch::default(), e0);
    }

    #[test]
    fn delta_applies_only_present_fields() {
        let base = PinSqlConfig::default();

        let empty = PinSqlDelta::default();
        assert!(empty.is_empty());
        let mut cfg = base.clone();
        empty.apply(&mut cfg);
        assert_eq!(cfg, base, "empty delta is a no-op");

        let delta = PinSqlDelta {
            tau: Some(0.9),
            rsql_score_min: Some(0.5),
            parallelism: Some(2),
            ..PinSqlDelta::default()
        };
        assert!(!delta.is_empty());
        let mut cfg = base.clone();
        delta.apply(&mut cfg);
        assert_eq!(cfg.tau, 0.9);
        assert_eq!(cfg.rsql_score_min, 0.5);
        assert_eq!(cfg.parallelism, 2);
        // Untouched knobs keep the base values.
        assert_eq!(cfg.kc, base.kc);
        assert_eq!(cfg.tau_c, base.tau_c);
        assert_eq!(cfg.tukey_k, base.tukey_k);
        assert_eq!(cfg.estimator, base.estimator);
    }

    #[test]
    fn transport_policy_defaults_and_validation() {
        let p = TransportPolicy::default();
        assert!(p.validate().is_ok());
        assert!(p.queue_capacity >= p.batch_events);
        assert!(TransportPolicy::default().with_batch_events(0).validate().is_err());
        assert!(TransportPolicy::default()
            .with_queue_capacity(1)
            .with_batch_events(2)
            .validate()
            .is_err());
    }

    #[test]
    fn builders() {
        let c = PinSqlConfig::default()
            .with_estimator(EstimatorKind::ByRt)
            .with_buckets(5)
            .with_ablation(Ablation { no_trend_level: true, ..Default::default() });
        assert_eq!(c.estimator, EstimatorKind::ByRt);
        assert_eq!(c.buckets_k, 5);
        assert!(c.ablation.no_trend_level);
    }
}
