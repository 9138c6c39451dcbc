//! The end-to-end PinSQL pipeline with per-stage timing.

use crate::config::PinSqlConfig;
use crate::hsql::rank_hsqls;
use crate::rsql::identify_rsqls;
use crate::session_estimate::estimate_sessions;
use pinsql_collector::{CaseData, HistoryStore};
use pinsql_detect::AnomalyWindow;
use pinsql_obs::{NoopObserver, Observer, Stage};
use pinsql_sqlkit::SqlId;
use std::time::Instant;

/// One entry of a ranked template list.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTemplate {
    /// Index into `case.templates`.
    pub index: usize,
    pub id: SqlId,
    /// Diagnostic label (first contributing spec).
    pub label: String,
    /// Ranking score (impact for H-SQLs, execution/session correlation for
    /// R-SQLs).
    pub score: f64,
}

/// Wall-clock seconds spent per stage (the Table I `Time` decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    pub estimate_s: f64,
    pub hsql_s: f64,
    pub cluster_s: f64,
    pub total_s: f64,
    /// Resolved worker-thread count the diagnosis ran with (1 = serial),
    /// so timing rows are attributable to a parallelism level.
    pub parallelism: usize,
}

impl StageTimings {
    /// Merges per-case timings into a mean (for Table I rows). Empty input
    /// yields all-zero timings.
    ///
    /// Samples in one row are normally homogeneous in `parallelism` (a
    /// sweep fixes the level per batch); if a mixed batch slips through,
    /// the *maximum* is reported so the row is attributed to the widest
    /// fan-out that actually ran, rather than whatever sample happened to
    /// come first.
    pub fn mean_of(samples: &[StageTimings]) -> StageTimings {
        if samples.is_empty() {
            return StageTimings::default();
        }
        let n = samples.len() as f64;
        StageTimings {
            estimate_s: samples.iter().map(|s| s.estimate_s).sum::<f64>() / n,
            hsql_s: samples.iter().map(|s| s.hsql_s).sum::<f64>() / n,
            cluster_s: samples.iter().map(|s| s.cluster_s).sum::<f64>() / n,
            total_s: samples.iter().map(|s| s.total_s).sum::<f64>() / n,
            parallelism: samples.iter().map(|s| s.parallelism).max().unwrap_or_default(),
        }
    }
}

/// A complete diagnosis of one anomaly case.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// High-impact SQLs, most impactful first.
    pub hsqls: Vec<RankedTemplate>,
    /// Root-cause SQLs, most likely first. Always the full ranking (for
    /// Hits@k evaluation), even when nothing would actually be reported.
    pub rsqls: Vec<RankedTemplate>,
    /// The R-SQLs PinSQL would *assert* as root causes: empty when history
    /// verification rejected every candidate, and filtered to scores of at
    /// least [`PinSqlConfig::rsql_score_min`] otherwise. This is the
    /// false-positive guard — on a no-anomaly window it stays empty even
    /// though `rsqls` still ranks whatever candidates exist.
    pub reported_rsqls: Vec<RankedTemplate>,
    /// Number of candidates surviving history verification.
    pub n_verified: usize,
    /// Number of business clusters found.
    pub n_clusters: usize,
    /// Number of top clusters kept by the cumulative threshold.
    pub selected_clusters: usize,
    pub timings: StageTimings,
}

/// The PinSQL diagnoser.
#[derive(Debug, Clone, Default)]
pub struct PinSql {
    pub cfg: PinSqlConfig,
}

impl PinSql {
    /// Creates a diagnoser with the given configuration.
    pub fn new(cfg: PinSqlConfig) -> Self {
        Self { cfg }
    }

    /// Diagnoses one anomaly case: estimates individual sessions, ranks
    /// H-SQLs, pinpoints R-SQLs.
    ///
    /// `minutes_origin` is the absolute minute index of `case.ts` in the
    /// history store's timeline.
    pub fn diagnose(
        &self,
        case: &CaseData,
        window: &AnomalyWindow,
        history: &HistoryStore,
        minutes_origin: i64,
    ) -> Diagnosis {
        self.diagnose_observed(case, window, history, minutes_origin, &NoopObserver)
    }

    /// [`diagnose`](Self::diagnose) with per-stage observability spans
    /// ([`Stage::SessionEstimate`], [`Stage::Hsql`], [`Stage::Rsql`]).
    ///
    /// The observer only watches: the returned `Diagnosis` is
    /// byte-identical whatever `O` is (the workspace `equivalence`
    /// matrix pins this), and with the default [`NoopObserver`] the
    /// instrumentation compiles to nothing.
    pub fn diagnose_observed<O: Observer>(
        &self,
        case: &CaseData,
        window: &AnomalyWindow,
        history: &HistoryStore,
        minutes_origin: i64,
        obs: &O,
    ) -> Diagnosis {
        let n0 = if O::ENABLED { obs.now_ns() } else { 0 };
        let t0 = Instant::now();
        let est = estimate_sessions(case, &self.cfg);
        let t1 = Instant::now();
        let n1 = if O::ENABLED {
            let n = obs.now_ns();
            obs.span(Stage::SessionEstimate, n0, n);
            n
        } else {
            0
        };
        let hsql = rank_hsqls(case, &est, window, &self.cfg);
        let t2 = Instant::now();
        let n2 = if O::ENABLED {
            let n = obs.now_ns();
            obs.span(Stage::Hsql, n1, n);
            n
        } else {
            0
        };
        let rsql = identify_rsqls(case, &est, &hsql, window, history, minutes_origin, &self.cfg);
        let t3 = Instant::now();
        if O::ENABLED {
            obs.span(Stage::Rsql, n2, obs.now_ns());
        }

        let to_ranked = |list: &[(usize, f64)]| -> Vec<RankedTemplate> {
            list.iter()
                .map(|&(index, score)| {
                    let tpl = &case.templates[index];
                    let label = case
                        .catalog
                        .get(tpl.id)
                        .map(|info| info.label.clone())
                        .unwrap_or_default();
                    RankedTemplate { index, id: tpl.id, label, score }
                })
                .collect()
        };

        let rsqls = to_ranked(&rsql.ranked);
        let reported_rsqls = if rsql.verified.is_empty() {
            Vec::new()
        } else {
            rsqls.iter().filter(|r| r.score >= self.cfg.rsql_score_min).cloned().collect()
        };

        Diagnosis {
            hsqls: to_ranked(&hsql.ranked),
            rsqls,
            reported_rsqls,
            n_verified: rsql.verified.len(),
            n_clusters: rsql.clusters.len(),
            selected_clusters: rsql.selected_clusters,
            timings: StageTimings {
                estimate_s: (t1 - t0).as_secs_f64(),
                hsql_s: (t2 - t1).as_secs_f64(),
                cluster_s: (t3 - t2).as_secs_f64(),
                total_s: (t3 - t0).as_secs_f64(),
                parallelism: self.cfg.effective_parallelism(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorKind;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_dbsim::{InstanceMetrics, QueryRecord};
    use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

    #[test]
    fn diagnose_produces_consistent_structures() {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("SELECT * FROM a WHERE x = 1", c.clone(), "a"),
            TemplateSpec::new("SELECT * FROM b WHERE x = 1", c, "b"),
        ];
        let n = 240usize;
        let mut log = Vec::new();
        let mut session = vec![2.0; n];
        for t in 0..n as i64 {
            let burst = (120..180).contains(&t);
            let count = if burst { 20 } else { 2 };
            for j in 0..count {
                log.push(QueryRecord {
                    spec: SpecId(0),
                    start_ms: t as f64 * 1000.0 + j as f64 * 45.0,
                    response_ms: if burst { 900.0 } else { 50.0 },
                    examined_rows: 1,
                });
            }
            log.push(QueryRecord {
                spec: SpecId(1),
                start_ms: t as f64 * 1000.0 + 500.0,
                response_ms: 40.0,
                examined_rows: 1,
            });
            if burst {
                session[t as usize] = 20.0;
            }
        }
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: session,
            cpu_usage: vec![0.2; n],
            iops_usage: vec![0.1; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&log, &specs, &metrics, 0, n as i64);
        let window = AnomalyWindow { anomaly_start: 120, anomaly_end: 180, delta_s: 120 };
        let pinsql = PinSql::new(
            PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets),
        );
        let d = pinsql.diagnose(&case, &window, &HistoryStore::new(), 1_000_000);

        assert_eq!(d.hsqls.len(), 2);
        assert!(!d.rsqls.is_empty());
        // The bursting template is both top H-SQL and top R-SQL here.
        let burst_id = case.catalog.id_of_spec(SpecId(0));
        assert_eq!(d.hsqls[0].id, burst_id);
        assert_eq!(d.rsqls[0].id, burst_id);
        assert_eq!(d.rsqls[0].label, "a");
        // The burst survives history verification (no history) and
        // correlates strongly, so it must also be *reported*.
        assert!(d.n_verified >= 1);
        assert_eq!(d.reported_rsqls.first().map(|r| r.id), Some(burst_id));
        assert!(d.n_clusters >= 1);
        assert!(d.selected_clusters >= 1);
        assert!(d.timings.total_s >= d.timings.estimate_s);
        assert!(d.timings.total_s > 0.0);
        assert!(d.timings.parallelism >= 1);
    }

    #[test]
    fn stage_timings_mean() {
        let a = StageTimings {
            estimate_s: 1.0,
            hsql_s: 2.0,
            cluster_s: 3.0,
            total_s: 6.0,
            parallelism: 4,
        };
        let b = StageTimings {
            estimate_s: 3.0,
            hsql_s: 4.0,
            cluster_s: 5.0,
            total_s: 12.0,
            parallelism: 4,
        };
        let m = StageTimings::mean_of(&[a, b]);
        assert_eq!(m.estimate_s, 2.0);
        assert_eq!(m.hsql_s, 3.0);
        assert_eq!(m.cluster_s, 4.0);
        assert_eq!(m.total_s, 9.0);
        assert_eq!(m.parallelism, 4);
        assert_eq!(StageTimings::mean_of(&[]), StageTimings::default());
    }

    #[test]
    fn stage_timings_mean_attributes_mixed_parallelism_to_the_max() {
        let serial = StageTimings { parallelism: 1, ..StageTimings::default() };
        let wide = StageTimings { parallelism: 8, ..StageTimings::default() };
        assert_eq!(StageTimings::mean_of(&[serial, wide]).parallelism, 8);
        assert_eq!(StageTimings::mean_of(&[wide, serial]).parallelism, 8);
    }
}
