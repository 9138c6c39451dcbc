//! High-impact SQL identification (§V).
//!
//! A template is an H-SQL when it *directly* drives the instance
//! active-session anomaly. Three complementary scores, each in `[-1, 1]`,
//! are fused:
//!
//! * **trend-level** — weighted Pearson correlation between the template's
//!   estimated session and the instance session, with sigmoid weights
//!   emphasizing the anomaly window (filters templates whose shape doesn't
//!   match);
//! * **scale-level** — min-max-normalized total session mass inside the
//!   anomaly window, rescaled to `[-1, 1]` (filters well-correlated but
//!   negligible templates);
//! * **scale-trend-level** — correlation between the template's session
//!   *share* `session_Q/session` and the session itself (rewards templates
//!   whose share grows exactly when the anomaly is on).
//!
//! The fusion weights adapt: with `Q_max` the largest template by session
//! mass, `α = corr(session_{Q_max}, session)` and `β = −α`, giving
//! `impact(Q) = β·trend(Q) + scale_trend(Q) + α·scale(Q)`. When the biggest
//! template explains the session (α → 1), scale dominates; when it does
//! not, trend takes over.

use crate::config::PinSqlConfig;
use crate::session_estimate::SessionEstimates;
use pinsql_collector::CaseData;
use pinsql_detect::AnomalyWindow;
use pinsql_timeseries::{
    min_max_normalize, par_map, pearson, sigmoid_window_weights, weighted_pearson,
};

/// Division guard for the session share.
const SHARE_EPS: f64 = 1e-9;

/// Anomaly-window slice bounds within the collection window, both ends
/// clamped to the case length: a detection window inconsistent with the
/// aggregated data (possible under degraded telemetry) must yield an empty
/// slice, not an out-of-bounds panic. Shared by the H-SQL mass slice and
/// the R-SQL Top-RT ablation so the two stages can never disagree on the
/// clamp rule.
pub(crate) fn anomaly_bounds(case: &CaseData, window: &AnomalyWindow) -> (usize, usize) {
    let a_lo = ((window.anomaly_start - window.ts()).max(0) as usize).min(case.n_seconds());
    let a_hi = ((window.anomaly_end - window.ts()).max(0) as usize).min(case.n_seconds());
    (a_lo, a_hi)
}

/// The H-SQL ranking plus per-level diagnostics.
#[derive(Debug, Clone)]
pub struct HsqlRanking {
    /// `(template index, impact)`, impact descending.
    pub ranked: Vec<(usize, f64)>,
    /// Per-template impact and level scores (aligned with `case.templates`).
    pub impact: Vec<f64>,
    pub trend: Vec<f64>,
    pub scale: Vec<f64>,
    pub scale_trend: Vec<f64>,
    /// Adaptive fusion weights.
    pub alpha: f64,
    pub beta: f64,
}

impl HsqlRanking {
    /// Impact of template `i` (0.0 when out of range).
    pub fn impact_of(&self, i: usize) -> f64 {
        self.impact.get(i).copied().unwrap_or(0.0)
    }
}

/// Ranks all templates of the case by H-SQL impact.
pub fn rank_hsqls(
    case: &CaseData,
    est: &SessionEstimates,
    window: &AnomalyWindow,
    cfg: &PinSqlConfig,
) -> HsqlRanking {
    let n = case.templates.len();
    let session = case.instance_session();
    let weights = sigmoid_window_weights(
        window.ts(),
        window.te(),
        1,
        window.anomaly_start,
        window.anomaly_end,
        cfg.ks,
    );
    let ab = cfg.ablation;
    let parallelism = cfg.effective_parallelism();

    let (a_lo, a_hi) = anomaly_bounds(case, window);

    // Trend level. Per-template scores are independent, so both weighted-
    // correlation loops fan out; the merge is by template index, keeping
    // the scores bit-identical to the serial loop.
    let trend: Vec<f64> = par_map(n, parallelism, |i| {
        if ab.no_trend_level {
            0.0
        } else {
            weighted_pearson(est.of(i), session, &weights)
        }
    });

    // Scale level: total session inside the anomaly window, min-max over
    // templates, rescaled into [-1, 1].
    let raw_mass: Vec<f64> =
        (0..n).map(|i| est.of(i)[a_lo..a_hi.max(a_lo)].iter().sum::<f64>()).collect();
    let mut scale = raw_mass.clone();
    min_max_normalize(&mut scale);
    for v in &mut scale {
        *v = 2.0 * *v - 1.0;
    }
    if ab.no_scale_level {
        scale.iter_mut().for_each(|v| *v = 0.0);
    }

    // Scale-trend level: corr(session_Q / session, session).
    let scale_trend: Vec<f64> = par_map(n, parallelism, |i| {
        if ab.no_scale_trend_level {
            return 0.0;
        }
        let share: Vec<f64> = est
            .of(i)
            .iter()
            .zip(session)
            .map(|(&q, &s)| if s.abs() < SHARE_EPS { 0.0 } else { q / s })
            .collect();
        pearson(&share, session)
    });

    // Adaptive weights.
    let (alpha, beta) = if ab.no_weighted_final {
        (1.0, 1.0)
    } else if n == 0 {
        (0.0, 0.0)
    } else {
        let q_max = raw_mass
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty template set");
        let alpha = pearson(est.of(q_max), session);
        (alpha, -alpha)
    };

    let impact: Vec<f64> =
        (0..n).map(|i| beta * trend[i] + scale_trend[i] + alpha * scale[i]).collect();
    let mut ranked: Vec<(usize, f64)> = impact.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    HsqlRanking { ranked, impact, trend, scale, scale_trend, alpha, beta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorKind;
    use crate::session_estimate::estimate_sessions;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_dbsim::{InstanceMetrics, QueryRecord};
    use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

    /// Builds a case with three templates over 120 s with an anomaly at
    /// [60, 90):
    ///   spec 0 "victim":  active only during the anomaly, big mass;
    ///   spec 1 "steady":  constant heavy traffic throughout;
    ///   spec 2 "tiny":    correlates with the anomaly but negligible mass.
    fn synthetic_case() -> (CaseData, AnomalyWindow) {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("SELECT * FROM v WHERE id = 1", c.clone(), "victim"),
            TemplateSpec::new("SELECT * FROM s WHERE id = 1", c.clone(), "steady"),
            TemplateSpec::new("SELECT * FROM t WHERE id = 1", c, "tiny"),
        ];
        let mut log = Vec::new();
        let mut session = vec![0.0; 120];
        for t in 0..120i64 {
            // steady: 10 concurrent 1s-queries every second
            for j in 0..10 {
                log.push(QueryRecord {
                    spec: SpecId(1),
                    start_ms: t as f64 * 1000.0 + j as f64 * 90.0,
                    response_ms: 900.0,
                    examined_rows: 1,
                });
            }
            let mut active = 9.0; // steady contributes ~9 at mid-second
            if (60..90).contains(&t) {
                // victim: 40 slow queries per second
                for j in 0..40 {
                    log.push(QueryRecord {
                        spec: SpecId(0),
                        start_ms: t as f64 * 1000.0 + j as f64 * 20.0,
                        response_ms: 950.0,
                        examined_rows: 2,
                    });
                }
                // tiny: 1 query per second
                log.push(QueryRecord {
                    spec: SpecId(2),
                    start_ms: t as f64 * 1000.0 + 100.0,
                    response_ms: 400.0,
                    examined_rows: 1,
                });
                active += 40.0;
            }
            session[t as usize] = active;
        }
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: session,
            cpu_usage: vec![0.0; 120],
            iops_usage: vec![0.0; 120],
            row_lock_waits: vec![0.0; 120],
            mdl_waits: vec![0.0; 120],
            qps: vec![0.0; 120],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&log, &specs, &metrics, 0, 120);
        let window = AnomalyWindow { anomaly_start: 60, anomaly_end: 90, delta_s: 60 };
        (case, window)
    }

    fn idx_of(case: &CaseData, spec: usize) -> usize {
        case.template_index(case.catalog.id_of_spec(SpecId(spec))).unwrap()
    }

    #[test]
    fn victim_outranks_steady_and_tiny() {
        let (case, window) = synthetic_case();
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let ranking = rank_hsqls(&case, &est, &window, &cfg);
        let victim = idx_of(&case, 0);
        assert_eq!(ranking.ranked[0].0, victim, "victim must rank first: {ranking:?}");
        assert!(ranking.impact_of(victim) > ranking.impact_of(idx_of(&case, 1)));
        assert!(ranking.impact_of(victim) > ranking.impact_of(idx_of(&case, 2)));
    }

    #[test]
    fn impact_lookup_agrees_with_ranking() {
        let (case, window) = synthetic_case();
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &window, &cfg);
        assert_eq!(r.impact.len(), case.templates.len());
        for &(i, score) in &r.ranked {
            assert_eq!(r.impact_of(i).to_bits(), score.to_bits(), "template {i}");
        }
        assert_eq!(r.impact_of(case.templates.len()), 0.0, "out of range");
    }

    #[test]
    fn trend_scores_reflect_anomaly_correlation() {
        let (case, window) = synthetic_case();
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &window, &cfg);
        let victim = idx_of(&case, 0);
        let steady = idx_of(&case, 1);
        assert!(r.trend[victim] > 0.9, "victim trend {}", r.trend[victim]);
        assert!(r.trend[victim] > r.trend[steady] + 0.3);
        // Victim has the most session mass in the anomaly window.
        assert!(r.scale[victim] > r.scale[steady]);
    }

    #[test]
    fn ablation_disables_levels() {
        let (case, window) = synthetic_case();
        let mut cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        cfg.ablation.no_trend_level = true;
        cfg.ablation.no_scale_level = true;
        cfg.ablation.no_scale_trend_level = true;
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &window, &cfg);
        assert!(r.trend.iter().all(|&v| v == 0.0));
        assert!(r.scale.iter().all(|&v| v == 0.0));
        assert!(r.scale_trend.iter().all(|&v| v == 0.0));
        assert!(r.ranked.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn no_weighted_final_uses_unit_weights() {
        let (case, window) = synthetic_case();
        let mut cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        cfg.ablation.no_weighted_final = true;
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &window, &cfg);
        assert_eq!(r.alpha, 1.0);
        assert_eq!(r.beta, 1.0);
    }

    #[test]
    fn alpha_beta_are_opposite() {
        let (case, window) = synthetic_case();
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &window, &cfg);
        assert!((r.alpha + r.beta).abs() < 1e-12);
        assert!((-1.0..=1.0).contains(&r.alpha));
    }

    #[test]
    fn window_beyond_case_does_not_panic() {
        // Regression: an anomaly window extending past the aggregated data
        // used to slice `est.of(i)[a_lo..]` out of bounds.
        let (case, _) = synthetic_case();
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let beyond = AnomalyWindow { anomaly_start: 500, anomaly_end: 600, delta_s: 400 };
        let r = rank_hsqls(&case, &est, &beyond, &cfg);
        assert_eq!(r.ranked.len(), case.templates.len());
        assert!(r.ranked.iter().all(|&(_, s)| s.is_finite()));

        let zero_len = AnomalyWindow { anomaly_start: 60, anomaly_end: 60, delta_s: 30 };
        let r = rank_hsqls(&case, &est, &zero_len, &cfg);
        assert!(r.ranked.iter().all(|&(_, s)| s.is_finite()));
    }

    #[test]
    fn empty_case_yields_empty_ranking() {
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: vec![0.0; 10],
            cpu_usage: vec![0.0; 10],
            iops_usage: vec![0.0; 10],
            row_lock_waits: vec![0.0; 10],
            mdl_waits: vec![0.0; 10],
            qps: vec![0.0; 10],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&[], &[], &metrics, 0, 10);
        let cfg = PinSqlConfig::default();
        let est = estimate_sessions(&case, &cfg);
        let window = AnomalyWindow { anomaly_start: 4, anomaly_end: 8, delta_s: 4 };
        let r = rank_hsqls(&case, &est, &window, &cfg);
        assert!(r.ranked.is_empty());
    }
}
