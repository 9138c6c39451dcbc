//! Root-cause SQL identification (§VI).
//!
//! Walking the propagation chain backwards from the H-SQLs:
//!
//! 1. **Template clustering** — templates whose `#execution` trends
//!    correlate above `τ` belong to the same business (microservice DAG);
//!    performance metrics join the graph as temporary *helper nodes* that
//!    densify it, and connected components are the clusters.
//! 2. **Cluster ranking** — a cluster inherits the max H-SQL impact of its
//!    members: if a cluster contains an H-SQL, its R-SQL is likely inside.
//! 3. **Cumulative threshold** — clusters are taken in impact order until
//!    the summed estimated session of the selected templates correlates
//!    with the instance session at ≥ `τ_c` (or `K_c` clusters), covering
//!    anomalies driven by multiple independent businesses.
//! 4. **History trend verification** — a real R-SQL's execution count
//!    rises abruptly *now* (Tukey upper outlier inside the anomaly window)
//!    but did not rise in the same window 1/3/7 days ago.
//! 5. **Ranking** — survivors are ranked by the correlation of their
//!    execution count with the instance session.

use crate::config::PinSqlConfig;
use crate::hsql::{anomaly_bounds, HsqlRanking};
use crate::session_estimate::SessionEstimates;
use pinsql_collector::{CaseData, HistoryStore};
use pinsql_detect::AnomalyWindow;
use pinsql_timeseries::resample::{downsample, Downsample};
use pinsql_timeseries::{
    par_map, pearson, tukey_fences, CorrelationGraph, NormalizedMatrix, TimeSeries,
};

/// Everything the R-SQL stage produces (kept for diagnostics and tests).
#[derive(Debug, Clone)]
pub struct RsqlOutcome {
    /// `(template index, score)`, descending — the R-SQL ranking.
    pub ranked: Vec<(usize, f64)>,
    /// Business clusters (template indices; helper nodes removed).
    pub clusters: Vec<Vec<usize>>,
    /// Number of top clusters chosen by the cumulative threshold.
    pub selected_clusters: usize,
    /// Candidate template indices after cluster selection.
    pub candidates: Vec<usize>,
    /// Candidates surviving history verification.
    pub verified: Vec<usize>,
}

/// Runs the full R-SQL identification stage.
///
/// `minutes_origin` is the absolute minute index of the collection-window
/// start, used to address the history store (`N_d` days = `N_d · 1440`
/// minutes back).
pub fn identify_rsqls(
    case: &CaseData,
    est: &SessionEstimates,
    hsql: &HsqlRanking,
    window: &AnomalyWindow,
    history: &HistoryStore,
    minutes_origin: i64,
    cfg: &PinSqlConfig,
) -> RsqlOutcome {
    let n = case.templates.len();
    if n == 0 {
        return RsqlOutcome {
            ranked: Vec::new(),
            clusters: Vec::new(),
            selected_clusters: 0,
            candidates: Vec::new(),
            verified: Vec::new(),
        };
    }
    let session = case.instance_session();
    let parallelism = cfg.effective_parallelism();

    // --- 1. Clustering on 1-minute execution trends + metric helpers. ---
    // The pairwise correlation graph is the dominant cost at paper-scale
    // template counts; it fans out over pair-loop rows with index-ordered
    // merges, so the clustering is identical at every parallelism level.
    // The case carries each template's minute row (both case builders fill
    // them); they and the helper series normalize into ONE
    // `NormalizedMatrix` handed to the graph build.
    let tpl_rows = &case.minute_rows;
    debug_assert_eq!(tpl_rows.len(), n, "one minute row per template");
    let helper_series: Vec<Vec<f64>> = helper_nodes(case);
    let mut series_refs: Vec<&[f64]> = Vec::with_capacity(n + helper_series.len());
    series_refs.extend(tpl_rows.iter().map(|r| r.as_slice()));
    series_refs.extend(helper_series.iter().map(|v| v.as_slice()));
    let matrix = NormalizedMatrix::from_series(&series_refs);
    let raw_components =
        CorrelationGraph::from_matrix(&matrix, cfg.tau, parallelism).components();
    let components = raw_components
        .into_iter()
        .map(|c| c.into_iter().filter(|&i| i < n).collect::<Vec<_>>())
        .filter(|c: &Vec<usize>| !c.is_empty());

    // --- 2. Rank clusters. ---
    let cluster_score = |c: &[usize]| -> f64 {
        if cfg.ablation.no_direct_cause_ranking {
            // Top-RT stand-in: total response time over the anomaly window.
            // Both bounds clamped to the case length (see `rank_hsqls`).
            let (a_lo, a_hi) = anomaly_bounds(case, window);
            c.iter()
                .map(|&i| {
                    case.templates[i].series.total_rt_ms[a_lo..a_hi.max(a_lo)]
                        .iter()
                        .sum::<f64>()
                })
                .fold(f64::NEG_INFINITY, f64::max)
        } else {
            c.iter().map(|&i| hsql.impact_of(i)).fold(f64::NEG_INFINITY, f64::max)
        }
    };
    // Scored once each; the sort is stable, so equal scores keep the
    // components' canonical (smallest-member) order.
    let mut scored: Vec<(f64, Vec<usize>)> = components.map(|c| (cluster_score(&c), c)).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let clusters: Vec<Vec<usize>> = scored.into_iter().map(|(_, c)| c).collect();

    // --- 3. Cumulative threshold. ---
    let n_secs = case.n_seconds();
    let k_limit = if cfg.ablation.no_cumulative_threshold { 1 } else { cfg.kc.max(1) };
    let mut selected_clusters = 0usize;
    let mut cumulative = vec![0.0f64; n_secs];
    for cluster in clusters.iter().take(k_limit.min(clusters.len())) {
        for &i in cluster {
            for (acc, v) in cumulative.iter_mut().zip(est.of(i)) {
                *acc += *v;
            }
        }
        selected_clusters += 1;
        if cfg.ablation.no_cumulative_threshold {
            break;
        }
        if pearson(&cumulative, session) >= cfg.tau_c {
            break;
        }
    }
    let mut candidates: Vec<usize> =
        clusters.iter().take(selected_clusters).flatten().copied().collect();
    candidates.sort_unstable();

    // --- 4. History trend verification. ---
    let verified: Vec<usize> = if cfg.ablation.no_history_verification {
        candidates.clone()
    } else {
        let keep = par_map(candidates.len(), parallelism, |ci| {
            let i = candidates[ci];
            verify_history(case, i, &tpl_rows[i], window, history, minutes_origin, cfg)
        });
        candidates.iter().zip(keep).filter(|(_, k)| *k).map(|(&i, _)| i).collect()
    };
    // The paper keeps only verified templates; if verification empties the
    // set (e.g. no history at all and a flat current trend), fall back to
    // the unverified candidates so a ranking is always produced.
    let final_set: &[usize] = if verified.is_empty() { &candidates } else { &verified };

    // --- 5. Final ranking: corr(#execution, session). ---
    // Both series are taken at 1-minute granularity: root-cause templates
    // are often sparse (a DDL stream fires a few times per minute), and at
    // 1-second granularity their Bernoulli-like execution counts drown the
    // correlation in discretization noise.
    let session_min = downsample(
        &TimeSeries::from_values(case.ts, 1, session.to_vec()),
        60,
        Downsample::Mean,
    )
    .into_values();
    let mut ranked: Vec<(usize, f64)> = par_map(final_set.len(), parallelism, |fi| {
        let i = final_set[fi];
        (i, pearson(&tpl_rows[i], &session_min))
    });
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    RsqlOutcome { ranked, clusters, selected_clusters, candidates, verified }
}

/// Helper (metric) node series at 1-minute granularity.
fn helper_nodes(case: &CaseData) -> Vec<Vec<f64>> {
    case.metrics
        .iter_named()
        .map(|(_, series)| {
            downsample(
                &TimeSeries::from_values(case.ts, 1, series.to_vec()),
                60,
                Downsample::Mean,
            )
            .into_values()
        })
        .collect()
}

/// §VI's two-rule history check for one template, over its 1-minute
/// execution counts `per_min` (the case's minute row for `idx`).
///
/// Rule (i): the execution count has an upward Tukey outlier inside the
/// anomaly window, relative to the rest of the collection window.
/// Rule (ii): no such outlier in the same relative window `N_d` days ago,
/// for every configured `N_d`.
fn verify_history(
    case: &CaseData,
    idx: usize,
    per_min: &[f64],
    window: &AnomalyWindow,
    history: &HistoryStore,
    minutes_origin: i64,
    cfg: &PinSqlConfig,
) -> bool {
    let total_min = per_min.len() as i64;
    let am_lo = ((window.anomaly_start - window.ts()) / 60).clamp(0, total_min);
    let am_hi = ((window.anomaly_end - window.ts() + 59) / 60).clamp(am_lo, total_min);
    let (baseline, anomaly) = split_window(per_min, am_lo as usize, am_hi as usize);
    if !upper_outlier(&baseline, &anomaly, cfg.tukey_k) {
        return false; // rule (i) failed: no abrupt rise now
    }
    let id = case.templates[idx].id;
    for &days in &cfg.history_days {
        let shift = days as i64 * 1440;
        let from = minutes_origin - shift;
        let hist = history.window_filled(id, from, from + total_min);
        let (h_base, h_anom) = split_window(&hist, am_lo as usize, am_hi as usize);
        if upper_outlier(&h_base, &h_anom, cfg.tukey_k) {
            return false; // rule (ii) failed: the same rise existed before
        }
    }
    true
}

/// Splits a minute series into (outside-anomaly, inside-anomaly) parts.
fn split_window(series: &[f64], lo: usize, hi: usize) -> (Vec<f64>, Vec<f64>) {
    let mut baseline = Vec::with_capacity(series.len());
    baseline.extend_from_slice(&series[..lo.min(series.len())]);
    if hi < series.len() {
        baseline.extend_from_slice(&series[hi..]);
    }
    let anomaly = series[lo.min(series.len())..hi.min(series.len())].to_vec();
    (baseline, anomaly)
}

fn upper_outlier(baseline: &[f64], window: &[f64], k: f64) -> bool {
    match tukey_fences(baseline, k) {
        Some(f) => window.iter().any(|&x| f.is_upper_outlier(x)),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorKind;
    use crate::hsql::rank_hsqls;
    use crate::session_estimate::estimate_sessions;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_dbsim::{InstanceMetrics, QueryRecord};
    use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

    /// Two businesses over a 10-minute window (600 s), anomaly [360, 480):
    ///
    /// Business A (R-SQL scenario): spec 0 is the *root cause* — a batch
    /// job whose execution count jumps during the anomaly; spec 1 is the
    /// *victim* H-SQL (steady execution count but exploding response time /
    /// session). Their execution trends correlate (same business): both
    /// follow a shared diurnal-ish base, spec 0 additionally spikes.
    ///
    /// Business B: spec 2, steady unrelated traffic with its own trend.
    fn rsql_case() -> (CaseData, AnomalyWindow) {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("UPDATE sales SET q = 1 WHERE id = 2", c.clone(), "batch"),
            TemplateSpec::new("SELECT * FROM sales WHERE id = 3", c.clone(), "victim"),
            TemplateSpec::new("SELECT * FROM users WHERE id = 4", c, "other"),
        ];
        let n = 600usize;
        let mut log = Vec::new();
        let mut session = vec![0.0; n];
        for t in 0..n as i64 {
            let anomaly = (360..480).contains(&t);
            // Shared business-A base trend: slow sine.
            let base_a = 6.0 + 3.0 * ((t as f64) / 90.0).sin();
            // Root cause: base trend + surge during the anomaly.
            let batch_rate = base_a + if anomaly { 25.0 } else { 0.0 };
            // Victim: follows the business trend only.
            let victim_rate = 2.0 * base_a;
            // Business B: different periodicity.
            let other_rate = 20.0 + 8.0 * ((t as f64) / 37.0).cos();
            let push = |log: &mut Vec<QueryRecord>, spec: usize, rate: f64, rt: f64| {
                let k = rate.round() as usize;
                for j in 0..k {
                    log.push(QueryRecord {
                        spec: SpecId(spec),
                        start_ms: t as f64 * 1000.0 + j as f64 * (990.0 / k.max(1) as f64),
                        response_ms: rt,
                        examined_rows: 3,
                    });
                }
            };
            // Victim response time explodes during the anomaly (blocked).
            let victim_rt = if anomaly { 3000.0 } else { 30.0 };
            push(&mut log, 0, batch_rate, if anomaly { 800.0 } else { 40.0 });
            push(&mut log, 1, victim_rate, victim_rt);
            push(&mut log, 2, other_rate, 25.0);
            // Instance session ≈ sum of (rate × rt) per second.
            session[t as usize] = batch_rate * (if anomaly { 0.8 } else { 0.04 })
                + victim_rate * (victim_rt / 1000.0)
                + other_rate * 0.025;
        }
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: session,
            cpu_usage: vec![0.1; n],
            iops_usage: vec![0.1; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&log, &specs, &metrics, 0, n as i64);
        let window = AnomalyWindow { anomaly_start: 360, anomaly_end: 480, delta_s: 360 };
        (case, window)
    }

    fn idx_of(case: &CaseData, spec: usize) -> usize {
        case.template_index(case.catalog.id_of_spec(SpecId(spec))).unwrap()
    }

    fn run(case: &CaseData, window: &AnomalyWindow, cfg: &PinSqlConfig) -> RsqlOutcome {
        let est = estimate_sessions(case, cfg);
        let hsql = rank_hsqls(case, &est, window, cfg);
        identify_rsqls(case, &est, &hsql, window, &HistoryStore::new(), 1_000_000, cfg)
    }

    fn test_cfg() -> PinSqlConfig {
        PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets)
    }

    #[test]
    fn pinpoints_the_batch_job_as_top_rsql() {
        let (case, window) = rsql_case();
        let out = run(&case, &window, &test_cfg());
        let batch = idx_of(&case, 0);
        assert_eq!(out.ranked.first().map(|&(i, _)| i), Some(batch), "{out:?}");
    }

    #[test]
    fn clusters_separate_the_two_businesses() {
        let (case, window) = rsql_case();
        let out = run(&case, &window, &test_cfg());
        let batch = idx_of(&case, 0);
        let victim = idx_of(&case, 1);
        let other = idx_of(&case, 2);
        let cluster_of = |i: usize| out.clusters.iter().position(|c| c.contains(&i)).unwrap();
        assert_ne!(cluster_of(batch), cluster_of(other), "independent businesses split");
        // The victim belongs with its business or at minimum not with B.
        assert_ne!(cluster_of(victim), cluster_of(other));
    }

    #[test]
    fn history_verification_rejects_recurring_spikes() {
        let (case, window) = rsql_case();
        let cfg = test_cfg();
        let est = estimate_sessions(&case, &cfg);
        let hsql = rank_hsqls(&case, &est, &window, &cfg);
        // Build a history where the batch job had the *same* spike shape
        // 1/3/7 days ago → rule (ii) must reject it.
        let batch = idx_of(&case, 0);
        let id = case.templates[batch].id;
        let origin = 1_000_000i64;
        let mut history = HistoryStore::new();
        let current: Vec<f64> = case.templates[batch].series.per_minute();
        for days in [1i64, 3, 7] {
            let from = origin - days * 1440;
            for (m, &v) in current.iter().enumerate() {
                history.record(id, from + m as i64, v);
            }
        }
        let out = identify_rsqls(&case, &est, &hsql, &window, &history, origin, &cfg);
        assert!(
            !out.verified.contains(&batch),
            "recurring spike must fail verification: {out:?}"
        );
    }

    #[test]
    fn empty_history_treats_template_as_new() {
        // No history at all: rule (ii) passes trivially (the template did
        // not exist before), rule (i) still requires a current rise.
        let (case, window) = rsql_case();
        let out = run(&case, &window, &test_cfg());
        let batch = idx_of(&case, 0);
        assert!(out.verified.contains(&batch));
    }

    #[test]
    fn steady_template_fails_rule_one() {
        let (case, window) = rsql_case();
        let cfg = test_cfg();
        let other = idx_of(&case, 2);
        let per_min = case.templates[other].series.per_minute();
        assert!(!verify_history(
            &case,
            other,
            &per_min,
            &window,
            &HistoryStore::new(),
            1_000_000,
            &cfg
        ));
    }

    #[test]
    fn cumulative_threshold_can_select_multiple_clusters() {
        let (case, window) = rsql_case();
        let mut cfg = test_cfg();
        // An impossible threshold forces the iteration to K_c clusters.
        cfg.tau_c = 1.1;
        cfg.kc = 5;
        let out = run(&case, &window, &cfg);
        assert!(out.selected_clusters >= 2, "{out:?}");
        // Default config stops earlier (the first cluster usually passes).
        let out_default = run(&case, &window, &test_cfg());
        assert!(out_default.selected_clusters <= out.selected_clusters);
    }

    #[test]
    fn ablation_top1_cluster_only() {
        let (case, window) = rsql_case();
        let mut cfg = test_cfg();
        cfg.ablation.no_cumulative_threshold = true;
        let out = run(&case, &window, &cfg);
        assert_eq!(out.selected_clusters, 1);
    }

    #[test]
    fn ablation_skips_history_verification() {
        let (case, window) = rsql_case();
        let mut cfg = test_cfg();
        cfg.ablation.no_history_verification = true;
        let out = run(&case, &window, &cfg);
        assert_eq!(out.verified, out.candidates);
    }

    #[test]
    fn window_beyond_case_does_not_panic_in_rt_ranking() {
        // Regression: the Top-RT ablation sliced `total_rt_ms[a_lo..]` with
        // an unclamped lower bound, panicking when the anomaly window lay
        // outside the aggregated data.
        let (case, _) = rsql_case();
        let mut cfg = test_cfg();
        cfg.ablation.no_direct_cause_ranking = true;
        let beyond = AnomalyWindow { anomaly_start: 5000, anomaly_end: 5100, delta_s: 4000 };
        let out = run(&case, &beyond, &cfg);
        assert!(out.ranked.iter().all(|&(_, s)| s.is_finite()));
    }

    #[test]
    fn empty_case_is_handled() {
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: vec![0.0; 60],
            cpu_usage: vec![0.0; 60],
            iops_usage: vec![0.0; 60],
            row_lock_waits: vec![0.0; 60],
            mdl_waits: vec![0.0; 60],
            qps: vec![0.0; 60],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&[], &[], &metrics, 0, 60);
        let cfg = test_cfg();
        let est = estimate_sessions(&case, &cfg);
        let window = AnomalyWindow { anomaly_start: 30, anomaly_end: 50, delta_s: 30 };
        let hsql = rank_hsqls(&case, &est, &window, &cfg);
        let out = identify_rsqls(&case, &est, &hsql, &window, &HistoryStore::new(), 0, &cfg);
        assert!(out.ranked.is_empty());
        assert!(out.clusters.is_empty());
    }
}
