//! The Repairing Module (§VII): rule-configured actions on R-SQLs.
//!
//! Three actions are provided, mirroring the production system:
//!
//! * **SQL Throttling** — rate-limit (optionally kill) the R-SQL;
//! * **Query Optimization** — hand the R-SQL to the optimizer (modelled as
//!   a cost-profile rewrite: the missing-index scan becomes an indexed
//!   access), gated by default on CPU/IO-related phenomena;
//! * **Instance AutoScale** — grow the instance (cores), for business
//!   growth that must not be throttled.
//!
//! Rules bind an anomaly type + template condition to an action (Fig. 5's
//! configuration); actions are only *executed* when `auto_execute` is on,
//! otherwise they are suggestions.

use crate::pipeline::Diagnosis;
use pinsql_collector::CaseData;
use pinsql_detect::AnomalyWindow;
use pinsql_sqlkit::SqlId;
use pinsql_timeseries::tukey_fences;
use pinsql_workload::{CostProfile, SpecId, Workload};

/// An executable repair action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairAction {
    /// Rate-limit the template to `rate_fraction` of its traffic for
    /// `duration_s`; `kill` also terminates running statements.
    Throttle { rate_fraction: f64, duration_s: i64, kill: bool },
    /// Report the template to the query optimizer.
    OptimizeQuery,
    /// Upgrade the instance by the given core factor.
    AutoScale { cores_factor: f64 },
}

/// Template-level condition gating a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateCondition {
    /// Always applies.
    Any,
    /// The template's examined-rows series has an upward Tukey outlier
    /// inside the anomaly window (Fig. 5's example: optimize R-SQLs whose
    /// `#examined_rows` suddenly increases).
    ExaminedRowsSpike,
    /// The template's execution count has an upward Tukey outlier inside
    /// the anomaly window.
    ExecutionSpike,
}

/// One configuration rule.
#[derive(Debug, Clone)]
pub struct RepairRule {
    /// Anomaly type this rule reacts to (`"*"` matches all).
    pub anomaly_type: String,
    pub condition: TemplateCondition,
    pub action: RepairAction,
    /// Execute automatically (vs. suggest only).
    pub auto_execute: bool,
}

/// The rule table.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    pub rules: Vec<RepairRule>,
    /// How many top R-SQLs each rule considers.
    pub top_k: usize,
    /// Tukey multiplier for the spike conditions.
    pub tukey_k: f64,
    /// Absolute floor for `ExaminedRowsSpike`: the anomaly-window mean
    /// examined rows *per execution* must exceed this for the statement to
    /// be worth optimizing (the paper's category 2 is about "the large
    /// number of examined rows" — a point write touching 3 rows is not an
    /// optimizer target no matter how new it is).
    pub min_examined_rows: f64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        // Paper default: throttle first, then query optimization; query
        // optimization executes only for CPU/IO-related phenomena.
        Self {
            rules: vec![
                RepairRule {
                    anomaly_type: "active_session_anomaly".into(),
                    condition: TemplateCondition::ExecutionSpike,
                    action: RepairAction::Throttle {
                        rate_fraction: 0.1,
                        duration_s: 600,
                        kill: false,
                    },
                    auto_execute: false,
                },
                RepairRule {
                    anomaly_type: "cpu_usage_anomaly".into(),
                    condition: TemplateCondition::ExaminedRowsSpike,
                    action: RepairAction::OptimizeQuery,
                    auto_execute: false,
                },
                RepairRule {
                    anomaly_type: "iops_usage_anomaly".into(),
                    condition: TemplateCondition::ExaminedRowsSpike,
                    action: RepairAction::OptimizeQuery,
                    auto_execute: false,
                },
            ],
            top_k: 1,
            tukey_k: 1.5,
            min_examined_rows: 1000.0,
        }
    }
}

/// A suggested (possibly auto-executed) action on a template.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedAction {
    pub template: SqlId,
    pub label: String,
    pub action: RepairAction,
    pub auto_execute: bool,
}

/// Applies the rule table to a diagnosis, producing actions on the top
/// R-SQLs.
pub fn suggest_actions(
    diagnosis: &Diagnosis,
    case: &CaseData,
    window: &AnomalyWindow,
    anomaly_type: &str,
    cfg: &RepairConfig,
) -> Vec<SuggestedAction> {
    let mut out = Vec::new();
    for rule in &cfg.rules {
        if rule.anomaly_type != "*" && rule.anomaly_type != anomaly_type {
            continue;
        }
        for r in diagnosis.rsqls.iter().take(cfg.top_k) {
            if !condition_holds(case, r.index, window, rule.condition, cfg) {
                continue;
            }
            out.push(SuggestedAction {
                template: r.id,
                label: r.label.clone(),
                action: rule.action,
                auto_execute: rule.auto_execute,
            });
        }
    }
    out
}

fn condition_holds(
    case: &CaseData,
    idx: usize,
    window: &AnomalyWindow,
    cond: TemplateCondition,
    cfg: &RepairConfig,
) -> bool {
    let tpl = &case.templates[idx].series;
    // Per-second series under test. ExaminedRowsSpike operates on the mean
    // rows *per execution* (a statement metric), not the aggregate sum —
    // otherwise every freshly appearing template would "spike".
    let series: Vec<f64> = match cond {
        TemplateCondition::Any => return true,
        TemplateCondition::ExaminedRowsSpike => tpl
            .examined_rows
            .iter()
            .zip(&tpl.execution_count)
            .map(|(&rows, &n)| if n > 0.0 { rows / n } else { 0.0 })
            .collect(),
        TemplateCondition::ExecutionSpike => tpl.execution_count.clone(),
    };
    let lo = ((window.anomaly_start - window.ts()).max(0) as usize).min(series.len());
    let hi = ((window.anomaly_end - window.ts()).max(0) as usize).min(series.len());
    let floor = match cond {
        TemplateCondition::ExaminedRowsSpike => cfg.min_examined_rows,
        _ => 0.0,
    };
    let mut baseline: Vec<f64> = series[..lo].to_vec();
    baseline.extend_from_slice(&series[hi..]);
    match tukey_fences(&baseline, cfg.tukey_k) {
        Some(f) => series[lo..hi].iter().any(|&x| f.is_upper_outlier(x) && x >= floor),
        None => false,
    }
}

// ---------------------------------------------------------------------
// Action appliers: turn an accepted action into a modified workload or
// instance configuration for the *next* simulation window. The eval crate
// uses these to replay the Fig. 8 storyline and measure Table II gains.
// ---------------------------------------------------------------------

/// Rate-limits a spec: every DAG call of the spec fires with probability
/// scaled by `fraction` (dropped requests model throttled/killed queries).
pub fn throttle_spec(workload: &Workload, spec: SpecId, fraction: f64) -> Workload {
    let mut w = workload.clone();
    for api in &mut w.dag.apis {
        for call in &mut api.queries {
            if call.target == spec {
                call.prob = (call.prob * fraction).clamp(0.0, 1.0);
            }
        }
    }
    w
}

/// The optimizer model: rewrites a poorly-written statement's cost profile
/// into an indexed access. Examined rows collapse to an index probe;
/// CPU/IO shrink proportionally. Lock footprints are preserved (indexes
/// don't change locking semantics).
pub fn optimize_cost(profile: &CostProfile) -> CostProfile {
    let mut p = profile.clone();
    // An index probe examines a few dozen rows instead of the scan.
    let target_rows = p.examined_rows.min(40.0);
    let shrink = if p.examined_rows > 0.0 { target_rows / p.examined_rows } else { 1.0 };
    p.examined_rows = target_rows;
    // CPU/IO have a fixed per-statement floor plus a scan-proportional part.
    p.cpu_ms = 0.15 + (p.cpu_ms - 0.15).max(0.0) * shrink;
    p.io_ms = 0.1 + (p.io_ms - 0.1).max(0.0) * shrink;
    p
}

/// Applies [`optimize_cost`] to one spec of a workload.
pub fn optimize_spec(workload: &Workload, spec: SpecId) -> Workload {
    let mut w = workload.clone();
    w.specs[spec.0].cost = optimize_cost(&w.specs[spec.0].cost);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RankedTemplate;
    use crate::StageTimings;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_dbsim::{InstanceMetrics, QueryRecord};
    use pinsql_workload::dag::{Api, Call};
    use pinsql_workload::{ApiDag, TableDef, TableId, TemplateSpec, TrafficPattern};

    fn mini_case() -> (CaseData, AnomalyWindow) {
        let spec = TemplateSpec::new(
            "SELECT * FROM big WHERE note LIKE 'x'",
            CostProfile::poor_scan(TableId(0), 10_000.0),
            "scanner",
        );
        let n = 120usize;
        let mut log = Vec::new();
        // A freshly deployed scanner: absent before the anomaly, then ten
        // 10k-row executions per second — the Fig. 5 configuration's
        // "#examined_rows sudden increase" per statement.
        for t in 0..n as i64 {
            let k = if (60..90).contains(&t) { 10 } else { 0 };
            for j in 0..k {
                log.push(QueryRecord {
                    spec: SpecId(0),
                    start_ms: t as f64 * 1000.0 + j as f64 * 90.0,
                    response_ms: 100.0,
                    examined_rows: 10_000,
                });
            }
        }
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: vec![1.0; n],
            cpu_usage: vec![0.5; n],
            iops_usage: vec![0.1; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&log, &[spec], &metrics, 0, n as i64);
        let window = AnomalyWindow { anomaly_start: 60, anomaly_end: 90, delta_s: 60 };
        (case, window)
    }

    fn diag_for(case: &CaseData) -> Diagnosis {
        let tpl = &case.templates[0];
        let entry = RankedTemplate {
            index: 0,
            id: tpl.id,
            label: "scanner".into(),
            score: 0.9,
        };
        Diagnosis {
            hsqls: vec![entry.clone()],
            rsqls: vec![entry.clone()],
            reported_rsqls: vec![entry],
            n_verified: 1,
            n_clusters: 1,
            selected_clusters: 1,
            timings: StageTimings::default(),
        }
    }

    #[test]
    fn cpu_anomaly_with_row_spike_suggests_optimization() {
        let (case, window) = mini_case();
        let d = diag_for(&case);
        let actions =
            suggest_actions(&d, &case, &window, "cpu_usage_anomaly", &RepairConfig::default());
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].action, RepairAction::OptimizeQuery);
        assert!(!actions[0].auto_execute);
    }

    #[test]
    fn session_anomaly_with_execution_spike_suggests_throttle() {
        let (case, window) = mini_case();
        let d = diag_for(&case);
        let actions = suggest_actions(
            &d,
            &case,
            &window,
            "active_session_anomaly",
            &RepairConfig::default(),
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0].action, RepairAction::Throttle { .. }));
    }

    #[test]
    fn unrelated_anomaly_type_produces_nothing() {
        let (case, window) = mini_case();
        let d = diag_for(&case);
        let actions =
            suggest_actions(&d, &case, &window, "memory_anomaly", &RepairConfig::default());
        assert!(actions.is_empty());
    }

    #[test]
    fn wildcard_rule_matches_everything() {
        let (case, window) = mini_case();
        let d = diag_for(&case);
        let cfg = RepairConfig {
            rules: vec![RepairRule {
                anomaly_type: "*".into(),
                condition: TemplateCondition::Any,
                action: RepairAction::AutoScale { cores_factor: 2.0 },
                auto_execute: true,
            }],
            top_k: 1,
            tukey_k: 1.5,
            min_examined_rows: 1000.0,
        };
        let actions = suggest_actions(&d, &case, &window, "whatever", &cfg);
        assert_eq!(actions.len(), 1);
        assert!(actions[0].auto_execute);
    }

    #[test]
    fn optimize_cost_collapses_scans() {
        let p = CostProfile::poor_scan(TableId(0), 100_000.0);
        let o = optimize_cost(&p);
        assert!(o.examined_rows <= 40.0);
        assert!(o.cpu_ms < p.cpu_ms * 0.02, "cpu {} -> {}", p.cpu_ms, o.cpu_ms);
        assert!(o.io_ms < p.io_ms);
        assert_eq!(o.lock, p.lock);
        // A cheap statement barely changes.
        let cheap = CostProfile::point_read(TableId(0));
        let oc = optimize_cost(&cheap);
        assert!((oc.cpu_ms - cheap.cpu_ms).abs() < 0.2);
    }

    #[test]
    fn throttle_spec_scales_dag_probabilities() {
        let spec = TemplateSpec::new(
            "SELECT 1 FROM t WHERE a = 1",
            CostProfile::point_read(TableId(0)),
            "x",
        );
        let mut dag = ApiDag::default();
        let api = dag.push(Api::named("a").query(Call::times(SpecId(0), 4)));
        let w = Workload {
            tables: vec![TableDef::new("t", 100, 4)],
            specs: vec![spec],
            dag,
            roots: vec![(api, TrafficPattern::steady(5.0))],
        };
        let throttled = throttle_spec(&w, SpecId(0), 0.1);
        assert!((throttled.dag.apis[0].queries[0].prob - 0.1).abs() < 1e-12);
        // Original untouched.
        assert_eq!(w.dag.apis[0].queries[0].prob, 1.0);
        let rates = throttled.expected_spec_rates(0);
        assert!((rates[0] - 5.0 * 4.0 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn optimize_spec_replaces_profile() {
        let spec = TemplateSpec::new(
            "SELECT * FROM big WHERE x LIKE 'y'",
            CostProfile::poor_scan(TableId(0), 50_000.0),
            "x",
        );
        let w = Workload {
            tables: vec![TableDef::new("big", 100, 4)],
            specs: vec![spec],
            dag: ApiDag::default(),
            roots: vec![],
        };
        let o = optimize_spec(&w, SpecId(0));
        assert!(o.specs[0].cost.examined_rows <= 40.0);
        assert!(w.specs[0].cost.examined_rows > 1000.0);
    }
}
