//! Table II — long-term gains of query optimization: R-SQLs vs slow SQLs.
//!
//! Two selection policies feed the optimizer:
//!
//! * **R-SQLs** — PinSQL's top root cause, when the repairing rules
//!   suggest `OptimizeQuery` for the case (CPU/IO phenomena with an
//!   examined-rows spike);
//! * **Slow SQLs** — the classical slow-query detector: the template with
//!   the highest mean response time (with enough executions to matter).
//!
//! Each selected template's cost profile is optimized and the scenario is
//! re-simulated with the same seed; the gain is the drop in the template's
//! mean per-execution response time and examined rows. The shape to
//! reproduce: optimizing R-SQLs gains ~10 points more than optimizing slow
//! SQLs, because slow SQLs are often *victims* slowed by other statements,
//! with little intrinsic room for optimization.

use crate::caseset::{
    case_kind, case_scenario, cut_telemetry, label_simulated, CaseSetConfig,
};
use pinsql_dbsim::{run_open_loop, SimOutput};
use pinsql::repair::{optimize_spec, suggest_actions, RepairAction, RepairConfig};
use pinsql::{PinSql, PinSqlConfig};
use pinsql_scenario::{LabeledCase, Scenario};
use pinsql_sqlkit::SqlId;
use pinsql_workload::SpecId;

/// Per-group aggregate.
#[derive(Debug, Clone)]
pub struct GroupGains {
    pub group: String,
    pub n_optimized: usize,
    /// Mean percentage drop of per-execution response time.
    pub tres_gain_pct: f64,
    /// Mean percentage drop of per-execution examined rows.
    pub examined_rows_gain_pct: f64,
}

/// The optimization-gain study.
#[derive(Debug, Clone)]
pub struct Table2 {
    pub rsql: GroupGains,
    pub slow: GroupGains,
}

/// Mean per-execution (tres, examined rows) of a template during the
/// anomaly window of a labelled case built from `scenario`.
fn template_means(case: &LabeledCase, id: SqlId) -> Option<(f64, f64)> {
    let idx = case.case.template_index(id)?;
    let t = &case.case.templates[idx];
    let lo = (case.window.anomaly_start - case.window.ts()).max(0) as usize;
    let hi =
        ((case.window.anomaly_end - case.window.ts()).max(0) as usize).min(case.case.n_seconds());
    let execs: f64 = t.series.execution_count[lo..hi].iter().sum();
    if execs < 1.0 {
        return None;
    }
    let rt: f64 = t.series.total_rt_ms[lo..hi].iter().sum();
    let rows: f64 = t.series.examined_rows[lo..hi].iter().sum();
    Some((rt / execs, rows / execs))
}

/// Re-simulates a scenario with one spec optimized; returns the template's
/// after-optimization means over the same window. An optimization that
/// leaves the cost profile as it was reads the scenario's own simulation,
/// `simulated`.
fn means_after_optimizing(
    scenario: &Scenario,
    simulated: &SimOutput,
    case: &LabeledCase,
    spec: SpecId,
    id: SqlId,
) -> Option<(f64, f64)> {
    let optimized = optimize_spec(&scenario.workload, spec);
    let out = if optimized.specs[spec.0].cost == scenario.workload.specs[spec.0].cost {
        simulated.clone()
    } else {
        run_open_loop(&optimized, &scenario.sim, 0, scenario.cfg.window_s)
    };
    let new_case =
        cut_telemetry(&optimized.specs, out.log, &out.metrics, case.window.ts(), case.window.te());
    let idx = new_case.template_index(id)?;
    let t = &new_case.templates[idx];
    let lo = (case.window.anomaly_start - case.window.ts()).max(0) as usize;
    let hi =
        ((case.window.anomaly_end - case.window.ts()).max(0) as usize).min(new_case.n_seconds());
    let execs: f64 = t.series.execution_count[lo..hi].iter().sum();
    if execs < 1.0 {
        return None;
    }
    let rt: f64 = t.series.total_rt_ms[lo..hi].iter().sum();
    let rows: f64 = t.series.examined_rows[lo..hi].iter().sum();
    Some((rt / execs, rows / execs))
}

/// The slow-SQL detector: highest mean response time among templates with
/// at least `min_exec` executions in the anomaly window.
fn slowest_template(case: &LabeledCase, min_exec: f64) -> Option<SqlId> {
    let lo = (case.window.anomaly_start - case.window.ts()).max(0) as usize;
    let hi =
        ((case.window.anomaly_end - case.window.ts()).max(0) as usize).min(case.case.n_seconds());
    case.case
        .templates
        .iter()
        .filter_map(|t| {
            let execs: f64 = t.series.execution_count[lo..hi].iter().sum();
            if execs < min_exec {
                return None;
            }
            let rt: f64 = t.series.total_rt_ms[lo..hi].iter().sum();
            Some((t.id, rt / execs))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(id, _)| id)
}

/// Runs the study over `n_cases` cases (kinds rotate as usual).
pub fn run(cfg: &CaseSetConfig, n_cases: usize) -> Table2 {
    let mut rsql_gains: Vec<(f64, f64)> = Vec::new();
    let mut slow_gains: Vec<(f64, f64)> = Vec::new();
    let pinsql = PinSql::new(PinSqlConfig::default());
    let repair_cfg = RepairConfig::default();

    for i in 0..n_cases {
        let scenario = case_scenario(cfg, i, &[case_kind(i)]);
        let simulated = run_open_loop(&scenario.workload, &scenario.sim, 0, scenario.cfg.window_s);
        let case = label_simulated(&scenario, simulated.clone(), cfg.delta_s, None);
        // When both policies pick one template, one re-simulation serves
        // both.
        let mut after: Vec<(SqlId, Option<(f64, f64)>)> = Vec::new();
        let mut gain_of = |id: SqlId| -> Option<(f64, f64)> {
            let spec = case.case.catalog.get(id)?.specs[0];
            let before = template_means(&case, id)?;
            let known = after.iter().find(|(seen, _)| *seen == id).map(|&(_, means)| means);
            let means = known.unwrap_or_else(|| {
                let means = means_after_optimizing(&scenario, &simulated, &case, spec, id);
                after.push((id, means));
                means
            });
            Some(gain(before, means?))
        };

        // R-SQL path: only when the rules actually suggest optimization.
        let d = pinsql.diagnose(&case.case, &case.window, &case.history, case.minutes_origin);
        let suggestions =
            suggest_actions(&d, &case.case, &case.window, &case.anomaly_type, &repair_cfg);
        if let Some(s) = suggestions
            .iter()
            .find(|s| matches!(s.action, RepairAction::OptimizeQuery))
        {
            rsql_gains.extend(gain_of(s.template));
        }

        // Slow-SQL path: independent of PinSQL.
        if let Some(slow_id) = slowest_template(&case, 30.0) {
            slow_gains.extend(gain_of(slow_id));
        }
    }

    Table2 { rsql: aggregate("R-SQLs", &rsql_gains), slow: aggregate("Slow SQLs", &slow_gains) }
}

fn gain(before: (f64, f64), after: (f64, f64)) -> (f64, f64) {
    let pct = |b: f64, a: f64| if b > 0.0 { (b - a) / b * 100.0 } else { 0.0 };
    (pct(before.0, after.0), pct(before.1, after.1))
}

fn aggregate(group: &str, gains: &[(f64, f64)]) -> GroupGains {
    let n = gains.len();
    let (t, r) = gains
        .iter()
        .fold((0.0, 0.0), |(at, ar), &(gt, gr)| (at + gt, ar + gr));
    GroupGains {
        group: group.to_string(),
        n_optimized: n,
        tres_gain_pct: if n > 0 { t / n as f64 } else { 0.0 },
        examined_rows_gain_pct: if n > 0 { r / n as f64 } else { 0.0 },
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table II — averaged gains of query optimization")?;
        writeln!(
            f,
            "{:<12} {:>14} {:>12} {:>20}",
            "Group", "#Optimized", "tres Gain", "#examined_rows Gain"
        )?;
        writeln!(f, "{}", "-".repeat(62))?;
        for g in [&self.rsql, &self.slow] {
            writeln!(
                f,
                "{:<12} {:>14} {:>11.2}% {:>19.2}%",
                g.group, g.n_optimized, g.tres_gain_pct, g.examined_rows_gain_pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsql_optimization_gains_more_than_slow_sql() {
        let cfg = CaseSetConfig::default().with_seed(4242);
        let t = run(&cfg, 8);
        assert!(t.rsql.n_optimized >= 1, "{t}");
        assert!(t.slow.n_optimized >= 2, "{t}");
        assert!(t.rsql.tres_gain_pct > 50.0, "{t}");
        assert!(
            t.rsql.tres_gain_pct > t.slow.tres_gain_pct,
            "R-SQL gains must exceed slow-SQL gains: {t}"
        );
        assert!(t.rsql.examined_rows_gain_pct > t.slow.examined_rows_gain_pct, "{t}");
    }
}
