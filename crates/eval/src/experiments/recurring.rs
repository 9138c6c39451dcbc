//! Extension experiment: recurring-workload decoys and the value of
//! History Trend Verification.
//!
//! §VI's rule (ii) exists because production workloads contain *recurring*
//! surges (nightly batch jobs, scheduled reports) that look exactly like a
//! root cause during any window that happens to contain them — except they
//! also ran yesterday, three days ago, and a week ago. This experiment
//! plants such a decoy in every case: a batch-like template that surges
//! inside the anomaly window *and has the same surge in its 1/3/7-day
//! history*. Full PinSQL must reject the decoy via rule (ii); the
//! `w/o History Trend Verification` ablation cannot.
//!
//! Reported: R-SQL quality with and without history verification, plus the
//! decoy-top-1 rate (how often the diagnoser's top pick is the decoy).

use crate::caseset::{case_kind, case_scenario, label_online, CaseSetConfig};
use crate::methods::split_parallelism;
use crate::metrics::{first_hit_rank, RankSummary};
use pinsql::{Ablation, PinSql, PinSqlConfig};
use pinsql_timeseries::par_map;
use pinsql_scenario::Scenario;
use pinsql_sqlkit::SqlId;
use pinsql_workload::dag::{Api, Call};
use pinsql_workload::{CostProfile, EventShape, RateEvent, SpecId, TemplateSpec, TrafficPattern};

/// Scores for one configuration.
#[derive(Debug, Clone)]
pub struct Arm {
    pub name: String,
    pub rsql: RankSummary,
    /// Fraction of cases whose top-1 R-SQL is the planted decoy.
    pub decoy_top1_rate: f64,
}

/// The experiment's output.
#[derive(Debug, Clone)]
pub struct Recurring {
    pub with_history: Arm,
    pub without_history: Arm,
    pub n_cases: usize,
}

/// Adds the recurring decoy to an injected scenario: a report job that
/// surges in exactly the anomaly window, targeting its own table.
fn plant_decoy(scenario: &mut Scenario) -> SpecId {
    let cfg = &scenario.cfg;
    let w = &mut scenario.workload;
    let uniq = w.specs.len();
    // The decoy touches the *first* table so it stays within an existing
    // business's lock domain without blocking anything (plain reads).
    let table = pinsql_workload::TableId(0);
    let spec = SpecId(w.specs.len());
    w.specs.push(TemplateSpec::new(
        &format!("SELECT col_{uniq}, COUNT(col_z) FROM tbl_b0 WHERE day_{uniq} = 1"),
        CostProfile::range_read(table, 2_500.0),
        format!("decoy.nightly_report_{uniq}"),
    ));
    let api = w.dag.push(Api::named("decoy_report").query(Call::times(spec, 2)));
    w.roots.push((
        api,
        TrafficPattern::steady(1e-4).with_noise(0.0).with_event(RateEvent {
            start: cfg.anomaly_start,
            end: cfg.anomaly_end,
            multiplier: 6.0 / 1e-4,
            shape: EventShape::Step,
        }),
    ));
    // The decoy also recurs in history: replay it through the clean
    // workload used for history synthesis.
    let bw = &mut scenario.base_workload;
    let b_uniq = bw.specs.len();
    debug_assert!(b_uniq <= uniq);
    bw.specs.push(w.specs[spec.0].clone());
    let b_spec = SpecId(bw.specs.len() - 1);
    let b_api = bw.dag.push(Api::named("decoy_report").query(Call::times(b_spec, 2)));
    bw.roots.push((
        b_api,
        TrafficPattern::steady(1e-4).with_noise(0.0).with_event(RateEvent {
            start: cfg.anomaly_start,
            end: cfg.anomaly_end,
            multiplier: 6.0 / 1e-4,
            shape: EventShape::Step,
        }),
    ));
    spec
}

/// Runs the experiment over `n_cases` cases (all cores).
pub fn run(cfg: &CaseSetConfig, n_cases: usize) -> Recurring {
    run_par(cfg, n_cases, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Scores are identical for every value; cases fan out and each
/// diagnosis runs serially.
pub fn run_par(cfg: &CaseSetConfig, n_cases: usize, parallelism: usize) -> Recurring {
    struct CaseOutcome {
        r_rank_with: Option<usize>,
        r_rank_without: Option<usize>,
        decoy_top1_with: bool,
        decoy_top1_without: bool,
        time_with: f64,
    }
    let (workers, inner) = split_parallelism(parallelism);
    let outcomes = par_map(n_cases, workers, |i| {
        let mut scenario = case_scenario(cfg, i, &[case_kind(i)]);
        let decoy_spec = plant_decoy(&mut scenario);
        // Labelling synthesizes history from the clean workload; the
        // decoy's surge recurs there because plant_decoy added it to the
        // clean workload *with its rate event*, so each look-back day
        // replays the surge.
        let case = label_online(&scenario, cfg.delta_s, None);
        let decoy_id: SqlId = case.case.catalog.id_of_spec(decoy_spec);

        let run_arm = |ablation: Ablation| {
            let pinsql = PinSql::new(
                PinSqlConfig::default().with_ablation(ablation).with_parallelism(inner),
            );
            let t0 = std::time::Instant::now();
            let d =
                pinsql.diagnose(&case.case, &case.window, &case.history, case.minutes_origin);
            let ids: Vec<SqlId> = d.rsqls.iter().map(|r| r.id).collect();
            (
                first_hit_rank(&ids, &case.truth.rsqls),
                ids.first() == Some(&decoy_id),
                t0.elapsed().as_secs_f64(),
            )
        };
        let (r_with, decoy_with, t_with) = run_arm(Ablation::default());
        let (r_without, decoy_without, _) =
            run_arm(Ablation { no_history_verification: true, ..Default::default() });
        CaseOutcome {
            r_rank_with: r_with,
            r_rank_without: r_without,
            decoy_top1_with: decoy_with,
            decoy_top1_without: decoy_without,
            time_with: t_with,
        }
    });

    let arm = |name: &str, ranks: Vec<Option<usize>>, decoys: usize, times: &[f64]| Arm {
        name: name.to_string(),
        rsql: RankSummary::from_ranks(&ranks, times),
        decoy_top1_rate: decoys as f64 / n_cases.max(1) as f64,
    };
    let times: Vec<f64> = outcomes.iter().map(|o| o.time_with).collect();
    Recurring {
        with_history: arm(
            "PinSQL (full)",
            outcomes.iter().map(|o| o.r_rank_with).collect(),
            outcomes.iter().filter(|o| o.decoy_top1_with).count(),
            &times,
        ),
        without_history: arm(
            "w/o History Trend Verification",
            outcomes.iter().map(|o| o.r_rank_without).collect(),
            outcomes.iter().filter(|o| o.decoy_top1_without).count(),
            &[],
        ),
        n_cases,
    }
}

impl std::fmt::Display for Recurring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Recurring-decoy extension — {} cases with a history-recurring surge planted",
            self.n_cases
        )?;
        writeln!(
            f,
            "{:<34} {:>6} {:>6} {:>6} {:>12}",
            "Arm", "R-H@1", "R-H@5", "R-MRR", "decoy top-1"
        )?;
        writeln!(f, "{}", "-".repeat(70))?;
        for a in [&self.with_history, &self.without_history] {
            writeln!(
                f,
                "{:<34} {:>6.1} {:>6.1} {:>6.2} {:>11.1}%",
                a.name,
                a.rsql.hits_at_1 * 100.0,
                a.rsql.hits_at_5 * 100.0,
                a.rsql.mrr,
                a.decoy_top1_rate * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten 8-case sets, asserted on the sweep (EXPERIMENTS.md,
    /// "Seed-lucky tests"): the decoy tops the ablated arm in about one
    /// case in five, so a single 8-case set sees none 15 % of the time.
    #[test]
    fn history_verification_rejects_recurring_decoys() {
        let sets: Vec<Recurring> =
            (0..10).map(|k| run(&CaseSetConfig::default().with_seed(2600 + 8 * k), 8)).collect();
        let shown = sets.iter().map(|r| r.to_string()).collect::<String>();
        // The decoy must actually be a threat: over the sweep it tops the
        // ablated system more often than the full one.
        let fooled = |arm: &Arm| arm.decoy_top1_rate * 8.0;
        let full: f64 = sets.iter().map(|r| fooled(&r.with_history)).sum();
        let ablated: f64 = sets.iter().map(|r| fooled(&r.without_history)).sum();
        assert!(
            ablated > full,
            "decoy topped {ablated} ablated vs {full} full cases of 80:\n{shown}"
        );
        // And the full system must do better overall, and reject the decoy.
        let better = sets
            .iter()
            .filter(|r| r.with_history.rsql.hits_at_1 >= r.without_history.rsql.hits_at_1)
            .count();
        assert!(better >= 8, "full system at least as good on {better} of 10 sets:\n{shown}");
        assert!(sets.iter().all(|r| r.with_history.decoy_top1_rate <= 0.25), "{shown}");
    }
}
