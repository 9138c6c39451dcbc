//! Table I — overall R-SQL and H-SQL identification quality.
//!
//! For each case, every method produces an R-SQL ranking and an H-SQL
//! ranking, scored against the labelled sets with Hits@1/Hits@5/MRR plus
//! mean per-case running time. `Top-All` is the per-case best of the three
//! single-metric baselines, as in the paper.

use crate::caseset::CaseSetConfig;
use crate::methods::{rank_with, split_parallelism, Method, Rankings};
use crate::metrics::{first_hit_rank, RankSummary};
use pinsql::{PinSqlConfig, StageTimings};
use pinsql_baselines::TopMetric;
use pinsql_scenario::LabeledCase;
use pinsql_timeseries::par_map;

/// One method's row (R-SQL and H-SQL summaries).
#[derive(Debug, Clone)]
pub struct Row {
    pub method: String,
    pub rsql: RankSummary,
    pub hsql: RankSummary,
    /// Mean per-stage timing decomposition (PinSQL rows only).
    pub stage: Option<StageTimings>,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct Table1 {
    pub rows: Vec<Row>,
    pub n_cases: usize,
    /// Resolved per-case fan-out the table was produced with.
    pub parallelism: usize,
}

/// Scores one method over the cases, fanning out per case (`workers` ≥ 1;
/// cases are independent, merged by index, so the quality rows are
/// identical for every worker count — only wall clock changes).
fn score(method: &Method, cases: &[LabeledCase], workers: usize) -> Row {
    let per_case = par_map(cases.len(), workers, |i| {
        let case = &cases[i];
        let out = rank_with(method, case);
        (
            first_hit_rank(&out.rsqls, &case.truth.rsqls),
            first_hit_rank(&out.hsqls, &case.truth.hsqls),
            out.time_s,
            out.stage,
        )
    });
    let r_ranks: Vec<_> = per_case.iter().map(|c| c.0).collect();
    let h_ranks: Vec<_> = per_case.iter().map(|c| c.1).collect();
    let times: Vec<_> = per_case.iter().map(|c| c.2).collect();
    let stages: Vec<StageTimings> = per_case.iter().filter_map(|c| c.3).collect();
    Row {
        method: method.label(),
        rsql: RankSummary::from_ranks(&r_ranks, &times),
        hsql: RankSummary::from_ranks(&h_ranks, &times),
        stage: if stages.is_empty() { None } else { Some(StageTimings::mean_of(&stages)) },
    }
}

/// Scores Top-All: per case, the best rank any single-metric baseline
/// achieves (the DBA pages through all three sorted views).
fn score_top_all(cases: &[LabeledCase], workers: usize) -> Row {
    let per_case = par_map(cases.len(), workers, |i| {
        let case = &cases[i];
        let outs: Vec<Rankings> =
            TopMetric::ALL.iter().map(|m| rank_with(&Method::Top(*m), case)).collect();
        let best = |f: &dyn Fn(&Rankings) -> Option<usize>| -> Option<usize> {
            outs.iter().filter_map(f).min()
        };
        (
            best(&|o: &Rankings| first_hit_rank(&o.rsqls, &case.truth.rsqls)),
            best(&|o: &Rankings| first_hit_rank(&o.hsqls, &case.truth.hsqls)),
        )
    });
    let r_ranks: Vec<_> = per_case.iter().map(|c| c.0).collect();
    let h_ranks: Vec<_> = per_case.iter().map(|c| c.1).collect();
    Row {
        method: "Top-All".to_string(),
        rsql: RankSummary::from_ranks(&r_ranks, &[]),
        hsql: RankSummary::from_ranks(&h_ranks, &[]),
        stage: None,
    }
}

/// Runs the Table I experiment over a freshly generated case set, using
/// all available cores for the per-case fan-out.
pub fn run(cfg: &CaseSetConfig) -> Table1 {
    run_par(cfg, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Quality rows are identical for every value.
pub fn run_par(cfg: &CaseSetConfig, parallelism: usize) -> Table1 {
    let (workers, _) = split_parallelism(parallelism);
    let cases = crate::caseset::build_cases_par(cfg, workers);
    run_on_par(&cases, parallelism)
}

/// Runs on pre-built cases with an explicit parallelism knob (`0` = all cores).
pub fn run_on_par(cases: &[LabeledCase], parallelism: usize) -> Table1 {
    let (workers, inner) = split_parallelism(parallelism);
    let mut rows = Vec::new();
    for metric in TopMetric::ALL {
        rows.push(score(&Method::Top(metric), cases, workers));
    }
    rows.push(score_top_all(cases, workers));
    rows.push(score(
        &Method::PinSql(PinSqlConfig::default().with_parallelism(inner)),
        cases,
        workers,
    ));
    Table1 { rows, n_cases: cases.len(), parallelism: workers }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table I — overall results over {} cases (H@k in %)", self.n_cases)?;
        writeln!(
            f,
            "{:<10} | {:>6} {:>6} {:>6} {:>10} | {:>6} {:>6} {:>6} {:>10}",
            "Method", "R-H@1", "R-H@5", "R-MRR", "R-Time", "H-H@1", "H-H@5", "H-MRR", "H-Time"
        )?;
        writeln!(f, "{}", "-".repeat(88))?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} | {:>6.1} {:>6.1} {:>6.2} {:>9.3}s | {:>6.1} {:>6.1} {:>6.2} {:>9.3}s",
                r.method,
                r.rsql.hits_at_1 * 100.0,
                r.rsql.hits_at_5 * 100.0,
                r.rsql.mrr,
                r.rsql.mean_time_s,
                r.hsql.hits_at_1 * 100.0,
                r.hsql.hits_at_5 * 100.0,
                r.hsql.mrr,
                r.hsql.mean_time_s,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table1_shape_holds() {
        // 8 cases (two full rounds of the four kinds) is enough to check
        // the qualitative ordering without multi-minute test times.
        let cfg = CaseSetConfig::default().with_cases(8).with_seed(500);
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 5);
        let pin = t.rows.iter().find(|r| r.method == "PinSQL").unwrap();
        let top_all = t.rows.iter().find(|r| r.method == "Top-All").unwrap();
        // The headline claim: PinSQL at least matches the best baseline on
        // R-SQLs even on this 8-case smoke sample (the full 168-case run in
        // EXPERIMENTS.md shows the ~20-point margin; with 8 cases ties can
        // occur).
        assert!(
            pin.rsql.hits_at_1 >= top_all.rsql.hits_at_1,
            "PinSQL {} vs Top-All {}",
            pin.rsql.hits_at_1,
            top_all.rsql.hits_at_1
        );
        assert!(pin.rsql.hits_at_1 >= 0.5, "PinSQL R-H@1 too low: {}", pin.rsql.hits_at_1);
        assert!(pin.hsql.hits_at_1 >= top_all.hsql.hits_at_1);
        let display = t.to_string();
        assert!(display.contains("PinSQL"));
        assert!(display.contains("Top-RT"));
    }
}
