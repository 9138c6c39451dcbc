//! Fig. 6 — ablation study on identifying R-SQLs and H-SQLs.
//!
//! Each variant disables exactly one component of PinSQL; all variants run
//! on the same case set so the deltas are paired.

use crate::caseset::{build_cases_par, CaseSetConfig};
use crate::methods::{rank_with, split_parallelism, Method};
use crate::metrics::{first_hit_rank, RankSummary};
use pinsql::{Ablation, PinSqlConfig};
use pinsql_scenario::LabeledCase;
use pinsql_timeseries::par_map;

/// One ablation variant's scores.
#[derive(Debug, Clone)]
pub struct Variant {
    pub name: String,
    pub rsql: RankSummary,
    pub hsql: RankSummary,
}

/// The full ablation figure.
#[derive(Debug, Clone)]
pub struct Fig6 {
    pub variants: Vec<Variant>,
    pub n_cases: usize,
}

/// The paper's eight ablations plus the full system.
pub fn variants() -> Vec<(String, Ablation)> {
    let mut v: Vec<(String, Ablation)> = vec![("PinSQL".into(), Ablation::default())];
    let mut add = |name: &str, ab: Ablation| v.push((name.to_string(), ab));
    add("w/o Estimate Session", Ablation { no_estimate_session: true, ..Default::default() });
    add("w/o Trend-level Score", Ablation { no_trend_level: true, ..Default::default() });
    add("w/o Scale-level Score", Ablation { no_scale_level: true, ..Default::default() });
    add(
        "w/o Trend-scale-level Score",
        Ablation { no_scale_trend_level: true, ..Default::default() },
    );
    add("w/o Weighted Final Score", Ablation { no_weighted_final: true, ..Default::default() });
    add(
        "w/o Cumulative Threshold",
        Ablation { no_cumulative_threshold: true, ..Default::default() },
    );
    add(
        "w/o Direct Cause SQL Ranking",
        Ablation { no_direct_cause_ranking: true, ..Default::default() },
    );
    add(
        "w/o History Trend Verification",
        Ablation { no_history_verification: true, ..Default::default() },
    );
    v
}

/// Runs the ablation study over a freshly generated case set (all cores).
pub fn run(cfg: &CaseSetConfig) -> Fig6 {
    run_par(cfg, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Scores are identical for every value.
pub fn run_par(cfg: &CaseSetConfig, parallelism: usize) -> Fig6 {
    let (workers, _) = split_parallelism(parallelism);
    let cases = build_cases_par(cfg, workers);
    run_on_par(&cases, parallelism)
}

/// Runs on pre-built cases with an explicit parallelism knob (`0` = all cores).
pub fn run_on_par(cases: &[LabeledCase], parallelism: usize) -> Fig6 {
    let (workers, inner) = split_parallelism(parallelism);
    let mut out = Vec::new();
    for (name, ablation) in variants() {
        let method = Method::PinSql(
            PinSqlConfig::default().with_ablation(ablation).with_parallelism(inner),
        );
        let per_case = par_map(cases.len(), workers, |i| {
            let case = &cases[i];
            let rk = rank_with(&method, case);
            (
                first_hit_rank(&rk.rsqls, &case.truth.rsqls),
                first_hit_rank(&rk.hsqls, &case.truth.hsqls),
                rk.time_s,
            )
        });
        let r_ranks: Vec<_> = per_case.iter().map(|c| c.0).collect();
        let h_ranks: Vec<_> = per_case.iter().map(|c| c.1).collect();
        let times: Vec<_> = per_case.iter().map(|c| c.2).collect();
        out.push(Variant {
            name,
            rsql: RankSummary::from_ranks(&r_ranks, &times),
            hsql: RankSummary::from_ranks(&h_ranks, &times),
        });
    }
    Fig6 { variants: out, n_cases: cases.len() }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 6 — ablation over {} cases (H@k in %)", self.n_cases)?;
        writeln!(
            f,
            "{:<32} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
            "Variant", "R-H@1", "R-H@5", "R-MRR", "H-H@1", "H-H@5", "H-MRR"
        )?;
        writeln!(f, "{}", "-".repeat(86))?;
        for v in &self.variants {
            writeln!(
                f,
                "{:<32} | {:>6.1} {:>6.1} {:>6.2} | {:>6.1} {:>6.1} {:>6.2}",
                v.name,
                v.rsql.hits_at_1 * 100.0,
                v.rsql.hits_at_5 * 100.0,
                v.rsql.mrr,
                v.hsql.hits_at_1 * 100.0,
                v.hsql.hits_at_5 * 100.0,
                v.hsql.mrr,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_matches_paper() {
        let v = variants();
        assert_eq!(v.len(), 9);
        assert_eq!(v[0].0, "PinSQL");
        assert_eq!(v[0].1, Ablation::default());
        // Every non-full variant disables exactly one component.
        for (name, ab) in &v[1..] {
            let count = [
                ab.no_estimate_session,
                ab.no_trend_level,
                ab.no_scale_level,
                ab.no_scale_trend_level,
                ab.no_weighted_final,
                ab.no_cumulative_threshold,
                ab.no_direct_cause_ranking,
                ab.no_history_verification,
            ]
            .iter()
            .filter(|&&b| b)
            .count();
            assert_eq!(count, 1, "{name}");
        }
    }

    #[test]
    fn full_system_is_not_dominated() {
        // On a small paired case set the full system should at least match
        // the strongest ablation on R-SQL MRR (ties allowed — some
        // components only matter for rarer case shapes).
        let cfg = CaseSetConfig::default().with_cases(8).with_seed(321);
        let fig = run(&cfg);
        let full = &fig.variants[0];
        let best_ablated = fig.variants[1..]
            .iter()
            .map(|v| v.rsql.mrr)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            full.rsql.mrr >= best_ablated - 0.15,
            "full {} vs best ablated {}",
            full.rsql.mrr,
            best_ablated
        );
        // The session estimator matters: w/o it H-SQL quality drops.
        let no_est = fig.variants.iter().find(|v| v.name == "w/o Estimate Session").unwrap();
        assert!(full.hsql.mrr >= no_est.hsql.mrr);
    }
}
