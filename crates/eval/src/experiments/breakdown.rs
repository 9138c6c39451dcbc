//! Extension experiment: per-category quality breakdown.
//!
//! The paper reports aggregate numbers; this breakdown shows *where* each
//! method wins and loses across the three R-SQL categories of §II (with
//! locks split into MDL and row locks). The expected shape: business-spike
//! and poor-SQL cases are easy for everyone that looks at the right metric
//! (the root cause dominates); lock cases are where R-SQL ≠ H-SQL and the
//! baselines collapse while PinSQL keeps most of its accuracy.

use crate::caseset::{build_cases_par, CaseSetConfig};
use crate::methods::{rank_with, split_parallelism, Method};
use crate::metrics::{first_hit_rank, RankSummary};
use pinsql::PinSqlConfig;
use pinsql_baselines::TopMetric;
use pinsql_scenario::{AnomalyKind, LabeledCase};
use pinsql_timeseries::par_map;

/// One (method, category) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub method: String,
    pub kind: String,
    pub n: usize,
    pub rsql: RankSummary,
}

/// The full breakdown.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub cells: Vec<Cell>,
    pub n_cases: usize,
}

/// Runs the breakdown over a generated case set (all cores).
pub fn run(cfg: &CaseSetConfig) -> Breakdown {
    run_par(cfg, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Cells are identical for every value.
pub fn run_par(cfg: &CaseSetConfig, parallelism: usize) -> Breakdown {
    let (workers, _) = split_parallelism(parallelism);
    let cases = build_cases_par(cfg, workers);
    run_on_par(&cases, parallelism)
}

/// Runs on pre-built cases with an explicit parallelism knob (`0` = all cores).
pub fn run_on_par(cases: &[LabeledCase], parallelism: usize) -> Breakdown {
    let (workers, inner) = split_parallelism(parallelism);
    let methods = vec![
        Method::Top(TopMetric::TotalResponseTime),
        Method::PinSql(PinSqlConfig::default().with_parallelism(inner)),
    ];
    let mut cells = Vec::new();
    for method in &methods {
        for kind in AnomalyKind::ALL {
            let subset: Vec<&LabeledCase> =
                cases.iter().filter(|c| c.kind == Some(kind)).collect();
            if subset.is_empty() {
                continue;
            }
            let ranks = par_map(subset.len(), workers, |i| {
                let rk = rank_with(method, subset[i]);
                first_hit_rank(&rk.rsqls, &subset[i].truth.rsqls)
            });
            cells.push(Cell {
                method: method.label(),
                kind: kind.label().to_string(),
                n: subset.len(),
                rsql: RankSummary::from_ranks(&ranks, &[]),
            });
        }
    }
    Breakdown { cells, n_cases: cases.len() }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Per-category R-SQL breakdown over {} cases", self.n_cases)?;
        writeln!(
            f,
            "{:<10} {:<16} {:>4} {:>7} {:>7} {:>7}",
            "Method", "Category", "n", "H@1", "H@5", "MRR"
        )?;
        writeln!(f, "{}", "-".repeat(56))?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<10} {:<16} {:>4} {:>6.1}% {:>6.1}% {:>7.2}",
                c.method,
                c.kind,
                c.n,
                c.rsql.hits_at_1 * 100.0,
                c.rsql.hits_at_5 * 100.0,
                c.rsql.mrr
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_categories_separate_pinsql_from_top_rt() {
        let cfg = CaseSetConfig::default().with_cases(16).with_seed(2700);
        let b = run(&cfg);
        assert_eq!(b.cells.len(), 8); // 2 methods × 4 kinds
        let get = |m: &str, k: &str| {
            b.cells
                .iter()
                .find(|c| c.method == m && c.kind == k)
                .map(|c| c.rsql.mrr)
                .unwrap()
        };
        // MDL-lock cases are the structural separator: the blocking DDL's
        // total response time is dwarfed by the thousands of piled victims,
        // so Top-RT reliably misses it while PinSQL traces the chain back.
        assert!(
            get("PinSQL", "mdl_lock") > get("Top-RT", "mdl_lock"),
            "{b}"
        );
        // And PinSQL never trails on the easy categories.
        assert!(get("PinSQL", "business_spike") >= 0.75, "{b}");
    }
}
