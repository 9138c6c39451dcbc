//! Extension experiment: hyper-parameter sensitivity.
//!
//! DESIGN.md calls out the design-choice knobs worth sweeping: the
//! clustering threshold `τ`, the cumulative threshold `τ_c`, the sigmoid
//! smooth factor `k_s`, and the bucket count `K`. Each sweep varies one
//! knob around the paper's default on a fixed case set and reports R-SQL
//! MRR, showing how flat (robust) or peaked (fragile) each choice is.

use crate::caseset::{build_cases_par, CaseSetConfig};
use crate::methods::{rank_with, split_parallelism, Method};
use crate::metrics::{first_hit_rank, mean_reciprocal_rank};
use pinsql::PinSqlConfig;
use pinsql_scenario::LabeledCase;
use pinsql_timeseries::par_map;

/// One sweep over one knob.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub knob: String,
    /// `(knob value, R-SQL MRR)` pairs.
    pub points: Vec<(f64, f64)>,
    /// The paper-default value of the knob.
    pub default_value: f64,
}

/// All sweeps.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    pub sweeps: Vec<Sweep>,
    pub n_cases: usize,
}

fn mrr_with(cases: &[LabeledCase], cfg: PinSqlConfig, workers: usize) -> f64 {
    let method = Method::PinSql(cfg);
    let ranks = par_map(cases.len(), workers, |i| {
        first_hit_rank(&rank_with(&method, &cases[i]).rsqls, &cases[i].truth.rsqls)
    });
    mean_reciprocal_rank(&ranks)
}

/// Runs all four sweeps on one generated case set (all cores).
pub fn run(cfg: &CaseSetConfig) -> Sensitivity {
    run_par(cfg, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Sweep points are identical for every value.
pub fn run_par(cfg: &CaseSetConfig, parallelism: usize) -> Sensitivity {
    let (workers, inner) = split_parallelism(parallelism);
    let cases = build_cases_par(cfg, workers);
    let base = PinSqlConfig::default().with_parallelism(inner);

    let mut sweeps = Vec::new();

    let tau_values = [0.5, 0.65, 0.8, 0.9, 0.95];
    sweeps.push(Sweep {
        knob: "tau (clustering threshold)".into(),
        default_value: base.tau,
        points: tau_values
            .iter()
            .map(|&tau| (tau, mrr_with(&cases, PinSqlConfig { tau, ..base.clone() }, workers)))
            .collect(),
    });

    let tau_c_values = [0.7, 0.85, 0.95, 0.99];
    sweeps.push(Sweep {
        knob: "tau_c (cumulative threshold)".into(),
        default_value: base.tau_c,
        points: tau_c_values
            .iter()
            .map(|&tau_c| (tau_c, mrr_with(&cases, PinSqlConfig { tau_c, ..base.clone() }, workers)))
            .collect(),
    });

    let ks_values = [1.0, 10.0, 30.0, 120.0, 1000.0];
    sweeps.push(Sweep {
        knob: "ks (sigmoid smooth factor)".into(),
        default_value: base.ks,
        points: ks_values
            .iter()
            .map(|&ks| (ks, mrr_with(&cases, PinSqlConfig { ks, ..base.clone() }, workers)))
            .collect(),
    });

    let k_values = [1usize, 2, 5, 10, 20];
    sweeps.push(Sweep {
        knob: "K (session-estimation buckets)".into(),
        default_value: base.buckets_k as f64,
        points: k_values
            .iter()
            .map(|&k| (k as f64, mrr_with(&cases, base.clone().with_buckets(k), workers)))
            .collect(),
    });

    Sensitivity { sweeps, n_cases: cases.len() }
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Hyper-parameter sensitivity (R-SQL MRR over {} cases)", self.n_cases)?;
        for s in &self.sweeps {
            writeln!(f, "\n{} (paper default {}):", s.knob, s.default_value)?;
            for (v, mrr) in &s.points {
                let marker = if (v - s.default_value).abs() < 1e-9 { "  ← default" } else { "" };
                writeln!(f, "  {v:>8.2} → MRR {mrr:.3}{marker}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_near_the_sweep_optimum() {
        let cfg = CaseSetConfig::default().with_cases(8).with_seed(3100);
        let s = run(&cfg);
        assert_eq!(s.sweeps.len(), 4);
        for sweep in &s.sweeps {
            let default_mrr = sweep
                .points
                .iter()
                .find(|(v, _)| (v - sweep.default_value).abs() < 1e-9)
                .map(|(_, m)| *m)
                .expect("default value must be in its own sweep");
            let best = sweep.points.iter().map(|(_, m)| *m).fold(f64::NEG_INFINITY, f64::max);
            // The paper defaults should be competitive (within 0.15 MRR of
            // the sweep optimum) on our case distribution.
            assert!(
                default_mrr >= best - 0.15,
                "{}: default {default_mrr} vs best {best}\n{s}",
                sweep.knob
            );
        }
    }
}
