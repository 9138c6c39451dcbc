//! Table III — accuracy of the individual active-session estimation.
//!
//! Three estimators reconstruct the *instance* active session from query
//! logs; each is compared against the `SHOW STATUS` probe ground truth via
//! Pearson correlation and MSE. The shape to reproduce: RT-based
//! estimation correlates poorly and has an enormous MSE; the expected-
//! activity estimate is strong; sub-second buckets improve it further.

use crate::caseset::{build_case, CaseSetConfig};
use pinsql::{estimate_sessions, EstimatorKind, PinSqlConfig};
use pinsql_timeseries::{mean_squared_error, pearson};

/// One estimator's row.
#[derive(Debug, Clone)]
pub struct Row {
    pub method: String,
    pub pearson: f64,
    pub mse: f64,
}

/// The estimation case study.
#[derive(Debug, Clone)]
pub struct Table3 {
    pub rows: Vec<Row>,
    pub n_cases: usize,
    /// Extra ablation: the bucket-count sweep called out in DESIGN.md.
    pub bucket_sweep: Vec<(usize, f64)>,
}

/// Runs the study over `n_cases` generated cases (averaging the metrics).
pub fn run(cfg: &CaseSetConfig, n_cases: usize) -> Table3 {
    let variants: Vec<(String, EstimatorKind, usize)> = vec![
        ("Estimate By RT".into(), EstimatorKind::ByRt, 10),
        ("Estimate w/o buckets".into(), EstimatorKind::NoBuckets, 1),
        ("Estimate (K=10)".into(), EstimatorKind::Buckets, 10),
    ];
    let cases: Vec<_> = (0..n_cases).map(|i| build_case(cfg, i)).collect();
    let mut rows = Vec::new();
    for (name, kind, k) in &variants {
        let mut corr_sum = 0.0;
        let mut mse_sum = 0.0;
        for case in &cases {
            let pcfg = PinSqlConfig::default().with_estimator(*kind).with_buckets(*k);
            let est = estimate_sessions(&case.case, &pcfg);
            let truth = case.case.instance_session();
            corr_sum += pearson(&est.instance_estimate, truth);
            mse_sum += mean_squared_error(&est.instance_estimate, truth);
        }
        rows.push(Row {
            method: name.clone(),
            pearson: corr_sum / n_cases as f64,
            mse: mse_sum / n_cases as f64,
        });
    }
    // Bucket-count sweep (design-choice ablation): correlation vs K.
    let mut bucket_sweep = Vec::new();
    for k in [1usize, 2, 5, 10, 20] {
        let mut corr_sum = 0.0;
        for case in &cases {
            let pcfg =
                PinSqlConfig::default().with_estimator(EstimatorKind::Buckets).with_buckets(k);
            let est = estimate_sessions(&case.case, &pcfg);
            corr_sum += pearson(&est.instance_estimate, case.case.instance_session());
        }
        bucket_sweep.push((k, corr_sum / n_cases as f64));
    }
    Table3 { rows, n_cases, bucket_sweep }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table III — estimated active session ({} cases)", self.n_cases)?;
        writeln!(f, "{:<22} {:>10} {:>14}", "Method", "Pearson", "MSE")?;
        writeln!(f, "{}", "-".repeat(48))?;
        for r in &self.rows {
            writeln!(f, "{:<22} {:>10.3} {:>14.2}", r.method, r.pearson, r.mse)?;
        }
        writeln!(f, "\nBucket-count sweep (correlation vs K):")?;
        for (k, c) in &self.bucket_sweep {
            writeln!(f, "  K = {k:>3}: {c:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimation_quality_ordering_matches_paper() {
        let cfg = CaseSetConfig::default().with_seed(777);
        let t = run(&cfg, 2);
        let by_rt = &t.rows[0];
        let no_buckets = &t.rows[1];
        let k10 = &t.rows[2];
        assert!(no_buckets.pearson > by_rt.pearson, "{t}");
        assert!(k10.pearson >= no_buckets.pearson - 0.02, "{t}");
        assert!(k10.pearson > 0.85, "{t}");
        assert!(by_rt.mse > k10.mse, "{t}");
    }
}
