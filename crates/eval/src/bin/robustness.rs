//! Regenerates the robustness sweep: PinSQL accuracy vs. telemetry
//! degradation, per anomaly kind (plus an overlapping-anomaly group) and
//! over pure-noise negative cases.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin robustness [-- CASES_PER_CELL [SEED [PARALLELISM]]]`
//! Defaults to 8 cases per (group, intensity) cell over intensities
//! 0 / 0.25 / 0.5 / 0.75 / 1.0 — five groups and the negatives, so
//! 8 × (5 × 5 + 5) = 240 diagnoses (several minutes; pass a smaller count
//! for a quick look). PARALLELISM `0` (default) uses all cores; the curves
//! are identical for every value.

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::robustness::{self, RobustnessConfig};

fn main() {
    let per_cell: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let parallelism: usize =
        std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(0);
    let cfg = RobustnessConfig {
        base: CaseSetConfig::default().with_seed(seed),
        cases_per_cell: per_cell,
        negative_cases: per_cell,
        ..RobustnessConfig::default()
    };
    eprintln!(
        "sweeping {} intensities × 5 groups + negatives, {per_cell} cases/cell \
         (seed {seed}, parallelism {parallelism})...",
        cfg.intensities.len()
    );
    let r = robustness::run_par(&cfg, parallelism);
    println!("{r}");
}
