//! Extension: recurring-decoy study (the value of History Trend
//! Verification under recurring batch workloads).
//!
//! Usage: `cargo run -p pinsql-eval --release --bin recurring [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::recurring;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(2600);
    let cfg = CaseSetConfig::default().with_seed(seed);
    eprintln!("recurring-decoy study over {n} cases (seed {seed})...");
    println!("{}", recurring::run(&cfg, n));
}
