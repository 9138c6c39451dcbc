//! Extension: per-category R-SQL breakdown (PinSQL vs Top-RT).
//!
//! Usage: `cargo run -p pinsql-eval --release --bin breakdown [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::breakdown;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let cfg = CaseSetConfig::default().with_cases(n).with_seed(seed);
    eprintln!("per-category breakdown over {n} cases (seed {seed})...");
    println!("{}", breakdown::run(&cfg));
}
