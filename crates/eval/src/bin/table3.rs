//! Regenerates Table III: individual active-session estimation accuracy.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin table3 [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::table3;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(777);
    let cfg = CaseSetConfig::default().with_seed(seed);
    eprintln!("evaluating 3 estimators + bucket sweep over {n} cases...");
    let t = table3::run(&cfg, n);
    println!("{t}");
}
