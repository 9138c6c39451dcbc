//! Regenerates Table II: optimization gains, R-SQLs vs slow SQLs.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin table2 [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::table2;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(4242);
    let cfg = CaseSetConfig::default().with_seed(seed);
    eprintln!("optimizing across {n} cases (each case re-simulates twice)...");
    let t = table2::run(&cfg, n);
    println!("{t}");
}
