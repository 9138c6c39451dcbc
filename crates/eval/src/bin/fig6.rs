//! Regenerates Fig. 6: the ablation study.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin fig6 [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::fig6;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let cfg = CaseSetConfig::default().with_cases(n).with_seed(seed);
    eprintln!("running 9 PinSQL variants over {n} cases (seed {seed})...");
    let f = fig6::run(&cfg);
    println!("{f}");
}
