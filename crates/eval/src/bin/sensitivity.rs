//! Extension: hyper-parameter sensitivity sweeps (τ, τ_c, k_s, K).
//!
//! Usage: `cargo run -p pinsql-eval --release --bin sensitivity [-- N_CASES [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::sensitivity;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(3100);
    let cfg = CaseSetConfig::default().with_cases(n).with_seed(seed);
    eprintln!("sweeping 4 knobs over {n} cases (seed {seed})...");
    println!("{}", sensitivity::run(&cfg));
}
