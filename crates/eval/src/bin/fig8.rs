//! Regenerates Fig. 8: the repairing case study.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin fig8 [-- SEED | --pick]`
//!
//! `--pick` scans seeds from 100 up and prints the first whose replay has
//! no `storyline_gaps` — how `fig8_showcase_seed` is chosen.

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::fig8;

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--pick") {
        for seed in 100.. {
            let gaps = fig8::run(&CaseSetConfig::default().with_seed(seed)).storyline_gaps();
            eprintln!("seed {seed}: {gaps:?}");
            if gaps.is_empty() {
                println!("{seed}");
                return;
            }
        }
    }
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(fig8::fig8_showcase_seed);
    let cfg = CaseSetConfig::default().with_seed(seed);
    eprintln!("replaying the repair storyline (seed {seed}, 5 phase simulations)...");
    let f = fig8::run(&cfg);
    println!("{f}");
}
