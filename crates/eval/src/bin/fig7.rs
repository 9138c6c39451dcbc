//! Regenerates Fig. 7: computing time vs template count / anomaly length.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin fig7 [-- SCALE [PARALLELISM]]`
//! (SCALE 1.0 = the paper-sized sweep up to 6000 templates / 4800 s.)
//! PARALLELISM sets the *measured* diagnoser's worker count (`1` default
//! serial; `0` = all cores) — the sweep loop itself always runs serially
//! so each point is timed on an otherwise idle machine.

#![forbid(unsafe_code)]

use pinsql_eval::experiments::fig7;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let parallelism: usize =
        std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    eprintln!("running scalability sweeps at scale {scale} (parallelism {parallelism})...");
    let f = fig7::run_par(scale, parallelism);
    println!("{f}");
}
