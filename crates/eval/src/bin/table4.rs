//! Regenerates Table IV: Performance-Schema overhead (QPS decline).
//!
//! Usage: `cargo run -p pinsql-eval --release --bin table4 [-- MEASURE_S [SEED]]`

#![forbid(unsafe_code)]

use pinsql_eval::experiments::table4;

fn main() {
    let measure_s: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20.0);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(99);
    eprintln!("closed-loop saturation: 5 configs x 3 mixes x {measure_s}s...");
    let t = table4::run(measure_s, seed);
    println!("{t}");
}
