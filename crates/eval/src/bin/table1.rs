//! Regenerates Table I: overall R-SQL / H-SQL identification quality.
//!
//! Usage: `cargo run -p pinsql-eval --release --bin table1 [-- N_CASES [SEED [PARALLELISM]]]`
//! Defaults to the paper's 168 cases (several minutes); pass a smaller
//! count for a quick look. PARALLELISM `0` (default) uses all cores for
//! the per-case fan-out, `1` forces the pre-parallelism serial path; the
//! quality rows are identical either way.
//!
//! The table goes to stdout; the per-stage timing decomposition of the
//! PinSQL row goes to stderr, next to the progress line.

#![forbid(unsafe_code)]

use pinsql_eval::caseset::CaseSetConfig;
use pinsql_eval::experiments::table1;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(168);
    let seed: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let parallelism: usize =
        std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(0);
    let cfg = CaseSetConfig::default().with_cases(n).with_seed(seed);
    eprintln!("generating and scoring {n} cases (seed {seed}, parallelism {parallelism})...");
    let t = table1::run_par(&cfg, parallelism);
    println!("{t}");

    if let Some(s) = t.rows.iter().find_map(|r| r.stage) {
        eprintln!(
            "PinSQL mean per case: estimate {:.3}s, hsql {:.3}s, cluster {:.3}s, total {:.3}s \
             (parallelism {})",
            s.estimate_s, s.hsql_s, s.cluster_s, s.total_s, s.parallelism
        );
    }
}
