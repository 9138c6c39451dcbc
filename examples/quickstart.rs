//! Quickstart: the full PinSQL loop on a small synthetic instance.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a microservice workload, injects a poorly-written SQL deploy,
//! simulates the database instance, streams its telemetry through the
//! online engine (which detects the anomaly on the active session metric
//! and cuts the case), and lets PinSQL pinpoint the root-cause template.

use pinsql_engine::{replay_diagnose, FleetConfig};
use pinsql_obs::NoopObserver;
use pinsql_scenario::{generate_base, inject, materialize_events, AnomalyKind, ScenarioConfig};

fn main() {
    // 1. A 16-business workload with an unindexed-scan deploy at t=720 s.
    let cfg = ScenarioConfig::default().with_seed(7);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::PoorSql);
    println!(
        "workload: {} businesses, {} SQL templates, {} tables",
        base.businesses.len(),
        scenario.workload.specs.len(),
        scenario.workload.tables.len()
    );

    // 2. Simulate, then stream the telemetry through one online instance:
    //    collect, detect, cut the case and diagnose it (δ_s = 600 s).
    let events = materialize_events(&scenario, None);
    let (case, d) = replay_diagnose(&scenario, events, &FleetConfig::default(), &NoopObserver);
    println!(
        "anomaly detected: {} ({}); window [{}, {}) s, {} templates aggregated",
        case.detected,
        case.anomaly_type,
        case.window.anomaly_start,
        case.window.anomaly_end,
        case.case.templates.len()
    );

    println!("\ntop-5 High-impact SQLs (direct causes):");
    for (i, h) in d.hsqls.iter().take(5).enumerate() {
        let text = case.case.catalog.get(h.id).map(|t| t.text.clone()).unwrap_or_default();
        println!("  {}. [{}] impact={:+.3}  {}", i + 1, h.id.short(), h.score, text);
    }

    println!("\ntop-5 Root-cause SQLs:");
    for (i, r) in d.rsqls.iter().take(5).enumerate() {
        let text = case.case.catalog.get(r.id).map(|t| t.text.clone()).unwrap_or_default();
        println!("  {}. [{}] score={:+.3}  {}", i + 1, r.id.short(), r.score, text);
    }

    let truth = &case.truth.rsqls[0];
    let hit = d.rsqls.first().map(|r| r.id == *truth).unwrap_or(false);
    println!(
        "\ninjected root cause: [{}] — PinSQL top-1 {}",
        truth.short(),
        if hit { "CORRECT ✓" } else { "missed" }
    );
    println!(
        "stages: estimate {:.2}s, h-sql {:.2}s, clustering+verify {:.2}s (total {:.2}s)",
        d.timings.estimate_s, d.timings.hsql_s, d.timings.cluster_s, d.timings.total_s
    );
}
