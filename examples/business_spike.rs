//! Business-change anomaly + a look inside template clustering (§VI).
//!
//! ```text
//! cargo run --release --example business_spike
//! ```
//!
//! Shows how templates of one microservice DAG share an execution trend
//! and cluster together, how a sudden business spike is detected, and how
//! the spiking business's cluster carries the root cause.

use pinsql::{estimate_sessions, identify_rsqls, rank_hsqls, PinSqlConfig};
use pinsql_engine::{replay_diagnose, FleetConfig};
use pinsql_obs::NoopObserver;
use pinsql_scenario::{generate_base, inject, materialize_events, AnomalyKind, ScenarioConfig};

fn main() {
    let cfg = ScenarioConfig::default().with_seed(12).with_businesses(10);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
    println!("simulating a QPS spike (Double-11 style) on a 10-business instance...");
    let events = materialize_events(&scenario, None);
    let (case, d) = replay_diagnose(&scenario, events, &FleetConfig::default(), &NoopObserver);
    println!(
        "anomaly: {} [{}, {}) s",
        case.anomaly_type, case.window.anomaly_start, case.window.anomaly_end
    );

    // Look inside the R-SQL stage to show the clusters.
    let pcfg = PinSqlConfig::default();
    let est = estimate_sessions(&case.case, &pcfg);
    let hsql = rank_hsqls(&case.case, &est, &case.window, &pcfg);
    let out = identify_rsqls(
        &case.case,
        &est,
        &hsql,
        &case.window,
        &case.history,
        case.minutes_origin,
        &pcfg,
    );

    println!("\nbusiness clusters found: {}", out.clusters.len());
    for (ci, cluster) in out.clusters.iter().enumerate().take(6) {
        // Derive each cluster's dominant business from the labels
        // (`b<k>.<intent>` or `inject.<intent>`).
        let mut businesses: Vec<String> = cluster
            .iter()
            .filter_map(|&i| {
                case.case
                    .catalog
                    .get(case.case.templates[i].id)
                    .map(|info| info.label.split('.').next().unwrap_or("?").to_string())
            })
            .collect();
        businesses.sort();
        businesses.dedup();
        println!(
            "  cluster {ci}: {} templates, businesses {:?}{}",
            cluster.len(),
            businesses,
            if ci < out.selected_clusters { "  ← selected" } else { "" }
        );
    }

    println!("\nPinSQL top-3 R-SQLs:");
    for r in d.rsqls.iter().take(3) {
        println!("  score {:+.2}  {}", r.score, r.label);
    }
    let truth_hit = d
        .rsqls
        .first()
        .map(|r| case.truth.rsqls.contains(&r.id))
        .unwrap_or(false);
    println!(
        "injected spike templates: {:?} → top-1 {}",
        case.truth
            .rsqls
            .iter()
            .filter_map(|id| case.case.catalog.get(*id).map(|i| i.label.clone()))
            .collect::<Vec<_>>(),
        if truth_hit { "CORRECT ✓" } else { "missed" }
    );
}
