//! The autonomous repair loop (§VII + Fig. 8): detect → pinpoint →
//! suggest → apply → verify recovery.
//!
//! ```text
//! cargo run --release --example repair_loop
//! ```

use pinsql::repair::{optimize_spec, suggest_actions, RepairConfig};
use pinsql::RepairAction;
use pinsql_dbsim::run_open_loop;
use pinsql_engine::{replay_diagnose, FleetConfig};
use pinsql_obs::NoopObserver;
use pinsql_scenario::{generate_base, inject, materialize_events, AnomalyKind, ScenarioConfig};

fn mean(v: &[f64], lo: usize, hi: usize) -> f64 {
    v[lo..hi.min(v.len())].iter().sum::<f64>() / (hi - lo) as f64
}

fn main() {
    // A bad deploy: unindexed scan saturating the CPU.
    let cfg = ScenarioConfig::default().with_seed(21);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::PoorSql);
    // 1–2. Stream the telemetry through the online engine: it detects the
    // anomaly, cuts the case and pinpoints the root cause.
    let events = materialize_events(&scenario, None);
    let (case, d) = replay_diagnose(&scenario, events, &FleetConfig::default(), &NoopObserver);
    let (a_lo, a_hi) = (cfg.anomaly_start as usize, cfg.anomaly_end as usize);

    println!("1. anomaly detected: {} (type {})", case.detected, case.anomaly_type);
    let before = mean(&case.case.metrics.active_session, 0, case.case.metrics.len());

    let rsql = d.rsqls.first().expect("a root cause");
    println!("2. pinpointed R-SQL: {} (score {:+.2})", rsql.label, rsql.score);

    // 3. Rule-driven suggestion (Fig. 5-style configuration).
    let actions =
        suggest_actions(&d, &case.case, &case.window, &case.anomaly_type, &RepairConfig::default());
    println!("3. suggested actions:");
    for a in &actions {
        println!("   - {:?} on {} (auto={})", a.action, a.label, a.auto_execute);
    }
    let optimize = actions
        .iter()
        .find(|a| matches!(a.action, RepairAction::OptimizeQuery))
        .expect("optimization suggested for a CPU-bound poor SQL");

    // 4. Apply: rewrite the statement's cost profile (the index is built).
    let info = case.case.catalog.get(optimize.template).expect("catalog entry");
    let fixed = optimize_spec(&scenario.workload, info.specs[0]);
    println!(
        "4. applied optimization to `{}`: examined rows {:.0} → {:.0}",
        info.text,
        scenario.workload.specs[info.specs[0].0].cost.examined_rows,
        fixed.specs[info.specs[0].0].cost.examined_rows
    );

    // 5. Verify recovery on a fresh run of the same window.
    let out = run_open_loop(&fixed, &scenario.sim, 0, cfg.window_s);
    let anomaly_session_before =
        mean(case.case.metrics.by_name("active_session").unwrap(), a_lo.saturating_sub(case.window.ts() as usize), a_hi - case.window.ts() as usize);
    let anomaly_session_after = mean(&out.metrics.active_session, a_lo, a_hi);
    println!(
        "5. mean active session in the anomaly window: {:.1} → {:.1} (whole-window baseline {:.1})",
        anomaly_session_before, anomaly_session_after, before
    );
    assert!(
        anomaly_session_after < anomaly_session_before * 0.3,
        "optimizing the root cause must resolve the anomaly"
    );
    println!("→ anomaly resolved ✓");
}
