//! Repairing-module effects, verified through the simulator: throttling
//! and optimizing the pinpointed R-SQL must actually resolve the anomaly
//! — through the batch path and through the online replay path.

mod common;

use common::Simulated;
use pinsql::repair::{optimize_spec, suggest_actions, throttle_spec};
use pinsql::{PinSql, PinSqlConfig, RepairConfig};
use pinsql_dbsim::run_open_loop;
use pinsql_engine::{replay_diagnose, FleetConfig};
use pinsql_obs::NoopObserver;
use pinsql_scenario::{generate_base, inject, AnomalyKind, Scenario, ScenarioConfig};
use pinsql_workload::SpecId;

fn anomaly_mean(series: &[f64], cfg: &ScenarioConfig) -> f64 {
    let (lo, hi) = (cfg.anomaly_start as usize, cfg.anomaly_end as usize);
    series[lo..hi.min(series.len())].iter().sum::<f64>() / (hi - lo) as f64
}

/// The default-shaped poor-SQL scenario at `seed`, simulated once per
/// process (the unrepaired run every test here compares against).
fn poor_sql(seed: u64) -> &'static Simulated {
    common::simulated(format!("poor_sql({seed})"), || {
        let cfg = ScenarioConfig::default().with_seed(seed);
        inject(&generate_base(&cfg), &cfg, AnomalyKind::PoorSql)
    })
}

/// [`poor_sql`]`(seed)` with `spec` throttled to 2 %, simulated once per
/// process (the batch and the online test throttle the same R-SQL).
fn throttled(seed: u64, spec: SpecId) -> &'static Simulated {
    common::simulated(format!("poor_sql({seed}) throttling {spec:?}"), || {
        let scenario = &poor_sql(seed).scenario;
        Scenario { workload: throttle_spec(&scenario.workload, spec, 0.02), ..scenario.clone() }
    })
}

#[test]
fn throttling_the_rsql_suppresses_the_anomaly() {
    let sim = poor_sql(71);
    let cfg = &sim.scenario.cfg;
    let case = sim.labeled(600, None);
    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &case.case,
        &case.window,
        &case.history,
        case.minutes_origin,
    );
    let rsql = &d.rsqls[0];
    assert!(case.truth.rsqls.contains(&rsql.id), "diagnosis correct for this seed");
    let spec = case.case.catalog.get(rsql.id).unwrap().specs[0];

    let repaired = throttled(71, spec);

    let before = anomaly_mean(&sim.metrics.active_session, cfg);
    let after = anomaly_mean(&repaired.metrics.active_session, cfg);
    assert!(
        after < before * 0.3,
        "throttling the root cause must deflate the session: {before:.1} -> {after:.1}"
    );
}

#[test]
fn optimizing_the_rsql_resolves_without_losing_traffic() {
    let sim = poor_sql(73);
    let (scenario, cfg) = (&sim.scenario, &sim.scenario.cfg);
    let case = sim.labeled(600, None);
    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &case.case,
        &case.window,
        &case.history,
        case.minutes_origin,
    );
    let rsql = &d.rsqls[0];
    assert!(case.truth.rsqls.contains(&rsql.id), "diagnosis correct for this seed");
    let spec = case.case.catalog.get(rsql.id).unwrap().specs[0];

    let optimized_w = optimize_spec(&scenario.workload, spec);
    let optimized = run_open_loop(&optimized_w, &scenario.sim, 0, cfg.window_s);

    let before = anomaly_mean(&sim.metrics.active_session, cfg);
    let after = anomaly_mean(&optimized.metrics.active_session, cfg);
    assert!(
        after < before * 0.3,
        "optimizing the root cause must deflate the session: {before:.1} -> {after:.1}"
    );
    // Unlike throttling, the statement still runs at full rate.
    let count = |log: &[pinsql_dbsim::QueryRecord]| {
        log.iter().filter(|r| r.spec == spec).count() as f64
    };
    let executed_before = count(&sim.log);
    let executed_after = count(&optimized.log);
    assert!(
        executed_after > executed_before * 0.8,
        "optimization must not drop traffic: {executed_before} -> {executed_after}"
    );
}

#[test]
fn online_replay_drives_the_same_repair_as_batch() {
    // The production loop suggests repairs from *online* diagnoses, not
    // batch ones. The replay-equivalence contract says both paths must
    // land on the same actions; this pins it through `replay_diagnose`.
    let sim = poor_sql(71);
    let (scenario, cfg) = (&sim.scenario, &sim.scenario.cfg);
    let repair_cfg = RepairConfig::default();

    let batch = sim.labeled(600, None);
    let batch_d = PinSql::new(PinSqlConfig::default()).diagnose(
        &batch.case,
        &batch.window,
        &batch.history,
        batch.minutes_origin,
    );
    let batch_actions =
        suggest_actions(&batch_d, &batch.case, &batch.window, &batch.anomaly_type, &repair_cfg);

    let (lc, d) =
        replay_diagnose(scenario, sim.events.clone(), &FleetConfig::default(), &NoopObserver);
    let online_actions = suggest_actions(&d, &lc.case, &lc.window, &lc.anomaly_type, &repair_cfg);
    assert_eq!(online_actions, batch_actions, "online replay must repair like batch");

    // The online diagnosis pinpoints the injected root cause, and
    // throttling it resolves the anomaly — same effect bar as the batch
    // test above, driven entirely from the online path.
    let rsql = &d.rsqls[0];
    assert!(lc.truth.rsqls.contains(&rsql.id), "online diagnosis correct for this seed");
    let spec = lc.case.catalog.get(rsql.id).unwrap().specs[0];
    let repaired = throttled(71, spec);
    let before = anomaly_mean(&sim.metrics.active_session, cfg);
    let after = anomaly_mean(&repaired.metrics.active_session, cfg);
    assert!(
        after < before * 0.3,
        "throttling the online-pinpointed root cause must deflate: {before:.1} -> {after:.1}"
    );
}

/// Ten seeds, asserted on the sweep (EXPERIMENTS.md, "Seed-lucky tests").
///
/// The bar used to be `after < 0.5 × before` at seed 75. On this stream
/// it holds on 2 of 10 seeds, and not because scaling stopped working:
/// the spike's own traffic keeps ≈ 2.1 sessions in flight at *any* core
/// count (arrival rate × service time), and the 2-core instance queues
/// only 1–3 sessions on top of that. So the same factor is asserted on
/// what cores can remove — the sessions above that floor, measured by a
/// third run with 64× the cores.
#[test]
fn autoscale_relieves_cpu_pressure() {
    let mut sweep = Vec::new();
    for seed in 75..85 {
        let cfg = ScenarioConfig::default().with_seed(seed);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let run_with_cores = |factor: f64| {
            let mut sim = scenario.sim.clone();
            sim.cores *= factor;
            run_open_loop(&scenario.workload, &sim, 0, cfg.window_s)
        };
        let original = run_with_cores(1.0);
        // AutoScale: quadruple the cores (the business wants the traffic).
        let scaled = run_with_cores(4.0);
        let unqueued = run_with_cores(64.0);
        let before = anomaly_mean(&original.metrics.active_session, &cfg);
        let after = anomaly_mean(&scaled.metrics.active_session, &cfg);
        let floor = anomaly_mean(&unqueued.metrics.active_session, &cfg);
        // And throughput goes up, not down.
        let qps_before: f64 = original.metrics.qps.iter().sum();
        let qps_after: f64 = scaled.metrics.qps.iter().sum();
        assert!(qps_after >= qps_before * 0.95, "seed {seed}: {qps_before} -> {qps_after}");
        sweep.push((seed, before, after, floor));
    }
    let absorbed = sweep
        .iter()
        .filter(|(_, before, after, floor)| after - floor < (before - floor) * 0.5)
        .count();
    assert!(
        absorbed >= 8,
        "scaling out must absorb the queueing of the legitimate spike, did on {absorbed} of 10 \
         seeds: (seed, before, after, floor) {sweep:.2?}"
    );
}
