//! `HealthSnapshot` invariants under chaos-degraded telemetry.
//!
//! A health snapshot is a plain read of state the pipeline already keeps,
//! so it must (a) never perturb outcomes, (b) keep its lifetime counters
//! monotone over any stream — including one with drops, duplicates,
//! jitter, clock skew, reordering, and metric blackouts — and (c) keep
//! its queue depths inside the retention bound at every instant. This
//! suite drives perturbed streams through `OnlineInstance` and checks all
//! three at high snapshot frequency.

mod common;

use common::{load_manifest, scenario_for};
use pinsql::PinSqlConfig;
use pinsql_engine::OnlineInstance;
use pinsql_obs::HealthSnapshot;
use pinsql_scenario::{
    generate_base, inject, materialize_events, AnomalyKind, PerturbConfig, Scenario,
    ScenarioConfig,
};
use std::time::Instant;

const DELTA_S: i64 = 240;

fn chaos_scenario(seed: u64, kind: AnomalyKind) -> Scenario {
    let cfg = ScenarioConfig::default().with_seed(seed).with_businesses(6).with_window(
        420,
        240,
        330,
    );
    let base = generate_base(&cfg);
    inject(&base, &cfg, kind)
}

/// Asserts every lifetime counter of `b` is at least `a`'s.
fn assert_monotone(a: &HealthSnapshot, b: &HealthSnapshot, ctx: &str) {
    assert!(b.events_ingested >= a.events_ingested, "{ctx}: events");
    assert!(b.queries_ingested >= a.queries_ingested, "{ctx}: queries");
    assert!(b.malformed_dropped >= a.malformed_dropped, "{ctx}: malformed");
    assert!(b.late_dropped >= a.late_dropped, "{ctx}: late");
    assert!(b.cells_folded >= a.cells_folded, "{ctx}: cells");
    assert!(b.retention_evictions >= a.retention_evictions, "{ctx}: evictions");
    assert!(b.history_minutes >= a.history_minutes, "{ctx}: history minutes");
    assert!(b.cases_opened >= a.cases_opened, "{ctx}: cases opened");
    assert!(b.detector_samples >= a.detector_samples, "{ctx}: detector samples");
    assert!(b.features_closed >= a.features_closed, "{ctx}: features");
    assert!(b.watermark >= a.watermark, "{ctx}: watermark");
}

/// Asserts queue depths respect the instance's retention sizing.
fn assert_bounded(h: &HealthSnapshot, retention: i64, ctx: &str) {
    let bound = (retention + 1) as usize;
    assert!(h.cell_seconds <= bound, "{ctx}: cell_seconds {} > {bound}", h.cell_seconds);
    assert!(h.metric_seconds <= bound, "{ctx}: metric_seconds {} > {bound}", h.metric_seconds);
    assert!(
        h.records_resident as u64 <= h.queries_ingested,
        "{ctx}: resident records exceed ingested queries"
    );
    assert!(
        h.cells_folded >= h.cell_seconds as u64,
        "{ctx}: resident cells exceed lifetime folds"
    );
    assert!(h.open_segments <= 6, "{ctx}: more open segments than watched metrics");
}

#[test]
fn health_invariants_hold_under_chaos_streams() {
    // Three intensities: clean, moderately degraded, heavily degraded.
    let chaos: [Option<PerturbConfig>; 3] = [
        None,
        Some(PerturbConfig::at_intensity(501, 0.4)),
        Some(PerturbConfig::at_intensity(502, 0.9)),
    ];
    for (ci, perturb) in chaos.iter().enumerate() {
        let scenario = chaos_scenario(130 + ci as u64, AnomalyKind::BusinessSpike);
        let retention = scenario.cfg.window_s + 120;
        let events = materialize_events(&scenario, perturb.as_ref());
        assert!(!events.is_empty());

        let mut inst = OnlineInstance::new(&scenario, DELTA_S);
        let mut prev = inst.health_snapshot();
        assert_eq!(prev.events_ingested, 0);
        assert_eq!(prev.watermark, i64::MIN, "pre-ingest watermark sentinel");

        for (i, ev) in events.into_iter().enumerate() {
            inst.ingest(ev);
            if i % 256 == 0 {
                let h = inst.health_snapshot();
                let ctx = format!("chaos {ci} event {i}");
                assert_monotone(&prev, &h, &ctx);
                assert_bounded(&h, retention, &ctx);
                assert_eq!(h, inst.health_snapshot(), "{ctx}: snapshot must be a pure read");
                prev = h;
            }
        }

        let fin = inst.health_snapshot();
        assert_monotone(&prev, &fin, &format!("chaos {ci} final"));
        assert!(fin.queries_ingested > 0);
        assert!(fin.cells_folded > 0);
        assert!(fin.templates_tracked > 0);
        assert!(fin.detector_samples > 0);
        if let Some(p) = perturb {
            assert!(p.drop_prob > 0.0);
            // Heavy jitter + skew push some records behind the horizon or
            // out of finite range only occasionally; what we require is
            // that the degraded stream still flowed.
            assert!(fin.events_ingested > 0);
        }
        // The case must still close after all that snapshotting.
        let lc = inst.close_case();
        assert!(!lc.case.templates.is_empty());
    }
}

#[test]
fn snapshots_mid_ingest_are_inert_and_cheap() {
    let scenario = chaos_scenario(140, AnomalyKind::RowLock);
    let perturb = PerturbConfig::at_intensity(503, 0.7);
    let events = materialize_events(&scenario, Some(&perturb));

    // Reference run: no snapshots at all.
    let mut plain = OnlineInstance::new(&scenario, DELTA_S);
    plain.ingest_stream(events.clone());

    // Snapshot-heavy run over the identical stream.
    let mut watched = OnlineInstance::new(&scenario, DELTA_S);
    let mut snap_time = std::time::Duration::ZERO;
    let mut snaps = 0u32;
    for (i, ev) in events.into_iter().enumerate() {
        watched.ingest(ev);
        if i % 64 == 0 {
            let t = Instant::now();
            let h = watched.health_snapshot();
            snap_time += t.elapsed();
            snaps += 1;
            std::hint::black_box(&h);
        }
    }
    assert_eq!(plain.ingest_stats(), watched.ingest_stats());
    assert_eq!(plain.health_snapshot(), watched.health_snapshot());

    let plain_lc = plain.close_case();
    let watched_lc = watched.close_case();
    assert_eq!(plain_lc.window, watched_lc.window);
    assert_eq!(plain_lc.case.records, watched_lc.case.records);
    assert_eq!(plain_lc.anomaly_type, watched_lc.anomaly_type);

    // "Cheap" with a wide CI margin: a snapshot is a handful of integer
    // reads, so even 1 ms mean would signal an accidental scan or clone
    // of retained data.
    let mean = snap_time / snaps.max(1);
    assert!(
        mean < std::time::Duration::from_millis(1),
        "health_snapshot mean {mean:?} over {snaps} snapshots — no longer a cheap read"
    );
}

#[test]
fn fleet_health_rollup_matches_instance_truth() {
    // Golden-corpus fleet: the roll-up's totals must equal the sum of the
    // per-instance snapshots it carries, and every instance must be
    // present in id order.
    let manifest = load_manifest();
    let scenarios: Vec<_> = manifest.iter().take(4).map(scenario_for).collect();
    let engine = pinsql_engine::FleetEngine::new(pinsql_engine::FleetConfig {
        delta_s: common::GOLDEN_DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout: 2,
        shards: 2,
        ..pinsql_engine::FleetConfig::default()
    });
    let run = engine.run_full(&scenarios);
    let h = &run.health;
    assert_eq!(h.instances.len(), scenarios.len());
    assert_eq!(h.events_total, run.report.events_total);
    assert_eq!(
        h.events_total,
        h.instances.iter().map(|i| i.events_ingested).sum::<u64>()
    );
    assert_eq!(
        h.queries_total,
        h.instances.iter().map(|i| i.queries_ingested).sum::<u64>()
    );
    assert_eq!(
        h.max_records_resident,
        h.instances.iter().map(|i| i.records_resident).max().unwrap()
    );
    for (i, inst) in h.instances.iter().enumerate() {
        assert!(inst.events_ingested > 0, "instance {i}");
        assert!(inst.templates_tracked > 0, "instance {i}");
        // Snapshots are taken at close: the watermark reached the end of
        // the simulated window.
        assert!(inst.watermark >= scenarios[i].cfg.window_s, "instance {i}");
    }
}
