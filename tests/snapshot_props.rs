//! Property sweeps for instance snapshot/restore.
//!
//! The contract under test: for any stream prefix `s`,
//! `restore(snapshot(s))` then draining the tail is indistinguishable —
//! health, counters, and the closed labelled case all bit-identical —
//! from an instance that never snapshotted. Streams come from three
//! generators: seeded random events (out-of-order arrivals, corrupt
//! records, interleaved metrics), chaos-perturbed real scenario
//! telemetry, and a deterministic short stream snapshotted at **every**
//! position. The random generators are seeded sweeps; a failure names
//! the seed.

use pinsql_collector::CaseData;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_engine::{InstanceSnapshot, OnlineInstance};
use pinsql_scenario::{LabeledCase, PerturbConfig, Scenario};
use pinsql_workload::rng::{rng_from_seed, RngExt};
use pinsql_workload::SpecId;

mod common;
use common::{assert_owners_by_catalog, random_event_stream, small, small_scenario};

const DELTA_S: i64 = 60;

fn assert_case_eq(a: &CaseData, b: &CaseData, what: &str) {
    assert_eq!(a.ts, b.ts, "{what}: ts");
    assert_eq!(a.te, b.te, "{what}: te");
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.templates.len(), b.templates.len(), "{what}: template count");
    assert_owners_by_catalog(a, what);
    assert_owners_by_catalog(b, what);
    for (x, y) in a.templates.iter().zip(&b.templates) {
        assert_eq!(x.id, y.id, "{what}: template id");
        assert_eq!(x.series.start, y.series.start, "{what}: series start of {:?}", x.id);
        assert_eq!(x.series.execution_count, y.series.execution_count, "{what}: {:?}", x.id);
        assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms, "{what}: {:?}", x.id);
        assert_eq!(x.series.examined_rows, y.series.examined_rows, "{what}: {:?}", x.id);
    }
    assert_eq!(a.metrics.active_session, b.metrics.active_session, "{what}: active_session");
    assert_eq!(a.metrics.qps, b.metrics.qps, "{what}: qps");
}

fn assert_lc_eq(a: &LabeledCase, b: &LabeledCase, what: &str) {
    assert_eq!(a.window, b.window, "{what}: window");
    assert_eq!(a.detected, b.detected, "{what}: detected");
    assert_eq!(a.anomaly_type, b.anomaly_type, "{what}: anomaly_type");
    assert_eq!(a.truth.rsqls, b.truth.rsqls, "{what}: truth rsqls");
    assert_eq!(a.truth.hsqls, b.truth.hsqls, "{what}: truth hsqls");
    assert_eq!(a.minutes_origin, b.minutes_origin, "{what}: minutes_origin");
    assert_case_eq(&a.case, &b.case, what);
}

/// Ingest `events[..split]`, snapshot, restore (through the untrusted
/// `from_bytes` path), drain the tail on both the snapshotted-and-
/// continued instance and the restored one, and compare everything —
/// including against a baseline that never snapshotted.
fn round_trip_at(
    scenario: &Scenario,
    events: &[TelemetryEvent],
    split: usize,
    ctx: &str,
) {
    let mk = || OnlineInstance::new(scenario, DELTA_S);

    let mut baseline = mk();
    baseline.ingest_stream(events.to_vec());

    let mut live = mk();
    live.ingest_stream(events[..split].to_vec());
    let wrapped = InstanceSnapshot::from_bytes(live.snapshot().into_bytes())
        .unwrap_or_else(|e| panic!("{ctx}: own bytes must revalidate: {e:?}"));
    let mut restored = OnlineInstance::restore(scenario, &wrapped)
        .unwrap_or_else(|e| panic!("{ctx}: own snapshot must restore: {e:?}"));

    assert_eq!(restored.events_ingested(), live.events_ingested(), "{ctx}");
    assert_eq!(restored.health_snapshot(), live.health_snapshot(), "{ctx}: health after restore");
    // Rows serialize in first-touch order and restore verbatim, so
    // re-serializing the restored state is byte-idempotent.
    assert!(restored.snapshot() == wrapped, "{ctx}: byte idempotence");

    live.ingest_stream(events[split..].to_vec());
    restored.ingest_stream(events[split..].to_vec());
    assert_eq!(restored.health_snapshot(), live.health_snapshot(), "{ctx}: health after drain");
    assert_eq!(baseline.health_snapshot(), live.health_snapshot(), "{ctx}: health vs baseline");

    let lc_base = baseline.close_case();
    let lc_live = live.close_case();
    let lc_restored = restored.close_case();
    assert_lc_eq(&lc_live, &lc_base, &format!("{ctx}: continued vs never-snapshotted"));
    assert_lc_eq(&lc_restored, &lc_base, &format!("{ctx}: restored vs never-snapshotted"));
}

/// Seeded random streams: arrivals in any order (including before the
/// ring start), a sprinkle of non-finite records, interleaved metric
/// samples and ticks — snapshot at a random position always round-trips
/// exactly. 256 streams.
#[test]
fn random_streams_round_trip() {
    let scenario = small_scenario(7);
    for seed in 0..256u64 {
        let mut rng = rng_from_seed(seed);
        let events = random_event_stream(&mut rng, scenario.workload.specs.len());
        let split = ((events.len() as f64) * rng.random_range(0.0..1.0)) as usize;
        round_trip_at(&scenario, &events, split, &format!("seed {seed}"));
    }
}

/// Chaos-perturbed real telemetry: dropped/duplicated/jittered/
/// reordered records and blanked metric seconds. Whatever the
/// degradation, a mid-stream snapshot round-trips exactly. 256
/// perturbations of one simulation.
#[test]
fn perturbed_streams_round_trip() {
    let sim = small(11);
    for seed in 0..256u64 {
        let mut rng = rng_from_seed(seed);
        let perturb = PerturbConfig {
            seed: rng.random_range(0..1_000u64),
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            jitter_ms: 30.0,
            clock_skew_ms: rng.random_range(-50.0..50.0),
            reorder: rng.random_range(0..2u32) == 1,
            metric_blank_prob: 0.05,
        };
        let events = sim.perturbed_events(&perturb);
        let split = ((events.len() as f64) * rng.random_range(0.0..1.0)) as usize;
        round_trip_at(&sim.scenario, &events, split, &format!("seed {seed}"));
    }
}

/// Exhaustive positions: a deterministic 60-second stream (warm-up,
/// surge, recovery) snapshotted at **every** event index, 0 through len —
/// each restore drains the tail and must close the same case as a
/// baseline that never snapshotted.
#[test]
fn every_split_position_round_trips() {
    let scenario = small_scenario(3);
    let n_specs = scenario.workload.specs.len();
    let mut events: Vec<TelemetryEvent> = Vec::new();
    for s in 0..60i64 {
        for q in 0..3 {
            events.push(TelemetryEvent::Query(QueryRecord {
                spec: SpecId(((s as usize) * 3 + q) % n_specs),
                start_ms: s as f64 * 1000.0 + q as f64 * 250.0,
                response_ms: 2.0 + q as f64,
                examined_rows: 10,
            }));
        }
        let surge = (40..55).contains(&s);
        events.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
            second: s,
            active_session: if surge { 90.0 } else { 4.0 },
            cpu_usage: if surge { 0.9 } else { 0.3 },
            ..Default::default()
        })));
        events.push(TelemetryEvent::Tick { second: s + 1 });
    }

    let mk = || OnlineInstance::new(&scenario, DELTA_S);
    let mut baseline = mk();
    baseline.ingest_stream(events.clone());
    let base_health = baseline.health_snapshot();
    let lc_base = baseline.close_case();

    for split in 0..=events.len() {
        let mut live = mk();
        live.ingest_stream(events[..split].to_vec());
        let snap = live.snapshot();
        let mut restored =
            OnlineInstance::restore(&scenario, &snap).expect("own snapshot restores");
        assert_eq!(restored.snapshot().as_bytes(), snap.as_bytes(), "split {split}: idempotence");
        restored.ingest_stream(events[split..].to_vec());
        assert_eq!(restored.health_snapshot(), base_health, "split {split}: health");
        assert_lc_eq(&restored.close_case(), &lc_base, &format!("split {split}"));
    }
}
