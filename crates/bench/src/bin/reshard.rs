//! Checkpoint/reshard cost sweep: snapshot size and handoff latency vs
//! instance count.
//!
//! For every (instances, businesses) cell this bin:
//!
//! * cuts a whole-fleet checkpoint mid-anomaly and reports serialized
//!   bytes per instance plus the checkpoint wall time;
//! * times a bare restore of every snapshot (the latency an instance is
//!   unavailable during a handoff, excluding tail replay);
//! * replays the fleet under an assignment-reversing [`ReshardPlan`] with
//!   a `RecordingObserver` and reports the recorded [`Stage::Reshard`]
//!   span and snapshot counters;
//! * cross-checks that the resharded outcomes match the uninterrupted
//!   run (the cheap in-bench guard; the real matrix lives in
//!   `tests/equivalence.rs`).
//!
//! Usage: `cargo run -p pinsql-bench --release --bin reshard [-- INSTANCES_CSV [BUSINESSES [SEED]]]`
//! Defaults: instances `2,4,8`, businesses 6, seed 9000.
//!
//! `--gate` runs the smallest cell only and exits non-zero if the
//! equivalence cross-check fails or the snapshot-size / restore-latency
//! sanity bounds are blown — the `scripts/ci.sh snapshot_smoke` hook.

#![forbid(unsafe_code)]

use pinsql::PinSqlConfig;
use pinsql_engine::{FleetConfig, FleetEngine, OnlineInstance, ReshardPlan};
use pinsql_obs::{Counter, RecordingObserver, Stage};
use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, Scenario, ScenarioConfig};
use std::time::Instant;

const WINDOW_S: i64 = 600;
const ANOMALY: (i64, i64) = (360, 480);
const DELTA_S: i64 = 240;
const RESHARD_AT: i64 = 420;

/// Sanity bounds for `--gate`: a per-instance snapshot of the default
/// bench scenario should be far inside these whatever the host.
const GATE_MIN_BYTES_PER_INSTANCE: usize = 1 << 10; // 1 KiB
const GATE_MAX_BYTES_PER_INSTANCE: usize = 64 << 20; // 64 MiB
const GATE_MAX_RESTORE_MS_PER_INSTANCE: f64 = 2_000.0;

struct ReshardCell {
    instances: usize,
    events_total: u64,
    snapshot_bytes_per_instance: usize,
    checkpoint_wall_s: f64,
    restore_ms_per_instance: f64,
    /// Wall time of the recorded `Stage::Reshard` handoff span (quiesce +
    /// regroup on the coordinating thread).
    handoff_span_ms: f64,
    snapshots_restored: u64,
    /// Resharded outcomes byte-identical to the uninterrupted run.
    equivalent: bool,
}

fn scenarios(n: usize, businesses: usize, seed: u64) -> Vec<Scenario> {
    let kinds = [
        Some(AnomalyKind::BusinessSpike),
        Some(AnomalyKind::PoorSql),
        Some(AnomalyKind::MdlLock),
        Some(AnomalyKind::RowLock),
        None,
    ];
    (0..n)
        .map(|i| {
            let cfg = ScenarioConfig::default()
                .with_seed(seed + i as u64)
                .with_businesses(businesses)
                .with_window(WINDOW_S, ANOMALY.0, ANOMALY.1);
            let base = generate_base(&cfg);
            match kinds[i % kinds.len()] {
                Some(kind) => inject(&base, &cfg, kind),
                None => inject_none(&base, &cfg),
            }
        })
        .collect()
}

fn engine(shards: usize) -> FleetEngine {
    FleetEngine::new(FleetConfig {
        delta_s: DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout: 0,
        shards,
        ..FleetConfig::default()
    })
}

/// Byte-comparable view of a run's outcomes (timings stripped).
fn outcome_key(run: &pinsql_engine::FleetRun) -> String {
    run.report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}",
                o.instance,
                o.kind,
                o.detected,
                o.anomaly_type,
                o.n_events,
                o.n_templates,
                o.n_reported,
                o.top_rsql.clone().unwrap_or_default()
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_cell(n: usize, businesses: usize, seed: u64) -> ReshardCell {
    let scen = scenarios(n, businesses, seed);
    let shards = 2.min(n);

    // Checkpoint cost: whole-fleet snapshot mid-anomaly.
    let t0 = Instant::now();
    let ckpt = engine(shards).checkpoint_at(&scen, RESHARD_AT);
    let checkpoint_wall_s = t0.elapsed().as_secs_f64();
    let snapshot_bytes_total = ckpt.total_bytes();

    // Bare restore cost: rebuild every instance from its blob.
    let t1 = Instant::now();
    for (i, snap) in ckpt.snapshots.iter().enumerate() {
        let inst = OnlineInstance::restore(&scen[i], snap).expect("own checkpoint restores");
        assert!(inst.watermark() >= 0);
        std::hint::black_box(&inst);
    }
    let restore_wall_s = t1.elapsed().as_secs_f64();

    // Observed reshard run vs uninterrupted run.
    let baseline = engine(shards).run_full(&scen);
    let reversed: Vec<usize> = (0..n).map(|i| shards - 1 - (i * shards / n).min(shards - 1)).collect();
    let rec = RecordingObserver::new();
    let resharded = engine(shards)
        .run_resharded_observed(&scen, &ReshardPlan::single(RESHARD_AT, reversed), &rec)
        .expect("handoff decodes");
    let reg = rec.registry();
    let equivalent = outcome_key(&baseline) == outcome_key(&resharded);

    ReshardCell {
        instances: n,
        events_total: baseline.report.events_total,
        snapshot_bytes_per_instance: snapshot_bytes_total / n.max(1),
        checkpoint_wall_s,
        restore_ms_per_instance: restore_wall_s * 1000.0 / n.max(1) as f64,
        handoff_span_ms: reg.span_hist(Stage::Reshard).total_ns() as f64 / 1e6,
        snapshots_restored: reg.counter(Counter::SnapshotsRestored),
        equivalent,
    }
}

fn parse_csv(arg: Option<String>, default: &[usize]) -> Vec<usize> {
    arg.map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect::<Vec<_>>())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn gate_mode() -> ! {
    let cell = run_cell(2, 4, 9000);
    let mut failures = Vec::new();
    if !cell.equivalent {
        failures.push("resharded outcomes diverged from the uninterrupted run".to_string());
    }
    if cell.snapshot_bytes_per_instance < GATE_MIN_BYTES_PER_INSTANCE {
        failures.push(format!(
            "snapshot implausibly small: {} B/instance (< {} B) — state is being dropped",
            cell.snapshot_bytes_per_instance, GATE_MIN_BYTES_PER_INSTANCE
        ));
    }
    if cell.snapshot_bytes_per_instance > GATE_MAX_BYTES_PER_INSTANCE {
        failures.push(format!(
            "snapshot blew up: {} B/instance (> {} B)",
            cell.snapshot_bytes_per_instance, GATE_MAX_BYTES_PER_INSTANCE
        ));
    }
    if cell.restore_ms_per_instance > GATE_MAX_RESTORE_MS_PER_INSTANCE {
        failures.push(format!(
            "restore too slow: {:.1} ms/instance (> {} ms)",
            cell.restore_ms_per_instance, GATE_MAX_RESTORE_MS_PER_INSTANCE
        ));
    }
    if cell.snapshots_restored < cell.instances as u64 {
        failures.push(format!(
            "reshard restored only {} of {} instances",
            cell.snapshots_restored, cell.instances
        ));
    }
    eprintln!(
        "snapshot_smoke: {} B/instance, checkpoint {:.1} ms, restore {:.2} ms/instance, \
         handoff span {:.1} ms, equivalent: {}",
        cell.snapshot_bytes_per_instance,
        cell.checkpoint_wall_s * 1000.0,
        cell.restore_ms_per_instance,
        cell.handoff_span_ms,
        cell.equivalent
    );
    if failures.is_empty() {
        eprintln!("snapshot_smoke: OK");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("snapshot_smoke FAILED: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--gate") {
        gate_mode();
    }
    let instance_counts = parse_csv(args.get(1).cloned(), &[2, 4, 8]);
    let businesses: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(9000);

    println!(
        "{:>9} {:>12} {:>14} {:>12} {:>14} {:>12} {:>6}",
        "instances", "events", "KiB/instance", "ckpt ms", "restore ms/i", "handoff ms", "equal"
    );
    for &n in &instance_counts {
        let cell = run_cell(n, businesses, seed);
        println!(
            "{:>9} {:>12} {:>14.1} {:>12.1} {:>14.3} {:>12.1} {:>6}",
            cell.instances,
            cell.events_total,
            cell.snapshot_bytes_per_instance as f64 / 1024.0,
            cell.checkpoint_wall_s * 1000.0,
            cell.restore_ms_per_instance,
            cell.handoff_span_ms,
            cell.equivalent,
        );
        assert!(cell.equivalent, "resharded outcomes diverged at {n} instances");
    }
}
