//! Resident-daemon cost sweep: steady-state ingest throughput, config-push
//! pause, and restart-recovery time vs fleet size.
//!
//! For every (instances, businesses) cell this bin drives a
//! [`FleetServer`]-steered [`FleetDaemon`] through a realistic day in the
//! life of a resident fleet:
//!
//! * ingest to event-time watermarks in fixed steps (the steady state),
//!   reporting aggregate events/sec across all advances;
//! * push a versioned config delta mid-anomaly (kernel swap + region
//!   remap) and report the wall-clock pause — the quiesce + whole-fleet
//!   snapshot handoff + apply;
//! * gracefully restart the daemon with detector segments open and report
//!   the recovery time;
//! * stop, and cross-check the outcomes against an uninterrupted
//!   `FleetEngine::run_full` under the final config (the cheap in-bench
//!   guard; the real byte-level matrix lives in
//!   `tests/equivalence.rs`).
//!
//! Usage: `cargo run -p pinsql-bench --release --bin daemon [-- INSTANCES_CSV [BUSINESSES [SEED]]]`
//! Defaults: instances `2,4,8`, businesses 6, seed 11000.
//!
//! `--gate` runs the smallest cell only and exits non-zero if the
//! equivalence cross-check fails, the control counters disagree with the
//! driven lifecycle, or the push-pause / restart-latency sanity bounds
//! are blown — the `scripts/ci.sh daemon_smoke` hook.

#![forbid(unsafe_code)]

use pinsql::PinSqlConfig;
use pinsql_detect::KernelKind;
use pinsql_engine::{FleetConfig, FleetDaemon, FleetDelta, FleetEngine, FleetServer};
use pinsql_obs::{Counter, RecordingObserver};
use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, Scenario, ScenarioConfig};
use std::time::Instant;

const WINDOW_S: i64 = 600;
const ANOMALY: (i64, i64) = (360, 480);
const DELTA_S: i64 = 240;
/// Event-time watermark step for the steady-state phase.
const STEP_S: i64 = 60;
/// Config push lands mid-anomaly, restart shortly after — both with open
/// detector segments, the most state-heavy moment.
const PUSH_AT: i64 = 420;
const RESTART_AT: i64 = 480;

/// Sanity bounds for `--gate`: generous enough for a slow CI host, tight
/// enough to catch an accidental full replay hiding in the handoff.
const GATE_MAX_PUSH_PAUSE_MS: f64 = 5_000.0;
const GATE_MAX_RESTART_MS: f64 = 5_000.0;

struct DaemonCell {
    instances: usize,
    events_total: u64,
    events_per_sec: f64,
    /// Wall-clock pause of the mid-anomaly config push (quiesce +
    /// snapshot handoff + apply, measured at the server).
    push_pause_ms: f64,
    /// Wall-clock recovery time of the graceful restart.
    restart_ms: f64,
    config_pushes: u64,
    daemon_restarts: u64,
    control_frames: u64,
    final_epoch: u64,
    /// Daemon outcomes identical to an uninterrupted run under the final
    /// config.
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

/// The daemon spawns under the reference kernel; the mid-stream push
/// swaps to the fast kernel and remaps the rollup regions, so the final
/// config is `final_config` and the handoff has real work to do.
fn initial_config(shards: usize) -> FleetConfig {
    FleetConfig {
        delta_s: DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout: 0,
        shards,
        kernel: KernelKind::Reference,
        regions: 1,
    }
}

fn final_config(shards: usize) -> FleetConfig {
    FleetConfig { kernel: KernelKind::Fast, regions: 2, ..initial_config(shards) }
}

fn push_delta() -> FleetDelta {
    FleetDelta {
        kernel: Some(KernelKind::Fast),
        regions: Some(2),
        ..FleetDelta::default()
    }
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

fn run_cell(n: usize, businesses: usize, seed: u64) -> DaemonCell {
    let scen = scenarios(n, businesses, seed);
    let shards = 2.min(n);

    let rec = RecordingObserver::new();
    let mut server =
        FleetServer::with_agent(FleetDaemon::spawn_observed(initial_config(shards), &scen, rec.clone()));

    // Steady state: fold to each watermark in turn.
    let mut ingest_wall_s = 0.0;
    let mut advance = |server: &mut FleetServer<'_, RecordingObserver>, to: i64| {
        let t = Instant::now();
        server.advance_to(to);
        ingest_wall_s += t.elapsed().as_secs_f64();
    };
    let mut at = STEP_S;
    while at <= PUSH_AT {
        advance(&mut server, at);
        at += STEP_S;
    }

    // Mid-anomaly config push: the pause the fleet actually observes.
    let t_push = Instant::now();
    let epoch = server.push_config(push_delta()).expect("config push acked");
    let push_pause_ms = t_push.elapsed().as_secs_f64() * 1000.0;

    advance(&mut server, RESTART_AT);

    // Graceful restart with open segments: the crash drill.
    let t_restart = Instant::now();
    server.restart().expect("graceful restart acked");
    let restart_ms = t_restart.elapsed().as_secs_f64() * 1000.0;

    // Drain the tail inside the timed window, then stop.
    advance(&mut server, WINDOW_S + DELTA_S);
    let run = server.stop().expect("daemon drains and stops");

    let baseline = FleetEngine::new(final_config(shards)).run_full(&scen);
    let equivalent = outcome_key(&baseline) == outcome_key(&run);

    let reg = rec.registry();
    DaemonCell {
        instances: n,
        events_total: run.report.events_total,
        events_per_sec: run.report.events_total as f64 / ingest_wall_s.max(1e-9),
        push_pause_ms,
        restart_ms,
        config_pushes: reg.counter(Counter::ConfigPushes),
        daemon_restarts: reg.counter(Counter::DaemonRestarts),
        control_frames: reg.counter(Counter::ControlFrames),
        final_epoch: epoch.0,
        equivalent,
    }
}

fn parse_csv(arg: Option<String>, default: &[usize]) -> Vec<usize> {
    arg.map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect::<Vec<_>>())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn gate_mode() -> ! {
    let cell = run_cell(2, 4, 11000);
    let mut failures = Vec::new();
    if !cell.equivalent {
        failures.push(
            "daemon outcomes diverged from the uninterrupted run under the final config"
                .to_string(),
        );
    }
    if cell.push_pause_ms > GATE_MAX_PUSH_PAUSE_MS {
        failures.push(format!(
            "config push paused {:.1} ms (> {} ms) — the handoff is replaying, not snapshotting",
            cell.push_pause_ms, GATE_MAX_PUSH_PAUSE_MS
        ));
    }
    if cell.restart_ms > GATE_MAX_RESTART_MS {
        failures.push(format!(
            "restart took {:.1} ms (> {} ms)",
            cell.restart_ms, GATE_MAX_RESTART_MS
        ));
    }
    if cell.config_pushes != 1 || cell.daemon_restarts != 1 {
        failures.push(format!(
            "lifecycle counters disagree with the driven run: {} pushes, {} restarts (expected 1 each)",
            cell.config_pushes, cell.daemon_restarts
        ));
    }
    if cell.final_epoch != 1 {
        failures.push(format!("first push minted epoch {}, expected 1", cell.final_epoch));
    }
    eprintln!(
        "daemon_smoke: {:.0} events/s steady state, push pause {:.1} ms, restart {:.1} ms, \
         {} control frames, equivalent: {}",
        cell.events_per_sec, cell.push_pause_ms, cell.restart_ms, cell.control_frames, cell.equivalent
    );
    if failures.is_empty() {
        eprintln!("daemon_smoke: OK");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("daemon_smoke FAILED: {f}");
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
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(11000);

    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>6}",
        "instances", "events", "events/s", "push ms", "restart ms", "frames", "equal"
    );
    for &n in &instance_counts {
        let cell = run_cell(n, businesses, seed);
        println!(
            "{:>9} {:>12} {:>12.0} {:>12.1} {:>12.1} {:>10} {:>6}",
            cell.instances,
            cell.events_total,
            cell.events_per_sec,
            cell.push_pause_ms,
            cell.restart_ms,
            cell.control_frames,
            cell.equivalent,
        );
        assert!(cell.equivalent, "daemon outcomes diverged at {n} instances");
    }
}
