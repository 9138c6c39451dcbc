//! Cross-process ingest transport benchmark: socketed events/sec and
//! per-frame sink latency vs `PEVT` batch size.
//!
//! For every batch size this bin replays the same four-scenario fleet
//! twice:
//!
//! * over the in-memory loopback transport — `run_source` against a
//!   `serve_agent`-hosted [`IngestSink`], credits and all — reporting
//!   end-to-end events/sec (best of `reps`, frame planning excluded);
//! * through a direct `handle_event_frame` loop with an `Instant`
//!   around every frame, reporting the mean and p99 apply latency. The
//!   tail is dominated by the pressure folds the `Advance` marks and
//!   the credit regulator trigger — exactly the stall a real agent's
//!   connection would see.
//!
//! Every wired run is cross-checked against an uninterrupted
//! `FleetEngine::run_full` of the same fleet (the cheap in-bench guard;
//! the byte-level matrix lives in `tests/equivalence.rs`).
//!
//! Usage: `cargo run -p pinsql-bench --release --bin transport [-- BATCH_CSV [BUSINESSES [SEED [REPS]]]]`
//! Defaults: batches `16,64,256,1024`, businesses 6, seed 12000,
//! best of 3. Writes `results/transport.json`.
//!
//! `--gate` runs the default batch size only and exits non-zero if the
//! wired outcomes diverge from `run_full`, an event is lost, a
//! watermark regresses, the memory bound breaks, or the p99 frame
//! latency blows a generous sanity bound — the
//! `scripts/ci.sh transport_smoke` hook.

use pinsql::{PinSqlConfig, TransportPolicy};
use pinsql_detect::{CutKind, KernelKind};
use pinsql_engine::{
    pipe_pair, plan_frames, run_source, serve_agent, EventFrame, FleetConfig, FleetDaemon,
    FleetEngine, IngestSink, SourcePlan, SourceStats,
};
use pinsql_scenario::{
    generate_base, inject, inject_none, materialize_events, AnomalyKind, Scenario, ScenarioConfig,
};
use serde::Serialize;
use std::time::Instant;

const WINDOW_S: i64 = 600;
const ANOMALY: (i64, i64) = (360, 480);
const DELTA_S: i64 = 300;
/// Event-time cadence of the source's `Advance` marks.
const ADVANCE_EVERY_S: i64 = 60;

/// `--gate` sanity bound: generous enough for a slow CI host under the
/// reference kernel, tight enough to catch a fold accidentally gone
/// quadratic. The folds *are* the tail — a frame that lands on a
/// pressure fold pays for the whole drained span.
const GATE_MAX_P99_MS: f64 = 1_000.0;

#[derive(Serialize)]
struct TransportCell {
    batch_events: usize,
    frames: usize,
    /// Length-prefixed bytes of the whole planned stream.
    wire_bytes: u64,
    events_total: u64,
    /// Best-of-reps wall time of the threaded loopback run.
    wall_s: f64,
    events_per_sec: f64,
    /// Direct-apply latency per frame at the sink, all reps pooled.
    mean_frame_us: f64,
    p99_frame_us: f64,
    credit_stalls: u64,
    acks: u64,
    max_inflight_events: u64,
    peak_buffered: usize,
    /// Wired outcomes identical to an uninterrupted `run_full`.
    equivalent: bool,
}

#[derive(Serialize)]
struct TransportSweep {
    git_rev: String,
    seed: u64,
    businesses: usize,
    window_s: i64,
    delta_s: i64,
    advance_every_s: i64,
    queue_capacity: usize,
    cells: Vec<TransportCell>,
}

fn scenarios(businesses: usize, seed: u64) -> Vec<Scenario> {
    let kinds = [
        Some(AnomalyKind::BusinessSpike),
        Some(AnomalyKind::PoorSql),
        Some(AnomalyKind::RowLock),
        None,
    ];
    kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let cfg = ScenarioConfig::default()
                .with_seed(seed + i as u64)
                .with_businesses(businesses)
                .with_window(WINDOW_S, ANOMALY.0, ANOMALY.1);
            let base = generate_base(&cfg);
            match kind {
                Some(kind) => inject(&base, &cfg, *kind),
                None => inject_none(&base, &cfg),
            }
        })
        .collect()
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        delta_s: DELTA_S,
        pinsql: PinSqlConfig::default().with_cut(CutKind::Incremental),
        fanout: 1,
        shards: 2,
        kernel: KernelKind::Fast,
        ..FleetConfig::default()
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

/// One threaded loopback run: wall time, source stats, sink peak, and
/// the finished run for the equivalence cross-check.
fn run_wire(
    frames: Vec<EventFrame>,
    scen: &[Scenario],
    policy: TransportPolicy,
) -> (f64, SourceStats, usize, pinsql_engine::FleetRun) {
    let mut plan = SourcePlan::new(frames);
    let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(fleet_config(), scen), policy);
    let (mut source_conn, mut agent_conn) = pipe_pair(policy.max_frame_bytes);
    let sink_ref = &mut sink;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let agent = s.spawn(move || serve_agent(&mut agent_conn, sink_ref));
        run_source(&mut source_conn, &mut plan).expect("source completes");
        drop(source_conn);
        agent.join().expect("agent thread").expect("agent clean close");
    });
    let wall = t0.elapsed().as_secs_f64();
    assert!(plan.finished() && sink.fin_received(), "stream must drain to Fin");
    let peak = sink.peak_buffered();
    (wall, plan.stats.clone(), peak, sink.finish())
}

/// Direct-apply latencies: every planned frame through
/// `handle_event_frame`, one `Instant` each. The plan order is exactly
/// what a credit-respecting source sends, so the sink's own pressure
/// folds keep it inside the queue bound without a peer.
fn frame_latencies_us(frames: &[EventFrame], scen: &[Scenario], policy: TransportPolicy) -> Vec<f64> {
    let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(fleet_config(), scen), policy);
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let bytes = frame.to_bytes();
        let t0 = Instant::now();
        sink.handle_event_frame(&bytes).expect("planned frame applies");
        out.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn run_cell(batch_events: usize, scen: &[Scenario], reps: usize) -> TransportCell {
    let policy = TransportPolicy::default().with_batch_events(batch_events);
    policy.validate().expect("sweep policy is valid");
    let streams: Vec<_> = scen.iter().map(|s| materialize_events(s, None)).collect();
    let events_total: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let frames = plan_frames(&streams, &policy, ADVANCE_EVERY_S);
    let wire_bytes: u64 = frames.iter().map(|f| 4 + f.to_bytes().len() as u64).sum();

    let direct_key = outcome_key(&FleetEngine::new(fleet_config()).run_full(scen));

    let mut best: Option<(f64, SourceStats, usize)> = None;
    let mut equivalent = true;
    for _ in 0..reps.max(1) {
        let (wall, stats, peak, run) = run_wire(frames.clone(), scen, policy);
        equivalent &= outcome_key(&run) == direct_key;
        if best.as_ref().map_or(true, |(w, ..)| wall < *w) {
            best = Some((wall, stats, peak));
        }
    }
    let (wall_s, stats, peak_buffered) = best.expect("at least one rep");

    let mut lat = Vec::new();
    for _ in 0..reps.max(1) {
        lat.extend(frame_latencies_us(&frames, scen, policy));
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean_frame_us = lat.iter().sum::<f64>() / lat.len() as f64;
    let p99_frame_us = percentile(&lat, 0.99);

    TransportCell {
        batch_events,
        frames: frames.len(),
        wire_bytes,
        events_total,
        wall_s,
        events_per_sec: events_total as f64 / wall_s.max(1e-9),
        mean_frame_us,
        p99_frame_us,
        credit_stalls: stats.credit_stalls,
        acks: stats.acks,
        max_inflight_events: stats.max_inflight_events,
        peak_buffered,
        equivalent,
    }
}

fn gate_mode(businesses: usize, seed: u64) -> ! {
    let scen = scenarios(businesses, seed);
    let cell = run_cell(TransportPolicy::default().batch_events, &scen, 1);
    let capacity = TransportPolicy::default().queue_capacity;
    let mut failures = Vec::new();
    if !cell.equivalent {
        failures.push("wired outcomes diverged from the uninterrupted run".to_string());
    }
    if cell.peak_buffered > capacity {
        failures.push(format!(
            "sink buffered {} of a {capacity}-event queue — the credit bound broke",
            cell.peak_buffered
        ));
    }
    if cell.max_inflight_events > capacity as u64 {
        failures.push(format!(
            "source kept {} events in flight against a {capacity}-event grant",
            cell.max_inflight_events
        ));
    }
    if cell.p99_frame_us > GATE_MAX_P99_MS * 1_000.0 {
        failures.push(format!(
            "p99 frame latency {:.1} ms (> {} ms) — a fold has gone quadratic",
            cell.p99_frame_us / 1_000.0,
            GATE_MAX_P99_MS
        ));
    }
    eprintln!(
        "transport_smoke: {:.0} events/s over loopback, p99 frame {:.0} us, {} stalls, \
         peak {}/{capacity}, equivalent: {}",
        cell.events_per_sec, cell.p99_frame_us, cell.credit_stalls, cell.peak_buffered,
        cell.equivalent
    );
    if failures.is_empty() {
        eprintln!("transport_smoke: OK");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("transport_smoke FAILED: {f}");
    }
    std::process::exit(1);
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all("results")
        .map_err(|e| e.to_string())
        .and_then(|_| serde_json::to_string_pretty(value).map_err(|e| e.to_string()))
        .and_then(|json| std::fs::write(path, json + "\n").map_err(|e| e.to_string()))
    {
        eprintln!("failed to write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let businesses: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(12000);
    if args.iter().any(|a| a == "--gate") {
        gate_mode(businesses, seed);
    }
    let batches: Vec<usize> = args
        .get(1)
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect::<Vec<_>>())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![16, 64, 256, 1024]);
    let reps: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(3);

    let scen = scenarios(businesses, seed);
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>6}",
        "batch", "frames", "wire bytes", "events/s", "mean us", "p99 us", "stalls", "equal"
    );
    let mut cells = Vec::new();
    for &batch in &batches {
        let cell = run_cell(batch, &scen, reps);
        println!(
            "{:>6} {:>8} {:>12} {:>12.0} {:>12.1} {:>10.1} {:>8} {:>6}",
            cell.batch_events,
            cell.frames,
            cell.wire_bytes,
            cell.events_per_sec,
            cell.mean_frame_us,
            cell.p99_frame_us,
            cell.credit_stalls,
            cell.equivalent,
        );
        assert!(cell.equivalent, "wired outcomes diverged at batch {batch}");
        cells.push(cell);
    }
    let sweep = TransportSweep {
        git_rev: git_rev(),
        seed,
        businesses,
        window_s: WINDOW_S,
        delta_s: DELTA_S,
        advance_every_s: ADVANCE_EVERY_S,
        queue_capacity: TransportPolicy::default().queue_capacity,
        cells,
    };
    write_json("results/transport.json", &sweep);
}
