//! The equivalence matrix: every way through the online engine reproduces
//! the batch pipeline's diagnoses bit-for-bit on the golden corpus.
//!
//! **Rows** are execution paths ([`PATHS`]): a static run, a mid-anomaly
//! reshard that reverses the shard assignment, a collapse → explode →
//! collapse reshard churn, checkpoint → resume before / inside / after the
//! anomaly under a different layout than cut the checkpoint, a resident
//! daemon booted under a wrong config that is corrected by a `PCTL` push
//! and then restarted mid-anomaly, the `PEVT` loopback transport, the
//! same with a mid-frame tear and a replaying reconnect, and the
//! single-instance replay. **Columns** are [`MatrixPoint`]s: shards ×
//! fanout × observer. Each cell
//! compares every case's [`common::Snapshot`] — scores as `f64` bit
//! patterns, so a single ULP of drift anywhere fails — against the batch
//! reference, and a failure names the path, the point and the case.
//!
//! The default tier is one `#[test]` per path (so `cargo test --test
//! equivalence reshard` runs just those rows): the baseline point over the
//! full 16-case corpus, then every off-baseline value of every axis (one
//! axis at a time, plus the all-moved corner) over one case per anomaly
//! kind. The root manifest's dev profile is optimized, so plain `cargo
//! test` will do; each test prints its wall time under `--nocapture`.
//! Cells run as many at once as fit a memory budget of cases in flight
//! (one full-corpus cell beside one short-corpus cell; see [`Admission`]).
//! The full cross-product
//! over the same row table is `#[ignore]`d:
//! `cargo test --test equivalence -- --ignored`.

mod common;

use common::{
    all_points, assert_run_matches_batch, axis_points, batch_reference, control, drive_loopback,
    golden_fleet_config, golden_scenarios, golden_streams, live_policy, load_manifest,
    one_per_kind, reversed, ManifestEntry, MatrixPoint, ObserverKind, Snapshot, MANIFEST,
};
use pinsql::{ConfigEpoch, Diagnosis, PinSqlConfig, PinSqlDelta};
use pinsql_engine::{
    plan_frames, replay_diagnose, ControlMsg, ControlResp, DaemonState, FleetConfig, FleetDaemon,
    FleetDelta, FleetRun, IngestSink, SourcePlan, TransportError,
};
use pinsql_dbsim::TelemetryEvent;
use pinsql_obs::{Counter, FleetHealth, NoopObserver, Observer, RecordingObserver, Stage};
use pinsql_scenario::{AnomalyKind, LabeledCase, Scenario};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One way through the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    RunFull,
    /// Quiesce at `at` and move every instance to the mirror shard.
    ReversedReshard {
        at: i64,
    },
    /// `shards` → one instance per shard at 400 → one shard at 900.
    Churn,
    /// Checkpoint at `at` under another layout, resume under the point's.
    Resume {
        at: i64,
    },
    /// Perturbed config, corrected by a push at 600, restarted at 800.
    Daemon,
    Loopback,
    /// [`Path::Loopback`] torn mid-frame halfway through, then resumed.
    LoopbackReconnect,
    /// `replay_diagnose`, one instance at a time (fanout = diagnosis
    /// parallelism; shards do not apply).
    Replay,
}

/// Declares the row table once: `PATHS` for the cross-product, and one
/// default-tier `#[test]` per row.
macro_rules! paths {
    ($($test:ident: $label:literal => $path:expr,)*) => {
        const PATHS: &[(&str, Path)] = &[$(($label, $path)),*];
        $(
            #[test]
            fn $test() {
                default_tier($label, $path);
            }
        )*
    };
}

// 800 s is mid-anomaly (open detector segments, partially folded
// minutes); 300 and 1100 bracket it.
paths! {
    run_full: "run_full" => Path::RunFull,
    reshard_reversed_at_800: "reversed reshard @800" => Path::ReversedReshard { at: 800 },
    reshard_churn: "shards->N->1 churn" => Path::Churn,
    resume_at_300: "checkpoint -> resume @300" => Path::Resume { at: 300 },
    resume_at_800: "checkpoint -> resume @800" => Path::Resume { at: 800 },
    resume_at_1100: "checkpoint -> resume @1100" => Path::Resume { at: 1100 },
    daemon_push_restart: "perturbed daemon + push + restart" => Path::Daemon,
    loopback: "loopback transport" => Path::Loopback,
    loopback_reconnect: "loopback transport + reconnect" => Path::LoopbackReconnect,
    replay: "single-instance replay" => Path::Replay,
}

/// Advance cadence (event-time seconds) the transport paths stream under.
const ADVANCE_EVERY_S: i64 = 60;

/// What a path hands back for comparison. `health` is `None` for the
/// replay path, which has no fleet rollup.
struct Outcome {
    cases: Vec<LabeledCase>,
    diagnoses: Vec<Diagnosis>,
    health: Option<FleetHealth>,
}

impl From<FleetRun> for Outcome {
    fn from(run: FleetRun) -> Self {
        Self { cases: run.cases, diagnoses: run.diagnoses, health: Some(run.health) }
    }
}

/// A spawn config that disagrees with the golden config on every knob a
/// [`FleetDelta`] can touch — the push must erase all of it.
fn perturbed_config(golden: &FleetConfig) -> FleetConfig {
    FleetConfig {
        delta_s: 120,
        pinsql: PinSqlConfig { tau: 0.5, rsql_score_min: 0.9, ..PinSqlConfig::default() },
        fanout: golden.fanout % 2 + 1,
        shards: 3,
        regions: 1,
        ..FleetConfig::default()
    }
}

/// The delta that turns [`perturbed_config`] back into `golden` (plus a
/// three-region rollup map, which is purely observational).
fn restoring_delta(golden: &FleetConfig) -> FleetDelta {
    let defaults = PinSqlConfig::default();
    FleetDelta {
        shards: Some(golden.shards),
        fanout: Some(golden.fanout),
        delta_s: Some(golden.delta_s),
        regions: Some(3),
        pinsql: PinSqlDelta {
            tau: Some(defaults.tau),
            rsql_score_min: Some(defaults.rsql_score_min),
            ..PinSqlDelta::default()
        },
    }
}

/// Streams `sc`'s telemetry (`streams`, borrowed: the plan owns a copy)
/// through the loopback into a hollow daemon. With `tear`, the first
/// connection dies mid-frame halfway through the plan (past the anomaly
/// onset) and a second one resumes from the sink's `Hello`, replaying
/// the unacked window.
fn loopback_run<O: Observer>(
    cfg: FleetConfig,
    sc: &[Scenario],
    streams: &[Vec<TelemetryEvent>],
    tear: bool,
    obs: &O,
) -> FleetRun {
    let total_events = streams.iter().map(Vec::len).sum::<usize>() as u64;
    let policy = live_policy(streams);
    let frames = plan_frames(streams, &policy, ADVANCE_EVERY_S);
    // Half the framed bytes plus two always lands inside a length prefix
    // or a body.
    let cut_at = frames.iter().map(|f| 4 + f.to_bytes().len()).sum::<usize>() / 2 + 2;
    let mut plan = SourcePlan::new(frames);
    let mut sink =
        IngestSink::new(FleetDaemon::spawn_hollow_observed(cfg, sc, obs.clone()), policy);

    if tear {
        let (src, agent) =
            drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, Some(cut_at));
        assert!(src.is_err(), "the source must notice the dead stream");
        match agent {
            // The usual shape: the agent reports the torn read. (A cut on
            // a frame boundary shows as a clean close instead.)
            Err(TransportError::Torn { got, want }) => assert!(got < want),
            Ok(()) => {}
            Err(other) => panic!("agent died with an unexpected error: {other}"),
        }
        assert!(!plan.finished(), "the cut left unsent or unacked frames");
    }
    let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
    src.expect("source completes");
    agent.expect("agent sees a clean close");
    assert!(plan.finished(), "every frame sent and acked");
    assert!(sink.fin_received(), "the stream declared itself complete");
    assert_eq!(plan.stats.resumes, u64::from(tear), "reconnect resumes");
    if !tear {
        assert_eq!(plan.stats.events_sent, total_events);
    }
    assert!(!plan.stats.watermark_regressed, "sink watermarks are monotone");
    sink.finish()
}

/// Runs one cell of the matrix over `corpus` under `obs`.
fn run_path<O: Observer>(path: Path, p: MatrixPoint, corpus: &Corpus, obs: &O) -> Outcome {
    let (sc, streams) = (&corpus.scenarios[..], &corpus.streams[..]);
    let n = sc.len();
    let cfg = golden_fleet_config(p);
    let spawn = |cfg: FleetConfig| {
        FleetDaemon::spawn(cfg, sc, streams.to_vec(), obs.clone()).expect("streams admitted")
    };
    // Quiesce at each boundary and hand the fleet over to its layout.
    let resharded = |steps: &[(i64, Vec<usize>)]| {
        let mut daemon = spawn(cfg.clone());
        for (at, assignment) in steps {
            daemon.advance_to(*at);
            daemon.reshard(assignment).expect("handoff decodes");
        }
        daemon.finish()
    };
    match path {
        Path::RunFull => {
            let run = resharded(&[]);
            assert_eq!(run.report.shards, p.shards.min(n));
            run.into()
        }
        Path::ReversedReshard { at } => resharded(&[(at, reversed(n, p.shards.min(n)))]).into(),
        Path::Churn => resharded(&[(400, (0..n).collect()), (900, vec![0; n])]).into(),
        Path::Resume { at } => {
            // A recovered fleet rarely comes back on the same machine
            // shape: cut the checkpoint under another layout.
            let crashed = FleetConfig { shards: 3, fanout: 5 - p.fanout.min(4), ..cfg.clone() };
            let mut daemon = spawn(crashed);
            daemon.advance_to(at);
            let ckpt = daemon.checkpoint();
            drop(daemon);
            assert_eq!(ckpt.at_second, at);
            assert_eq!(ckpt.snapshots.len(), n);
            assert!(ckpt.total_bytes() > 0);
            let resumed = FleetDaemon::resume(cfg, sc, streams.to_vec(), &ckpt, obs.clone());
            resumed.expect("checkpoint decodes").finish().into()
        }
        Path::Daemon => {
            let mut agent = spawn(perturbed_config(&cfg));
            let ack = |state| ControlResp::Ack { epoch: ConfigEpoch(1), state };
            // Ingest under the wrong config, then push the correction: the
            // in-place apply at the watermark must leave no trace of the
            // perturbed thresholds, look-back, or layout.
            agent.advance_to(600);
            let push = ControlMsg::ConfigPush { epoch: ConfigEpoch(1), delta: restoring_delta(&cfg) };
            assert_eq!(control(&mut agent, push), ack(DaemonState::Running), "epoch 1 acked");
            // Keep ingesting into the anomaly window, then restart with
            // detector segments open — the crash drill mid-anomaly.
            agent.advance_to(800);
            assert_eq!(control(&mut agent, ControlMsg::Restart), ack(DaemonState::Running));
            assert_eq!(control(&mut agent, ControlMsg::Stop), ack(DaemonState::Stopped));
            let run = agent.finish();
            assert_eq!(run.report.config_epoch, 1, "report carries the epoch");
            assert_eq!(run.report.shards, p.shards.min(n), "final shard layout");
            run.into()
        }
        Path::Loopback => loopback_run(cfg, sc, streams, false, obs).into(),
        Path::LoopbackReconnect => loopback_run(cfg, sc, streams, true, obs).into(),
        Path::Replay => {
            let pinsql = cfg.pinsql.clone().with_parallelism(p.fanout);
            let cfg = FleetConfig { pinsql, ..cfg };
            let (cases, diagnoses) = sc
                .iter()
                .zip(streams)
                .map(|(s, events)| replay_diagnose(s, events.clone(), &cfg, obs))
                .unzip();
            Outcome { cases, diagnoses, health: None }
        }
    }
}

/// A recording run must leave the trace its path implies, so the observer
/// axis cannot pass vacuously with instrumentation compiled out.
fn assert_trace(path: Path, p: MatrixPoint, n: usize, obs: &RecordingObserver, what: &str) {
    let reg = obs.registry();
    let spans = |stage: Stage| reg.span_hist(stage).count();
    let shards = p.shards.min(n) as u64;
    for stage in [Stage::SessionEstimate, Stage::Hsql, Stage::Rsql, Stage::WindowCut] {
        assert_eq!(spans(stage), n as u64, "{what}: one {} span per case", stage.name());
    }
    assert!(spans(Stage::CellFold) > 0, "{what}: folds recorded");
    assert!(spans(Stage::DetectorStep) > 0, "{what}: detector steps recorded");
    match path {
        Path::RunFull => {
            assert_eq!(spans(Stage::IngestMerge), shards, "{what}: one merge per shard");
            // main + inst{i} + r0shard{s} + diag{i}.
            assert_eq!(obs.lanes().len() as u64, 1 + n as u64 + shards + n as u64, "{what}");
        }
        Path::ReversedReshard { .. } => {
            assert_eq!(spans(Stage::Reshard), 1, "{what}");
            // Mirroring moves everyone unless there is one shard (or a
            // middle shard of an odd count, which 1/2/4 never has).
            let moved = if shards > 1 { n as u64 } else { 0 };
            assert_eq!(reg.counter(Counter::InstancesResharded), moved, "{what}");
        }
        Path::Churn => assert_eq!(spans(Stage::Reshard), 2, "{what}"),
        Path::Resume { .. } => {
            assert_eq!(reg.counter(Counter::SnapshotsWritten), n as u64, "{what}");
            assert_eq!(reg.counter(Counter::SnapshotsRestored), n as u64, "{what}");
        }
        Path::Daemon => {
            assert_eq!(reg.counter(Counter::ConfigPushes), 1, "{what}");
            assert_eq!(reg.counter(Counter::DaemonRestarts), 1, "{what}");
        }
        Path::Loopback | Path::LoopbackReconnect => {
            assert!(reg.counter(Counter::EventFrames) > 0, "{what}: frames recorded");
            let resumes = u64::from(path == Path::LoopbackReconnect);
            assert_eq!(reg.counter(Counter::TransportResumes), resumes, "{what}");
        }
        Path::Replay => {}
    }
}

/// One corpus with its scenarios, their event streams, its batch
/// reference, and the first fleet-shaped health rollup seen on it (every
/// later one must equal it: health is part of the output contract, on
/// every path). Shared by the per-path tests, so each case is simulated
/// once per process and every cell clones or borrows its streams.
struct Corpus {
    entries: Vec<ManifestEntry>,
    scenarios: Vec<Scenario>,
    streams: Vec<Vec<TelemetryEvent>>,
    batch: Vec<Snapshot>,
    health: Mutex<Option<(String, FleetHealth)>>,
}

impl Corpus {
    fn new(entries: Vec<ManifestEntry>) -> Self {
        let batch = batch_reference(&entries);
        let scenarios = golden_scenarios(&entries);
        let streams = golden_streams(&entries);
        Self { entries, scenarios, streams, batch, health: Mutex::new(None) }
    }

    /// All 16 golden cases.
    fn full() -> &'static Corpus {
        static FULL: OnceLock<Corpus> = OnceLock::new();
        FULL.get_or_init(|| Corpus::new(load_manifest()))
    }

    /// One case per anomaly kind.
    fn short() -> &'static Corpus {
        static SHORT: OnceLock<Corpus> = OnceLock::new();
        SHORT.get_or_init(|| Corpus::new(one_per_kind()))
    }

    /// Runs one cell and checks it: snapshots against batch, trace if
    /// recorded, health against the corpus's first. The cell waits for
    /// its cases to fit the [`Admission`] budget. Returns the cell's own
    /// wall time, waiting excluded.
    fn check(&self, name: &str, path: Path, p: MatrixPoint) -> Duration {
        let _admitted = Admission::wait(self.scenarios.len());
        let t = Instant::now();
        let what = format!("{name} ({})", p.label());
        let out = match p.observer {
            ObserverKind::Noop => run_path(path, p, self, &NoopObserver),
            ObserverKind::Recording => {
                let obs = RecordingObserver::new();
                let out = run_path(path, p, self, &obs);
                assert_trace(path, p, self.scenarios.len(), &obs, &what);
                out
            }
        };
        assert_run_matches_batch(&self.entries, &self.batch, &out.cases, &out.diagnoses, &what);
        if let Some(health) = out.health {
            let mut pinned = self.health.lock().unwrap_or_else(|e| e.into_inner());
            match &*pinned {
                Some((first, pin)) => {
                    assert_eq!(&health, pin, "{what}: health differs from {first}")
                }
                None => *pinned = Some((what, health)),
            }
        }
        t.elapsed()
    }
}

/// Cases in flight across every running cell. A cell holds its corpus's
/// streams, their resident records and (on the wire paths) the frame plan
/// — well over a gigabyte for the full corpus — so memory, not cores,
/// bounds how many cells run at once: one full-corpus cell beside one
/// short-corpus cell, or short cells alone, whatever libtest's thread
/// count. Most cells keep one core busy (one shard, fanout 1), so this
/// lets a second core work through short cells while a full one runs.
const CASES_IN_FLIGHT: usize = MANIFEST.len() + AnomalyKind::ALL.len();

static IN_FLIGHT: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());

/// A cell's share of [`CASES_IN_FLIGHT`], returned when dropped (also on
/// the unwind of a failing cell).
struct Admission(usize);

impl Admission {
    /// Blocks until `cases` more fit the budget. A cell alone always fits.
    fn wait(cases: usize) -> Self {
        let cases = cases.min(CASES_IN_FLIGHT);
        let (in_flight, freed) = &IN_FLIGHT;
        // Poison only means another path already failed; carry on.
        let mut held = in_flight.lock().unwrap_or_else(|e| e.into_inner());
        while *held + cases > CASES_IN_FLIGHT {
            held = freed.wait(held).unwrap_or_else(|e| e.into_inner());
        }
        *held += cases;
        Self(cases)
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        let (in_flight, freed) = &IN_FLIGHT;
        *in_flight.lock().unwrap_or_else(|e| e.into_inner()) -= self.0;
        freed.notify_all();
    }
}

/// The default tier for one path: the baseline point on the full corpus,
/// then every axis value and the all-moved corner on one case per kind.
fn default_tier(name: &str, path: Path) {
    let full = Corpus::full().check(name, path, MatrixPoint::BASELINE);
    let short: Duration = axis_points().iter().map(|&p| Corpus::short().check(name, path, p)).sum();
    println!(
        "equivalence: {name}: full corpus at baseline {:.1}s + {} short-corpus points {:.1}s",
        full.as_secs_f64(),
        axis_points().len(),
        short.as_secs_f64()
    );
}

/// The full cross-product the per-path suites used to declare, over the
/// same row table and the full corpus: 10 paths × 12 points. Hours, not
/// minutes — run it when a change touches how two axes interact.
#[test]
#[ignore = "full cross-product: ~120 full-corpus runs"]
fn full_cross_product_matches_batch() {
    let t0 = Instant::now();
    for &(name, path) in PATHS {
        for p in all_points() {
            Corpus::full().check(name, path, p);
        }
        println!("equivalence: {name}: {:.1}s so far", t0.elapsed().as_secs_f64());
    }
}
