//! Shared fixtures for the golden-corpus suites: the manifest (a const
//! table), the rank-relevant `Snapshot` view of a diagnosis, the batch
//! pipeline that produces it, and the axes of the equivalence matrix
//! (`tests/equivalence.rs` holds the execution paths). `golden_corpus.rs`
//! pins snapshots to disk; everything else compares `Snapshot` structs
//! against the batch reference via [`assert_run_matches_batch`].

#![allow(dead_code)]

use pinsql::{Diagnosis, PinSql, PinSqlConfig};
use pinsql_detect::{CutKind, KernelKind};
use pinsql_engine::FleetConfig;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_json::Json;
use pinsql_timeseries::par::par_map;
use pinsql_scenario::{
    generate_base, inject, materialize, AnomalyKind, LabeledCase, Scenario, ScenarioConfig,
};
use pinsql_workload::rng::{RngExt, StdRng};
use pinsql_workload::SpecId;
use std::path::{Path, PathBuf};

/// Collection look-back used for every golden case.
pub const GOLDEN_DELTA_S: i64 = 600;

#[derive(Debug, Clone, Copy)]
pub struct ManifestEntry {
    pub name: &'static str,
    pub kind: &'static str,
    pub seed: u64,
}

const fn entry(name: &'static str, kind: &'static str, seed: u64) -> ManifestEntry {
    ManifestEntry { name, kind, seed }
}

/// The golden corpus: 16 seeded cases, four per anomaly kind.
pub const MANIFEST: [ManifestEntry; 16] = [
    entry("business_spike_7000", "business_spike", 7000),
    entry("business_spike_7001", "business_spike", 7001),
    entry("business_spike_7002", "business_spike", 7002),
    entry("business_spike_7003", "business_spike", 7003),
    entry("poor_sql_7100", "poor_sql", 7100),
    entry("poor_sql_7101", "poor_sql", 7101),
    entry("poor_sql_7102", "poor_sql", 7102),
    entry("poor_sql_7103", "poor_sql", 7103),
    entry("mdl_lock_7200", "mdl_lock", 7200),
    entry("mdl_lock_7201", "mdl_lock", 7201),
    entry("mdl_lock_7202", "mdl_lock", 7202),
    entry("mdl_lock_7203", "mdl_lock", 7203),
    entry("row_lock_7300", "row_lock", 7300),
    entry("row_lock_7301", "row_lock", 7301),
    entry("row_lock_7302", "row_lock", 7302),
    entry("row_lock_7303", "row_lock", 7303),
];

/// The rank-relevant, timing-free view of one diagnosed case.
#[derive(Debug, PartialEq)]
pub struct Snapshot {
    pub name: String,
    pub kind: String,
    pub seed: u64,
    pub detected: bool,
    pub anomaly_type: String,
    pub window: (i64, i64, i64),
    pub truth_rsqls: Vec<u64>,
    pub truth_hsqls: Vec<u64>,
    pub n_clusters: usize,
    pub selected_clusters: usize,
    pub n_verified: usize,
    pub n_reported: usize,
    /// Top-ranked templates as `(id, label, score bits as hex)` — bit-exact
    /// scores keep the comparison exact (and a failure message readable)
    /// without decimal formatting ambiguity.
    pub top_rsqls: Vec<(u64, String, String)>,
    pub top_hsqls: Vec<(u64, String, String)>,
}

impl Snapshot {
    /// The document `golden_corpus.rs` pins to disk. Template ids are
    /// 64-bit fingerprints, more than a JSON number carries exactly, so
    /// they are written like the scores: as 16 hex digits.
    pub fn to_json(&self) -> Json {
        let num = |n: i64| Json::Num(n as f64);
        let hex = |id: &u64| Json::str(format!("{id:016x}"));
        let ids = |ids: &[u64]| Json::Arr(ids.iter().map(hex).collect());
        let ranked = |list: &[(u64, String, String)]| {
            Json::Arr(
                list.iter()
                    .map(|(id, label, score_bits)| {
                        Json::obj([
                            ("id", hex(id)),
                            ("label", Json::str(label.as_str())),
                            ("score_bits", Json::str(score_bits.as_str())),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("name", Json::str(self.name.as_str())),
            ("kind", Json::str(self.kind.as_str())),
            ("seed", num(self.seed as i64)),
            ("detected", Json::Bool(self.detected)),
            ("anomaly_type", Json::str(self.anomaly_type.as_str())),
            ("window", Json::Arr(vec![num(self.window.0), num(self.window.1), num(self.window.2)])),
            ("truth_rsqls", ids(&self.truth_rsqls)),
            ("truth_hsqls", ids(&self.truth_hsqls)),
            ("n_clusters", num(self.n_clusters as i64)),
            ("selected_clusters", num(self.selected_clusters as i64)),
            ("n_verified", num(self.n_verified as i64)),
            ("n_reported", num(self.n_reported as i64)),
            ("top_rsqls", ranked(&self.top_rsqls)),
            ("top_hsqls", ranked(&self.top_hsqls)),
        ])
    }
}

pub fn top5(list: &[pinsql::RankedTemplate]) -> Vec<(u64, String, String)> {
    list.iter()
        .take(5)
        .map(|r| (r.id.0, r.label.clone(), format!("{:016x}", r.score.to_bits())))
        .collect()
}

pub fn kind_of(s: &str) -> AnomalyKind {
    AnomalyKind::ALL
        .into_iter()
        .find(|k| k.label() == s)
        .unwrap_or_else(|| panic!("unknown kind in manifest: {s}"))
}

/// `tests/golden`, located from this file's own path. Read-only fixtures
/// come in through `include_bytes!`; this is for the suite that blesses
/// files onto disk.
pub fn golden_dir() -> PathBuf {
    let tests = Path::new(file!()).parent().and_then(Path::parent);
    tests.expect("tests/common/mod.rs has a grandparent").join("golden")
}

/// The 16-case manifest, sanity-checked.
pub fn load_manifest() -> Vec<ManifestEntry> {
    for kind in AnomalyKind::ALL {
        assert_eq!(
            MANIFEST.iter().filter(|e| e.kind == kind.label()).count(),
            4,
            "manifest must hold four {} cases",
            kind.label()
        );
    }
    MANIFEST.to_vec()
}

/// One case of each anomaly kind — the short corpus the matrix runs at
/// its off-baseline points.
pub fn one_per_kind() -> Vec<ManifestEntry> {
    MANIFEST.iter().step_by(4).copied().collect()
}

/// Rebuilds a manifest entry's scenario (pure function of the entry).
pub fn scenario_for(entry: &ManifestEntry) -> Scenario {
    let cfg = ScenarioConfig::default().with_seed(entry.seed);
    let base = generate_base(&cfg);
    inject(&base, &cfg, kind_of(entry.kind))
}

/// Builds the snapshot view from an already-labelled, already-diagnosed
/// case — shared by the batch and online paths so both compare through
/// the exact same struct.
pub fn snapshot_of(entry: &ManifestEntry, lc: &LabeledCase, d: &Diagnosis) -> Snapshot {
    Snapshot {
        name: entry.name.to_string(),
        kind: entry.kind.to_string(),
        seed: entry.seed,
        detected: lc.detected,
        anomaly_type: lc.anomaly_type.clone(),
        window: (lc.window.ts(), lc.window.anomaly_start, lc.window.anomaly_end),
        truth_rsqls: lc.truth.rsqls.iter().map(|id| id.0).collect(),
        truth_hsqls: lc.truth.hsqls.iter().map(|id| id.0).collect(),
        n_clusters: d.n_clusters,
        selected_clusters: d.selected_clusters,
        n_verified: d.n_verified,
        n_reported: d.reported_rsqls.len(),
        top_rsqls: top5(&d.rsqls),
        top_hsqls: top5(&d.hsqls),
    }
}

/// Materializes and diagnoses one manifest entry through the batch path.
pub fn batch_snapshot(entry: &ManifestEntry, parallelism: usize) -> (Snapshot, Diagnosis) {
    let scenario = scenario_for(entry);
    let lc = materialize(&scenario, GOLDEN_DELTA_S);
    let d = PinSql::new(PinSqlConfig::default().with_parallelism(parallelism)).diagnose(
        &lc.case,
        &lc.window,
        &lc.history,
        lc.minutes_origin,
    );
    let snap = snapshot_of(entry, &lc, &d);
    (snap, d)
}

/// The batch reference, one snapshot per manifest entry — what every
/// online path compares against. Entries are independent, so they are
/// diagnosed across every core, each at parallelism 1. (The batch path's
/// own parallelism invariance is pinned separately by `golden_corpus.rs`.)
pub fn batch_reference(manifest: &[ManifestEntry]) -> Vec<Snapshot> {
    par_map(manifest.len(), 0, |i| batch_snapshot(&manifest[i], 1).0)
}

/// A small positive scenario for the snapshot and cut sweeps: big enough
/// for real detector activity, small enough for hundreds of round-trips.
pub fn small_scenario(seed: u64) -> Scenario {
    let cfg = ScenarioConfig {
        seed,
        n_business: 4,
        n_giants: 1,
        root_rate: (1.0, 3.0),
        giant_rate: (6.0, 10.0),
        window_s: 240,
        anomaly_start: 120,
        anomaly_end: 180,
        cores: 2.0,
        io_channels: 4.0,
    };
    let base = generate_base(&cfg);
    inject(&base, &cfg, AnomalyKind::BusinessSpike)
}

/// A random event stream for the same sweeps: up to 200 arrivals in any
/// order (including seconds before the ring start), three in twenty with
/// a NaN or infinite field, and every 1–29 records a metrics sample and
/// a tick at the latest second seen.
pub fn random_event_stream(rng: &mut StdRng, n_specs: usize) -> Vec<TelemetryEvent> {
    let n = rng.random_range(1..200usize);
    let tick_every = rng.random_range(1..30usize);
    let mut events = Vec::new();
    let mut max_sec = 0i64;
    for i in 0..n {
        let sec = rng.random_range(0..93u64) as i64 - 3;
        let start_ms = sec as f64 * 1000.0 + rng.random_range(0.0..1000.0);
        let rt = rng.random_range(0.1..500.0);
        let (start_ms, response_ms) = match rng.random_range(0..20u32) {
            0 => (f64::NAN, rt),
            1 => (start_ms, f64::INFINITY),
            2 => (f64::NEG_INFINITY, rt),
            _ => (start_ms, rt),
        };
        events.push(TelemetryEvent::Query(QueryRecord {
            spec: SpecId(rng.random_range(0..6usize) % n_specs),
            start_ms,
            response_ms,
            examined_rows: rng.random_range(0..100u64),
        }));
        max_sec = max_sec.max(sec);
        if i % tick_every == tick_every - 1 {
            events.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: max_sec,
                active_session: 2.0 + (i % 7) as f64,
                ..Default::default()
            })));
            events.push(TelemetryEvent::Tick { second: max_sec + 1 });
        }
    }
    events
}

/// The observer axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverKind {
    Noop,
    Recording,
}

/// One cell of the equivalence matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixPoint {
    pub shards: usize,
    pub fanout: usize,
    pub kernel: KernelKind,
    pub cut: CutKind,
    pub observer: ObserverKind,
}

impl MatrixPoint {
    /// The production defaults, unsharded and unobserved.
    pub const BASELINE: MatrixPoint = MatrixPoint {
        shards: 1,
        fanout: 1,
        kernel: KernelKind::Fast,
        cut: CutKind::Incremental,
        observer: ObserverKind::Noop,
    };

    /// Failure-message label:
    /// `shards 2, fanout 4, kernel fast, cut incremental, observer noop`.
    pub fn label(&self) -> String {
        format!(
            "shards {}, fanout {}, kernel {}, cut {}, observer {}",
            self.shards,
            self.fanout,
            self.kernel.label(),
            self.cut.label(),
            match self.observer {
                ObserverKind::Noop => "noop",
                ObserverKind::Recording => "recording",
            }
        )
    }
}

/// The default tier's off-baseline points: each axis moved alone to each
/// of its other values, plus the corner where every axis has moved.
/// Instances are independent and no axis reads another's state, so with
/// [`MatrixPoint::BASELINE`] this meets every path with every value.
pub fn axis_points() -> Vec<MatrixPoint> {
    let b = MatrixPoint::BASELINE;
    vec![
        MatrixPoint { shards: 2, ..b },
        MatrixPoint { shards: 4, ..b },
        MatrixPoint { fanout: 4, ..b },
        MatrixPoint { kernel: KernelKind::Reference, ..b },
        MatrixPoint { cut: CutKind::Reference, ..b },
        MatrixPoint { observer: ObserverKind::Recording, ..b },
        MatrixPoint {
            shards: 4,
            fanout: 4,
            kernel: KernelKind::Reference,
            cut: CutKind::Reference,
            observer: ObserverKind::Recording,
        },
    ]
}

/// The full cross-product: shards {1, 2, 4} × fanout {1, 4} × both
/// detector kernels × both window-cut paths × both observers.
pub fn all_points() -> Vec<MatrixPoint> {
    let mut points = Vec::new();
    for shards in [1usize, 2, 4] {
        for fanout in [1usize, 4] {
            for kernel in [KernelKind::Fast, KernelKind::Reference] {
                for cut in [CutKind::Incremental, CutKind::Reference] {
                    for observer in [ObserverKind::Noop, ObserverKind::Recording] {
                        points.push(MatrixPoint { shards, fanout, kernel, cut, observer });
                    }
                }
            }
        }
    }
    points
}

/// The golden-corpus [`FleetConfig`] at one matrix point.
pub fn golden_fleet_config(p: MatrixPoint) -> FleetConfig {
    FleetConfig {
        delta_s: GOLDEN_DELTA_S,
        pinsql: PinSqlConfig::default().with_cut(p.cut),
        fanout: p.fanout,
        shards: p.shards,
        kernel: p.kernel,
        ..FleetConfig::default()
    }
}

/// Compares one golden case against its batch reference, scores as bit
/// patterns. `what` names the execution path and matrix point.
pub fn assert_case_matches_batch(
    entry: &ManifestEntry,
    batch: &Snapshot,
    lc: &LabeledCase,
    d: &Diagnosis,
    what: &str,
) {
    assert_eq!(&snapshot_of(entry, lc, d), batch, "{}: {what} diverged from batch", entry.name);
}

/// [`assert_case_matches_batch`] over a whole run's cases and diagnoses
/// (instance-id order, aligned with `manifest`).
pub fn assert_run_matches_batch(
    manifest: &[ManifestEntry],
    batch: &[Snapshot],
    cases: &[LabeledCase],
    diagnoses: &[Diagnosis],
    what: &str,
) {
    assert_eq!(cases.len(), manifest.len(), "{what}: case count");
    assert_eq!(diagnoses.len(), manifest.len(), "{what}: diagnosis count");
    for (i, entry) in manifest.iter().enumerate() {
        assert_case_matches_batch(entry, &batch[i], &cases[i], &diagnoses[i], what);
    }
}

/// Events per event-time second, summed across `streams`.
fn events_in_each_second(streams: &[Vec<pinsql_dbsim::TelemetryEvent>]) -> Vec<usize> {
    let mut per_second = std::collections::BTreeMap::<i64, usize>::new();
    for ev in streams.iter().flatten() {
        *per_second.entry((ev.time_ms() / 1000.0).floor() as i64).or_default() += 1;
    }
    let (Some((&first, _)), Some((&last, _))) =
        (per_second.first_key_value(), per_second.last_key_value())
    else {
        panic!("streams are empty");
    };
    (first..=last).map(|s| per_second.get(&s).copied().unwrap_or(0)).collect()
}

/// Events in the busiest event-time second across all `streams` — with
/// one batch on top, the tightest queue that stays live when the source
/// marks an `Advance` every second (the backpressure suite runs there).
pub fn busiest_second(streams: &[Vec<pinsql_dbsim::TelemetryEvent>]) -> usize {
    events_in_each_second(streams).into_iter().max().expect("at least one second")
}

/// The default [`TransportPolicy`](pinsql::TransportPolicy), its queue
/// grown (never shrunk) to stay live over `streams` under a sparse
/// `Advance` cadence. Between Advances the sink folds only up to the
/// second every instance's ticks prove complete, and a quiet instance's
/// `Tick{s}` rides in its open batch until the plan crosses into `s + 1`
/// — so the queue must hold two consecutive seconds of fleet traffic plus
/// a batch, or a compliant source waits forever for credits. (Eight
/// golden instances already outrun the default 8192.)
pub fn live_policy(streams: &[Vec<pinsql_dbsim::TelemetryEvent>]) -> pinsql::TransportPolicy {
    let policy = pinsql::TransportPolicy::default();
    let per_second = events_in_each_second(streams);
    let two_seconds = per_second.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(per_second[0]);
    policy.with_queue_capacity(policy.queue_capacity.max(two_seconds + policy.batch_events))
}

/// Drives one connection of the socketed ingest path over the in-memory
/// loopback: the agent serves `sink` on one end while the source drives
/// `plan` on the other, each on its own thread. `cut_after` arms the
/// source→sink byte-level fault before any traffic flows. Returns the
/// (source, agent) results; a clean run is `(Ok, Ok)`.
pub fn drive_loopback<O: pinsql_obs::Observer>(
    sink: &mut pinsql_engine::IngestSink<'_, O>,
    plan: &mut pinsql_engine::SourcePlan,
    max_frame_bytes: usize,
    cut_after: Option<usize>,
) -> (
    Result<(), pinsql_engine::TransportError>,
    Result<(), pinsql_engine::TransportError>,
) {
    let (mut source_conn, mut agent_conn) = pinsql_engine::pipe_pair(max_frame_bytes);
    if let Some(bytes) = cut_after {
        source_conn.cut_outbound_after(bytes);
    }
    std::thread::scope(|s| {
        let agent = s.spawn(move || pinsql_engine::serve_agent(&mut agent_conn, sink));
        let src = pinsql_engine::run_source(&mut source_conn, plan);
        // Dropping the source's end closes its outbound direction, so a
        // serve loop that is still healthy sees a clean close and returns.
        drop(source_conn);
        (src, agent.join().expect("agent thread panicked"))
    })
}

/// The adversarial handoff: every instance moves from its shard under
/// the engine's contiguous layout to the mirror shard, so shard-local
/// orderings all change and any reassembly that leans on within-shard
/// contiguity or finish order breaks loudly.
pub fn reversed(n: usize, shards: usize) -> Vec<usize> {
    (0..n).map(|i| shards - 1 - (i * shards / n).min(shards - 1)).collect()
}
