//! Shared fixtures for the golden-corpus suites: the manifest (a const
//! table), the per-process simulation cache, the rank-relevant `Snapshot`
//! view of a diagnosis, the batch oracle that labels the reference cases
//! ([`materialize_telemetry`]), and the axes of the equivalence matrix
//! (`tests/equivalence.rs` holds the execution paths). `golden_corpus.rs`
//! pins snapshots to disk; everything else compares `Snapshot` structs
//! against the batch reference via [`assert_run_matches_batch`].
//!
//! The simulator dominates a suite's time, so each input — a manifest
//! entry ([`golden`]) or a [`small_scenario`] seed ([`small`]) — is
//! simulated at most once per test binary and every consumer clones what
//! it needs from the cached [`Simulated`].

#![allow(dead_code)]

use pinsql::{Diagnosis, PinSql, PinSqlConfig};
use pinsql_collector::{aggregate_case, CaseData};
use pinsql_detect::{
    classify, detect_features, select_case_window, DetectorConfig, PhenomenonConfig,
};
use pinsql_engine::{ControlMsg, ControlResp, FleetConfig, FleetDaemon};
use pinsql_obs::Observer;
use pinsql_dbsim::{InstanceMetrics, MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_json::Json;
use pinsql_timeseries::par::par_map;
use pinsql_scenario::{
    generate_base, inject, prepare_telemetry, simulate_telemetry, telemetry_events, AnomalyKind,
    LabeledCase, PerturbConfig, Scenario, ScenarioConfig,
};
use pinsql_workload::rng::{RngExt, StdRng};
use pinsql_workload::SpecId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// One control operation over the `PCTL` wire: the message encoded,
/// handed to the agent, the reply decoded.
pub fn control<O: Observer>(agent: &mut FleetDaemon<'_, O>, msg: ControlMsg) -> ControlResp {
    ControlResp::from_bytes(&agent.handle_frame(&msg.to_bytes())).expect("well-formed reply")
}

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

/// The batch oracle: labels a case from a scenario's complete simulated
/// telemetry, degraded by `perturb` if given. Where the engine steps its
/// detector bank sample by sample and cuts its rings, the oracle detects
/// over each whole metric series (`detect_features`) and aggregates the
/// whole log over the selected window (`aggregate_case`); window selection
/// (over the metric seconds the telemetry holds) and labelling are the
/// code the engine runs. Every online path is
/// compared against it bit for bit.
pub fn materialize_telemetry(
    scenario: &Scenario,
    log: Vec<QueryRecord>,
    metrics: InstanceMetrics,
    delta_s: i64,
    perturb: Option<&PerturbConfig>,
) -> LabeledCase {
    let (log, metrics) = prepare_telemetry(log, metrics, perturb);
    let mut features = Vec::new();
    for (name, series) in metrics.iter_named() {
        let c = DetectorConfig::for_metric(name);
        features.extend(detect_features(name, series, metrics.start_second, &c));
    }
    let phenomena = classify(&features, &PhenomenonConfig::default());
    let span = metrics.start_second..metrics.start_second + metrics.len() as i64;
    let (window, detected, anomaly_type) = select_case_window(&phenomena, delta_s, span);
    let case = aggregate_case(&log, &scenario.workload.specs, &metrics, window.ts(), window.te());
    LabeledCase::new(scenario, case, window, detected, anomaly_type)
}

/// One input, simulated once: the scenario, the simulator's raw output
/// and its event stream.
#[derive(Debug)]
pub struct Simulated {
    pub scenario: Scenario,
    pub log: Vec<QueryRecord>,
    pub metrics: InstanceMetrics,
    pub events: Vec<TelemetryEvent>,
}

impl Simulated {
    fn new(scenario: Scenario) -> Self {
        let (log, metrics) = simulate_telemetry(&scenario, None);
        let events = telemetry_events(log.clone(), metrics.clone(), None);
        Self { scenario, log, metrics, events }
    }

    /// The batch oracle's labelled case under look-back `delta_s`, from
    /// the telemetry as the chaos layer degrades it under `perturb`.
    pub fn labeled(&self, delta_s: i64, perturb: Option<&PerturbConfig>) -> LabeledCase {
        let (log, metrics) = (self.log.clone(), self.metrics.clone());
        materialize_telemetry(&self.scenario, log, metrics, delta_s, perturb)
    }

    /// The event stream as the chaos layer degrades it under `perturb`.
    pub fn perturbed_events(&self, perturb: &PerturbConfig) -> Vec<TelemetryEvent> {
        telemetry_events(self.log.clone(), self.metrics.clone(), Some(perturb))
    }
}

/// The cache: one `OnceLock` per input `key` (which must name the
/// scenario `scenario` builds), so distinct inputs simulate concurrently
/// and a repeated one waits for the first.
pub fn simulated(key: String, scenario: impl FnOnce() -> Scenario) -> &'static Simulated {
    static CACHE: Mutex<BTreeMap<String, &'static OnceLock<Simulated>>> =
        Mutex::new(BTreeMap::new());
    let cell = *CACHE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(OnceLock::new())));
    cell.get_or_init(|| Simulated::new(scenario()))
}

/// A manifest entry, simulated once per process.
pub fn golden(entry: &ManifestEntry) -> &'static Simulated {
    simulated(entry.name.to_string(), || scenario_for(entry))
}

/// [`small_scenario`]`(seed)`, simulated once per process.
pub fn small(seed: u64) -> &'static Simulated {
    simulated(format!("small_scenario({seed})"), || small_scenario(seed))
}

/// The entries' scenarios, cloned from the cache (fleet order).
pub fn golden_scenarios(entries: &[ManifestEntry]) -> Vec<Scenario> {
    entries.iter().map(|e| golden(e).scenario.clone()).collect()
}

/// The entries' event streams, cloned from the cache (fleet order).
pub fn golden_streams(entries: &[ManifestEntry]) -> Vec<Vec<TelemetryEvent>> {
    entries.iter().map(|e| golden(e).events.clone()).collect()
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

/// Labels and diagnoses one manifest entry through the batch oracle,
/// from its cached simulation.
pub fn batch_snapshot(entry: &ManifestEntry, parallelism: usize) -> (Snapshot, Diagnosis) {
    let lc = golden(entry).labeled(GOLDEN_DELTA_S, None);
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
    pub observer: ObserverKind,
}

impl MatrixPoint {
    /// The production defaults, unsharded and unobserved.
    pub const BASELINE: MatrixPoint =
        MatrixPoint { shards: 1, fanout: 1, observer: ObserverKind::Noop };

    /// Failure-message label: `shards 2, fanout 4, observer noop`.
    pub fn label(&self) -> String {
        format!(
            "shards {}, fanout {}, observer {}",
            self.shards,
            self.fanout,
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
        MatrixPoint { observer: ObserverKind::Recording, ..b },
        MatrixPoint { shards: 4, fanout: 4, observer: ObserverKind::Recording },
    ]
}

/// The full cross-product: shards {1, 2, 4} × fanout {1, 4} × both
/// observers.
pub fn all_points() -> Vec<MatrixPoint> {
    let mut points = Vec::new();
    for shards in [1usize, 2, 4] {
        for fanout in [1usize, 4] {
            for observer in [ObserverKind::Noop, ObserverKind::Recording] {
                points.push(MatrixPoint { shards, fanout, observer });
            }
        }
    }
    points
}

/// The golden-corpus [`FleetConfig`] at one matrix point.
pub fn golden_fleet_config(p: MatrixPoint) -> FleetConfig {
    FleetConfig {
        delta_s: GOLDEN_DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout: p.fanout,
        shards: p.shards,
        ..FleetConfig::default()
    }
}

/// Each record's template as the case's owner table gives it, against an
/// independent path: the catalog's id for the record's spec, looked up
/// among the case's templates.
pub fn assert_owners_by_catalog(case: &CaseData, what: &str) {
    for (i, rec) in case.records.iter().enumerate() {
        let pos = case.template_index(case.catalog.id_of_spec(rec.spec));
        let want = pos.map_or(CaseData::NO_TEMPLATE, |p| p as u32);
        assert_eq!(case.template_of(rec.spec), want, "{what}: owner of record {i}");
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
