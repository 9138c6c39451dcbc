//! One database instance's online diagnosis pipeline — the one path to a
//! case.
//!
//! An [`OnlineInstance`] is the streaming aggregator PinSQL reads its
//! per-template series from: telemetry, delivered one [`TelemetryEvent`]
//! at a time, flows through the incremental collector (ring-buffered
//! per-second cells, bounded retention, in-line history feed) and the
//! online detector bank (bounded rolling state per metric). Closing the
//! case selects the window, cuts it and labels it ([`LabeledCase::new`]).
//! Every deployment path and every experiment builds its cases here. The
//! root test suite holds a batch labeller over the complete log as the
//! oracle: its cases and diagnoses are bit-identical to this one's, on
//! the golden corpus and on the shapes the experiments build.
//!
//! The pipeline borrows its [`Scenario`] (instances are cheap views over
//! fleet-owned scenarios; nothing is cloned per instance) and consumes
//! events by value — a record travels from the stream into the collector's
//! ring without a single intermediate clone. Time-ordered streams should
//! arrive through [`OnlineInstance::ingest_stream`], which chunks
//! same-second query runs through the collector's amortized hot path.

use crate::fleet::FleetConfig;
use crate::snapshot::{self, InstanceMeta, InstanceSnapshot};
use pinsql::{Diagnosis, PinSql};
use pinsql_collector::{HistoryStore, IncrementalAggregator, IncrementalConfig, IngestStats};
use pinsql_dbsim::telemetry::query_run;
use pinsql_dbsim::TelemetryEvent;
use pinsql_detect::{
    classify, select_case_window, CutKind, KernelKind, OnlineDetectorBank, PhenomenonConfig,
};
use pinsql_obs::{Counter, Gauge, HealthSnapshot, NoopObserver, Observer, Stage};
use pinsql_scenario::{LabeledCase, Scenario};
use pinsql_timeseries::{WireError, WireReader, WireWriter};

/// What a snapshot buffer is given beyond the aggregator's body: the
/// headers and the detector bank.
const SNAPSHOT_SLACK: usize = 64 << 10;

/// One instance's online pipeline: incremental aggregation + streaming
/// detection, closed into a labelled case on demand.
///
/// The pipeline is generic over an [`Observer`]; the default
/// [`NoopObserver`] compiles every instrumentation site to nothing, so
/// existing call sites pay no cost (the `obs_smoke` overhead guard and
/// the `equivalence` matrix's observer axis pin this).
#[derive(Debug, Clone)]
pub struct OnlineInstance<'a, O: Observer = NoopObserver> {
    scenario: &'a Scenario,
    delta_s: i64,
    aggregator: IncrementalAggregator,
    bank: OnlineDetectorBank,
    events: u64,
    obs: O,
    /// Whether the detector bank was inside an open segment at the last
    /// metric sample — edges of this flag count case opens/closes.
    seg_open: bool,
    cases_opened: u64,
    cases_closed: u64,
}

impl<'a> OnlineInstance<'a> {
    /// Creates the pipeline for one simulated instance.
    ///
    /// `delta_s` is the collection look-back diagnosis will use. The
    /// aggregator's retention is sized to the scenario's whole simulated
    /// window so any case window the detectors select is still resident —
    /// a real deployment would size it to `δ_s` plus the maximum anomaly
    /// duration instead.
    pub fn new(scenario: &'a Scenario, delta_s: i64) -> Self {
        Self::with_observer(scenario, delta_s, NoopObserver)
    }

    /// [`restore_with_observer`](Self::restore_with_observer) under the
    /// default no-op observer.
    pub fn restore(scenario: &'a Scenario, snap: &InstanceSnapshot) -> Result<Self, WireError> {
        Self::restore_with_observer(scenario, snap, NoopObserver)
    }
}

impl<'a, O: Observer> OnlineInstance<'a, O> {
    /// [`new`](OnlineInstance::new) with an explicit observer handle
    /// (usually a forked lane of a `RecordingObserver`).
    pub fn with_observer(scenario: &'a Scenario, delta_s: i64, obs: O) -> Self {
        let retention = scenario.cfg.window_s + 120;
        let aggregator = IncrementalAggregator::new(
            &scenario.workload.specs,
            IncrementalConfig::default().with_retention(retention),
        );
        Self {
            scenario,
            delta_s,
            aggregator,
            bank: OnlineDetectorBank::new(),
            events: 0,
            obs,
            seg_open: false,
            cases_opened: 0,
            cases_closed: 0,
        }
    }

    /// A no-op: `kernel` has one value. Single-valued; deleted by the
    /// `benchmark` PR (ROADMAP 3).
    pub fn with_kernel(self, kernel: KernelKind) -> Self {
        let KernelKind::Fast = kernel;
        self
    }

    /// Retunes the collection look-back `δ_s` on a live pipeline. The
    /// knob is only read when the case closes ([`close_case`]
    /// (Self::close_case) passes it to window selection), so a live
    /// change is exactly a cold start under the new value.
    pub fn set_delta_s(&mut self, delta_s: i64) {
        self.delta_s = delta_s;
    }

    /// A no-op: `cut` has one value. Single-valued; deleted by the
    /// `benchmark` PR (ROADMAP 3).
    pub fn with_cut(self, cut: CutKind) -> Self {
        let CutKind::Incremental = cut;
        self
    }

    /// Folds one telemetry event into the pipeline: every event reaches
    /// the aggregator; metric samples additionally drive the detectors.
    pub fn ingest(&mut self, ev: TelemetryEvent) {
        self.events += 1;
        if let TelemetryEvent::Metrics(sample) = &ev {
            let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
            self.bank.observe(sample);
            if O::ENABLED {
                self.obs.span(Stage::DetectorStep, n0, self.obs.now_ns());
            }
            // Segment edges arrive at metric cadence (~1/s), so this
            // check is off the per-query hot path.
            let open = self.bank.any_open();
            if open != self.seg_open {
                if open {
                    self.cases_opened += 1;
                } else {
                    self.cases_closed += 1;
                }
                self.seg_open = open;
            }
        }
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        self.aggregator.ingest(ev);
        if O::ENABLED {
            self.obs.span(Stage::CellFold, n0, self.obs.now_ns());
        }
    }

    /// Folds whatever starts at `events[from]` — a whole run of query
    /// events sharing one attribution second through the collector's
    /// chunked path, or one event of any other kind, moved out of the
    /// slice — and returns how many events that was. Every driver of a
    /// time-ordered stream ([`ingest_stream`](Self::ingest_stream), the
    /// daemon's merge) advances by this one step.
    pub(crate) fn ingest_next(&mut self, events: &mut [TelemetryEvent], from: usize) -> usize {
        let Some((second, len)) = query_run(events, from) else {
            // The placeholder left behind is never read again.
            self.ingest(std::mem::replace(&mut events[from], TelemetryEvent::Tick { second: 0 }));
            return 1;
        };
        self.events += len as u64;
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        self.aggregator.ingest_query_run(second, &events[from..from + len]);
        if O::ENABLED {
            self.obs.span(Stage::CellFold, n0, self.obs.now_ns());
        }
        len
    }

    /// Consumes a stretch of a time-ordered stream, chunking same-second
    /// query runs and moving every event in by value. Equivalent to
    /// calling [`ingest`](Self::ingest) per event, bit for bit.
    pub fn ingest_stream(&mut self, mut events: Vec<TelemetryEvent>) {
        let mut i = 0;
        while i < events.len() {
            i += self.ingest_next(&mut events, i);
        }
    }

    /// Events ingested so far.
    pub fn events_ingested(&self) -> u64 {
        self.events
    }

    /// The aggregator's ingestion counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.aggregator.stats()
    }

    /// The collector watermark (`i64::MIN` before any event).
    pub fn watermark(&self) -> i64 {
        self.aggregator.watermark()
    }

    /// Workload specs the instance's catalog holds.
    pub(crate) fn n_specs(&self) -> usize {
        self.aggregator.catalog().n_specs()
    }

    /// The per-template 1-minute history the collector accumulated in-line
    /// from this stream (what a long-running deployment would verify
    /// against; [`close_case`](Self::close_case) uses the scenario's
    /// synthesized look-back instead, since a single window is far shorter
    /// than 1/3/7 days).
    pub fn online_history(&self) -> &HistoryStore {
        self.aggregator.history()
    }

    /// A point-in-time read of the pipeline's counters and queue depths.
    /// Cheap (no scans over retained data, no detector flush) and safe to
    /// take mid-ingest — the `obs_health` suite pins its invariants under
    /// chaos-perturbed telemetry.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let stats = self.aggregator.stats();
        HealthSnapshot {
            events_ingested: self.events,
            queries_ingested: stats.queries,
            malformed_dropped: stats.malformed,
            late_dropped: stats.late,
            cells_folded: stats.cells,
            retention_evictions: stats.evictions,
            history_minutes: stats.history_minutes,
            cell_seconds: self.aggregator.cell_seconds(),
            records_resident: self.aggregator.record_count(),
            metric_seconds: self.aggregator.metric_seconds(),
            templates_tracked: self.aggregator.catalog().len(),
            watermark: self.aggregator.watermark(),
            detector_samples: self.bank.samples_seen(),
            open_segments: self.bank.open_segments(),
            features_closed: self.bank.feature_count(),
            cases_opened: self.cases_opened,
            anomaly_open: self.bank.any_open(),
        }
    }

    /// Serializes the instance's entire online state into a versioned
    /// checkpoint blob (see [`crate::snapshot`] for the wire format).
    ///
    /// The snapshot captures everything mutable — aggregator rings,
    /// in-line history, ingest counters, detector baselines, open
    /// segments, closed features, and the case open/close edge state — so
    /// [`restore`](Self::restore) continues **bit-identical** to an
    /// instance that never stopped. Cheap relative to ingest (one linear
    /// walk over resident state, no float re-derivation); safe to take at
    /// any event boundary, including mid-anomaly.
    pub fn snapshot(&self) -> InstanceSnapshot {
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        let mut w = WireWriter::with_capacity(self.snapshot_len_hint());
        snapshot::write_header(
            &mut w,
            InstanceMeta {
                delta_s: self.delta_s,
                events: self.events,
                seg_open: self.seg_open,
                cases_opened: self.cases_opened,
                cases_closed: self.cases_closed,
            },
        );
        w.put_section(|w| self.aggregator.write_snapshot(w));
        w.put_section(|w| self.bank.write_snapshot(w));
        let snap = InstanceSnapshot::from_trusted(w.into_bytes());
        if O::ENABLED {
            self.obs.span(Stage::SnapshotWrite, n0, self.obs.now_ns());
            self.obs.add(Counter::SnapshotsWritten, 1);
            self.obs.add(Counter::SnapshotBytes, snap.len() as u64);
        }
        snap
    }

    /// The capacity [`snapshot`](Self::snapshot) starts its buffer at: the
    /// aggregator's body, which is the bulk of the blob, and
    /// [`SNAPSHOT_SLACK`] for the rest.
    fn snapshot_len_hint(&self) -> usize {
        self.aggregator.snapshot_len() + SNAPSHOT_SLACK
    }

    /// Rebuilds an instance from a [`snapshot`](Self::snapshot) under an
    /// explicit observer, resuming exactly where the checkpointed instance
    /// stopped. `scenario` must be the same scenario the snapshot was
    /// taken from — the restored catalog is cross-checked against the
    /// serialized slot assignment, so a wrong scenario is a typed
    /// [`WireError::Mismatch`], never silent misattribution. Malformed
    /// bytes of any shape error; restore never panics.
    pub fn restore_with_observer(
        scenario: &'a Scenario,
        snap: &InstanceSnapshot,
        obs: O,
    ) -> Result<Self, WireError> {
        let n0 = if O::ENABLED { obs.now_ns() } else { 0 };
        let mut r = WireReader::new(snap.as_bytes());
        let meta = snapshot::read_header(&mut r)?;
        let mut agg_r = r.get_section()?;
        let aggregator =
            IncrementalAggregator::read_snapshot(&scenario.workload.specs, &mut agg_r)?;
        agg_r.finish("aggregator section")?;
        let mut bank_r = r.get_section()?;
        let bank = OnlineDetectorBank::read_snapshot(&mut bank_r)?;
        bank_r.finish("detector bank section")?;
        r.finish("instance snapshot")?;
        if O::ENABLED {
            obs.span(Stage::SnapshotRestore, n0, obs.now_ns());
            obs.add(Counter::SnapshotsRestored, 1);
        }
        Ok(Self {
            scenario,
            delta_s: meta.delta_s,
            aggregator,
            bank,
            events: meta.events,
            obs,
            seg_open: meta.seg_open,
            cases_opened: meta.cases_opened,
            cases_closed: meta.cases_closed,
        })
    }

    /// Closes the anomaly case: flushes the detectors, classifies
    /// phenomena, selects the case window from the stream alone
    /// ([`select_case_window`]), cuts it, and labels ground truth.
    pub fn close_case(mut self) -> LabeledCase {
        if O::ENABLED {
            // Lifetime counters roll up once, at close; the live state is
            // always readable through `health_snapshot` instead.
            let stats = self.aggregator.stats();
            self.obs.add(Counter::EventsIngested, self.events);
            self.obs.add(Counter::QueriesIngested, stats.queries);
            self.obs.add(Counter::MalformedDropped, stats.malformed);
            self.obs.add(Counter::LateDropped, stats.late);
            self.obs.add(Counter::CellsFolded, stats.cells);
            self.obs.add(Counter::RetentionEvictions, stats.evictions);
            self.obs.add(Counter::HistoryMinutes, stats.history_minutes);
            self.obs.add(Counter::CasesOpened, self.cases_opened);
            self.obs.add(Counter::CasesClosed, self.cases_closed);
            self.obs.gauge(Gauge::CellSeconds, self.aggregator.cell_seconds() as u64);
            self.obs.gauge(Gauge::RecordsResident, self.aggregator.record_count() as u64);
            self.obs.gauge(Gauge::MetricSeconds, self.aggregator.metric_seconds() as u64);
            self.obs.gauge(Gauge::TemplatesTracked, self.aggregator.catalog().len() as u64);
        }
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        self.bank.finish();
        let features = self.bank.features();
        if O::ENABLED {
            self.obs.add(Counter::FeaturesClosed, features.len() as u64);
        }
        let phenomena = classify(&features, &PhenomenonConfig::default());
        let (window, detected, anomaly_type) =
            select_case_window(&phenomena, self.delta_s, self.aggregator.metric_span());
        let c0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        let case = self.aggregator.snapshot(window.ts(), window.te());
        if O::ENABLED {
            let n1 = self.obs.now_ns();
            self.obs.span(Stage::CaseCut, c0, n1);
            self.obs.span(Stage::WindowCut, n0, n1);
        }
        LabeledCase::new(self.scenario, case, window, detected, anomaly_type)
    }
}

/// Replays a scenario's time-ordered telemetry (`events`) through the
/// full online path and diagnoses the closed case, under `cfg`'s look-back
/// (`delta_s`) and diagnoser (`pinsql`, whose `parallelism` applies inside
/// the diagnosis); the fleet-shaped knobs do not apply to one instance. The
/// whole replay — ingest folds, detector steps, window cut and the three
/// diagnosis stages — lands in `obs`.
///
/// The returned `(LabeledCase, Diagnosis)` is the same whatever `O` is,
/// and bit-identical to the root suite's batch oracle over the complete
/// log — pinned against the golden corpus by the `equivalence` matrix.
pub fn replay_diagnose<O: Observer>(
    scenario: &Scenario,
    events: Vec<TelemetryEvent>,
    cfg: &FleetConfig,
    obs: &O,
) -> (LabeledCase, Diagnosis) {
    let mut inst = OnlineInstance::with_observer(scenario, cfg.delta_s, obs.clone());
    inst.ingest_stream(events);
    let lc = inst.close_case();
    let d = PinSql::new(cfg.pinsql.clone()).diagnose_observed(
        &lc.case,
        &lc.window,
        &lc.history,
        lc.minutes_origin,
        obs,
    );
    (lc, d)
}

/// Each record's template as the case's owner table gives it, against an
/// independent path: the catalog's id for the record's spec, looked up
/// among the case's templates.
#[cfg(test)]
pub(crate) fn assert_owners_by_catalog(case: &pinsql_collector::CaseData) {
    for rec in case.records.iter() {
        let pos = case.template_index(case.catalog.id_of_spec(rec.spec));
        let want = pos.map_or(pinsql_collector::CaseData::NO_TEMPLATE, |p| p as u32);
        assert_eq!(case.template_of(rec.spec), want, "owner of {rec:?}");
    }
}

/// Each scenario's event stream, simulated at most once per test process:
/// one `OnceLock` per scenario, keyed by the configuration and injected
/// kinds that name it (every scenario these tests build is
/// `inject_many(generate_base(cfg), cfg, kinds)`), so distinct scenarios
/// simulate concurrently and a repeated one waits for the first.
#[cfg(test)]
pub(crate) fn simulated_streams(scenarios: &[Scenario]) -> Vec<Vec<TelemetryEvent>> {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    type Cell = &'static OnceLock<Vec<TelemetryEvent>>;
    static CACHE: Mutex<BTreeMap<String, Cell>> = Mutex::new(BTreeMap::new());
    let stream = |s: &Scenario| {
        let key = format!("{:?} {:?}", s.cfg, s.injected);
        let cell: Cell = *CACHE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| Box::leak(Box::new(OnceLock::new())));
        cell.get_or_init(|| pinsql_scenario::materialize_events(s, None)).clone()
    };
    scenarios.iter().map(stream).collect()
}

/// [`simulated_streams`] of one scenario.
#[cfg(test)]
pub(crate) fn simulated_stream(scenario: &Scenario) -> Vec<TelemetryEvent> {
    simulated_streams(std::slice::from_ref(scenario)).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_dbsim::MetricsSample;
    use pinsql_detect::AnomalyWindow;
    use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, ScenarioConfig};

    fn assert_case_eq(a: &LabeledCase, b: &LabeledCase) {
        assert_eq!(a.window, b.window);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.anomaly_type, b.anomaly_type);
        assert_eq!(a.truth.rsqls, b.truth.rsqls);
        assert_eq!(a.truth.hsqls, b.truth.hsqls);
        assert_eq!(a.minutes_origin, b.minutes_origin);
        assert_eq!(a.case.ts, b.case.ts);
        assert_eq!(a.case.te, b.case.te);
        assert_eq!(a.case.records, b.case.records);
        assert_eq!(a.case.metrics.active_session, b.case.metrics.active_session);
        assert_eq!(a.case.metrics.qps, b.case.metrics.qps);
        assert_eq!(a.case.metrics.probes.samples, b.case.metrics.probes.samples);
        assert_eq!(a.case.templates.len(), b.case.templates.len());
        assert_owners_by_catalog(&a.case);
        assert_owners_by_catalog(&b.case);
        for (x, y) in a.case.templates.iter().zip(&b.case.templates) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.series.execution_count, y.series.execution_count);
            assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms);
            assert_eq!(x.series.examined_rows, y.series.examined_rows);
        }
    }

    #[test]
    fn chunked_stream_matches_per_event_ingest() {
        let cfg = ScenarioConfig::default().with_seed(11).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = simulated_stream(&scenario);

        let mut scalar = OnlineInstance::new(&scenario, 300);
        for ev in events.clone() {
            scalar.ingest(ev);
        }
        let mut chunked = OnlineInstance::new(&scenario, 300);
        chunked.ingest_stream(events);

        assert_eq!(scalar.events_ingested(), chunked.events_ingested());
        let s = scalar.ingest_stats();
        let c = chunked.ingest_stats();
        assert_eq!(s.events, c.events);
        assert_eq!(s.queries, c.queries);
        assert_eq!(s.malformed, c.malformed);
        assert_eq!(s.late, c.late);
        assert_case_eq(&scalar.close_case(), &chunked.close_case());
    }

    /// The case window comes from the stream alone: one negative scenario
    /// under two injected-window settings closes to the same window, the
    /// whole stream, and the same diagnosis.
    #[test]
    fn negative_case_ignores_the_injected_window() {
        let close = |start, end| {
            let cfg = ScenarioConfig::default()
                .with_seed(23)
                .with_businesses(6)
                .with_window(420, start, end);
            let scenario = inject_none(&generate_base(&cfg), &cfg);
            let (lc, d) = replay_diagnose(
                &scenario,
                simulated_stream(&scenario),
                &FleetConfig { delta_s: 180, ..FleetConfig::default() },
                &NoopObserver,
            );
            assert!(!lc.detected, "injected window {start}..{end}: a clean stream tripped");
            (lc, d)
        };
        let (a, da) = close(60, 120);
        let (b, db) = close(240, 400);
        assert_eq!(a.window, AnomalyWindow { anomaly_start: 0, anomaly_end: 420, delta_s: 0 });
        assert_case_eq(&a, &b);
        assert_eq!(da.hsqls, db.hsqls);
        assert_eq!(da.rsqls, db.rsqls);
        assert_eq!(da.reported_rsqls, db.reported_rsqls);
        assert_eq!(
            (da.n_verified, da.n_clusters, da.selected_clusters),
            (db.n_verified, db.n_clusters, db.selected_clusters)
        );
    }

    /// The whole span an undetected case takes is the metric seconds the
    /// instance holds, wherever the stream put them: a far-future clock
    /// cuts its three seconds, not a span from zero, and a sample at the
    /// last second there is cuts one.
    #[test]
    fn undetected_case_spans_the_metric_seconds_held() {
        let cfg = ScenarioConfig::default().with_seed(7).with_businesses(6);
        let scenario = inject_none(&generate_base(&cfg), &cfg);
        let far = 1i64 << 40;
        let cases = [
            (vec![far, far + 1, far + 2], (far, far + 3)),
            (vec![i64::MAX], (i64::MAX - 1, i64::MAX)),
        ];
        for (seconds, want) in cases {
            let events = seconds
                .into_iter()
                .map(|second| MetricsSample { second, ..Default::default() })
                .map(|sample| TelemetryEvent::Metrics(Box::new(sample)))
                .collect();
            let fleet = FleetConfig::default();
            let (lc, d) = replay_diagnose(&scenario, events, &fleet, &NoopObserver);
            assert!(!lc.detected);
            assert_eq!((lc.window.ts(), lc.window.te()), want);
            assert!(d.reported_rsqls.is_empty());
        }
    }

    #[test]
    fn instance_tracks_stream_state() {
        let cfg = ScenarioConfig::default().with_seed(7).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = simulated_stream(&scenario);
        let n_events = events.len() as u64;
        let mut inst = OnlineInstance::new(&scenario, 300);
        inst.ingest_stream(events);
        assert_eq!(inst.events_ingested(), n_events);
        assert!(inst.watermark() >= scenario.cfg.window_s, "final tick advances the clock");
        assert!(inst.ingest_stats().queries > 0);
        assert!(!inst.online_history().is_empty(), "in-line history fed from the stream");
        let lc = inst.close_case();
        assert!(lc.window.anomaly_len() > 0);
        assert!(!lc.case.templates.is_empty());
    }

    #[test]
    fn snapshot_len_hint_covers_a_mid_stream_blob() {
        let cfg = ScenarioConfig::default().with_seed(37).with_businesses(16);
        let scenario = inject(&generate_base(&cfg), &cfg, AnomalyKind::BusinessSpike);
        let events = simulated_stream(&scenario);
        for split in [events.len() / 10, events.len() / 2] {
            let mut inst = OnlineInstance::new(&scenario, 300);
            inst.ingest_stream(events[..split].to_vec());
            let (hint, len) = (inst.snapshot_len_hint(), inst.snapshot().len());
            // Enough for the blob, and no more than the slack over it.
            assert!((len..=len + SNAPSHOT_SLACK).contains(&hint), "{split} events: {hint}, {len}");
        }
    }

    #[test]
    fn snapshot_restore_mid_stream_is_behaviorally_exact() {
        let cfg = ScenarioConfig::default().with_seed(31).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = simulated_stream(&scenario);

        for split in [0, 1, events.len() / 3, events.len() / 2, events.len()] {
            let mut live = OnlineInstance::new(&scenario, 300);
            let mut pre = OnlineInstance::new(&scenario, 300);
            live.ingest_stream(events[..split].to_vec());
            pre.ingest_stream(events[..split].to_vec());

            // A valid blob survives the untrusted entry point too.
            let snap =
                crate::snapshot::InstanceSnapshot::from_bytes(pre.snapshot().into_bytes()).unwrap();
            let mut restored = OnlineInstance::restore(&scenario, &snap).unwrap();

            // Re-serialization is byte-idempotent.
            assert_eq!(
                restored.snapshot().as_bytes(),
                snap.as_bytes(),
                "split {split}: restored snapshot drifted"
            );

            live.ingest_stream(events[split..].to_vec());
            restored.ingest_stream(events[split..].to_vec());
            assert_eq!(live.events_ingested(), restored.events_ingested());
            assert_eq!(live.health_snapshot(), restored.health_snapshot());
            assert_case_eq(&live.close_case(), &restored.close_case());
        }
    }

    /// `delta_s` sits at bytes 16..24 (header 8, meta section length 8).
    /// A negative one would panic at case close; restore refuses it with a
    /// typed mismatch instead.
    #[test]
    fn snapshot_rejects_a_negative_delta_s() {
        let cfg = ScenarioConfig::default().with_seed(31).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let mut inst = OnlineInstance::new(&scenario, 300);
        inst.ingest_stream(simulated_stream(&scenario));
        let mut bytes = inst.snapshot().into_bytes();
        assert_eq!(bytes[16..24], 300i64.to_le_bytes());
        for delta_s in [-1i64, -600, i64::MIN] {
            bytes[16..24].copy_from_slice(&delta_s.to_le_bytes());
            let snap = crate::snapshot::InstanceSnapshot::from_bytes(bytes.clone()).unwrap();
            assert!(
                matches!(
                    OnlineInstance::restore(&scenario, &snap),
                    Err(WireError::Mismatch { what: "delta_s", .. })
                ),
                "delta_s {delta_s} restored"
            );
        }
        bytes[16..24].copy_from_slice(&0i64.to_le_bytes());
        let snap = crate::snapshot::InstanceSnapshot::from_bytes(bytes).unwrap();
        let restored = OnlineInstance::restore(&scenario, &snap).expect("a zero look-back is legal");
        assert!(restored.close_case().window.anomaly_len() > 0);
    }

    #[test]
    fn restore_rejects_wrong_scenario_and_corrupt_blobs() {
        let cfg_a = ScenarioConfig::default().with_seed(31).with_businesses(6);
        let base_a = generate_base(&cfg_a);
        let scenario_a = inject(&base_a, &cfg_a, AnomalyKind::BusinessSpike);
        let cfg_b = ScenarioConfig::default().with_seed(77).with_businesses(5);
        let base_b = generate_base(&cfg_b);
        let scenario_b = inject(&base_b, &cfg_b, AnomalyKind::MdlLock);

        let events = simulated_stream(&scenario_a);
        let mut inst = OnlineInstance::new(&scenario_a, 300);
        inst.ingest_stream(events);
        let snap = inst.snapshot();

        // Restoring into a different scenario is a typed mismatch.
        assert!(matches!(
            OnlineInstance::restore(&scenario_b, &snap),
            Err(WireError::Mismatch { .. })
        ));

        // Every truncation of the blob errors; none panics.
        let bytes = snap.as_bytes();
        pinsql_testkit::truncations(bytes, (bytes.len() / 97).max(1), |prefix| {
            // A header-level rejection is fine too.
            if let Ok(short) = crate::snapshot::InstanceSnapshot::from_bytes(prefix.to_vec()) {
                assert!(OnlineInstance::restore(&scenario_a, &short).is_err(), "restored");
            }
        });
    }
}
