//! One database instance's online diagnosis pipeline.
//!
//! An [`OnlineInstance`] is the event-driven counterpart of the batch
//! `materialize` path: the same telemetry, delivered one
//! [`TelemetryEvent`] at a time, flows through the incremental collector
//! (ring-buffered per-second cells, bounded retention, in-line history
//! feed) and the online detector bank (bounded rolling state per metric).
//! Closing the case runs the identical window-selection and labelling code
//! the batch path uses, over a `CaseData` snapshot that is bit-identical
//! to batch aggregation — which is what makes [`replay_diagnose`]
//! reproduce batch diagnoses exactly.
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
use pinsql_detect::{classify, CutKind, KernelKind, OnlineDetectorBank, PhenomenonConfig};
use pinsql_obs::{Counter, Gauge, HealthSnapshot, NoopObserver, Observer, Stage};
use pinsql_scenario::materialize::MINUTES_ORIGIN;
use pinsql_scenario::{
    case_history, label_truth, materialize_events, select_case_window, LabeledCase, Scenario,
};
use pinsql_timeseries::{WireError, WireReader, WireWriter};

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

    /// Replaces the detector bank's statistics kernel (bit-identical
    /// either way; the knob feeds the equivalence suites). Call before the
    /// first event — the bank is rebuilt empty.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        debug_assert_eq!(self.events, 0, "kernel must be chosen before ingestion");
        self.bank = OnlineDetectorBank::with_kernel(kernel);
        self
    }

    /// Hot-swaps the detector statistics kernel on a **live** pipeline —
    /// the daemon's config-push path. Unlike [`with_kernel`]
    /// (Self::with_kernel) this keeps all streaming state: detector
    /// baselines store raw samples (median/MAD are recomputed per push)
    /// and the two kernels are bit-identical, so the remainder of the
    /// stream folds exactly as it would under a cold start with `kernel`
    /// (pinned by the `equivalence` matrix's daemon path).
    pub fn set_kernel(&mut self, kernel: KernelKind) {
        self.bank.set_kernel(kernel);
    }

    /// Retunes the collection look-back `δ_s` on a live pipeline. The
    /// knob is only read when the case closes ([`close_case`]
    /// (Self::close_case) passes it to window selection), so a live
    /// change is exactly a cold start under the new value.
    pub fn set_delta_s(&mut self, delta_s: i64) {
        self.delta_s = delta_s;
    }

    /// Selects the window-cut path (bit-identical either way; the knob
    /// feeds the equivalence suites). Safe at any point — flipping on a
    /// live pipeline rebuilds the running moments from resident state.
    pub fn with_cut(mut self, cut: CutKind) -> Self {
        self.aggregator.set_cut(cut);
        self
    }

    /// Hot-swaps the window-cut path on a **live** pipeline — the daemon's
    /// config-push path. Switching to [`CutKind::Incremental`] rebuilds
    /// the running moments from the resident rings, so the next case cut
    /// is exactly what a cold start under `cut` would have produced
    /// (pinned by the `equivalence` matrix's daemon path).
    pub fn set_cut(&mut self, cut: CutKind) {
        self.aggregator.set_cut(cut);
    }

    /// The active window-cut path.
    pub fn cut(&self) -> CutKind {
        self.aggregator.cut()
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

    /// True while any metric detector has an open anomalous segment.
    pub fn anomaly_open(&self) -> bool {
        self.bank.any_open()
    }

    /// The per-template 1-minute history the collector accumulated in-line
    /// from this stream (what a long-running deployment would verify
    /// against; [`close_case`](Self::close_case) uses the scenario's
    /// synthesized look-back instead, since a single window is far shorter
    /// than 1/3/7 days).
    pub fn online_history(&self) -> &HistoryStore {
        self.aggregator.history()
    }

    /// The scenario this instance replays.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
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
        let mut w = WireWriter::with_capacity(4096);
        snapshot::write_header(
            &mut w,
            self.bank.kernel(),
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
        w.put_section(|w| self.aggregator.write_cut_state(w));
        let snap = InstanceSnapshot::from_trusted(w.into_bytes());
        if O::ENABLED {
            self.obs.span(Stage::SnapshotWrite, n0, self.obs.now_ns());
            self.obs.add(Counter::SnapshotsWritten, 1);
            self.obs.add(Counter::SnapshotBytes, snap.len() as u64);
        }
        snap
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
        let (kernel, meta) = snapshot::read_header(&mut r)?;
        let mut agg_r = r.get_section()?;
        let mut aggregator =
            IncrementalAggregator::read_snapshot(&scenario.workload.specs, &mut agg_r)?;
        agg_r.finish("aggregator section")?;
        let mut bank_r = r.get_section()?;
        let bank = OnlineDetectorBank::read_snapshot(&mut bank_r)?;
        bank_r.finish("detector bank section")?;
        let mut cut_r = r.get_section()?;
        aggregator.read_cut_state(&mut cut_r)?;
        cut_r.finish("cut state section")?;
        r.finish("instance snapshot")?;
        // The header tag lets readers route a blob without a body decode;
        // cross-checking it here means a spliced blob cannot restore.
        if bank.kernel() != kernel {
            return Err(WireError::Mismatch {
                what: "kernel tag",
                detail: format!("header declares {kernel:?}, bank section holds {:?}", bank.kernel()),
            });
        }
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
    /// phenomena, selects the case window, cuts the batch-bit-identical
    /// snapshot, and labels ground truth — the exact sequence (and code)
    /// of the batch labelling path.
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
            select_case_window(&phenomena, self.scenario, self.delta_s);
        let c0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        let case = self.aggregator.snapshot(window.ts(), window.te());
        if O::ENABLED {
            let n1 = self.obs.now_ns();
            self.obs.span(Stage::CaseCut, c0, n1);
            self.obs.span(Stage::WindowCut, n0, n1);
            let (pushed, evicted) = self.aggregator.cut_moments();
            self.obs.add(Counter::CutMomentsPushed, pushed);
            self.obs.add(Counter::CutMomentsEvicted, evicted);
        }
        let truth = label_truth(self.scenario, &case, &window);
        let history = case_history(self.scenario, &window);
        LabeledCase {
            case,
            window,
            truth,
            history,
            minutes_origin: MINUTES_ORIGIN,
            kind: self.scenario.kind,
            injected: self.scenario.injected.clone(),
            detected,
            anomaly_type,
        }
    }
}

/// Replays a scenario's telemetry through the full online path and
/// diagnoses the closed case, under `cfg`'s look-back (`delta_s`),
/// diagnoser (`pinsql`, whose `parallelism` applies inside the diagnosis)
/// and detector `kernel`; the fleet-shaped knobs do not apply to one
/// instance. The whole replay — ingest folds, detector steps, window cut
/// and the three diagnosis stages — lands in `obs`.
///
/// The returned `(LabeledCase, Diagnosis)` is bit-identical to what the
/// batch path (`materialize` + `PinSql::diagnose`) produces for the same
/// scenario and configuration, whatever `O` is — the engine's
/// replay-equivalence contract, pinned against the golden corpus by the
/// `equivalence` matrix.
pub fn replay_diagnose<O: Observer>(
    scenario: &Scenario,
    cfg: &FleetConfig,
    obs: &O,
) -> (LabeledCase, Diagnosis) {
    let events = materialize_events(scenario, None);
    let mut inst = OnlineInstance::with_observer(scenario, cfg.delta_s, obs.clone())
        .with_kernel(cfg.kernel)
        .with_cut(cfg.pinsql.cut);
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

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql::PinSqlConfig;
    use pinsql_scenario::{generate_base, inject, materialize, AnomalyKind, ScenarioConfig};

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
        for (x, y) in a.case.templates.iter().zip(&b.case.templates) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.record_idx, y.record_idx);
            assert_eq!(x.series.execution_count, y.series.execution_count);
            assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms);
            assert_eq!(x.series.examined_rows, y.series.examined_rows);
        }
    }

    fn assert_diagnosis_eq(a: &Diagnosis, b: &Diagnosis) {
        assert_eq!(a.hsqls, b.hsqls);
        assert_eq!(a.rsqls, b.rsqls);
        assert_eq!(a.reported_rsqls, b.reported_rsqls);
        assert_eq!(a.n_verified, b.n_verified);
        assert_eq!(a.n_clusters, b.n_clusters);
        assert_eq!(a.selected_clusters, b.selected_clusters);
    }

    #[test]
    fn replay_matches_batch_bit_for_bit() {
        // One spike case and one lock case cover both window-selection
        // paths; the full 16-case corpus is pinned at the workspace root.
        for (kind, seed) in [(AnomalyKind::BusinessSpike, 42), (AnomalyKind::MdlLock, 43)] {
            let cfg = ScenarioConfig::default().with_seed(seed);
            let base = generate_base(&cfg);
            let scenario = inject(&base, &cfg, kind);

            let batch_lc = materialize(&scenario, 600);
            let pin = PinSqlConfig::default();
            let batch_d = PinSql::new(pin.clone()).diagnose(
                &batch_lc.case,
                &batch_lc.window,
                &batch_lc.history,
                batch_lc.minutes_origin,
            );

            let (online_lc, online_d) =
                replay_diagnose(&scenario, &FleetConfig::default(), &NoopObserver);
            assert_case_eq(&online_lc, &batch_lc);
            assert_diagnosis_eq(&online_d, &batch_d);
        }
    }

    #[test]
    fn chunked_stream_matches_per_event_ingest() {
        let cfg = ScenarioConfig::default().with_seed(11).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = materialize_events(&scenario, None);

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

    #[test]
    fn kernel_kinds_replay_identically() {
        let cfg = ScenarioConfig::default().with_seed(21).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let replay = |kernel| {
            let cfg = FleetConfig { delta_s: 300, kernel, ..FleetConfig::default() };
            replay_diagnose(&scenario, &cfg, &NoopObserver)
        };
        let (lc_fast, d_fast) = replay(KernelKind::Fast);
        let (lc_ref, d_ref) = replay(KernelKind::Reference);
        assert_case_eq(&lc_fast, &lc_ref);
        assert_diagnosis_eq(&d_fast, &d_ref);
    }

    #[test]
    fn instance_tracks_stream_state() {
        let cfg = ScenarioConfig::default().with_seed(7).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = materialize_events(&scenario, None);
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
    fn snapshot_restore_mid_stream_is_behaviorally_exact() {
        let cfg = ScenarioConfig::default().with_seed(31).with_businesses(6);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let events = materialize_events(&scenario, None);

        for kernel in [KernelKind::Reference, KernelKind::Fast] {
            for split in [0, 1, events.len() / 3, events.len() / 2, events.len()] {
                let mut live = OnlineInstance::new(&scenario, 300).with_kernel(kernel);
                let mut pre = OnlineInstance::new(&scenario, 300).with_kernel(kernel);
                live.ingest_stream(events[..split].to_vec());
                pre.ingest_stream(events[..split].to_vec());

                let snap = pre.snapshot();
                assert_eq!(snap.kernel(), kernel);
                // A valid blob survives the untrusted entry point too.
                let snap =
                    crate::snapshot::InstanceSnapshot::from_bytes(snap.into_bytes()).unwrap();
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
    }

    #[test]
    fn restore_rejects_wrong_scenario_and_corrupt_blobs() {
        let cfg_a = ScenarioConfig::default().with_seed(31).with_businesses(6);
        let base_a = generate_base(&cfg_a);
        let scenario_a = inject(&base_a, &cfg_a, AnomalyKind::BusinessSpike);
        let cfg_b = ScenarioConfig::default().with_seed(77).with_businesses(5);
        let base_b = generate_base(&cfg_b);
        let scenario_b = inject(&base_b, &cfg_b, AnomalyKind::MdlLock);

        let events = materialize_events(&scenario_a, None);
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
        let step = (bytes.len() / 97).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let Ok(short) = crate::snapshot::InstanceSnapshot::from_bytes(bytes[..cut].to_vec())
            else {
                continue; // header-level rejection is fine too
            };
            assert!(
                OnlineInstance::restore(&scenario_a, &short).is_err(),
                "cut at {cut} restored"
            );
        }
    }
}
