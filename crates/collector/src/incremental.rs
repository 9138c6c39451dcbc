//! Incremental per-template aggregation with bounded state.
//!
//! The online replacement for [`aggregate_case`](crate::aggregate_case):
//! instead of densifying a complete trace after the fact, the
//! [`IncrementalAggregator`] folds a [`TelemetryEvent`] stream as it
//! arrives into
//!
//! * ring-buffered **1-second cells** — per-template `(count, total
//!   response time, examined rows)` keyed by absolute second;
//! * a bounded **raw-record ring** — the §IV-C session estimator needs the
//!   individual records of a collection window, so they are retained for
//!   the same horizon as the cells (the paper keeps three days of raw
//!   logs; the default here is shorter because simulated windows are);
//! * a bounded **metric-sample ring** — one [`MetricsSample`] per second;
//! * an in-line **1-minute history feed** — each fully-elapsed minute's
//!   per-template execution counts are folded into a [`HistoryStore`] for
//!   §VI history-trend verification, so a long-running instance
//!   accumulates its own look-back without any batch job.
//!
//! Everything except the history store is bounded by
//! [`IncrementalConfig::retention_s`]: as the watermark advances, cells,
//! records, and metric samples older than the horizon are evicted.
//!
//! ## The allocation-lean hot path
//!
//! Attributing one query record costs two dense-`Vec` lookups (spec →
//! catalog slot, slot → cell in the second's compact row — see
//! [`CellStoreKind`]) and a ring push; no hashing, no per-record
//! allocation (evicted rows are recycled, so the steady state allocates
//! nothing per second either). Time-ordered streams should prefer the
//! chunked entry points
//! ([`ingest_query_run`](IncrementalAggregator::ingest_query_run) /
//! [`ingest_drain`](IncrementalAggregator::ingest_drain)), which amortize
//! the watermark check and the row lookup across every record of a second
//! and devirtualize the cell-store representation once per run. Per-minute
//! history folding reuses one slot-indexed scratch buffer instead of
//! building a map per minute.
//!
//! ## The incremental cut
//!
//! With [`CutKind::Incremental`] (the default), the aggregator also keeps
//! *running* per-template moments at ingest — per-slot execution-count
//! moments, count·session co-sums, and global session moments — evicted in
//! step with retention. A `snapshot` then carries a
//! [`WindowCut`](crate::WindowCut): every template's 1-minute matrix row
//! (bucketed during the sweep the snapshot already runs, bit-identical to
//! `TemplateSeries::per_minute`) plus an advisory template↔session Pearson
//! gate assembled from the sums in O(templates). [`CutKind::Reference`]
//! turns all of it off and leaves each cut to re-derive rows from the raw
//! series.
//!
//! `snapshot` is assembled from running state, not a re-scan: one sweep
//! over the window's touched cells yields every template's execution-count
//! moments ([`MomentAccumulator`]), after which each template's window
//! membership, total record count (hence the exact `record_idx` /
//! `records` capacities), and summary statistics are O(1) field reads —
//! see [`window_moments`](IncrementalAggregator::window_moments). On
//! time-ordered streams the record ring is known sorted (a cheap flag
//! maintained at ingest), so the window's records are located by binary
//! search instead of scanning the whole retention horizon.
//!
//! ## Replay equivalence
//!
//! [`IncrementalAggregator::snapshot`] re-assembles a [`CaseData`] for any
//! window still inside the retention horizon. For a stream produced by
//! [`pinsql_dbsim::telemetry::interleave`] (time-ordered, arrival-stable),
//! the snapshot is **bit-identical** to what
//! [`aggregate_case`](crate::aggregate_case) computes from the complete
//! trace: records are ingested in the same order the batch path sums them,
//! so every per-cell floating-point accumulation happens in the same
//! sequence — through the scalar *and* the chunked entry points, over
//! either cell-store kind. The engine crate's golden replay tests pin this
//! contract.

use crate::aggregate::{CaseData, TemplateData, TemplateSeries, WindowCut};
use crate::catalog::TemplateCatalog;
use crate::cellstore::{Cell, CellStore, CellStoreKind, RowMut};
use crate::history::HistoryStore;
use pinsql_dbsim::probe::ProbeLog;
use pinsql_dbsim::telemetry::{query_run, second_of};
use pinsql_dbsim::wire::{query_record_bytes, query_record_from_bytes, QUERY_RECORD_BYTES};
use pinsql_dbsim::{InstanceMetrics, MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_sqlkit::SqlId;
use pinsql_timeseries::wire::{f64_at, set_f64, set_u32, set_u64, u32_at, u64_at};
use pinsql_timeseries::{
    CoMomentAccumulator, CutKind, MomentAccumulator, WireError, WireReader, WireWriter,
};
use pinsql_workload::TemplateSpec;
use std::collections::VecDeque;

/// Serialized size of one resident cell: slot + count + Σrt + Σrows.
const CELL_ROW_BYTES: usize = 4 + 3 * 8;

/// Serialized size of one running moment: count + Σx + Σx².
const MOMENT_ROW_BYTES: usize = 3 * 8;

/// One cell of the `PSNP` cell ring as its fixed-width row.
#[inline]
fn cell_row(slot: u32, cell: Cell) -> [u8; CELL_ROW_BYTES] {
    let mut row = [0u8; CELL_ROW_BYTES];
    set_u32(&mut row, 0, slot);
    set_f64(&mut row, 4, cell.0);
    set_f64(&mut row, 12, cell.1);
    set_f64(&mut row, 20, cell.2);
    row
}

/// The `(slot, cell)` a [`cell_row`] holds; the slot is unchecked.
#[inline]
fn cell_from_row(row: &[u8; CELL_ROW_BYTES]) -> (u32, Cell) {
    (u32_at(row, 0), (f64_at(row, 4), f64_at(row, 12), f64_at(row, 20)))
}

/// One running moment of the `PSNP` cut-state section as its row.
#[inline]
fn moment_row(m: &MomentAccumulator) -> [u8; MOMENT_ROW_BYTES] {
    let mut row = [0u8; MOMENT_ROW_BYTES];
    set_u64(&mut row, 0, m.count());
    set_f64(&mut row, 8, m.sum());
    set_f64(&mut row, 16, m.sum_sq());
    row
}

/// The moment a [`moment_row`] holds.
#[inline]
fn moment_from_row(row: &[u8; MOMENT_ROW_BYTES]) -> MomentAccumulator {
    MomentAccumulator::from_sums(u64_at(row, 0), f64_at(row, 8), f64_at(row, 16))
}

/// Non-finite telemetry reads as 0 everywhere the cut moments touch it —
/// the same rule [`window_metrics`](IncrementalAggregator::snapshot) and
/// the batch slicer apply, so the running sums agree with what a window
/// re-scan would see.
#[inline]
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Tuning for the incremental aggregator.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Seconds of cells / records / metric samples to retain behind the
    /// watermark. Must cover the largest collection window a diagnosis
    /// will ask for (`δ_s` + anomaly length), and must be ≥ 60 so every
    /// minute folds into the history feed before any of its cells can be
    /// evicted (the fold counts executions at ingest time; see
    /// `fold_history`).
    pub retention_s: i64,
    /// Absolute minute index the stream's second 0 maps to in the history
    /// store's timeline (histories are addressed by absolute minute).
    pub history_origin_min: i64,
    /// Row representation for the per-second cell ring (dense slab by
    /// default; the hashed reference kind is for equivalence tests and
    /// enormous sparse catalogs).
    pub cell_store: CellStoreKind,
    /// Whether window cuts carry running-moment state assembled at ingest
    /// (`Incremental`, the default) or leave every cut to re-derive its
    /// rows from the raw series (`Reference`).
    pub cut: CutKind,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            retention_s: 7200,
            history_origin_min: 0,
            cell_store: CellStoreKind::Dense,
            cut: CutKind::default(),
        }
    }
}

impl IncrementalConfig {
    /// Builder-style retention override.
    pub fn with_retention(mut self, retention_s: i64) -> Self {
        assert!(retention_s >= 60, "retention must cover at least one full minute");
        self.retention_s = retention_s;
        self
    }

    /// Builder-style history-origin override.
    pub fn with_history_origin(mut self, minute: i64) -> Self {
        self.history_origin_min = minute;
        self
    }

    /// Builder-style cell-store override.
    pub fn with_cell_store(mut self, kind: CellStoreKind) -> Self {
        self.cell_store = kind;
        self
    }

    /// Builder-style cut-path override.
    pub fn with_cut(mut self, cut: CutKind) -> Self {
        self.cut = cut;
        self
    }
}

/// Ingestion counters (observability for the fleet engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total events ingested (all variants).
    pub events: u64,
    /// Query records folded into cells.
    pub queries: u64,
    /// Records dropped for non-finite timestamps/response times.
    pub malformed: u64,
    /// Events older than the retention horizon, dropped on arrival.
    pub late: u64,
    /// Per-second cell rows materialized in the ring since birth (a
    /// monotone fold counter; resident rows are `cell_seconds`).
    pub cells: u64,
    /// Cells, records, and metric samples evicted by retention.
    pub evictions: u64,
    /// Complete minutes folded into the in-line history feed.
    pub history_minutes: u64,
}

/// In-flight per-minute execution counts for the history feed.
///
/// `rows[m - start]` is the dense slot-count row for minute `m`. Records
/// bump their minute's row at ingest time; when a minute completes the
/// fold detaches its row and emits it — no re-read of the minute's 60
/// cell rows, which are cache-cold by then. This is *exactly* equivalent
/// to re-scanning the cells because (a) counts are integer-valued sums of
/// `1.0`, so arrival order cannot change the total, (b) a record is
/// accumulated iff its minute is at or ahead of the fold frontier, which
/// is also precisely when a fold-time scan would still see it (minutes
/// behind the frontier never re-fold), and (c) `retention_s ≥ 60`
/// guarantees a minute folds before any of its cell rows can be evicted,
/// so a fold-time scan could never miss an accumulated record either.
#[derive(Debug, Clone, Default)]
struct MinuteAcc {
    /// Minute index of `rows.front()` (meaningless while `rows` is empty).
    start: i64,
    rows: VecDeque<Vec<f64>>,
    /// Recycled rows, so steady state allocates nothing per minute.
    free: Vec<Vec<f64>>,
}

impl MinuteAcc {
    /// The slot-count row for `minute`, extending the ring to cover it.
    fn row_mut(&mut self, minute: i64, n_slots: usize) -> &mut [f64] {
        if self.rows.is_empty() {
            self.start = minute;
            let row = Self::zeroed(&mut self.free, n_slots);
            self.rows.push_back(row);
        } else if minute < self.start {
            for _ in 0..(self.start - minute) {
                let row = Self::zeroed(&mut self.free, n_slots);
                self.rows.push_front(row);
            }
            self.start = minute;
        } else {
            while self.rows.len() <= (minute - self.start) as usize {
                let row = Self::zeroed(&mut self.free, n_slots);
                self.rows.push_back(row);
            }
        }
        &mut self.rows[(minute - self.start) as usize]
    }

    /// Detaches `minute`'s counts if any were accumulated. Rows behind
    /// `minute` are recycled (the fold visits minutes in order, so they
    /// can only be rows a gap minute never touched).
    fn take(&mut self, minute: i64) -> Option<Vec<f64>> {
        while !self.rows.is_empty() && self.start < minute {
            let row = self.rows.pop_front().expect("checked non-empty");
            self.free.push(row);
            self.start += 1;
        }
        if self.rows.is_empty() || self.start != minute {
            return None;
        }
        self.start += 1;
        self.rows.pop_front()
    }

    /// Returns a detached row to the recycle pool.
    fn recycle(&mut self, row: Vec<f64>) {
        self.free.push(row);
    }

    fn zeroed(free: &mut Vec<Vec<f64>>, n_slots: usize) -> Vec<f64> {
        let mut row = free.pop().unwrap_or_default();
        row.clear();
        row.resize(n_slots, 0.0);
        row
    }
}

/// Running per-template moment state behind [`CutKind::Incremental`].
///
/// Maintained in O(1) per record and per metric sample, evicted in step
/// with retention, so a window cut assembles its template↔session gate
/// Pearson scores from sums (total minus the out-of-window remainder)
/// instead of re-scanning the window. The per-slot count moments are
/// integer-valued (sums of per-second execution counts), so push/evict
/// round-trips are exact and the running state never drifts; the
/// count·session co-sums are real-valued and back only the *advisory*
/// gate, so their tolerance is pinned by property tests rather than
/// bit-identity.
#[derive(Debug, Clone, Default)]
struct CutTracker {
    /// Live iff the config says `CutKind::Incremental`.
    enabled: bool,
    /// Per-slot moments of per-second execution counts over the seconds
    /// the template has a resident cell in.
    counts: Vec<MomentAccumulator>,
    /// Per-slot Σ count·session over the same seconds (an absent metric
    /// sample reads 0; corrected in place when the sample lands).
    sxy: Vec<f64>,
    /// Active-session moments over resident metric seconds, non-finite
    /// samples read as 0 like `window_metrics`.
    sessions: MomentAccumulator,
    /// Moment updates applied (records + metric samples) since birth.
    pushed: u64,
    /// Contributions evicted past the retention horizon since birth.
    evicted: u64,
}

impl CutTracker {
    fn new(enabled: bool, n_slots: usize) -> Self {
        let n = if enabled { n_slots } else { 0 };
        Self {
            enabled,
            counts: vec![MomentAccumulator::default(); n],
            sxy: vec![0.0; n],
            sessions: MomentAccumulator::default(),
            pushed: 0,
            evicted: 0,
        }
    }

    /// One record landed on `slot`, whose cell previously held `prev`
    /// executions this second; `session` is the second's current reading.
    /// The count moment swaps `prev → prev + 1` and the co-sum grows by
    /// `(prev+1)·y − prev·y = y`.
    #[inline]
    fn on_record(&mut self, slot: u32, prev: f64, session: f64) {
        if !self.enabled {
            return;
        }
        let m = &mut self.counts[slot as usize];
        if prev > 0.0 {
            m.evict(prev);
        }
        m.push(prev + 1.0);
        self.sxy[slot as usize] += session;
        self.pushed += 1;
    }

    /// A cell holding `count` executions at a second reading `session`
    /// left the retention horizon.
    #[inline]
    fn evict_cell(&mut self, slot: u32, count: f64, session: f64) {
        self.counts[slot as usize].evict(count);
        self.sxy[slot as usize] -= count * session;
        self.evicted += 1;
    }
}

/// The incremental, bounded-state aggregation engine.
#[derive(Debug, Clone)]
pub struct IncrementalAggregator {
    catalog: TemplateCatalog,
    cfg: IncrementalConfig,
    /// Retained raw records in arrival order.
    records: VecDeque<QueryRecord>,
    /// True while `records` is non-decreasing in `start_ms` — the
    /// time-ordered-stream common case, which lets `snapshot` binary-search
    /// the window instead of scanning the ring.
    records_sorted: bool,
    /// Per-second cell rows for contiguous seconds
    /// `[cells_start, cells_start + cells.len())`.
    cells: CellStore,
    cells_start: i64,
    /// Per-second metric samples for contiguous seconds
    /// `[metrics_start, metrics_start + metrics.len())`.
    metrics: VecDeque<MetricsSample>,
    metrics_start: i64,
    /// All telemetry with timestamps `< watermark` has been delivered.
    watermark: i64,
    history: HistoryStore,
    /// Next stream minute (relative, i.e. `second / 60`) to fold into the
    /// history store; `None` until the first cell arrives.
    history_next_min: Option<i64>,
    stats: IngestStats,
    /// In-flight per-minute execution counts, bumped at ingest time while
    /// the record is in hand instead of re-scanning the minute's (by then
    /// cache-cold) cell rows when it folds.
    minute_acc: MinuteAcc,
    /// Slot → cached [`HistoryStore`] entry index (`u32::MAX` = not yet
    /// resolved), so the minute fold hashes each template once ever.
    slot_hist: Vec<u32>,
    /// Slot → position-in-`templates` scratch for `snapshot`, reused per
    /// call (`u32::MAX` = template absent from the window).
    slot_pos: Vec<u32>,
    /// Running per-template cut moments (empty when the config says
    /// [`CutKind::Reference`]).
    cut_state: CutTracker,
}

impl IncrementalAggregator {
    /// Creates an aggregator for a workload's template specs.
    pub fn new(specs: &[TemplateSpec], cfg: IncrementalConfig) -> Self {
        Self::with_catalog(TemplateCatalog::from_specs(specs), cfg)
    }

    /// Creates an aggregator over a pre-built catalog.
    pub fn with_catalog(catalog: TemplateCatalog, cfg: IncrementalConfig) -> Self {
        assert!(cfg.retention_s >= 60, "retention must cover at least one full minute");
        let cells = CellStore::new(cfg.cell_store, catalog.n_slots());
        let cut_state = CutTracker::new(cfg.cut == CutKind::Incremental, catalog.n_slots());
        Self {
            catalog,
            cfg,
            records: VecDeque::new(),
            records_sorted: true,
            cells,
            cells_start: 0,
            metrics: VecDeque::new(),
            metrics_start: 0,
            watermark: i64::MIN,
            history: HistoryStore::new(),
            history_next_min: None,
            stats: IngestStats::default(),
            minute_acc: MinuteAcc::default(),
            slot_hist: Vec::new(),
            slot_pos: Vec::new(),
            cut_state,
        }
    }

    /// Folds one telemetry event into the aggregates.
    ///
    /// Callers that have already matched the event (the engine's instance
    /// loop does, to feed the detector bank) should call the per-variant
    /// entry points below instead of re-wrapping — same counters, same
    /// state, one `match` fewer per event.
    pub fn ingest(&mut self, ev: TelemetryEvent) {
        match ev {
            TelemetryEvent::Query(rec) => self.ingest_query_event(rec),
            TelemetryEvent::Metrics(sample) => self.ingest_metrics_event(*sample),
            TelemetryEvent::Tick { second } => self.ingest_tick(second),
        }
    }

    /// [`ingest`](Self::ingest) for an already-matched query event.
    #[inline]
    pub fn ingest_query_event(&mut self, rec: QueryRecord) {
        self.stats.events += 1;
        self.ingest_query(rec);
    }

    /// [`ingest`](Self::ingest) for an already-matched metrics event.
    #[inline]
    pub fn ingest_metrics_event(&mut self, sample: MetricsSample) {
        self.stats.events += 1;
        self.ingest_metrics(sample);
    }

    /// [`ingest`](Self::ingest) for an already-matched tick.
    #[inline]
    pub fn ingest_tick(&mut self, second: i64) {
        self.stats.events += 1;
        self.advance_watermark(second);
    }

    /// Folds a buffered stretch of a stream, chunking same-second query
    /// runs through [`ingest_query_run`](Self::ingest_query_run), then
    /// clears the buffer so callers can reuse its allocation.
    pub fn ingest_drain(&mut self, events: &mut Vec<TelemetryEvent>) {
        let mut i = 0;
        while i < events.len() {
            if let Some((second, len)) = query_run(events, i) {
                self.ingest_query_run(second, &events[i..i + len]);
                i += len;
            } else {
                // Move the event out; the placeholder is cleared below.
                let ev =
                    std::mem::replace(&mut events[i], TelemetryEvent::Tick { second: i64::MIN });
                self.ingest(ev);
                i += 1;
            }
        }
        events.clear();
    }

    /// Folds one query record (arrival attribution, §IV-A).
    pub fn ingest_query(&mut self, rec: QueryRecord) {
        if !rec.start_ms.is_finite() || !rec.response_ms.is_finite() {
            self.stats.malformed += 1;
            return;
        }
        let second = second_of(rec.start_ms);
        if self.watermark != i64::MIN && second < self.watermark - self.cfg.retention_s {
            self.stats.late += 1;
            return;
        }
        self.stats.queries += 1;
        let slot = self.catalog.slot_of_spec(rec.spec);
        let idx = self.row_index(second);
        let prev = self.cells.add(idx, slot, rec.response_ms, rec.examined_rows as f64);
        if self.cut_state.enabled {
            let session = self.session_at(second);
            self.cut_state.on_record(slot, prev, session);
        }
        let minute = second.div_euclid(60);
        if self.history_next_min.is_none_or(|next| minute >= next) {
            self.minute_acc.row_mut(minute, self.catalog.n_slots())[slot as usize] += 1.0;
        }
        if self.records.back().is_some_and(|b| rec.start_ms < b.start_ms) {
            self.records_sorted = false;
        }
        self.records.push_back(rec);
    }

    /// Folds a run of [`TelemetryEvent::Query`] events whose (finite)
    /// arrival timestamps all fall in `second` — the chunked hot path: the
    /// retention check and the cell-row lookup are paid once per run
    /// instead of once per record. Produces state and stats bit-identical
    /// to calling [`ingest`](Self::ingest) per event.
    ///
    /// Callers get runs from [`pinsql_dbsim::telemetry::query_run`]; the
    /// second/variant contract is debug-asserted.
    pub fn ingest_query_run(&mut self, second: i64, events: &[TelemetryEvent]) {
        self.stats.events += events.len() as u64;
        if self.watermark != i64::MIN && second < self.watermark - self.cfg.retention_s {
            // Late run: classify per record exactly like the scalar path
            // (a corrupted response time reads as malformed, not late).
            for ev in events {
                let TelemetryEvent::Query(rec) = ev else { continue };
                if rec.response_ms.is_finite() {
                    self.stats.late += 1;
                } else {
                    self.stats.malformed += 1;
                }
            }
            return;
        }
        let idx = self.row_index(second);
        let minute = second.div_euclid(60);
        // The whole run shares one second, so its session reading — the
        // cut tracker's co-moment `y` — resolves once per run too.
        let session = if self.cut_state.enabled { self.session_at(second) } else { 0.0 };
        let Self {
            cells,
            catalog,
            records,
            records_sorted,
            stats,
            minute_acc,
            history_next_min,
            cut_state,
            ..
        } = self;
        // The whole run lands in one minute; resolve its history counts
        // row once (None when the minute already folded — a late run the
        // history feed must not double-count).
        let mut hist: Option<&mut [f64]> = history_next_min
            .is_none_or(|next| minute >= next)
            .then(|| minute_acc.row_mut(minute, catalog.n_slots()));
        // Dispatch the row representation once per run, not once per
        // record: each arm hands `fold_run` a monomorphic cell fold.
        match cells.row_mut(idx) {
            RowMut::Dense(mut row) => Self::fold_run(
                second,
                events,
                catalog,
                records,
                records_sorted,
                stats,
                |slot, rt, rows| {
                    let prev = row.add(slot, rt, rows);
                    cut_state.on_record(slot, prev, session);
                    if let Some(h) = hist.as_deref_mut() {
                        h[slot as usize] += 1.0;
                    }
                },
            ),
            RowMut::Hashed(map) => Self::fold_run(
                second,
                events,
                catalog,
                records,
                records_sorted,
                stats,
                |slot, rt, rows| {
                    let cell = map.entry(slot).or_insert((0.0, 0.0, 0.0));
                    let prev = cell.0;
                    cell.0 += 1.0;
                    cell.1 += rt;
                    cell.2 += rows;
                    cut_state.on_record(slot, prev, session);
                    if let Some(h) = hist.as_deref_mut() {
                        h[slot as usize] += 1.0;
                    }
                },
            ),
        }
    }

    /// The shared per-record body of [`ingest_query_run`](Self::ingest_query_run),
    /// generic over the cell fold so each store kind gets its own compiled
    /// inner loop.
    #[inline]
    fn fold_run(
        second: i64,
        events: &[TelemetryEvent],
        catalog: &TemplateCatalog,
        records: &mut VecDeque<QueryRecord>,
        records_sorted: &mut bool,
        stats: &mut IngestStats,
        mut fold_cell: impl FnMut(u32, f64, f64),
    ) {
        records.reserve(events.len());
        for ev in events {
            let TelemetryEvent::Query(rec) = ev else {
                debug_assert!(false, "non-query event in a query run");
                continue;
            };
            debug_assert_eq!(
                second_of(rec.start_ms),
                second,
                "query run crosses a second boundary"
            );
            if !rec.response_ms.is_finite() {
                stats.malformed += 1;
                continue;
            }
            stats.queries += 1;
            fold_cell(catalog.slot_of_spec(rec.spec), rec.response_ms, rec.examined_rows as f64);
            if records.back().is_some_and(|b| rec.start_ms < b.start_ms) {
                *records_sorted = false;
            }
            records.push_back(*rec);
        }
    }

    /// Stores one per-second metric sample. A sample for a second already
    /// held replaces it; gaps are zero-filled so the ring stays contiguous
    /// (a monitoring gap reads as "no load", matching the batch slicer).
    pub fn ingest_metrics(&mut self, sample: MetricsSample) {
        let second = sample.second;
        if self.metrics.is_empty() {
            self.metrics_start = second;
            self.on_session_change(second, None, finite(sample.active_session));
            self.metrics.push_back(sample);
        } else if second < self.metrics_start {
            self.stats.late += 1;
            return;
        } else {
            let idx = (second - self.metrics_start) as usize;
            while self.metrics.len() < idx {
                let missing = self.metrics_start + self.metrics.len() as i64;
                // A zero-filled gap is a cut no-op beyond the resident
                // count: an absent second already read as session 0.
                self.on_session_change(missing, None, 0.0);
                self.metrics.push_back(MetricsSample { second: missing, ..Default::default() });
            }
            if idx < self.metrics.len() {
                let old = finite(self.metrics[idx].active_session);
                self.on_session_change(second, Some(old), finite(sample.active_session));
                self.metrics[idx] = sample;
            } else {
                self.on_session_change(second, None, finite(sample.active_session));
                self.metrics.push_back(sample);
            }
        }
        // A sample for second `s` is published once `s` has fully elapsed.
        self.advance_watermark(second + 1);
    }

    /// Cut-moment bookkeeping for a metric second becoming resident
    /// (`old = None`) or being replaced: the session moments move
    /// `old → new`, and every template with a resident cell at `second`
    /// gets its co-sum corrected by `count·(new − old)` — one sweep of
    /// that second's compact cell row, the same cost ingesting the row
    /// paid.
    fn on_session_change(&mut self, second: i64, old: Option<f64>, new: f64) {
        if !self.cut_state.enabled {
            return;
        }
        if let Some(old) = old {
            self.cut_state.sessions.evict(old);
        }
        self.cut_state.sessions.push(new);
        self.cut_state.pushed += 1;
        let delta = new - old.unwrap_or(0.0);
        if delta != 0.0 {
            if let Some(idx) = self.cell_index(second) {
                let Self { cells, cut_state, .. } = self;
                cells.for_each(idx, |slot, cell| {
                    cut_state.sxy[slot as usize] += cell.0 * delta;
                });
            }
        }
    }

    /// Advances the watermark: folds completed minutes into the history
    /// store, then evicts state behind the retention horizon.
    pub fn advance_watermark(&mut self, second: i64) {
        if self.watermark != i64::MIN && second <= self.watermark {
            return;
        }
        self.watermark = second;
        self.fold_history();
        self.enforce_retention();
    }

    /// The current watermark (`i64::MIN` before any event).
    pub fn watermark(&self) -> i64 {
        self.watermark
    }

    /// The template catalog the aggregator attributes records with.
    pub fn catalog(&self) -> &TemplateCatalog {
        &self.catalog
    }

    /// Ingestion counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The in-line per-template 1-minute execution history.
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// `#execution` for a template at an absolute second (0 outside the
    /// retained horizon) — the counter the online detector-side pollers
    /// read.
    pub fn executions(&self, id: SqlId, second: i64) -> f64 {
        let Some(idx) = self.cell_index(second) else { return 0.0 };
        let Some(slot) = self.catalog.slot_of_id(id) else { return 0.0 };
        self.cells.get(idx, slot).map_or(0.0, |c| c.0)
    }

    /// Number of 1-second cell slots currently held (bounded-memory
    /// invariant: never exceeds `retention_s` once the stream is longer
    /// than the horizon).
    pub fn cell_seconds(&self) -> usize {
        self.cells.len()
    }

    /// Number of raw records currently retained.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Number of metric samples currently retained.
    pub fn metric_seconds(&self) -> usize {
        self.metrics.len()
    }

    /// Re-assembles the batch-equivalent [`CaseData`] for the collection
    /// window `[ts, te)`.
    ///
    /// For any window fully inside the retention horizon of a time-ordered
    /// stream, the result is bit-identical to
    /// [`aggregate_case`](crate::aggregate_case) over the full trace (see
    /// module docs). Windows reaching beyond the retained metrics are
    /// clipped exactly the way the batch slicer clips to available data.
    ///
    /// Takes `&mut self` only to reuse the slot-position scratch buffer
    /// across calls; observable state is untouched.
    ///
    /// # Panics
    /// Panics if `te <= ts` (empty collection window), like the batch path.
    pub fn snapshot(&mut self, ts: i64, te: i64) -> CaseData {
        assert!(te > ts, "empty collection window");
        let n = (te - ts) as usize;
        let ts_ms = ts as f64 * 1000.0;
        let te_ms = te as f64 * 1000.0;

        // One sweep over the window's touched cells yields each template's
        // execution-count moments. Membership and sizing then need no
        // record re-scan: a template is in the window iff it has a touched
        // cell there (every retained record has its cell row — they share
        // one retention horizon), and its exact record count is the
        // integer-exact count sum. So `templates` and `records` are built
        // at final size, and the per-record loop below is a push into
        // pre-sized vectors.
        let touched = self.sweep_window_moments(ts, te);
        let window_records: usize = touched.iter().map(|(_, m)| m.sum() as usize).sum();
        let mut templates: Vec<TemplateData> = touched
            .iter()
            .map(|&(slot, ref m)| TemplateData {
                id: self.catalog.id_of_slot(slot),
                series: TemplateSeries::zeros(ts, n),
                record_idx: Vec::with_capacity(m.sum() as usize),
            })
            .collect();

        let want_cut = self.cut_state.enabled;
        let Self { records: ring, records_sorted, slot_pos, catalog, cells, cells_start, .. } =
            &mut *self;
        let cells_start = *cells_start;
        let mut records: Vec<QueryRecord> = Vec::with_capacity(window_records);
        {
            // Window records in arrival order (on a time-ordered stream
            // this is the batch path's filter-then-stable-sort order). The
            // `slot_pos` scratch — populated by the sweep above — maps each
            // dense slot to its template's position; the create-on-miss arm
            // is unreachable for consistent state and kept as a graceful
            // fallback.
            let mut push_rec = |rec: &QueryRecord| {
                let slot = catalog.slot_of_spec(rec.spec) as usize;
                let tpl = if slot_pos[slot] == u32::MAX {
                    debug_assert!(false, "window record without a window cell");
                    slot_pos[slot] = templates.len() as u32;
                    templates.push(TemplateData {
                        id: catalog.id_of_slot(slot as u32),
                        series: TemplateSeries::zeros(ts, n),
                        record_idx: Vec::new(),
                    });
                    templates.last_mut().expect("just pushed")
                } else {
                    &mut templates[slot_pos[slot] as usize]
                };
                tpl.record_idx.push(records.len() as u32);
                records.push(*rec);
            };
            if *records_sorted {
                // Sorted ring: binary-search the window bounds instead of
                // scanning the whole retention horizon. Same records, same
                // order as the filter below.
                let lo_idx = ring.partition_point(|r| r.start_ms < ts_ms);
                let hi_idx = ring.partition_point(|r| r.start_ms < te_ms);
                for rec in ring.range(lo_idx..hi_idx) {
                    push_rec(rec);
                }
            } else {
                for rec in ring.iter() {
                    if rec.start_ms >= ts_ms && rec.start_ms < te_ms {
                        push_rec(rec);
                    }
                }
            }
        }

        // Series values come straight from the cells: each `(template,
        // second)` cell was accumulated record-by-record at ingest, in the
        // same order the batch aggregator sums, so assignment (not
        // re-accumulation) preserves bit-identity. With the incremental cut
        // on, the same sweep buckets each template's counts into complete
        // minutes — ascending seconds, zeros contributing nothing, exactly
        // the partial sums `TemplateSeries::per_minute` produces — so no
        // per-template re-scan ever derives the matrix rows.
        let n_minutes = n / 60;
        let mut minute_rows: Vec<Vec<f64>> = if want_cut {
            templates.iter().map(|_| vec![0.0; n_minutes]).collect()
        } else {
            Vec::new()
        };
        let lo = ts.max(cells_start);
        let hi = te.min(cells_start + cells.len() as i64);
        for s in lo..hi {
            let idx = (s - ts) as usize;
            let bucket = idx / 60;
            cells.for_each((s - cells_start) as usize, |slot, cell| {
                let pos = slot_pos[slot as usize];
                if pos != u32::MAX {
                    let series = &mut templates[pos as usize].series;
                    series.execution_count[idx] = cell.0;
                    series.total_rt_ms[idx] = cell.1;
                    series.examined_rows[idx] = cell.2;
                    if want_cut && bucket < n_minutes {
                        minute_rows[pos as usize][bucket] += cell.0;
                    }
                }
            });
        }

        // The sort below reorders `templates`, so the cut rows pair with
        // their ids first and sort the same way — they must stay parallel.
        let cut = if want_cut && minute_rows.len() == templates.len() {
            let gate = self.window_gate(ts, te, &touched);
            let mut entries: Vec<(SqlId, Vec<f64>, f64)> = Vec::with_capacity(templates.len());
            for ((tpl, row), g) in templates.iter().zip(minute_rows).zip(gate) {
                entries.push((tpl.id, row, g));
            }
            entries.sort_by_key(|(id, _, _)| *id);
            let mut cut = WindowCut {
                minute_start: ts.div_euclid(60),
                minute_rows: Vec::with_capacity(entries.len()),
                gate: Vec::with_capacity(entries.len()),
                moments_pushed: self.cut_state.pushed,
                moments_evicted: self.cut_state.evicted,
            };
            for (_, row, g) in entries {
                cut.minute_rows.push(row);
                cut.gate.push(g);
            }
            Some(Box::new(cut))
        } else {
            None
        };

        templates.sort_by_key(|t| t.id);

        CaseData {
            ts,
            te,
            catalog: self.catalog.clone(),
            metrics: self.window_metrics(ts, te),
            records,
            templates,
            cut,
        }
    }

    /// Advisory template↔active-session Pearson for every window template,
    /// assembled from the running ingest-time moments. Window sums are the
    /// resident totals minus the contributions of resident seconds
    /// *outside* `[ts, te)` (the complement trick), so the work is bounded
    /// by the retention slack plus one pass over the templates — never by
    /// the window itself.
    fn window_gate(&self, ts: i64, te: i64, touched: &[(u32, MomentAccumulator)]) -> Vec<f64> {
        let n_slots = self.catalog.n_slots();
        let mut out_counts = vec![MomentAccumulator::default(); n_slots];
        let mut out_sxy = vec![0.0f64; n_slots];
        let mut out_sessions = MomentAccumulator::default();
        for s in self.cells_start..self.cells_start + self.cells.len() as i64 {
            if s >= ts && s < te {
                continue;
            }
            let session = self.session_at(s);
            self.cells.for_each((s - self.cells_start) as usize, |slot, cell| {
                out_counts[slot as usize].push(cell.0);
                out_sxy[slot as usize] += cell.0 * session;
            });
        }
        for s in self.metrics_start..self.metrics_start + self.metrics.len() as i64 {
            if s >= ts && s < te {
                continue;
            }
            out_sessions
                .push(finite(self.metrics[(s - self.metrics_start) as usize].active_session));
        }
        let mut win_sessions = self.cut_state.sessions;
        win_sessions.unmerge(&out_sessions);
        // Pearson over the window's full length: absent seconds are zeros,
        // which contribute nothing to any sum, so passing `te − ts` as `n`
        // *is* the zero-filled series.
        let n_win = (te - ts) as u64;
        touched
            .iter()
            .map(|&(slot, _)| {
                let mut m = self.cut_state.counts[slot as usize];
                m.unmerge(&out_counts[slot as usize]);
                let sxy = self.cut_state.sxy[slot as usize] - out_sxy[slot as usize];
                CoMomentAccumulator::from_sums(
                    n_win,
                    m.sum(),
                    win_sessions.sum(),
                    m.sum_sq(),
                    win_sessions.sum_sq(),
                    sxy,
                )
                .pearson()
            })
            .collect()
    }

    /// The active-session reading for a second, 0 while its sample is
    /// absent (never collected, gap-filled-then-replaced, or evicted).
    fn session_at(&self, second: i64) -> f64 {
        match Self::index_of(self.metrics_start, self.metrics.len(), second) {
            Some(idx) => finite(self.metrics[idx].active_session),
            None => 0.0,
        }
    }

    /// Per-template first/second moments of the per-second execution
    /// counts inside `[ts, te)`, sorted by template id.
    ///
    /// One sweep over the window's *touched* cells; each template's
    /// count/sum/sum-of-squares (hence mean and variance over its active
    /// seconds) is then an O(1) finalize — no per-template re-scan. The
    /// accumulator's `n` counts the seconds the template actually executed
    /// in; callers wanting zero-inclusive means divide `sum()` by the
    /// window length instead. `snapshot` runs the same sweep to pre-size
    /// its output exactly.
    ///
    /// Takes `&mut self` only to reuse the slot-position scratch buffer.
    ///
    /// # Panics
    /// Panics if `te <= ts` (empty window), like [`snapshot`](Self::snapshot).
    pub fn window_moments(&mut self, ts: i64, te: i64) -> Vec<(SqlId, MomentAccumulator)> {
        assert!(te > ts, "empty collection window");
        let touched = self.sweep_window_moments(ts, te);
        let mut out: Vec<(SqlId, MomentAccumulator)> = touched
            .into_iter()
            .map(|(slot, m)| (self.catalog.id_of_slot(slot), m))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Sweeps the window's touched cells once, returning `(slot, moments)`
    /// in first-touch order and leaving `slot_pos[slot]` = position for
    /// every touched slot (callers use it as the template index map).
    fn sweep_window_moments(&mut self, ts: i64, te: i64) -> Vec<(u32, MomentAccumulator)> {
        self.slot_pos.clear();
        self.slot_pos.resize(self.catalog.n_slots(), u32::MAX);
        let slot_pos = &mut self.slot_pos;
        let mut touched: Vec<(u32, MomentAccumulator)> = Vec::new();
        let lo = ts.max(self.cells_start);
        let hi = te.min(self.cells_start + self.cells.len() as i64);
        for s in lo..hi {
            self.cells.for_each((s - self.cells_start) as usize, |slot, cell| {
                let pos = slot_pos[slot as usize];
                let acc = if pos == u32::MAX {
                    slot_pos[slot as usize] = touched.len() as u32;
                    touched.push((slot, MomentAccumulator::default()));
                    &mut touched.last_mut().expect("just pushed").1
                } else {
                    &mut touched[pos as usize].1
                };
                acc.push(cell.0);
            });
        }
        touched
    }

    /// The retained metrics restricted to `[ts, te)`, non-finite samples
    /// zeroed — the online analogue of the batch `slice_metrics`.
    fn window_metrics(&self, ts: i64, te: i64) -> InstanceMetrics {
        let lo = ts.max(self.metrics_start);
        let hi = te.min(self.metrics_start + self.metrics.len() as i64).max(lo);
        let len = (hi - lo) as usize;
        let mut out = InstanceMetrics {
            start_second: ts,
            active_session: Vec::with_capacity(len),
            cpu_usage: Vec::with_capacity(len),
            iops_usage: Vec::with_capacity(len),
            row_lock_waits: Vec::with_capacity(len),
            mdl_waits: Vec::with_capacity(len),
            qps: Vec::with_capacity(len),
            probes: ProbeLog::default(),
        };
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        for s in lo..hi {
            let sample = &self.metrics[(s - self.metrics_start) as usize];
            out.active_session.push(finite(sample.active_session));
            out.cpu_usage.push(finite(sample.cpu_usage));
            out.iops_usage.push(finite(sample.iops_usage));
            out.row_lock_waits.push(finite(sample.row_lock_waits));
            out.mdl_waits.push(finite(sample.mdl_waits));
            out.qps.push(finite(sample.qps));
            out.probes.samples.extend(sample.probes.iter().copied());
        }
        out
    }

    /// Ring row index for an absolute second, extending the contiguous
    /// ring as needed.
    fn row_index(&mut self, second: i64) -> usize {
        if self.cells.is_empty() {
            self.cells_start = second;
            self.cells.push_back();
            self.stats.cells += 1;
        } else if second < self.cells_start {
            // Out-of-order record older than the ring's start but inside
            // the retention horizon: prepend rows (rare; channel drivers
            // with racing producers).
            for _ in 0..(self.cells_start - second) {
                self.cells.push_front();
                self.stats.cells += 1;
            }
            self.cells_start = second;
        } else {
            let idx = (second - self.cells_start) as usize;
            while self.cells.len() <= idx {
                self.cells.push_back();
                self.stats.cells += 1;
            }
        }
        (second - self.cells_start) as usize
    }

    /// Folds every fully-elapsed minute's execution counts into the
    /// history store from the at-ingest accumulator (see [`MinuteAcc`]).
    fn fold_history(&mut self) {
        if self.cells.is_empty() {
            return;
        }
        let mut next = self
            .history_next_min
            .unwrap_or_else(|| self.cells_start.div_euclid(60));
        while (next + 1) * 60 <= self.watermark {
            let minute = next;
            next += 1;
            self.stats.history_minutes += 1;
            let Some(counts) = self.minute_acc.take(minute) else {
                continue;
            };
            // Slot-order emission is deterministic and identical for both
            // cell-store kinds (the dense counts row folded away any
            // arrival order); each slot resolves its history entry index
            // once ever, so steady-state recording is a direct vector
            // index per (template, minute), no hashing.
            self.slot_hist.resize(self.catalog.n_slots(), u32::MAX);
            for (slot, &count) in counts.iter().enumerate() {
                if count > 0.0 {
                    let entry = &mut self.slot_hist[slot];
                    if *entry == u32::MAX {
                        *entry = self.history.entry_index(self.catalog.id_of_slot(slot as u32));
                    }
                    self.history.record_at(*entry, self.cfg.history_origin_min + minute, count);
                }
            }
            self.minute_acc.recycle(counts);
        }
        self.history_next_min = Some(next);
    }

    /// Evicts cells, records, and metric samples behind the retention
    /// horizon.
    fn enforce_retention(&mut self) {
        let horizon = self.watermark - self.cfg.retention_s;
        while !self.cells.is_empty() && self.cells_start < horizon {
            if self.cut_state.enabled {
                // Cell rows pop before metric rows (below), so the session
                // reading each count was folded against is still resident
                // here — the co-sum unwinds with the exact `y` it grew by.
                let session = self.session_at(self.cells_start);
                let Self { cells, cut_state, .. } = self;
                cells.for_each(0, |slot, cell| cut_state.evict_cell(slot, cell.0, session));
            }
            self.cells.pop_front();
            self.cells_start += 1;
            self.stats.evictions += 1;
        }
        if self.cells.is_empty() {
            self.cells_start = self.cells_start.max(horizon);
        }
        while !self.metrics.is_empty() && self.metrics_start < horizon {
            if self.cut_state.enabled {
                // The second's cell row is already gone, so only the
                // session moments shrink; the per-slot co-sums hold no
                // contribution from it anymore.
                let old = finite(self.metrics.front().expect("checked non-empty").active_session);
                self.cut_state.sessions.evict(old);
                self.cut_state.evicted += 1;
            }
            self.metrics.pop_front();
            self.metrics_start += 1;
            self.stats.evictions += 1;
        }
        let horizon_ms = horizon as f64 * 1000.0;
        while let Some(front) = self.records.front() {
            if front.start_ms < horizon_ms {
                self.records.pop_front();
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
        if self.records.is_empty() {
            // An emptied ring is trivially sorted again; late disorder
            // stops poisoning the binary-search fast path forever.
            self.records_sorted = true;
        }
    }

    /// The active cut path.
    pub fn cut(&self) -> CutKind {
        self.cfg.cut
    }

    /// Running cut-moment counters `(pushed, evicted)` for observability;
    /// both zero on the reference path.
    pub fn cut_moments(&self) -> (u64, u64) {
        (self.cut_state.pushed, self.cut_state.evicted)
    }

    /// Flips the cut path at runtime (daemon config pushes): switching to
    /// `Incremental` rebuilds the running moments from the resident rings,
    /// switching to `Reference` drops them. A no-op when already on `kind`.
    pub fn set_cut(&mut self, kind: CutKind) {
        if self.cfg.cut == kind {
            return;
        }
        self.cfg.cut = kind;
        self.rebuild_cut_state();
    }

    /// Rebuilds the running cut moments from the resident cell and metric
    /// rings — the switch-on path for [`set_cut`](Self::set_cut) and the
    /// fallback for checkpoints that predate the cut-state section. On the
    /// reference path this just drops any tracker state.
    pub fn rebuild_cut_state(&mut self) {
        if self.cfg.cut != CutKind::Incremental {
            self.cut_state = CutTracker::default();
            return;
        }
        let mut t = CutTracker::new(true, self.catalog.n_slots());
        for s in self.cells_start..self.cells_start + self.cells.len() as i64 {
            let session = self.session_at(s);
            self.cells.for_each((s - self.cells_start) as usize, |slot, cell| {
                t.counts[slot as usize].push(cell.0);
                t.sxy[slot as usize] += cell.0 * session;
                t.pushed += 1;
            });
        }
        for sample in &self.metrics {
            t.sessions.push(finite(sample.active_session));
            t.pushed += 1;
        }
        self.cut_state = t;
    }

    /// Serializes the running cut-moment state. This is deliberately *not*
    /// part of [`write_snapshot`](Self::write_snapshot): the engine
    /// checkpoints it as its own versioned envelope section, so the
    /// aggregator body stays decodable by pre-cut readers. All sums travel
    /// as raw bits; a restore through [`read_cut_state`](Self::read_cut_state)
    /// re-serializes byte-identically.
    pub fn write_cut_state(&self, w: &mut WireWriter) {
        w.put_u8(match self.cfg.cut {
            CutKind::Reference => 0,
            CutKind::Incremental => 1,
        });
        let t = &self.cut_state;
        w.put_len(t.counts.len());
        for m in &t.counts {
            w.put_array(moment_row(m));
        }
        for &v in &t.sxy {
            w.put_f64(v);
        }
        w.put_array(moment_row(&t.sessions));
        w.put_u64(t.pushed);
        w.put_u64(t.evicted);
    }

    /// Restores the cut path and running moments written by
    /// [`write_cut_state`](Self::write_cut_state), replacing whatever the
    /// aggregator currently holds. Corruption is a typed [`WireError`]:
    /// an unknown cut tag is a `BadTag`, a slot-count mismatch against the
    /// catalog is a `Mismatch`, truncation is the reader's underflow error.
    pub fn read_cut_state(&mut self, r: &mut WireReader) -> Result<(), WireError> {
        let kind = match r.get_u8()? {
            0 => CutKind::Reference,
            1 => CutKind::Incremental,
            v => return Err(WireError::BadTag { what: "cut kind", value: v as u64 }),
        };
        let n = r.get_len(MOMENT_ROW_BYTES)?;
        let expect = if kind == CutKind::Incremental { self.catalog.n_slots() } else { 0 };
        if n != expect {
            return Err(WireError::Mismatch {
                what: "cut state",
                detail: format!("{n} slot moments, expected {expect}"),
            });
        }
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            counts.push(moment_from_row(r.get_array()?));
        }
        let mut sxy = Vec::with_capacity(n);
        for _ in 0..n {
            sxy.push(r.get_f64()?);
        }
        let sessions = moment_from_row(r.get_array()?);
        let pushed = r.get_u64()?;
        let evicted = r.get_u64()?;
        self.cfg.cut = kind;
        self.cut_state = CutTracker {
            enabled: kind == CutKind::Incremental,
            counts,
            sxy,
            sessions,
            pushed,
            evicted,
        };
        Ok(())
    }

    /// Serializes the aggregator's complete online state into `w` (the
    /// checkpoint body — the engine wraps it in a magic/version envelope).
    ///
    /// Everything observable is written verbatim: configuration, the
    /// catalog's slot→id assignment (as a restore-time consistency check —
    /// the catalog itself is rebuilt deterministically from the workload
    /// specs), counters, the record/cell/metric rings, the history store,
    /// and the in-flight minute accumulator. All `f64`s travel as raw bits,
    /// so restore never re-derives a float. Caches (the slot→history index,
    /// the snapshot scratch, cell-row free lists, the shared write table)
    /// are rebuilt lazily after restore and are deliberately absent.
    pub fn write_snapshot(&self, w: &mut WireWriter) {
        w.put_i64(self.cfg.retention_s);
        w.put_i64(self.cfg.history_origin_min);
        w.put_u8(match self.cfg.cell_store {
            CellStoreKind::Dense => 0,
            CellStoreKind::Hashed => 1,
        });
        let n_slots = self.catalog.n_slots();
        w.put_len(n_slots);
        for slot in 0..n_slots {
            w.put_u64(self.catalog.id_of_slot(slot as u32).0);
        }
        for c in [
            self.stats.events,
            self.stats.queries,
            self.stats.malformed,
            self.stats.late,
            self.stats.cells,
            self.stats.evictions,
            self.stats.history_minutes,
        ] {
            w.put_u64(c);
        }
        w.put_i64(self.watermark);
        w.put_bool(self.records_sorted);
        w.put_len(self.records.len());
        for rec in &self.records {
            w.put_array(query_record_bytes(rec));
        }
        w.put_i64(self.cells_start);
        w.put_len(self.cells.len());
        let mut row: Vec<(u32, Cell)> = Vec::new();
        for idx in 0..self.cells.len() {
            row.clear();
            self.cells.for_each(idx, |slot, cell| row.push((slot, cell)));
            w.put_len(row.len());
            for &(slot, cell) in &row {
                w.put_array(cell_row(slot, cell));
            }
        }
        w.put_i64(self.metrics_start);
        w.put_len(self.metrics.len());
        for sample in &self.metrics {
            w.put_i64(sample.second);
            for v in sample.metric_values() {
                w.put_f64(v);
            }
            w.put_len(sample.probes.len());
            for p in &sample.probes {
                w.put_i64(p.second);
                w.put_u32(p.active_sessions);
                w.put_f64(p.true_instant_ms);
            }
        }
        w.put_len(self.history.len());
        for series in self.history.iter() {
            w.put_u64(series.id.0);
            w.put_i64(series.start_minute);
            w.put_len(series.executions.len());
            for &v in &series.executions {
                w.put_f64(v);
            }
        }
        w.put_bool(self.history_next_min.is_some());
        w.put_i64(self.history_next_min.unwrap_or(0));
        w.put_i64(self.minute_acc.start);
        w.put_len(self.minute_acc.rows.len());
        for row in &self.minute_acc.rows {
            w.put_len(row.len());
            for &v in row {
                w.put_f64(v);
            }
        }
    }

    /// Decodes a [`write_snapshot`](Self::write_snapshot) body back into a
    /// live aggregator over `specs` (the same workload specs the serialized
    /// instance was built from — checked against the stored slot→id
    /// assignment, so restoring into the wrong scenario is a typed
    /// [`WireError::Mismatch`], never silent misattribution).
    pub fn read_snapshot(specs: &[TemplateSpec], r: &mut WireReader) -> Result<Self, WireError> {
        let retention_s = r.get_i64()?;
        let history_origin_min = r.get_i64()?;
        let cell_store = match r.get_u8()? {
            0 => CellStoreKind::Dense,
            1 => CellStoreKind::Hashed,
            v => return Err(WireError::BadTag { what: "cellstore kind", value: v as u64 }),
        };
        if retention_s < 60 {
            return Err(WireError::Mismatch {
                what: "retention",
                detail: format!("{retention_s}s is below the 60s minimum"),
            });
        }
        let catalog = TemplateCatalog::from_specs(specs);
        let n_slots = r.get_len(8)?;
        if n_slots != catalog.n_slots() {
            return Err(WireError::Mismatch {
                what: "template catalog",
                detail: format!(
                    "snapshot has {n_slots} slots, scenario has {}",
                    catalog.n_slots()
                ),
            });
        }
        for slot in 0..n_slots {
            let id = r.get_u64()?;
            let expected = catalog.id_of_slot(slot as u32).0;
            if id != expected {
                return Err(WireError::Mismatch {
                    what: "template catalog",
                    detail: format!("slot {slot}: snapshot id {id:#x}, scenario id {expected:#x}"),
                });
            }
        }
        let mut counters = [0u64; 7];
        for c in &mut counters {
            *c = r.get_u64()?;
        }
        let stats = IngestStats {
            events: counters[0],
            queries: counters[1],
            malformed: counters[2],
            late: counters[3],
            cells: counters[4],
            evictions: counters[5],
            history_minutes: counters[6],
        };
        let watermark = r.get_i64()?;
        let records_sorted = r.get_bool()?;
        let n_records = r.get_len(QUERY_RECORD_BYTES)?;
        let mut records = VecDeque::with_capacity(n_records);
        for _ in 0..n_records {
            let rec = query_record_from_bytes(r.get_array()?);
            if rec.spec.0 >= specs.len() {
                return Err(WireError::Mismatch {
                    what: "record spec",
                    detail: format!("spec index {} out of range ({})", rec.spec.0, specs.len()),
                });
            }
            records.push_back(rec);
        }
        let cells_start = r.get_i64()?;
        let n_rows = r.get_len(8)?;
        let mut cells = CellStore::new(cell_store, catalog.n_slots());
        let mut row: Vec<(u32, Cell)> = Vec::new();
        for _ in 0..n_rows {
            let n_cells = r.get_len(CELL_ROW_BYTES)?;
            row.clear();
            for _ in 0..n_cells {
                let (slot, cell) = cell_from_row(r.get_array()?);
                if slot as usize >= n_slots {
                    return Err(WireError::Mismatch {
                        what: "cell slot",
                        detail: format!("slot {slot} out of range ({n_slots})"),
                    });
                }
                row.push((slot, cell));
            }
            cells.push_back_row(row.iter().copied());
        }
        let metrics_start = r.get_i64()?;
        let n_metrics = r.get_len(64)?;
        let mut metrics = VecDeque::with_capacity(n_metrics);
        for _ in 0..n_metrics {
            let second = r.get_i64()?;
            let mut vals = [0.0f64; 6];
            for v in &mut vals {
                *v = r.get_f64()?;
            }
            let n_probes = r.get_len(20)?;
            let mut probes = Vec::with_capacity(n_probes);
            for _ in 0..n_probes {
                probes.push(pinsql_dbsim::probe::ProbeSample {
                    second: r.get_i64()?,
                    active_sessions: r.get_u32()?,
                    true_instant_ms: r.get_f64()?,
                });
            }
            metrics.push_back(MetricsSample {
                second,
                active_session: vals[0],
                cpu_usage: vals[1],
                iops_usage: vals[2],
                row_lock_waits: vals[3],
                mdl_waits: vals[4],
                qps: vals[5],
                probes,
            });
        }
        let n_series = r.get_len(24)?;
        let mut history = HistoryStore::new();
        for _ in 0..n_series {
            let id = SqlId(r.get_u64()?);
            let start_minute = r.get_i64()?;
            let n = r.get_len(8)?;
            let mut executions = Vec::with_capacity(n);
            for _ in 0..n {
                executions.push(r.get_f64()?);
            }
            history.insert(crate::history::HistorySeries { id, start_minute, executions });
        }
        let has_next = r.get_bool()?;
        let next_min = r.get_i64()?;
        let history_next_min = has_next.then_some(next_min);
        let acc_start = r.get_i64()?;
        let n_acc_rows = r.get_len(8)?;
        let mut acc_rows = VecDeque::with_capacity(n_acc_rows);
        for _ in 0..n_acc_rows {
            let n = r.get_len(8)?;
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                counts.push(r.get_f64()?);
            }
            acc_rows.push_back(counts);
        }
        // The body predates the cut knob, so the restored aggregator comes
        // up on the default path with moments rebuilt from the rings; the
        // engine's snapshot envelope overwrites both from its own cut
        // section when one is present.
        let mut agg = Self {
            catalog,
            cfg: IncrementalConfig {
                retention_s,
                history_origin_min,
                cell_store,
                cut: CutKind::default(),
            },
            records,
            records_sorted,
            cells,
            cells_start,
            metrics,
            metrics_start,
            watermark,
            history,
            history_next_min,
            stats,
            minute_acc: MinuteAcc { start: acc_start, rows: acc_rows, free: Vec::new() },
            slot_hist: Vec::new(),
            slot_pos: Vec::new(),
            cut_state: CutTracker::default(),
        };
        agg.rebuild_cut_state();
        Ok(agg)
    }

    /// The aggregator's configuration (the engine's snapshot envelope
    /// cross-checks its cell-store kind tag against this).
    pub fn config(&self) -> &IncrementalConfig {
        &self.cfg
    }

    fn cell_index(&self, second: i64) -> Option<usize> {
        Self::index_of(self.cells_start, self.cells.len(), second)
    }

    fn index_of(start: i64, len: usize, second: i64) -> Option<usize> {
        if second < start || second >= start + len as i64 {
            None
        } else {
            Some((second - start) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_case;
    use pinsql_dbsim::interleave;
    use pinsql_workload::{CostProfile, SpecId, TableId};

    fn spec(sql: &str) -> TemplateSpec {
        TemplateSpec::new(sql, CostProfile::point_read(TableId(0)), "t")
    }

    fn rec(spec_idx: usize, start_ms: f64, rt: f64, rows: u64) -> QueryRecord {
        QueryRecord { spec: SpecId(spec_idx), start_ms, response_ms: rt, examined_rows: rows }
    }

    fn flat_metrics(start: i64, n: usize) -> InstanceMetrics {
        InstanceMetrics {
            start_second: start,
            active_session: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
            cpu_usage: vec![0.25; n],
            iops_usage: vec![0.1; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![7.0; n],
            probes: ProbeLog::default(),
        }
    }

    fn assert_case_eq(a: &CaseData, b: &CaseData) {
        assert_eq!(a.ts, b.ts);
        assert_eq!(a.te, b.te);
        assert_eq!(a.records, b.records);
        assert_eq!(a.metrics.start_second, b.metrics.start_second);
        assert_eq!(a.metrics.active_session, b.metrics.active_session);
        assert_eq!(a.metrics.cpu_usage, b.metrics.cpu_usage);
        assert_eq!(a.metrics.iops_usage, b.metrics.iops_usage);
        assert_eq!(a.metrics.row_lock_waits, b.metrics.row_lock_waits);
        assert_eq!(a.metrics.mdl_waits, b.metrics.mdl_waits);
        assert_eq!(a.metrics.qps, b.metrics.qps);
        assert_eq!(a.metrics.probes.samples, b.metrics.probes.samples);
        assert_eq!(a.templates.len(), b.templates.len());
        for (x, y) in a.templates.iter().zip(&b.templates) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.record_idx, y.record_idx);
            assert_eq!(x.series.start, y.series.start);
            assert_eq!(x.series.execution_count, y.series.execution_count);
            assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms);
            assert_eq!(x.series.examined_rows, y.series.examined_rows);
        }
    }

    #[test]
    fn snapshot_matches_batch_aggregation() {
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
            spec("UPDATE c SET y = 1 WHERE x = 2"),
        ];
        // A jittery, unsorted log with out-of-window stragglers.
        let mut log = Vec::new();
        for i in 0..400 {
            let s = (i * 37) % 120;
            log.push(rec(i % 3, s as f64 * 1000.0 + (i % 7) as f64 * 133.7, 3.0 + i as f64, i as u64 % 5));
        }
        log.push(rec(0, -500.0, 1.0, 1));
        log.push(rec(1, 500_000.0, 1.0, 1));
        let metrics = flat_metrics(0, 120);

        let batch = aggregate_case(&log, &specs, &metrics, 20, 100);

        for kind in [CellStoreKind::Dense, CellStoreKind::Hashed] {
            let mut agg = IncrementalAggregator::new(
                &specs,
                IncrementalConfig::default().with_cell_store(kind),
            );
            for ev in interleave(&log, &metrics) {
                agg.ingest(ev);
            }
            let online = agg.snapshot(20, 100);
            assert_case_eq(&online, &batch);
        }
    }

    #[test]
    fn chunked_ingest_matches_scalar_ingest() {
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
        ];
        let mut log = Vec::new();
        for i in 0..300 {
            let s = (i * 13) % 90;
            log.push(rec(i % 2, s as f64 * 1000.0 + (i % 11) as f64 * 90.9, 2.0 + i as f64, i as u64 % 3));
        }
        // A malformed record mid-stream exercises the run-splitting rules.
        log.push(rec(0, f64::NAN, 1.0, 0));
        log.push(rec(1, 10_500.0, f64::INFINITY, 0));
        let metrics = flat_metrics(0, 90);
        let events = interleave(&log, &metrics);

        let mut scalar = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for ev in events.clone() {
            scalar.ingest(ev);
        }
        let mut chunked = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        let mut buf = events;
        chunked.ingest_drain(&mut buf);
        assert!(buf.is_empty(), "drain clears the reusable buffer");

        let s = scalar.stats();
        let c = chunked.stats();
        assert_eq!(s.events, c.events);
        assert_eq!(s.queries, c.queries);
        assert_eq!(s.malformed, c.malformed);
        assert_eq!(s.late, c.late);
        assert_eq!(scalar.watermark(), chunked.watermark());
        assert_case_eq(&scalar.snapshot(0, 90), &chunked.snapshot(0, 90));
    }

    #[test]
    fn snapshot_windows_are_reusable_and_nested() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let log: Vec<QueryRecord> =
            (0..600).map(|i| rec(0, i as f64 * 100.0, 2.0, 1)).collect();
        let metrics = flat_metrics(0, 60);
        let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for ev in interleave(&log, &metrics) {
            agg.ingest(ev);
        }
        for (ts, te) in [(0, 60), (10, 50), (30, 31)] {
            let batch = aggregate_case(&log, &specs, &metrics, ts, te);
            assert_case_eq(&agg.snapshot(ts, te), &batch);
        }
    }

    #[test]
    fn malformed_records_are_dropped() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        agg.ingest_query(rec(0, f64::NAN, 1.0, 0));
        agg.ingest_query(rec(0, 100.0, f64::INFINITY, 0));
        agg.ingest_query(rec(0, 100.0, 1.0, 0));
        assert_eq!(agg.stats().malformed, 2);
        assert_eq!(agg.record_count(), 1);
    }

    #[test]
    fn memory_stays_within_retention_horizon() {
        // The regression this type exists for: the old streaming
        // aggregator's `(template, second)` map grew without bound.
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1"), spec("SELECT 2 FROM u WHERE id = 1")];
        let retention = 300;
        let mut agg = IncrementalAggregator::new(
            &specs,
            IncrementalConfig::default().with_retention(retention),
        );
        let horizon_s = 20_000i64;
        for s in 0..horizon_s {
            agg.ingest(TelemetryEvent::Query(rec((s % 2) as usize, s as f64 * 1000.0 + 1.0, 2.0, 1)));
            agg.ingest(TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: s,
                active_session: 1.0,
                ..Default::default()
            })));
            agg.ingest(TelemetryEvent::Tick { second: s + 1 });
            assert!(agg.cell_seconds() <= retention as usize + 1, "at {s}");
            assert!(agg.metric_seconds() <= retention as usize + 1, "at {s}");
            assert!(agg.record_count() <= retention as usize + 1, "at {s}");
        }
        // Still serves windows inside the horizon.
        let case = agg.snapshot(horizon_s - 100, horizon_s);
        assert_eq!(case.n_seconds(), 100);
        assert_eq!(case.records.len(), 100);
    }

    #[test]
    fn history_feed_folds_complete_minutes() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let origin = 5000;
        let mut agg = IncrementalAggregator::new(
            &specs,
            IncrementalConfig::default().with_history_origin(origin),
        );
        // Two executions per second for 150 s: minutes 0 and 1 complete
        // (120 each), minute 2 still open.
        for s in 0..150i64 {
            agg.ingest_query(rec(0, s as f64 * 1000.0, 1.0, 0));
            agg.ingest_query(rec(0, s as f64 * 1000.0 + 500.0, 1.0, 0));
            agg.advance_watermark(s + 1);
        }
        let id = agg.catalog().id_of_spec(SpecId(0));
        assert_eq!(agg.history().window_filled(id, origin, origin + 2), vec![120.0, 120.0]);
        assert_eq!(agg.history().window_filled(id, origin + 2, origin + 3), vec![0.0]);
        // Closing the third minute folds it.
        agg.advance_watermark(180);
        assert_eq!(agg.history().window_filled(id, origin + 2, origin + 3), vec![60.0]);
    }

    #[test]
    fn fold_and_eviction_counters_track_state() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let retention = 120;
        let mut agg = IncrementalAggregator::new(
            &specs,
            IncrementalConfig::default().with_retention(retention),
        );
        for s in 0..300i64 {
            agg.ingest_query(rec(0, s as f64 * 1000.0, 1.0, 0));
            agg.advance_watermark(s + 1);
        }
        let stats = agg.stats();
        // One cell row per second, monotone even though only `retention`
        // rows stay resident.
        assert_eq!(stats.cells, 300);
        assert!(agg.cell_seconds() <= retention as usize + 1);
        // Evictions cover the cells and records pushed past the horizon.
        assert!(stats.evictions > 0);
        assert_eq!(
            stats.evictions,
            (300 - agg.cell_seconds() as u64) + (300 - agg.record_count() as u64)
        );
        // 300 s = 5 minutes; the last one is complete at watermark 300.
        assert_eq!(stats.history_minutes, 5);
    }

    #[test]
    fn chunked_ingest_matches_scalar_fold_counters() {
        let specs =
            vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
        let mut log = Vec::new();
        for i in 0..200 {
            let s = (i * 31) % 70;
            log.push(rec(i % 2, s as f64 * 1000.0 + (i % 13) as f64 * 71.3, 2.0, 1));
        }
        let metrics = flat_metrics(0, 70);
        let events = interleave(&log, &metrics);
        let mut scalar = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for ev in events.clone() {
            scalar.ingest(ev);
        }
        let mut chunked = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        let mut buf = events;
        chunked.ingest_drain(&mut buf);
        let s = scalar.stats();
        let c = chunked.stats();
        assert_eq!(s.cells, c.cells, "rows created, not calls, are counted");
        assert_eq!(s.evictions, c.evictions);
        assert_eq!(s.history_minutes, c.history_minutes);
    }

    #[test]
    fn window_moments_match_snapshot_series() {
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
        ];
        let mut log = Vec::new();
        for i in 0..240 {
            let s = (i * 7) % 60;
            log.push(rec(i % 2, s as f64 * 1000.0 + (i % 5) as f64 * 100.0, 2.0, 1));
        }
        let metrics = flat_metrics(0, 60);
        for kind in [CellStoreKind::Dense, CellStoreKind::Hashed] {
            let mut agg = IncrementalAggregator::new(
                &specs,
                IncrementalConfig::default().with_cell_store(kind),
            );
            for ev in interleave(&log, &metrics) {
                agg.ingest(ev);
            }
            let moments = agg.window_moments(10, 50);
            let case = agg.snapshot(10, 50);
            assert_eq!(moments.len(), case.templates.len());
            for ((id, m), tpl) in moments.iter().zip(&case.templates) {
                assert_eq!(*id, tpl.id, "sorted by id, like snapshot templates");
                let counts = &tpl.series.execution_count;
                let active = counts.iter().filter(|&&c| c > 0.0).count() as u64;
                let total: f64 = counts.iter().sum();
                let sumsq: f64 = counts.iter().map(|c| c * c).sum();
                assert_eq!(m.count(), active);
                assert_eq!(m.sum(), total, "integer count sums are exact");
                assert_eq!(m.sum_sq(), sumsq);
                assert_eq!(m.sum() as usize, tpl.record_idx.len(), "exact presize");
            }
        }
    }

    #[test]
    fn per_variant_entry_points_match_ingest() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let log: Vec<QueryRecord> = (0..120).map(|i| rec(0, i as f64 * 500.0, 2.0, 1)).collect();
        let metrics = flat_metrics(0, 60);
        let events = interleave(&log, &metrics);

        let mut whole = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for ev in events.clone() {
            whole.ingest(ev);
        }
        let mut split = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for ev in events {
            match ev {
                TelemetryEvent::Query(rec) => split.ingest_query_event(rec),
                TelemetryEvent::Metrics(sample) => split.ingest_metrics_event(*sample),
                TelemetryEvent::Tick { second } => split.ingest_tick(second),
            }
        }
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.watermark(), split.watermark());
        assert_case_eq(&whole.snapshot(0, 60), &split.snapshot(0, 60));
    }

    #[test]
    fn sorted_and_unsorted_record_paths_agree() {
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
        ];
        // Sorted prefix, then one straggler flips the ring to unsorted.
        let mut log: Vec<QueryRecord> =
            (0..200).map(|i| rec(i % 2, i as f64 * 300.0, 2.0, 1)).collect();
        let mut sorted_agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for r in &log {
            sorted_agg.ingest_query(*r);
        }
        sorted_agg.advance_watermark(60);
        let fast = sorted_agg.snapshot(5, 55);

        log.push(rec(0, 100.0, 9.0, 1)); // out of order, outside [5, 55)
        let mut unsorted_agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        for r in &log {
            unsorted_agg.ingest_query(*r);
        }
        unsorted_agg.advance_watermark(60);
        let slow = unsorted_agg.snapshot(5, 55);
        assert_case_eq(&fast, &slow);
    }

    #[test]
    fn metrics_gaps_zero_fill() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        agg.ingest_metrics(MetricsSample { second: 0, active_session: 4.0, ..Default::default() });
        agg.ingest_metrics(MetricsSample { second: 3, active_session: 9.0, ..Default::default() });
        let case = agg.snapshot(0, 4);
        assert_eq!(case.metrics.active_session, vec![4.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn executions_counter_reads_cells() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        let id = agg.catalog().id_of_spec(SpecId(0));
        agg.ingest_query(rec(0, 1500.0, 4.0, 2));
        agg.ingest_query(rec(0, 1999.0, 6.0, 4));
        agg.ingest_query(rec(0, 2000.0, 1.0, 1));
        assert_eq!(agg.executions(id, 1), 2.0);
        assert_eq!(agg.executions(id, 2), 1.0);
        assert_eq!(agg.executions(id, 3), 0.0);
    }

    #[test]
    fn cell_store_kinds_agree_on_out_of_order_streams() {
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
        ];
        // Deliberately unsorted arrivals, including a prepend below the
        // ring start — the channel-driver shape interleave never emits.
        let log = vec![
            rec(0, 5_100.0, 2.0, 1),
            rec(1, 1_200.0, 3.0, 2),
            rec(0, 5_050.0, 4.0, 0),
            rec(1, 9_900.0, 5.0, 3),
            rec(0, 0.0, 6.0, 1),
        ];
        let mut dense = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        let mut hashed = IncrementalAggregator::new(
            &specs,
            IncrementalConfig::default().with_cell_store(CellStoreKind::Hashed),
        );
        for r in &log {
            dense.ingest_query(*r);
            hashed.ingest_query(*r);
        }
        dense.advance_watermark(10);
        hashed.advance_watermark(10);
        assert_case_eq(&dense.snapshot(0, 10), &hashed.snapshot(0, 10));
        for s in 0..10 {
            for spec_idx in 0..2 {
                let id = dense.catalog().id_of_spec(SpecId(spec_idx));
                assert_eq!(dense.executions(id, s), hashed.executions(id, s), "s={s}");
            }
        }
    }
    #[test]
    fn checkpoint_round_trip_is_behaviorally_exact() {
        use pinsql_timeseries::{WireReader, WireWriter};
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
            spec("UPDATE c SET v = v + 1 WHERE id = 1"),
        ];
        for kind in [CellStoreKind::Dense, CellStoreKind::Hashed] {
            let cfg = IncrementalConfig::default().with_retention(120).with_cell_store(kind);
            let metrics = flat_metrics(0, 200);
            let log: Vec<QueryRecord> = (0..600)
                .map(|i| rec(i % 3, (i as f64 * 311.7) % 200_000.0, 2.0 + (i % 7) as f64, i as u64))
                .collect();
            let events = interleave(&log, &metrics);
            let split = events.len() / 3;

            let mut live = IncrementalAggregator::new(&specs, cfg.clone());
            let mut pre = IncrementalAggregator::new(&specs, cfg.clone());
            for ev in &events[..split] {
                live.ingest(ev.clone());
                pre.ingest(ev.clone());
            }
            let mut w = WireWriter::new();
            pre.write_snapshot(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let mut restored = IncrementalAggregator::read_snapshot(&specs, &mut r).unwrap();
            r.finish("aggregator snapshot").unwrap();

            // Immediate re-serialization is byte-identical for the dense
            // store (hashed map iteration order may legally rotate).
            if kind == CellStoreKind::Dense {
                let mut w2 = WireWriter::new();
                restored.write_snapshot(&mut w2);
                assert_eq!(w2.into_bytes(), bytes, "re-serialization drifted");
            }

            for ev in &events[split..] {
                live.ingest(ev.clone());
                restored.ingest(ev.clone());
            }
            assert_eq!(live.stats(), restored.stats(), "{kind:?}");
            assert_eq!(live.watermark(), restored.watermark());
            assert_eq!(live.cell_seconds(), restored.cell_seconds());
            assert_eq!(live.record_count(), restored.record_count());
            let (ts, te) = (80, 200);
            assert_case_eq(&live.snapshot(ts, te), &restored.snapshot(ts, te));
            let mut wa = WireWriter::new();
            live.write_snapshot(&mut wa);
            let mut wb = WireWriter::new();
            restored.write_snapshot(&mut wb);
            if kind == CellStoreKind::Dense {
                assert_eq!(wa.into_bytes(), wb.into_bytes(), "post-drain state drifted");
            }
        }
    }

    #[test]
    fn checkpoint_rejects_wrong_scenario_and_corrupt_tags() {
        use pinsql_timeseries::{WireError, WireReader, WireWriter};
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
        agg.ingest_query(rec(0, 1000.0, 2.0, 1));
        agg.advance_watermark(5);
        let mut w = WireWriter::new();
        agg.write_snapshot(&mut w);
        let bytes = w.into_bytes();

        // Restoring into a different workload is a typed mismatch.
        let other = vec![spec("SELECT 9 FROM u WHERE id = 9"), spec("SELECT 8 FROM v WHERE id = 8")];
        let err = IncrementalAggregator::read_snapshot(&other, &mut WireReader::new(&bytes))
            .expect_err("catalog mismatch must fail");
        assert!(matches!(err, WireError::Mismatch { what: "template catalog", .. }), "{err}");

        // A corrupt cellstore tag is a typed bad-tag error.
        let mut corrupt = bytes.clone();
        corrupt[16] = 9; // the kind byte follows two i64 config fields
        let err = IncrementalAggregator::read_snapshot(&specs, &mut WireReader::new(&corrupt))
            .expect_err("bad kind tag must fail");
        assert!(matches!(err, WireError::BadTag { what: "cellstore kind", .. }), "{err}");

        // Every truncation of the snapshot is an error, never a panic.
        for cut in 0..bytes.len() {
            let res =
                IncrementalAggregator::read_snapshot(&specs, &mut WireReader::new(&bytes[..cut]));
            assert!(res.is_err(), "cut at {cut} decoded");
        }
    }

    /// The three fixed-width `PSNP` rows (record, cell, moment) against the
    /// field-by-field calls they replaced: the same bytes out, and from
    /// every prefix of those bytes and every single-byte mutation the same
    /// value bit for bit or the same `WireError` variant (`need` / `have`
    /// inside `Truncated` are not compared: the row read names the whole
    /// row's size, the field reads the first field that did not fit).
    #[test]
    fn fixed_width_snapshot_rows_match_the_field_calls() {
        use pinsql_timeseries::{WireError, WireReader, WireWriter};

        // The oracle: each row as the per-field calls wrote and read it.
        fn put_fields(
            w: &mut WireWriter,
            rec: &QueryRecord,
            slot: u32,
            cell: Cell,
            m: &MomentAccumulator,
        ) {
            w.put_u64(rec.spec.0 as u64);
            w.put_f64(rec.start_ms);
            w.put_f64(rec.response_ms);
            w.put_u64(rec.examined_rows);
            w.put_u32(slot);
            w.put_f64(cell.0);
            w.put_f64(cell.1);
            w.put_f64(cell.2);
            w.put_u64(m.count());
            w.put_f64(m.sum());
            w.put_f64(m.sum_sq());
        }
        type Rows = (QueryRecord, (u32, Cell), MomentAccumulator);
        fn get_fields(r: &mut WireReader) -> Result<Rows, WireError> {
            let rec = QueryRecord {
                spec: SpecId(r.get_u64()? as usize),
                start_ms: r.get_f64()?,
                response_ms: r.get_f64()?,
                examined_rows: r.get_u64()?,
            };
            let cell = (r.get_u32()?, (r.get_f64()?, r.get_f64()?, r.get_f64()?));
            let m = MomentAccumulator::from_sums(r.get_u64()?, r.get_f64()?, r.get_f64()?);
            Ok((rec, cell, m))
        }
        fn get_rows(r: &mut WireReader) -> Result<Rows, WireError> {
            let rec = query_record_from_bytes(r.get_array()?);
            let cell = cell_from_row(r.get_array()?);
            let m = moment_from_row(r.get_array()?);
            Ok((rec, cell, m))
        }
        let refield = |(rec, (slot, cell), m): &Rows| {
            let mut w = WireWriter::new();
            put_fields(&mut w, rec, *slot, *cell, m);
            w.into_bytes()
        };
        let agree = |bytes: &[u8], what: &dyn Fn() -> String| {
            let new = get_rows(&mut WireReader::new(bytes));
            let old = get_fields(&mut WireReader::new(bytes));
            match (&new, &old) {
                (Ok(a), Ok(b)) => assert_eq!(refield(a), refield(b), "{}", what()),
                (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
                _ => panic!("{}: new {new:?}, oracle {old:?}", what()),
            }
        };

        /// splitmix64; half the `f64`s are the patterns a codec is
        /// tempted to normalize.
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn float(&mut self) -> f64 {
                const SPECIAL: [u64; 6] = [
                    0,
                    0x8000_0000_0000_0000,
                    0x7FF0_0000_0000_0000,
                    0xFFFF_FFFF_FFFF_FFFF,
                    0x7FF0_0000_0000_0001,
                    0x0000_0000_0000_0001,
                ];
                let bits = self.next();
                f64::from_bits(match bits & 1 {
                    0 => SPECIAL[(bits >> 1) as usize % SPECIAL.len()],
                    _ => self.next(),
                })
            }
        }

        for seed in 0..200u64 {
            let mut rng = Rng(seed);
            let rec = QueryRecord {
                spec: SpecId([0, usize::MAX, rng.next() as usize][(rng.next() % 3) as usize]),
                start_ms: rng.float(),
                response_ms: rng.float(),
                examined_rows: rng.next(),
            };
            let (slot, cell) = (rng.next() as u32, (rng.float(), rng.float(), rng.float()));
            let m = MomentAccumulator::from_sums(rng.next(), rng.float(), rng.float());

            let mut w = WireWriter::new();
            w.put_array(query_record_bytes(&rec));
            w.put_array(cell_row(slot, cell));
            w.put_array(moment_row(&m));
            let bytes = w.into_bytes();
            assert_eq!(bytes, refield(&(rec, (slot, cell), m)), "seed {seed}: bytes differ");
            assert_eq!(bytes.len(), QUERY_RECORD_BYTES + CELL_ROW_BYTES + MOMENT_ROW_BYTES);

            for cut in 0..=bytes.len() {
                agree(&bytes[..cut], &|| format!("seed {seed}, cut at {cut}"));
            }
            let mut mutated = bytes.clone();
            for at in 0..bytes.len() {
                for value in [0x00, 0x01, 0x7F, 0x80, 0xFF, bytes[at] ^ 0x10] {
                    mutated[at] = value;
                    agree(&mutated, &|| format!("seed {seed}, byte {at} = {value:#04x}"));
                }
                mutated[at] = bytes[at];
            }
        }
    }
}
