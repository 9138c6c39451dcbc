//! Incremental per-template aggregation with bounded state.
//!
//! The online replacement for [`aggregate_case`](crate::aggregate_case):
//! [`IncrementalAggregator`] folds a [`TelemetryEvent`] stream as it
//! arrives into four state components — resident `records`, per-second
//! `cells`, per-second `metrics`, in-flight `minutes` feeding the 1-minute
//! [`HistoryStore`] — each a module of this crate that owns its bytes, its
//! one `extend`/`push` step, its `evict(horizon)` step and its stretch of
//! the `PSNP` body. The aggregator composes them: it owns the watermark
//! and the counters, routes each event, evicts behind
//! `watermark − retention_s` (which bounds everything but the history
//! store), and cuts windows (`cut_window`).
//!
//! There is one fold path, `fold_run`: [`ingest_drain`]
//! (IncrementalAggregator::ingest_drain) chunks a stream into same-second
//! runs, which pay the horizon check and the row lookups once per run, and
//! [`ingest`](IncrementalAggregator::ingest) folds a run of one. On a
//! time-ordered stream it visits records in the order the batch reference
//! (`aggregate_case`) sums them, which is what makes a window cut
//! bit-identical to it.
//!
//! There is one cut path, `cut_window`: one sweep of the window's resident
//! cells fills each template's series and buckets its 1-minute execution
//! rows ([`CaseData::minute_rows`]) in the same pass. Nothing is kept
//! at ingest for the cut; the per-template `per_minute` re-derivation it
//! replaced is the oracle of the `cut_props` suite.

use crate::aggregate::{cut_window, CaseData};
use crate::catalog::TemplateCatalog;
use crate::cells::CellRing;
use crate::history::HistoryStore;
use crate::metrics::{MetricRing, OffRing};
use crate::minutes::MinuteFeed;
use crate::records::RecordRing;
use pinsql_dbsim::telemetry::{query_run, second_of};
use pinsql_dbsim::{MetricsSample, TelemetryEvent};
use pinsql_timeseries::{CutKind, WireError, WireReader, WireWriter};
use pinsql_workload::TemplateSpec;
use std::ops::Range;

/// Tuning for the incremental aggregator.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Seconds of cells / records / metric samples to retain behind the
    /// watermark. Must cover the largest collection window a diagnosis
    /// will ask for (`δ_s` + anomaly length), and must be ≥ 60 (why: see
    /// the `minutes` module).
    pub retention_s: i64,
    /// Absolute minute index the stream's second 0 maps to in the history
    /// store's timeline (histories are addressed by absolute minute).
    pub history_origin_min: i64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { retention_s: 7200, history_origin_min: 0 }
    }
}

impl IncrementalConfig {
    /// Builder-style retention override.
    pub fn with_retention(mut self, retention_s: i64) -> Self {
        assert!(retention_s >= 60, "retention must cover at least one full minute");
        self.retention_s = retention_s;
        self
    }

    /// A no-op: `cut` has one value. Single-valued; deleted by the
    /// `benchmark` PR (ROADMAP 3).
    pub fn with_cut(self, cut: CutKind) -> Self {
        let CutKind::Incremental = cut;
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
    /// Records and samples dropped for a non-finite timestamp or response
    /// time, or a timestamp more than one retention ahead of its ring.
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

/// The incremental, bounded-state aggregation engine.
#[derive(Debug, Clone)]
pub struct IncrementalAggregator {
    catalog: TemplateCatalog,
    /// From [`IncrementalConfig`].
    retention_s: i64,
    history_origin_min: i64,
    records: RecordRing,
    cells: CellRing,
    metrics: MetricRing,
    feed: MinuteFeed,
    /// All telemetry with timestamps `< watermark` has been delivered.
    watermark: i64,
    stats: IngestStats,
    /// Slot → template-position scratch for `snapshot`, reused per call.
    slot_pos: Vec<u32>,
}

impl IncrementalAggregator {
    /// Creates an aggregator for a workload's template specs.
    pub fn new(specs: &[TemplateSpec], cfg: IncrementalConfig) -> Self {
        assert!(cfg.retention_s >= 60, "retention must cover at least one full minute");
        let catalog = TemplateCatalog::from_specs(specs);
        Self {
            retention_s: cfg.retention_s,
            history_origin_min: cfg.history_origin_min,
            records: RecordRing::new(),
            cells: CellRing::new(catalog.n_slots()),
            metrics: MetricRing::new(),
            feed: MinuteFeed::default(),
            watermark: i64::MIN,
            stats: IngestStats::default(),
            slot_pos: Vec::new(),
            catalog,
        }
    }

    /// Folds one telemetry event: a query is a run of one, a metric sample
    /// lands in its ring and publishes its second, a tick moves the clock.
    pub fn ingest(&mut self, ev: TelemetryEvent) {
        self.stats.events += 1;
        match ev {
            TelemetryEvent::Query(rec) if !rec.start_ms.is_finite() => self.stats.malformed += 1,
            TelemetryEvent::Query(rec) => self.fold_run(second_of(rec.start_ms), &[ev]),
            TelemetryEvent::Metrics(sample) => self.push_metrics(*sample),
            TelemetryEvent::Tick { second } => self.advance_watermark(second),
        }
    }

    /// Folds a buffered stretch of a stream — same-second query runs as
    /// one chunk each, everything else moved out event by event — then
    /// clears the buffer so callers can reuse its allocation.
    pub fn ingest_drain(&mut self, events: &mut Vec<TelemetryEvent>) {
        let mut i = 0;
        while i < events.len() {
            if let Some((second, len)) = query_run(events, i) {
                self.ingest_query_run(second, &events[i..i + len]);
                i += len;
            } else {
                // Move the event out; the placeholder is cleared below.
                self.ingest(std::mem::replace(&mut events[i], TelemetryEvent::Tick { second: 0 }));
                i += 1;
            }
        }
        events.clear();
    }

    /// Folds a run of [`TelemetryEvent::Query`] events whose (finite)
    /// arrival timestamps all fall in `second`, as [`query_run`] finds them
    /// (debug-asserted) — bit-identical to [`ingest`](Self::ingest) per event.
    pub fn ingest_query_run(&mut self, second: i64, events: &[TelemetryEvent]) {
        self.stats.events += events.len() as u64;
        self.fold_run(second, events);
    }

    /// The fold (arrival attribution, §IV-A): one horizon check and one
    /// cell-row and history-row lookup for the run, then per record a slot
    /// lookup, a cell add, a minute count, a ring push.
    fn fold_run(&mut self, second: i64, events: &[TelemetryEvent]) {
        let row = match self.watermark != i64::MIN && second < self.horizon() {
            true => Err(OffRing::Behind),
            false => self.cells.extend(second, self.retention_s, &mut self.stats.cells),
        };
        let idx = match row {
            Ok(idx) => idx,
            Err(off) => {
                // Off the ring: a record counts as late if it is merely
                // old, as malformed if its response time is corrupt or its
                // timestamp is ahead of anything the stream has reached.
                for ev in events {
                    let sound = matches!(ev, TelemetryEvent::Query(r) if r.response_ms.is_finite());
                    match off == OffRing::Behind && sound {
                        true => self.stats.late += 1,
                        false => self.stats.malformed += 1,
                    }
                }
                return;
            }
        };
        // The whole run shares one second, so its minute resolves once.
        let Self { cells, catalog, records, stats, feed, .. } = self;
        let mut hist = feed.row_mut(second.div_euclid(60), catalog.n_slots());
        let mut row = cells.fold_at(idx);
        for ev in events {
            let TelemetryEvent::Query(rec) = ev else {
                debug_assert!(false, "non-query event in a query run");
                continue;
            };
            debug_assert_eq!(second_of(rec.start_ms), second, "query run crosses a second");
            if !rec.response_ms.is_finite() {
                stats.malformed += 1;
                continue;
            }
            stats.queries += 1;
            let slot = catalog.slot_of_spec(rec.spec);
            row.add(slot, rec.response_ms, rec.examined_rows as f64);
            if let Some(h) = hist.as_deref_mut() {
                h[slot as usize] += 1.0;
            }
            records.push(*rec);
        }
    }

    /// Stores one per-second metric sample and publishes it: a sample for
    /// second `s` arrives once `s` has fully elapsed.
    fn push_metrics(&mut self, sample: MetricsSample) {
        let second = sample.second;
        match self.metrics.push(sample, self.retention_s) {
            Ok(()) => self.advance_watermark(second.saturating_add(1)),
            Err(OffRing::Behind) => self.stats.late += 1,
            Err(OffRing::Ahead) => self.stats.malformed += 1,
        }
    }

    /// Advances the watermark: folds completed minutes into the history
    /// store, then evicts state behind the retention horizon.
    fn advance_watermark(&mut self, second: i64) {
        if self.watermark != i64::MIN && second <= self.watermark {
            return;
        }
        self.watermark = second;
        if let Some(first) = self.cells.first_second() {
            self.stats.history_minutes +=
                self.feed.fold(second, first, &self.catalog, self.history_origin_min);
        }
        let horizon = self.horizon();
        self.stats.evictions += self.cells.evict(horizon);
        self.stats.evictions += self.metrics.evict(horizon);
        self.stats.evictions += self.records.evict(horizon);
    }

    /// The oldest second retention keeps.
    fn horizon(&self) -> i64 {
        self.watermark.saturating_sub(self.retention_s)
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
        self.feed.history()
    }

    /// Number of 1-second cell rows currently held (≤ `retention_s + 1`).
    pub fn cell_seconds(&self) -> usize {
        self.cells.len()
    }

    /// Number of raw records currently retained.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Number of metric samples currently retained (≤ `retention_s + 1`).
    pub fn metric_seconds(&self) -> usize {
        self.metrics.len()
    }

    /// The seconds of the retained metric samples: from the oldest to one
    /// past the last the stream delivered (`0..0` before any).
    pub fn metric_span(&self) -> Range<i64> {
        self.metrics.span()
    }

    /// Re-assembles the [`CaseData`] for the collection window `[ts, te)`:
    /// bit-identical to [`aggregate_case`](crate::aggregate_case) on a
    /// time-ordered stream, clipped to retained data the way the batch
    /// slicer clips. `&mut self` only to reuse the slot-position scratch;
    /// observable state is untouched. Panics if `te <= ts`, like batch.
    pub fn snapshot(&mut self, ts: i64, te: i64) -> CaseData {
        let Self { catalog, cells, records, metrics, slot_pos, .. } = self;
        cut_window(catalog, cells, records, metrics, slot_pos, ts, te)
    }

    /// Bytes [`write_snapshot`](Self::write_snapshot) writes, counted
    /// from the rings' lengths without writing: what a caller sizes its
    /// buffer by. The records are the bulk, 32 bytes each.
    pub fn snapshot_len(&self) -> usize {
        let head = 2 * 8 + 1 + self.catalog.slots_wire_len() + 7 * 8 + 8;
        let rings = self.records.wire_len() + self.cells.wire_len() + self.metrics.wire_len();
        head + rings + self.feed.wire_len()
    }

    /// Serializes the aggregator's complete online state into `w` (the
    /// checkpoint body — the engine wraps it in a magic/version envelope):
    /// configuration, a reserved `0` byte (it once
    /// told two cell-row representations apart; the layout did not move),
    /// the catalog's slot→id assignment, counters, the watermark, then
    /// each component's own stretch. All `f64`s travel as raw bits, so
    /// restore never re-derives a float; caches (slot→history index,
    /// snapshot scratch, row free lists, the shared write table) are
    /// rebuilt lazily after restore and are deliberately absent.
    pub fn write_snapshot(&self, w: &mut WireWriter) {
        w.put_i64(self.retention_s);
        w.put_i64(self.history_origin_min);
        w.put_u8(0);
        self.catalog.write_slots(w);
        let s = &self.stats;
        for c in [s.events, s.queries, s.malformed, s.late, s.cells, s.evictions, s.history_minutes]
        {
            w.put_u64(c);
        }
        w.put_i64(self.watermark);
        self.records.write(w);
        self.cells.write(w);
        self.metrics.write(w);
        self.feed.write(w);
    }

    /// Decodes a [`write_snapshot`](Self::write_snapshot) body back into a
    /// live aggregator over `specs`, which must be the workload specs the
    /// serialized instance was built from (a typed mismatch otherwise).
    pub fn read_snapshot(specs: &[TemplateSpec], r: &mut WireReader) -> Result<Self, WireError> {
        let retention_s = r.get_i64()?;
        let history_origin_min = r.get_i64()?;
        if let v @ 1.. = r.get_u8()? {
            return Err(WireError::BadTag { what: "reserved byte", value: v as u64 });
        }
        if retention_s < 60 {
            return Err(WireError::Mismatch {
                what: "retention",
                detail: format!("{retention_s}s is below the 60s minimum"),
            });
        }
        let catalog = TemplateCatalog::read_checked(specs, r)?;
        // Reads evaluate in source order, which is wire order.
        let stats = IngestStats {
            events: r.get_u64()?,
            queries: r.get_u64()?,
            malformed: r.get_u64()?,
            late: r.get_u64()?,
            cells: r.get_u64()?,
            evictions: r.get_u64()?,
            history_minutes: r.get_u64()?,
        };
        let watermark = r.get_i64()?;
        let records = RecordRing::read(r, specs.len())?;
        let cells = CellRing::read(r, catalog.n_slots())?;
        let metrics = MetricRing::read(r)?;
        let feed = MinuteFeed::read(r, catalog.n_slots(), &cells)?;
        Ok(Self {
            stats,
            watermark,
            records,
            cells,
            metrics,
            feed,
            retention_s,
            history_origin_min,
            catalog,
            slot_pos: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests;
