//! The per-second cell ring and, in step with it, the cut tracker's
//! running moments.
//!
//! [`CellRing`] places a [`CellStore`]'s rows on the time axis — row `i`
//! is second `start + i`, contiguous, never more than `retention_s + 1`
//! of them — and keeps [`CutTracker`] exact as cells appear, grow and
//! leave. Invariants: the per-slot count moments are integer-valued (sums
//! of per-second execution counts), so a push/evict round trip is exact
//! and the running state never drifts; the count·session co-sums are
//! real-valued and back only the *advisory* gate, so their tolerance is
//! pinned by property tests rather than bit-identity; and a cell row is
//! evicted *before* the metric sample of its second, so each co-sum
//! unwinds with the exact session reading it grew by.

use crate::cellstore::{Cell, CellStore, RowWriter};
use crate::metrics::{offset, reach, MetricRing, OffRing};
use pinsql_timeseries::wire::{f64_at, set_f64, set_u32, set_u64, u32_at, u64_at};
use pinsql_timeseries::{
    CoMomentAccumulator, CutKind, MomentAccumulator, WireError, WireReader, WireWriter,
};

/// Serialized size of one resident cell: slot + count + Σrt + Σrows.
pub(crate) const CELL_ROW_BYTES: usize = 4 + 3 * 8;

/// Serialized size of one running moment: count + Σx + Σx².
pub(crate) const MOMENT_ROW_BYTES: usize = 3 * 8;

/// One cell of the `PSNP` cell ring as its fixed-width row.
#[inline]
pub(crate) fn cell_row(slot: u32, cell: Cell) -> [u8; CELL_ROW_BYTES] {
    let mut row = [0u8; CELL_ROW_BYTES];
    set_u32(&mut row, 0, slot);
    set_f64(&mut row, 4, cell.0);
    set_f64(&mut row, 12, cell.1);
    set_f64(&mut row, 20, cell.2);
    row
}

/// The `(slot, cell)` a [`cell_row`] holds; the slot is unchecked.
#[inline]
pub(crate) fn cell_from_row(row: &[u8; CELL_ROW_BYTES]) -> (u32, Cell) {
    (u32_at(row, 0), (f64_at(row, 4), f64_at(row, 12), f64_at(row, 20)))
}

/// One running moment of the `PSNP` cut-state section as its row.
#[inline]
pub(crate) fn moment_row(m: &MomentAccumulator) -> [u8; MOMENT_ROW_BYTES] {
    let mut row = [0u8; MOMENT_ROW_BYTES];
    set_u64(&mut row, 0, m.count());
    set_f64(&mut row, 8, m.sum());
    set_f64(&mut row, 16, m.sum_sq());
    row
}

/// The moment a [`moment_row`] holds.
#[inline]
pub(crate) fn moment_from_row(row: &[u8; MOMENT_ROW_BYTES]) -> MomentAccumulator {
    MomentAccumulator::from_sums(u64_at(row, 0), f64_at(row, 8), f64_at(row, 16))
}

/// Running per-template moment state behind `CutKind::Incremental`.
///
/// Maintained in O(1) per record and per metric sample, evicted in step
/// with retention, so a window cut assembles its template↔session gate
/// Pearson scores from sums (total minus the out-of-window remainder)
/// instead of re-scanning the window.
#[derive(Debug, Clone, Default)]
pub(crate) struct CutTracker {
    /// Live iff the cut path is `CutKind::Incremental`.
    enabled: bool,
    /// Per-slot moments of per-second execution counts over the seconds
    /// the template has a resident cell in.
    counts: Vec<MomentAccumulator>,
    /// Per-slot Σ count·session over the same seconds (an absent metric
    /// sample reads 0; corrected in place when the sample lands).
    sxy: Vec<f64>,
    /// Active-session moments over resident metric seconds, non-finite
    /// samples read as 0.
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
            ..Self::default()
        }
    }

    /// One record landed on `slot`, whose cell previously held `prev`
    /// executions this second; `session` is the second's current reading.
    /// The count moment swaps `prev → prev + 1` and the co-sum grows by
    /// `(prev+1)·y − prev·y = y`.
    #[inline]
    pub fn on_record(&mut self, slot: u32, prev: f64, session: f64) {
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
}

#[derive(Debug, Clone)]
pub(crate) struct CellRing {
    store: CellStore,
    /// Second of row 0 (kept at the horizon while the ring is empty).
    start: i64,
    cut: CutTracker,
}

impl CellRing {
    pub fn new(n_slots: usize, cut: CutKind) -> Self {
        let cut = CutTracker::new(cut == CutKind::Incremental, n_slots);
        Self { store: CellStore::new(n_slots), start: 0, cut }
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// The oldest resident second.
    pub fn first_second(&self) -> Option<i64> {
        (!self.store.is_empty()).then_some(self.start)
    }

    fn end(&self) -> i64 {
        self.start.saturating_add(self.store.len() as i64)
    }

    /// Row index for `second`, extending the ring at either end to reach
    /// it — the one place a gap of cell rows is materialised, bounded by
    /// [`reach`]. Every row created is counted into `created`.
    pub fn extend(
        &mut self,
        second: i64,
        retention_s: i64,
        created: &mut u64,
    ) -> Result<usize, OffRing> {
        if self.store.is_empty() {
            self.start = second;
        }
        let before = self.store.len();
        let d = reach(self.start, before, second, retention_s)?;
        // Rows before the start: an out-of-order record inside the
        // horizon (rare; channel drivers with racing producers).
        for _ in d..0 {
            self.store.push_front();
        }
        self.start = self.start.min(second);
        let idx = d.max(0) as usize;
        while self.store.len() <= idx {
            self.store.push_back();
        }
        *created += (self.store.len() - before) as u64;
        Ok(idx)
    }

    /// The write handles one run folds through: the row at `idx` and the
    /// cut tracker, side by side.
    #[inline]
    pub fn fold_at(&mut self, idx: usize) -> (RowWriter<'_>, &mut CutTracker) {
        (self.store.row_mut(idx), &mut self.cut)
    }

    /// Drops the rows before `horizon`, unwinding each cell's moments
    /// with the session reading `metrics` still holds for its second
    /// (rows pop before metrics); returns how many rows went.
    pub fn evict(&mut self, horizon: i64, metrics: &MetricRing) -> u64 {
        let mut evicted = 0;
        while !self.store.is_empty() && self.start < horizon {
            if self.cut.enabled {
                let session = metrics.session_at(self.start);
                let Self { store, cut, .. } = self;
                store.for_each(0, |slot, cell| {
                    cut.counts[slot as usize].evict(cell.0);
                    cut.sxy[slot as usize] -= cell.0 * session;
                    cut.evicted += 1;
                });
            }
            self.store.pop_front();
            self.start += 1;
            evicted += 1;
        }
        if self.store.is_empty() {
            self.start = self.start.max(horizon);
        }
        evicted
    }

    /// Cut bookkeeping for a metric second becoming resident (`old = None`)
    /// or being replaced: the session moments move `old → new`, and every
    /// template with a resident cell at `second` gets its co-sum corrected
    /// by `count·(new − old)` — one sweep of that second's cell row. A
    /// zero-filled gap second only counts: an absent second already read 0.
    pub fn session_resident(&mut self, second: i64, old: Option<f64>, new: f64) {
        if !self.cut.enabled {
            return;
        }
        if let Some(old) = old {
            self.cut.sessions.evict(old);
        }
        self.cut.sessions.push(new);
        self.cut.pushed += 1;
        let delta = new - old.unwrap_or(0.0);
        let row = offset(self.start, self.store.len(), second);
        if let (Some(idx), true) = (row, delta != 0.0) {
            let Self { store, cut, .. } = self;
            store.for_each(idx, |slot, cell| cut.sxy[slot as usize] += cell.0 * delta);
        }
    }

    /// A metric second left the horizon. Its cell row is already gone, so
    /// only the session moments shrink.
    pub fn session_gone(&mut self, old: f64) {
        if self.cut.enabled {
            self.cut.sessions.evict(old);
            self.cut.evicted += 1;
        }
    }

    /// The resident seconds in `[ts, te)`, ascending, each with its row
    /// index.
    fn rows_in(&self, ts: i64, te: i64) -> impl Iterator<Item = (i64, usize)> + '_ {
        (ts.max(self.start)..te.min(self.end())).map(|s| (s, (s - self.start) as usize))
    }

    /// Visits every touched cell of the resident seconds in `[ts, te)` as
    /// `(second, slot, cell)`, ascending seconds, first-touch order within
    /// one.
    pub fn for_each_in(&self, ts: i64, te: i64, mut f: impl FnMut(i64, u32, Cell)) {
        for (s, idx) in self.rows_in(ts, te) {
            self.store.for_each(idx, |slot, cell| f(s, slot, cell));
        }
    }

    /// One sweep over the window's touched cells: `(slot, moments of its
    /// per-second execution counts)` in first-touch order, leaving
    /// `slot_pos[slot]` = position for every touched slot and `u32::MAX`
    /// elsewhere (callers use it as the template index map).
    pub fn sweep_window(
        &self,
        ts: i64,
        te: i64,
        slot_pos: &mut Vec<u32>,
    ) -> Vec<(u32, MomentAccumulator)> {
        slot_pos.clear();
        slot_pos.resize(self.store.n_slots(), u32::MAX);
        let mut touched: Vec<(u32, MomentAccumulator)> = Vec::new();
        self.for_each_in(ts, te, |_, slot, cell| {
            let pos = &mut slot_pos[slot as usize];
            if *pos == u32::MAX {
                *pos = touched.len() as u32;
                touched.push((slot, MomentAccumulator::default()));
            }
            touched[*pos as usize].1.push(cell.0);
        });
        touched
    }

    /// Advisory template↔active-session Pearson for every window template,
    /// from the running moments: window sums are the resident totals minus
    /// the resident seconds *outside* `[ts, te)` (the complement trick), so
    /// the work is bounded by the retention slack plus one pass over the
    /// templates — never by the window itself.
    pub fn window_gate(
        &self,
        ts: i64,
        te: i64,
        touched: &[(u32, MomentAccumulator)],
        metrics: &MetricRing,
    ) -> Vec<f64> {
        let n_slots = self.store.n_slots();
        let mut out_counts = vec![MomentAccumulator::default(); n_slots];
        let mut out_sxy = vec![0.0f64; n_slots];
        for (s, idx) in self.rows_in(i64::MIN, ts).chain(self.rows_in(te, i64::MAX)) {
            let session = metrics.session_at(s);
            self.store.for_each(idx, |slot, cell| {
                out_counts[slot as usize].push(cell.0);
                out_sxy[slot as usize] += cell.0 * session;
            });
        }
        let mut win_sessions = self.cut.sessions;
        let mut out_sessions = MomentAccumulator::default();
        for (_, session) in metrics.sessions().filter(|&(s, _)| s < ts || s >= te) {
            out_sessions.push(session);
        }
        win_sessions.unmerge(&out_sessions);
        // Pearson over the window's full length: absent seconds are zeros,
        // which contribute nothing to any sum, so passing `te − ts` as `n`
        // *is* the zero-filled series.
        let n_win = (te - ts) as u64;
        touched
            .iter()
            .map(|&(slot, _)| {
                let mut m = self.cut.counts[slot as usize];
                m.unmerge(&out_counts[slot as usize]);
                let sxy = self.cut.sxy[slot as usize] - out_sxy[slot as usize];
                let (y, yy) = (win_sessions.sum(), win_sessions.sum_sq());
                CoMomentAccumulator::from_sums(n_win, m.sum(), y, m.sum_sq(), yy, sxy).pearson()
            })
            .collect()
    }

    pub fn cut_enabled(&self) -> bool {
        self.cut.enabled
    }

    /// The active cut path: the tracker is live iff it is `Incremental`.
    pub fn cut_kind(&self) -> CutKind {
        if self.cut.enabled { CutKind::Incremental } else { CutKind::Reference }
    }

    /// Running cut-moment counters `(pushed, evicted)`.
    pub fn cut_moments(&self) -> (u64, u64) {
        (self.cut.pushed, self.cut.evicted)
    }

    /// Switches the cut path: to `Incremental` rebuilds the running
    /// moments from the resident cell and metric rings, to `Reference`
    /// drops them. A no-op when already on `kind`.
    pub fn set_cut(&mut self, kind: CutKind, metrics: &MetricRing) {
        let enabled = kind == CutKind::Incremental;
        if enabled == self.cut.enabled {
            return;
        }
        let mut t = CutTracker::new(enabled, self.store.n_slots());
        if enabled {
            for (s, idx) in self.rows_in(i64::MIN, i64::MAX) {
                let session = metrics.session_at(s);
                self.store.for_each(idx, |slot, cell| {
                    t.counts[slot as usize].push(cell.0);
                    t.sxy[slot as usize] += cell.0 * session;
                    t.pushed += 1;
                });
            }
            for (_, session) in metrics.sessions() {
                t.sessions.push(session);
                t.pushed += 1;
            }
        }
        self.cut = t;
    }

    /// `PSNP` aggregator body: start second, then each row's touched cells
    /// in first-touch order.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_i64(self.start);
        w.put_len(self.store.len());
        let mut row: Vec<(u32, Cell)> = Vec::new();
        for idx in 0..self.store.len() {
            row.clear();
            self.store.for_each(idx, |slot, cell| row.push((slot, cell)));
            w.put_len(row.len());
            for &(slot, cell) in &row {
                w.put_array(cell_row(slot, cell));
            }
        }
    }

    /// Reads [`write`](Self::write)'s stretch with the cut tracker off;
    /// the cut-state section switches it on ([`read_cut`](Self::read_cut)).
    /// A cell naming a slot outside the catalog, or one its row already
    /// named, is a typed mismatch: a row holds each touched slot once, and
    /// the shared write table indexes it by that.
    pub fn read(r: &mut WireReader, n_slots: usize) -> Result<Self, WireError> {
        let start = r.get_i64()?;
        let n_rows = r.get_len(8)?;
        let mut store = CellStore::new(n_slots);
        let mut row: Vec<(u32, Cell)> = Vec::new();
        // slot → the last row index that named it.
        let mut seen_in = vec![usize::MAX; n_slots];
        for i in 0..n_rows {
            let n_cells = r.get_len(CELL_ROW_BYTES)?;
            row.clear();
            for _ in 0..n_cells {
                let (slot, cell) = cell_from_row(r.get_array()?);
                let mismatch = |detail| WireError::Mismatch { what: "cell slot", detail };
                let Some(seen) = seen_in.get_mut(slot as usize) else {
                    return Err(mismatch(format!("slot {slot} out of range ({n_slots})")));
                };
                if *seen == i {
                    return Err(mismatch(format!("slot {slot} twice in row {i}")));
                }
                *seen = i;
                row.push((slot, cell));
            }
            store.push_back_row(row.iter().copied());
        }
        Ok(Self { store, start, cut: CutTracker::default() })
    }

    /// `PSNP` cut-state section: the cut kind tag, then the running
    /// moments, every sum as raw bits.
    pub fn write_cut(&self, w: &mut WireWriter) {
        let t = &self.cut;
        w.put_u8(t.enabled as u8);
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

    /// Reads [`write_cut`](Self::write_cut)'s section, replacing the
    /// tracker. An unknown kind tag is a `BadTag`; a slot count that does
    /// not match the catalog (`Incremental`) or is not zero (`Reference`)
    /// is a `Mismatch`.
    pub fn read_cut(&mut self, r: &mut WireReader) -> Result<(), WireError> {
        let enabled = match r.get_u8()? {
            0 => false,
            1 => true,
            v => return Err(WireError::BadTag { what: "cut kind", value: v as u64 }),
        };
        let n = r.get_len(MOMENT_ROW_BYTES)?;
        let expect = if enabled { self.store.n_slots() } else { 0 };
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
        self.cut = CutTracker { enabled, counts, sxy, sessions, pushed, evicted };
        Ok(())
    }
}
