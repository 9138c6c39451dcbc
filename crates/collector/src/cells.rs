//! The per-second cell ring.
//!
//! [`CellRing`] places a [`CellStore`]'s rows on the time axis — row `i`
//! is second `start + i`, contiguous, never more than `retention_s + 1`
//! of them — and extends, evicts, sweeps and serializes them.

use crate::cellstore::{Cell, CellStore, RowWriter};
use crate::metrics::{reach, OffRing};
use pinsql_timeseries::wire::{f64_at, set_f64, set_u32, u32_at};
use pinsql_timeseries::{WireError, WireReader, WireWriter};

/// Serialized size of one resident cell: slot + count + Σrt + Σrows.
pub(crate) const CELL_ROW_BYTES: usize = 4 + 3 * 8;

/// The largest execution count a cell holds: the fold adds `1.0` per
/// record, which stays exact up to 2^53.
const MAX_COUNT: f64 = (1u64 << 53) as f64;

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

#[derive(Debug, Clone)]
pub(crate) struct CellRing {
    store: CellStore,
    /// Second of row 0 (kept at the horizon while the ring is empty).
    start: i64,
}

impl CellRing {
    pub fn new(n_slots: usize) -> Self {
        Self { store: CellStore::new(n_slots), start: 0 }
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

    /// The write handle one run folds through: the row at `idx`.
    #[inline]
    pub fn fold_at(&mut self, idx: usize) -> RowWriter<'_> {
        self.store.row_mut(idx)
    }

    /// Drops the rows before `horizon`; returns how many went.
    pub fn evict(&mut self, horizon: i64) -> u64 {
        let mut evicted = 0;
        while !self.store.is_empty() && self.start < horizon {
            self.store.pop_front();
            self.start += 1;
            evicted += 1;
        }
        if self.store.is_empty() {
            self.start = self.start.max(horizon);
        }
        evicted
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

    /// One sweep over the window's touched cells: the slots touched, in
    /// first-touch order, each marked in `slot_pos` (`u32::MAX` elsewhere)
    /// for the caller to number.
    pub fn sweep_window(&self, ts: i64, te: i64, slot_pos: &mut Vec<u32>) -> Vec<u32> {
        slot_pos.clear();
        slot_pos.resize(self.store.n_slots(), u32::MAX);
        let mut touched = Vec::new();
        self.for_each_in(ts, te, |_, slot, _| {
            let pos = &mut slot_pos[slot as usize];
            if *pos == u32::MAX {
                *pos = touched.len() as u32;
                touched.push(slot);
            }
        });
        touched
    }

    /// Bytes [`write`](Self::write) writes.
    pub fn wire_len(&self) -> usize {
        let rows = (0..self.store.len()).map(|idx| 8 + CELL_ROW_BYTES * self.store.row_len(idx));
        16 + rows.sum::<usize>()
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

    /// Reads [`write`](Self::write)'s stretch. A cell naming a slot outside
    /// the catalog, or one its row already named, is a typed mismatch: a
    /// row holds each touched slot once, and the shared write table
    /// indexes it by that. So is a count the fold never stores — anything
    /// but a whole number in `1..=2^53`: a touched cell has counted at
    /// least one record, one `+= 1.0` at a time, and a window cut sizes
    /// and sums by these counts.
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
                if !((1.0..=MAX_COUNT).contains(&cell.0) && cell.0.fract() == 0.0) {
                    return Err(WireError::Mismatch {
                        what: "cell count",
                        detail: format!("count {} at slot {slot} of row {i}", cell.0),
                    });
                }
                row.push((slot, cell));
            }
            store.push_back_row(row.iter().copied());
        }
        Ok(Self { store, start })
    }
}
