//! The in-flight minute accumulator and the history feed it folds into.
//!
//! Records bump their minute's dense slot-count row at ingest time; when a
//! minute completes, [`MinuteFeed::fold`] detaches its row and emits it to
//! the [`HistoryStore`] — no re-read of the minute's 60 cell rows, which
//! are cache-cold by then. This is *exactly* equivalent to re-scanning the
//! cells because (a) counts are integer-valued sums of `1.0`, so arrival
//! order cannot change the total, (b) a record is accumulated iff its
//! minute is at or ahead of the fold frontier, which is also precisely
//! when a fold-time scan would still see it (minutes behind the frontier
//! never re-fold), and (c) `retention_s ≥ 60` guarantees a minute folds
//! before any of its cell rows can be evicted, so a fold-time scan could
//! never miss an accumulated record either. Rows exist only for minutes
//! of admitted records, so the ring is as bounded as the cell ring is.

use crate::catalog::TemplateCatalog;
use crate::cells::CellRing;
use crate::history::{get_f64s, HistoryStore};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use std::collections::VecDeque;

#[derive(Debug, Clone, Default)]
pub(crate) struct MinuteFeed {
    /// Minute index of `rows.front()` (meaningless while `rows` is empty).
    start: i64,
    /// `rows[m - start]` is the dense slot-count row for minute `m`.
    rows: VecDeque<Vec<f64>>,
    /// Recycled rows, so steady state allocates nothing per minute.
    free: Vec<Vec<f64>>,
    /// Next stream minute (`second / 60`) to fold; `None` until the first
    /// fold. Minutes behind it never accumulate again.
    next: Option<i64>,
    history: HistoryStore,
    /// Slot → cached [`HistoryStore`] entry index (`u32::MAX` = not yet
    /// resolved), so the fold hashes each template once ever.
    slot_hist: Vec<u32>,
}

impl MinuteFeed {
    /// The in-line per-template 1-minute execution history.
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// The slot-count row for `minute`, extending the ring at either end
    /// to cover it — the one place a gap of minute rows is materialised.
    /// `None` when the minute already folded (a late record the feed must
    /// not double-count).
    pub fn row_mut(&mut self, minute: i64, n_slots: usize) -> Option<&mut [f64]> {
        if self.next.is_some_and(|next| minute < next) {
            return None;
        }
        if self.rows.is_empty() {
            self.start = minute;
        }
        for _ in minute..self.start {
            let row = self.zeroed(n_slots);
            self.rows.push_front(row);
        }
        self.start = self.start.min(minute);
        let idx = (minute - self.start) as usize;
        while self.rows.len() <= idx {
            let row = self.zeroed(n_slots);
            self.rows.push_back(row);
        }
        Some(&mut self.rows[idx])
    }

    fn zeroed(&mut self, n_slots: usize) -> Vec<f64> {
        let mut row = self.free.pop().unwrap_or_default();
        row.clear();
        row.resize(n_slots, 0.0);
        row
    }

    /// Folds every minute that has fully elapsed at `watermark` into the
    /// history store (at `origin_min + minute`) and returns how many
    /// minutes that was. Only minutes holding a row emit anything, so a
    /// run of untouched minutes — a clock jump of any size — is skipped
    /// arithmetically. `first_second` is the oldest resident cell second,
    /// where the frontier starts.
    pub fn fold(
        &mut self,
        watermark: i64,
        first_second: i64,
        catalog: &TemplateCatalog,
        origin_min: i64,
    ) -> u64 {
        let next = self.next.unwrap_or_else(|| first_second.div_euclid(60));
        let end = watermark.div_euclid(60).max(next);
        self.next = Some(end);
        // Slot-order emission is deterministic (the dense counts row
        // folded away any arrival order); each slot resolves its history
        // entry index once ever, so steady-state recording is a direct
        // vector index per (template, minute), no hashing.
        self.slot_hist.resize(catalog.n_slots(), u32::MAX);
        while !self.rows.is_empty() && self.start < end {
            let counts = self.rows.pop_front().expect("checked non-empty");
            let minute = self.start;
            self.start += 1;
            // (A row behind the frontier holds nothing a fold may emit.)
            let touched = counts.iter().enumerate().filter(|&(_, &c)| c > 0.0 && minute >= next);
            for (slot, &count) in touched {
                let entry = &mut self.slot_hist[slot];
                if *entry == u32::MAX {
                    *entry = self.history.entry_index(catalog.id_of_slot(slot as u32));
                }
                self.history.record_at(*entry, origin_min.saturating_add(minute), count);
            }
            self.free.push(counts);
        }
        (end - next) as u64
    }

    /// Bytes [`write`](Self::write) writes.
    pub fn wire_len(&self) -> usize {
        let rows = self.rows.iter().map(|row| 8 + 8 * row.len());
        self.history.wire_len() + 1 + 3 * 8 + rows.sum::<usize>()
    }

    /// `PSNP`: the history store, the fold frontier, the in-flight rows.
    pub fn write(&self, w: &mut WireWriter) {
        self.history.write(w);
        w.put_bool(self.next.is_some());
        w.put_i64(self.next.unwrap_or(0));
        w.put_i64(self.start);
        w.put_len(self.rows.len());
        for row in &self.rows {
            w.put_len(row.len());
            for &v in row {
                w.put_f64(v);
            }
        }
    }

    /// Reads [`write`](Self::write)'s stretch. The fold frontier is the
    /// minute of some second, so it lies within the clock's minutes (the
    /// next fold subtracts it from one). A row's positions are catalog
    /// slots, so each must hold exactly `n_slots` counts. A row is only
    /// opened by a record the cell ring holds, and a minute folds before
    /// any of its cell rows can go, so the rows' minutes must lie inside
    /// the seconds of `cells`, the ring restored beside them.
    pub fn read(r: &mut WireReader, n_slots: usize, cells: &CellRing) -> Result<Self, WireError> {
        let history = HistoryStore::read(r)?;
        let has_next = r.get_bool()?;
        let next = r.get_i64()?;
        let minutes = i64::MIN.div_euclid(60)..=i64::MAX.div_euclid(60);
        if has_next && !minutes.contains(&next) {
            return Err(WireError::Mismatch {
                what: "minute frontier",
                detail: format!("minute {next} is not the minute of any second"),
            });
        }
        let start = r.get_i64()?;
        let n_rows = r.get_len(8)?;
        let mut rows = VecDeque::with_capacity(n_rows);
        for i in 0..n_rows {
            let row = get_f64s(r)?;
            if row.len() != n_slots {
                return Err(WireError::Mismatch {
                    what: "minute row",
                    detail: format!("row {i} holds {} counts for {n_slots} slots", row.len()),
                });
            }
            rows.push_back(row);
        }
        if n_rows > 0 {
            let last = start as i128 + n_rows as i128 - 1;
            let inside = cells.first_second().is_some_and(|first| {
                let end = first as i128 + cells.len() as i128;
                first.div_euclid(60) <= start && last <= (end - 1).div_euclid(60)
            });
            if !inside {
                return Err(WireError::Mismatch {
                    what: "minute rows",
                    detail: format!("minutes {start}..={last} outside the cell ring"),
                });
            }
        }
        Ok(Self { start, rows, next: has_next.then_some(next), history, ..Self::default() })
    }
}
