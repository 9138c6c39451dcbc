//! Long-horizon per-template execution history (1-minute granularity).
//!
//! History Trend Verification (§VI) compares a candidate R-SQL's execution
//! trend during the anomaly with the same wall-clock window `N_d ∈ {1,3,7}`
//! days earlier. Aggregating into templates shrinks the data enough to keep
//! ~30 days (§IV-A); this store holds per-template 1-minute `#execution`
//! series keyed by absolute minute index.

use pinsql_sqlkit::SqlId;
use pinsql_timeseries::FxHashMap;

/// One template's minute-granularity execution history.
#[derive(Debug, Clone)]
pub struct HistorySeries {
    pub id: SqlId,
    /// Absolute minute index of the first sample.
    pub start_minute: i64,
    /// Executions per minute.
    pub executions: Vec<f64>,
}

impl HistorySeries {
    /// The sub-slice covering minutes `[from, to)`, zero-padded *logically*:
    /// minutes outside the stored range are treated as 0 by the caller via
    /// the returned `(offset, slice)`; this method returns only the stored
    /// overlap.
    pub fn window(&self, from_min: i64, to_min: i64) -> &[f64] {
        if self.executions.is_empty() || to_min <= from_min {
            return &[];
        }
        let lo = (from_min - self.start_minute).clamp(0, self.executions.len() as i64) as usize;
        let hi = (to_min - self.start_minute).clamp(0, self.executions.len() as i64) as usize;
        &self.executions[lo..hi]
    }
}

/// The widest gap of untouched minutes a series zero-fills: the ~30 days
/// of §IV-A, four times the longest (7-day) look-back verification uses.
const RESTART_GAP_MIN: i64 = 30 * 24 * 60;

/// Store of per-template histories.
///
/// Series live in a dense `Vec`; the id map only resolves `SqlId` to a
/// stable entry index. Hot writers (the incremental aggregator's minute
/// fold) resolve each template once via [`entry_index`](Self::entry_index)
/// and then append through [`record_at`](Self::record_at) — a direct
/// vector index instead of a hash probe per (template, minute).
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    series: Vec<HistorySeries>,
    index: FxHashMap<SqlId, u32>,
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (replacing) a template's history.
    pub fn insert(&mut self, series: HistorySeries) {
        if let Some(&i) = self.index.get(&series.id) {
            self.series[i as usize] = series;
        } else {
            self.index.insert(series.id, self.series.len() as u32);
            self.series.push(series);
        }
    }

    /// The stable entry index for a template, creating an empty series on
    /// first sight. The index stays valid for the store's lifetime and can
    /// be cached by callers that record repeatedly.
    pub fn entry_index(&mut self, id: SqlId) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.series.len() as u32;
        self.index.insert(id, i);
        self.series.push(HistorySeries { id, start_minute: 0, executions: Vec::new() });
        i
    }

    /// Accumulates executions for a template at an absolute minute,
    /// extending the series as needed. Creating a series lazily starts it
    /// at the first touched minute.
    pub fn record(&mut self, id: SqlId, minute: i64, count: f64) {
        let i = self.entry_index(id);
        self.record_at(i, minute, count);
    }

    /// [`record`](Self::record) through a cached [`entry_index`](Self::entry_index).
    ///
    /// A minute more than [`RESTART_GAP_MIN`] from everything the series
    /// holds restarts it there: no look-back reaches across such a gap, and
    /// zero-filling it would let one clock jump allocate without bound.
    pub fn record_at(&mut self, entry: u32, minute: i64, count: f64) {
        let entry = &mut self.series[entry as usize];
        let end = entry.start_minute.saturating_add(entry.executions.len() as i64);
        if minute.saturating_sub(end) > RESTART_GAP_MIN
            || entry.start_minute.saturating_sub(minute) > RESTART_GAP_MIN
        {
            entry.executions.clear();
        }
        if entry.executions.is_empty() {
            entry.start_minute = minute;
        } else if minute < entry.start_minute {
            // Prepend zeros (rare: out-of-order backfill).
            let shift = (entry.start_minute - minute) as usize;
            let mut v = vec![0.0; shift];
            v.extend_from_slice(&entry.executions);
            entry.executions = v;
            entry.start_minute = minute;
        }
        let idx = (minute - entry.start_minute) as usize;
        if entry.executions.len() <= idx {
            entry.executions.resize(idx + 1, 0.0);
        }
        entry.executions[idx] += count;
    }

    /// A template's history, if known.
    pub fn get(&self, id: SqlId) -> Option<&HistorySeries> {
        self.index.get(&id).map(|&i| &self.series[i as usize])
    }

    /// The execution series over minutes `[from, to)`, zero-filled where no
    /// data exists (including templates never seen at all — a template that
    /// did not exist `N_d` days ago has an all-zero history there, which is
    /// precisely what makes a *new* template verifiable as an R-SQL).
    pub fn window_filled(&self, id: SqlId, from_min: i64, to_min: i64) -> Vec<f64> {
        let n = (to_min - from_min).max(0) as usize;
        let mut out = vec![0.0; n];
        if let Some(series) = self.get(id) {
            let overlap = series.window(from_min, to_min);
            if !overlap.is_empty() {
                let offset = (series.start_minute.max(from_min) - from_min) as usize;
                out[offset..offset + overlap.len()].copy_from_slice(overlap);
            }
        }
        out
    }

    /// All series in entry-index (creation) order — the checkpoint
    /// serialization order: re-[`insert`](Self::insert)ing them into an
    /// empty store in this order reproduces both the dense vector and
    /// every cached [`entry_index`](Self::entry_index) value.
    pub fn iter(&self) -> impl Iterator<Item = &HistorySeries> {
        self.series.iter()
    }

    /// Number of templates with history.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no template has history.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: SqlId = SqlId(42);

    #[test]
    fn record_and_window() {
        let mut store = HistoryStore::new();
        store.record(ID, 100, 5.0);
        store.record(ID, 101, 7.0);
        store.record(ID, 101, 1.0);
        store.record(ID, 104, 2.0);
        let w = store.window_filled(ID, 100, 105);
        assert_eq!(w, vec![5.0, 8.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn window_filled_pads_outside_range() {
        let mut store = HistoryStore::new();
        store.record(ID, 10, 3.0);
        let w = store.window_filled(ID, 8, 13);
        assert_eq!(w, vec![0.0, 0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn unknown_template_is_all_zero() {
        let store = HistoryStore::new();
        let w = store.window_filled(SqlId(7), 0, 4);
        assert_eq!(w, vec![0.0; 4]);
        assert!(store.is_empty());
    }

    #[test]
    fn backfill_before_start_prepends() {
        let mut store = HistoryStore::new();
        store.record(ID, 10, 1.0);
        store.record(ID, 8, 2.0);
        let w = store.window_filled(ID, 8, 11);
        assert_eq!(w, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn insert_replaces() {
        let mut store = HistoryStore::new();
        store.insert(HistorySeries { id: ID, start_minute: 0, executions: vec![1.0] });
        store.insert(HistorySeries { id: ID, start_minute: 0, executions: vec![9.0, 9.0] });
        assert_eq!(store.window_filled(ID, 0, 2), vec![9.0, 9.0]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn record_at_matches_record() {
        let mut by_id = HistoryStore::new();
        let mut by_index = HistoryStore::new();
        let idx = by_index.entry_index(ID);
        for (m, c) in [(10, 1.0), (8, 2.0), (12, 3.0), (10, 0.5)] {
            by_id.record(ID, m, c);
            by_index.record_at(idx, m, c);
        }
        assert_eq!(by_id.window_filled(ID, 8, 13), by_index.window_filled(ID, 8, 13));
        assert_eq!(by_index.entry_index(ID), idx, "entry index is stable");
        assert_eq!(by_id.len(), by_index.len());
        assert_eq!(by_id.get(ID).unwrap().start_minute, by_index.get(ID).unwrap().start_minute);
    }

    #[test]
    fn degenerate_window() {
        let mut store = HistoryStore::new();
        store.record(ID, 5, 1.0);
        assert!(store.window_filled(ID, 10, 10).is_empty());
        assert!(store.get(ID).unwrap().window(7, 3).is_empty());
    }
}
