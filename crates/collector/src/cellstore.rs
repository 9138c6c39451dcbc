//! Per-second, per-template cell storage for the incremental aggregator.
//!
//! A *cell* is one `(execution count, total response time, examined rows)`
//! triple for one template in one second. The aggregator holds a
//! contiguous ring of per-second rows; this module provides the two row
//! representations behind one interface:
//!
//! * [`CellStoreKind::Dense`] — packed rows plus one shared write index:
//!   each row is just its touched `(slot, cell)` pairs in first-touch
//!   order, and a single `slot → index` position table ([`PosTable`])
//!   serves whichever row is currently being written (the ring's write
//!   frontier on an in-order stream). Attributing a record is one
//!   bounds-checked probe of that table — which stays cache-hot because
//!   it is the *only* position table, not one of `retention_s` of them —
//!   and one packed-vector write; no hashing, no per-record allocation.
//!   Writing to a different row re-targets the table by re-indexing that
//!   row's touched pairs (`O(touched)`, and free for the empty row a new
//!   second opens). Evicted rows are recycled through a free list and
//!   invalidating the table is an epoch bump, so the steady-state ingest
//!   loop neither allocates nor re-touches cold memory per second.
//! * [`CellStoreKind::Hashed`] — the original map representation, one
//!   [`FxHashMap`]`<slot, Cell>` per second. Kept as the reference
//!   implementation (the equivalence property tests drive both kinds with
//!   identical streams) and as the fallback for enormous catalogs where
//!   even one position table would waste memory.
//!
//! Both kinds are keyed by the same dense slot, accumulate in the same
//! per-record order, and expose touched cells identically up to visit
//! order (dense rows visit in first-touch order, hashed rows in map
//! order — every consumer either writes to disjoint per-slot state or
//! sorts afterwards), so every consumer — snapshot assembly, history
//! folding, the `executions` counter — produces bit-identical results
//! over either representation.

use pinsql_timeseries::FxHashMap;
use std::collections::VecDeque;

/// One second's per-template aggregates:
/// `(count, total_rt_ms, examined_rows)`.
pub type Cell = (f64, f64, f64);

/// One second's touched cells, packed in first-touch order.
type DenseData = Vec<(u32, Cell)>;

/// Bits of a [`PosTable`] entry holding the cell index; the remaining
/// high bits hold the entry's epoch tag.
const IDX_BITS: u32 = 20;
const IDX_MASK: u32 = (1 << IDX_BITS) - 1;
/// Epochs live in the high `32 - IDX_BITS` bits; `0` is reserved so a
/// zero-initialized table reads as all-stale.
const EPOCH_LIMIT: u32 = 1 << (32 - IDX_BITS);

/// Shared-table owner sentinel: no row currently indexed.
const NO_OWNER: usize = usize::MAX;

/// Which row representation an aggregator uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CellStoreKind {
    /// Packed rows + one shared write index (hot-path default).
    #[default]
    Dense,
    /// `FxHashMap<slot, Cell>` per second (reference / sparse fallback).
    Hashed,
}

/// The shared `slot → cell index` write table: `pos[slot]` packs an epoch
/// tag (high bits) with the index of the slot's cell inside the owning
/// row's data (low [`IDX_BITS`]). An entry is live only while its tag
/// matches the current epoch, so re-targeting the table to another row
/// starts from an epoch bump — stale entries are never rewritten.
#[derive(Debug, Clone)]
pub struct PosTable {
    pos: Box<[u32]>,
    epoch: u32,
}

impl PosTable {
    /// A table over `n_slots` dense template slots.
    ///
    /// Panics if `n_slots` exceeds the entry index range (2^20 slots);
    /// catalogs that large belong on [`CellStoreKind::Hashed`].
    fn new(n_slots: usize) -> Self {
        assert!(n_slots <= IDX_MASK as usize + 1, "catalog too large for dense rows");
        Self { pos: vec![0; n_slots].into(), epoch: 1 }
    }

    /// Invalidates every entry in `O(1)`: bumps the epoch. Only when the
    /// counter wraps (every `EPOCH_LIMIT - 1` resets) is the table
    /// actually rewritten.
    fn reset(&mut self) {
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            self.epoch = 1;
            self.pos.fill(0);
        }
    }

    /// Re-targets the table to index `data` (`O(touched)`).
    fn rebuild(&mut self, data: &DenseData) {
        self.reset();
        for (i, &(slot, _)) in data.iter().enumerate() {
            self.pos[slot as usize] = (self.epoch << IDX_BITS) | i as u32;
        }
    }

    /// The owning row's cell index for `slot`, if touched.
    #[inline]
    fn lookup(&self, slot: u32) -> Option<usize> {
        let p = self.pos[slot as usize];
        (p >> IDX_BITS == self.epoch).then_some((p & IDX_MASK) as usize)
    }
}

/// Write access to one dense row through the shared position table.
pub struct DenseRowMut<'a> {
    pos: &'a mut PosTable,
    data: &'a mut DenseData,
}

impl DenseRowMut<'_> {
    /// Folds one record into `slot`, returning the cell's execution count
    /// *before* this record (`0.0` for a freshly touched cell) — the
    /// running-moment tracker turns that into an O(1) evict + push delta.
    ///
    /// New cells start at `(0.0, 0.0, 0.0)` and are accumulated with `+=`
    /// rather than assigned from the first record: `0.0 + (-0.0)` is
    /// `+0.0`, so a leading negative-zero measurement folds to the same
    /// bits as it always has (a direct assignment would store `-0.0`,
    /// which serializes differently).
    #[inline]
    pub fn add(&mut self, slot: u32, rt_ms: f64, rows: f64) -> f64 {
        let p = &mut self.pos.pos[slot as usize];
        let cell = if *p >> IDX_BITS == self.pos.epoch {
            &mut self.data[(*p & IDX_MASK) as usize].1
        } else {
            *p = (self.pos.epoch << IDX_BITS) | self.data.len() as u32;
            self.data.push((slot, (0.0, 0.0, 0.0)));
            &mut self.data.last_mut().expect("just pushed").1
        };
        let prev = cell.0;
        cell.0 += 1.0;
        cell.1 += rt_ms;
        cell.2 += rows;
        prev
    }
}

#[derive(Debug, Clone)]
enum Rows {
    Dense {
        rows: VecDeque<DenseData>,
        /// Evicted rows awaiting reuse — the steady-state ring cycles
        /// through `len + free` rows without touching the allocator.
        free: Vec<DenseData>,
        /// The one shared write table (see module docs).
        pos: PosTable,
        /// Ring index of the row `pos` currently indexes, [`NO_OWNER`]
        /// when none; maintained across front pushes/pops, which shift
        /// ring indices.
        owner: usize,
    },
    Hashed(VecDeque<FxHashMap<u32, Cell>>),
}

/// A ring of per-second cell rows. Ring position ↔ absolute second
/// bookkeeping stays with the caller (the aggregator); the store only
/// deals in row indices `0..len()`.
#[derive(Debug, Clone)]
pub struct CellStore {
    n_slots: usize,
    rows: Rows,
}

impl CellStore {
    /// An empty store over `n_slots` dense template slots.
    pub fn new(kind: CellStoreKind, n_slots: usize) -> Self {
        let rows = match kind {
            CellStoreKind::Dense => Rows::Dense {
                rows: VecDeque::new(),
                free: Vec::new(),
                pos: PosTable::new(n_slots),
                owner: NO_OWNER,
            },
            CellStoreKind::Hashed => Rows::Hashed(VecDeque::new()),
        };
        Self { n_slots, rows }
    }

    /// The row representation this store was built with.
    pub fn kind(&self) -> CellStoreKind {
        match &self.rows {
            Rows::Dense { .. } => CellStoreKind::Dense,
            Rows::Hashed(_) => CellStoreKind::Hashed,
        }
    }

    /// The dense template-slot count this store was sized for.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Appends a row at the back with *exact* cell values, in iteration
    /// order — the checkpoint-restore path. Unlike [`add`](Self::add),
    /// which accumulates, the cells are installed verbatim, so a restored
    /// row is bit-identical to the one that was serialized (dense rows
    /// additionally keep first-touch order, which `cells` arrives in).
    ///
    /// Callers must have validated `slot < n_slots` for every pair; the
    /// shared write table is sized for the catalog and an out-of-range
    /// slot would corrupt it on the next write.
    pub fn push_back_row(&mut self, cells: impl IntoIterator<Item = (u32, Cell)>) {
        match &mut self.rows {
            Rows::Dense { rows, free, .. } => {
                let mut data = free.pop().unwrap_or_default();
                data.clear();
                data.extend(cells);
                debug_assert!(data.iter().all(|&(s, _)| (s as usize) < self.n_slots));
                rows.push_back(data);
            }
            Rows::Hashed(rows) => {
                let mut map = FxHashMap::default();
                for (slot, cell) in cells {
                    debug_assert!((slot as usize) < self.n_slots);
                    map.insert(slot, cell);
                }
                rows.push_back(map);
            }
        }
    }

    /// Number of second-rows currently held.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Dense { rows, .. } => rows.len(),
            Rows::Hashed(rows) => rows.len(),
        }
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an empty row at the back (one second later).
    pub fn push_back(&mut self) {
        match &mut self.rows {
            Rows::Dense { rows, free, .. } => rows.push_back(free.pop().unwrap_or_default()),
            Rows::Hashed(rows) => rows.push_back(FxHashMap::default()),
        }
    }

    /// Prepends an empty row at the front (one second earlier).
    pub fn push_front(&mut self) {
        match &mut self.rows {
            Rows::Dense { rows, free, owner, .. } => {
                rows.push_front(free.pop().unwrap_or_default());
                if *owner != NO_OWNER {
                    *owner += 1;
                }
            }
            Rows::Hashed(rows) => rows.push_front(FxHashMap::default()),
        }
    }

    /// Drops the oldest row. Dense rows are recycled; clearing one is
    /// `O(1)` (truncate the packed pairs — the shared table only ever
    /// indexes the row being written).
    pub fn pop_front(&mut self) {
        match &mut self.rows {
            Rows::Dense { rows, free, owner, .. } => {
                if let Some(mut data) = rows.pop_front() {
                    data.clear();
                    free.push(data);
                    *owner = match *owner {
                        0 | NO_OWNER => NO_OWNER,
                        o => o - 1,
                    };
                }
            }
            Rows::Hashed(rows) => {
                rows.pop_front();
            }
        }
    }

    /// Mutable access to row `idx`, for amortizing the row lookup across a
    /// run of same-second records. Callers folding a run match the
    /// returned enum once and loop inside the arm, so the per-record fold
    /// is monomorphic. For dense rows this re-targets the shared write
    /// table when `idx` is not the row it already indexes — free for a
    /// freshly opened (empty) second, `O(touched)` for an out-of-order
    /// write into an older row.
    #[inline]
    pub fn row_mut(&mut self, idx: usize) -> RowMut<'_> {
        match &mut self.rows {
            Rows::Dense { rows, pos, owner, .. } => {
                if *owner != idx {
                    pos.rebuild(&rows[idx]);
                    *owner = idx;
                }
                RowMut::Dense(DenseRowMut { pos, data: &mut rows[idx] })
            }
            Rows::Hashed(rows) => RowMut::Hashed(&mut rows[idx]),
        }
    }

    /// Folds one record into `(idx, slot)`, returning the cell's
    /// execution count before this record.
    #[inline]
    pub fn add(&mut self, idx: usize, slot: u32, rt_ms: f64, rows: f64) -> f64 {
        self.row_mut(idx).add(slot, rt_ms, rows)
    }

    /// The cell at `(idx, slot)`, `None` when no record ever touched it.
    /// Dense rows answer through the shared table when `idx` owns it and
    /// by scanning the row's touched pairs otherwise (reads never steal
    /// the table from the write path).
    pub fn get(&self, idx: usize, slot: u32) -> Option<Cell> {
        match &self.rows {
            Rows::Dense { rows, pos, owner, .. } => {
                if *owner == idx {
                    pos.lookup(slot).map(|i| rows[idx][i].1)
                } else {
                    rows[idx].iter().find(|&&(s, _)| s == slot).map(|&(_, c)| c)
                }
            }
            Rows::Hashed(rows) => rows[idx].get(&slot).copied(),
        }
    }

    /// Visits every *touched* cell of row `idx`. Dense rows visit in
    /// first-touch order; hashed rows in unspecified map order — callers
    /// that need an order sort by template id afterwards (every current
    /// consumer either sorts, accumulates into disjoint per-slot state, or
    /// is order-insensitive).
    pub fn for_each(&self, idx: usize, mut f: impl FnMut(u32, Cell)) {
        match &self.rows {
            Rows::Dense { rows, .. } => {
                for &(slot, cell) in &rows[idx] {
                    f(slot, cell);
                }
            }
            Rows::Hashed(rows) => {
                for (slot, cell) in &rows[idx] {
                    f(*slot, *cell);
                }
            }
        }
    }
}

/// One mutable second-row, either representation.
pub enum RowMut<'a> {
    Dense(DenseRowMut<'a>),
    Hashed(&'a mut FxHashMap<u32, Cell>),
}

impl RowMut<'_> {
    /// Folds one record into the row: `count += 1`, `rt += rt_ms`,
    /// `rows += rows_examined`. Returns the row's execution count for
    /// `slot` before this record (`0.0` for a freshly touched cell).
    #[inline]
    pub fn add(&mut self, slot: u32, rt_ms: f64, rows: f64) -> f64 {
        match self {
            RowMut::Dense(row) => row.add(slot, rt_ms, rows),
            RowMut::Hashed(map) => {
                let cell = map.entry(slot).or_insert((0.0, 0.0, 0.0));
                let prev = cell.0;
                cell.0 += 1.0;
                cell.1 += rt_ms;
                cell.2 += rows;
                prev
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [CellStore; 2] {
        [CellStore::new(CellStoreKind::Dense, 4), CellStore::new(CellStoreKind::Hashed, 4)]
    }

    #[test]
    fn kinds_agree_on_adds_and_reads() {
        for mut store in both() {
            store.push_back();
            store.push_back();
            store.add(0, 2, 10.0, 3.0);
            store.add(0, 2, 4.0, 1.0);
            store.add(1, 0, 7.0, 0.0);
            assert_eq!(store.get(0, 2), Some((2.0, 14.0, 4.0)));
            assert_eq!(store.get(0, 0), None, "untouched cell reads as absent");
            assert_eq!(store.get(1, 0), Some((1.0, 7.0, 0.0)));

            let mut touched: Vec<(u32, Cell)> = Vec::new();
            store.for_each(0, |slot, cell| touched.push((slot, cell)));
            assert_eq!(touched, vec![(2, (2.0, 14.0, 4.0))]);
        }
    }

    #[test]
    fn run_accumulation_through_row_mut() {
        for mut store in both() {
            store.push_back();
            let mut row = store.row_mut(0);
            for i in 0..5u32 {
                row.add(i % 2, 1.0, 2.0);
            }
            assert_eq!(store.get(0, 0), Some((3.0, 3.0, 6.0)));
            assert_eq!(store.get(0, 1), Some((2.0, 2.0, 4.0)));
        }
    }

    #[test]
    fn add_returns_the_previous_execution_count() {
        for mut store in both() {
            store.push_back();
            assert_eq!(store.add(0, 2, 1.0, 0.0), 0.0, "fresh cell");
            assert_eq!(store.add(0, 2, 1.0, 0.0), 1.0);
            assert_eq!(store.add(0, 2, 1.0, 0.0), 2.0);
            assert_eq!(store.add(0, 1, 1.0, 0.0), 0.0, "other slot is independent");
        }
    }

    #[test]
    fn ring_operations() {
        for mut store in both() {
            assert!(store.is_empty());
            store.push_back();
            store.add(0, 1, 5.0, 0.0);
            store.push_front(); // new empty second before the first
            assert_eq!(store.len(), 2);
            assert_eq!(store.get(0, 1), None);
            assert_eq!(store.get(1, 1), Some((1.0, 5.0, 0.0)));
            store.pop_front();
            assert_eq!(store.len(), 1);
            assert_eq!(store.get(0, 1), Some((1.0, 5.0, 0.0)));
        }
    }

    #[test]
    fn recycled_rows_read_as_empty() {
        let mut store = CellStore::new(CellStoreKind::Dense, 4);
        store.push_back();
        for slot in 0..4 {
            store.add(0, slot, 1.0, 1.0);
        }
        store.pop_front();
        // The next push must hand back the recycled row, fully cleared.
        store.push_back();
        for slot in 0..4 {
            assert_eq!(store.get(0, slot), None, "slot {slot}");
        }
        let mut touched = 0;
        store.for_each(0, |_, _| touched += 1);
        assert_eq!(touched, 0);
        // And it accumulates from scratch, not from stale cells.
        store.add(0, 2, 3.0, 1.0);
        assert_eq!(store.get(0, 2), Some((1.0, 3.0, 1.0)));
    }

    #[test]
    fn dense_first_touch_order_is_preserved() {
        let mut store = CellStore::new(CellStoreKind::Dense, 8);
        store.push_back();
        for slot in [5u32, 1, 7, 1, 5, 0] {
            store.add(0, slot, 1.0, 0.0);
        }
        let mut order: Vec<u32> = Vec::new();
        store.for_each(0, |slot, _| order.push(slot));
        assert_eq!(order, vec![5, 1, 7, 0]);
    }

    #[test]
    fn interleaved_writes_re_target_the_shared_table() {
        // Alternating writes between two rows force the write table to
        // re-index on every switch; accumulation must stay per-row exact,
        // including re-touching a slot first touched before a switch.
        let mut store = CellStore::new(CellStoreKind::Dense, 8);
        store.push_back();
        store.push_back();
        for (idx, slot) in [(0, 3u32), (1, 3), (0, 3), (1, 5), (0, 5), (1, 3)] {
            store.add(idx, slot, 1.0, 1.0);
        }
        assert_eq!(store.get(0, 3), Some((2.0, 2.0, 2.0)));
        assert_eq!(store.get(0, 5), Some((1.0, 1.0, 1.0)));
        assert_eq!(store.get(1, 3), Some((2.0, 2.0, 2.0)));
        assert_eq!(store.get(1, 5), Some((1.0, 1.0, 1.0)));
        // get() on the non-owner row (0 — row 1 wrote last) answers by
        // scanning its pairs; both paths must agree.
        let mut order: Vec<u32> = Vec::new();
        store.for_each(0, |slot, _| order.push(slot));
        assert_eq!(order, vec![3, 5]);
    }

    #[test]
    fn front_pushes_and_pops_keep_the_owner_aligned() {
        let mut store = CellStore::new(CellStoreKind::Dense, 4);
        store.push_back();
        store.add(0, 1, 5.0, 0.0); // row 0 owns the table
        store.push_front(); // owned row shifts to index 1
        store.add(1, 1, 7.0, 0.0); // must hit the same row, no rebuild
        assert_eq!(store.get(1, 1), Some((2.0, 12.0, 0.0)));
        store.pop_front(); // owned row shifts back to index 0
        store.add(0, 2, 1.0, 0.0);
        assert_eq!(store.get(0, 1), Some((2.0, 12.0, 0.0)));
        assert_eq!(store.get(0, 2), Some((1.0, 1.0, 0.0)));
        store.pop_front(); // pops the owned row itself
        assert!(store.is_empty());
        store.push_back();
        store.add(0, 1, 3.0, 0.0);
        assert_eq!(store.get(0, 1), Some((1.0, 3.0, 0.0)));
    }

    #[test]
    fn negative_zero_measurements_fold_to_positive_zero() {
        // Bit-compatibility with the zero-initialized slab representation:
        // `0.0 + (-0.0)` is `+0.0`, so a leading `-0.0` must not leak its
        // sign bit into the stored cell.
        for mut store in both() {
            store.push_back();
            store.add(0, 1, -0.0, -0.0);
            let (_, rt, rows) = store.get(0, 1).expect("touched");
            assert_eq!(rt.to_bits(), 0.0f64.to_bits());
            assert_eq!(rows.to_bits(), 0.0f64.to_bits());
        }
    }
}
