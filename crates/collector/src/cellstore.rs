//! Per-second, per-template cell storage for the incremental aggregator.
//!
//! A *cell* is one `(execution count, total response time, examined rows)`
//! triple for one template in one second. [`CellStore`] is a ring of
//! per-second rows with **one** representation: packed rows plus one
//! shared write index. Each row is just its touched `(slot, cell)` pairs
//! in first-touch order, and a single `slot → index` position table
//! ([`PosTable`]) serves whichever row is currently being written (the
//! ring's write frontier on an in-order stream). Attributing a record is
//! one bounds-checked probe of that table — which stays cache-hot because
//! it is the *only* position table, not one of `retention_s` of them —
//! and one packed-vector write; no hashing, no per-record allocation.
//! Writing to a different row re-targets the table by re-indexing that
//! row's touched pairs (`O(touched)`, and free for the empty row a new
//! second opens). Evicted rows are recycled through a free list and
//! invalidating the table is an epoch bump, so the steady-state ingest
//! loop neither allocates nor re-touches cold memory per second.
//!
//! The representation this one replaced — a hash map per second — lives
//! on in this file's test module as the oracle a seeded op-sequence sweep
//! compares every `add`, `get` and `for_each` against; it is not
//! compiled into the library.

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
    /// Panics if `n_slots` exceeds the entry index range (2^20 slots).
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
pub struct RowWriter<'a> {
    pos: &'a mut PosTable,
    data: &'a mut DenseData,
}

impl RowWriter<'_> {
    /// Folds one record into `slot`, returning the cell's execution count
    /// *before* this record (`0.0` for a freshly touched cell).
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

/// A ring of per-second cell rows. Ring position ↔ absolute second
/// bookkeeping stays with the caller (the cell ring); the store only
/// deals in row indices `0..len()`.
#[derive(Debug, Clone)]
pub struct CellStore {
    n_slots: usize,
    rows: VecDeque<DenseData>,
    /// Evicted rows awaiting reuse — the steady-state ring cycles through
    /// `len + free` rows without touching the allocator.
    free: Vec<DenseData>,
    /// The one shared write table (see module docs).
    pos: PosTable,
    /// Ring index of the row `pos` currently indexes, [`NO_OWNER`] when
    /// none; maintained across front pushes/pops, which shift ring
    /// indices.
    owner: usize,
}

impl CellStore {
    /// An empty store over `n_slots` dense template slots.
    pub fn new(n_slots: usize) -> Self {
        Self {
            n_slots,
            rows: VecDeque::new(),
            free: Vec::new(),
            pos: PosTable::new(n_slots),
            owner: NO_OWNER,
        }
    }

    /// The dense template-slot count this store was sized for.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Appends a row at the back with *exact* cell values, in iteration
    /// order — the checkpoint-restore path. Unlike [`add`](Self::add),
    /// which accumulates, the cells are installed verbatim and keep the
    /// first-touch order `cells` arrives in, so a restored row is
    /// bit-identical to the one that was serialized.
    ///
    /// Callers must have validated `slot < n_slots` for every pair; the
    /// shared write table is sized for the catalog and an out-of-range
    /// slot would corrupt it on the next write.
    pub fn push_back_row(&mut self, cells: impl IntoIterator<Item = (u32, Cell)>) {
        let mut data = self.free.pop().unwrap_or_default();
        data.clear();
        data.extend(cells);
        debug_assert!(data.iter().all(|&(s, _)| (s as usize) < self.n_slots));
        self.rows.push_back(data);
    }

    /// Number of second-rows currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends an empty row at the back (one second later).
    pub fn push_back(&mut self) {
        self.rows.push_back(self.free.pop().unwrap_or_default());
    }

    /// Prepends an empty row at the front (one second earlier).
    pub fn push_front(&mut self) {
        self.rows.push_front(self.free.pop().unwrap_or_default());
        if self.owner != NO_OWNER {
            self.owner += 1;
        }
    }

    /// Drops the oldest row and recycles it; clearing one is `O(1)`
    /// (truncate the packed pairs — the shared table only ever indexes the
    /// row being written).
    pub fn pop_front(&mut self) {
        if let Some(mut data) = self.rows.pop_front() {
            data.clear();
            self.free.push(data);
            self.owner = match self.owner {
                0 | NO_OWNER => NO_OWNER,
                o => o - 1,
            };
        }
    }

    /// Mutable access to row `idx`, for amortizing the row lookup across a
    /// run of same-second records. Re-targets the shared write table when
    /// `idx` is not the row it already indexes — free for a freshly opened
    /// (empty) second, `O(touched)` for an out-of-order write into an
    /// older row.
    #[inline]
    pub fn row_mut(&mut self, idx: usize) -> RowWriter<'_> {
        if self.owner != idx {
            self.pos.rebuild(&self.rows[idx]);
            self.owner = idx;
        }
        RowWriter { pos: &mut self.pos, data: &mut self.rows[idx] }
    }

    /// Folds one record into `(idx, slot)`, returning the cell's
    /// execution count before this record.
    #[inline]
    pub fn add(&mut self, idx: usize, slot: u32, rt_ms: f64, rows: f64) -> f64 {
        self.row_mut(idx).add(slot, rt_ms, rows)
    }

    /// The cell at `(idx, slot)`, `None` when no record ever touched it.
    /// Answers through the shared table when `idx` owns it and by scanning
    /// the row's touched pairs otherwise (reads never steal the table from
    /// the write path).
    pub fn get(&self, idx: usize, slot: u32) -> Option<Cell> {
        if self.owner == idx {
            self.pos.lookup(slot).map(|i| self.rows[idx][i].1)
        } else {
            self.rows[idx].iter().find(|&&(s, _)| s == slot).map(|&(_, c)| c)
        }
    }

    /// Number of touched cells in row `idx`.
    pub fn row_len(&self, idx: usize) -> usize {
        self.rows[idx].len()
    }

    /// Visits every *touched* cell of row `idx`, in first-touch order.
    pub fn for_each(&self, idx: usize, mut f: impl FnMut(u32, Cell)) {
        for &(slot, cell) in &self.rows[idx] {
            f(slot, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_timeseries::FxHashMap;
    use pinsql_workload::rng::{rng_from_seed, RngExt};

    /// The representation [`CellStore`] replaced — one hash map per second
    /// — with the same row-index interface. Test-only: the op-sequence
    /// sweep below holds the packed rows and their shared write table to
    /// what this obviously-correct version answers.
    #[derive(Default)]
    struct HashedRows(VecDeque<FxHashMap<u32, Cell>>);

    impl HashedRows {
        fn add(&mut self, idx: usize, slot: u32, rt_ms: f64, rows: f64) -> f64 {
            let cell = self.0[idx].entry(slot).or_insert((0.0, 0.0, 0.0));
            let prev = cell.0;
            cell.0 += 1.0;
            cell.1 += rt_ms;
            cell.2 += rows;
            prev
        }

        fn sorted_row(&self, idx: usize) -> Vec<(u32, Cell)> {
            let mut row: Vec<(u32, Cell)> = self.0[idx].iter().map(|(&s, &c)| (s, c)).collect();
            row.sort_by_key(|&(slot, _)| slot);
            row
        }
    }

    fn bits(c: Cell) -> [u64; 3] {
        [c.0.to_bits(), c.1.to_bits(), c.2.to_bits()]
    }

    /// Seeded op sequences — rows pushed at either end, popped, restored
    /// verbatim, and written in any order, so the shared table is
    /// re-targeted, shifted by front pushes and orphaned by pops — answer
    /// exactly as the map-per-second oracle: every `add`'s return value,
    /// every `get`, and every row's slot-sorted `for_each` set, bit for
    /// bit. 256 sequences; a failure names seed and step.
    #[test]
    fn op_sequences_match_the_hashed_oracle() {
        const N_SLOTS: usize = 12;
        for seed in 0..256u64 {
            let mut rng = rng_from_seed(seed);
            let mut store = CellStore::new(N_SLOTS);
            let mut oracle = HashedRows::default();
            // Half the sequences write mostly at the frontier (the
            // in-order stream), half anywhere (out-of-order arrivals).
            let frontier_bias = seed % 2 == 0;
            for step in 0..rng.random_range(1..400usize) {
                let ctx = format!("seed {seed}, step {step}");
                let len = store.len();
                assert_eq!(len, oracle.0.len(), "{ctx}: len");
                match rng.random_range(0..16u32) {
                    0 => {
                        store.push_back();
                        oracle.0.push_back(FxHashMap::default());
                    }
                    1 => {
                        store.push_front();
                        oracle.0.push_front(FxHashMap::default());
                    }
                    2 => {
                        store.pop_front();
                        oracle.0.pop_front();
                    }
                    3 => {
                        // The restore path: distinct slots, arbitrary cell
                        // bits, installed verbatim in the given order.
                        let mut slots: Vec<u32> = (0..N_SLOTS as u32).collect();
                        for i in (1..slots.len()).rev() {
                            slots.swap(i, rng.random_range(0..=i));
                        }
                        slots.truncate(rng.random_range(0..=N_SLOTS));
                        let row: Vec<(u32, Cell)> = slots
                            .into_iter()
                            .map(|s| {
                                let c = (
                                    rng.random_range(1..9u32) as f64,
                                    rng.random_range(-5.0..500.0),
                                    rng.random_range(0..1000u32) as f64,
                                );
                                (s, c)
                            })
                            .collect();
                        store.push_back_row(row.iter().copied());
                        oracle.0.push_back(row.into_iter().collect());
                    }
                    4 | 5 if len > 0 => {
                        let idx = rng.random_range(0..len);
                        let slot = rng.random_range(0..N_SLOTS as u32);
                        assert_eq!(
                            store.get(idx, slot).map(bits),
                            oracle.0[idx].get(&slot).copied().map(bits),
                            "{ctx}: get({idx}, {slot})"
                        );
                    }
                    6 if len > 0 => {
                        let idx = rng.random_range(0..len);
                        let mut row: Vec<(u32, Cell)> = Vec::new();
                        store.for_each(idx, |slot, cell| row.push((slot, cell)));
                        row.sort_by_key(|&(slot, _)| slot);
                        let want = oracle.sorted_row(idx);
                        assert_eq!(row.len(), want.len(), "{ctx}: for_each({idx}) size");
                        for (got, want) in row.iter().zip(&want) {
                            assert_eq!(
                                (got.0, bits(got.1)),
                                (want.0, bits(want.1)),
                                "{ctx}: for_each({idx})"
                            );
                        }
                    }
                    _ if len > 0 => {
                        let idx = if frontier_bias && rng.random_range(0..8u32) != 0 {
                            len - 1
                        } else {
                            rng.random_range(0..len)
                        };
                        let slot = rng.random_range(0..N_SLOTS as u32);
                        let rt = match rng.random_range(0..10u32) {
                            0 => -0.0,
                            _ => rng.random_range(0.1..500.0),
                        };
                        let rows = rng.random_range(0..100u32) as f64;
                        assert_eq!(
                            store.add(idx, slot, rt, rows).to_bits(),
                            oracle.add(idx, slot, rt, rows).to_bits(),
                            "{ctx}: add({idx}, {slot}) previous count"
                        );
                    }
                    _ => {}
                }
            }
            // Whatever the sequence ended on, every resident row agrees.
            for idx in 0..store.len() {
                for slot in 0..N_SLOTS as u32 {
                    assert_eq!(
                        store.get(idx, slot).map(bits),
                        oracle.0[idx].get(&slot).copied().map(bits),
                        "seed {seed}: final get({idx}, {slot})"
                    );
                }
            }
        }
    }

    #[test]
    fn run_accumulation_through_row_mut() {
        let mut store = CellStore::new(4);
        store.push_back();
        let mut row = store.row_mut(0);
        for i in 0..5u32 {
            row.add(i % 2, 1.0, 2.0);
        }
        assert_eq!(store.get(0, 0), Some((3.0, 3.0, 6.0)));
        assert_eq!(store.get(0, 1), Some((2.0, 2.0, 4.0)));
        assert_eq!(store.get(0, 2), None, "untouched cell reads as absent");
    }

    #[test]
    fn add_returns_the_previous_execution_count() {
        let mut store = CellStore::new(4);
        store.push_back();
        assert_eq!(store.add(0, 2, 1.0, 0.0), 0.0, "fresh cell");
        assert_eq!(store.add(0, 2, 1.0, 0.0), 1.0);
        assert_eq!(store.add(0, 2, 1.0, 0.0), 2.0);
        assert_eq!(store.add(0, 1, 1.0, 0.0), 0.0, "other slot is independent");
    }

    #[test]
    fn ring_operations() {
        let mut store = CellStore::new(4);
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

    #[test]
    fn interleaved_writes_re_target_the_shared_table() {
        // Alternating writes between two rows force the write table to
        // re-index on every switch; accumulation must stay per-row exact,
        // including re-touching a slot first touched before a switch.
        let mut store = CellStore::new(8);
        store.push_back();
        store.push_back();
        for (idx, slot) in [(0, 3u32), (1, 3), (0, 3), (1, 5), (0, 5), (1, 3)] {
            store.add(idx, slot, 1.0, 1.0);
        }
        assert_eq!(store.get(0, 3), Some((2.0, 2.0, 2.0)));
        assert_eq!(store.get(0, 5), Some((1.0, 1.0, 1.0)));
        assert_eq!(store.get(1, 3), Some((2.0, 2.0, 2.0)));
        assert_eq!(store.get(1, 5), Some((1.0, 1.0, 1.0)));
    }

    #[test]
    fn recycled_rows_read_as_empty() {
        let mut store = CellStore::new(4);
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
        let mut store = CellStore::new(8);
        store.push_back();
        for slot in [5u32, 1, 7, 1, 5, 0] {
            store.add(0, slot, 1.0, 0.0);
        }
        let mut order: Vec<u32> = Vec::new();
        store.for_each(0, |slot, _| order.push(slot));
        assert_eq!(order, vec![5, 1, 7, 0]);
    }

    #[test]
    fn front_pushes_and_pops_keep_the_owner_aligned() {
        let mut store = CellStore::new(4);
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
        let mut store = CellStore::new(4);
        store.push_back();
        store.add(0, 1, -0.0, -0.0);
        let (_, rt, rows) = store.get(0, 1).expect("touched");
        assert_eq!(rt.to_bits(), 0.0f64.to_bits());
        assert_eq!(rows.to_bits(), 0.0f64.to_bits());
    }
}
