//! The queries in flight, indexed by query id.
//!
//! The engine hands out query ids in arrival order, and most queries
//! finish soon after they arrive, so the live ids sit in a band above the
//! oldest one still in flight. [`InFlight`] keeps each entry once, densely,
//! and finds it through one `u32` per id from the oldest live id to the
//! newest: memory O(queries in flight) plus four bytes per id in that
//! band, no hashing, and iteration in arrival order without a sort.

use crate::locks::QueryId;
use std::collections::VecDeque;

/// An index slot whose query has left.
const GONE: u32 = u32::MAX;

/// The in-flight table: a dense entry list and an id-indexed map into it.
#[derive(Debug)]
pub(crate) struct InFlight<T> {
    /// The id `index[0]` stands for: the oldest id not yet removed, or the
    /// next id to come when the table is empty.
    base: QueryId,
    /// Per id from `base` on, its entry's position, or [`GONE`].
    index: VecDeque<u32>,
    /// The entries, each with its id, in no particular order.
    entries: Vec<(QueryId, T)>,
}

impl<T> InFlight<T> {
    pub(crate) fn new() -> Self {
        Self { base: 0, index: VecDeque::new(), entries: Vec::new() }
    }

    /// Adds the entry of `qid`, which must be the id after the newest one
    /// ever inserted.
    ///
    /// # Panics
    /// Panics on an id out of order, or on a 2³² − 1st entry in flight.
    pub(crate) fn insert(&mut self, qid: QueryId, value: T) {
        assert_eq!(qid, self.base + self.index.len() as QueryId, "query ids come in order");
        let pos = u32::try_from(self.entries.len()).ok().filter(|&p| p != GONE);
        self.index.push_back(pos.expect("fewer than 2^32 - 1 queries in flight"));
        self.entries.push((qid, value));
    }

    /// Where `qid`'s entry sits in `index` and in `entries`.
    fn find(&self, qid: QueryId) -> Option<(usize, usize)> {
        let at = usize::try_from(qid.checked_sub(self.base)?).ok()?;
        let pos = *self.index.get(at)?;
        (pos != GONE).then_some((at, pos as usize))
    }

    pub(crate) fn get_mut(&mut self, qid: QueryId) -> Option<&mut T> {
        let (_, pos) = self.find(qid)?;
        Some(&mut self.entries[pos].1)
    }

    /// Takes `qid`'s entry out: the last entry moves into its place, and
    /// the index drops every id below the oldest one left.
    pub(crate) fn remove(&mut self, qid: QueryId) -> Option<T> {
        let (at, pos) = self.find(qid)?;
        self.index[at] = GONE;
        let (_, value) = self.entries.swap_remove(pos);
        if let Some(&(moved, _)) = self.entries.get(pos) {
            self.index[(moved - self.base) as usize] = pos as u32;
        }
        while self.index.front() == Some(&GONE) {
            self.index.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in id order, which is arrival order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.index.iter().filter(|&&pos| pos != GONE).map(|&pos| &self.entries[pos as usize].1)
    }

    /// Entry slots and index slots allocated: what the table holds in
    /// memory, whatever it holds now.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> (usize, usize) {
        (self.entries.capacity(), self.index.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};
    use std::collections::BTreeMap;

    /// Random inserts, lookups and removals against a `BTreeMap` oracle:
    /// the same entries, found by the same ids, listed in the same order.
    #[test]
    fn ops_match_the_ordered_map_oracle() {
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = InFlight::new();
            let mut oracle = BTreeMap::new();
            let mut next: QueryId = 0;
            for step in 0..400u64 {
                let live: Vec<QueryId> = oracle.keys().copied().collect();
                match rng.random_range(0..4u32) {
                    0 | 1 => {
                        table.insert(next, step);
                        oracle.insert(next, step);
                        next += 1;
                    }
                    2 if !live.is_empty() => {
                        let qid = live[rng.random_range(0..live.len())];
                        assert_eq!(table.remove(qid), oracle.remove(&qid), "seed {seed}");
                        assert_eq!(table.remove(qid), None, "seed {seed}: removed twice");
                    }
                    _ => {
                        let qid = rng.random_range(0..next + 2);
                        let got = table.get_mut(qid).map(|v| std::mem::replace(v, step));
                        let want = oracle.get_mut(&qid).map(|v| std::mem::replace(v, step));
                        assert_eq!(got, want, "seed {seed}: lookup of {qid}");
                    }
                }
                assert_eq!(table.len(), oracle.len(), "seed {seed}");
                assert!(table.values().eq(oracle.values()), "seed {seed}: arrival order");
            }
        }
    }
}
