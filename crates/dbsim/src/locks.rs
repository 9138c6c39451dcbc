//! Metadata (table) locks and row-slot locks with strict-FIFO queues.
//!
//! Two properties of MySQL locking matter for reproducing the paper's
//! anomaly categories, and both are modelled here:
//!
//! 1. **MDL fairness**: a *waiting* exclusive metadata-lock request (an
//!    `ALTER TABLE` behind long-running reads) blocks every *later* request,
//!    shared or not. That is why one DDL statement can pile up "millions of
//!    affected queries" (§II category 3-i) — the queue drains strictly in
//!    FIFO order.
//! 2. **Row-lock convoys**: writes take exclusive locks on hot row slots;
//!    conflicting statements queue FIFO per slot, so a slow batch write
//!    slows every later statement touching its slots (category 3-ii).

use pinsql_timeseries::FxHashMap;
use std::collections::VecDeque;

/// Query identifier, assigned by the engine.
pub type QueryId = u64;

/// Lock strength for row slots and MDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Shared,
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    shared_holders: u32,
    exclusive_holder: bool,
    /// FIFO wait queue.
    queue: VecDeque<(QueryId, LockKind)>,
}

impl LockState {
    fn compatible(&self, kind: LockKind) -> bool {
        match kind {
            LockKind::Shared => !self.exclusive_holder,
            LockKind::Exclusive => !self.exclusive_holder && self.shared_holders == 0,
        }
    }

    /// Tries to grant immediately (strict FIFO: only when nobody queues).
    fn request(&mut self, q: QueryId, kind: LockKind) -> bool {
        if self.queue.is_empty() && self.compatible(kind) {
            self.hold(kind);
            true
        } else {
            self.queue.push_back((q, kind));
            false
        }
    }

    fn hold(&mut self, kind: LockKind) {
        match kind {
            LockKind::Shared => self.shared_holders += 1,
            LockKind::Exclusive => {
                debug_assert!(!self.exclusive_holder && self.shared_holders == 0);
                self.exclusive_holder = true;
            }
        }
    }

    fn release(&mut self, kind: LockKind, granted: &mut Vec<QueryId>) {
        match kind {
            LockKind::Shared => {
                debug_assert!(self.shared_holders > 0, "releasing un-held shared lock");
                self.shared_holders -= 1;
            }
            LockKind::Exclusive => {
                debug_assert!(self.exclusive_holder, "releasing un-held exclusive lock");
                self.exclusive_holder = false;
            }
        }
        self.drain_queue(granted);
    }

    /// Grants from the queue head while compatible.
    fn drain_queue(&mut self, granted: &mut Vec<QueryId>) {
        while let Some(&(q, kind)) = self.queue.front() {
            if !self.compatible(kind) {
                break;
            }
            self.queue.pop_front();
            self.hold(kind);
            granted.push(q);
            if kind == LockKind::Exclusive {
                break;
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.shared_holders == 0 && !self.exclusive_holder && self.queue.is_empty()
    }

    fn waiters(&self) -> usize {
        self.queue.len()
    }
}

/// The instance-wide lock manager: one MDL per table plus row-slot locks.
#[derive(Debug)]
pub struct LockManager {
    mdl: Vec<LockState>,
    rows: FxHashMap<(u32, u32), LockState>,
    /// Cumulative number of requests that had to wait, split by kind.
    pub mdl_wait_events: u64,
    pub row_wait_events: u64,
}

impl LockManager {
    /// Creates a manager for `n_tables` tables.
    pub fn new(n_tables: usize) -> Self {
        Self {
            mdl: (0..n_tables).map(|_| LockState::default()).collect(),
            rows: FxHashMap::default(),
            mdl_wait_events: 0,
            row_wait_events: 0,
        }
    }

    /// Requests the metadata lock on `table`. Returns `true` when granted
    /// immediately; otherwise the query is queued and will appear in a
    /// later `release_mdl`'s grant list.
    pub fn request_mdl(&mut self, q: QueryId, table: u32, kind: LockKind) -> bool {
        let granted = self.mdl[table as usize].request(q, kind);
        if !granted {
            self.mdl_wait_events += 1;
        }
        granted
    }

    /// Releases the metadata lock on `table`, appending newly granted
    /// queries to `granted`.
    pub fn release_mdl(&mut self, table: u32, kind: LockKind, granted: &mut Vec<QueryId>) {
        self.mdl[table as usize].release(kind, granted);
    }

    /// Requests a row-slot lock. Semantics mirror [`Self::request_mdl`].
    pub fn request_slot(&mut self, q: QueryId, table: u32, slot: u32, kind: LockKind) -> bool {
        let state = self.rows.entry((table, slot)).or_default();
        let granted = state.request(q, kind);
        if !granted {
            self.row_wait_events += 1;
        }
        granted
    }

    /// Releases a row-slot lock, appending newly granted queries.
    pub fn release_slot(
        &mut self,
        table: u32,
        slot: u32,
        kind: LockKind,
        granted: &mut Vec<QueryId>,
    ) {
        let state = self.rows.get_mut(&(table, slot)).expect("releasing unknown slot lock");
        state.release(kind, granted);
        if state.is_idle() {
            self.rows.remove(&(table, slot));
        }
    }

    /// Number of queries currently queued on metadata locks.
    pub fn mdl_waiters(&self) -> usize {
        self.mdl.iter().map(LockState::waiters).sum()
    }

    /// Number of queries currently queued on row locks.
    pub fn row_waiters(&self) -> usize {
        self.rows.values().map(LockState::waiters).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u32 = 0;

    #[test]
    fn shared_mdl_is_concurrent() {
        let mut m = LockManager::new(1);
        assert!(m.request_mdl(1, T, LockKind::Shared));
        assert!(m.request_mdl(2, T, LockKind::Shared));
        assert_eq!(m.mdl_waiters(), 0);
    }

    #[test]
    fn exclusive_mdl_waits_for_readers() {
        let mut m = LockManager::new(1);
        assert!(m.request_mdl(1, T, LockKind::Shared));
        assert!(!m.request_mdl(2, T, LockKind::Exclusive));
        assert_eq!(m.mdl_waiters(), 1);
        let mut granted = Vec::new();
        m.release_mdl(T, LockKind::Shared, &mut granted);
        assert_eq!(granted, vec![2]);
    }

    #[test]
    fn waiting_ddl_blocks_later_readers_fifo() {
        // The category-3(i) pile-up: reader holds MDL, DDL queues, and then
        // *new readers queue behind the DDL* even though they'd be
        // compatible with the current holder.
        let mut m = LockManager::new(1);
        assert!(m.request_mdl(1, T, LockKind::Shared));
        assert!(!m.request_mdl(2, T, LockKind::Exclusive));
        assert!(!m.request_mdl(3, T, LockKind::Shared));
        assert!(!m.request_mdl(4, T, LockKind::Shared));
        assert_eq!(m.mdl_waiters(), 3);

        let mut granted = Vec::new();
        m.release_mdl(T, LockKind::Shared, &mut granted);
        // Only the DDL is granted; readers stay behind it.
        assert_eq!(granted, vec![2]);
        assert_eq!(m.mdl_waiters(), 2);

        granted.clear();
        m.release_mdl(T, LockKind::Exclusive, &mut granted);
        // Both readers drain together once the DDL finishes.
        assert_eq!(granted, vec![3, 4]);
        assert_eq!(m.mdl_waiters(), 0);
    }

    #[test]
    fn row_slot_exclusive_conflicts() {
        let mut m = LockManager::new(1);
        assert!(m.request_slot(1, T, 5, LockKind::Exclusive));
        assert!(!m.request_slot(2, T, 5, LockKind::Exclusive));
        assert!(!m.request_slot(3, T, 5, LockKind::Shared));
        assert!(m.request_slot(4, T, 6, LockKind::Exclusive), "other slots unaffected");
        assert_eq!(m.row_waiters(), 2);
        let mut granted = Vec::new();
        m.release_slot(T, 5, LockKind::Exclusive, &mut granted);
        assert_eq!(granted, vec![2], "FIFO: the writer queued first");
    }

    #[test]
    fn shared_batch_grants_together() {
        let mut m = LockManager::new(1);
        assert!(m.request_slot(1, T, 0, LockKind::Exclusive));
        assert!(!m.request_slot(2, T, 0, LockKind::Shared));
        assert!(!m.request_slot(3, T, 0, LockKind::Shared));
        assert!(!m.request_slot(4, T, 0, LockKind::Exclusive));
        let mut granted = Vec::new();
        m.release_slot(T, 0, LockKind::Exclusive, &mut granted);
        assert_eq!(granted, vec![2, 3], "consecutive shared heads drain together");
        granted.clear();
        m.release_slot(T, 0, LockKind::Shared, &mut granted);
        assert!(granted.is_empty(), "writer still blocked by one shared holder");
        m.release_slot(T, 0, LockKind::Shared, &mut granted);
        assert_eq!(granted, vec![4]);
    }

    #[test]
    fn idle_slot_entries_are_reclaimed() {
        let mut m = LockManager::new(1);
        assert!(m.request_slot(1, T, 9, LockKind::Exclusive));
        let mut granted = Vec::new();
        m.release_slot(T, 9, LockKind::Exclusive, &mut granted);
        assert!(m.rows.is_empty(), "released slot entries must be freed");
    }

    #[test]
    fn wait_event_counters_accumulate() {
        let mut m = LockManager::new(1);
        m.request_mdl(1, T, LockKind::Exclusive);
        m.request_mdl(2, T, LockKind::Shared);
        m.request_slot(3, T, 0, LockKind::Exclusive);
        m.request_slot(4, T, 0, LockKind::Exclusive);
        assert_eq!(m.mdl_wait_events, 1);
        assert_eq!(m.row_wait_events, 1);
    }
}
