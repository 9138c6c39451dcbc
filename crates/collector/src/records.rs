//! The resident raw-record ring.
//!
//! The §IV-C session estimator needs the individual records of a
//! collection window, so they are retained in arrival order for the same
//! horizon as the cells. Invariant: `sorted` is true only while the ring
//! is non-decreasing in `start_ms` — the time-ordered-stream common case —
//! which lets a window be located by binary search instead of a scan of
//! the whole retention horizon. One record is 32 bytes, on the wire and
//! here.

use pinsql_dbsim::wire::{query_record_bytes, query_record_from_bytes, QUERY_RECORD_BYTES};
use pinsql_dbsim::QueryRecord;
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
pub(crate) struct RecordRing {
    ring: VecDeque<QueryRecord>,
    sorted: bool,
}

impl RecordRing {
    pub fn new() -> Self {
        Self { ring: VecDeque::new(), sorted: true }
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Room for a run of `n` records, so the pushes below never grow.
    #[inline]
    pub fn reserve(&mut self, n: usize) {
        self.ring.reserve(n);
    }

    #[inline]
    pub fn push(&mut self, rec: QueryRecord) {
        if self.ring.back().is_some_and(|b| rec.start_ms < b.start_ms) {
            self.sorted = false;
        }
        self.ring.push_back(rec);
    }

    /// Drops the records at the front that arrived before `horizon`
    /// (seconds), returning how many went.
    pub fn evict(&mut self, horizon: i64) -> u64 {
        let horizon_ms = horizon as f64 * 1000.0;
        let mut evicted = 0;
        while self.ring.front().is_some_and(|r| r.start_ms < horizon_ms) {
            self.ring.pop_front();
            evicted += 1;
        }
        if self.ring.is_empty() {
            // An emptied ring is trivially sorted again; late disorder
            // stops poisoning the binary-search fast path forever.
            self.sorted = true;
        }
        evicted
    }

    /// Visits the records arriving in `[ts_ms, te_ms)` in arrival order —
    /// on a time-ordered stream, the batch path's filter-then-stable-sort
    /// order.
    pub fn for_each_in(&self, ts_ms: f64, te_ms: f64, mut f: impl FnMut(&QueryRecord)) {
        if self.sorted {
            let lo = self.ring.partition_point(|r| r.start_ms < ts_ms);
            let hi = self.ring.partition_point(|r| r.start_ms < te_ms);
            self.ring.range(lo..hi).for_each(f);
        } else {
            for rec in self.ring.iter().filter(|r| r.start_ms >= ts_ms && r.start_ms < te_ms) {
                f(rec);
            }
        }
    }

    /// `PSNP`: the sorted flag, then the records as fixed-width rows.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_bool(self.sorted);
        w.put_len(self.ring.len());
        for rec in &self.ring {
            w.put_array(query_record_bytes(rec));
        }
    }

    /// Reads [`write`](Self::write)'s stretch; a record naming a spec
    /// outside `0..n_specs` is a typed mismatch (it would index the
    /// catalog's slot table).
    pub fn read(r: &mut WireReader, n_specs: usize) -> Result<Self, WireError> {
        let sorted = r.get_bool()?;
        let n = r.get_len(QUERY_RECORD_BYTES)?;
        let mut ring = VecDeque::with_capacity(n);
        for _ in 0..n {
            let rec = query_record_from_bytes(r.get_array()?);
            if rec.spec.0 >= n_specs {
                return Err(WireError::Mismatch {
                    what: "record spec",
                    detail: format!("spec index {} out of range ({n_specs})", rec.spec.0),
                });
            }
            ring.push_back(rec);
        }
        Ok(Self { ring, sorted })
    }
}
