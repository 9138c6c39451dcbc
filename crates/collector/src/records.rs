//! The resident raw-record ring, and the window views cut from it.
//!
//! The §IV-C session estimator needs the individual records of a
//! collection window, so they are retained in arrival order for the same
//! horizon as the cells. Invariant: `sorted` is true only while the ring
//! is non-decreasing in `start_ms` — the time-ordered-stream common case —
//! which lets a window be located by binary search instead of a scan of
//! the whole retention horizon. One record is 32 bytes, on the wire and
//! here.
//!
//! The records live in fixed chunks of [`CHUNK`], each allocated once at
//! its full size, and the second invariant is that every chunk but the
//! back one — the open chunk pushes write into — is full. So ring position
//! `p` sits at `head + p` counted from the first chunk's first slot, in
//! chunk `(head + p) / CHUNK`, and a push never moves a record: when the
//! open chunk is full it is sealed behind the full ones and the next one
//! opens. The one growing `VecDeque` this replaced (doubling, copying the
//! whole ring at each step, both buffers live at once) is this module's
//! `#[cfg(test)]` oracle.
//!
//! A sealed chunk is never written again, so it is shared: the full chunks
//! are `Arc`s, and a window cut on a sorted ring ([`RecordRing::view`])
//! hands a case the `Arc`s of the chunks that cover the window, trimmed to
//! `[lo, hi)` at the two ends, as a [`RecordView`]. Only the open chunk's
//! in-window tail, at most [`CHUNK`] records, is copied. An unsorted ring
//! has no window boundaries to share along, so its cut copies the window's
//! records into chunks the view owns. Eviction advances `head` and, once a
//! chunk drains, recycles it through the free list only when no view holds
//! it (`Arc::try_unwrap`): a steady state that evicts as fast as it pushes
//! cycles through the same few chunks without touching the allocator,
//! while a chunk a case still reads lives on with the case and is freed
//! when the last view of it drops.

use pinsql_dbsim::wire::{query_record_bytes, query_record_from_bytes, QUERY_RECORD_BYTES};
use pinsql_dbsim::QueryRecord;
use pinsql_timeseries::wire::{f64_at, u64_at};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Records per chunk: 4096 × 32 B = 128 KiB. A constant, not an option —
/// large enough that the per-chunk bookkeeping vanishes per record, small
/// enough that the one partly filled chunk is little next to the ring.
const CHUNK: usize = 4096;

#[derive(Debug)]
pub(crate) struct RecordRing {
    /// Full chunks, oldest first: `CHUNK` records each, sealed, shared
    /// with the views that cover them.
    full: VecDeque<Arc<Vec<QueryRecord>>>,
    /// The chunk pushes write into, after the full ones: capacity `CHUNK`,
    /// up to `CHUNK` records, empty only while the whole ring is.
    open: Vec<QueryRecord>,
    /// Records of the first chunk (the front full one, else `open`)
    /// already evicted: below its length, 0 while the ring is empty.
    head: usize,
    /// Drained chunks no view holds, cleared, awaiting reuse.
    free: Vec<Vec<QueryRecord>>,
    sorted: bool,
}

impl Clone for RecordRing {
    /// The full chunks are shared with the copy; the open chunk keeps its
    /// full capacity (a derived clone would size it to its length, and the
    /// next push would grow it); the free list stays behind.
    fn clone(&self) -> Self {
        let mut open = Vec::with_capacity(CHUNK);
        open.extend_from_slice(&self.open);
        Self { head: self.head, ..Self::from_chunks(self.full.clone(), open, self.sorted) }
    }
}

impl RecordRing {
    pub fn new() -> Self {
        Self::from_chunks(VecDeque::new(), Vec::with_capacity(CHUNK), true)
    }

    fn from_chunks(
        full: VecDeque<Arc<Vec<QueryRecord>>>,
        open: Vec<QueryRecord>,
        sorted: bool,
    ) -> Self {
        Self { full, open, head: 0, free: Vec::new(), sorted }
    }

    pub fn len(&self) -> usize {
        self.end() - self.head
    }

    /// One past the last record, counted from the first chunk's first slot.
    fn end(&self) -> usize {
        self.full.len() * CHUNK + self.open.len()
    }

    #[inline]
    pub fn push(&mut self, rec: QueryRecord) {
        if self.open.last().is_some_and(|b| rec.start_ms < b.start_ms) {
            self.sorted = false;
        }
        if self.open.len() == CHUNK {
            self.seal();
        }
        self.open.push(rec);
    }

    /// Seals the full open chunk behind the others and opens the next one.
    #[cold]
    #[inline(never)]
    fn seal(&mut self) {
        let next = self.free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
        self.full.push_back(Arc::new(std::mem::replace(&mut self.open, next)));
    }

    /// Drops the records at the front that arrived before `horizon`
    /// (seconds), returning how many went.
    pub fn evict(&mut self, horizon: i64) -> u64 {
        let horizon_ms = horizon as f64 * 1000.0;
        let mut evicted = 0;
        loop {
            let live = &self.full.front().map_or(&self.open, |c| &**c)[self.head..];
            if let Some(kept) = live.iter().position(|r| r.start_ms >= horizon_ms) {
                self.head += kept;
                evicted += kept;
                break;
            }
            evicted += live.len();
            self.head = 0;
            match self.full.pop_front() {
                Some(drained) => {
                    // A chunk a view still holds goes with the view.
                    if let Ok(mut drained) = Arc::try_unwrap(drained) {
                        drained.clear();
                        self.free.push(drained);
                    }
                }
                None => {
                    self.open.clear();
                    // An emptied ring is trivially sorted again; late
                    // disorder stops poisoning the binary-search fast path
                    // forever.
                    self.sorted = true;
                    break;
                }
            }
        }
        evicted as u64
    }

    /// The records at positions `lo..hi`, counted like [`end`](Self::end),
    /// one slice per chunk they touch.
    fn slices_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = &[QueryRecord]> + '_ {
        let (first, hi) = (lo / CHUNK, hi.max(lo));
        let chunks = self.full.iter().map(|c| &**c).chain([&self.open]).skip(first);
        chunks.enumerate().map_while(move |(i, chunk)| {
            let base = (first + i) * CHUNK;
            (base < hi).then(|| &chunk[lo.saturating_sub(base)..(hi - base).min(chunk.len())])
        })
    }

    /// Where `pred` stops holding, counted like [`end`](Self::end), on a
    /// ring partitioned by it: one binary search over the full chunks' last
    /// records, one inside the chunk that holds the boundary.
    fn partition_point(&self, pred: impl Fn(&QueryRecord) -> bool) -> usize {
        let c = self.full.partition_point(|chunk| chunk.last().is_some_and(&pred));
        let from = if c == 0 { self.head } else { 0 };
        c * CHUNK
            + from
            + self.full.get(c).map_or(&self.open, |c| &**c)[from..].partition_point(pred)
    }

    /// The records arriving in `[ts_ms, te_ms)` in arrival order — on a
    /// time-ordered stream, the batch path's filter-then-stable-sort
    /// order. A sorted ring shares the chunks that cover the window and
    /// copies only the open chunk's part of it; an unsorted one copies the
    /// window's records into chunks of the view's own.
    pub fn view(&self, ts_ms: f64, te_ms: f64) -> RecordView {
        let mut view = RecordView::default();
        if !self.sorted {
            let mut chunk = Vec::with_capacity(CHUNK);
            for slice in self.slices_in(self.head, self.end()) {
                for rec in slice.iter().filter(|r| r.start_ms >= ts_ms && r.start_ms < te_ms) {
                    chunk.push(*rec);
                    if chunk.len() == CHUNK {
                        view.push_owned(std::mem::replace(&mut chunk, Vec::with_capacity(CHUNK)));
                    }
                }
            }
            view.push_owned(chunk);
            return view;
        }
        let lo = self.partition_point(|r| r.start_ms < ts_ms);
        let hi = self.partition_point(|r| r.start_ms < te_ms).max(lo);
        for (c, chunk) in self.full.iter().enumerate().skip(lo / CHUNK) {
            let base = c * CHUNK;
            if base >= hi {
                break;
            }
            view.push(Arc::clone(chunk), lo.saturating_sub(base), (hi - base).min(CHUNK));
        }
        let base = self.full.len() * CHUNK;
        if hi > base {
            view.push_owned(self.open[lo.saturating_sub(base)..hi - base].to_vec());
        }
        view
    }

    /// Bytes [`write`](Self::write) writes.
    pub fn wire_len(&self) -> usize {
        1 + 8 + QUERY_RECORD_BYTES * self.len()
    }

    /// `PSNP`: the sorted flag, then the records as fixed-width rows.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_bool(self.sorted);
        w.put_len(self.len());
        for slice in self.slices_in(self.head, self.end()) {
            for rec in slice {
                w.put_array(query_record_bytes(rec));
            }
        }
    }

    /// Reads [`write`](Self::write)'s stretch straight into full chunks,
    /// checking each record for what [`push`](Self::push) behind the fold
    /// guarantees — a typed mismatch otherwise: a spec inside `0..n_specs`
    /// (it indexes the catalog's slot table), finite times (the fold drops
    /// the rest), and, under the sorted flag, non-decreasing `start_ms` (a
    /// window cut binary-searches on the flag's word). The checks read the
    /// row's fields in place and the refusal is built out of line: checking
    /// a parsed record instead made this loop 2.7× slower (the record went
    /// through the stack).
    pub fn read(r: &mut WireReader, n_specs: usize) -> Result<Self, WireError> {
        let sorted = r.get_bool()?;
        let mut left = r.get_len(QUERY_RECORD_BYTES)?;
        let mut full = VecDeque::with_capacity(left.saturating_sub(1) / CHUNK);
        let mut prev_ms = f64::NEG_INFINITY;
        loop {
            let mut chunk = Vec::with_capacity(CHUNK);
            for _ in 0..left.min(CHUNK) {
                let row = r.get_array()?;
                let (spec, start_ms) = (u64_at(row, 0), f64_at(row, 8));
                if spec >= n_specs as u64
                    || !start_ms.is_finite()
                    || !f64_at(row, 16).is_finite()
                    || (sorted && start_ms < prev_ms)
                {
                    return Err(refusal(row, prev_ms, n_specs));
                }
                prev_ms = start_ms;
                chunk.push(query_record_from_bytes(row));
            }
            left -= chunk.len();
            if left == 0 {
                return Ok(Self::from_chunks(full, chunk, sorted));
            }
            full.push_back(Arc::new(chunk));
        }
    }
}

/// The typed mismatch for a restored row [`RecordRing::read`] refuses.
#[cold]
#[inline(never)]
fn refusal(row: &[u8; QUERY_RECORD_BYTES], prev_ms: f64, n_specs: usize) -> WireError {
    let rec = query_record_from_bytes(row);
    let (what, detail) = if rec.spec.0 >= n_specs {
        ("record spec", format!("spec index {} out of range ({n_specs})", rec.spec.0))
    } else if !(rec.start_ms.is_finite() && rec.response_ms.is_finite()) {
        let (start, response) = (rec.start_ms, rec.response_ms);
        (
            "record time",
            format!("start {start} ms, response {response} ms: the fold keeps finite times only"),
        )
    } else {
        let start = rec.start_ms;
        ("record order", format!("start {start} ms after {prev_ms} ms in a ring flagged sorted"))
    };
    WireError::Mismatch { what, detail }
}

/// A window's records in arrival order, held as ranges of shared chunks:
/// what a case carries (`CaseData::records`). Cloning one clones `Arc`s,
/// not records; two views are equal when their records are, however they
/// are chunked.
#[derive(Clone, Default)]
pub struct RecordView {
    /// Non-empty ranges `chunk[start..end]`, in record order.
    parts: Vec<Part>,
    len: usize,
}

#[derive(Clone)]
struct Part {
    chunk: Arc<Vec<QueryRecord>>,
    start: usize,
    end: usize,
}

impl RecordView {
    /// Appends `chunk[start..end]`; an empty range adds nothing.
    fn push(&mut self, chunk: Arc<Vec<QueryRecord>>, start: usize, end: usize) {
        if start < end {
            self.len += end - start;
            self.parts.push(Part { chunk, start, end });
        }
    }

    fn push_owned(&mut self, records: Vec<QueryRecord>) {
        let end = records.len();
        self.push(Arc::new(records), 0, end);
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records as contiguous slices, in order: what a sweep walks.
    pub fn slices(&self) -> impl Iterator<Item = &[QueryRecord]> + '_ {
        self.parts.iter().map(|p| &p.chunk[p.start..p.end])
    }

    pub fn iter(&self) -> impl Iterator<Item = &QueryRecord> + '_ {
        self.slices().flatten()
    }
}

impl From<Vec<QueryRecord>> for RecordView {
    /// The records as one chunk of their own.
    fn from(records: Vec<QueryRecord>) -> Self {
        let mut view = Self::default();
        view.push_owned(records);
        view
    }
}

impl Index<usize> for RecordView {
    type Output = QueryRecord;

    /// Record `i`, found by walking the chunks: for the odd lookup; a
    /// sweep walks [`slices`](RecordView::slices).
    fn index(&self, i: usize) -> &QueryRecord {
        let mut rest = i;
        for slice in self.slices() {
            match slice.get(rest) {
                Some(rec) => return rec,
                None => rest -= slice.len(),
            }
        }
        panic!("record {i} of a {}-record view", self.len)
    }
}

impl PartialEq for RecordView {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RecordView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_testkit::sweep;
    use pinsql_workload::rng::{RngExt, StdRng};
    use pinsql_workload::SpecId;

    /// The representation the chunks replaced — one `VecDeque` — with the
    /// same interface. Test-only: the sweep below holds the chunked ring
    /// to what this obviously-correct version answers.
    #[derive(Debug)]
    struct DequeRing {
        ring: VecDeque<QueryRecord>,
        sorted: bool,
    }

    impl DequeRing {
        fn new() -> Self {
            Self { ring: VecDeque::new(), sorted: true }
        }

        fn push(&mut self, rec: QueryRecord) {
            if self.ring.back().is_some_and(|b| rec.start_ms < b.start_ms) {
                self.sorted = false;
            }
            self.ring.push_back(rec);
        }

        fn evict(&mut self, horizon: i64) -> u64 {
            let horizon_ms = horizon as f64 * 1000.0;
            let mut evicted = 0;
            while self.ring.front().is_some_and(|r| r.start_ms < horizon_ms) {
                self.ring.pop_front();
                evicted += 1;
            }
            if self.ring.is_empty() {
                self.sorted = true;
            }
            evicted
        }

        fn for_each_in(&self, ts_ms: f64, te_ms: f64, mut f: impl FnMut(&QueryRecord)) {
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

        fn write(&self, w: &mut WireWriter) {
            w.put_bool(self.sorted);
            w.put_len(self.ring.len());
            for rec in &self.ring {
                w.put_array(query_record_bytes(rec));
            }
        }

        fn read(r: &mut WireReader) -> Result<Self, WireError> {
            let sorted = r.get_bool()?;
            let n = r.get_len(QUERY_RECORD_BYTES)?;
            let mut ring = VecDeque::with_capacity(n);
            for _ in 0..n {
                ring.push_back(query_record_from_bytes(r.get_array()?));
            }
            Ok(Self { ring, sorted })
        }
    }

    const N_SPECS: usize = 5;

    fn rec(start_ms: f64, tag: u64) -> QueryRecord {
        QueryRecord {
            spec: SpecId(tag as usize % N_SPECS),
            start_ms,
            response_ms: (tag % 97) as f64 * 0.5,
            examined_rows: tag,
        }
    }

    fn bytes_of(write: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        write(&mut w);
        w.into_bytes()
    }

    fn window_of(visit: impl FnOnce(&mut dyn FnMut(&QueryRecord))) -> Vec<[u8; 32]> {
        let mut out = Vec::new();
        visit(&mut |r: &QueryRecord| out.push(query_record_bytes(r)));
        out
    }

    fn bytes_of_view(view: &RecordView) -> Vec<[u8; 32]> {
        view.iter().map(query_record_bytes).collect()
    }

    /// A view the sweep holds across later ops, with the oracle's copy of
    /// the window from when it was taken.
    struct Held {
        view: RecordView,
        want: Vec<[u8; 32]>,
        /// Some chunk of the view has since been evicted from the ring.
        outlived: bool,
    }

    fn assert_held(held: &Held, ctx: &str) {
        assert_eq!(held.view.len(), held.want.len(), "{ctx}: held view length");
        assert!(bytes_of_view(&held.view) == held.want, "{ctx}: a held view changed");
    }

    /// The two invariants the position arithmetic rests on, and that no
    /// chunk was ever allocated short of its full size.
    fn assert_chunk_shape(ring: &RecordRing, ctx: &str) {
        for (i, c) in ring.full.iter().enumerate() {
            assert_eq!(c.len(), CHUNK, "{ctx}: full chunk {i} holds {}", c.len());
        }
        let open = &ring.open;
        assert!(open.capacity() >= CHUNK, "{ctx}: open chunk capacity {}", open.capacity());
        assert!(open.len() <= CHUNK, "{ctx}: open chunk holds {}", open.len());
        match ring.full.front().map(|c| &**c).or((!open.is_empty()).then_some(open)) {
            Some(first) => assert!(ring.head < first.len(), "{ctx}: head {} drained", ring.head),
            None => assert_eq!(ring.head, 0, "{ctx}: empty ring with head {}", ring.head),
        }
        assert!(!open.is_empty() || ring.full.is_empty(), "{ctx}: full chunks, empty open one");
    }

    /// How often the sweep met each chunk-edge shape, so it can show it
    /// reached all of them.
    #[derive(Debug, Default)]
    struct Tally {
        back_filled_exactly: u64,
        front_drained_exactly: u64,
        emptied_and_refilled: u64,
        windows_across_an_edge: u64,
        windows_empty: u64,
        windows_unsorted: u64,
        round_trips_then_pushes: u64,
        views_outliving_their_chunks: u64,
        held_chunks_kept_off_the_free_list: u64,
    }

    /// A position `p` on the ring close to a chunk edge: an edge, or one
    /// to either side of it, clamped to `0..=len`.
    fn near_an_edge(rng: &mut StdRng, ring: &RecordRing) -> usize {
        let first_edge = CHUNK - ring.head;
        let edges = ring.len() / CHUNK + 1;
        let edge = first_edge + rng.random_range(0..edges) * CHUNK;
        (edge + rng.random_range(0..3usize)).saturating_sub(1).min(ring.len())
    }

    fn run_seed(seed: u64, rng: &mut StdRng, tally: &mut Tally) {
        let mut ring = RecordRing::new();
        let mut oracle = DequeRing::new();
        // One seed in four sends stragglers, which turn the ring unsorted
        // until it empties.
        let disorder = seed % 4 == 3;
        let mut clock_ms = rng.random_range(0..5_000u32) as f64;
        let mut tag = 0u64;
        let mut was_emptied = false;
        let mut restored = false;
        let mut held: Vec<Held> = Vec::new();

        for op in 0..96 {
            let ctx = format!("op {op}");
            let len = ring.len();
            let kind = match rng.random_range(0..16u32) {
                // Grow while small, shrink while large.
                _ if len < CHUNK / 2 && rng.random_range(0..3u32) > 0 => 0,
                _ if len > 5 * CHUNK && rng.random_range(0..2u32) > 0 => 6,
                k => k,
            };
            match kind {
                0..=5 => {
                    let fill = CHUNK.saturating_sub(ring.open.len());
                    let n = match rng.random_range(0..6u32) {
                        0 => rng.random_range(1..8usize),
                        1 => rng.random_range(0..2 * CHUNK),
                        _ => (fill + rng.random_range(0..3usize)).saturating_sub(1),
                    };
                    for _ in 0..n {
                        let gap = match rng.random_range(0..10u32) {
                            0 => 0.0,
                            1 | 2 => rng.random_range(0.0..1000.0),
                            _ => rng.random_range(1000.0..2000.0),
                        };
                        clock_ms += gap;
                        let start_ms = if disorder && rng.random_range(0..64u32) == 0 {
                            clock_ms - rng.random_range(1.0..30_000.0)
                        } else {
                            clock_ms
                        };
                        tag += 1;
                        ring.push(rec(start_ms, tag));
                        oracle.push(rec(start_ms, tag));
                    }
                    if n > 0 && ring.open.len() == CHUNK {
                        tally.back_filled_exactly += 1;
                    }
                    if n > 0 && was_emptied {
                        tally.emptied_and_refilled += 1;
                        was_emptied = false;
                    }
                    if n > 0 && restored {
                        tally.round_trips_then_pushes += 1;
                        restored = false;
                    }
                }
                6..=8 => {
                    // Aim the front at a record: mid-chunk, on a chunk
                    // edge or either side of it, or past the back.
                    let target = match rng.random_range(0..6u32) {
                        0 => rng.random_range(0..=len),
                        1 => len,
                        _ => near_an_edge(rng, &ring),
                    };
                    let horizon = match oracle.ring.get(target) {
                        Some(r) => (r.start_ms / 1000.0).floor() as i64,
                        None => (clock_ms / 1000.0).floor() as i64 + 1,
                    };
                    // Which chunks a view holds besides the ring.
                    let before: Vec<_> = ring
                        .full
                        .iter()
                        .map(|c| (Arc::as_ptr(c), Arc::strong_count(c) > 1))
                        .collect();
                    let free_before = ring.free.len();
                    let evicted = ring.evict(horizon);
                    assert_eq!(evicted, oracle.evict(horizon), "{ctx}: evict({horizon})");
                    let drained = &before[..before.len() - ring.full.len()];
                    let kept = drained.iter().filter(|&&(_, shared)| shared).count();
                    assert_eq!(
                        ring.free.len() - free_before,
                        drained.len() - kept,
                        "{ctx}: a drained chunk is recycled exactly when no view holds it"
                    );
                    tally.held_chunks_kept_off_the_free_list += kept as u64;
                    for h in held.iter_mut().filter(|h| !h.outlived) {
                        let chunks = &h.view.parts;
                        if chunks
                            .iter()
                            .any(|p| drained.iter().any(|d| d.0 == Arc::as_ptr(&p.chunk)))
                        {
                            h.outlived = true;
                            tally.views_outliving_their_chunks += 1;
                            assert_held(h, &ctx);
                        }
                    }
                    if evicted > 0 && ring.head == 0 {
                        match ring.len() {
                            0 => was_emptied = true,
                            _ => tally.front_drained_exactly += 1,
                        }
                    }
                }
                9..=13 => {
                    // A window between two records near chunk edges, moved
                    // off them by half a millisecond at times; some empty.
                    let at = |p: usize, off: f64| {
                        oracle.ring.get(p).map_or(clock_ms + 1.0, |r| r.start_ms) + off
                    };
                    let nudge =
                        |rng: &mut StdRng| [0.0, 0.0, -0.5, 0.5][rng.random_range(0..4usize)];
                    let p_lo = near_an_edge(rng, &ring);
                    let ts_ms = at(p_lo, nudge(rng));
                    let te_ms = match rng.random_range(0..8u32) {
                        0 => ts_ms,
                        1 => ts_ms + 0.25,
                        _ => at(p_lo.max(near_an_edge(rng, &ring)), nudge(rng)),
                    }
                    .max(ts_ms);
                    let view = ring.view(ts_ms, te_ms);
                    let got = bytes_of_view(&view);
                    let want = window_of(|f| oracle.for_each_in(ts_ms, te_ms, f));
                    assert_eq!(got, want, "{ctx}: view({ts_ms}, {te_ms})");
                    assert_eq!(view.len(), got.len(), "{ctx}: view length");
                    // Hold one view in two, a few at a time, released at
                    // random.
                    if rng.random_range(0..2u32) == 0 {
                        if held.len() == 6 {
                            assert_held(&held.swap_remove(rng.random_range(0..6usize)), &ctx);
                        }
                        held.push(Held { view, want: got.clone(), outlived: false });
                    }
                    if got.is_empty() {
                        tally.windows_empty += 1;
                    } else if !ring.sorted {
                        tally.windows_unsorted += 1;
                    } else {
                        let lo = ring.partition_point(|r| r.start_ms < ts_ms);
                        if lo / CHUNK != (lo + got.len() - 1) / CHUNK {
                            tally.windows_across_an_edge += 1;
                        }
                    }
                }
                14 => {
                    let bytes = bytes_of(|w| ring.write(w));
                    assert_eq!(bytes, bytes_of(|w| oracle.write(w)), "{ctx}: write");
                    let mut r = WireReader::new(&bytes);
                    ring = RecordRing::read(&mut r, N_SPECS).expect("a written ring reads back");
                    r.finish("record ring").expect("read to the end");
                    oracle = DequeRing::read(&mut WireReader::new(&bytes)).expect("oracle reads");
                    assert_eq!(bytes_of(|w| ring.write(w)), bytes, "{ctx}: rewrite");
                    restored = true;
                }
                _ => {
                    let copy = ring.clone();
                    assert_chunk_shape(&copy, &format!("{ctx}, clone"));
                    let copied = bytes_of(|w| copy.write(w));
                    assert!(copied == bytes_of(|w| oracle.write(w)), "{ctx}: clone writes");
                }
            }
            assert_eq!(ring.len(), oracle.ring.len(), "{ctx}: len");
            assert_eq!(ring.sorted, oracle.sorted, "{ctx}: sorted flag");
            assert_chunk_shape(&ring, &ctx);
        }
        for h in &held {
            assert_held(h, "end");
        }
        let all = bytes_of_view(&ring.view(f64::MIN, f64::MAX));
        assert_eq!(all, window_of(|f| oracle.for_each_in(f64::MIN, f64::MAX, f)), "end");
        assert_eq!(bytes_of(|w| ring.write(w)), bytes_of(|w| oracle.write(w)), "end: write");
    }

    /// Seeded op sequences — pushes in and out of order, evictions
    /// mid-chunk, onto a chunk edge and to empty, windows across chunk
    /// edges and empty ones, `write` → `read` round trips, clones — answer
    /// exactly as the `VecDeque` ring: every eviction count, window, length,
    /// sorted flag and written byte. Views taken at random are held across
    /// later pushes, evictions and round trips and keep reading as the
    /// oracle's window did when they were taken; a drained chunk a view
    /// holds never joins the free list. 256 sequences; a failure names
    /// seed and step.
    #[test]
    fn chunked_ring_matches_the_deque_oracle() {
        let mut tally = Tally::default();
        sweep(0..256, |seed, rng| run_seed(seed, rng, &mut tally));
        let Tally {
            back_filled_exactly,
            front_drained_exactly,
            emptied_and_refilled,
            windows_across_an_edge,
            windows_empty,
            windows_unsorted,
            round_trips_then_pushes,
            views_outliving_their_chunks,
            held_chunks_kept_off_the_free_list,
        } = tally;
        for (shape, n) in [
            ("back chunks filled exactly", back_filled_exactly),
            ("front chunks drained exactly", front_drained_exactly),
            ("rings emptied and refilled", emptied_and_refilled),
            ("windows across a chunk edge", windows_across_an_edge),
            ("empty windows", windows_empty),
            ("windows over an unsorted ring", windows_unsorted),
            ("round trips followed by pushes", round_trips_then_pushes),
        ] {
            assert!(n >= 20, "the sweep reached only {n} {shape}: {tally:?}");
        }
        for (shape, n) in [
            ("views held across the eviction of their chunks", views_outliving_their_chunks),
            ("held chunks kept off the free list", held_chunks_kept_off_the_free_list),
        ] {
            assert!(n >= 100, "the sweep reached only {n} {shape}: {tally:?}");
        }
    }
}
