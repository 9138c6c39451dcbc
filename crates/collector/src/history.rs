//! Long-horizon per-template execution history (1-minute granularity).
//!
//! History Trend Verification (§VI) compares a candidate R-SQL's execution
//! trend during the anomaly with the same wall-clock window `N_d ∈ {1,3,7}`
//! days earlier. Aggregating into templates shrinks the data enough to keep
//! ~30 days (§IV-A); this store holds per-template 1-minute `#execution`
//! series keyed by absolute minute index.
//!
//! **Runs.** Minutes reach a template in two shapes: the minute feed
//! appends them one after another, and a synthesized look-back writes one
//! short window per look-back day, days apart. One dense span per template
//! would zero-fill the days between those windows: 8 645 slots for the 15
//! minutes of three 5-minute windows. So a template holds disjoint dense
//! *runs*, sorted by start. A minute joins a run when it falls inside it
//! or leaves at most [`JOIN_GAP_MIN`] untouched minutes between itself and
//! the run; otherwise it opens a run of its own. A run that grows to within
//! the join gap of the next one absorbs it. Two neighbouring runs are thus
//! always more than `JOIN_GAP_MIN` untouched minutes apart, and appending
//! to the newest run — the minute feed's only pattern — costs what a dense
//! append does.
//!
//! The runs change how a series is held, not what it says: every minute
//! from the first run's start to the last run's end reads as it would in
//! one dense span, zero where nothing was recorded, and the restart rule
//! ([`RESTART_GAP_MIN`]) measures from that whole span.
//!
//! **Checkpoint layout.** `PSNP` still carries each template as that one
//! dense span (id, first run's start, span length, every minute with the
//! zeros across the gaps), streamed from the runs without a copy. The
//! bytes are the ones a dense store wrote, so the committed golden blob
//! and every checkpoint written before runs existed still read. A restored
//! series comes back as one run.

use pinsql_sqlkit::SqlId;
use pinsql_timeseries::{FxHashMap, WireError, WireReader, WireWriter};

/// A template's history as one dense span of minutes: what
/// [`HistoryStore::insert`] takes.
#[derive(Debug, Clone)]
pub struct HistorySeries {
    pub id: SqlId,
    /// Absolute minute index of the first sample.
    pub start_minute: i64,
    /// Executions per minute.
    pub executions: Vec<f64>,
}

/// The widest gap of untouched minutes a series spans: the ~30 days of
/// §IV-A, four times the longest (7-day) look-back verification uses.
const RESTART_GAP_MIN: i64 = 30 * 24 * 60;

/// The most untouched minutes a record zero-fills to join a run. A run
/// costs its 32-byte header plus an allocation, about what eight minutes
/// of zeros cost.
const JOIN_GAP_MIN: i64 = 8;

/// A length-prefixed run of `f64`s.
pub(crate) fn get_f64s(r: &mut WireReader) -> Result<Vec<f64>, WireError> {
    let n = r.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f64()?);
    }
    Ok(out)
}

/// One dense stretch of a template's minutes.
#[derive(Debug, Clone)]
struct Run {
    start: i64,
    values: Vec<f64>,
}

impl Run {
    /// One past the last minute, widened so that a run holding minute
    /// `i64::MAX` still has an end. All span arithmetic is in `i128`, so
    /// none of it can overflow.
    fn end(&self) -> i128 {
        self.start as i128 + self.values.len() as i128
    }
}

/// One template's history: runs sorted by start, each more than
/// [`JOIN_GAP_MIN`] untouched minutes from the next, none empty — except a
/// lone empty run, which holds where an empty series starts.
#[derive(Debug, Clone)]
struct Series {
    id: SqlId,
    runs: Vec<Run>,
}

impl Series {
    fn start(&self) -> i64 {
        self.runs[0].start
    }

    fn end(&self) -> i128 {
        self.runs[self.runs.len() - 1].end()
    }

    fn record(&mut self, minute: i64, count: f64) {
        let m = minute as i128;
        let (join, restart) = (JOIN_GAP_MIN as i128, RESTART_GAP_MIN as i128);
        if m - self.end() > restart || self.start() as i128 - m > restart {
            self.runs.truncate(1);
            self.runs[0].values.clear();
        }
        if self.runs[0].values.is_empty() {
            self.runs[0].start = minute;
        }
        let newest = self.runs.len() - 1;
        let at = if m >= self.runs[newest].start as i128 && m <= self.runs[newest].end() + join {
            newest
        } else {
            // The first run that ends within the join gap of the minute
            // or after it. A minute before that run's start opens a run of
            // its own, which absorbs the run when it lies within the gap.
            let at = self.runs.partition_point(|r| r.end() + join < m);
            if self.runs.get(at).is_none_or(|r| m < r.start as i128) {
                self.runs.insert(at, Run { start: minute, values: Vec::new() });
            }
            at
        };
        let run = &mut self.runs[at];
        let idx = (m - run.start as i128) as usize;
        if run.values.len() <= idx {
            run.values.resize(idx + 1, 0.0);
            self.absorb_next(at);
        }
        self.runs[at].values[idx] += count;
    }

    /// Merges the run after `at` into it when the gap between them has
    /// shrunk to the join gap.
    fn absorb_next(&mut self, at: usize) {
        let Some(next) = self.runs.get(at + 1) else { return };
        let gap = next.start as i128 - self.runs[at].end();
        if gap > JOIN_GAP_MIN as i128 {
            return;
        }
        let next = self.runs.remove(at + 1);
        let run = &mut self.runs[at];
        run.values.resize(run.values.len() + gap as usize, 0.0);
        run.values.extend_from_slice(&next.values);
    }
}

/// Store of per-template histories.
///
/// Series live in a dense `Vec`; the id map only resolves `SqlId` to a
/// stable entry index. Hot writers (the incremental aggregator's minute
/// fold) resolve each template once via [`entry_index`](Self::entry_index)
/// and then append through [`record_at`](Self::record_at) — a direct
/// vector index instead of a hash probe per (template, minute).
#[derive(Debug, Clone, Default)]
pub struct HistoryStore {
    series: Vec<Series>,
    index: FxHashMap<SqlId, u32>,
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (replacing) a template's history; its executions become
    /// one run, moved in. Every minute of the span must be an `i64`, as
    /// [`read`](Self::read) checks.
    pub fn insert(&mut self, series: HistorySeries) {
        let HistorySeries { id, start_minute, executions } = series;
        let runs = vec![Run { start: start_minute, values: executions }];
        if let Some(&i) = self.index.get(&id) {
            self.series[i as usize].runs = runs;
        } else {
            self.index.insert(id, self.series.len() as u32);
            self.series.push(Series { id, runs });
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
        self.series.push(Series { id, runs: vec![Run { start: 0, values: Vec::new() }] });
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
    /// A minute more than [`RESTART_GAP_MIN`] from the series' whole span
    /// restarts it there: no look-back reaches across such a gap, and
    /// keeping it would let one clock jump stretch the span without bound.
    pub fn record_at(&mut self, entry: u32, minute: i64, count: f64) {
        self.series[entry as usize].record(minute, count);
    }

    /// The execution series over minutes `[from, to)`, zero-filled where no
    /// data exists (including templates never seen at all — a template that
    /// did not exist `N_d` days ago has an all-zero history there, which is
    /// precisely what makes a *new* template verifiable as an R-SQL).
    pub fn window_filled(&self, id: SqlId, from_min: i64, to_min: i64) -> Vec<f64> {
        let n = to_min.saturating_sub(from_min).max(0) as usize;
        let mut out = vec![0.0; n];
        let Some(&i) = self.index.get(&id) else { return out };
        if n == 0 {
            return out;
        }
        let (from, to) = (from_min as i128, to_min as i128);
        let runs = &self.series[i as usize].runs;
        let first = runs.partition_point(|r| r.end() <= from);
        for run in runs[first..].iter().take_while(|r| (r.start as i128) < to) {
            let start = run.start as i128;
            let (lo, hi) = (from.max(start), to.min(run.end()));
            let at = (lo - from) as usize;
            out[at..(hi - from) as usize]
                .copy_from_slice(&run.values[(lo - start) as usize..(hi - start) as usize]);
        }
        out
    }

    /// Number of templates with history.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no template has history.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// `PSNP`: every series in entry-index (creation) order, each as one
    /// dense span — id, start minute, length, then every minute, zeros
    /// across the gaps between runs. Re-[`insert`](Self::insert)ing them
    /// into an empty store in this order reproduces every cached
    /// [`entry_index`](Self::entry_index) value.
    /// Bytes [`write`](Self::write) writes.
    pub(crate) fn wire_len(&self) -> usize {
        let spans = self.series.iter().map(|s| (s.end() - s.start() as i128) as usize);
        8 + spans.map(|minutes| 24 + 8 * minutes).sum::<usize>()
    }

    pub(crate) fn write(&self, w: &mut WireWriter) {
        w.put_len(self.series.len());
        for series in &self.series {
            w.put_u64(series.id.0);
            w.put_i64(series.start());
            w.put_len((series.end() - series.start() as i128) as usize);
            let mut at = series.start() as i128;
            for run in &series.runs {
                for _ in 0..run.start as i128 - at {
                    w.put_f64(0.0);
                }
                for &v in &run.values {
                    w.put_f64(v);
                }
                at = run.end();
            }
        }
    }

    /// Reads [`write`](Self::write)'s stretch. Every minute of a series
    /// must be an `i64`: a span whose last minute lies past `i64::MAX` is
    /// refused (a series may end *at* `i64::MAX`: a saturated history
    /// origin records there).
    pub(crate) fn read(r: &mut WireReader) -> Result<Self, WireError> {
        let n_series = r.get_len(24)?;
        let mut store = Self::new();
        for _ in 0..n_series {
            let id = SqlId(r.get_u64()?);
            let start_minute = r.get_i64()?;
            let executions = get_f64s(r)?;
            let last = start_minute as i128 + executions.len() as i128 - 1;
            if last > i64::MAX as i128 {
                return Err(WireError::Mismatch {
                    what: "history span",
                    detail: format!(
                        "{} minutes from {start_minute} end past i64::MAX",
                        executions.len()
                    ),
                });
            }
            store.insert(HistorySeries { id, start_minute, executions });
        }
        Ok(store)
    }

    /// A template's span as `(first minute, length)`, the pair `PSNP`
    /// writes.
    #[cfg(test)]
    pub(crate) fn span(&self, id: SqlId) -> Option<(i64, usize)> {
        let series = &self.series[*self.index.get(&id)? as usize];
        Some((series.start(), (series.end() - series.start() as i128) as usize))
    }
}

#[cfg(test)]
mod tests;
