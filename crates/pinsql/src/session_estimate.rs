//! Individual active-session estimation from query logs (§IV-C).
//!
//! A query `q` is active during `[t(q), t(q) + t_res(q))`. For a window
//! `p`, the probability that the `SHOW STATUS` snapshot observes `q` as
//! active is `P(observed(p, q)) = |p ∩ [t(q), t(q)+t_res(q))| / |p|`, and
//! the expected active session over `p` is the sum of those probabilities.
//!
//! The monitoring probe reports one number per second but takes it at an
//! *unknown instant* `t3 ∈ [t, t+1)`. The paper's trick: split the second
//! into `K` buckets, compute the expected session per bucket, and declare
//! the probe to have run in the bucket whose expectation is closest to the
//! reported value. Each template's individual session for that second is
//! then its expected activity *within the selected bucket*.
//!
//! # Sweep order
//!
//! Both passes walk `case.records` once, front to back, slice by slice of
//! its shared chunks (`RecordView::slices`). A query covers its
//! interior seconds entirely (one `+1/−1` pair in a difference array, so a
//! minutes-long blocked query costs nothing per covered second) and at
//! most two *edge* seconds partially. Every bucket's bounds come from one
//! `[second][bucket]` table built per case, with the per-template
//! formulation's expression: `lo = ts_ms + t·1000 + b·bucket_ms`,
//! `hi = lo + bucket_ms`.
//!
//! * Pass 1 classifies each record once. Its clipped start and end, in
//!   seconds from the window start (`s_sec`, `e_sec`), are compared with a
//!   *seated* second `t`:
//!   - `t < s_sec < t + 1` and `e_sec < t + 1` is the *fast arm*: the
//!     query lies inside second `t`, which is its one edge second;
//!   - a start outside the seated second reseats it at `floor(s_sec)`
//!     (one cast; an unsorted ring only reseats more often), and the test
//!     is made again;
//!   - every other record — several seconds long, starting on a second
//!     bound, straddling the window — takes the *general arm*: the casts
//!     give its edge seconds and its fully covered range. Corrupt and
//!     out-of-window records are skipped.
//!
//!   Both arms add a query's share to exactly the buckets it overlaps,
//!   `s < hi && e > lo`, in an edge table laid out `[second][bucket]`. The
//!   fast arm finds the first of them from a cursor that follows the
//!   records through the second, so the usual single bucket costs a
//!   comparison or two, not a walk.
//! * Bucket selection per second, as above.
//! * Pass 2 replays pass 1's classification, so no record is clipped
//!   twice. It attributes each record to its template by a lookup on its
//!   spec ([`CaseData::template_of`]) and adds it to that template's
//!   difference row and to its output row at the one bucket selected for
//!   the edge second — and only when the record overlaps that bucket, about
//!   one fast-arm record in `K`. The other `K − 1` buckets are never needed
//!   again. Scratch is `O(templates · n)`, not `O(templates · K · n)`, and
//!   a case's records (tens of MB) are streamed rather than gathered
//!   template by template.
//!
//! # Why the result does not depend on the sweep
//!
//! Every output cell is an f64 sum, so it is fixed by *which* terms are
//! added *in which order*. A template's cells receive its own records'
//! terms only — the records whose spec maps to it — and the sweep visits
//! them in record order, which is the order a per-template gather of
//! those records visits. Two facts make the set of nonzero terms the
//! same:
//!
//! * *The fast arm is the general arm, exactly.* `t` and `t + 1` are exact
//!   integers. `t < s_sec < t + 1` gives `floor(s_sec) = t` and
//!   `ceil(s_sec) = t + 1`. Rounded subtraction and division are monotone,
//!   so `e > s` gives `e_sec ≥ s_sec > t`, and with `e_sec < t + 1`
//!   `ceil(e_sec) = t + 1` and `floor(e_sec) = t`. So the clip gives first
//!   and last second `t` and an empty fully covered range: the record's
//!   only terms are the buckets of second `t`, as the fast arm adds them.
//! * *`s < hi && e > lo` selects exactly the nonzero terms.* A share is
//!   `(min(e, hi) − max(s, lo)).max(0) / bucket_ms`. `e > s` always, and
//!   `hi > lo` since a bucket is many ulps of its bounds wide; so when
//!   `s < hi` and `e > lo` the minuend exceeds the subtrahend, and for
//!   floats `a > b` implies `fl(a − b) > 0`. Any other bucket's difference
//!   is `≤ 0` and clamps to a zero. `lo` and `hi` are nondecreasing in
//!   `b`, so the overlapped buckets are one contiguous run.
//!
//! A left-out term is a zero, and no cell is ever `-0.0` (cells start at
//! `+0.0` and `x + y = -0.0` needs both operands `-0.0`), so leaving it
//! out changes nothing. The previous per-template formulation is kept under
//! `#[cfg(test)]` as the oracle the sweep is compared with bit for bit.
//!
//! Both passes are serial; `parallelism` does not reach this module.
//! Splitting pass 2 by template range makes every worker scan all records,
//! and at two workers that measured no better than this sweep (DESIGN.md,
//! "Report path").
//!
//! # Complexity
//!
//! `O(records)` comparisons. Casts are made once per reseat and for
//! general-arm records only (90–99.9 % of a benchmark case's records take
//! the fast arm). Pass 1 adds one term per overlapped bucket, which is one
//! or two for a fast-arm record, and steps its cursor; a general-arm record
//! scans at most the `K` buckets of each of its edge seconds. Pass 2 is
//! `O(1)` per record.

use crate::config::{EstimatorKind, PinSqlConfig};
use pinsql_collector::CaseData;
use pinsql_dbsim::QueryRecord;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod sweep_tests;

/// The estimator's output, aligned with `case.templates`.
#[derive(Debug, Clone)]
pub struct SessionEstimates {
    /// Window start (s).
    pub start: i64,
    /// Per-template estimated individual active session, one value per
    /// second of the window.
    pub per_template: Vec<Vec<f64>>,
    /// Selected bucket index per second (all zeros for `ByRt`/`NoBuckets`).
    pub selected_bucket: Vec<usize>,
    /// Estimated *instance* active session (sum over templates) — the
    /// quantity Table III compares against the probe ground truth.
    pub instance_estimate: Vec<f64>,
}

impl SessionEstimates {
    /// The estimated session series of template index `i`.
    pub fn of(&self, i: usize) -> &[f64] {
        &self.per_template[i]
    }
}

/// Estimates individual active sessions for every template of the case.
pub fn estimate_sessions(case: &CaseData, cfg: &PinSqlConfig) -> SessionEstimates {
    let kind =
        if cfg.ablation.no_estimate_session { EstimatorKind::ByRt } else { cfg.estimator };
    match kind {
        EstimatorKind::ByRt => estimate_by_rt(case),
        EstimatorKind::NoBuckets => estimate_with_buckets(case, 1),
        EstimatorKind::Buckets => estimate_with_buckets(case, cfg.buckets_k.max(1)),
    }
}

/// `Estimate by RT`: per-second total response time (in seconds) as the
/// session proxy — the baseline the paper shows to correlate poorly.
fn estimate_by_rt(case: &CaseData) -> SessionEstimates {
    let n = case.n_seconds();
    let per_template: Vec<Vec<f64>> = case
        .templates
        .iter()
        .map(|t| t.series.total_rt_ms.iter().map(|&ms| ms / 1000.0).collect())
        .collect();
    let instance_estimate = sum_columns(&per_template, n);
    SessionEstimates {
        start: case.ts,
        per_template,
        selected_bucket: vec![0; n],
        instance_estimate,
    }
}

/// Bucketed estimation (`K = 1` reproduces the w/o-buckets variant: the
/// whole second is one bucket, so `P` is the query's expected activity over
/// the full second). See the module docs for the sweep and for why the
/// output is bit-identical to the per-template formulation.
fn estimate_with_buckets(case: &CaseData, k: usize) -> SessionEstimates {
    let n = case.n_seconds();
    let grid = Grid::new(case.ts, n, k);

    // Pass 1: expected instance session per (second, bucket). `full[t]`
    // counts queries covering second t entirely (same for every bucket);
    // `edges[t * k + b]` accumulates partial-coverage probabilities.
    let mut full_diff = vec![0.0f64; n + 1];
    let mut edges = vec![0.0f64; n * k];
    let mut plan = Plan { arms: Vec::with_capacity(case.records.len()), general: Vec::new() };
    let mut seat = Seat::default();
    for slice in case.records.slices() {
        for rec in slice {
            match grid.classify(rec, &mut seat) {
                Arm::Skip => plan.arms.push(Plan::SKIP),
                Arm::Fast { t, s, e } => {
                    let row = &mut edges[t * k..][..k];
                    seat.cursor = grid.add_overlapping(row, t, s, e, seat.cursor);
                    plan.arms.push(t as u32);
                }
                Arm::General(q) => {
                    q.add_full(&mut full_diff);
                    q.for_each_edge_second(n, |t| {
                        grid.add_overlapping(&mut edges[t * k..][..k], t, q.s, q.e, 0);
                    });
                    plan.arms.push(Plan::GENERAL);
                    plan.general.push(q);
                }
            }
        }
    }
    let full = prefix_sum(&full_diff, n);

    // Select the bucket whose expectation best matches the probe value.
    let probe = case.instance_session();
    let mut selected_bucket = vec![0usize; n];
    if k > 1 {
        for t in 0..n {
            let target = probe.get(t).copied().unwrap_or(0.0);
            if !target.is_finite() {
                // A corrupted probe value cannot localize the instant;
                // keep bucket 0 rather than comparing against NaN.
                continue;
            }
            let mut best = 0usize;
            let mut best_err = f64::INFINITY;
            for (b, edge) in edges[t * k..][..k].iter().enumerate() {
                let err = (target - (full[t] + edge)).abs();
                if err < best_err {
                    best_err = err;
                    best = b;
                }
            }
            selected_bucket[t] = best;
        }
    }

    // Pass 2: per-template sessions evaluated at the selected buckets.
    let per_template = sweep_templates(case, &grid, &plan, &selected_bucket);

    // The instance expectation at the selected buckets (bucket 0 for K = 1).
    let instance_estimate = (0..n).map(|t| full[t] + edges[t * k + selected_bucket[t]]).collect();

    SessionEstimates { start: case.ts, per_template, selected_bucket, instance_estimate }
}

/// Pass 2: one sweep over all records, replaying pass 1's [`Plan`], each
/// record added to the rows of the template [`CaseData::template_of`]
/// attributes it to. Returns `per_template`.
fn sweep_templates(
    case: &CaseData,
    grid: &Grid,
    plan: &Plan,
    selected_bucket: &[usize],
) -> Vec<Vec<f64>> {
    let n = grid.n;
    let mut full_diff = vec![0.0f64; case.templates.len() * (n + 1)];
    // Edge sums accumulate straight into the output rows.
    let mut rows = vec![vec![0.0f64; n]; case.templates.len()];
    let mut general = plan.general.iter();
    // Only the selected bucket's term, and only when it is nonzero.
    let add_selected = |row: &mut [f64], t: usize, s: f64, e: f64| {
        let bucket = grid.bounds_of(t)[selected_bucket[t]];
        if bucket.overlaps(s, e) {
            row[t] += grid.share(s, e, bucket);
        }
    };
    let mut arms = plan.arms.iter();
    for slice in case.records.slices() {
        for (rec, &arm) in slice.iter().zip(&mut arms) {
            if arm == Plan::SKIP {
                continue;
            }
            // Taken whether or not a template owns the record, so the
            // clipped intervals stay in step with the records.
            let clipped = (arm == Plan::GENERAL)
                .then(|| general.next().expect("one clipped interval per general-arm record"));
            // `NO_TEMPLATE` lies beyond every row.
            let pos = case.template_of(rec.spec) as usize;
            let Some(row) = rows.get_mut(pos) else { continue };
            if let Some(q) = clipped {
                q.add_full(&mut full_diff[pos * (n + 1)..][..n + 1]);
                q.for_each_edge_second(n, |t| add_selected(row, t, q.s, q.e));
            } else {
                let (s, e) = grid.clamp(rec);
                add_selected(row, arm as usize, s, e);
            }
        }
    }
    for (row, diff) in rows.iter_mut().zip(full_diff.chunks_exact(n + 1)) {
        let mut full = 0.0;
        for (v, &d) in row.iter_mut().zip(diff) {
            full += d;
            *v += full;
        }
    }
    rows
}

/// The window's second × bucket grid.
struct Grid {
    ts_ms: f64,
    end_ms: f64,
    n: usize,
    k: usize,
    bucket_ms: f64,
    /// Every bucket's bounds, `[second][bucket]`: the one place they are
    /// computed.
    bounds: Vec<Bucket>,
}

/// One bucket's bounds `[lo, hi)`, as the per-template formulation
/// computes them: `hi` is `lo + bucket_ms`, which need not equal the next
/// bucket's `lo`.
#[derive(Clone, Copy)]
struct Bucket {
    lo: f64,
    hi: f64,
}

impl Bucket {
    /// True exactly when a record's share of this bucket is nonzero (module
    /// docs, "Why the result does not depend on the sweep").
    #[inline]
    fn overlaps(self, s: f64, e: f64) -> bool {
        s < self.hi && e > self.lo
    }
}

/// Which arm of the sweep a record takes.
enum Arm {
    /// Nothing of the record lies in the window, or it is corrupt.
    Skip,
    /// Within the one second `t`, starting after its first instant.
    Fast { t: usize, s: f64, e: f64 },
    /// Anything else, clipped.
    General(Clipped),
}

/// Pass 1's classification of every record, replayed by pass 2 so that no
/// record is clipped twice.
struct Plan {
    /// Per record: its second when it took the fast arm, else
    /// [`Plan::GENERAL`] or [`Plan::SKIP`].
    arms: Vec<u32>,
    /// The general-arm records' clipped intervals, in record order.
    general: Vec<Clipped>,
}

impl Plan {
    const SKIP: u32 = u32::MAX;
    const GENERAL: u32 = u32::MAX - 1;
}

/// The second the fast arm is seated on, and pass 1's bucket cursor in it.
/// The default seat holds no second, so the first record reseats it.
#[derive(Default)]
struct Seat {
    t: usize,
    /// `t` and `t + 1`, in seconds from the window start.
    lo: f64,
    hi: f64,
    /// A bucket index near the last fast-arm record's first overlapped
    /// bucket, where [`Grid::add_overlapping`] starts its search.
    cursor: usize,
}

/// One query's active interval `[s, e)` clipped to the window, with the
/// seconds it touches.
struct Clipped {
    s: f64,
    e: f64,
    /// First and last second touched (inclusive).
    sec_first: usize,
    sec_last: usize,
    /// Fully covered seconds: `[full_lo, full_hi)`.
    full_lo: usize,
    full_hi: usize,
}

impl Grid {
    fn new(ts: i64, n: usize, k: usize) -> Grid {
        assert!(n < Plan::GENERAL as usize, "a window of {n} s");
        let ts_ms = ts as f64 * 1000.0;
        let bucket_ms = 1000.0 / k as f64;
        let bounds = (0..n)
            .flat_map(|t| {
                (0..k).map(move |b| {
                    let lo = ts_ms + t as f64 * 1000.0 + b as f64 * bucket_ms;
                    Bucket { lo, hi: lo + bucket_ms }
                })
            })
            .collect();
        Grid { ts_ms, end_ms: ts_ms + n as f64 * 1000.0, n, k, bucket_ms, bounds }
    }

    /// The `K` buckets of second `t`.
    #[inline]
    fn bounds_of(&self, t: usize) -> &[Bucket] {
        &self.bounds[t * self.k..][..self.k]
    }

    /// A record's active interval clamped to the window.
    #[inline]
    fn clamp(&self, rec: &QueryRecord) -> (f64, f64) {
        (rec.start_ms.max(self.ts_ms), rec.end_ms().min(self.end_ms))
    }

    /// Classifies a record by comparing its clipped start and end, in
    /// seconds from the window start, with the seated second, reseating it
    /// (one cast) when the start lies outside. Only the general arm casts
    /// the rest of what it needs.
    #[allow(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
    )]
    #[inline]
    fn classify(&self, rec: &QueryRecord, seat: &mut Seat) -> Arm {
        let s = rec.start_ms;
        let e = rec.end_ms();
        // `!(e > s)` also rejects NaN endpoints from corrupted records, which
        // would otherwise poison the difference arrays via `floor() as usize`.
        if !(e > s) || !s.is_finite() || !e.is_finite() {
            return Arm::Skip;
        }
        let (s, e) = self.clamp(rec);
        if e <= s {
            return Arm::Skip;
        }
        let (s_sec, e_sec) = ((s - self.ts_ms) / 1000.0, (e - self.ts_ms) / 1000.0);
        if s_sec <= seat.lo || s_sec >= seat.hi {
            let t = floor_index(s_sec);
            if t < self.n {
                seat.t = t;
                seat.lo = t as f64;
                seat.hi = seat.lo + 1.0;
            }
        }
        if seat.lo < s_sec && s_sec < seat.hi && e_sec < seat.hi {
            return Arm::Fast { t: seat.t, s, e };
        }
        Arm::General(Clipped {
            s,
            e,
            sec_first: floor_index(s_sec),
            // e is exclusive, so back off one second from its ceiling.
            sec_last: ceil_index(e_sec).saturating_sub(1).min(self.n - 1),
            full_lo: ceil_index(s_sec),
            full_hi: floor_index(e_sec),
        })
    }

    /// `P(observed)` of `[s, e)` within `bucket`.
    #[inline]
    fn share(&self, s: f64, e: f64, bucket: Bucket) -> f64 {
        overlap(s, e, bucket.lo, bucket.hi) / self.bucket_ms
    }

    /// Adds `[s, e)`'s share to exactly the buckets of second `t` that it
    /// overlaps (`row` is the second's `K` cells), and returns the first of
    /// them. Both bounds are nondecreasing in the bucket index, so these
    /// buckets are one run: it starts at the first bucket ending after `s`,
    /// found by stepping from bucket `from` either way, and ends before the
    /// first bucket starting at or after `e`.
    #[inline]
    fn add_overlapping(&self, row: &mut [f64], t: usize, s: f64, e: f64, from: usize) -> usize {
        let buckets = self.bounds_of(t);
        let mut first = from;
        while first < self.k && buckets[first].hi <= s {
            first += 1;
        }
        while first > 0 && buckets[first - 1].hi > s {
            first -= 1;
        }
        for (cell, &bucket) in row[first..].iter_mut().zip(&buckets[first..]) {
            if bucket.lo >= e {
                break;
            }
            *cell += self.share(s, e, bucket);
        }
        first
    }
}

impl Clipped {
    /// Counts the fully covered seconds in a difference array.
    #[inline]
    fn add_full(&self, full_diff: &mut [f64]) {
        if self.full_lo < self.full_hi {
            full_diff[self.full_lo] += 1.0;
            full_diff[self.full_hi] -= 1.0;
        }
    }

    /// Calls `f` for each partially covered second: at most the first and
    /// the last second touched, minus those the difference array covers.
    #[inline]
    fn for_each_edge_second(&self, n: usize, mut f: impl FnMut(usize)) {
        let mut edge = |t: usize| {
            if t < n && !(self.full_lo..self.full_hi).contains(&t) {
                f(t);
            }
        };
        edge(self.sec_first);
        if self.sec_last != self.sec_first {
            edge(self.sec_last);
        }
    }
}

/// `x.floor() as usize`: the cast truncates toward zero and saturates, so
/// it agrees with the floor wherever that is representable — without the
/// function call `floor` compiles to on a baseline x86-64 build (no
/// `roundsd` before SSE4.1), several per general-arm record.
#[inline]
fn floor_index(x: f64) -> usize {
    x as usize
}

/// `x.ceil() as usize`, likewise.
#[inline]
fn ceil_index(x: f64) -> usize {
    let floor = x as usize;
    floor.saturating_add(usize::from((floor as f64) < x))
}

#[inline]
fn overlap(s: f64, e: f64, lo: f64, hi: f64) -> f64 {
    (e.min(hi) - s.max(lo)).max(0.0)
}

fn prefix_sum(diff: &[f64], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &d in diff.iter().take(n) {
        acc += d;
        out.push(acc);
    }
    out
}

fn sum_columns(rows: &[Vec<f64>], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for row in rows {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::{ProbeLog, ProbeSample};
    use pinsql_dbsim::InstanceMetrics;
    use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

    fn specs2() -> Vec<TemplateSpec> {
        let c = CostProfile::point_read(TableId(0));
        vec![
            TemplateSpec::new("SELECT * FROM a WHERE x = 1", c.clone(), "a"),
            TemplateSpec::new("SELECT * FROM b WHERE x = 1", c, "b"),
        ]
    }

    /// `n` structurally distinct templates.
    pub(super) fn specs_n(n: usize) -> Vec<TemplateSpec> {
        let c = CostProfile::point_read(TableId(0));
        (0..n)
            .map(|i| TemplateSpec::new(&format!("SELECT * FROM t{i} WHERE x = 1"), c.clone(), "t"))
            .collect()
    }

    fn metrics_with_probes(n: usize, probes: Vec<(i64, u32, f64)>) -> InstanceMetrics {
        InstanceMetrics {
            start_second: 0,
            active_session: {
                let mut v = vec![0.0; n];
                for &(s, val, _) in &probes {
                    v[s as usize] = val as f64;
                }
                v
            },
            cpu_usage: vec![0.0; n],
            iops_usage: vec![0.0; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog {
                samples: probes
                    .into_iter()
                    .map(|(second, active_sessions, true_instant_ms)| ProbeSample {
                        second,
                        active_sessions,
                        true_instant_ms,
                    })
                    .collect(),
            },
        }
    }

    fn rec(spec: usize, start: f64, rt: f64) -> pinsql_dbsim::QueryRecord {
        pinsql_dbsim::QueryRecord {
            spec: SpecId(spec),
            start_ms: start,
            response_ms: rt,
            examined_rows: 1,
        }
    }

    fn cfg(kind: EstimatorKind, k: usize) -> PinSqlConfig {
        PinSqlConfig::default().with_estimator(kind).with_buckets(k)
    }

    #[test]
    fn by_rt_is_total_response_time_in_seconds() {
        let log = vec![rec(0, 100.0, 500.0), rec(0, 200.0, 500.0), rec(1, 1100.0, 250.0)];
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(3, vec![]), 0, 3);
        let est = estimate_sessions(&case, &cfg(EstimatorKind::ByRt, 10));
        // Templates sorted by SqlId; find which row is template "a".
        let a_idx = case
            .template_index(case.catalog.id_of_spec(SpecId(0)))
            .unwrap();
        assert!((est.per_template[a_idx][0] - 1.0).abs() < 1e-12);
        assert!((est.instance_estimate[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn no_buckets_matches_expected_activity() {
        // Query active [500, 1500): expected activity 0.5 in second 0 and
        // 0.5 in second 1.
        let log = vec![rec(0, 500.0, 1000.0)];
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(3, vec![]), 0, 3);
        let est = estimate_sessions(&case, &cfg(EstimatorKind::NoBuckets, 10));
        let a_idx = case.template_index(case.catalog.id_of_spec(SpecId(0))).unwrap();
        assert!((est.per_template[a_idx][0] - 0.5).abs() < 1e-9);
        assert!((est.per_template[a_idx][1] - 0.5).abs() < 1e-9);
        assert!((est.per_template[a_idx][2]).abs() < 1e-9);
    }

    #[test]
    fn long_query_counts_one_per_fully_covered_second() {
        let log = vec![rec(0, 0.0, 5000.0)];
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(6, vec![]), 0, 6);
        let est = estimate_sessions(&case, &cfg(EstimatorKind::NoBuckets, 1));
        let a_idx = case.template_index(case.catalog.id_of_spec(SpecId(0))).unwrap();
        for t in 0..5 {
            assert!((est.per_template[a_idx][t] - 1.0).abs() < 1e-9, "t={t}");
        }
        assert!(est.per_template[a_idx][5].abs() < 1e-9);
    }

    #[test]
    fn bucket_selection_recovers_probe_instant() {
        // Second 0: query active [0, 350). A probe at t3 = 0.32 s sees 1
        // active session; a probe later sees 0. With K = 10 the estimator
        // must pick a bucket consistent with the reported value.
        let log = vec![rec(0, 0.0, 350.0)];
        // Probe reported 1 at second 0 → buckets 0..3 fully covered (est 1)
        // are the best match.
        let case =
            aggregate_case(&log, &specs2(), &metrics_with_probes(1, vec![(0, 1, 320.0)]), 0, 1);
        let est = estimate_sessions(&case, &cfg(EstimatorKind::Buckets, 10));
        assert!(est.selected_bucket[0] < 4, "bucket {}", est.selected_bucket[0]);
        let a_idx = case.template_index(case.catalog.id_of_spec(SpecId(0))).unwrap();
        assert!((est.per_template[a_idx][0] - 1.0).abs() < 1e-9);

        // Same data but the probe reported 0 → a late bucket must win.
        let case0 =
            aggregate_case(&log, &specs2(), &metrics_with_probes(1, vec![(0, 0, 900.0)]), 0, 1);
        let est0 = estimate_sessions(&case0, &cfg(EstimatorKind::Buckets, 10));
        assert!(est0.selected_bucket[0] >= 4, "bucket {}", est0.selected_bucket[0]);
        assert!(est0.per_template[a_idx][0] < 0.6);
    }

    #[test]
    fn instance_estimate_is_sum_of_templates() {
        let log = vec![
            rec(0, 100.0, 700.0),
            rec(1, 300.0, 1400.0),
            rec(0, 1200.0, 100.0),
            rec(1, 1900.0, 2300.0),
        ];
        let case = aggregate_case(
            &log,
            &specs2(),
            &metrics_with_probes(5, vec![(0, 2, 500.0), (1, 1, 1500.0)]),
            0,
            5,
        );
        for kind in [EstimatorKind::ByRt, EstimatorKind::NoBuckets, EstimatorKind::Buckets] {
            let est = estimate_sessions(&case, &cfg(kind, 10));
            for t in 0..5 {
                let sum: f64 = est.per_template.iter().map(|row| row[t]).sum();
                assert!(
                    (sum - est.instance_estimate[t]).abs() < 1e-9,
                    "{kind:?} t={t}: {sum} vs {}",
                    est.instance_estimate[t]
                );
            }
        }
    }

    #[test]
    fn ablation_forces_rt_estimator() {
        let log = vec![rec(0, 0.0, 2000.0)];
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(2, vec![]), 0, 2);
        let mut cfg = cfg(EstimatorKind::Buckets, 10);
        cfg.ablation.no_estimate_session = true;
        let est = estimate_sessions(&case, &cfg);
        let a_idx = case.template_index(case.catalog.id_of_spec(SpecId(0))).unwrap();
        // RT estimator attributes the whole 2 s to the arrival second.
        assert!((est.per_template[a_idx][0] - 2.0).abs() < 1e-9);
        assert!(est.per_template[a_idx][1].abs() < 1e-9);
    }

    #[test]
    fn parallel_estimation_is_bit_identical() {
        let mut log = Vec::new();
        for t in 0..20 {
            for j in 0..6 {
                log.push(rec((t + j) % 2, t as f64 * 1000.0 + j as f64 * 157.0, 730.0));
            }
        }
        let case = aggregate_case(
            &log,
            &specs2(),
            &metrics_with_probes(20, vec![(3, 2, 400.0), (11, 4, 800.0)]),
            0,
            20,
        );
        for kind in [EstimatorKind::NoBuckets, EstimatorKind::Buckets] {
            let serial = estimate_sessions(&case, &cfg(kind, 10).with_parallelism(1));
            for p in [0usize, 2, 4, 16] {
                let par = estimate_sessions(&case, &cfg(kind, 10).with_parallelism(p));
                assert_eq!(serial.selected_bucket, par.selected_bucket, "{kind:?} p={p}");
                for (a, b) in serial.per_template.iter().zip(&par.per_template) {
                    let bits =
                        |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{kind:?} p={p}");
                }
            }
        }
    }

    #[test]
    fn index_casts_agree_with_floor_and_ceil() {
        let mut xs = vec![0.0, -0.0, 0.5, 1.0, 1.0 - f64::EPSILON, 1.0 + f64::EPSILON, 299.999];
        xs.extend([-0.5, -1.0, -7.25, 1e15, 4.5e15, 1e19, 1e300, -1e300, f64::MIN_POSITIVE]);
        xs.extend((0..2000).map(|i| i as f64 * 0.37 - 20.0));
        for x in xs {
            assert_eq!(floor_index(x), x.floor() as usize, "floor {x}");
            assert_eq!(ceil_index(x), x.ceil() as usize, "ceil {x}");
        }
    }

    #[test]
    fn empty_case_is_fine() {
        let case = aggregate_case(&[], &specs2(), &metrics_with_probes(3, vec![]), 0, 3);
        let est = estimate_sessions(&case, &cfg(EstimatorKind::Buckets, 10));
        assert!(est.per_template.is_empty());
        assert_eq!(est.instance_estimate, vec![0.0; 3]);
    }

    #[test]
    fn non_finite_probe_values_fall_back_to_bucket_zero() {
        // Regression: a NaN in the active-session series used to make every
        // bucket comparison false, which silently kept bucket 0 — but only
        // after `(target - est).abs()` produced NaN; make the fallback
        // explicit and assert the estimate stays finite.
        let log = vec![rec(0, 0.0, 350.0), rec(1, 1200.0, 600.0)];
        let mut metrics = metrics_with_probes(3, vec![(0, 1, 320.0)]);
        metrics.active_session[1] = f64::NAN;
        // Bypass aggregate_case's sanitization to hit the estimator directly.
        let mut case = aggregate_case(&log, &specs2(), &metrics, 0, 3);
        case.metrics.active_session[1] = f64::NAN;
        let est = estimate_sessions(&case, &cfg(EstimatorKind::Buckets, 10));
        assert_eq!(est.selected_bucket[1], 0);
        for row in &est.per_template {
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert!(est.instance_estimate.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_records_do_not_poison_estimates() {
        // Regression: a record with a NaN start or response used to flow
        // into `floor() as usize` index arithmetic. It must simply be
        // ignored by the accumulator.
        let log = vec![rec(0, 500.0, 1000.0)];
        // The probe saw the query, so a bucket it covers ([500, 1000) of
        // second 0) is selected and the template's estimate there is 1.
        let probes = vec![(0, 1, 700.0)];
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(3, probes), 0, 3);
        // Inject corrupt records of template "a" under the aggregated
        // case's nose.
        let mut case = case;
        let mut records: Vec<_> = case.records.iter().copied().collect();
        records.push(rec(0, f64::NAN, 100.0));
        records.push(rec(0, 2500.0, f64::INFINITY));
        case.records = records.into();
        let est = estimate_sessions(&case, &cfg(EstimatorKind::Buckets, 10));
        let a_idx = case.template_index(case.catalog.id_of_spec(SpecId(0))).unwrap();
        assert!((est.per_template[a_idx][0] - 1.0).abs() < 1e-9);
        assert!(est.per_template[a_idx].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bucketed_beats_rt_on_probe_correlation() {
        // Synthetic stream with queries of varying lengths: correlation of
        // the estimate with the true per-second activity must be higher for
        // the bucketed estimator than for the RT proxy. True activity is
        // computed from the records at mid-second instants.
        use pinsql_timeseries::pearson;
        use pinsql_workload::rng::{rng_from_seed, RngExt};
        let mut log = Vec::new();
        let mut t = 0.0;
        let mut rng = rng_from_seed(0);
        while t < 60_000.0 {
            let rt = 20.0 + rng.random_range(0..3000u32) as f64;
            let spec = rng.random_range(0..2usize);
            log.push(rec(spec, t, rt));
            t += 35.0 + rng.random_range(0..150u32) as f64;
        }
        let n = 60;
        // Ground truth via mid-second probes.
        let probes: Vec<(i64, u32, f64)> = (0..n)
            .map(|s| {
                let instant = s as f64 * 1000.0 + 500.0;
                let active = log.iter().filter(|r| r.active_at(instant)).count() as u32;
                (s as i64, active, instant)
            })
            .collect();
        let truth: Vec<f64> = probes.iter().map(|&(_, a, _)| a as f64).collect();
        let case = aggregate_case(&log, &specs2(), &metrics_with_probes(n, probes), 0, n as i64);
        let est_rt = estimate_sessions(&case, &cfg(EstimatorKind::ByRt, 10));
        let est_bk = estimate_sessions(&case, &cfg(EstimatorKind::Buckets, 10));
        let corr_rt = pearson(&est_rt.instance_estimate, &truth);
        let corr_bk = pearson(&est_bk.instance_estimate, &truth);
        assert!(
            corr_bk > corr_rt,
            "bucketed ({corr_bk:.3}) should beat RT ({corr_rt:.3})"
        );
        assert!(corr_bk > 0.9, "bucketed should track truth closely: {corr_bk:.3}");
    }
}
