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
//! Both passes walk `case.records` once, front to back. A query covers its
//! interior seconds entirely (one `+1/−1` pair in a difference array, so a
//! minutes-long blocked query costs nothing per covered second) and at
//! most two *edge* seconds partially.
//!
//! * Pass 1 sums the instance expectation: one difference array plus an
//!   edge table laid out `[second][bucket]`, so a query's `K` edge cells
//!   are contiguous. Only the buckets the query can reach are visited (the
//!   range is widened by one bucket on each side against rounding); for
//!   every bucket outside it the overlap clamps to exactly `+0.0`.
//! * Bucket selection per second, as above.
//! * Pass 2 attributes each record to its template through
//!   [`CaseData::record_templates`] and adds it to that template's
//!   difference row and to its output row at the one bucket selected for
//!   the edge second — the other `K − 1` buckets are never needed again.
//!   Scratch is `O(templates · n)`, not `O(templates · K · n)`, and a
//!   case's records (tens of MB) are streamed rather than gathered
//!   template by template through `record_idx`.
//!
//! # Why the result does not depend on the sweep
//!
//! Every output cell is an f64 sum, so it is fixed by *which* terms are
//! added *in which order*. A template's cells receive its own records'
//! terms only, and `record_idx` is ascending, so record order restricted
//! to one template is the order a per-template gather visits. A skipped
//! bucket's term is `+0.0`, and no cell is ever `-0.0` (cells start at
//! `+0.0` and `x + y = -0.0` needs both operands `-0.0`), so leaving it
//! out changes nothing. The previous per-template formulation is kept under
//! `#[cfg(test)]` as the oracle the sweep is compared with bit for bit.
//!
//! Both passes are serial; `parallelism` does not reach this module.
//! Splitting pass 2 by template range makes every worker scan all records,
//! and at two workers that measured no better than this sweep (DESIGN.md,
//! "Report path").
//!
//! Complexity: `O(records)` clips plus `O(edge buckets reached)` in pass 1
//! and `O(1)` per record in pass 2.

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
    let grid = Grid { ts_ms: case.ts as f64 * 1000.0, n, k, bucket_ms: 1000.0 / k as f64 };

    // Pass 1: expected instance session per (second, bucket). `full[t]`
    // counts queries covering second t entirely (same for every bucket);
    // `edges[t * k + b]` accumulates partial-coverage probabilities.
    let mut full_diff = vec![0.0f64; n + 1];
    let mut edges = vec![0.0f64; n * k];
    for rec in &case.records {
        let Some(q) = grid.clip(rec) else { continue };
        q.add_full(&mut full_diff);
        q.for_each_edge_second(n, |t| grid.add_reachable_buckets(&q, t, &mut edges[t * k..][..k]));
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
    let per_template = sweep_templates(case, &grid, &selected_bucket);

    // The instance expectation at the selected buckets (bucket 0 for K = 1).
    let instance_estimate = (0..n).map(|t| full[t] + edges[t * k + selected_bucket[t]]).collect();

    SessionEstimates { start: case.ts, per_template, selected_bucket, instance_estimate }
}

/// Pass 2: one sweep over all records, each added to the rows of the
/// template [`CaseData::record_templates`] attributes it to. Returns
/// `per_template`.
fn sweep_templates(case: &CaseData, grid: &Grid, selected_bucket: &[usize]) -> Vec<Vec<f64>> {
    let n = grid.n;
    let mut full_diff = vec![0.0f64; case.templates.len() * (n + 1)];
    // Edge sums accumulate straight into the output rows.
    let mut rows = vec![vec![0.0f64; n]; case.templates.len()];
    for (rec, &pos) in case.records.iter().zip(&case.record_templates()) {
        // `NO_TEMPLATE` lies beyond every row.
        let Some(row) = rows.get_mut(pos as usize) else { continue };
        let Some(q) = grid.clip(rec) else { continue };
        q.add_full(&mut full_diff[pos as usize * (n + 1)..][..n + 1]);
        q.for_each_edge_second(n, |t| row[t] += grid.bucket_share(&q, t, selected_bucket[t]));
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
    n: usize,
    k: usize,
    bucket_ms: f64,
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
    /// Clips a record to the window; `None` when it contributes nothing.
    #[allow(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
    )]
    #[inline]
    fn clip(&self, rec: &QueryRecord) -> Option<Clipped> {
        let (ts_ms, n) = (self.ts_ms, self.n);
        let s = rec.start_ms;
        let e = rec.end_ms();
        // `!(e > s)` also rejects NaN endpoints from corrupted records, which
        // would otherwise poison the difference arrays via `floor() as usize`.
        if !(e > s) || !s.is_finite() || !e.is_finite() {
            return None;
        }
        let end_ms = ts_ms + n as f64 * 1000.0;
        let s = s.max(ts_ms);
        let e = e.min(end_ms);
        if e <= s {
            return None;
        }
        let (s_sec, e_sec) = ((s - ts_ms) / 1000.0, (e - ts_ms) / 1000.0);
        Some(Clipped {
            s,
            e,
            sec_first: floor_index(s_sec),
            // e is exclusive, so back off one second from its ceiling.
            sec_last: ceil_index(e_sec).saturating_sub(1).min(n - 1),
            full_lo: ceil_index(s_sec),
            full_hi: floor_index(e_sec),
        })
    }

    /// `P(observed)` of `q` within bucket `b` of second `t`.
    #[inline]
    fn bucket_share(&self, q: &Clipped, t: usize, b: usize) -> f64 {
        let lo = self.ts_ms + t as f64 * 1000.0 + b as f64 * self.bucket_ms;
        let hi = lo + self.bucket_ms;
        overlap(q.s, q.e, lo, hi) / self.bucket_ms
    }

    /// Adds `q`'s share to every bucket of edge second `t` it can overlap
    /// (`row` is the second's `K` cells).
    ///
    /// The range is the buckets holding `q`'s endpoints within the second,
    /// widened by one each side: a bucket's computed bounds are off its
    /// exact ones by a few ulps of a millisecond timestamp, orders of
    /// magnitude below one bucket width, so a bucket outside the widened
    /// range ends before `q.s` or starts after `q.e` and its share clamps
    /// to `+0.0`.
    #[inline]
    fn add_reachable_buckets(&self, q: &Clipped, t: usize, row: &mut [f64]) {
        let base = self.ts_ms + t as f64 * 1000.0;
        // A negative offset (query began in an earlier second) casts to 0.
        let first = floor_index((q.s - base) / self.bucket_ms).saturating_sub(1);
        let last = ceil_index((q.e - base) / self.bucket_ms).saturating_add(1).min(self.k);
        for (b, cell) in row.iter_mut().enumerate().take(last).skip(first) {
            *cell += self.bucket_share(q, t, b);
        }
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
/// `roundsd` before SSE4.1), several per record.
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
        // Inject corrupt records under the aggregated case's nose.
        let mut case = case;
        case.records.push(rec(0, f64::NAN, 100.0));
        case.records.push(rec(0, 2500.0, f64::INFINITY));
        case.templates[0].record_idx.push(1);
        case.templates[0].record_idx.push(2);
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
        let mut log = Vec::new();
        let mut t = 0.0;
        let mut k = 0u64;
        while t < 60_000.0 {
            // deterministic pseudo-random lengths
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let rt = 20.0 + (k % 3000) as f64;
            let spec = (k % 2) as usize;
            log.push(rec(spec, t, rt));
            t += 35.0 + (k % 150) as f64;
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
