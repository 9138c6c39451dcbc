//! The per-template formulation of the bucketed estimator, kept as the
//! test oracle for [`super::estimate_with_buckets`]: pass 2 gathers each
//! template's records into a `K × n` edge matrix of its own. A record's
//! template is found by its own path — the catalog's id for its spec,
//! looked up among the case's templates — not by the case's owner table.
//! The sweep must reproduce its output bit for bit.

use super::{overlap, prefix_sum, SessionEstimates};
use pinsql_collector::CaseData;
use pinsql_dbsim::QueryRecord;

/// Bucketed estimation (`K = 1` reproduces the w/o-buckets variant: the
/// whole second is one bucket, so `P` is the query's expected activity over
/// the full second).
pub(super) fn estimate_with_buckets(case: &CaseData, k: usize) -> SessionEstimates {
    let n = case.n_seconds();
    let ts_ms = case.ts as f64 * 1000.0;
    let bucket_ms = 1000.0 / k as f64;

    // Pass 1: expected instance session per (bucket, second).
    // `full[t]` counts queries covering second t entirely (same for every
    // bucket); `edges[k][t]` accumulates partial-coverage probabilities.
    let mut full_diff = vec![0.0f64; n + 1];
    let mut edges = vec![vec![0.0f64; n]; k];
    for rec in case.records.iter() {
        accumulate_query(rec, ts_ms, n, bucket_ms, &mut full_diff, &mut edges, None);
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
            for (b, edge) in edges.iter().enumerate() {
                let est = full[t] + edge[t];
                let err = (target - est).abs();
                if err < best_err {
                    best_err = err;
                    best = b;
                }
            }
            selected_bucket[t] = best;
        }
    }

    // Pass 2: per-template sessions evaluated at the selected buckets.
    let mut gathered: Vec<Vec<&QueryRecord>> = vec![Vec::new(); case.templates.len()];
    for rec in case.records.iter() {
        if let Some(pos) = case.template_index(case.catalog.id_of_spec(rec.spec)) {
            gathered[pos].push(rec);
        }
    }
    let per_template: Vec<Vec<f64>> = gathered
        .iter()
        .map(|records| {
            let mut tpl_full_diff = vec![0.0f64; n + 1];
            let mut tpl_edges = vec![vec![0.0f64; n]; k];
            for rec in records {
                accumulate_query(
                    rec,
                    ts_ms,
                    n,
                    bucket_ms,
                    &mut tpl_full_diff,
                    &mut tpl_edges,
                    Some(&selected_bucket),
                );
            }
            let tpl_full = prefix_sum(&tpl_full_diff, n);
            (0..n).map(|t| tpl_full[t] + tpl_edges[selected_bucket[t]][t]).collect()
        })
        .collect();

    let instance_estimate = if k > 1 {
        // Evaluate the instance expectation at the selected buckets.
        (0..n).map(|t| full[t] + edges[selected_bucket[t]][t]).collect()
    } else {
        (0..n).map(|t| full[t] + edges[0][t]).collect()
    };

    SessionEstimates { start: case.ts, per_template, selected_bucket, instance_estimate }
}

/// Adds one query's activity to the difference array (fully covered
/// seconds) and the edge buckets (partially covered seconds).
///
/// When `only_buckets` is provided, edge contributions are computed only
/// for the per-second selected bucket (pass 2); otherwise for all buckets
/// (pass 1).
#[allow(clippy::too_many_arguments)]
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > y)` is deliberate: it is also true when either side is NaN"
)]
fn accumulate_query(
    rec: &QueryRecord,
    ts_ms: f64,
    n: usize,
    bucket_ms: f64,
    full_diff: &mut [f64],
    edges: &mut [Vec<f64>],
    only_buckets: Option<&[usize]>,
) {
    let s = rec.start_ms;
    let e = rec.end_ms();
    // `!(e > s)` also rejects NaN endpoints from corrupted records, which
    // would otherwise poison the difference arrays via `floor() as usize`.
    if !(e > s) || !s.is_finite() || !e.is_finite() {
        return;
    }
    let end_ms = ts_ms + n as f64 * 1000.0;
    let s = s.max(ts_ms);
    let e = e.min(end_ms);
    if e <= s {
        return;
    }
    let sec_first = ((s - ts_ms) / 1000.0).floor() as usize;
    // Last second touched (inclusive); e is exclusive so back off an ulp.
    let sec_last = (((e - ts_ms) / 1000.0).ceil() as usize).saturating_sub(1).min(n - 1);

    // Fully covered seconds: [full_lo, full_hi).
    let full_lo = ((s - ts_ms) / 1000.0).ceil() as usize;
    let full_hi = ((e - ts_ms) / 1000.0).floor() as usize;
    if full_lo < full_hi {
        full_diff[full_lo] += 1.0;
        full_diff[full_hi] -= 1.0;
    }

    // Partially covered edge seconds: at most sec_first and sec_last.
    let mut handle_edge = |t: usize| {
        if t >= n {
            return;
        }
        // Skip if this second is fully covered (handled by the diff array).
        if t >= full_lo && t < full_hi {
            return;
        }
        let base = ts_ms + t as f64 * 1000.0;
        match only_buckets {
            Some(sel) => {
                let b = sel[t];
                let lo = base + b as f64 * bucket_ms;
                let hi = lo + bucket_ms;
                edges[b][t] += overlap(s, e, lo, hi) / bucket_ms;
            }
            None => {
                for (b, edge) in edges.iter_mut().enumerate() {
                    let lo = base + b as f64 * bucket_ms;
                    let hi = lo + bucket_ms;
                    edge[t] += overlap(s, e, lo, hi) / bucket_ms;
                }
            }
        }
    };
    handle_edge(sec_first);
    if sec_last != sec_first {
        handle_edge(sec_last);
    }
}
