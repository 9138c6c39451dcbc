//! Seeded sweep comparing the record-order estimator with the oracle bit
//! for bit. No property-testing dependency: every case is a pure function
//! of its seed, and a failure names the seed and `K`.

use super::tests::specs_n;
use super::{estimate_with_buckets, oracle, Arm, Grid, Seat, SessionEstimates};
use pinsql_collector::{aggregate_case, CaseData};
use pinsql_dbsim::probe::ProbeLog;
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};
use pinsql_workload::SpecId;

const KS: [usize; 5] = [1, 3, 7, 10, 16];

const SEEDS: u64 = 256;

/// An epoch-scale window start (s): at `1.7e12` ms a bucket's computed
/// bounds are off their exact values by ulps, so neighbouring buckets'
/// `hi` and `lo` disagree.
const EPOCH_TS: i64 = 1_700_000_000;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// An instant on the bucket grid of some `K` in [`KS`] (whole seconds
/// included), as an offset from the window start: such endpoints sit
/// exactly on the bounds the estimator computes for that `K`.
fn grid_ms(rng: &mut StdRng, n: usize) -> f64 {
    let k = pick(rng, &KS);
    let second = rng.random_range(0..=n) as f64;
    second * 1000.0 + rng.random_range(0..k) as f64 * (1000.0 / k as f64)
}

/// A case of `n` seconds starting at `ts` whose records stress every guard
/// of the estimator. Built by aggregating a clean in-window log (so the
/// owner table is what production builds) and then corrupting records in
/// place, which leaves each record's spec, and so its template, intact.
/// The catalog holds one spec more than the log uses: its records belong
/// to no template of the case.
fn adversarial_case(rng: &mut StdRng) -> CaseData {
    let n = 1 + rng.random_range(0..40usize);
    let ts = pick(rng, &[0i64, 17, 3_600, 86_399, EPOCH_TS]);
    let ts_ms = ts as f64 * 1000.0;
    let n_ms = n as f64 * 1000.0;
    let n_used = 1 + rng.random_range(0..48u64);
    let specs = specs_n(n_used as usize + 1);

    let log: Vec<QueryRecord> = (0..rng.random_range(0..1500u32))
        .map(|_| {
            let start = match rng.random_range(0..5u32) {
                0 => grid_ms(rng, n).min(n_ms - 1.0),
                // On a second bound.
                1 => rng.random_range(0..n) as f64 * 1000.0,
                _ => rng.random::<f64>() * n_ms * 0.999,
            };
            let response = match rng.random_range(0..9u32) {
                // Blocked: spans many seconds, often past the window end.
                0 => rng.random::<f64>() * n_ms * 1.5,
                // Ends on a bucket bound (or is empty when that lies behind).
                1 | 2 => grid_ms(rng, n) - start,
                // Ends on a second bound.
                3 => (start / 1000.0).floor() * 1000.0 + 1000.0 * rng.random_range(0..3u32) as f64 - start,
                _ => rng.random::<f64>() * rng.random::<f64>() * 2500.0,
            };
            QueryRecord {
                spec: SpecId(rng.random_range(0..n_used) as usize),
                start_ms: ts_ms + start,
                response_ms: response.max(0.001),
                examined_rows: 1,
            }
        })
        .collect();

    let metrics = InstanceMetrics {
        start_second: ts,
        active_session: (0..n).map(|_| (rng.random::<f64>() * 12.0).floor()).collect(),
        cpu_usage: vec![0.0; n],
        iops_usage: vec![0.0; n],
        row_lock_waits: vec![0.0; n],
        mdl_waits: vec![0.0; n],
        qps: vec![0.0; n],
        probes: ProbeLog::default(),
    };
    let mut case = aggregate_case(&log, &specs, &metrics, ts, ts + n as i64);
    assert_eq!(case.records.len(), log.len(), "the clean log is all in-window");

    // Everything `aggregate_case` would have filtered or sanitized.
    let mut records: Vec<QueryRecord> = case.records.iter().copied().collect();
    for rec in &mut records {
        match rng.random_range(0..12u32) {
            // Straddles the lower window edge, sometimes both.
            0 => {
                rec.start_ms = ts_ms - rng.random::<f64>() * 5000.0;
                rec.response_ms = rng.random::<f64>() * (n_ms + 10_000.0);
            }
            1 => {
                rec.response_ms =
                    pick(rng, &[0.0, -0.0, -250.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
            }
            2 => rec.start_ms = pick(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            // Wholly before / after the window.
            3 => rec.start_ms = ts_ms - 10_000.0 - rng.random::<f64>() * 1000.0,
            4 => rec.start_ms = ts_ms + n_ms + rng.random::<f64>() * 1000.0,
            _ => {}
        }
    }
    // Records of the spec no template of the case covers.
    for _ in 0..rng.random_range(0..20u32) {
        records.push(QueryRecord {
            spec: SpecId(n_used as usize),
            start_ms: ts_ms + rng.random::<f64>() * n_ms,
            response_ms: rng.random::<f64>() * 3000.0,
            examined_rows: 1,
        });
    }
    case.records = records.into();
    // A probe second the bucket selection cannot use.
    let nan_at = rng.random_range(0..n);
    case.metrics.active_session[nan_at] = f64::NAN;
    // The online record ring is unsorted under perturbation.
    if rng.random_range(0..3u32) == 0 {
        shuffle(&mut case, rng);
    }
    case
}

/// Permutes `case.records`; each record keeps its spec, so its template.
fn shuffle(case: &mut CaseData, rng: &mut StdRng) {
    let mut records: Vec<QueryRecord> = case.records.iter().copied().collect();
    for i in (1..records.len()).rev() {
        records.swap(i, rng.random_range(0..=i));
    }
    case.records = records.into();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(new: &SessionEstimates, old: &SessionEstimates, what: &str) {
    assert_eq!(new.start, old.start, "{what}: start");
    assert_eq!(new.selected_bucket, old.selected_bucket, "{what}: selected_bucket");
    assert_eq!(
        bits(&new.instance_estimate),
        bits(&old.instance_estimate),
        "{what}: instance_estimate"
    );
    assert_eq!(new.per_template.len(), old.per_template.len(), "{what}: template count");
    for (i, (a, b)) in new.per_template.iter().zip(&old.per_template).enumerate() {
        assert_eq!(bits(a), bits(b), "{what}: per_template[{i}]");
    }
}

#[test]
fn sweep_matches_oracle_bit_for_bit() {
    sweep(0..SEEDS, |_, rng| {
        let case = adversarial_case(rng);
        for k in KS {
            let what = format!("K={k}");
            let old = oracle::estimate_with_buckets(&case, k);
            assert_bit_identical(&estimate_with_buckets(&case, k), &old, &what);
        }
    });
}

#[test]
fn adversarial_cases_hold_what_they_claim() {
    // The generator must actually produce the shapes the sweep is for;
    // otherwise a change to it could hollow the suite out silently.
    let (mut non_finite, mut before, mut blocked, mut unowned, mut aligned) = (0, 0, 0, 0, 0);
    let (mut starts_on_second, mut ends_on_second, mut split_bounds) = (0, 0, 0);
    let (mut fast, mut general, mut backward) = (0, 0, 0);
    sweep(0..SEEDS, |_, rng| {
        let case = adversarial_case(rng);
        let ts_ms = case.ts as f64 * 1000.0;
        unowned += case
            .records
            .iter()
            .filter(|r| case.template_of(r.spec) == CaseData::NO_TEMPLATE)
            .count();
        let on_bound = |x: f64, k: usize| ((x - ts_ms) * k as f64 / 1000.0).fract() == 0.0;
        for r in case.records.iter() {
            let e = r.end_ms();
            non_finite += usize::from(!r.start_ms.is_finite() || !e.is_finite());
            before += usize::from(r.start_ms < ts_ms && e > ts_ms);
            blocked += usize::from(e.is_finite() && r.response_ms > 5000.0);
            aligned += usize::from(e.is_finite() && KS.iter().any(|&k| on_bound(e, k)));
            starts_on_second += usize::from(r.start_ms.is_finite() && on_bound(r.start_ms, 1));
            ends_on_second += usize::from(e.is_finite() && on_bound(e, 1));
        }
        // The arms pass 1 sends the records down, and how often the seat
        // moves back to an earlier second.
        let grid = Grid::new(case.ts, case.n_seconds(), 7);
        if case.ts == EPOCH_TS {
            split_bounds += grid.bounds.windows(2).filter(|w| w[0].hi != w[1].lo).count();
        }
        let mut seat = Seat::default();
        let mut last_fast = 0;
        for r in case.records.iter() {
            match grid.classify(r, &mut seat) {
                Arm::Skip => {}
                Arm::Fast { t, .. } => {
                    fast += 1;
                    backward += usize::from(t < last_fast);
                    last_fast = t;
                }
                Arm::General(_) => general += 1,
            }
        }
        assert!(case.instance_session().iter().any(|v| v.is_nan()), "NaN probe");
    });
    for (what, count) in [
        ("non-finite records", non_finite),
        ("records straddling the window start", before),
        ("blocked queries", blocked),
        ("records of a spec with no template", unowned),
        ("bucket-aligned ends", aligned),
        ("records starting on a second bound", starts_on_second),
        ("records ending on a second bound", ends_on_second),
        ("epoch-scale buckets whose hi is not the next lo", split_bounds),
        ("fast-arm records", fast),
        ("general-arm records", general),
        ("backward reseats", backward),
    ] {
        assert!(count >= 100, "only {count} {what} over {SEEDS} seeds");
    }
}
