//! Property sweeps of the aggregation layer — conservation between raw
//! records and per-template series — on `CASES` seeded random inputs; a
//! failure names the seed.

use pinsql_collector::{aggregate_case, HistoryStore, TemplateCatalog};
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_sqlkit::SqlId;
use pinsql_workload::rng::{rng_from_seed, RngExt};
use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

const CASES: u64 = 256;

fn empty_metrics(n: usize) -> InstanceMetrics {
    InstanceMetrics {
        start_second: 0,
        active_session: vec![0.0; n],
        cpu_usage: vec![0.0; n],
        iops_usage: vec![0.0; n],
        row_lock_waits: vec![0.0; n],
        mdl_waits: vec![0.0; n],
        qps: vec![0.0; n],
        probes: Default::default(),
    }
}

fn specs(n: usize) -> Vec<TemplateSpec> {
    (0..n)
        .map(|i| {
            TemplateSpec::new(
                &format!("SELECT c{i} FROM t{i} WHERE id = 1"),
                CostProfile::point_read(TableId(0)),
                format!("s{i}"),
            )
        })
        .collect()
}

/// Every in-window record is counted exactly once; totals are conserved
/// across the per-template split.
#[test]
fn aggregation_conserves_counts_and_sums() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let specs = specs(5);
        let log: Vec<QueryRecord> = (0..rng.random_range(0..300usize))
            .map(|_| QueryRecord {
                spec: SpecId(rng.random_range(0..5usize)),
                start_ms: rng.random_range(-10_000.0..130_000.0),
                response_ms: rng.random_range(0.1..5_000.0),
                examined_rows: rng.random_range(0..1_000u64),
            })
            .collect();
        let n = 120i64;
        let case = aggregate_case(&log, &specs, &empty_metrics(n as usize), 0, n);

        let in_window = log.iter().filter(|r| r.start_ms >= 0.0 && r.start_ms < n as f64 * 1000.0);
        let expect_count = in_window.clone().count() as f64;
        let expect_rt: f64 = in_window.clone().map(|r| r.response_ms).sum();
        let expect_rows: f64 = in_window.map(|r| r.examined_rows as f64).sum();

        let got_count: f64 =
            case.templates.iter().map(|t| t.series.execution_count.iter().sum::<f64>()).sum();
        let got_rt: f64 =
            case.templates.iter().map(|t| t.series.total_rt_ms.iter().sum::<f64>()).sum();
        let got_rows: f64 =
            case.templates.iter().map(|t| t.series.examined_rows.iter().sum::<f64>()).sum();

        assert!((got_count - expect_count).abs() < 1e-9, "seed {seed}: count");
        assert!((got_rt - expect_rt).abs() < 1e-6 * expect_rt.max(1.0), "seed {seed}: rt");
        assert!((got_rows - expect_rows).abs() < 1e-9, "seed {seed}: rows");
        assert_eq!(case.records.len() as f64, expect_count, "seed {seed}");
        // Every record belongs to exactly the template of its spec's id.
        for rec in case.records.iter() {
            let pos = case.template_index(case.catalog.id_of_spec(rec.spec));
            assert_eq!(pos.map(|p| p as u32), Some(case.template_of(rec.spec)), "seed {seed}");
        }
    }
}

/// Per-minute counts sum to the per-second counts over complete minutes.
#[test]
fn per_minute_conserves_complete_minutes() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let counts: Vec<u32> =
            (0..rng.random_range(60..240usize)).map(|_| rng.random_range(0..50u32)).collect();
        let mut log = Vec::new();
        for (sec, &k) in counts.iter().enumerate() {
            for j in 0..k {
                log.push(QueryRecord {
                    spec: SpecId(0),
                    start_ms: sec as f64 * 1000.0 + j as f64,
                    response_ms: 1.0,
                    examined_rows: 0,
                });
            }
        }
        let n = counts.len() as i64;
        let case = aggregate_case(&log, &specs(1), &empty_metrics(n as usize), 0, n);
        if case.templates.is_empty() {
            continue; // every drawn count was 0
        }
        let per_min = case.templates[0].series.per_minute();
        assert_eq!(per_min.len(), counts.len() / 60, "seed {seed}");
        for (m, &v) in per_min.iter().enumerate() {
            let expect: u32 = counts[m * 60..(m + 1) * 60].iter().sum();
            assert_eq!(v, expect as f64, "seed {seed}: minute {m}");
        }
    }
}

/// History store: recording in any order, window_filled returns the
/// accumulated counts and zero elsewhere.
#[test]
fn history_store_accumulates() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let entries: Vec<(i64, f64)> = (0..rng.random_range(1..100usize))
            .map(|_| (rng.random_range(0..200u64) as i64, rng.random_range(0.5..100.0)))
            .collect();
        let mut store = HistoryStore::new();
        let id = SqlId(9);
        for &(minute, count) in &entries {
            store.record(id, minute, count);
        }
        let got = store.window_filled(id, 0, 200);
        for m in 0..200i64 {
            let expect: f64 = entries.iter().filter(|&&(mm, _)| mm == m).map(|&(_, c)| c).sum();
            assert!((got[m as usize] - expect).abs() < 1e-9, "seed {seed}: minute {m}");
        }
    }
}

/// Structurally identical specs always share a catalog entry.
#[test]
fn catalog_folds_by_structure() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let s: Vec<TemplateSpec> = ["x", "y"]
            .into_iter()
            .map(|label| {
                TemplateSpec::new(
                    &format!("SELECT a FROM t WHERE id = {}", rng.random_range(0..1000u32)),
                    CostProfile::point_read(TableId(0)),
                    label,
                )
            })
            .collect();
        let catalog = TemplateCatalog::from_specs(&s);
        assert_eq!(catalog.len(), 1, "seed {seed}");
        assert_eq!(catalog.id_of_spec(SpecId(0)), catalog.id_of_spec(SpecId(1)), "seed {seed}");
    }
}
