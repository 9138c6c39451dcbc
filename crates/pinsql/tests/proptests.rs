//! Property sweeps of the PinSQL core invariants on `CASES` seeded random
//! cases; a failure names the seed.

use pinsql::{estimate_sessions, identify_rsqls, rank_hsqls, EstimatorKind, PinSqlConfig};
use pinsql_collector::{aggregate_case, CaseData, HistoryStore};
use pinsql_dbsim::probe::{ProbeLog, ProbeSample};
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_detect::AnomalyWindow;
use pinsql_workload::rng::{rng_from_seed, RngExt};
use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

const CASES: u64 = 256;

/// A random small case (a handful of templates, a 120-second window,
/// arbitrary query placements) plus a mid-window anomaly.
fn random_case(seed: u64) -> (CaseData, AnomalyWindow) {
    let mut rng = rng_from_seed(seed);
    let log: Vec<QueryRecord> = (0..rng.random_range(1..400usize))
        .map(|_| QueryRecord {
            spec: SpecId(rng.random_range(0..6usize)),
            start_ms: rng.random_range(0.0..120_000.0),
            response_ms: rng.random_range(0.1..20_000.0),
            examined_rows: rng.random_range(0..10_000u64),
        })
        .collect();
    let n = 120usize;
    let probe_vals: Vec<u32> = (0..n).map(|_| rng.random_range(0..50u32)).collect();
    let specs: Vec<TemplateSpec> = (0..6)
        .map(|i| {
            TemplateSpec::new(
                &format!("SELECT c{i} FROM t{i} WHERE id = 1"),
                CostProfile::point_read(TableId(0)),
                format!("tpl{i}"),
            )
        })
        .collect();
    let metrics = InstanceMetrics {
        start_second: 0,
        active_session: probe_vals.iter().map(|&v| v as f64).collect(),
        cpu_usage: vec![0.2; n],
        iops_usage: vec![0.1; n],
        row_lock_waits: vec![0.0; n],
        mdl_waits: vec![0.0; n],
        qps: vec![0.0; n],
        probes: ProbeLog {
            samples: (0..n)
                .map(|s| ProbeSample {
                    second: s as i64,
                    active_sessions: probe_vals[s],
                    true_instant_ms: s as f64 * 1000.0 + 500.0,
                })
                .collect(),
        },
    };
    let case = aggregate_case(&log, &specs, &metrics, 0, n as i64);
    (case, AnomalyWindow { anomaly_start: 60, anomaly_end: 90, delta_s: 60 })
}

/// Estimates are non-negative and never exceed the number of possibly
/// active queries; per-template rows sum exactly to the instance row.
#[test]
fn estimates_are_consistent() {
    for seed in 0..CASES {
        let (case, _w) = random_case(seed);
        for kind in [EstimatorKind::ByRt, EstimatorKind::NoBuckets, EstimatorKind::Buckets] {
            let cfg = PinSqlConfig::default().with_estimator(kind);
            let est = estimate_sessions(&case, &cfg);
            assert_eq!(est.per_template.len(), case.templates.len(), "seed {seed}");
            let n_records = case.records.len() as f64;
            for t in 0..case.n_seconds() {
                let mut sum = 0.0;
                for row in &est.per_template {
                    assert!(row[t] >= 0.0, "seed {seed}: {kind:?}: negative estimate");
                    sum += row[t];
                }
                assert!(
                    (sum - est.instance_estimate[t]).abs() < 1e-6,
                    "seed {seed}: {kind:?} at {t}"
                );
                if kind != EstimatorKind::ByRt {
                    assert!(
                        est.instance_estimate[t] <= n_records + 1e-6,
                        "seed {seed}: {kind:?}: estimate exceeds record count"
                    );
                }
            }
        }
    }
}

/// Impact scores are bounded by the fusion's algebraic range and the
/// ranking is a permutation of all templates, sorted descending.
#[test]
fn hsql_ranking_is_bounded_sorted_permutation() {
    for seed in 0..CASES {
        let (case, w) = random_case(seed);
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let r = rank_hsqls(&case, &est, &w, &cfg);
        let mut seen: Vec<usize> = r.ranked.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..case.templates.len()).collect::<Vec<_>>(), "seed {seed}");
        for pair in r.ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "seed {seed}: not sorted: {:?}", r.ranked);
        }
        for &(_, score) in &r.ranked {
            assert!(score.abs() <= 3.0 + 1e-9, "seed {seed}: |impact| > 3: {score}");
            assert!(!score.is_nan(), "seed {seed}");
        }
    }
}

/// Clusters partition the template set; candidates and verified are
/// subsets; the final ranking only contains candidates.
#[test]
fn rsql_outcome_structural_invariants() {
    for seed in 0..CASES {
        let (case, w) = random_case(seed);
        let cfg = PinSqlConfig::default().with_estimator(EstimatorKind::NoBuckets);
        let est = estimate_sessions(&case, &cfg);
        let hs = rank_hsqls(&case, &est, &w, &cfg);
        let out = identify_rsqls(&case, &est, &hs, &w, &HistoryStore::new(), 1_000_000, &cfg);
        let mut all: Vec<usize> = out.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..case.templates.len()).collect::<Vec<_>>(), "seed {seed}");
        assert!(out.selected_clusters <= out.clusters.len().max(1), "seed {seed}");
        for &c in &out.verified {
            assert!(out.candidates.contains(&c), "seed {seed}: verified {c} is no candidate");
        }
        for &(i, score) in &out.ranked {
            assert!(out.candidates.contains(&i), "seed {seed}: ranked {i} is no candidate");
            assert!(!score.is_nan(), "seed {seed}");
        }
    }
}
