//! Parallelism must never change results: for any worker count the
//! diagnoser, the correlation-graph kernel, and the eval fan-out all
//! produce bit-identical output to the serial path. This is the contract
//! that lets `parallelism: 0` be the default everywhere without touching
//! a single expected number in EXPERIMENTS.md.

use pinsql::{Diagnosis, PinSql, PinSqlConfig};
use pinsql_eval::caseset::label_online;
use pinsql_scenario::{generate_base, inject, AnomalyKind, LabeledCase, ScenarioConfig};
use pinsql_timeseries::{connected_components, connected_components_par, par_map};

fn labeled_case(seed: u64, kind: AnomalyKind) -> LabeledCase {
    let cfg = ScenarioConfig::default().with_seed(seed);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, kind);
    label_online(&scenario, 600, None)
}

fn diagnose_with(case: &LabeledCase, parallelism: usize) -> Diagnosis {
    let pinsql = PinSql::new(PinSqlConfig::default().with_parallelism(parallelism));
    pinsql.diagnose(&case.case, &case.window, &case.history, case.minutes_origin)
}

/// `(rsqls, hsqls, n_clusters, selected_clusters)`, scores as raw bits.
type Fingerprint = (Vec<(u64, u64)>, Vec<(u64, u64)>, usize, usize);

/// Everything rank-relevant, with scores compared bit-for-bit.
fn fingerprint(d: &Diagnosis) -> Fingerprint {
    (
        d.rsqls.iter().map(|r| (r.id.0, r.score.to_bits())).collect(),
        d.hsqls.iter().map(|r| (r.id.0, r.score.to_bits())).collect(),
        d.n_clusters,
        d.selected_clusters,
    )
}

#[test]
fn diagnosis_is_identical_for_any_parallelism() {
    for kind in [AnomalyKind::PoorSql, AnomalyKind::BusinessSpike, AnomalyKind::MdlLock] {
        let case = labeled_case(77, kind);
        let serial = fingerprint(&diagnose_with(&case, 1));
        for parallelism in [2usize, 4, 0] {
            let par = fingerprint(&diagnose_with(&case, parallelism));
            assert_eq!(serial, par, "kind {kind:?} parallelism {parallelism}");
        }
    }
}

#[test]
fn correlation_clustering_is_identical_for_any_parallelism() {
    // Deterministic pseudo-random series with a few strongly-correlated
    // families, so the graph has non-trivial components.
    let mut x = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 1000) as f64 / 1000.0
    };
    let n = 120usize;
    let len = 60usize;
    let series: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let family = i % 7;
            (0..len)
                .map(|t| (t as f64 / (3.0 + family as f64)).sin() * 5.0 + next() * 0.8)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let serial = connected_components(&refs, 0.8);
    for parallelism in [2usize, 4, 16, 0] {
        assert_eq!(serial, connected_components_par(&refs, 0.8, parallelism), "p={parallelism}");
    }
}

#[test]
fn eval_fan_out_preserves_case_results() {
    // The experiment drivers' outer fan-out (par_map over cases) must
    // return per-case results in case order, independent of scheduling.
    let cases: Vec<LabeledCase> = (0..4)
        .map(|i| labeled_case(200 + i, AnomalyKind::ALL[i as usize % AnomalyKind::ALL.len()]))
        .collect();
    let serial: Vec<_> =
        cases.iter().map(|c| fingerprint(&diagnose_with(c, 1))).collect();
    for workers in [2usize, 4, 0] {
        let par = par_map(cases.len(), workers, |i| fingerprint(&diagnose_with(&cases[i], 1)));
        assert_eq!(serial, par, "workers {workers}");
    }
}
