//! Reproducibility: the whole stack is seeded, so identical inputs must
//! produce byte-identical outputs — the property every experiment in
//! EXPERIMENTS.md relies on.

use pinsql::{PinSql, PinSqlConfig};
use pinsql_dbsim::run_open_loop;
use pinsql_eval::caseset::label_online;
use pinsql_scenario::{generate_base, inject, AnomalyKind, ScenarioConfig};

#[test]
fn simulation_is_deterministic() {
    let cfg = ScenarioConfig::default().with_seed(31);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
    let a = run_open_loop(&scenario.workload, &scenario.sim, 0, 300);
    let b = run_open_loop(&scenario.workload, &scenario.sim, 0, 300);
    assert_eq!(a.log.len(), b.log.len());
    assert_eq!(a.metrics.active_session, b.metrics.active_session);
    assert_eq!(a.metrics.cpu_usage, b.metrics.cpu_usage);
    for (x, y) in a.log.iter().zip(&b.log) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.start_ms, y.start_ms);
        assert_eq!(x.response_ms, y.response_ms);
    }
}

#[test]
fn diagnosis_is_deterministic() {
    let cfg = ScenarioConfig::default().with_seed(32);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::PoorSql);
    let case = label_online(&scenario, 600, None);
    let pinsql = PinSql::new(PinSqlConfig::default());
    let d1 = pinsql.diagnose(&case.case, &case.window, &case.history, case.minutes_origin);
    let d2 = pinsql.diagnose(&case.case, &case.window, &case.history, case.minutes_origin);
    assert_eq!(
        d1.rsqls.iter().map(|r| (r.id, r.score.to_bits())).collect::<Vec<_>>(),
        d2.rsqls.iter().map(|r| (r.id, r.score.to_bits())).collect::<Vec<_>>()
    );
    assert_eq!(
        d1.hsqls.iter().map(|r| r.id).collect::<Vec<_>>(),
        d2.hsqls.iter().map(|r| r.id).collect::<Vec<_>>()
    );
    assert_eq!(d1.n_clusters, d2.n_clusters);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let cfg = ScenarioConfig::default().with_seed(seed);
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        run_open_loop(&scenario.workload, &scenario.sim, 0, 120).log.len()
    };
    // Not a strict requirement of correctness, but a seed collision across
    // the whole pipeline would make the case generator useless.
    assert_ne!(mk(100), mk(101));
}
