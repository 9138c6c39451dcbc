//! Cross-crate integration tests: workload → simulator → collector →
//! detector → PinSQL, for every anomaly category.

use pinsql::{PinSql, PinSqlConfig};
use pinsql_eval::caseset::label_online;
use pinsql_eval::first_hit_rank;
use pinsql_scenario::{generate_base, inject, AnomalyKind, ScenarioConfig};

fn diagnose(kind: AnomalyKind, seed: u64) -> (Option<usize>, Option<usize>, bool) {
    let cfg = ScenarioConfig::default().with_seed(seed);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, kind);
    let case = label_online(&scenario, 600, None);
    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &case.case,
        &case.window,
        &case.history,
        case.minutes_origin,
    );
    let r_ids: Vec<_> = d.rsqls.iter().map(|r| r.id).collect();
    let h_ids: Vec<_> = d.hsqls.iter().map(|h| h.id).collect();
    (
        first_hit_rank(&r_ids, &case.truth.rsqls),
        first_hit_rank(&h_ids, &case.truth.hsqls),
        case.detected,
    )
}

#[test]
fn business_spike_pipeline() {
    let (r, h, detected) = diagnose(AnomalyKind::BusinessSpike, 9100);
    assert!(detected, "spike must be detected");
    assert_eq!(r, Some(1), "R-SQL top-1");
    assert_eq!(h, Some(1), "H-SQL top-1");
}

#[test]
fn poor_sql_pipeline() {
    let (r, h, detected) = diagnose(AnomalyKind::PoorSql, 9200);
    assert!(detected);
    assert_eq!(r, Some(1));
    assert_eq!(h, Some(1));
}

#[test]
fn mdl_lock_pipeline() {
    let (r, h, detected) = diagnose(AnomalyKind::MdlLock, 9300);
    assert!(detected, "the MDL pile-up must be detected");
    assert!(r.is_some_and(|r| r <= 5), "R-SQL within top-5: {r:?}");
    assert_eq!(h, Some(1));
}

/// Ten seeds, asserted on the sweep: row-lock R-SQLs are the hardest
/// category (`results/breakdown.txt`: H@5 75 %), so one seed is a coin
/// with a 3-in-4 bias. EXPERIMENTS.md, "Seed-lucky tests".
#[test]
fn row_lock_pipeline() {
    let sweep: Vec<_> = (9400..9410).map(|seed| diagnose(AnomalyKind::RowLock, seed)).collect();
    let detected = sweep.iter().filter(|c| c.2).count();
    let r_top5 = sweep.iter().filter(|c| c.0.is_some_and(|r| r <= 5)).count();
    let h_top1 = sweep.iter().filter(|c| c.1 == Some(1)).count();
    assert_eq!(detected, 10, "the row-lock convoy must be detected: {sweep:?}");
    assert!(r_top5 >= 8, "R-SQL within top-5 on {r_top5} of 10 seeds: {sweep:?}");
    assert_eq!(h_top1, 10, "H-SQL top-1: {sweep:?}");
}

#[test]
fn hsqls_differ_from_rsqls_in_lock_cases() {
    // The paper's core distinction: for lock anomalies the direct causes
    // (victims) are not the root causes (the blocking statement).
    let cfg = ScenarioConfig::default().with_seed(9500);
    let base = generate_base(&cfg);
    let scenario = inject(&base, &cfg, AnomalyKind::MdlLock);
    let case = label_online(&scenario, 600, None);
    let victims: Vec<_> =
        case.truth.hsqls.iter().filter(|h| !case.truth.rsqls.contains(h)).collect();
    assert!(
        !victims.is_empty(),
        "lock cases must have victim H-SQLs that are not R-SQLs"
    );
}
