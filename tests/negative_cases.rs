//! Negative (no-anomaly) cases: a clean workload must not trip the
//! detector, carries no ground truth, and — the false-positive guard —
//! PinSQL must not *assert* any R-SQL on it at default thresholds, even
//! though the evaluation-only full ranking still exists.

use pinsql::{PinSql, PinSqlConfig};
use pinsql_eval::caseset::label_online;
use pinsql_scenario::{generate_base, inject_none, PerturbConfig, ScenarioConfig};

fn negative_case(seed: u64) -> pinsql_scenario::LabeledCase {
    let cfg = ScenarioConfig::default().with_seed(seed);
    let base = generate_base(&cfg);
    let scenario = inject_none(&base, &cfg);
    label_online(&scenario, 600, None)
}

#[test]
fn clean_workloads_are_not_detected_and_report_nothing() {
    for seed in [9600u64, 9700, 9800] {
        let lc = negative_case(seed);
        assert!(lc.is_negative());
        assert!(
            !lc.detected,
            "seed {seed}: a clean workload must not trip the detector"
        );
        assert!(lc.truth.rsqls.is_empty(), "seed {seed}: negatives have no R-SQL truth");
        assert!(lc.truth.hsqls.is_empty(), "seed {seed}: negatives have no H-SQL truth");

        // Even when forced through the pipeline (production would stop at
        // the detector), nothing gets asserted as a root cause.
        let d = PinSql::new(PinSqlConfig::default()).diagnose(
            &lc.case,
            &lc.window,
            &lc.history,
            lc.minutes_origin,
        );
        assert!(
            d.reported_rsqls.is_empty(),
            "seed {seed}: asserted R-SQLs on a no-anomaly case: {:?}",
            d.reported_rsqls
        );
        assert!(d.rsqls.iter().all(|r| r.score.is_finite()));
        assert!(d.hsqls.iter().all(|r| r.score.is_finite()));
    }
}

#[test]
fn degraded_negative_case_stays_quiet_and_finite() {
    // A chaotic negative: heavy telemetry degradation on a clean workload.
    // Blanked seconds and dropped records must not fabricate an anomaly
    // assertion, and every score must stay finite.
    let cfg = ScenarioConfig::default().with_seed(9650);
    let base = generate_base(&cfg);
    let scenario = inject_none(&base, &cfg);
    let lc = label_online(&scenario, 600, Some(&PerturbConfig::at_intensity(965, 1.0)));
    assert!(lc.is_negative());
    assert!(lc.truth.rsqls.is_empty());
    assert!(lc.window.window_len() > 0, "window must stay usable");

    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &lc.case,
        &lc.window,
        &lc.history,
        lc.minutes_origin,
    );
    // Degradation can make the *detector* fire (a blanked stretch looks
    // like a level shift), so only the end-to-end assertion is checked:
    // nothing non-finite anywhere, and the reported set stays within the
    // ranking.
    assert!(d.rsqls.iter().all(|r| r.score.is_finite()));
    assert!(d.hsqls.iter().all(|r| r.score.is_finite()));
    assert!(d.reported_rsqls.len() <= d.rsqls.len());
}
