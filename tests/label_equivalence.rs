//! H-SQL ground-truth labelling sums each template's true session mass in
//! one record-order sweep, finding a record's template through the case's
//! owner table. This pins it to the per-template formulation it replaced —
//! a gather of each template's records, found through the catalog's id
//! for their spec — on golden-shape scenarios: same additions in the same
//! order, so the labels must be equal, not merely close.

use pinsql_collector::CaseData;
use pinsql_detect::AnomalyWindow;
use pinsql_engine::OnlineInstance;
use pinsql_scenario::{
    generate_base, inject, label_truth, simulate_telemetry, telemetry_events, AnomalyKind,
    PerturbConfig, ScenarioConfig,
};
use pinsql_sqlkit::SqlId;
use pinsql_workload::SpecId;

/// The labelling rule over per-template gathers (the previous
/// `scenario::materialize::label_hsqls`).
fn label_hsqls_by_gather(case: &CaseData, window: &AnomalyWindow) -> Vec<SqlId> {
    let n = case.n_seconds();
    let a_lo = ((window.anomaly_start - window.ts()).max(0) as usize).min(n);
    let a_hi = ((window.anomaly_end - window.ts()).max(0) as usize).min(n);
    if a_hi <= a_lo {
        return Vec::new();
    }
    let ts_ms = window.ts() as f64 * 1000.0;
    let mut gathered = vec![Vec::new(); case.templates.len()];
    for r in case.records.iter() {
        // A spec outside the catalog has no template.
        if r.spec.0 < case.catalog.n_specs() {
            if let Some(pos) = case.template_index(case.catalog.id_of_spec(r.spec)) {
                gathered[pos].push(r);
            }
        }
    }
    let mut out = Vec::new();
    let mut best: Option<(SqlId, f64)> = None;
    for (tpl, records) in case.templates.iter().zip(&gathered) {
        let mut anom = 0.0;
        let mut base = 0.0;
        for r in records {
            anom += r.overlap_ms(ts_ms + a_lo as f64 * 1000.0, ts_ms + a_hi as f64 * 1000.0);
            base += r.overlap_ms(ts_ms, ts_ms + a_lo as f64 * 1000.0);
        }
        let anom_mean = anom / 1000.0 / (a_hi - a_lo) as f64;
        let base_mean = if a_lo > 0 { base / 1000.0 / a_lo as f64 } else { 0.0 };
        if anom_mean > 1.0 && anom_mean > 3.0 * base_mean + 0.5 {
            out.push(tpl.id);
        }
        if best.is_none() || anom_mean > best.expect("set").1 {
            best = Some((tpl.id, anom_mean));
        }
    }
    if out.is_empty() {
        if let Some((id, _)) = best {
            out.push(id);
        }
    }
    out
}

#[test]
fn sweep_labels_equal_gather_labels_on_golden_shapes() {
    // Seeds and look-back of the golden corpus (tests/golden/manifest.json).
    for (kind, seed) in [(AnomalyKind::BusinessSpike, 7000u64), (AnomalyKind::MdlLock, 7200)] {
        let cfg = ScenarioConfig::default().with_seed(seed);
        let scenario = inject(&generate_base(&cfg), &cfg, kind);
        let perturb = PerturbConfig::at_intensity(seed, 0.3);
        // One simulation, cut and labelled online clean and degraded.
        let (log, metrics) = simulate_telemetry(&scenario, None);
        for perturb in [None, Some(&perturb)] {
            let mut instance = OnlineInstance::new(&scenario, 600);
            instance.ingest_stream(telemetry_events(log.clone(), metrics.clone(), perturb));
            let lc = instance.close_case();
            let expected = label_hsqls_by_gather(&lc.case, &lc.window);
            assert!(!expected.is_empty(), "{kind:?}/{seed}: a positive case has an H-SQL");
            assert_eq!(lc.truth.hsqls, expected, "{kind:?}/{seed}");

            // A record of a spec with no template is skipped by both.
            let mut case = lc.case.clone();
            let mut records: Vec<_> = case.records.iter().copied().collect();
            let mut stray = records[records.len() / 2];
            stray.spec = SpecId(case.catalog.n_specs());
            stray.response_ms = 1e9;
            records.push(stray);
            case.records = records.into();
            assert_eq!(case.template_of(stray.spec), CaseData::NO_TEMPLATE);
            assert_eq!(label_hsqls_by_gather(&case, &lc.window), expected, "{kind:?}/{seed}");
            assert_eq!(
                label_truth(&scenario, &case, &lc.window).hsqls,
                expected,
                "{kind:?}/{seed}"
            );
        }
    }
}
