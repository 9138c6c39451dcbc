//! Simulating a scenario into telemetry, and labelling the case cut from
//! it.
//!
//! [`simulate_telemetry`] runs the database simulator on the injected
//! workload (optionally degrading the output through the chaos layer) and
//! [`telemetry_events`] / [`materialize_events`] emit it as the
//! time-ordered event stream the online engine ingests. The engine's
//! instance detects the anomaly, picks the case window from the stream
//! alone (`pinsql_detect::select_case_window`: the longest phenomenon, or
//! the whole stream when detection finds none), cuts the window and hands
//! the case to [`LabeledCase::new`], which labels the ground truth and
//! synthesizes history:
//!
//! * **R-SQLs** — the injected templates (root causes by construction);
//! * **H-SQLs** — templates whose *true* per-second active session
//!   (computed from the complete query log) inflates during the anomaly —
//!   the objective analogue of the DBAs' "direct cause" labels.
//!
//! Every experiment builds its cases that way; the batch labeller that
//! aggregates a whole simulated log instead lives in the root test suite,
//! as the oracle the online path is compared against.

use crate::history::synthesize_history;
use crate::inject::{AnomalyKind, Scenario};
use crate::perturb::{perturb_telemetry, PerturbConfig};
use pinsql_collector::{CaseData, HistoryStore};
use pinsql_detect::AnomalyWindow;
use pinsql_dbsim::{interleave, run_open_loop, InstanceMetrics, QueryRecord, TelemetryEvent};
use pinsql_sqlkit::SqlId;

/// Absolute minute index assigned to every case's window start (arbitrary
/// but fixed; history addresses are relative to it).
pub const MINUTES_ORIGIN: i64 = 1_000_000;

/// DBA-style labels for one case.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    pub rsqls: Vec<SqlId>,
    pub hsqls: Vec<SqlId>,
}

/// A fully materialized, labelled anomaly case.
#[derive(Debug, Clone)]
pub struct LabeledCase {
    pub case: CaseData,
    pub window: AnomalyWindow,
    pub truth: GroundTruth,
    pub history: HistoryStore,
    pub minutes_origin: i64,
    /// The primary injected anomaly; `None` for a negative case.
    pub kind: Option<AnomalyKind>,
    /// Every injected anomaly (empty for negatives).
    pub injected: Vec<AnomalyKind>,
    /// Whether the detector found an anomaly (else the case is the whole
    /// stream).
    pub detected: bool,
    /// The anomaly type reported by phenomenon perception.
    pub anomaly_type: String,
}

impl LabeledCase {
    /// Labels the case cut for `window` from `scenario`'s telemetry: truth
    /// from what was injected ([`label_truth`]), the synthesized look-back
    /// history ([`case_history`]), and the detector's verdict as given.
    pub fn new(
        scenario: &Scenario,
        case: CaseData,
        window: AnomalyWindow,
        detected: bool,
        anomaly_type: String,
    ) -> Self {
        let truth = label_truth(scenario, &case, &window);
        let history = case_history(scenario, &window);
        Self {
            case,
            window,
            truth,
            history,
            minutes_origin: MINUTES_ORIGIN,
            kind: scenario.kind,
            injected: scenario.injected.clone(),
            detected,
            anomaly_type,
        }
    }

    /// True when this is a no-anomaly (pure-noise) case.
    pub fn is_negative(&self) -> bool {
        self.injected.is_empty()
    }
}

/// Runs the simulator and (optionally) the chaos layer, returning the
/// telemetry every downstream path starts from. Degradation changes what
/// the pipeline *sees*, never what is *true*: ground truth is labelled
/// from the scenario.
pub fn simulate_telemetry(
    scenario: &Scenario,
    perturb: Option<&PerturbConfig>,
) -> (Vec<QueryRecord>, InstanceMetrics) {
    let out = run_open_loop(&scenario.workload, &scenario.sim, 0, scenario.cfg.window_s);
    prepare_telemetry(out.log, out.metrics, perturb)
}

/// Applies the chaos layer (if any) and sanitizes, in place of simulation —
/// the shared tail of [`simulate_telemetry`] for callers holding telemetry.
pub fn prepare_telemetry(
    mut log: Vec<QueryRecord>,
    mut metrics: InstanceMetrics,
    perturb: Option<&PerturbConfig>,
) -> (Vec<QueryRecord>, InstanceMetrics) {
    if let Some(p) = perturb {
        perturb_telemetry(&mut log, &mut metrics, p);
        // Belt and braces: whatever the chaos layer did, nothing non-finite
        // reaches detection or serialization.
        metrics.sanitize();
    }
    (log, metrics)
}

/// Simulates a scenario and emits its telemetry as one time-ordered
/// [`TelemetryEvent`] stream — what this instance's collector would publish
/// to the online engine. Optionally degrades the telemetry first.
///
/// Replaying these events through the incremental collector and online
/// detectors yields the same case the batch oracle labels from the whole
/// log (the root suite's equivalence tests pin this bit for bit).
pub fn materialize_events(
    scenario: &Scenario,
    perturb: Option<&PerturbConfig>,
) -> Vec<TelemetryEvent> {
    let (log, metrics) = simulate_telemetry(scenario, None);
    telemetry_events(log, metrics, perturb)
}

/// Emits already-simulated telemetry as the time-ordered event stream
/// [`materialize_events`] produces, optionally degraded first — so one
/// simulation can feed any number of perturbations.
pub fn telemetry_events(
    log: Vec<QueryRecord>,
    metrics: InstanceMetrics,
    perturb: Option<&PerturbConfig>,
) -> Vec<TelemetryEvent> {
    let (log, metrics) = prepare_telemetry(log, metrics, perturb);
    interleave(log, &metrics)
}

/// Labels a case's ground truth: R-SQLs are the injected templates mapped
/// into the catalog; H-SQLs come from the true per-second activity in the
/// complete window records. Negative scenarios have empty truth by
/// construction.
pub fn label_truth(scenario: &Scenario, case: &CaseData, window: &AnomalyWindow) -> GroundTruth {
    let rsqls: Vec<SqlId> = scenario
        .truth_rsql_specs
        .iter()
        .map(|&s| case.catalog.id_of_spec(s))
        .collect();
    // A negative scenario has no direct causes by construction; skip the
    // labelling (its best-template fallback would fabricate one).
    let hsqls = if scenario.is_negative() { Vec::new() } else { label_hsqls(case, window) };
    GroundTruth { rsqls, hsqls }
}

/// Synthesizes the look-back history a case's diagnosis verifies against
/// (injected templates are new → absent 1/3/7 days ago).
fn case_history(scenario: &Scenario, window: &AnomalyWindow) -> HistoryStore {
    let window_min = (window.window_len() + 59) / 60;
    synthesize_history(
        &scenario.base_workload,
        MINUTES_ORIGIN,
        window_min,
        &[1, 3, 7],
        scenario.cfg.seed,
        None,
    )
}

/// Labels H-SQLs from the complete log: a template is a direct cause when
/// its true mean active session during the anomaly is both non-trivial and
/// a multiple of its pre-anomaly baseline.
fn label_hsqls(case: &CaseData, window: &AnomalyWindow) -> Vec<SqlId> {
    let n = case.n_seconds();
    let a_lo = ((window.anomaly_start - window.ts()).max(0) as usize).min(n);
    let a_hi = ((window.anomaly_end - window.ts()).max(0) as usize).min(n);
    if a_hi <= a_lo {
        return Vec::new();
    }
    let ts_ms = window.ts() as f64 * 1000.0;
    // True session mass from the full log (expected activity), per template
    // as `(anomaly, baseline)`: one pass in record order, each record's
    // template looked up by its spec (`template_of`; its `NO_TEMPLATE`
    // marker indexes past `mass`).
    let mut mass = vec![(0.0f64, 0.0f64); case.templates.len()];
    for slice in case.records.slices() {
        for r in slice {
            let Some((anom, base)) = mass.get_mut(case.template_of(r.spec) as usize) else {
                continue;
            };
            *anom += r.overlap_ms(ts_ms + a_lo as f64 * 1000.0, ts_ms + a_hi as f64 * 1000.0);
            *base += r.overlap_ms(ts_ms, ts_ms + a_lo as f64 * 1000.0);
        }
    }
    let mut out = Vec::new();
    let mut best: Option<(SqlId, f64)> = None;
    for (tpl, &(anom, base)) in case.templates.iter().zip(&mass) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_base, ScenarioConfig};
    use crate::inject::{inject, inject_none};
    use crate::perturb::PerturbConfig;
    use pinsql_collector::aggregate_case;
    use pinsql_detect::{
        classify, detect_features, select_case_window, DetectorConfig, PhenomenonConfig,
    };

    /// The labelled case these tests check, built from the references the
    /// online engine is pinned against: detection over each whole metric
    /// series and `aggregate_case` over the selected window. (The engine
    /// depends on this crate, and the root suite's oracle is out of a unit
    /// test's reach.)
    fn label_batch(
        scenario: &Scenario,
        delta_s: i64,
        perturb: Option<&PerturbConfig>,
    ) -> LabeledCase {
        let (log, metrics) = simulate_telemetry(scenario, perturb);
        let features: Vec<_> = metrics
            .iter_named()
            .flat_map(|(name, series)| {
                let c = DetectorConfig::for_metric(name);
                detect_features(name, series, metrics.start_second, &c)
            })
            .collect();
        let phenomena = classify(&features, &PhenomenonConfig::default());
        let span = metrics.start_second..metrics.start_second + metrics.len() as i64;
        let (window, detected, anomaly_type) = select_case_window(&phenomena, delta_s, span);
        let case =
            aggregate_case(&log, &scenario.workload.specs, &metrics, window.ts(), window.te());
        LabeledCase::new(scenario, case, window, detected, anomaly_type)
    }

    fn labeled(kind: AnomalyKind, seed: u64) -> LabeledCase {
        let cfg = ScenarioConfig::default().with_seed(seed);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, kind);
        label_batch(&s, 600, None)
    }

    #[test]
    fn business_spike_case_is_detected_and_labelled() {
        let lc = labeled(AnomalyKind::BusinessSpike, 42);
        assert!(lc.detected, "the spike must trip the detector");
        assert!(!lc.truth.rsqls.is_empty());
        assert!(!lc.truth.hsqls.is_empty());
        assert!(lc.case.templates.len() > 20);
        // The injected template is itself a direct cause here.
        assert!(lc.truth.hsqls.contains(&lc.truth.rsqls[0]), "spike template drives session");
    }

    #[test]
    fn lock_case_labels_victims_as_hsqls() {
        let lc = labeled(AnomalyKind::MdlLock, 43);
        assert!(lc.detected, "MDL pile-up must trip the detector");
        // Victims (not the DDL) dominate the H-SQL set: at least one H-SQL
        // that is not the R-SQL.
        assert!(
            lc.truth.hsqls.iter().any(|h| !lc.truth.rsqls.contains(h)),
            "blocked victims must appear among H-SQLs: {:?}",
            lc.truth
        );
    }

    #[test]
    fn window_fits_simulated_data() {
        for kind in AnomalyKind::ALL {
            let lc = labeled(kind, 44);
            assert!(lc.window.ts() >= 0);
            assert!(lc.window.te() <= ScenarioConfig::default().window_s);
            assert!(lc.window.anomaly_len() > 0);
            assert_eq!(lc.case.ts, lc.window.ts());
            assert_eq!(lc.case.te, lc.window.te());
        }
    }

    #[test]
    fn injected_template_present_in_case() {
        for kind in AnomalyKind::ALL {
            let lc = labeled(kind, 45);
            for r in &lc.truth.rsqls {
                assert!(
                    lc.case.template_index(*r).is_some(),
                    "{kind:?}: injected template missing from case data"
                );
            }
        }
    }

    #[test]
    fn negative_case_has_empty_truth() {
        let cfg = ScenarioConfig::default().with_seed(46);
        let base = generate_base(&cfg);
        let s = inject_none(&base, &cfg);
        let lc = label_batch(&s, 600, None);
        assert!(lc.is_negative());
        assert_eq!(lc.kind, None);
        assert!(lc.truth.rsqls.is_empty());
        assert!(lc.truth.hsqls.is_empty(), "no fabricated H-SQL on negatives");
        assert!(lc.window.anomaly_len() > 0, "window stays usable for diagnosis");
    }

    #[test]
    fn perturbed_case_keeps_ground_truth_and_stays_finite() {
        let cfg = ScenarioConfig::default().with_seed(47);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let clean = label_batch(&s, 600, None);
        let rough =
            label_batch(&s, 600, Some(&PerturbConfig::at_intensity(470, 0.8)));
        // Degradation never touches the truth...
        assert_eq!(rough.truth.rsqls, clean.truth.rsqls);
        assert_eq!(rough.injected, clean.injected);
        // ...but it does change the observation.
        assert!(rough.case.records.len() < clean.case.records.len());
        assert!(rough.case.instance_session().iter().all(|v| v.is_finite()));
        assert!(rough.window.window_len() > 0);
    }

    #[test]
    fn event_stream_covers_the_simulated_telemetry() {
        let cfg = ScenarioConfig::default().with_seed(49);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let (log, metrics) = simulate_telemetry(&s, None);
        let events = materialize_events(&s, None);
        let queries = events.iter().filter(|e| matches!(e, TelemetryEvent::Query(_))).count();
        let samples = events.iter().filter(|e| matches!(e, TelemetryEvent::Metrics(_))).count();
        assert_eq!(queries, log.len(), "every log record appears exactly once");
        assert_eq!(samples, metrics.len(), "every metric second appears exactly once");
        for pair in events.windows(2) {
            assert!(pair[0].time_ms() <= pair[1].time_ms(), "stream must be time-ordered");
        }
    }

    #[test]
    fn perturbing_simulated_telemetry_matches_a_fresh_simulation() {
        let cfg =
            ScenarioConfig::default().with_seed(50).with_businesses(4).with_window(300, 150, 210);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let (log, metrics) = simulate_telemetry(&s, None);
        for perturb in [None, Some(PerturbConfig::at_intensity(51, 0.6))] {
            let fresh = materialize_events(&s, perturb.as_ref());
            let reused = telemetry_events(log.clone(), metrics.clone(), perturb.as_ref());
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{perturb:?}");
        }
    }

    #[test]
    fn noop_perturbation_reproduces_the_clean_case() {
        let cfg = ScenarioConfig::default().with_seed(48);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::PoorSql);
        let clean = label_batch(&s, 600, None);
        let noop = label_batch(&s, 600, Some(&PerturbConfig::noop(1)));
        assert_eq!(noop.case.records.len(), clean.case.records.len());
        assert_eq!(noop.window, clean.window);
        assert_eq!(noop.truth.hsqls, clean.truth.hsqls);
    }
}
