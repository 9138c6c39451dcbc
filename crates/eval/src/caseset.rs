//! Reproducible case-set generation (the ADAC stand-in).
//!
//! Every case an experiment scores is cut by the online engine, the
//! streaming aggregator a deployment runs ([`label_online`]): the scenario
//! is simulated, its telemetry (degraded by the chaos layer, if asked)
//! streams through one `OnlineInstance`, and closing the instance selects,
//! cuts and labels the case. Telemetry that comes with no scenario — a
//! re-simulation, a synthetic timing case — is cut by the collector alone
//! ([`cut_telemetry`]). An experiment that reads one simulation several
//! times (at several perturbations, in several phases) runs it once and
//! labels clones of it ([`label_simulated`]).

use pinsql_collector::{CaseData, IncrementalAggregator, IncrementalConfig};
use pinsql_dbsim::{interleave, run_open_loop, InstanceMetrics, QueryRecord, SimOutput};
use pinsql_engine::OnlineInstance;
use pinsql_workload::TemplateSpec;
use pinsql_scenario::{
    generate_base, inject_many, telemetry_events, AnomalyKind, LabeledCase, PerturbConfig,
    Scenario, ScenarioConfig,
};

/// Case-set sizing.
#[derive(Debug, Clone)]
pub struct CaseSetConfig {
    /// Number of cases (paper: 168). Kinds rotate round-robin.
    pub n_cases: usize,
    /// Base seed; case `i` uses `seed + i`.
    pub seed: u64,
    /// The scenario template each case varies.
    pub scenario: ScenarioConfig,
    /// Collection look-back δ_s handed to the diagnoser.
    pub delta_s: i64,
}

impl Default for CaseSetConfig {
    fn default() -> Self {
        Self { n_cases: 168, seed: 1000, scenario: ScenarioConfig::default(), delta_s: 600 }
    }
}

impl CaseSetConfig {
    /// Builder-style case-count override.
    pub fn with_cases(mut self, n: usize) -> Self {
        self.n_cases = n;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The labelled case the online engine cuts from `scenario` under
/// look-back `delta_s`: the simulated telemetry, degraded by `perturb` if
/// given, streamed through one instance, which closes the case.
pub fn label_online(
    scenario: &Scenario,
    delta_s: i64,
    perturb: Option<&PerturbConfig>,
) -> LabeledCase {
    let out = run_open_loop(&scenario.workload, &scenario.sim, 0, scenario.cfg.window_s);
    label_simulated(scenario, out, delta_s, perturb)
}

/// [`label_online`] over `scenario`'s telemetry as `run_open_loop` gave
/// it.
pub fn label_simulated(
    scenario: &Scenario,
    out: SimOutput,
    delta_s: i64,
    perturb: Option<&PerturbConfig>,
) -> LabeledCase {
    let mut instance = OnlineInstance::new(scenario, delta_s);
    instance.ingest_stream(telemetry_events(out.log, out.metrics, perturb));
    instance.close_case()
}

/// The case the online collector cuts for `[ts, te)` from a simulated log
/// and its metrics: the telemetry streams, in time order, through an
/// aggregator over `specs` that retains all of it.
pub fn cut_telemetry(
    specs: &[TemplateSpec],
    log: Vec<QueryRecord>,
    metrics: &InstanceMetrics,
    ts: i64,
    te: i64,
) -> CaseData {
    let retention = IncrementalConfig::default().with_retention(metrics.len() as i64 + 120);
    let mut aggregator = IncrementalAggregator::new(specs, retention);
    aggregator.ingest_drain(&mut interleave(log, metrics));
    aggregator.snapshot(ts, te)
}

/// Case `i`'s kind: the four rotate round-robin.
pub fn case_kind(i: usize) -> AnomalyKind {
    AnomalyKind::ALL[i % AnomalyKind::ALL.len()]
}

/// Case `i`'s scenario with `kinds` injected (empty = negative case, two
/// or more = overlapping anomalies).
pub fn case_scenario(cfg: &CaseSetConfig, i: usize, kinds: &[AnomalyKind]) -> Scenario {
    let scenario_cfg = cfg.scenario.clone().with_seed(cfg.seed + i as u64);
    inject_many(&generate_base(&scenario_cfg), &scenario_cfg, kinds)
}

/// Builds one labelled case of [`case_kind`].
pub fn build_case(cfg: &CaseSetConfig, i: usize) -> LabeledCase {
    build_case_with(cfg, i, &[case_kind(i)], None)
}

/// Builds one labelled case of the given kinds, with optional telemetry
/// chaos.
pub fn build_case_with(
    cfg: &CaseSetConfig,
    i: usize,
    kinds: &[AnomalyKind],
    perturb: Option<&PerturbConfig>,
) -> LabeledCase {
    label_online(&case_scenario(cfg, i, kinds), cfg.delta_s, perturb)
}

/// Builds the whole case set fanning out over `workers` threads (`0` =
/// all cores). Case `i` depends only on `seed + i`, so the produced set
/// is identical for every worker count.
pub fn build_cases_par(cfg: &CaseSetConfig, workers: usize) -> Vec<LabeledCase> {
    pinsql_timeseries::par_map(cfg.n_cases, workers, |i| build_case(cfg, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_kinds() {
        let cfg = CaseSetConfig::default().with_cases(4).with_seed(77);
        let cases = build_cases_par(&cfg, 1);
        assert_eq!(cases.len(), 4);
        let kinds: Vec<_> = cases.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, AnomalyKind::ALL.map(Some).to_vec());
        for c in &cases {
            assert!(!c.truth.rsqls.is_empty());
        }
    }

    #[test]
    fn negative_and_perturbed_builders() {
        let cfg = CaseSetConfig::default().with_cases(1).with_seed(78);
        let neg = build_case_with(&cfg, 0, &[], None);
        assert!(neg.is_negative());
        assert!(neg.truth.rsqls.is_empty());

        // One simulation, labelled clean and degraded.
        let scenario = case_scenario(&cfg, 0, &[case_kind(0)]);
        let out = run_open_loop(&scenario.workload, &scenario.sim, 0, scenario.cfg.window_s);
        let clean = label_simulated(&scenario, out.clone(), cfg.delta_s, None);
        let perturb = PerturbConfig::at_intensity(780, 0.6);
        let noisy = label_simulated(&scenario, out, cfg.delta_s, Some(&perturb));
        assert_eq!(clean.kind, Some(case_kind(0)));
        assert_eq!(noisy.truth.rsqls, clean.truth.rsqls, "truth survives degradation");
        assert_ne!(
            noisy.case.records.len(),
            clean.case.records.len(),
            "observation degrades"
        );
    }
}
