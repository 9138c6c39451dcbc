//! Reproducible case-set generation (the ADAC stand-in).

use pinsql_scenario::{
    generate_base, inject, inject_many, materialize, materialize_with,
    AnomalyKind, LabeledCase, PerturbConfig, ScenarioConfig,
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

/// Builds one labelled case.
pub fn build_case(cfg: &CaseSetConfig, i: usize) -> LabeledCase {
    let kind = AnomalyKind::ALL[i % AnomalyKind::ALL.len()];
    let scenario_cfg = cfg.scenario.clone().with_seed(cfg.seed + i as u64);
    let base = generate_base(&scenario_cfg);
    let scenario = inject(&base, &scenario_cfg, kind);
    materialize(&scenario, cfg.delta_s)
}

/// Builds one labelled case of the given kinds (empty = negative case,
/// two or more = overlapping anomalies), with optional telemetry chaos.
pub fn build_case_with(
    cfg: &CaseSetConfig,
    i: usize,
    kinds: &[AnomalyKind],
    perturb: Option<&PerturbConfig>,
) -> LabeledCase {
    let scenario_cfg = cfg.scenario.clone().with_seed(cfg.seed + i as u64);
    let base = generate_base(&scenario_cfg);
    let scenario = inject_many(&base, &scenario_cfg, kinds);
    materialize_with(&scenario, cfg.delta_s, perturb)
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

        let clean = build_case(&cfg, 0);
        let perturb = PerturbConfig::at_intensity(780, 0.6);
        let noisy = build_case_with(&cfg, 0, &[clean.kind.unwrap()], Some(&perturb));
        assert_eq!(noisy.truth.rsqls, clean.truth.rsqls, "truth survives degradation");
        assert_ne!(
            noisy.case.records.len(),
            clean.case.records.len(),
            "observation degrades"
        );
    }
}
