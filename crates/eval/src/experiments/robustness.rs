//! Robustness — accuracy vs. telemetry-degradation intensity.
//!
//! Production telemetry is never as clean as a simulator's: collectors
//! drop and duplicate log records, agents blank out seconds of metrics,
//! clocks skew. This experiment degrades materialized telemetry through
//! the scenario chaos layer at increasing intensity and re-runs the full
//! PinSQL pipeline, producing one accuracy-vs-intensity curve per anomaly
//! kind plus an overlapping-anomaly group, and a false-positive curve over
//! pure-noise negative cases. Ground truth always comes from the scenario
//! (what was injected), so the curves measure exactly how much observation
//! damage the diagnosis survives.
//!
//! Cases are paired across intensities: cell `(group, i)` reads one
//! simulation of one scenario at every intensity and only the perturbation
//! seed varies, so a curve's decay is attributable to degradation, not
//! case variance.

use crate::caseset::{case_scenario, label_simulated, CaseSetConfig};
use crate::methods::split_parallelism;
use crate::metrics::{first_hit_rank, RankSummary};
use pinsql::{PinSql, PinSqlConfig};
use pinsql_dbsim::{run_open_loop, SimOutput};
use pinsql_scenario::{AnomalyKind, PerturbConfig, Scenario};
use pinsql_sqlkit::SqlId;
use pinsql_timeseries::par_map;
use std::time::Instant;

/// Sizing and sweep shape.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Scenario template, base seed, and δ_s (the `n_cases` field is
    /// ignored; sizing comes from `cases_per_cell`).
    pub base: CaseSetConfig,
    /// Cases per (group, intensity) cell.
    pub cases_per_cell: usize,
    /// Degradation intensities swept, in `[0, 1]` (0 = clean telemetry).
    pub intensities: Vec<f64>,
    /// Pure-noise negative cases per intensity.
    pub negative_cases: usize,
    /// Also sweep an overlapping-anomaly group (spike + row locks).
    pub overlap: bool,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            base: CaseSetConfig::default(),
            cases_per_cell: 8,
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            negative_cases: 8,
            overlap: true,
        }
    }
}

/// One point of an accuracy-vs-intensity curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    pub intensity: f64,
    pub n_cases: usize,
    pub rsql: RankSummary,
    pub hsql: RankSummary,
    /// Fraction of cases where the detector found an anomaly window in the
    /// degraded metrics (else the case is the whole stream).
    pub detected_rate: f64,
    /// Fraction of cases where PinSQL asserted at least one R-SQL (the
    /// `reported_rsqls` gate, not the evaluation-only full ranking).
    pub reported_rate: f64,
}

/// One anomaly group's curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// `AnomalyKind::label()` for single kinds, `"overlap"` for the
    /// two-anomaly group.
    pub kind: String,
    pub points: Vec<CurvePoint>,
}

/// False-positive behaviour on pure-noise cases at one intensity.
#[derive(Debug, Clone)]
pub struct NegativePoint {
    pub intensity: f64,
    pub n_cases: usize,
    /// Fraction where the detector fired despite no injected anomaly.
    pub detect_fp_rate: f64,
    /// Fraction where PinSQL *asserted* an R-SQL despite no injected
    /// anomaly — the headline false-positive number.
    pub report_fp_rate: f64,
}

/// The full experiment output (`results/robustness.json`).
#[derive(Debug, Clone)]
pub struct Robustness {
    pub curves: Vec<Curve>,
    pub negatives: Vec<NegativePoint>,
    pub cases_per_cell: usize,
    /// Resolved per-case fan-out the sweep was produced with.
    pub parallelism: usize,
}

/// The anomaly groups swept: the four single kinds, plus an overlap group.
fn groups(cfg: &RobustnessConfig) -> Vec<(String, Vec<AnomalyKind>)> {
    let mut out: Vec<(String, Vec<AnomalyKind>)> = AnomalyKind::ALL
        .iter()
        .map(|k| (k.label().to_string(), vec![*k]))
        .collect();
    if cfg.overlap {
        out.push((
            "overlap".to_string(),
            vec![AnomalyKind::BusinessSpike, AnomalyKind::RowLock],
        ));
    }
    out
}

/// Perturbation seed for cell `(group g, intensity ii, case ci)` — distinct
/// from every scenario seed and from every other cell's.
fn perturb_seed(base_seed: u64, g: usize, ii: usize, ci: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(((g * 131 + ii) * 131 + ci) as u64)
}

/// Runs the sweep using all available cores.
pub fn run(cfg: &RobustnessConfig) -> Robustness {
    run_par(cfg, 0)
}

/// [`run`] with an explicit parallelism knob (`0` = all cores, `1` =
/// serial). Cells are independent and merged by index, so the output is
/// identical for every value.
pub fn run_par(cfg: &RobustnessConfig, parallelism: usize) -> Robustness {
    run_with(cfg, parallelism, &|s| run_open_loop(&s.workload, &s.sim, 0, s.cfg.window_s))
}

/// [`run_par`] over the scenarios' simulations as `simulated` gives them.
fn run_with(
    cfg: &RobustnessConfig,
    parallelism: usize,
    simulated: &(dyn Fn(&Scenario) -> SimOutput + Sync),
) -> Robustness {
    let (workers, inner) = split_parallelism(parallelism);
    let pin_cfg = PinSqlConfig::default().with_parallelism(inner);
    let groups = groups(cfg);
    let n_int = cfg.intensities.len();
    let cases = cfg.cases_per_cell;

    // --- Positive cells: each scenario simulated once, then perturbed,
    // labelled and diagnosed at every intensity; index = g * cases + ci.
    let per_scenario = par_map(groups.len() * cases, workers, |idx| {
        let (g, ci) = (idx / cases, idx % cases);
        // Scenario seed depends on (g, ci) only — paired across intensities.
        let scenario = case_scenario(&cfg.base, g * cases + ci, &groups[g].1);
        let out = simulated(&scenario);
        (0..n_int)
            .map(|ii| {
                let p = PerturbConfig::at_intensity(
                    perturb_seed(cfg.base.seed, g, ii, ci),
                    cfg.intensities[ii],
                );
                let lc = label_simulated(&scenario, out.clone(), cfg.base.delta_s, Some(&p));
                let t0 = Instant::now();
                let d = PinSql::new(pin_cfg.clone()).diagnose(
                    &lc.case,
                    &lc.window,
                    &lc.history,
                    lc.minutes_origin,
                );
                let time_s = t0.elapsed().as_secs_f64();
                let rids: Vec<SqlId> = d.rsqls.iter().map(|r| r.id).collect();
                let hids: Vec<SqlId> = d.hsqls.iter().map(|r| r.id).collect();
                (
                    first_hit_rank(&rids, &lc.truth.rsqls),
                    first_hit_rank(&hids, &lc.truth.hsqls),
                    time_s,
                    lc.detected,
                    !d.reported_rsqls.is_empty(),
                )
            })
            .collect::<Vec<_>>()
    });

    let mut curves = Vec::new();
    for (g, (name, _)) in groups.iter().enumerate() {
        let mut points = Vec::new();
        for (ii, &intensity) in cfg.intensities.iter().enumerate() {
            let scenarios = &per_scenario[g * cases..(g + 1) * cases];
            let cell: Vec<_> = scenarios.iter().map(|c| c[ii]).collect();
            let r_ranks: Vec<_> = cell.iter().map(|c| c.0).collect();
            let h_ranks: Vec<_> = cell.iter().map(|c| c.1).collect();
            let times: Vec<_> = cell.iter().map(|c| c.2).collect();
            let rate = |hits: usize| hits as f64 / cases.max(1) as f64;
            points.push(CurvePoint {
                intensity,
                n_cases: cases,
                rsql: RankSummary::from_ranks(&r_ranks, &times),
                hsql: RankSummary::from_ranks(&h_ranks, &times),
                detected_rate: rate(cell.iter().filter(|c| c.3).count()),
                reported_rate: rate(cell.iter().filter(|c| c.4).count()),
            });
        }
        curves.push(Curve { kind: name.clone(), points });
    }

    // --- Negative cells, the same way: index = ci.
    let negs = cfg.negative_cases;
    let per_neg = par_map(negs, workers, |ci| {
        // Scenario seeds continue past the positive groups' range.
        let scenario = case_scenario(&cfg.base, groups.len() * cases + ci, &[]);
        let out = simulated(&scenario);
        (0..n_int)
            .map(|ii| {
                let p = PerturbConfig::at_intensity(
                    perturb_seed(cfg.base.seed, groups.len(), ii, ci),
                    cfg.intensities[ii],
                );
                let lc = label_simulated(&scenario, out.clone(), cfg.base.delta_s, Some(&p));
                let d = PinSql::new(pin_cfg.clone()).diagnose(
                    &lc.case,
                    &lc.window,
                    &lc.history,
                    lc.minutes_origin,
                );
                (lc.detected, !d.reported_rsqls.is_empty())
            })
            .collect::<Vec<_>>()
    });
    let negatives = cfg
        .intensities
        .iter()
        .enumerate()
        .map(|(ii, &intensity)| {
            let cell: Vec<_> = per_neg.iter().map(|c| c[ii]).collect();
            NegativePoint {
                intensity,
                n_cases: negs,
                detect_fp_rate: cell.iter().filter(|c| c.0).count() as f64 / negs.max(1) as f64,
                report_fp_rate: cell.iter().filter(|c| c.1).count() as f64 / negs.max(1) as f64,
            }
        })
        .collect();

    Robustness { curves, negatives, cases_per_cell: cases, parallelism: workers }
}

impl std::fmt::Display for Robustness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Robustness — PinSQL accuracy vs. telemetry degradation ({} cases/cell)",
            self.cases_per_cell
        )?;
        writeln!(
            f,
            "{:<16} {:>5} | {:>6} {:>6} {:>6} | {:>6} {:>6} | {:>5} {:>5}",
            "Kind", "int", "R-H@1", "R-H@5", "R-MRR", "H-H@1", "H-MRR", "det%", "rep%"
        )?;
        writeln!(f, "{}", "-".repeat(78))?;
        for c in &self.curves {
            for p in &c.points {
                writeln!(
                    f,
                    "{:<16} {:>5.2} | {:>6.1} {:>6.1} {:>6.2} | {:>6.1} {:>6.2} | {:>5.0} {:>5.0}",
                    c.kind,
                    p.intensity,
                    p.rsql.hits_at_1 * 100.0,
                    p.rsql.hits_at_5 * 100.0,
                    p.rsql.mrr,
                    p.hsql.hits_at_1 * 100.0,
                    p.hsql.mrr,
                    p.detected_rate * 100.0,
                    p.reported_rate * 100.0,
                )?;
            }
        }
        writeln!(f, "Negative (no-anomaly) cases:")?;
        for n in &self.negatives {
            writeln!(
                f,
                "{:<16} {:>5.2} | detect-FP {:>5.1}%  report-FP {:>5.1}%  (n = {})",
                "negative", n.intensity, n.detect_fp_rate * 100.0, n.report_fp_rate * 100.0, n.n_cases
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_scenario::ScenarioConfig;

    #[test]
    fn robustness_smoke() {
        // Tiny sweep: 1 case per cell, two intensities, small scenario.
        // Checks structure and finiteness, not accuracy — the full-size
        // sweep lives behind the bench binary.
        let cfg = RobustnessConfig {
            base: CaseSetConfig {
                n_cases: 0,
                seed: 4200,
                scenario: ScenarioConfig::default()
                    .with_businesses(6)
                    .with_window(600, 360, 480),
                delta_s: 240,
            },
            cases_per_cell: 1,
            intensities: vec![0.0, 0.75],
            negative_cases: 1,
            overlap: true,
        };
        let r = run(&cfg);
        assert_eq!(r.curves.len(), 5, "four kinds plus the overlap group");
        let kinds: Vec<_> = r.curves.iter().map(|c| c.kind.as_str()).collect();
        assert!(kinds.contains(&"business_spike"));
        assert!(kinds.contains(&"overlap"));
        for c in &r.curves {
            assert_eq!(c.points.len(), 2);
            for p in &c.points {
                assert!((0.0..=1.0).contains(&p.rsql.hits_at_1), "{}: {:?}", c.kind, p);
                assert!((0.0..=1.0).contains(&p.hsql.hits_at_1));
                assert!(p.rsql.mrr.is_finite() && p.hsql.mrr.is_finite());
                assert!((0.0..=1.0).contains(&p.detected_rate));
                assert!((0.0..=1.0).contains(&p.reported_rate));
            }
        }
        assert_eq!(r.negatives.len(), 2);
        for n in &r.negatives {
            assert!((0.0..=1.0).contains(&n.detect_fp_rate));
            assert!((0.0..=1.0).contains(&n.report_fp_rate));
        }
        let shown = r.to_string();
        assert!(shown.contains("business_spike"));
        assert!(shown.contains("negative"));
    }

    #[test]
    fn sweep_is_deterministic_across_parallelism() {
        let cfg = RobustnessConfig {
            base: CaseSetConfig {
                n_cases: 0,
                seed: 4300,
                scenario: ScenarioConfig::default()
                    .with_businesses(6)
                    .with_window(600, 360, 480),
                delta_s: 240,
            },
            cases_per_cell: 1,
            intensities: vec![0.5],
            negative_cases: 1,
            overlap: false,
        };
        // Both sweeps read one simulation of each scenario.
        let sims = std::sync::Mutex::new(std::collections::BTreeMap::new());
        let simulated = |s: &Scenario| -> SimOutput {
            let mut sims = sims.lock().unwrap();
            let key = format!("{:?} {:?}", s.cfg, s.injected);
            let out = sims.entry(key);
            out.or_insert_with(|| run_open_loop(&s.workload, &s.sim, 0, s.cfg.window_s)).clone()
        };
        let serial = run_with(&cfg, 1, &simulated);
        let parallel = run_with(&cfg, 0, &simulated);
        let strip = |mut r: Robustness| {
            r.parallelism = 0;
            for c in &mut r.curves {
                for p in &mut c.points {
                    p.rsql.mean_time_s = 0.0;
                    p.hsql.mean_time_s = 0.0;
                }
            }
            format!("{r:?}")
        };
        assert_eq!(strip(serial), strip(parallel));
    }
}
