//! Anomaly injection: the three R-SQL categories of §II.
//!
//! Every injector adds a *new root API* whose traffic is zero outside the
//! anomaly window (a `Step` rate event on a near-zero base), carrying the
//! root-cause template(s). Lock injectors additionally *amplify* the
//! victim business (the batch job calls the victim's APIs), reproducing
//! the real-world coupling that makes the R-SQL and its victims share a
//! business cluster.

use crate::gen::{BaseWorkload, ScenarioConfig};
use pinsql_dbsim::SimConfig;
use pinsql_workload::dag::{Api, Call};
use pinsql_workload::{
    CostProfile, EventShape, RateEvent, SpecId, TemplateSpec, TrafficPattern, Workload,
};
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};

/// The injected anomaly category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Category 1: business scenario change (QPS sudden increase).
    BusinessSpike,
    /// Category 2: poorly written SQL (huge scans, resource bottleneck).
    PoorSql,
    /// Category 3(i): metadata locks from a DDL stream.
    MdlLock,
    /// Category 3(ii): row locks from a batch-write stream.
    RowLock,
}

impl AnomalyKind {
    /// All four kinds, for round-robin case generation.
    pub const ALL: [AnomalyKind; 4] =
        [AnomalyKind::BusinessSpike, AnomalyKind::PoorSql, AnomalyKind::MdlLock, AnomalyKind::RowLock];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyKind::BusinessSpike => "business_spike",
            AnomalyKind::PoorSql => "poor_sql",
            AnomalyKind::MdlLock => "mdl_lock",
            AnomalyKind::RowLock => "row_lock",
        }
    }
}

/// A fully specified scenario, ready to simulate.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload *with* the injected anomaly (or the clean workload for
    /// a negative scenario).
    pub workload: Workload,
    /// The clean workload (history synthesis uses this).
    pub base_workload: Workload,
    pub sim: SimConfig,
    pub cfg: ScenarioConfig,
    /// The primary injected anomaly; `None` for a negative (no-anomaly)
    /// scenario. With overlapping injections, the first kind injected.
    pub kind: Option<AnomalyKind>,
    /// Every injected anomaly, in injection order; empty for negatives.
    pub injected: Vec<AnomalyKind>,
    /// Specs whose templates are the ground-truth R-SQLs.
    pub truth_rsql_specs: Vec<SpecId>,
    /// The business whose table the lock injectors target (if any).
    pub victim_business: Option<usize>,
}

impl Scenario {
    /// True when no anomaly was injected (pure-noise negative case).
    pub fn is_negative(&self) -> bool {
        self.injected.is_empty()
    }
}

/// Builds a scenario: base workload + injected anomaly of `kind`.
pub fn inject(base: &BaseWorkload, cfg: &ScenarioConfig, kind: AnomalyKind) -> Scenario {
    inject_many(base, cfg, &[kind])
}

/// Builds a *negative* scenario: the clean workload, no injected anomaly.
/// The diagnosis pipeline should report nothing on such a case.
pub fn inject_none(base: &BaseWorkload, cfg: &ScenarioConfig) -> Scenario {
    inject_many(base, cfg, &[])
}

/// Builds a scenario with zero or more injected anomalies.
///
/// The first kind is injected over the configured anomaly window; each
/// subsequent kind over a window staggered to *overlap* the first (starting
/// at its midpoint), reproducing concurrent production incidents. With one
/// kind this is byte-identical to the historical single-kind `inject` —
/// the RNG draw order is unchanged, so existing seeds keep their scenarios.
pub fn inject_many(base: &BaseWorkload, cfg: &ScenarioConfig, kinds: &[AnomalyKind]) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(7));
    let mut w = base.workload.clone();
    let mut truth = Vec::new();
    let mut victim_business = None;

    let len = cfg.anomaly_end - cfg.anomaly_start;
    for (i, &kind) in kinds.iter().enumerate() {
        let window = if i == 0 {
            (cfg.anomaly_start, cfg.anomaly_end)
        } else {
            // Overlap: start at the first window's midpoint, run up to half
            // a window past its end (clamped to the simulated horizon).
            let start = cfg.anomaly_start + len / 2;
            let end = (cfg.anomaly_end + len / 2).min(cfg.window_s);
            (start, end.max(start + 1))
        };
        apply_injection(&mut w, base, kind, window, &mut rng, &mut truth, &mut victim_business);
    }

    debug_assert!(w.dag.validate(w.specs.len()).is_ok());
    Scenario {
        workload: w,
        base_workload: base.workload.clone(),
        sim: SimConfig {
            cores: cfg.cores,
            io_channels: cfg.io_channels,
            max_sessions: 100_000,
            pfs: Default::default(),
            seed: cfg.seed ^ 0x5bd1e995,
        },
        cfg: cfg.clone(),
        kind: kinds.first().copied(),
        injected: kinds.to_vec(),
        truth_rsql_specs: truth,
        victim_business,
    }
}

/// Adds one anomaly of `kind` over `window = (start, end)` seconds to the
/// workload, recording its ground-truth specs and (for locks) the victim
/// business.
fn apply_injection(
    w: &mut Workload,
    base: &BaseWorkload,
    kind: AnomalyKind,
    window: (i64, i64),
    rng: &mut StdRng,
    truth: &mut Vec<SpecId>,
    victim_business: &mut Option<usize>,
) {
    // The injected root is silent outside the window: near-zero base with a
    // huge step multiplier.
    let step = |mult: f64| RateEvent {
        start: window.0,
        end: window.1,
        multiplier: mult,
        shape: EventShape::Step,
    };
    let silent_base = 1e-4;
    let active_rate = |rate: f64| {
        TrafficPattern::steady(silent_base).with_noise(0.0).with_event(step(rate / silent_base))
    };

    match kind {
        AnomalyKind::BusinessSpike => {
            // A new feature launches: two new, moderately heavy templates
            // at a rate that oversubscribes the CPU.
            let biz = rng.random_range(0..base.businesses.len());
            let table = base.businesses[biz].table;
            let tname = w.tables[table.0].name.clone();
            let uniq = w.specs.len();
            let s1 = SpecId(w.specs.len());
            w.specs.push(TemplateSpec::new(
                &format!("SELECT col_{uniq}, col_y FROM {tname} WHERE k_{uniq} > 1 AND k_{uniq} < 2"),
                CostProfile::range_read(table, 14_000.0), // ~7.4 ms CPU
                format!("inject.spike_read_{uniq}"),
            ));
            let uniq2 = w.specs.len();
            let s2 = SpecId(w.specs.len());
            w.specs.push(TemplateSpec::new(
                &format!("UPDATE {tname} SET col_{uniq2} = 1 WHERE id = 4"),
                CostProfile::point_write(table),
                format!("inject.spike_write_{uniq2}"),
            ));
            let api = w.dag.push(
                Api::named("inject_spike")
                    .query(Call::once(s1))
                    .query(Call::maybe(s2, 0.5)),
            );
            // ~160 invocations/s × 7.4 ms ≈ 1.2 cores of extra CPU load on
            // a 2-core instance that idles around 15 %.
            w.roots.push((api, active_rate(rng.random_range(140.0..190.0))));
            truth.push(s1);
            truth.push(s2);
        }
        AnomalyKind::PoorSql => {
            // A bad deploy ships an unindexed scan.
            let biz = rng.random_range(0..base.businesses.len());
            let table = base.businesses[biz].table;
            let tname = w.tables[table.0].name.clone();
            let uniq = w.specs.len();
            let s = SpecId(w.specs.len());
            let scanned = rng.random_range(90_000.0..160_000.0); // ~225–400 ms CPU
            w.specs.push(TemplateSpec::new(
                &format!("SELECT col_{uniq} FROM {tname} WHERE note_{uniq} LIKE 1"),
                CostProfile::poor_scan(table, scanned),
                format!("inject.poor_scan_{uniq}"),
            ));
            let api = w.dag.push(Api::named("inject_poor").query(Call::once(s)));
            w.roots.push((api, active_rate(rng.random_range(8.0..12.0))));
            truth.push(s);
        }
        AnomalyKind::MdlLock | AnomalyKind::RowLock => {
            // A batch/maintenance job targets one busy business's table:
            // the blocker statement plus amplified calls of the victim's
            // own APIs (the job reads through the existing services).
            let biz = rng.random_range(0..base.businesses.len());
            *victim_business = Some(biz);
            let business = &base.businesses[biz];
            let table = business.table;
            let tname = w.tables[table.0].name.clone();
            let uniq = w.specs.len();
            let s = SpecId(w.specs.len());
            let (spec, blocker_prob, root_rate) = match kind {
                AnomalyKind::MdlLock => (
                    TemplateSpec::new(
                        &format!("ALTER TABLE {tname} ADD COLUMN mig_{uniq} INT"),
                        CostProfile::ddl(table, rng.random_range(2_500.0..4_500.0)),
                        format!("inject.ddl_{uniq}"),
                    ),
                    0.05,
                    rng.random_range(2.5..4.0),
                ),
                AnomalyKind::RowLock => (
                    TemplateSpec::new(
                        &format!("UPDATE {tname} SET col_{uniq} = 1 WHERE grp_{uniq} = 2"),
                        CostProfile::batch_write(table, 30, rng.random_range(500.0..900.0)),
                        format!("inject.batch_write_{uniq}"),
                    ),
                    0.35,
                    rng.random_range(2.5..4.0),
                ),
                _ => unreachable!(),
            };
            w.specs.push(spec);
            let mut api = Api::named("inject_batch").query(Call::maybe(s, blocker_prob));
            // Amplify the victim's own child APIs: the batch pipeline calls
            // them, so victim templates' #execution rises with the blocker.
            let amplified: Vec<_> = business
                .apis
                .iter()
                .filter(|&&a| a != business.root)
                .copied()
                .collect();
            for &child in amplified.iter().take(2) {
                api = api.child(Call::times(child, 2));
            }
            if amplified.is_empty() {
                api = api.child(Call::once(business.root));
            }
            let api = w.dag.push(api);
            w.roots.push((api, active_rate(root_rate)));
            truth.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_base;

    fn scenario(kind: AnomalyKind, seed: u64) -> Scenario {
        let cfg = ScenarioConfig::default().with_seed(seed);
        let base = generate_base(&cfg);
        inject(&base, &cfg, kind)
    }

    #[test]
    fn injection_adds_specs_and_roots() {
        for kind in AnomalyKind::ALL {
            let cfg = ScenarioConfig::default().with_seed(1);
            let base = generate_base(&cfg);
            let s = inject(&base, &cfg, kind);
            assert!(s.workload.specs.len() > base.workload.specs.len(), "{kind:?}");
            assert_eq!(s.workload.roots.len(), base.workload.roots.len() + 1);
            assert!(!s.truth_rsql_specs.is_empty());
            assert!(s.workload.dag.validate(s.workload.specs.len()).is_ok());
        }
    }

    #[test]
    fn injected_root_is_silent_outside_window() {
        for kind in AnomalyKind::ALL {
            let s = scenario(kind, 2);
            let (_, pattern) = s.workload.roots.last().unwrap();
            assert!(pattern.mean_rate(s.cfg.anomaly_start - 10) < 0.001, "{kind:?}");
            assert!(pattern.mean_rate(s.cfg.anomaly_start + 10) > 1.0, "{kind:?}");
            assert!(pattern.mean_rate(s.cfg.anomaly_end + 10) < 0.001, "{kind:?}");
        }
    }

    #[test]
    fn lock_kinds_record_victim_business() {
        assert!(scenario(AnomalyKind::MdlLock, 3).victim_business.is_some());
        assert!(scenario(AnomalyKind::RowLock, 3).victim_business.is_some());
        assert!(scenario(AnomalyKind::PoorSql, 3).victim_business.is_none());
    }

    #[test]
    fn truth_specs_reference_new_templates() {
        for kind in AnomalyKind::ALL {
            let cfg = ScenarioConfig::default().with_seed(4);
            let base = generate_base(&cfg);
            let s = inject(&base, &cfg, kind);
            for spec in &s.truth_rsql_specs {
                assert!(spec.0 >= base.workload.specs.len(), "{kind:?}");
                assert!(spec.0 < s.workload.specs.len());
            }
        }
    }

    #[test]
    fn inject_none_is_the_clean_workload() {
        let cfg = ScenarioConfig::default().with_seed(6);
        let base = generate_base(&cfg);
        let s = inject_none(&base, &cfg);
        assert!(s.is_negative());
        assert_eq!(s.kind, None);
        assert!(s.injected.is_empty());
        assert!(s.truth_rsql_specs.is_empty());
        assert_eq!(s.workload.specs.len(), base.workload.specs.len());
        assert_eq!(s.workload.roots.len(), base.workload.roots.len());
    }

    #[test]
    fn inject_many_single_kind_matches_inject() {
        // The refactor must keep existing seeds' scenarios: inject() and
        // inject_many(&[kind]) consume the RNG identically.
        for kind in AnomalyKind::ALL {
            let cfg = ScenarioConfig::default().with_seed(7);
            let base = generate_base(&cfg);
            let a = inject(&base, &cfg, kind);
            let b = inject_many(&base, &cfg, &[kind]);
            assert_eq!(a.truth_rsql_specs, b.truth_rsql_specs, "{kind:?}");
            assert_eq!(a.victim_business, b.victim_business, "{kind:?}");
            assert_eq!(a.workload.specs.len(), b.workload.specs.len(), "{kind:?}");
            assert_eq!(a.kind, Some(kind));
            assert_eq!(b.injected, vec![kind]);
        }
    }

    #[test]
    fn overlapping_injection_staggers_the_second_window() {
        let cfg = ScenarioConfig::default().with_seed(8);
        let base = generate_base(&cfg);
        let s = inject_many(&base, &cfg, &[AnomalyKind::BusinessSpike, AnomalyKind::RowLock]);
        assert_eq!(s.injected.len(), 2);
        assert_eq!(s.kind, Some(AnomalyKind::BusinessSpike));
        assert!(s.victim_business.is_some(), "second (lock) injection records victim");
        assert_eq!(s.workload.roots.len(), base.workload.roots.len() + 2);
        assert!(s.truth_rsql_specs.len() >= 3, "both injections contribute truth specs");
        // Second root is active at the first window's midpoint AND past its
        // end — the windows overlap rather than repeat.
        let (_, second) = s.workload.roots.last().unwrap();
        let mid = (cfg.anomaly_start + cfg.anomaly_end) / 2;
        assert!(second.mean_rate(mid + 10) > 1.0);
        assert!(second.mean_rate(cfg.anomaly_end + 10) > 1.0);
        assert!(second.mean_rate(cfg.anomaly_start + 10) < 0.001);
        assert!(s.workload.dag.validate(s.workload.specs.len()).is_ok());
    }

    #[test]
    fn lock_injection_amplifies_victim_templates() {
        let mut sweep = Vec::new();
        for seed in 5..15 {
            let s = scenario(AnomalyKind::RowLock, seed);
            let biz = s.victim_business.unwrap();
            let cfg = ScenarioConfig::default().with_seed(seed);
            let base = generate_base(&cfg);
            let victim_specs = &base.businesses[biz].specs;
            // Expected victim rates rise during the anomaly relative to before.
            let spec_rates = s.workload.spec_rates();
            let rate_at = |t: i64| -> f64 {
                let rates = spec_rates.at(t);
                victim_specs.iter().map(|s2| rates[s2.0]).sum()
            };
            sweep.push((seed, biz, rate_at(100), rate_at(cfg.anomaly_start + 50)));
        }
        let amplified =
            sweep.iter().filter(|(.., before, during)| *during > before * 1.2).count();
        assert!(amplified >= 8, "amplification on {amplified} of 10 seeds: {sweep:.1?}");
    }
}
