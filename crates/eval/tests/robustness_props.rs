//! Property sweeps for the chaos layer end to end: whatever the
//! perturbation does to the telemetry, `diagnose` must neither panic nor
//! emit non-finite scores.
//!
//! Simulation is by far the expensive step, so each anomaly kind (plus a
//! negative scenario) is simulated exactly once and cached; every seeded
//! case then degrades a clone of the cached telemetry its own way and runs
//! the full pipeline on it — the online engine cuts the case, as it does
//! for every experiment. A failure names the seed.

use pinsql::{PinSql, PinSqlConfig};
use pinsql_dbsim::{run_open_loop, SimOutput};
use pinsql_engine::OnlineInstance;
use pinsql_eval::first_hit_rank;
use pinsql_scenario::{
    generate_base, inject, inject_none, telemetry_events, AnomalyKind, PerturbConfig, Scenario,
    ScenarioConfig,
};
use pinsql_sqlkit::SqlId;
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};
use std::sync::OnceLock;

const CASES: u64 = 256;

static SIMS: OnceLock<Vec<(Scenario, SimOutput)>> = OnceLock::new();

/// One cached simulation per anomaly kind, plus one negative (index 4).
fn sims() -> &'static [(Scenario, SimOutput)] {
    SIMS.get_or_init(|| {
        let cfg =
            ScenarioConfig::default().with_seed(9900).with_businesses(6).with_window(600, 360, 480);
        let base = generate_base(&cfg);
        let mut out = Vec::new();
        for kind in AnomalyKind::ALL {
            let s = inject(&base, &cfg, kind);
            let o = run_open_loop(&s.workload, &s.sim, 0, cfg.window_s);
            out.push((s, o));
        }
        let s = inject_none(&base, &cfg);
        let o = run_open_loop(&s.workload, &s.sim, 0, cfg.window_s);
        out.push((s, o));
        out
    })
}

/// Degrades cached telemetry and runs the full pipeline, asserting the
/// structural invariants that must hold no matter what the chaos did.
fn check_diagnosis(which: usize, p: &PerturbConfig) {
    let (scenario, sim) = &sims()[which];
    let mut instance = OnlineInstance::new(scenario, 240);
    instance.ingest_stream(telemetry_events(sim.log.clone(), sim.metrics.clone(), Some(p)));
    let lc = instance.close_case();
    assert!(lc.window.window_len() > 0, "window collapsed: {:?}", lc.window);
    assert!(lc.window.anomaly_len() > 0);
    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &lc.case,
        &lc.window,
        &lc.history,
        lc.minutes_origin,
    );
    for r in d.rsqls.iter().chain(d.hsqls.iter()).chain(d.reported_rsqls.iter()) {
        assert!(r.score.is_finite(), "non-finite score: {r:?}");
    }
    assert!(d.reported_rsqls.len() <= d.rsqls.len());
    // The evaluation path must also stay total on degraded output.
    let rids: Vec<SqlId> = d.rsqls.iter().map(|r| r.id).collect();
    let _ = first_hit_rank(&rids, &lc.truth.rsqls);
}

/// A value in `lo..=hi`; both ends turn up on purpose.
fn closed(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    match rng.random_range(0..8u32) {
        0 => lo,
        1 => hi,
        _ => rng.random_range(lo..hi),
    }
}

/// The single-knob sweep the robustness experiment uses.
#[test]
fn diagnose_never_panics_at_any_intensity() {
    sweep(0..CASES, |_, rng| {
        let which = rng.random_range(0..5usize);
        let intensity = closed(rng, 0.0, 1.0);
        check_diagnosis(which, &PerturbConfig::at_intensity(rng.random(), intensity));
    });
}

/// Arbitrary hand-built configs, beyond what `at_intensity` reaches
/// (heavier loss, bigger skews in both directions, independent knobs).
#[test]
fn diagnose_never_panics_on_arbitrary_perturbations() {
    sweep(0..CASES, |_, rng| {
        let which = rng.random_range(0..5usize);
        let p = PerturbConfig {
            seed: rng.random(),
            drop_prob: closed(rng, 0.0, 1.0),
            duplicate_prob: closed(rng, 0.0, 0.5),
            jitter_ms: closed(rng, 0.0, 60_000.0),
            clock_skew_ms: closed(rng, -30_000.0, 30_000.0),
            reorder: rng.random_range(0..2u32) == 1,
            metric_blank_prob: closed(rng, 0.0, 1.0),
        };
        check_diagnosis(which, &p);
    });
}
