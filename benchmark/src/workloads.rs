//! The four fleet workloads and the pinned configuration they run under.
//!
//! A workload is a pure function of `(name, seed, scale)`: scenarios are
//! generated, simulated into per-instance telemetry streams
//! (`materialize_events`) and planned into the `PEVT` frame sequence a
//! source would send. The simulator is the load generator, not the system
//! under test — all of this is `setup_s`.

use pinsql::{PinSqlConfig, TransportPolicy};
use pinsql_dbsim::TelemetryEvent;
use pinsql_detect::{CutKind, KernelKind};
use pinsql_engine::{plan_frames, EventFrame, FleetConfig};
use pinsql_scenario::{
    generate_base, inject, inject_none, materialize_events, AnomalyKind, PerturbConfig, Scenario,
    ScenarioConfig,
};
use std::time::Instant;

/// Event-time cadence of the source's `Advance` marks.
pub const ADVANCE_EVERY_S: i64 = 60;

/// Mid-frame connection cuts in the `lifecycle` workload.
pub const LIFECYCLE_CUTS: usize = 20;

/// Default workload seed of `run.sh`.
pub const DEFAULT_SEED: u64 = 12000;

/// Seeds of the accuracy panel: every untraced run also builds its
/// workload's shape at these, whatever `--seed` says, and scores the
/// diagnoses against ground truth. Fixed seeds make the two accuracy
/// metrics repeat to the last digit, so that they can carry a bound at
/// all: over the handful of cases one seed yields, a hit rate moves by
/// tens of per cent from seed to seed. The timed reps run on these fleets
/// as well as on the run's own, for the same reason: what a handful of
/// cases cost to report differs by a fifth from seed to seed. Spaced so
/// that the per-instance seeds (`seed + i`) of two panel members never meet.
pub const PANEL_SEEDS: [u64; 3] = [12000, 12100, 12200];

/// One entry of the `BENCHMARK.json` workload table.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    instances: usize,
    n_business: usize,
    n_giants: usize,
    /// `(window_s, anomaly_start, anomaly_end)` at full scale.
    window: (i64, i64, i64),
    /// Injected kinds, cycled over instances; `None` is a negative case.
    kinds: &'static [Option<AnomalyKind>],
    /// Telemetry degradation intensity (0 = clean) — `lifecycle` only.
    perturb: f64,
    /// Mid-frame connection cuts, each followed by one control op.
    pub cuts: usize,
}

const MIXED: &[Option<AnomalyKind>] = &[
    Some(AnomalyKind::BusinessSpike),
    Some(AnomalyKind::PoorSql),
    Some(AnomalyKind::RowLock),
    None,
];

const WIDE: &[Option<AnomalyKind>] =
    &[Some(AnomalyKind::PoorSql), Some(AnomalyKind::RowLock), None];

/// The workload table, in `BENCHMARK.json` order. Sizes are chosen so one
/// driver run (four fleets, each with its set-up, reference run and two
/// warm-ups, and 22 measured seconds between them) stays near 33 s on two
/// cores; see the README for why each shape exists.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "steady_ingest",
        instances: 6,
        n_business: 16,
        n_giants: 2,
        window: (360, 200, 290),
        kinds: MIXED,
        perturb: 0.0,
        cuts: 0,
    },
    WorkloadSpec {
        name: "idle_fleet",
        instances: 16,
        n_business: 6,
        n_giants: 0,
        window: (360, 200, 290),
        kinds: MIXED,
        perturb: 0.0,
        cuts: 0,
    },
    WorkloadSpec {
        name: "wide_templates",
        instances: 3,
        n_business: 64,
        n_giants: 2,
        window: (300, 160, 240),
        kinds: WIDE,
        perturb: 0.0,
        cuts: 0,
    },
    WorkloadSpec {
        name: "lifecycle",
        instances: 4,
        n_business: 16,
        n_giants: 2,
        window: (360, 200, 290),
        kinds: MIXED,
        perturb: 0.2,
        cuts: LIFECYCLE_CUTS,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pinned engine configuration: one shard, one fan-out worker, one
/// region, so the only threads are the harness's own source and agent.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        delta_s: 300,
        pinsql: PinSqlConfig::default().with_parallelism(1).with_cut(CutKind::Incremental),
        fanout: 1,
        shards: 1,
        kernel: KernelKind::Fast,
        regions: 1,
    }
}

pub fn policy() -> TransportPolicy {
    TransportPolicy::default()
}

/// Generated inputs of one workload, ready to drive.
pub struct Inputs {
    pub scenarios: Vec<Scenario>,
    /// Per-instance time-ordered telemetry, instance-id order.
    pub streams: Vec<Vec<TelemetryEvent>>,
    /// The source's planned frame sequence over `streams`.
    pub frames: Vec<EventFrame>,
    pub perturbed: bool,
    pub generate_s: f64,
    pub materialize_s: f64,
    pub plan_s: f64,
}

impl Inputs {
    pub fn events(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.materialize_s + self.plan_s
    }
}

impl WorkloadSpec {
    /// Builds the workload's inputs from `seed`. `quick` shrinks window
    /// and instance count to a quarter for the smoke run.
    pub fn build(&self, seed: u64, quick: bool) -> Inputs {
        let (instances, window) = if quick {
            let (w, a, e) = self.window;
            (self.instances.div_ceil(4).max(2), (w / 4 + 180, a / 4 + 120, e / 4 + 150))
        } else {
            (self.instances, self.window)
        };

        let t0 = Instant::now();
        let scenarios: Vec<Scenario> = (0..instances)
            .map(|i| {
                let mut cfg = ScenarioConfig::default()
                    .with_seed(seed + i as u64)
                    .with_businesses(self.n_business)
                    .with_window(window.0, window.1, window.2);
                cfg.n_giants = self.n_giants;
                let base = generate_base(&cfg);
                match self.kinds[i % self.kinds.len()] {
                    Some(kind) => inject(&base, &cfg, kind),
                    None => inject_none(&base, &cfg),
                }
            })
            .collect();
        let generate_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let streams: Vec<Vec<TelemetryEvent>> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let perturb = (self.perturb > 0.0)
                    .then(|| PerturbConfig::at_intensity(seed + 1000 + i as u64, self.perturb));
                materialize_events(sc, perturb.as_ref())
            })
            .collect();
        let materialize_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let frames = plan_frames(&streams, &policy(), ADVANCE_EVERY_S);
        let plan_s = t2.elapsed().as_secs_f64();

        Inputs {
            scenarios,
            streams,
            frames,
            perturbed: self.perturb > 0.0,
            generate_s,
            materialize_s,
            plan_s,
        }
    }
}

/// Highest event count any single event-time second carries across the
/// fleet — the quantity the issue's sufficient condition against the
/// hang hazard is stated in (see the README).
pub fn busiest_second_events(streams: &[Vec<TelemetryEvent>]) -> u64 {
    let mut per_second: std::collections::BTreeMap<i64, u64> = std::collections::BTreeMap::new();
    for ev in streams.iter().flatten() {
        *per_second.entry((ev.time_ms() / 1000.0).floor() as i64).or_default() += 1;
    }
    per_second.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn shim_rand_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| rng.random::<u64>()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(draw(0)[0], 0, "seed 0 must not be the all-zero xoshiro state");
    }

    #[test]
    fn shim_random_range_stays_in_range_at_integer_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((u64::MAX - 1..=u64::MAX).contains(&rng.random_range(u64::MAX - 1..=u64::MAX)));
            assert_eq!(rng.random_range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
            assert_eq!(rng.random_range(5..=5usize), 5);
            assert!(rng.random_range(0..3u32) < 3);
            assert!((u32::MAX - 2..=u32::MAX).contains(&rng.random_range(u32::MAX - 2..=u32::MAX)));
            let x = rng.random_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x));
            let unit: f64 = rng.random();
            assert!((0.0..1.0).contains(&unit));
        }
        // The whole of u64 is a legal inclusive range.
        let _: u64 = rng.random_range(0..=u64::MAX);
        // Every value of a small range turns up.
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.random_range(0..3usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn a_workload_is_a_pure_function_of_its_seed() {
        let spec = find("idle_fleet").unwrap();
        let (a, b, c) = (spec.build(5, true), spec.build(5, true), spec.build(6, true));
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.frames, b.frames);
        assert_ne!(a.streams, c.streams);
        assert!(a.events() > 0 && !a.perturbed);
        assert!(find("lifecycle").unwrap().build(5, true).perturbed);
    }

    #[test]
    fn busiest_second_counts_across_the_fleet() {
        let tick = |second| TelemetryEvent::Tick { second };
        let streams = vec![vec![tick(1), tick(2), tick(2)], vec![tick(2), tick(3)]];
        assert_eq!(busiest_second_events(&streams), 3);
        assert_eq!(busiest_second_events(&[]), 0);
    }
}
