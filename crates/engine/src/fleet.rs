//! Fleet runs: configuration, plans, reports, and the run-to-completion
//! drivers.
//!
//! A production deployment watches hundreds of instances at once:
//! telemetry from all of them arrives interleaved on a shared bus, each
//! instance's events fold into its own online pipeline, and diagnosis
//! fans out across the cases that close. The executor for that shape is
//! [`FleetDaemon`] (see [`crate::daemon`]: materialize → sharded k-way
//! merge → close, reassemble by instance id, diagnose). This module holds
//! what a *run* is made of — [`FleetConfig`], [`ReshardPlan`],
//! [`FleetCheckpoint`], [`FleetReport`] / [`FleetRun`] — and
//! [`FleetEngine`], whose run shapes are each a few calls on a daemon:
//!
//! | run shape | daemon calls |
//! |---|---|
//! | [`run_full`](FleetEngine::run_full) | `spawn`, `finish` (the empty plan) |
//! | [`run_resharded`](FleetEngine::run_resharded) | `spawn`; per step `advance_to(at_second)`, `reshard(&assignment)`; `finish` |
//! | [`checkpoint_at`](FleetEngine::checkpoint_at) | `spawn`, `advance_to(at_second)`, `checkpoint` |
//! | [`resume_full`](FleetEngine::resume_full) | `resume(&checkpoint)`, `finish` |
//!
//! **Determinism.** Instances are independent, every shard layout
//! preserves each instance's own event order, and a snapshot/restore
//! boundary is behaviorally invisible, so cases and diagnoses are
//! bit-identical for **any** `shards` / `fanout` values, **any** reshard
//! plan and **any** checkpoint boundary; the workspace's `equivalence`
//! matrix pins this against the golden corpus.

use crate::daemon::FleetDaemon;
use crate::snapshot::InstanceSnapshot;
use pinsql::{Diagnosis, PinSqlConfig};
use pinsql_detect::KernelKind;
use pinsql_obs::{FleetHealth, FleetRollup, NoopObserver, Observer};
use pinsql_scenario::{LabeledCase, Scenario};
use pinsql_timeseries::WireError;

/// Knobs for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Collection look-back δ_s prepended to each selected case window.
    pub delta_s: i64,
    /// Diagnoser configuration (its `parallelism` applies *inside* each
    /// diagnosis; `fanout` below is the across-instance knob).
    pub pinsql: PinSqlConfig,
    /// Worker threads for across-instance stages (materialize, diagnose);
    /// `0` = all cores.
    pub fanout: usize,
    /// Ingestion worker threads, each owning a disjoint set of instances.
    /// Must be ≥ 1; values above the instance count are clamped at run
    /// time. Outcomes are identical at every value.
    pub shards: usize,
    /// Detector statistics kernel for every instance's bank. Both kinds
    /// are bit-identical; the `equivalence` matrix runs kernel × shards ×
    /// fanout × cut against the golden corpus.
    pub kernel: KernelKind,
    /// Aggregation regions for the health rollup tree: instances map to
    /// regions by the same contiguous layout sharding uses, each region
    /// folds its own [`pinsql_obs::HealthRollup`], and the fleet total is
    /// the exact merge of the region rollups — `O(regions)` state at the
    /// control plane. Purely observational: outcomes never depend on it.
    /// Must be ≥ 1; values above the instance count are clamped.
    pub regions: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            delta_s: 600,
            pinsql: PinSqlConfig::default(),
            fanout: 0,
            shards: 1,
            kernel: KernelKind::default(),
            regions: 1,
        }
    }
}

/// One scheduled handoff inside a [`ReshardPlan`].
#[derive(Debug, Clone)]
pub struct ReshardStep {
    /// Quiesce boundary, in stream seconds. Every event with
    /// `time_ms() < at_second * 1000` folds *before* the handoff;
    /// everything at or after it folds on the new shard layout. The
    /// boundary is evaluated against event time, so it is exact whatever
    /// the shard count — there is no racey "drain" window.
    pub at_second: i64,
    /// `assignment[i]` = shard that owns instance `i` after the handoff.
    /// Length must equal the fleet size; shard ids may form any layout
    /// (more shards, fewer shards, permutations — empty shards are
    /// skipped).
    pub assignment: Vec<usize>,
}

/// A sequence of reshard steps with strictly increasing boundaries.
///
/// The empty plan is a plain static-sharding run; `run_full` is exactly
/// `run_resharded` with this default.
#[derive(Debug, Clone, Default)]
pub struct ReshardPlan {
    pub steps: Vec<ReshardStep>,
}

impl ReshardPlan {
    /// A one-step plan.
    pub fn single(at_second: i64, assignment: Vec<usize>) -> Self {
        Self { steps: vec![ReshardStep { at_second, assignment }] }
    }

    /// Panics on structurally invalid plans (programmer error, like
    /// `shards == 0`): boundaries not strictly increasing or an
    /// assignment whose length differs from the fleet size.
    fn validate(&self, n_instances: usize) {
        let mut prev = i64::MIN;
        for (i, step) in self.steps.iter().enumerate() {
            assert!(
                step.at_second > prev,
                "reshard step {i}: at_second {} not strictly increasing (previous {prev})",
                step.at_second
            );
            assert_eq!(
                step.assignment.len(),
                n_instances,
                "reshard step {i}: assignment covers {} instances, fleet has {n_instances}",
                step.assignment.len()
            );
            prev = step.at_second;
        }
    }
}

/// The whole fleet's online state frozen at one quiesce boundary —
/// everything needed to resume a run after a crash.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    /// The boundary the checkpoint was cut at: every event with
    /// `time_ms() < at_second * 1000` is inside the checkpoint; the tail
    /// from `at_second` on must be replayed.
    pub at_second: i64,
    /// One snapshot per instance, instance-id order.
    pub snapshots: Vec<InstanceSnapshot>,
}

impl FleetCheckpoint {
    /// Total serialized size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.snapshots.iter().map(InstanceSnapshot::len).sum()
    }
}

/// What happened on one instance, flattened for `results/fleet.json`.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    pub instance: usize,
    /// Injected anomaly kind label ("none" for negative scenarios).
    pub kind: String,
    pub seed: u64,
    /// Whether the online detectors raised the case (vs. hint fallback).
    pub detected: bool,
    pub anomaly_type: String,
    pub n_events: u64,
    pub n_queries: u64,
    pub case_seconds: usize,
    pub n_templates: usize,
    /// R-SQLs the diagnoser would assert (the reported list).
    pub n_reported: usize,
    /// Label of the top-ranked R-SQL, if any candidate was ranked.
    pub top_rsql: Option<String>,
    /// True when the top-ranked R-SQL is one of the ground-truth R-SQLs.
    pub truth_hit: bool,
    /// Wall-clock seconds for this instance's diagnosis call.
    pub diagnose_s: f64,
}

/// Aggregate report of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub n_instances: usize,
    /// Configuration epoch the run finished under: [`ConfigEpoch::INITIAL`]
    /// for cold-start runs, the last accepted push for a daemon run.
    pub config_epoch: u64,
    /// Ingestion shards of the config the run finished under (after
    /// clamping to the fleet size); reshard steps may seat instances on
    /// any other layout mid-run.
    pub shards: usize,
    /// Events pushed through the multiplexed loop.
    pub events_total: u64,
    /// Wall-clock seconds of the multiplexed ingest stage: per round the
    /// slowest shard's merge (shards run concurrently), summed across
    /// rounds.
    pub ingest_wall_s: f64,
    /// Sustained ingest throughput (events / ingest_wall_s).
    pub events_per_sec: f64,
    /// Wall-clock seconds of the across-instance diagnosis fan-out.
    pub diagnose_wall_s: f64,
    /// Mean per-case diagnosis latency.
    pub diagnose_mean_s: f64,
    /// Worst per-case diagnosis latency.
    pub diagnose_max_s: f64,
    /// Shard → region → fleet health rollup tree (exact-merge counts per
    /// region plus the fleet total), under [`FleetConfig::regions`].
    pub rollup: FleetRollup,
    pub outcomes: Vec<InstanceOutcome>,
}

/// A fleet run with its full per-instance artifacts, for consumers that
/// need more than the flattened report (the equivalence matrix compares
/// the labelled cases and diagnoses bit-for-bit across execution paths).
#[derive(Debug, Clone)]
pub struct FleetRun {
    pub report: FleetReport,
    /// Closed cases, in instance-id order.
    pub cases: Vec<LabeledCase>,
    /// Diagnoses, aligned with `cases`.
    pub diagnoses: Vec<Diagnosis>,
    /// Fleet health roll-up: one snapshot per instance (taken right before
    /// its case closed), in instance-id order, plus exact totals.
    pub health: FleetHealth,
}

/// The run-to-completion front end: each method drives a [`FleetDaemon`]
/// through one run shape (see the module docs for the table).
#[derive(Debug, Clone, Default)]
pub struct FleetEngine {
    pub cfg: FleetConfig,
}

impl FleetEngine {
    /// # Panics
    /// Panics if `cfg.shards == 0`: every shard owns a disjoint set of
    /// instances, so zero shards would silently ingest nothing.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(
            cfg.shards >= 1,
            "FleetConfig.shards must be >= 1 (got 0); use shards = 1 for unsharded ingestion"
        );
        Self { cfg }
    }

    /// Runs the full loop over one scenario per instance and reports
    /// throughput, latency, and per-instance outcomes.
    ///
    /// Outcomes are deterministic and independent of both `shards` and
    /// `fanout` (timings aside) — see the module docs.
    pub fn run(&self, scenarios: &[Scenario]) -> FleetReport {
        self.run_full(scenarios).report
    }

    /// [`run`](Self::run), additionally returning the closed cases and
    /// diagnoses in instance-id order.
    pub fn run_full(&self, scenarios: &[Scenario]) -> FleetRun {
        self.run_full_observed(scenarios, &NoopObserver)
    }

    /// [`run_full`](Self::run_full) under an explicit observer; the trace
    /// carries the daemon's lanes (`inst{i}`, `r{round}shard{s}`,
    /// `diag{i}`). Cases, diagnoses, and health are byte-identical
    /// whatever `O` is.
    pub fn run_full_observed<O: Observer>(&self, scenarios: &[Scenario], obs: &O) -> FleetRun {
        self.run_resharded_observed(scenarios, &ReshardPlan::default(), obs)
            .expect("static run crosses no snapshot boundary, so no decode can fail")
    }

    /// Runs the fleet under a [`ReshardPlan`]: at every step boundary the
    /// whole fleet quiesces (exactly at event time — see
    /// [`ReshardStep::at_second`]), each instance serializes its online
    /// state, moves to the shard the step assigns, restores, and resumes.
    ///
    /// Outcomes are **bit-identical** to [`run_full`](Self::run_full) on
    /// the same scenarios — a reshard handoff is behaviorally invisible.
    ///
    /// Errors only if a snapshot fails to decode on its new shard, which
    /// would mean in-memory corruption; malformed plans (non-monotonic
    /// boundaries, wrong assignment length) panic as programmer errors.
    pub fn run_resharded(
        &self,
        scenarios: &[Scenario],
        plan: &ReshardPlan,
    ) -> Result<FleetRun, WireError> {
        self.run_resharded_observed(scenarios, plan, &NoopObserver)
    }

    /// [`run_resharded`](Self::run_resharded) under an explicit observer:
    /// every handoff records a [`pinsql_obs::Stage::Reshard`] span plus
    /// [`pinsql_obs::Counter::InstancesResharded`] for instances whose
    /// shard actually changed.
    pub fn run_resharded_observed<O: Observer>(
        &self,
        scenarios: &[Scenario],
        plan: &ReshardPlan,
        obs: &O,
    ) -> Result<FleetRun, WireError> {
        plan.validate(scenarios.len());
        let mut daemon = FleetDaemon::spawn_observed(self.cfg.clone(), scenarios, obs.clone());
        for step in &plan.steps {
            daemon.advance_to(step.at_second);
            daemon.reshard(&step.assignment)?;
        }
        Ok(daemon.finish())
    }

    /// Ingests every stream's prefix strictly before `at_second` and
    /// freezes the whole fleet as a [`FleetCheckpoint`] — the
    /// crash-recovery primitive: persist the blobs, and after a crash
    /// [`resume_full`](Self::resume_full) replays only the tail.
    pub fn checkpoint_at(&self, scenarios: &[Scenario], at_second: i64) -> FleetCheckpoint {
        let mut daemon = FleetDaemon::spawn(self.cfg.clone(), scenarios);
        daemon.advance_to(at_second);
        daemon.checkpoint()
    }

    /// Resumes a run from a [`FleetCheckpoint`]: restores every instance,
    /// replays only the events at or after the checkpoint boundary, closes
    /// cases, and diagnoses. The resulting [`FleetRun`] is bit-identical
    /// to an uninterrupted [`run_full`](Self::run_full).
    pub fn resume_full(
        &self,
        scenarios: &[Scenario],
        checkpoint: &FleetCheckpoint,
    ) -> Result<FleetRun, WireError> {
        Ok(FleetDaemon::resume(self.cfg.clone(), scenarios, checkpoint, NoopObserver)?.finish())
    }
}

/// `assignment[i]` = shard for instance `i` under the static contiguous
/// layout: shard `s` owns `[s*n/shards, (s+1)*n/shards)`.
pub(crate) fn contiguous_assignment(n: usize, shards: usize) -> Vec<usize> {
    let mut assignment = vec![0usize; n];
    for s in 0..shards {
        for a in assignment.iter_mut().take((s + 1) * n / shards).skip(s * n / shards) {
            *a = s;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, ScenarioConfig};

    /// A small, fast fleet: short windows, few businesses, one scenario of
    /// each kind plus a negative.
    fn small_fleet(n: usize) -> Vec<Scenario> {
        let kinds = [
            Some(AnomalyKind::BusinessSpike),
            Some(AnomalyKind::PoorSql),
            Some(AnomalyKind::MdlLock),
            Some(AnomalyKind::RowLock),
            None,
        ];
        (0..n)
            .map(|i| {
                let cfg = ScenarioConfig::default()
                    .with_seed(90 + i as u64)
                    .with_businesses(6)
                    .with_window(420, 240, 330);
                let base = generate_base(&cfg);
                match kinds[i % kinds.len()] {
                    Some(kind) => inject(&base, &cfg, kind),
                    None => inject_none(&base, &cfg),
                }
            })
            .collect()
    }

    fn engine(fanout: usize, shards: usize) -> FleetEngine {
        FleetEngine::new(FleetConfig {
            delta_s: 180,
            pinsql: PinSqlConfig::default(),
            fanout,
            shards,
            ..FleetConfig::default()
        })
    }

    fn assert_run_eq(a: &FleetRun, b: &FleetRun, what: &str) {
        assert_eq!(a.cases.len(), b.cases.len(), "{what}");
        for (i, (x, y)) in a.cases.iter().zip(&b.cases).enumerate() {
            assert_eq!(x.window, y.window, "{what}: instance {i}");
            assert_eq!(x.case.records, y.case.records, "{what}: instance {i}");
            assert_eq!(x.truth.rsqls, y.truth.rsqls, "{what}: instance {i}");
        }
        for (i, (x, y)) in a.diagnoses.iter().zip(&b.diagnoses).enumerate() {
            assert_eq!(x.rsqls, y.rsqls, "{what}: instance {i}");
            assert_eq!(x.hsqls, y.hsqls, "{what}: instance {i}");
            assert_eq!(x.reported_rsqls, y.reported_rsqls, "{what}: instance {i}");
        }
        assert_eq!(a.health, b.health, "{what}");
        assert_eq!(a.report.events_total, b.report.events_total, "{what}");
    }

    #[test]
    fn fleet_smoke() {
        let scenarios = small_fleet(4);
        let report = engine(2, 2).run(&scenarios);

        assert_eq!(report.n_instances, 4);
        assert_eq!(report.shards, 2);
        assert!(report.events_total > 0);
        assert_eq!(
            report.events_total,
            report.outcomes.iter().map(|o| o.n_events).sum::<u64>(),
            "every multiplexed event is attributed to exactly one instance"
        );
        assert!(report.events_per_sec > 0.0);
        assert!(report.diagnose_max_s >= report.diagnose_mean_s);
        for o in &report.outcomes {
            assert!(o.n_queries > 0, "instance {} saw no queries", o.instance);
            assert!(o.case_seconds > 0);
            assert!(o.n_templates > 0);
        }
    }

    #[test]
    fn outcomes_are_independent_of_fanout_and_shards() {
        let scenarios = small_fleet(3);
        let a = engine(1, 1).run(&scenarios);
        for (fanout, shards) in [(4, 1), (1, 2), (4, 3)] {
            let b = engine(fanout, shards).run(&scenarios);
            assert_eq!(a.events_total, b.events_total);
            for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
                assert_eq!(x.detected, y.detected);
                assert_eq!(x.anomaly_type, y.anomaly_type);
                assert_eq!(x.n_events, y.n_events);
                assert_eq!(x.n_queries, y.n_queries);
                assert_eq!(x.case_seconds, y.case_seconds);
                assert_eq!(x.n_templates, y.n_templates);
                assert_eq!(x.n_reported, y.n_reported);
                assert_eq!(x.top_rsql, y.top_rsql);
                assert_eq!(x.truth_hit, y.truth_hit);
            }
        }
    }

    /// The CI smoke for the scaling sweep: sharded runs must reproduce the
    /// unsharded run's cases and diagnoses exactly.
    #[test]
    fn scaling_smoke() {
        let scenarios = small_fleet(4);
        let base = engine(1, 1).run_full(&scenarios);
        for shards in [2usize, 4] {
            let sharded = engine(1, shards).run_full(&scenarios);
            assert_eq!(sharded.report.shards, shards);
            assert_run_eq(&base, &sharded, &format!("shards {shards}"));
        }
    }

    /// A mid-stream reshard — including one that *reverses* the shard
    /// assignment — must be behaviorally invisible. This is the in-crate
    /// smoke; the `equivalence` matrix runs against the golden corpus at
    /// the workspace root.
    #[test]
    fn reshard_smoke() {
        let scenarios = small_fleet(4);
        let baseline = engine(1, 2).run_full(&scenarios);

        // Reverse the contiguous {0,0,1,1} layout mid-run.
        let reversed = ReshardPlan::single(200, vec![1, 1, 0, 0]);
        let run = engine(1, 2).run_resharded(&scenarios, &reversed).unwrap();
        assert_run_eq(&baseline, &run, "reversed assignment");

        // Degenerate 1 → 4 → 1 churn.
        let churn = ReshardPlan {
            steps: vec![
                ReshardStep { at_second: 150, assignment: vec![0, 1, 2, 3] },
                ReshardStep { at_second: 300, assignment: vec![0, 0, 0, 0] },
            ],
        };
        let run = engine(1, 1).run_resharded(&scenarios, &churn).unwrap();
        assert_run_eq(&baseline, &run, "1→4→1 churn");
    }

    /// Checkpoint mid-stream, resume, and match the uninterrupted run.
    #[test]
    fn checkpoint_resume_smoke() {
        let scenarios = small_fleet(3);
        let baseline = engine(1, 2).run_full(&scenarios);
        let ckpt = engine(1, 2).checkpoint_at(&scenarios, 250);
        assert_eq!(ckpt.snapshots.len(), 3);
        assert!(ckpt.total_bytes() > 0);
        let resumed = engine(1, 2).resume_full(&scenarios, &ckpt).unwrap();
        assert_run_eq(&baseline, &resumed, "checkpoint/resume at 250");
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shards_is_rejected() {
        let _ = FleetEngine::new(FleetConfig {
            delta_s: 180,
            pinsql: PinSqlConfig::default(),
            fanout: 1,
            shards: 0,
            ..FleetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn non_monotonic_plan_is_rejected() {
        let scenarios = small_fleet(2);
        let plan = ReshardPlan {
            steps: vec![
                ReshardStep { at_second: 200, assignment: vec![0, 1] },
                ReshardStep { at_second: 100, assignment: vec![1, 0] },
            ],
        };
        let _ = engine(1, 1).run_resharded(&scenarios, &plan);
    }

    #[test]
    #[should_panic(expected = "assignment covers")]
    fn wrong_assignment_length_is_rejected() {
        let scenarios = small_fleet(2);
        let plan = ReshardPlan::single(100, vec![0]);
        let _ = engine(1, 1).run_resharded(&scenarios, &plan);
    }

    #[test]
    fn oversized_shard_count_is_clamped() {
        let scenarios = small_fleet(2);
        let report = engine(1, 16).run(&scenarios);
        assert_eq!(report.shards, 2, "shards clamp to the fleet size");
        assert_eq!(report.n_instances, 2);
    }
}
