//! Fleet runs: configuration, checkpoints and reports.
//!
//! A production deployment watches hundreds of instances at once:
//! telemetry from all of them arrives interleaved on a shared bus, each
//! instance's events fold into its own online pipeline, and diagnosis
//! fans out across the cases that close. The executor for that shape is
//! [`FleetDaemon`] (see [`crate::daemon`]: materialize → sharded k-way
//! merge → close, reassemble by instance id, diagnose), and it is the only
//! way to drive a fleet. This module holds what a *run* is made of —
//! [`FleetConfig`], [`FleetCheckpoint`], [`FleetReport`] / [`FleetRun`] —
//! and [`FleetEngine`], whose one run shape,
//! [`run_full`](FleetEngine::run_full), is a daemon spawned and finished.
//! Every other shape is a few calls on the daemon itself:
//!
//! | run shape | daemon calls |
//! |---|---|
//! | static run | `spawn`, `finish` |
//! | reshard | `spawn`; per handoff `advance_to(at_second)`, `reshard(&assignment)`; `finish` |
//! | checkpoint | `spawn`, `advance_to(at_second)`, `checkpoint` |
//! | resume | `resume(&checkpoint)`, `finish` |
//!
//! **Determinism.** Instances are independent, every shard layout
//! preserves each instance's own event order, and a snapshot/restore
//! boundary is behaviorally invisible, so cases and diagnoses are
//! bit-identical for **any** `shards` / `fanout` values, **any** sequence
//! of reshards and **any** checkpoint boundary; the workspace's
//! `equivalence` matrix pins this against the golden corpus.

use crate::daemon::FleetDaemon;
use crate::snapshot::InstanceSnapshot;
use pinsql::{Diagnosis, PinSqlConfig};
use pinsql_detect::KernelKind;
use pinsql_obs::{FleetHealth, FleetRollup};
use pinsql_scenario::{LabeledCase, Scenario};

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

/// What happened on one instance: the diagnosis reduced to the figures a
/// report compares across runs.
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
}

/// Aggregate report of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub n_instances: usize,
    /// Configuration epoch the run finished under: [`ConfigEpoch::INITIAL`]
    /// for cold-start runs, the last accepted push for a daemon run.
    pub config_epoch: u64,
    /// Ingestion shards of the config the run finished under (after
    /// clamping to the fleet size); a reshard may seat instances on any
    /// other layout mid-run.
    pub shards: usize,
    /// Events pushed through the multiplexed loop.
    pub events_total: u64,
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

/// The run-to-completion front end: one static run over a
/// [`FleetDaemon`]. Anything else — reshards, checkpoints, resumes,
/// config pushes — drives the daemon directly (see the module docs).
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

    /// Runs the full loop over one scenario per instance: a daemon
    /// spawned under the config and finished straight away.
    ///
    /// Cases and diagnoses are deterministic and independent of both
    /// `shards` and `fanout` — see the module docs.
    pub fn run_full(&self, scenarios: &[Scenario]) -> FleetRun {
        FleetDaemon::spawn(self.cfg.clone(), scenarios).finish()
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
    use pinsql_obs::NoopObserver;
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

    fn config(fanout: usize, shards: usize) -> FleetConfig {
        FleetConfig {
            delta_s: 180,
            pinsql: PinSqlConfig::default(),
            fanout,
            shards,
            ..FleetConfig::default()
        }
    }

    fn run_full(fanout: usize, shards: usize, scenarios: &[Scenario]) -> FleetRun {
        FleetEngine::new(config(fanout, shards)).run_full(scenarios)
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
        let report = run_full(2, 2, &scenarios).report;

        assert_eq!(report.n_instances, 4);
        assert_eq!(report.shards, 2);
        assert!(report.events_total > 0);
        assert_eq!(
            report.events_total,
            report.outcomes.iter().map(|o| o.n_events).sum::<u64>(),
            "every multiplexed event is attributed to exactly one instance"
        );
        for o in &report.outcomes {
            assert!(o.n_queries > 0, "instance {} saw no queries", o.instance);
            assert!(o.case_seconds > 0);
            assert!(o.n_templates > 0);
        }
    }

    #[test]
    fn outcomes_are_independent_of_fanout_and_shards() {
        let scenarios = small_fleet(3);
        let a = run_full(1, 1, &scenarios).report;
        for (fanout, shards) in [(4, 1), (1, 2), (4, 3)] {
            let b = run_full(fanout, shards, &scenarios).report;
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

    /// Sharded runs must reproduce the unsharded run's cases and
    /// diagnoses exactly.
    #[test]
    fn scaling_smoke() {
        let scenarios = small_fleet(4);
        let base = run_full(1, 1, &scenarios);
        for shards in [2usize, 4] {
            let sharded = run_full(1, shards, &scenarios);
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
        let baseline = run_full(1, 2, &scenarios);

        // Reverse the contiguous {0,0,1,1} layout mid-run.
        let mut daemon = FleetDaemon::spawn(config(1, 2), &scenarios);
        daemon.advance_to(200);
        daemon.reshard(&[1, 1, 0, 0]).unwrap();
        assert_run_eq(&baseline, &daemon.finish(), "reversed assignment");

        // Degenerate 1 → 4 → 1 churn.
        let mut daemon = FleetDaemon::spawn(config(1, 1), &scenarios);
        daemon.advance_to(150);
        daemon.reshard(&[0, 1, 2, 3]).unwrap();
        daemon.advance_to(300);
        daemon.reshard(&[0, 0, 0, 0]).unwrap();
        assert_run_eq(&baseline, &daemon.finish(), "1→4→1 churn");
    }

    /// Checkpoint mid-stream, resume, and match the uninterrupted run.
    #[test]
    fn checkpoint_resume_smoke() {
        let scenarios = small_fleet(3);
        let baseline = run_full(1, 2, &scenarios);
        let mut daemon = FleetDaemon::spawn(config(1, 2), &scenarios);
        daemon.advance_to(250);
        let ckpt = daemon.checkpoint();
        assert_eq!(ckpt.snapshots.len(), 3);
        assert!(ckpt.total_bytes() > 0);
        let resumed = FleetDaemon::resume(config(1, 2), &scenarios, &ckpt, NoopObserver).unwrap();
        assert_run_eq(&baseline, &resumed.finish(), "checkpoint/resume at 250");
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shards_is_rejected() {
        let _ = FleetEngine::new(config(1, 0));
    }

    #[test]
    fn oversized_shard_count_is_clamped() {
        let scenarios = small_fleet(2);
        let report = run_full(1, 16, &scenarios).report;
        assert_eq!(report.shards, 2, "shards clamp to the fleet size");
        assert_eq!(report.n_instances, 2);
    }
}
