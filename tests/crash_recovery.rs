//! Checkpoints and handoffs beyond the equivalence matrix.
//!
//! `tests/equivalence.rs` pins checkpoint → resume (before, inside and
//! after the anomaly, across layouts) and the reshard rows against the
//! batch reference. This suite keeps the properties that are not a
//! matrix cell: checkpoint bytes do not depend on the layout that cut
//! them, a checkpoint shipped as raw bytes resumes exactly, and a
//! reversing handoff hands every outcome back under its own instance id.

mod common;

use common::{
    golden_scenarios, golden_streams, load_manifest, reversed, snapshot_of, ManifestEntry,
    GOLDEN_DELTA_S,
};
use pinsql::PinSqlConfig;
use pinsql_engine::{FleetCheckpoint, FleetConfig, FleetDaemon};
use pinsql_obs::NoopObserver;
use pinsql_scenario::Scenario;

fn config(shards: usize, fanout: usize) -> FleetConfig {
    FleetConfig {
        delta_s: GOLDEN_DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout,
        shards,
        ..FleetConfig::default()
    }
}

/// A daemon over `entries`' cached streams.
fn spawn<'a>(
    cfg: FleetConfig,
    scenarios: &'a [Scenario],
    entries: &[ManifestEntry],
) -> FleetDaemon<'a> {
    FleetDaemon::spawn(cfg, scenarios, golden_streams(entries), NoopObserver)
        .expect("streams admitted")
}

/// Ingests every stream's prefix before `at_second` and freezes the fleet.
fn freeze_at(
    cfg: FleetConfig,
    scenarios: &[Scenario],
    entries: &[ManifestEntry],
    at_second: i64,
) -> FleetCheckpoint {
    let mut daemon = spawn(cfg, scenarios, entries);
    daemon.advance_to(at_second);
    daemon.checkpoint()
}

/// Checkpointing is deterministic: two checkpoints of the same fleet at
/// the same boundary are byte-identical, whatever layout cut them (the
/// default dense cell store serializes in slot order).
#[test]
fn checkpoints_are_deterministic_and_layout_independent() {
    let entries = &load_manifest()[..4];
    let scenarios = golden_scenarios(entries);

    let a = freeze_at(config(1, 1), &scenarios, entries, 800);
    let b = freeze_at(config(4, 2), &scenarios, entries, 800);
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (i, (sa, sb)) in a.snapshots.iter().zip(&b.snapshots).enumerate() {
        assert_eq!(sa.as_bytes(), sb.as_bytes(), "instance {i}: checkpoint bytes differ");
    }
}

/// A checkpoint survives the serialize → ship → revalidate cycle: wrapped
/// back through `from_bytes`, every snapshot still resumes exactly.
#[test]
fn shipped_checkpoint_bytes_resume_exactly() {
    use pinsql_engine::InstanceSnapshot;

    let entries = &load_manifest()[..4];
    let scenarios = golden_scenarios(entries);

    let baseline = spawn(config(1, 1), &scenarios, entries).finish();
    let ckpt = freeze_at(config(2, 2), &scenarios, entries, 800);
    let shipped = FleetCheckpoint {
        at_second: ckpt.at_second,
        snapshots: ckpt
            .snapshots
            .iter()
            .map(|s| InstanceSnapshot::from_bytes(s.as_bytes().to_vec()).expect("revalidates"))
            .collect(),
    };
    let streams = golden_streams(entries);
    let resumed = FleetDaemon::resume(config(2, 2), &scenarios, streams, &shipped, NoopObserver)
        .expect("checkpoint decodes")
        .finish();
    for (i, entry) in entries.iter().enumerate() {
        let a = snapshot_of(entry, &baseline.cases[i], &baseline.diagnoses[i]);
        let b = snapshot_of(entry, &resumed.cases[i], &resumed.diagnoses[i]);
        assert_eq!(a, b, "{}: shipped checkpoint diverged", entry.name);
    }
}

/// Regression for the mid-stream ordering assumption: after an
/// assignment-reversing handoff, cases must still come back in global
/// instance-id order — outcome `i` belongs to scenario `i`, not to
/// whatever shard finished first.
#[test]
fn reversing_handoff_preserves_instance_id_order() {
    let manifest = load_manifest();
    let scenarios = golden_scenarios(&manifest);
    let n = scenarios.len();

    let mut daemon = spawn(config(4, 2), &scenarios, &manifest);
    daemon.advance_to(800);
    daemon.reshard(&reversed(n, 4)).expect("handoff decodes");
    let run = daemon.finish();
    for (i, entry) in manifest.iter().enumerate() {
        assert_eq!(run.report.outcomes[i].instance, i);
        assert_eq!(
            run.report.outcomes[i].seed, entry.seed,
            "{}: outcome {i} carries the wrong scenario's seed after the reversing handoff",
            entry.name
        );
        assert_eq!(run.report.outcomes[i].kind, entry.kind);
    }
}
