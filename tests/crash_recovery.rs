//! Checkpoints and handoffs beyond the equivalence matrix.
//!
//! `tests/equivalence.rs` pins checkpoint → resume (before, inside and
//! after the anomaly, across layouts) and the reshard plans against the
//! batch reference. This suite keeps the properties that are not a
//! matrix cell: checkpoint bytes do not depend on the layout that cut
//! them, a checkpoint shipped as raw bytes resumes exactly, and a
//! reversing handoff hands every outcome back under its own instance id.

mod common;

use common::{load_manifest, reversed, scenario_for, snapshot_of, GOLDEN_DELTA_S};
use pinsql::PinSqlConfig;
use pinsql_detect::KernelKind;
use pinsql_engine::{FleetConfig, FleetEngine, ReshardPlan};

fn engine(shards: usize, fanout: usize) -> FleetEngine {
    FleetEngine::new(FleetConfig {
        delta_s: GOLDEN_DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout,
        shards,
        kernel: KernelKind::Fast,
        ..FleetConfig::default()
    })
}

/// Checkpointing is deterministic: two checkpoints of the same fleet at
/// the same boundary are byte-identical, whatever layout cut them (the
/// default dense cell store serializes in slot order).
#[test]
fn checkpoints_are_deterministic_and_layout_independent() {
    let manifest = load_manifest();
    let scenarios: Vec<_> = manifest.iter().take(4).map(scenario_for).collect();

    let a = engine(1, 1).checkpoint_at(&scenarios, 800);
    let b = engine(4, 2).checkpoint_at(&scenarios, 800);
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (i, (sa, sb)) in a.snapshots.iter().zip(&b.snapshots).enumerate() {
        assert_eq!(sa.as_bytes(), sb.as_bytes(), "instance {i}: checkpoint bytes differ");
        assert_eq!(sa.kernel(), KernelKind::Fast);
    }
}

/// A checkpoint survives the serialize → ship → revalidate cycle: wrapped
/// back through `from_bytes`, every snapshot still resumes exactly.
#[test]
fn shipped_checkpoint_bytes_resume_exactly() {
    use pinsql_engine::{FleetCheckpoint, InstanceSnapshot};

    let manifest = load_manifest();
    let scenarios: Vec<_> = manifest.iter().take(4).map(scenario_for).collect();

    let baseline = engine(1, 1).run_full(&scenarios);
    let ckpt = engine(2, 2).checkpoint_at(&scenarios, 800);
    let shipped = FleetCheckpoint {
        at_second: ckpt.at_second,
        snapshots: ckpt
            .snapshots
            .iter()
            .map(|s| InstanceSnapshot::from_bytes(s.as_bytes().to_vec()).expect("revalidates"))
            .collect(),
    };
    let resumed = engine(2, 2).resume_full(&scenarios, &shipped).expect("checkpoint decodes");
    for (i, entry) in manifest.iter().take(4).enumerate() {
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
    let scenarios: Vec<_> = manifest.iter().map(scenario_for).collect();
    let n = scenarios.len();

    let plan = ReshardPlan::single(800, reversed(n, 4));
    let run = engine(4, 2).run_resharded(&scenarios, &plan).expect("handoff decodes");
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
