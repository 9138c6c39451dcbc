//! Golden-diagnosis regression corpus.
//!
//! Sixteen seeded cases (four per anomaly kind, listed in
//! `common::MANIFEST`) are labelled by the batch oracle and diagnosed; the
//! rank-relevant output is snapshotted as JSON and compared byte-for-byte
//! against `tests/golden/<name>.json`. Each case is additionally diagnosed
//! at parallelism 1 and 4 and the two snapshots must be identical — the
//! determinism contract that keeps golden files meaningful on any machine.
//!
//! A missing snapshot is a failure, like a differing one; set
//! `PINSQL_BLESS=1` to (re)write all of them after an intentional
//! behaviour change. See `tests/golden/README.md`.
//!
//! The same corpus also pins the online engine: `equivalence.rs` runs
//! every entry through every execution path and compares against the
//! same batch snapshots.

mod common;

use common::{batch_snapshot, golden_dir, load_manifest};

#[test]
fn golden_corpus_matches_and_is_parallelism_stable() {
    let dir = golden_dir();
    let manifest = load_manifest();

    let bless = std::env::var_os("PINSQL_BLESS").is_some();
    let mut mismatches = Vec::new();
    for entry in &manifest {
        let (serial, d) = batch_snapshot(entry, 1);
        let (parallel, _) = batch_snapshot(entry, 4);
        assert_eq!(
            serial, parallel,
            "{}: diagnosis differs between parallelism 1 and 4",
            entry.name
        );
        let serial_json = serial.to_json().render_pretty() + "\n";
        // Sanity independent of the stored snapshot: an injected anomaly
        // produces a non-empty ranking.
        assert!(!d.rsqls.is_empty(), "{}: empty R-SQL ranking", entry.name);
        assert!(!d.hsqls.is_empty(), "{}: empty H-SQL ranking", entry.name);

        let path = dir.join(format!("{}.json", entry.name));
        if bless {
            std::fs::write(&path, &serial_json).expect("write golden snapshot");
            continue;
        }
        // A missing file reads as a mismatch: a fresh checkout must not
        // bless itself.
        if std::fs::read_to_string(&path).ok().as_deref() != Some(serial_json.as_str()) {
            mismatches.push(entry.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "diagnosis drifted from golden snapshots (or the file is missing): \
         {mismatches:?} — if the change is intentional, regenerate with \
         PINSQL_BLESS=1 and review the diff"
    );
}
