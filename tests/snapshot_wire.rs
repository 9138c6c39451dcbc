//! Wire-format hardening for instance snapshots.
//!
//! A golden snapshot blob is committed at
//! `tests/golden/instance_snapshot.bin` (`PINSQL_BLESS=1` rewrites it
//! after an intentional format change; a missing file fails the suite).
//! The blob holds a seeded scenario's state,
//! so it is a function of the PRNG stream: bless it under the build whose
//! stream is meant to be pinned, never as a side effect of a test run.
//! Against it this suite pins:
//!
//! * byte-stability — today's engine reproduces the committed blob
//!   exactly, so any accidental wire-format change fails loudly;
//! * typed failure on *every* malformed shape — truncation at each byte,
//!   wrong magic, future version, unknown and spliced kind tags, trailing
//!   garbage, and restore into the wrong scenario — never a panic, never
//!   a silently wrong instance.

mod common;

use pinsql_engine::{
    InstanceSnapshot, OnlineInstance, MIN_SNAPSHOT_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use pinsql_scenario::{generate_base, inject, materialize_events, AnomalyKind, ScenarioConfig};
use pinsql_timeseries::WireError;

const DELTA_S: i64 = 60;

fn golden_scenario() -> pinsql_scenario::Scenario {
    let cfg = ScenarioConfig {
        seed: 42,
        n_business: 4,
        n_giants: 1,
        root_rate: (1.0, 3.0),
        giant_rate: (6.0, 10.0),
        window_s: 240,
        anomaly_start: 120,
        anomaly_end: 180,
        cores: 2.0,
        io_channels: 4.0,
    };
    let base = generate_base(&cfg);
    inject(&base, &cfg, AnomalyKind::BusinessSpike)
}

/// The canonical blob: the golden scenario's stream cut mid-anomaly
/// (open detector segment, half-folded minute) and snapshotted.
fn build_snapshot(scenario: &pinsql_scenario::Scenario) -> InstanceSnapshot {
    let events = materialize_events(scenario, None);
    let cut = events.partition_point(|ev| ev.time_ms() < 150.0 * 1000.0);
    let mut inst = OnlineInstance::new(scenario, DELTA_S);
    inst.ingest_stream(events[..cut].to_vec());
    inst.snapshot()
}

#[test]
fn golden_blob_is_byte_stable_and_restores() {
    let scenario = golden_scenario();
    let snap = build_snapshot(&scenario);
    assert_eq!(&snap.as_bytes()[..4], &SNAPSHOT_MAGIC);
    assert!(!snap.is_empty());
    assert_eq!(snap.len(), snap.as_bytes().len());

    let path = common::golden_dir().join("instance_snapshot.bin");
    if std::env::var_os("PINSQL_BLESS").is_some() {
        std::fs::write(&path, snap.as_bytes()).expect("write golden snapshot blob");
    }
    // A missing blob fails like a differing one: a fresh checkout must
    // not compare the encoder with itself.
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("{}: {e}; bless it with PINSQL_BLESS=1 under the build to pin", path.display())
    });
    // Not `assert_eq!`: a failure would print both 800 KB blobs.
    let diverge = committed.iter().zip(snap.as_bytes()).position(|(a, b)| a != b);
    assert!(
        committed == snap.as_bytes(),
        "snapshot wire bytes changed (committed {} bytes, built {}, first difference at {diverge:?}); \
         if intentional, bump SNAPSHOT_VERSION and regenerate with PINSQL_BLESS=1",
        committed.len(),
        snap.len(),
    );

    // The committed bytes round-trip through the untrusted path and keep
    // ingesting: drain the tail and close the case without error.
    let wrapped = InstanceSnapshot::from_bytes(committed).expect("golden blob validates");
    assert_eq!(wrapped.kernel(), snap.kernel());
    assert_eq!(wrapped.cellstore_kind(), snap.cellstore_kind());
    let mut restored = OnlineInstance::restore(&scenario, &wrapped).expect("golden blob restores");
    let events = materialize_events(&scenario, None);
    let cut = events.partition_point(|ev| ev.time_ms() < 150.0 * 1000.0);
    restored.ingest_stream(events[cut..].to_vec());
    let lc = restored.close_case();
    assert!(lc.case.n_seconds() > 0);
}

#[test]
fn every_truncation_yields_a_typed_error() {
    let scenario = golden_scenario();
    let bytes = build_snapshot(&scenario).into_bytes();
    for cut in 0..bytes.len() {
        match InstanceSnapshot::from_bytes(bytes[..cut].to_vec()) {
            // Header survived the cut; the body decode must catch it.
            Ok(snap) => assert!(
                OnlineInstance::restore(&scenario, &snap).is_err(),
                "truncation at {cut}/{} restored",
                bytes.len()
            ),
            Err(e) => assert!(
                matches!(e, WireError::Truncated { .. } | WireError::BadMagic { .. }),
                "truncation at {cut}: unexpected error {e:?}"
            ),
        }
    }
}

#[test]
fn corrupt_headers_yield_specific_typed_errors() {
    let scenario = golden_scenario();
    let bytes = build_snapshot(&scenario).into_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Q';
    assert!(matches!(
        InstanceSnapshot::from_bytes(wrong_magic),
        Err(WireError::BadMagic { expected: SNAPSHOT_MAGIC, .. })
    ));

    let mut future = bytes.clone();
    future[4] = 0xFF; // little-endian low byte: version 0xFF > 2
    assert!(matches!(
        InstanceSnapshot::from_bytes(future),
        Err(WireError::FutureVersion { supported: SNAPSHOT_VERSION, .. })
    ));

    let mut bad_kernel = bytes.clone();
    bad_kernel[6] = 9;
    assert!(matches!(
        InstanceSnapshot::from_bytes(bad_kernel),
        Err(WireError::BadTag { what: "kernel kind", value: 9 })
    ));

    let mut bad_cells = bytes.clone();
    bad_cells[7] = 9;
    assert!(matches!(
        InstanceSnapshot::from_bytes(bad_cells),
        Err(WireError::BadTag { what: "cellstore kind", value: 9 })
    ));

    // A *valid-looking* spliced header — kind tags flipped to the other
    // legal value — passes routing validation but must fail restore's
    // header-vs-body cross-check.
    let mut spliced_kernel = bytes.clone();
    spliced_kernel[6] ^= 1;
    let snap = InstanceSnapshot::from_bytes(spliced_kernel).expect("tag is legal in isolation");
    assert!(matches!(
        OnlineInstance::restore(&scenario, &snap),
        Err(WireError::Mismatch { what: "kernel tag", .. })
    ));

    let mut spliced_cells = bytes.clone();
    spliced_cells[7] ^= 1;
    let snap = InstanceSnapshot::from_bytes(spliced_cells).expect("tag is legal in isolation");
    assert!(matches!(
        OnlineInstance::restore(&scenario, &snap),
        Err(WireError::Mismatch { what: "cellstore tag", .. })
    ));

    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"garbage");
    let snap = InstanceSnapshot::from_bytes(trailing).expect("header is intact");
    assert!(matches!(
        OnlineInstance::restore(&scenario, &snap),
        Err(WireError::TrailingBytes { .. })
    ));
}

/// Splits a snapshot's bytes into its 8-byte header and length-prefixed
/// sections (meta, aggregator, bank, and — since v2 — cut state).
fn sections(bytes: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut out = Vec::new();
    let mut at = 8usize;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        out.push(bytes[at..at + 8 + len].to_vec());
        at += 8 + len;
    }
    (bytes[..8].to_vec(), out)
}

/// Backward decode: a v1 blob is exactly a v2 blob without the trailing
/// cut-state section. Derive one from the live encoder (truncate the
/// fourth section, patch the version field) and pin that it still
/// restores — with the running-moment state rebuilt from the rings —
/// and that the v1-restored instance re-serializes as a v2 blob whose
/// meta/aggregator/bank sections are byte-identical to the original.
#[test]
fn previous_version_blob_without_cut_state_still_restores() {
    let scenario = golden_scenario();
    let v2 = build_snapshot(&scenario).into_bytes();
    assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), SNAPSHOT_VERSION);
    let (header, parts) = sections(&v2);
    assert_eq!(parts.len(), 4, "a v2 blob carries meta, aggregator, bank, and cut state");

    let mut v1 = header.clone();
    for s in &parts[..3] {
        v1.extend_from_slice(s);
    }
    v1[4..6].copy_from_slice(&MIN_SNAPSHOT_VERSION.to_le_bytes());

    let wrapped = InstanceSnapshot::from_bytes(v1).expect("derived v1 blob validates");
    assert_eq!(wrapped.version(), MIN_SNAPSHOT_VERSION);
    let mut from_v1 =
        OnlineInstance::restore(&scenario, &wrapped).expect("v1 blob restores without cut state");
    let v2_wrapped = InstanceSnapshot::from_bytes(v2).expect("v2 blob validates");
    let mut from_v2 = OnlineInstance::restore(&scenario, &v2_wrapped).expect("v2 blob restores");

    // Re-serializing the v1 restore writes today's version, and every
    // section below the cut state matches the original bytes exactly.
    // (The rebuilt cut moments are behaviorally equivalent but re-derived
    // in ring-sweep order, so that section is not compared bit-wise.)
    let reser = from_v1.snapshot();
    let (h2, p2) = sections(reser.as_bytes());
    assert_eq!(h2, header, "v1 restore re-serializes under the current header");
    assert_eq!(p2.len(), 4, "re-serialization regains the cut-state section");
    for (i, (a, b)) in p2[..3].iter().zip(&parts[..3]).enumerate() {
        assert_eq!(a, b, "section {i} diverged after the v1 round-trip");
    }

    // Both restores drain the tail to the same closed case: identical
    // carried matrix rows, and advisory gates equal to within rounding
    // of the sweep-order rebuild.
    let events = materialize_events(&scenario, None);
    let cut_at = events.partition_point(|ev| ev.time_ms() < 150.0 * 1000.0);
    from_v1.ingest_stream(events[cut_at..].to_vec());
    from_v2.ingest_stream(events[cut_at..].to_vec());
    let a = from_v1.close_case();
    let b = from_v2.close_case();
    let ca = a.case.cut.as_deref().expect("v1 restore closes with a cut");
    let cb = b.case.cut.as_deref().expect("v2 restore closes with a cut");
    assert_eq!(ca.minute_start, cb.minute_start);
    assert_eq!(ca.minute_rows, cb.minute_rows, "carried matrix rows must be exact");
    assert_eq!(ca.gate.len(), cb.gate.len());
    for (i, (x, y)) in ca.gate.iter().zip(&cb.gate).enumerate() {
        assert!((x - y).abs() <= 1e-9, "gate {i}: v1 rebuild {x} vs v2 state {y}");
    }
}

#[test]
fn restore_into_wrong_scenario_is_a_typed_error() {
    let scenario = golden_scenario();
    let snap = build_snapshot(&scenario);

    let other_cfg = ScenarioConfig { seed: 43, n_business: 7, ..ScenarioConfig::default() };
    let other = inject(&generate_base(&other_cfg), &other_cfg, AnomalyKind::MdlLock);
    let err = OnlineInstance::restore(&other, &snap);
    assert!(err.is_err(), "restoring into a different scenario must fail, got Ok");
}
