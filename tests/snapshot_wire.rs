//! Wire-format hardening for instance snapshots.
//!
//! A golden snapshot blob is committed at
//! `tests/golden/instance_snapshot.bin` (`pinsql_testkit::pin`:
//! `PINSQL_BLESS=1` rewrites it after an intentional format change; a
//! missing file fails the suite).
//! The blob holds a seeded scenario's state,
//! so it is a function of the PRNG stream: bless it under the build whose
//! stream is meant to be pinned, never as a side effect of a test run.
//! Against it this suite pins:
//!
//! * byte-stability — today's engine reproduces the committed blob
//!   exactly, so any accidental wire-format change fails loudly;
//! * typed failure on *every* malformed shape — truncation at each byte,
//!   wrong magic, future and previous versions (version 2 included), a
//!   kernel tag other than `1` in the header or the bank section, a
//!   non-zero reserved byte in the header or the body, trailing garbage,
//!   and restore into the wrong scenario — never a panic, never a
//!   silently wrong instance.

mod common;

use pinsql_engine::{InstanceSnapshot, OnlineInstance, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use pinsql_dbsim::TelemetryEvent;
use pinsql_scenario::{generate_base, inject, AnomalyKind, Scenario, ScenarioConfig};
use pinsql_testkit::{pin, truncations};
use pinsql_timeseries::WireError;

const DELTA_S: i64 = 60;

/// Where the aggregator section's length sits in a blob: after the
/// 8-byte header and the meta section (8-byte length + 33).
const AGGREGATOR_AT: usize = 8 + (8 + 33);

/// Where the aggregator body's reserved byte sits in a blob: the
/// aggregator section's length, then two `i64` configuration fields.
const BODY_RESERVED_AT: usize = AGGREGATOR_AT + 8 + 16;

/// Where the bank section's kernel tag sits in `blob`: past the
/// aggregator section and the bank section's own length.
fn bank_kernel_at(blob: &[u8]) -> usize {
    let len = &blob[AGGREGATOR_AT..AGGREGATOR_AT + 8];
    AGGREGATOR_AT + 8 + u64::from_le_bytes(len.try_into().unwrap()) as usize + 8
}

/// The golden scenario: a 240 s business spike, `common::small_scenario`
/// at seed 42.
fn golden_scenario() -> &'static Scenario {
    &common::small(42).scenario
}

/// The golden scenario's event stream, simulated once per process.
fn golden_events() -> &'static [TelemetryEvent] {
    &common::small(42).events
}

/// The canonical blob: the golden scenario's stream cut mid-anomaly
/// (open detector segment, half-folded minute) and snapshotted.
fn build_snapshot() -> InstanceSnapshot {
    let events = golden_events();
    let cut = events.partition_point(|ev| ev.time_ms() < 150.0 * 1000.0);
    let mut inst = OnlineInstance::new(golden_scenario(), DELTA_S);
    inst.ingest_stream(events[..cut].to_vec());
    inst.snapshot()
}

#[test]
fn golden_blob_is_byte_stable_and_restores() {
    let scenario = golden_scenario();
    let snap = build_snapshot();
    assert_eq!(&snap.as_bytes()[..4], &SNAPSHOT_MAGIC);
    assert!(!snap.is_empty());
    assert_eq!(snap.len(), snap.as_bytes().len());

    // A change that is meant must bump SNAPSHOT_VERSION before the
    // re-bless.
    pin(common::golden_dir().join("instance_snapshot.bin"), snap.as_bytes());

    // The pinned bytes round-trip through the untrusted path and keep
    // ingesting: drain the tail and close the case without error.
    let wrapped = InstanceSnapshot::from_bytes(snap.into_bytes()).expect("golden blob validates");
    let mut restored = OnlineInstance::restore(scenario, &wrapped).expect("golden blob restores");
    let events = golden_events();
    let cut = events.partition_point(|ev| ev.time_ms() < 150.0 * 1000.0);
    restored.ingest_stream(events[cut..].to_vec());
    let lc = restored.close_case();
    assert!(lc.case.n_seconds() > 0);
}

#[test]
fn every_truncation_yields_a_typed_error() {
    let scenario = golden_scenario();
    let bytes = build_snapshot().into_bytes();
    truncations(&bytes, 1, |prefix| match InstanceSnapshot::from_bytes(prefix.to_vec()) {
        // Header survived the cut; the body decode must catch it.
        Ok(snap) => assert!(OnlineInstance::restore(scenario, &snap).is_err(), "restored"),
        Err(e) => assert!(
            matches!(e, WireError::Truncated { .. } | WireError::BadMagic { .. }),
            "unexpected error {e:?}"
        ),
    });
}

#[test]
fn corrupt_headers_yield_specific_typed_errors() {
    let scenario = golden_scenario();
    let bytes = build_snapshot().into_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Q';
    assert!(matches!(
        InstanceSnapshot::from_bytes(wrong_magic),
        Err(WireError::BadMagic { expected: SNAPSHOT_MAGIC, .. })
    ));

    let mut future = bytes.clone();
    future[4] = 0xFF; // little-endian low byte: version 0xFF > 3
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


    // Header byte 7 and the aggregator body's byte 16 once named a
    // cell-row representation; they are reserved now, and must be 0.
    assert_eq!((bytes[7], bytes[BODY_RESERVED_AT]), (0, 0));
    for value in [1u8, 9, 0xFF] {
        let mut reserved = bytes.clone();
        reserved[7] = value;
        assert!(matches!(
            InstanceSnapshot::from_bytes(reserved),
            Err(WireError::BadTag { what: "reserved byte", value: v }) if v == value as u64
        ));
        let mut reserved = bytes.clone();
        reserved[BODY_RESERVED_AT] = value;
        let snap = InstanceSnapshot::from_bytes(reserved).expect("header is intact");
        assert!(matches!(
            OnlineInstance::restore(scenario, &snap),
            Err(WireError::BadTag { what: "reserved byte", value: v }) if v == value as u64
        ));
    }

    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"garbage");
    let snap = InstanceSnapshot::from_bytes(trailing).expect("header is intact");
    assert!(matches!(
        OnlineInstance::restore(scenario, &snap),
        Err(WireError::TrailingBytes { .. })
    ));
}

/// Tag `0` named the detector kernel that is now a test oracle, and
/// version 2 carried a cut-state section nothing reads: both bytes are
/// refused with typed errors, in the header and in the bank section.
#[test]
fn snapshot_rejects_retired_kernel_tags_and_older_versions() {
    let scenario = golden_scenario();
    let bytes = build_snapshot().into_bytes();
    let bank_at = bank_kernel_at(&bytes);
    assert_eq!((bytes[6], bytes[bank_at]), (1, 1), "both kernel tags hold the one legal value");

    for value in [0u8, 2, 9] {
        let mut header = bytes.clone();
        header[6] = value;
        assert!(matches!(
            InstanceSnapshot::from_bytes(header),
            Err(WireError::BadTag { what: "kernel kind", value: v }) if v == value as u64
        ));
        let mut bank = bytes.clone();
        bank[bank_at] = value;
        let snap = InstanceSnapshot::from_bytes(bank).expect("header is intact");
        assert!(matches!(
            OnlineInstance::restore(scenario, &snap),
            Err(WireError::BadTag { what: "kernel kind", value: v }) if v == value as u64
        ));
    }

    for old in 0..SNAPSHOT_VERSION {
        let mut previous = bytes.clone();
        previous[4..6].copy_from_slice(&old.to_le_bytes());
        assert!(matches!(
            InstanceSnapshot::from_bytes(previous),
            Err(WireError::BadTag { what: "snapshot version", value: v }) if v == old as u64
        ));
    }
    assert_eq!(SNAPSHOT_VERSION, 3, "version 2 is among the refused");
}

#[test]
fn restore_into_wrong_scenario_is_a_typed_error() {
    let snap = build_snapshot();

    let other_cfg = ScenarioConfig { seed: 43, n_business: 7, ..ScenarioConfig::default() };
    let other = inject(&generate_base(&other_cfg), &other_cfg, AnomalyKind::MdlLock);
    let err = OnlineInstance::restore(&other, &snap);
    assert!(err.is_err(), "restoring into a different scenario must fail, got Ok");
}
