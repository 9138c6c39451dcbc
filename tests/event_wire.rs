//! Wire-format hardening for the `PEVT` ingest frames.
//!
//! A golden frame blob lives at `tests/golden/event_frame.bin`
//! (`pinsql_testkit::pin`; `PINSQL_BLESS=1` rewrites it after an
//! intentional format change). The frame is built from hardcoded
//! events — no scenario, no RNG — so the bytes are a pure function of
//! the codec. Against it this suite pins:
//!
//! * byte-stability — today's encoder reproduces the committed blob
//!   exactly, so any accidental wire-format change fails loudly;
//! * typed failure on *every* malformed shape — truncation at each byte,
//!   wrong magic, future version, unknown frame and event tags, trailing
//!   garbage inside and after the body section, absurd batch lengths,
//!   the kit's per-byte mutation walk and seeded noise — never a panic.

mod common;

use pinsql_dbsim::{probe::ProbeSample, MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_engine::{EventFrame, EVENT_HEADER_LEN, EVENT_MAGIC, EVENT_VERSION};
use pinsql_testkit::{mutations, pin, sweep, truncations, BYTE_VALUES};
use pinsql_timeseries::{WireError, WireWriter};
use pinsql_workload::rng::RngExt;
use pinsql_workload::SpecId;

/// The canonical batch: one of each event variant, every field at a
/// value whose encoding exercises both zero and non-trivial bytes.
fn golden_events() -> Vec<TelemetryEvent> {
    vec![
        TelemetryEvent::Tick { second: 41 },
        TelemetryEvent::Query(QueryRecord {
            spec: SpecId(7),
            start_ms: 41_250.5,
            response_ms: 88.25,
            examined_rows: 42,
        }),
        TelemetryEvent::Metrics(Box::new(MetricsSample {
            second: 41,
            active_session: 3.0,
            cpu_usage: 0.5,
            iops_usage: 0.25,
            row_lock_waits: 0.0,
            mdl_waits: 1.0,
            qps: 9.0,
            probes: vec![ProbeSample {
                second: 41,
                active_sessions: 3,
                true_instant_ms: 41_400.0,
            }],
        })),
    ]
}

fn golden_frame() -> EventFrame {
    EventFrame::Batch { seq: 3, instance: 2, events: golden_events() }
}

#[test]
fn golden_frame_is_byte_stable_and_round_trips() {
    let frame = golden_frame();
    let bytes = frame.to_bytes();
    assert_eq!(&bytes[..4], &EVENT_MAGIC);
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), EVENT_VERSION);

    // A change that is meant must bump EVENT_VERSION before the re-bless.
    pin(common::golden_dir().join("event_frame.bin"), &bytes);
    let back = EventFrame::from_bytes(&bytes).expect("golden frame decodes");
    assert_eq!(back, frame, "golden frame round-trips exactly");
}

#[test]
fn every_sink_and_source_frame_round_trips() {
    let frames = [
        EventFrame::Hello { next_seq: 1, credits: 8192, watermark: i64::MIN },
        EventFrame::Batch { seq: 1, instance: 0, events: golden_events() },
        EventFrame::Batch { seq: 2, instance: u32::MAX, events: Vec::new() },
        EventFrame::Advance { seq: 3, boundary_s: -120 },
        EventFrame::Fin { seq: u64::MAX },
        EventFrame::Ack { seq: 9, credits: 0, watermark: 1200 },
    ];
    for frame in frames {
        let bytes = frame.to_bytes();
        assert_eq!(
            EventFrame::from_bytes(&bytes).unwrap(),
            frame,
            "round trip failed for {frame:?}"
        );
    }
}

#[test]
fn every_truncation_yields_a_typed_error() {
    truncations(&golden_frame().to_bytes(), 1, |prefix| match EventFrame::from_bytes(prefix) {
        Ok(f) => panic!("decoded to {f:?}"),
        Err(e) => assert!(
            matches!(e, WireError::Truncated { .. } | WireError::BadMagic { .. }),
            "unexpected error {e:?}"
        ),
    });
}

#[test]
fn corrupt_headers_yield_specific_typed_errors() {
    let bytes = golden_frame().to_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Q';
    assert!(matches!(
        EventFrame::from_bytes(&wrong_magic),
        Err(WireError::BadMagic { expected: EVENT_MAGIC, .. })
    ));

    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(EVENT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        EventFrame::from_bytes(&future),
        Err(WireError::FutureVersion { found, supported: EVENT_VERSION })
            if found == EVENT_VERSION + 1
    ));

    let mut bad_tag = bytes.clone();
    bad_tag[EVENT_HEADER_LEN - 1] = 9;
    assert!(matches!(
        EventFrame::from_bytes(&bad_tag),
        Err(WireError::BadTag { what: "event frame tag", value: 9 })
    ));

    // Garbage *after* the body section: the frame-level finish catches it.
    let mut after = bytes.clone();
    after.extend_from_slice(b"garbage");
    assert!(matches!(
        EventFrame::from_bytes(&after),
        Err(WireError::TrailingBytes { what: "event frame", .. })
    ));
}

#[test]
fn trailing_bytes_inside_the_body_section_are_refused() {
    // Hand-build an Advance whose body section over-declares its length:
    // the decode consumes seq + boundary, then the section finish must
    // flag the surplus instead of silently skipping it.
    let mut w = WireWriter::new();
    w.put_bytes_raw(&EVENT_MAGIC);
    w.put_u16(EVENT_VERSION);
    w.put_u8(3); // Advance
    w.put_section(|w| {
        w.put_u64(1);
        w.put_i64(300);
        w.put_u8(0xEE); // the smuggled byte
    });
    assert!(matches!(
        EventFrame::from_bytes(&w.into_bytes()),
        Err(WireError::TrailingBytes { what: "event frame body", extra: 1 })
    ));
}

#[test]
fn absurd_batch_and_probe_lengths_fail_fast() {
    // A batch length far beyond the buffer must be refused before any
    // allocation keyed on it.
    let mut w = WireWriter::new();
    w.put_bytes_raw(&EVENT_MAGIC);
    w.put_u16(EVENT_VERSION);
    w.put_u8(2); // Batch
    w.put_section(|w| {
        w.put_u64(1);
        w.put_u32(0);
        w.put_len(usize::MAX / 2);
    });
    assert!(matches!(EventFrame::from_bytes(&w.into_bytes()), Err(WireError::Truncated { .. })));

    // A bad tag spliced into the first *event* inside an otherwise valid
    // batch surfaces as the event codec's typed error.
    let mut bytes = golden_frame().to_bytes();
    // Header + section length prefix + seq + instance + batch len, then
    // the first event's tag byte.
    let first_event_tag = EVENT_HEADER_LEN + 8 + 8 + 4 + 8;
    bytes[first_event_tag] = 0xAB;
    assert!(matches!(
        EventFrame::from_bytes(&bytes),
        Err(WireError::BadTag { what: "telemetry event tag", value: 0xAB })
    ));
}

/// A deterministic mutation sweep standing in for a fuzzer: the kit's
/// per-byte walk over the golden frame, then seeded noise, half of it
/// behind a valid header. Decode must return — any outcome is fine,
/// panicking or hanging is not.
#[test]
fn mutation_sweep_never_panics() {
    mutations(&golden_frame().to_bytes(), &BYTE_VALUES, |b| b ^ 0x10, |mutated| {
        let _ = EventFrame::from_bytes(mutated);
    });
    sweep(0..256, |seed, rng| {
        let len = rng.random_range(0..64usize);
        let mut noise: Vec<u8> = (0..len).map(|_| rng.random::<u64>() as u8).collect();
        if seed % 2 == 0 && noise.len() >= EVENT_HEADER_LEN {
            noise[..4].copy_from_slice(&EVENT_MAGIC);
            noise[4..6].copy_from_slice(&EVENT_VERSION.to_le_bytes());
        }
        let _ = EventFrame::from_bytes(&noise);
    });
}
