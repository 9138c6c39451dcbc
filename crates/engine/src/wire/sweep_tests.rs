//! Seeded sweep comparing `EventFrame::{to_bytes, from_bytes}` with the
//! oracle, frame by frame: each frame, every prefix of it and the
//! mutation walk over it. Every case is a pure function of its seed, and
//! a failure names the seed and the cut or byte.

use super::{oracle, EventFrame};
use pinsql_dbsim::probe::ProbeSample;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_testkit::{f64_pattern, mutations, sweep, truncations, BYTE_VALUES};
use pinsql_timeseries::WireError;
use pinsql_workload::rng::{RngExt, StdRng};
use pinsql_workload::SpecId;

const SEEDS: u64 = 220;

/// Batch sizes the seeds cycle through: empty, tiny, and either side of
/// the transport's default 256-event batch.
const SIZES: [usize; 8] = [0, 1, 2, 7, 30, 255, 256, 257];

/// Frames up to this many bytes get the per-byte mutation walk (it is
/// quadratic in the length); every frame gets the truncation walk.
const MUTATION_WALK_MAX_BYTES: usize = 1200;

fn event(rng: &mut StdRng) -> TelemetryEvent {
    match rng.random_range(0..8u32) {
        0 => TelemetryEvent::Tick { second: rng.random::<u64>() as i64 },
        1 => TelemetryEvent::Metrics(Box::new(MetricsSample {
            second: rng.random::<u64>() as i64,
            active_session: f64_pattern(rng),
            cpu_usage: f64_pattern(rng),
            iops_usage: f64_pattern(rng),
            row_lock_waits: f64_pattern(rng),
            mdl_waits: f64_pattern(rng),
            qps: f64_pattern(rng),
            probes: (0..[0, 1, 25][rng.random_range(0..3usize)])
                .map(|_| ProbeSample {
                    second: rng.random::<u64>() as i64,
                    active_sessions: rng.random(),
                    true_instant_ms: f64_pattern(rng),
                })
                .collect(),
        })),
        _ => TelemetryEvent::Query(QueryRecord {
            spec: SpecId([0, usize::MAX, rng.random()][rng.random_range(0..3usize)]),
            start_ms: f64_pattern(rng),
            response_ms: f64_pattern(rng),
            examined_rows: rng.random(),
        }),
    }
}

/// One frame of each variant; the batch holds `n_events`.
fn frames(rng: &mut StdRng, n_events: usize) -> [EventFrame; 5] {
    [
        EventFrame::Hello {
            next_seq: rng.random(),
            credits: rng.random(),
            watermark: rng.random::<u64>() as i64,
        },
        EventFrame::Batch {
            seq: rng.random(),
            instance: rng.random(),
            events: (0..n_events).map(|_| event(rng)).collect(),
        },
        EventFrame::Advance { seq: rng.random(), boundary_s: rng.random::<u64>() as i64 },
        EventFrame::Fin { seq: rng.random() },
        EventFrame::Ack {
            seq: rng.random(),
            credits: rng.random(),
            watermark: [i64::MIN, i64::MAX, 0][rng.random_range(0..3usize)],
        },
    ]
}

/// The two decoders agree on `bytes`: the same frame bit for bit
/// (compared as the oracle's encoding of it, which is injective on the
/// bits and indifferent to `NaN != NaN`), or the same [`WireError`]
/// variant. `need` / `have` inside `Truncated` are NOT compared: the
/// fixed-width read reports the whole record's size where the oracle
/// names the first field that did not fit.
fn assert_decodes_agree(bytes: &[u8]) {
    let new = EventFrame::from_bytes(bytes);
    let old = oracle::from_bytes(bytes);
    match (&new, &old) {
        (Ok(a), Ok(b)) => {
            assert_eq!(oracle::to_bytes(a), oracle::to_bytes(b), "frames differ")
        }
        (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
        (Err(a), Err(b)) => assert_eq!(a, b),
        _ => panic!("new {new:?}, oracle {old:?}"),
    }
}

#[test]
fn frame_codec_matches_the_oracle() {
    sweep(0..SEEDS, |seed, rng| {
        let n_events = SIZES[(seed % SIZES.len() as u64) as usize];
        for frame in frames(rng, n_events) {
            let what = format!("tag {} ({n_events} events)", frame.tag());
            let bytes = frame.to_bytes();
            assert_eq!(bytes, oracle::to_bytes(&frame), "{what}: bytes differ");
            assert_eq!(
                bytes.len(),
                super::EVENT_HEADER_LEN + 8 + frame.body_len(),
                "{what}: the buffer was not sized to the frame"
            );
            assert_decodes_agree(&bytes);
            truncations(&bytes, 1, assert_decodes_agree);
            // The mutation walk is quadratic in the length.
            if bytes.len() <= MUTATION_WALK_MAX_BYTES {
                mutations(&bytes, &BYTE_VALUES, |b| b ^ 0x10, assert_decodes_agree);
            }
        }
    });
}
