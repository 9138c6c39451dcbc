//! Seeded sweep comparing the fixed-width event codec with the oracle.
//! No property-testing dependency: every case is a pure function of its
//! seed, and a failure names the seed and the cut or byte.

use super::{decode_event, encode_event, encoded_len, oracle};
use crate::probe::ProbeSample;
use crate::record::QueryRecord;
use crate::telemetry::{MetricsSample, TelemetryEvent};
use pinsql_testkit::{f64_pattern, mutations, sweep, truncations, BYTE_VALUES};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use pinsql_workload::rng::{RngExt, StdRng};
use pinsql_workload::SpecId;

const SEEDS: u64 = 240;

/// Batch sizes the seeds cycle through: empty, tiny, and either side of
/// the transport's default 256-event batch.
const SIZES: [usize; 10] = [0, 1, 2, 3, 5, 13, 40, 255, 256, 257];

/// Encodings up to this many bytes get the per-byte mutation walk (it is
/// quadratic in the length); every encoding gets the truncation walk.
const MUTATION_WALK_MAX_BYTES: usize = 1200;

fn spec(rng: &mut StdRng) -> SpecId {
    SpecId(match rng.random_range(0..4u32) {
        0 => 0,
        1 => usize::MAX,
        _ => rng.random(),
    })
}

fn event(rng: &mut StdRng) -> TelemetryEvent {
    match rng.random_range(0..8u32) {
        0 => TelemetryEvent::Tick { second: rng.random::<u64>() as i64 },
        1 => {
            let n_probes = match rng.random_range(0..3u32) {
                0 => 0,
                1 => 1,
                _ => rng.random_range(0..40usize),
            };
            TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: rng.random::<u64>() as i64,
                active_session: f64_pattern(rng),
                cpu_usage: f64_pattern(rng),
                iops_usage: f64_pattern(rng),
                row_lock_waits: f64_pattern(rng),
                mdl_waits: f64_pattern(rng),
                qps: f64_pattern(rng),
                probes: (0..n_probes)
                    .map(|_| ProbeSample {
                        second: rng.random::<u64>() as i64,
                        active_sessions: rng.random(),
                        true_instant_ms: f64_pattern(rng),
                    })
                    .collect(),
            }))
        }
        _ => TelemetryEvent::Query(QueryRecord {
            spec: spec(rng),
            start_ms: f64_pattern(rng),
            response_ms: f64_pattern(rng),
            examined_rows: rng.random(),
        }),
    }
}

fn encode_all(events: &[TelemetryEvent], encode: fn(&mut WireWriter, &TelemetryEvent)) -> Vec<u8> {
    let mut w = WireWriter::new();
    for ev in events {
        encode(&mut w, ev);
    }
    w.into_bytes()
}

type Decode = fn(&mut WireReader<'_>) -> Result<TelemetryEvent, WireError>;

/// Decodes `n` events and requires the buffer to end there, as a frame
/// body does.
fn decode_all(bytes: &[u8], n: usize, decode: Decode) -> Result<Vec<TelemetryEvent>, WireError> {
    let mut r = WireReader::new(bytes);
    let events = (0..n).map(|_| decode(&mut r)).collect::<Result<Vec<_>, _>>()?;
    r.finish("event stream")?;
    Ok(events)
}

/// The two decoders agree on `bytes`: the same events bit for bit
/// (compared as the oracle's encoding of each, which is injective on the
/// bits and indifferent to `NaN != NaN`), or the same [`WireError`]
/// variant. `need` / `have` inside `Truncated` are NOT compared: the
/// fixed-width read reports the whole record's size where the oracle
/// names the first field that did not fit.
fn assert_decodes_agree(bytes: &[u8], n: usize) {
    let new = decode_all(bytes, n, decode_event);
    let old = decode_all(bytes, n, oracle::decode_event);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(
            encode_all(a, oracle::encode_event),
            encode_all(b, oracle::encode_event),
            "decoded values differ"
        ),
        (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
        (Err(a), Err(b)) => assert_eq!(a, b),
        _ => panic!("new {new:?}, oracle {old:?}"),
    }
}

#[test]
fn fixed_width_codec_matches_the_oracle() {
    sweep(0..SEEDS, |seed, rng| {
        let n = SIZES[(seed % SIZES.len() as u64) as usize];
        let events: Vec<TelemetryEvent> = (0..n).map(|_| event(rng)).collect();

        let bytes = encode_all(&events, encode_event);
        assert_eq!(bytes, encode_all(&events, oracle::encode_event), "{n} events: bytes differ");
        let sized: usize = events.iter().map(encoded_len).sum();
        assert_eq!(sized, bytes.len(), "{n} events: encoded_len disagrees with the encoder");
        assert_decodes_agree(&bytes, n);
        truncations(&bytes, 1, |prefix| assert_decodes_agree(prefix, n));
        // The mutation walk is quadratic in the length.
        if bytes.len() <= MUTATION_WALK_MAX_BYTES {
            let agree = |mutated: &[u8]| assert_decodes_agree(mutated, n);
            mutations(&bytes, &BYTE_VALUES, |b| b ^ 0x10, agree);
        }
    });
}
