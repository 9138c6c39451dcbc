//! Seeded sweep comparing the fixed-width event codec with the oracle.
//! No property-testing dependency: every case is a pure function of its
//! seed, and a failure names the seed.

use super::{decode_event, encode_event, encoded_len, oracle};
use crate::probe::ProbeSample;
use crate::record::QueryRecord;
use crate::telemetry::{MetricsSample, TelemetryEvent};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use pinsql_workload::SpecId;

const SEEDS: u64 = 240;

/// Batch sizes the seeds cycle through: empty, tiny, and either side of
/// the transport's default 256-event batch.
const SIZES: [usize; 10] = [0, 1, 2, 3, 5, 13, 40, 255, 256, 257];

/// Encodings up to this many bytes get the per-byte mutation walk (it is
/// quadratic in the length); every encoding gets the truncation walk.
const MUTATION_WALK_MAX_BYTES: usize = 1200;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An `f64` bit pattern: half the time one of the values a codec is
    /// tempted to normalize, otherwise 64 random bits (NaN payloads,
    /// subnormals and all).
    fn f64_bits(&mut self) -> f64 {
        const SPECIAL: [u64; 10] = [
            0x0000_0000_0000_0000, // +0.0
            0x8000_0000_0000_0000, // -0.0
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x7FF8_0000_0000_0000, // quiet NaN
            0x7FF0_0000_0000_0001, // signalling NaN, smallest payload
            0xFFFF_FFFF_FFFF_FFFF, // negative NaN, full payload
            0x0000_0000_0000_0001, // smallest subnormal
            0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
            0x40F8_6A00_0000_0000, // 100_000.0, an ordinary timestamp
        ];
        match self.below(2) {
            0 => f64::from_bits(SPECIAL[self.below(SPECIAL.len() as u64) as usize]),
            _ => f64::from_bits(self.next()),
        }
    }

    fn spec(&mut self) -> SpecId {
        SpecId(match self.below(4) {
            0 => 0,
            1 => usize::MAX,
            _ => self.next() as usize,
        })
    }

    fn event(&mut self) -> TelemetryEvent {
        match self.below(8) {
            0 => TelemetryEvent::Tick { second: self.next() as i64 },
            1 => {
                let n_probes = match self.below(3) {
                    0 => 0,
                    1 => 1,
                    _ => self.below(40) as usize,
                };
                TelemetryEvent::Metrics(Box::new(MetricsSample {
                    second: self.next() as i64,
                    active_session: self.f64_bits(),
                    cpu_usage: self.f64_bits(),
                    iops_usage: self.f64_bits(),
                    row_lock_waits: self.f64_bits(),
                    mdl_waits: self.f64_bits(),
                    qps: self.f64_bits(),
                    probes: (0..n_probes)
                        .map(|_| ProbeSample {
                            second: self.next() as i64,
                            active_sessions: self.next() as u32,
                            true_instant_ms: self.f64_bits(),
                        })
                        .collect(),
                }))
            }
            _ => TelemetryEvent::Query(QueryRecord {
                spec: self.spec(),
                start_ms: self.f64_bits(),
                response_ms: self.f64_bits(),
                examined_rows: self.next(),
            }),
        }
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
/// names the first field that did not fit. `what` is only built to
/// describe a failure.
fn assert_decodes_agree(bytes: &[u8], n: usize, what: impl Fn() -> String) {
    let new = decode_all(bytes, n, decode_event);
    let old = decode_all(bytes, n, oracle::decode_event);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(
            encode_all(a, oracle::encode_event),
            encode_all(b, oracle::encode_event),
            "{}: decoded values differ",
            what()
        ),
        (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
        (Err(a), Err(b)) => assert_eq!(a, b, "{}", what()),
        _ => panic!("{}: new {new:?}, oracle {old:?}", what()),
    }
}

#[test]
fn fixed_width_codec_matches_the_oracle() {
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let n = SIZES[(seed % SIZES.len() as u64) as usize];
        let events: Vec<TelemetryEvent> = (0..n).map(|_| rng.event()).collect();
        let what = format!("seed {seed} ({n} events)");

        let bytes = encode_all(&events, encode_event);
        assert_eq!(bytes, encode_all(&events, oracle::encode_event), "{what}: bytes differ");
        let sized: usize = events.iter().map(encoded_len).sum();
        assert_eq!(sized, bytes.len(), "{what}: encoded_len disagrees with the encoder");
        assert_decodes_agree(&bytes, n, || what.clone());

        // Truncation at every offset.
        for cut in 0..bytes.len() {
            assert_decodes_agree(&bytes[..cut], n, || format!("{what}, cut at {cut}"));
        }

        // Per-byte x per-value mutation walk.
        if bytes.len() > MUTATION_WALK_MAX_BYTES {
            continue;
        }
        let mut mutated = bytes.clone();
        for at in 0..bytes.len() {
            for value in [0x00, 0x01, 0x02, 0x03, 0x04, 0x7F, 0x80, 0xFF, bytes[at] ^ 0x10] {
                mutated[at] = value;
                assert_decodes_agree(&mutated, n, || format!("{what}, byte {at} = {value:#04x}"));
            }
            mutated[at] = bytes[at];
        }
    }
}
