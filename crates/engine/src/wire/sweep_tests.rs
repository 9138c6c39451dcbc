//! Seeded sweep comparing `EventFrame::{to_bytes, from_bytes}` with the
//! oracle, frame by frame. Every case is a pure function of its seed, and
//! a failure names the seed.

use super::{oracle, EventFrame};
use pinsql_dbsim::probe::ProbeSample;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_timeseries::WireError;
use pinsql_workload::SpecId;

const SEEDS: u64 = 220;

/// Batch sizes the seeds cycle through: empty, tiny, and either side of
/// the transport's default 256-event batch.
const SIZES: [usize; 8] = [0, 1, 2, 7, 30, 255, 256, 257];

/// Frames up to this many bytes get the per-byte mutation walk (it is
/// quadratic in the length); every frame gets the truncation walk.
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

    /// An `f64` bit pattern: half the time one a codec is tempted to
    /// normalize (signed zeros, infinities, NaNs with payloads,
    /// subnormals), otherwise 64 random bits.
    fn f64_bits(&mut self) -> f64 {
        const SPECIAL: [u64; 8] = [
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF8_0000_0000_0000,
            0xFFFF_FFFF_FFFF_FFFF,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
        ];
        match self.below(2) {
            0 => f64::from_bits(SPECIAL[self.below(SPECIAL.len() as u64) as usize]),
            _ => f64::from_bits(self.next()),
        }
    }

    fn event(&mut self) -> TelemetryEvent {
        match self.below(8) {
            0 => TelemetryEvent::Tick { second: self.next() as i64 },
            1 => TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: self.next() as i64,
                active_session: self.f64_bits(),
                cpu_usage: self.f64_bits(),
                iops_usage: self.f64_bits(),
                row_lock_waits: self.f64_bits(),
                mdl_waits: self.f64_bits(),
                qps: self.f64_bits(),
                probes: (0..[0, 1, 25][self.below(3) as usize])
                    .map(|_| ProbeSample {
                        second: self.next() as i64,
                        active_sessions: self.next() as u32,
                        true_instant_ms: self.f64_bits(),
                    })
                    .collect(),
            })),
            _ => TelemetryEvent::Query(QueryRecord {
                spec: SpecId([0, usize::MAX, self.next() as usize][self.below(3) as usize]),
                start_ms: self.f64_bits(),
                response_ms: self.f64_bits(),
                examined_rows: self.next(),
            }),
        }
    }

    /// One frame of each variant; the batch holds `n_events`.
    fn frames(&mut self, n_events: usize) -> [EventFrame; 5] {
        [
            EventFrame::Hello {
                next_seq: self.next(),
                credits: self.next(),
                watermark: self.next() as i64,
            },
            EventFrame::Batch {
                seq: self.next(),
                instance: self.next() as u32,
                events: (0..n_events).map(|_| self.event()).collect(),
            },
            EventFrame::Advance { seq: self.next(), boundary_s: self.next() as i64 },
            EventFrame::Fin { seq: self.next() },
            EventFrame::Ack {
                seq: self.next(),
                credits: self.next(),
                watermark: [i64::MIN, i64::MAX, 0][self.below(3) as usize],
            },
        ]
    }
}

/// The two decoders agree on `bytes`: the same frame bit for bit
/// (compared as the oracle's encoding of it, which is injective on the
/// bits and indifferent to `NaN != NaN`), or the same [`WireError`]
/// variant. `need` / `have` inside `Truncated` are NOT compared: the
/// fixed-width read reports the whole record's size where the oracle
/// names the first field that did not fit. `what` is only built to
/// describe a failure.
fn assert_decodes_agree(bytes: &[u8], what: impl Fn() -> String) {
    let new = EventFrame::from_bytes(bytes);
    let old = oracle::from_bytes(bytes);
    match (&new, &old) {
        (Ok(a), Ok(b)) => {
            assert_eq!(oracle::to_bytes(a), oracle::to_bytes(b), "{}: frames differ", what())
        }
        (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
        (Err(a), Err(b)) => assert_eq!(a, b, "{}", what()),
        _ => panic!("{}: new {new:?}, oracle {old:?}", what()),
    }
}

#[test]
fn frame_codec_matches_the_oracle() {
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let n_events = SIZES[(seed % SIZES.len() as u64) as usize];
        for frame in rng.frames(n_events) {
            let what = format!("seed {seed}, tag {} ({n_events} events)", frame.tag());
            let bytes = frame.to_bytes();
            assert_eq!(bytes, oracle::to_bytes(&frame), "{what}: bytes differ");
            assert_eq!(
                bytes.len(),
                super::EVENT_HEADER_LEN + 8 + frame.body_len(),
                "{what}: the buffer was not sized to the frame"
            );
            assert_decodes_agree(&bytes, || what.clone());

            // Truncation at every offset.
            for cut in 0..bytes.len() {
                assert_decodes_agree(&bytes[..cut], || format!("{what}, cut at {cut}"));
            }

            // Per-byte x per-value mutation walk.
            if bytes.len() > MUTATION_WALK_MAX_BYTES {
                continue;
            }
            let mut mutated = bytes.clone();
            for at in 0..bytes.len() {
                for value in [0x00, 0x01, 0x02, 0x03, 0x05, 0x7F, 0x80, 0xFF, bytes[at] ^ 0x10] {
                    mutated[at] = value;
                    assert_decodes_agree(&mutated, || format!("{what}, byte {at} = {value:#04x}"));
                }
                mutated[at] = bytes[at];
            }
        }
    }
}
