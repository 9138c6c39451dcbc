//! The engine's shared wire-envelope discipline, and the `PEVT`
//! telemetry-ingest frame format built on it.
//!
//! Three framed formats cross process boundaries: `PSNP` instance
//! snapshots ([`crate::snapshot`]), `PCTL` control frames
//! ([`crate::control`]), and the `PEVT` event frames defined here. All
//! speak the same envelope dialect — little-endian, four magic bytes, a
//! `u16` version (future versions rejected with a typed
//! [`WireError::FutureVersion`], ancient ones with a typed
//! [`WireError::BadTag`]), a routing tag duplicated outside the body, and
//! one length-prefixed body section per frame — and every decoder maps
//! malformed input to a typed [`WireError`] instead of panicking.
//! [`WireFormat`] is that dialect in one place; the per-format modules
//! declare their identity (magic, version range) and inherit the
//! behavior, so the header hardening proven by one format's adversarial
//! suite is the same code path every format runs.
//!
//! ## The `PEVT` ingest wire
//!
//! [`EventFrame`] is how telemetry crosses the agent boundary: a source
//! (the collector side) streams [`TelemetryEvent`]s to a sink (the
//! [`crate::FleetDaemon`]-hosting agent) as batched, sequence-numbered
//! frames, and the sink answers with credit-carrying acknowledgements.
//!
//! * Every source → sink frame ([`Batch`](EventFrame::Batch),
//!   [`Advance`](EventFrame::Advance), [`Fin`](EventFrame::Fin)) carries
//!   one monotone sequence number. The sink applies exactly the next
//!   expected sequence, drops re-sent frames below it (already applied —
//!   a reconnect replays the unacked window), and refuses a gap with a
//!   typed error, which yields exactly-once application over a lossy
//!   connection.
//! * Sink → source frames ([`Hello`](EventFrame::Hello),
//!   [`Ack`](EventFrame::Ack)) carry the resume point, the event-time
//!   watermark, and the **credit window**: how many more events the sink
//!   is willing to buffer. Credits are what make backpressure
//!   deterministic — a source with no credits blocks, it does not guess.
//!
//! Batch bodies serialize events with the [`pinsql_dbsim::wire`] codec,
//! so the event encoding is owned by the crate that owns the type.

use pinsql_dbsim::wire::{decode_event, encode_event, encoded_len};
use pinsql_dbsim::TelemetryEvent;
use pinsql_timeseries::{WireError, WireReader, WireWriter};

/// One framed format's identity: magic marker plus the version range this
/// build accepts. The associated helpers are the shared envelope dialect.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireFormat {
    pub magic: [u8; 4],
    /// Newest version this build writes; newer input is rejected with
    /// [`WireError::FutureVersion`].
    pub version: u16,
    /// Oldest version this build still reads; older input is rejected
    /// with [`WireError::BadTag`] under [`version_what`](Self::version_what).
    pub min_version: u16,
    pub version_what: &'static str,
}

impl WireFormat {
    /// Writes the `magic + version` envelope prefix.
    pub(crate) fn write_magic_version(&self, w: &mut WireWriter) {
        w.put_bytes_raw(&self.magic);
        w.put_u16(self.version);
    }

    /// Reads and range-checks the `magic + version` envelope prefix,
    /// returning the version found (so multi-version decoders know which
    /// trailing sections to expect).
    pub(crate) fn read_magic_version(&self, r: &mut WireReader<'_>) -> Result<u16, WireError> {
        r.expect_magic(self.magic)?;
        let version = r.get_u16()?;
        if version > self.version {
            return Err(WireError::FutureVersion { found: version, supported: self.version });
        }
        if version < self.min_version {
            return Err(WireError::BadTag { what: self.version_what, value: version as u64 });
        }
        Ok(version)
    }

    /// Writes a tagged frame header: `magic + version + u8 tag`. The tag
    /// sits outside the body so a router can dispatch without decoding it.
    pub(crate) fn write_frame_header(&self, w: &mut WireWriter, tag: u8) {
        self.write_magic_version(w);
        w.put_u8(tag);
    }

    /// Reads a tagged frame header, returning the routing tag.
    pub(crate) fn read_frame_header(&self, r: &mut WireReader<'_>) -> Result<u8, WireError> {
        self.read_magic_version(r)?;
        r.get_u8()
    }
}

/// `Option<u64>` as a presence bool plus the value.
pub(crate) fn put_opt_u64(w: &mut WireWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_bool(true);
            w.put_u64(x);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_opt_u64(r: &mut WireReader<'_>) -> Result<Option<u64>, WireError> {
    Ok(if r.get_bool()? { Some(r.get_u64()?) } else { None })
}

pub(crate) fn put_opt_i64(w: &mut WireWriter, v: Option<i64>) {
    match v {
        Some(x) => {
            w.put_bool(true);
            w.put_i64(x);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_opt_i64(r: &mut WireReader<'_>) -> Result<Option<i64>, WireError> {
    Ok(if r.get_bool()? { Some(r.get_i64()?) } else { None })
}

pub(crate) fn put_opt_f64(w: &mut WireWriter, v: Option<f64>) {
    match v {
        Some(x) => {
            w.put_bool(true);
            w.put_f64(x);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_opt_f64(r: &mut WireReader<'_>) -> Result<Option<f64>, WireError> {
    Ok(if r.get_bool()? { Some(r.get_f64()?) } else { None })
}

/// Frame marker: "Pinsql EVenT".
pub const EVENT_MAGIC: [u8; 4] = *b"PEVT";

/// Ingest-wire format version. Decoders accept `<=` this and reject newer
/// frames with [`WireError::FutureVersion`] instead of misparsing them.
pub const EVENT_VERSION: u16 = 1;

/// Bytes before the body section: magic (4) + version (2) + tag (1).
pub const EVENT_HEADER_LEN: usize = 7;

pub(crate) const EVENT_FORMAT: WireFormat = WireFormat {
    magic: EVENT_MAGIC,
    version: EVENT_VERSION,
    min_version: 0,
    version_what: "event wire version",
};

/// Smallest possible serialized event (a tick: tag byte + i64) — the
/// [`WireReader::get_len`] bound that makes an absurd batch length fail
/// fast instead of driving an OOM `Vec::with_capacity`.
const MIN_EVENT_BYTES: usize = 9;

/// One `PEVT` ingest frame. See the module docs for the protocol the
/// frames carry; [`crate::transport`] implements both endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum EventFrame {
    /// Sink → source, on every (re)connect: apply from `next_seq` (frames
    /// below it were already applied), under `credits` more events of
    /// buffer, with everything strictly before `watermark` folded.
    Hello { next_seq: u64, credits: u64, watermark: i64 },
    /// Source → sink: `events`, in stream order, for `instance`.
    Batch { seq: u64, instance: u32, events: Vec<TelemetryEvent> },
    /// Source → sink: every event strictly before `boundary_s` (event
    /// time) has been sent; fold to that watermark now.
    Advance { seq: u64, boundary_s: i64 },
    /// Source → sink: the stream is complete; drain everything buffered.
    Fin { seq: u64 },
    /// Sink → source: `seq` is the highest contiguously applied source
    /// frame, `credits` more events fit in the sink's queues, and every
    /// event strictly before `watermark` has folded.
    Ack { seq: u64, credits: u64, watermark: i64 },
}

impl EventFrame {
    fn tag(&self) -> u8 {
        match self {
            EventFrame::Hello { .. } => 1,
            EventFrame::Batch { .. } => 2,
            EventFrame::Advance { .. } => 3,
            EventFrame::Fin { .. } => 4,
            EventFrame::Ack { .. } => 5,
        }
    }

    /// Exactly the bytes [`to_bytes`](Self::to_bytes) writes inside the
    /// body section.
    fn body_len(&self) -> usize {
        match self {
            EventFrame::Hello { .. } | EventFrame::Ack { .. } => 3 * 8,
            EventFrame::Batch { events, .. } => {
                8 + 4 + 8 + events.iter().map(encoded_len).sum::<usize>()
            }
            EventFrame::Advance { .. } => 2 * 8,
            EventFrame::Fin { .. } => 8,
        }
    }

    /// Encodes one framed message into a buffer sized once, up front: a
    /// frame is one allocation whatever it carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(EVENT_HEADER_LEN + 8 + self.body_len());
        EVENT_FORMAT.write_frame_header(&mut w, self.tag());
        w.put_section(|w| match self {
            EventFrame::Hello { next_seq, credits, watermark } => {
                w.put_u64(*next_seq);
                w.put_u64(*credits);
                w.put_i64(*watermark);
            }
            EventFrame::Batch { seq, instance, events } => {
                w.put_u64(*seq);
                w.put_u32(*instance);
                w.put_len(events.len());
                for ev in events {
                    encode_event(w, ev);
                }
            }
            EventFrame::Advance { seq, boundary_s } => {
                w.put_u64(*seq);
                w.put_i64(*boundary_s);
            }
            EventFrame::Fin { seq } => w.put_u64(*seq),
            EventFrame::Ack { seq, credits, watermark } => {
                w.put_u64(*seq);
                w.put_u64(*credits);
                w.put_i64(*watermark);
            }
        });
        w.into_bytes()
    }

    /// Decodes one framed message from untrusted bytes. Every malformed
    /// input maps to a typed [`WireError`]; this never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let tag = EVENT_FORMAT.read_frame_header(&mut r)?;
        let mut body = r.get_section()?;
        let frame = match tag {
            1 => EventFrame::Hello {
                next_seq: body.get_u64()?,
                credits: body.get_u64()?,
                watermark: body.get_i64()?,
            },
            2 => {
                let seq = body.get_u64()?;
                let instance = body.get_u32()?;
                let n = body.get_len(MIN_EVENT_BYTES)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(decode_event(&mut body)?);
                }
                EventFrame::Batch { seq, instance, events }
            }
            3 => EventFrame::Advance { seq: body.get_u64()?, boundary_s: body.get_i64()? },
            4 => EventFrame::Fin { seq: body.get_u64()? },
            5 => EventFrame::Ack {
                seq: body.get_u64()?,
                credits: body.get_u64()?,
                watermark: body.get_i64()?,
            },
            t => return Err(WireError::BadTag { what: "event frame tag", value: t as u64 }),
        };
        body.finish("event frame body")?;
        r.finish("event frame")?;
        Ok(frame)
    }

    /// The sequence number a source → sink frame carries (`None` for the
    /// sink → source frames, which are unsequenced).
    pub fn seq(&self) -> Option<u64> {
        match self {
            EventFrame::Batch { seq, .. }
            | EventFrame::Advance { seq, .. }
            | EventFrame::Fin { seq } => Some(*seq),
            EventFrame::Hello { .. } | EventFrame::Ack { .. } => None,
        }
    }
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod sweep_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_dbsim::MetricsSample;
    use pinsql_workload::SpecId;

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::Query(pinsql_dbsim::QueryRecord {
                spec: SpecId(7),
                start_ms: 1234.5,
                response_ms: 88.25,
                examined_rows: 42,
            }),
            TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: 12,
                active_session: 3.0,
                cpu_usage: 0.5,
                iops_usage: 0.25,
                row_lock_waits: 0.0,
                mdl_waits: 1.0,
                qps: 9.0,
                probes: vec![pinsql_dbsim::probe::ProbeSample {
                    second: 12,
                    active_sessions: 3,
                    true_instant_ms: 12_400.0,
                }],
            })),
            TelemetryEvent::Tick { second: 13 },
        ]
    }

    #[test]
    fn frames_round_trip_exactly() {
        let frames = [
            EventFrame::Hello { next_seq: 4, credits: 1024, watermark: 120 },
            EventFrame::Batch { seq: 4, instance: 2, events: sample_events() },
            EventFrame::Batch { seq: 5, instance: 0, events: Vec::new() },
            EventFrame::Advance { seq: 6, boundary_s: 300 },
            EventFrame::Fin { seq: 7 },
            EventFrame::Ack { seq: 6, credits: 512, watermark: 300 },
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            assert_eq!(&bytes[..4], &EVENT_MAGIC);
            assert_eq!(EventFrame::from_bytes(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn unknown_frame_tags_are_typed() {
        let mut bytes = EventFrame::Fin { seq: 1 }.to_bytes();
        bytes[EVENT_HEADER_LEN - 1] = 9;
        assert!(matches!(
            EventFrame::from_bytes(&bytes),
            Err(WireError::BadTag { what: "event frame tag", value: 9 })
        ));
    }

    #[test]
    fn absurd_batch_length_fails_fast() {
        let mut w = WireWriter::new();
        EVENT_FORMAT.write_frame_header(&mut w, 2);
        w.put_section(|w| {
            w.put_u64(1);
            w.put_u32(0);
            w.put_len(usize::MAX / 2);
        });
        assert!(matches!(
            EventFrame::from_bytes(&w.into_bytes()),
            Err(WireError::Truncated { .. })
        ));
    }
}
