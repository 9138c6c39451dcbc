//! Binary codec for [`TelemetryEvent`] — the unit the `PEVT` ingest wire
//! batches.
//!
//! Production telemetry crosses a process boundary on its way to the
//! diagnosis service, so the event stream needs a serialized form with
//! the same contract as every other wire in the workspace: little-endian,
//! every `f64` as raw IEEE-754 bits (non-finite timestamps are *data*
//! here — the robustness layer deliberately injects them, and the decode
//! must deliver them unchanged for the malformed-record counters to
//! agree), and typed [`WireError`]s for malformed input, never a panic.
//!
//! The codec lives in `pinsql-dbsim` because it owns [`TelemetryEvent`]:
//! the engine's frame envelope ([`pinsql_engine::wire`]) delegates here,
//! so a field added to an event variant is encoded and decoded in the
//! same crate that added it. Framing (magic, version, batching,
//! sequencing) is deliberately *not* here — one event encodes to a bare
//! tagged record, and the engine owns the envelope.

use crate::probe::ProbeSample;
use crate::record::QueryRecord;
use crate::telemetry::{MetricsSample, TelemetryEvent};
use pinsql_timeseries::wire::{f64_at, set_f64, set_u64, u64_at};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use pinsql_workload::SpecId;

/// Serialized size of one [`ProbeSample`]: second + sessions + instant.
const PROBE_BYTES: usize = 8 + 4 + 8;

/// Serialized size of one [`QueryRecord`]: spec + start + response + rows.
pub const QUERY_RECORD_BYTES: usize = 32;

/// Serialized size of a metrics event up to and including its probe count.
const METRICS_HEAD_BYTES: usize = 1 + 8 + 6 * 8 + 8;

/// One query record as the fixed-width row every wire carries it in (the
/// body of a `PEVT` query event, a row of the `PSNP` record ring): `spec`
/// as `u64`, the two timestamps as raw bits, `examined_rows`.
#[inline]
pub fn query_record_bytes(q: &QueryRecord) -> [u8; QUERY_RECORD_BYTES] {
    let mut row = [0u8; QUERY_RECORD_BYTES];
    set_u64(&mut row, 0, q.spec.0 as u64);
    set_f64(&mut row, 8, q.start_ms);
    set_f64(&mut row, 16, q.response_ms);
    set_u64(&mut row, 24, q.examined_rows);
    row
}

/// The record a [`query_record_bytes`] row holds. `spec` is whatever the
/// bytes say: whoever indexes a catalog with it range-checks it first.
#[inline]
pub fn query_record_from_bytes(row: &[u8; QUERY_RECORD_BYTES]) -> QueryRecord {
    QueryRecord {
        spec: SpecId(u64_at(row, 0) as usize),
        start_ms: f64_at(row, 8),
        response_ms: f64_at(row, 16),
        examined_rows: u64_at(row, 24),
    }
}

/// Exactly the bytes [`encode_event`] appends for `ev`, so a frame
/// encoder can size its buffer once.
#[inline]
pub fn encoded_len(ev: &TelemetryEvent) -> usize {
    match ev {
        TelemetryEvent::Query(_) => 1 + QUERY_RECORD_BYTES,
        TelemetryEvent::Metrics(m) => METRICS_HEAD_BYTES + m.probes.len() * PROBE_BYTES,
        TelemetryEvent::Tick { .. } => 1 + 8,
    }
}

/// Appends one event as a tagged record (no framing).
#[inline]
pub fn encode_event(w: &mut WireWriter, ev: &TelemetryEvent) {
    match ev {
        TelemetryEvent::Query(q) => {
            let mut tagged = [0u8; 1 + QUERY_RECORD_BYTES];
            tagged[0] = 1;
            tagged[1..].copy_from_slice(&query_record_bytes(q));
            w.put_array(tagged);
        }
        TelemetryEvent::Metrics(m) => {
            w.put_u8(2);
            w.put_i64(m.second);
            w.put_f64(m.active_session);
            w.put_f64(m.cpu_usage);
            w.put_f64(m.iops_usage);
            w.put_f64(m.row_lock_waits);
            w.put_f64(m.mdl_waits);
            w.put_f64(m.qps);
            w.put_len(m.probes.len());
            for p in &m.probes {
                w.put_i64(p.second);
                w.put_u32(p.active_sessions);
                w.put_f64(p.true_instant_ms);
            }
        }
        TelemetryEvent::Tick { second } => {
            w.put_u8(3);
            w.put_i64(*second);
        }
    }
}

/// Decodes one tagged event record from untrusted bytes; never panics.
#[inline]
pub fn decode_event(r: &mut WireReader<'_>) -> Result<TelemetryEvent, WireError> {
    Ok(match r.get_u8()? {
        1 => TelemetryEvent::Query(query_record_from_bytes(r.get_array()?)),
        2 => {
            let second = r.get_i64()?;
            let active_session = r.get_f64()?;
            let cpu_usage = r.get_f64()?;
            let iops_usage = r.get_f64()?;
            let row_lock_waits = r.get_f64()?;
            let mdl_waits = r.get_f64()?;
            let qps = r.get_f64()?;
            let n = r.get_len(PROBE_BYTES)?;
            let mut probes = Vec::with_capacity(n);
            for _ in 0..n {
                probes.push(ProbeSample {
                    second: r.get_i64()?,
                    active_sessions: r.get_u32()?,
                    true_instant_ms: r.get_f64()?,
                });
            }
            TelemetryEvent::Metrics(Box::new(MetricsSample {
                second,
                active_session,
                cpu_usage,
                iops_usage,
                row_lock_waits,
                mdl_waits,
                qps,
                probes,
            }))
        }
        3 => TelemetryEvent::Tick { second: r.get_i64()? },
        t => return Err(WireError::BadTag { what: "telemetry event tag", value: t as u64 }),
    })
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod sweep_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::Query(QueryRecord {
                spec: SpecId(3),
                start_ms: 1_500.25,
                response_ms: 12.5,
                examined_rows: 999,
            }),
            // Non-finite fields are legitimate chaos-layer payloads; the
            // codec must carry their exact bits.
            TelemetryEvent::Query(QueryRecord {
                spec: SpecId(0),
                start_ms: f64::NAN,
                response_ms: f64::INFINITY,
                examined_rows: 0,
            }),
            TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: -5,
                active_session: 2.0,
                cpu_usage: 0.75,
                iops_usage: 0.5,
                row_lock_waits: 1.0,
                mdl_waits: 0.0,
                qps: 40.0,
                probes: vec![
                    ProbeSample { second: -5, active_sessions: 2, true_instant_ms: -4_600.0 },
                    ProbeSample { second: -5, active_sessions: 3, true_instant_ms: -4_200.0 },
                ],
            })),
            TelemetryEvent::Metrics(Box::default()),
            TelemetryEvent::Tick { second: i64::MIN },
        ]
    }

    #[test]
    fn events_round_trip_exactly() {
        let events = sample_events();
        let mut w = WireWriter::new();
        for ev in &events {
            encode_event(&mut w, ev);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for ev in &events {
            let back = decode_event(&mut r).unwrap();
            match (ev, &back) {
                // NaN != NaN under PartialEq; compare the raw bits.
                (TelemetryEvent::Query(a), TelemetryEvent::Query(b)) => {
                    assert_eq!(a.spec, b.spec);
                    assert_eq!(a.start_ms.to_bits(), b.start_ms.to_bits());
                    assert_eq!(a.response_ms.to_bits(), b.response_ms.to_bits());
                    assert_eq!(a.examined_rows, b.examined_rows);
                }
                _ => assert_eq!(ev, &back),
            }
        }
        r.finish("event stream").unwrap();
    }

    #[test]
    fn unknown_event_tag_is_typed() {
        let mut r = WireReader::new(&[9u8]);
        assert!(matches!(
            decode_event(&mut r),
            Err(WireError::BadTag { what: "telemetry event tag", value: 9 })
        ));
    }

    #[test]
    fn every_truncation_is_typed() {
        let mut w = WireWriter::new();
        for ev in sample_events() {
            encode_event(&mut w, &ev);
        }
        let bytes = w.into_bytes();
        pinsql_testkit::truncations(&bytes, 1, |prefix| {
            let mut r = WireReader::new(prefix);
            let res = (0..sample_events().len()).try_for_each(|_| decode_event(&mut r).map(drop));
            assert!(matches!(res, Err(WireError::Truncated { .. })), "{res:?}");
        });
    }

    #[test]
    fn absurd_probe_length_fails_fast() {
        let mut w = WireWriter::new();
        encode_event(&mut w, &TelemetryEvent::Metrics(Box::default()));
        let mut bytes = w.into_bytes();
        // The probe length prefix sits after tag + second + six metrics.
        let at = 1 + 8 + 6 * 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = WireReader::new(&bytes);
        assert!(matches!(decode_event(&mut r), Err(WireError::Truncated { .. })));
    }
}
