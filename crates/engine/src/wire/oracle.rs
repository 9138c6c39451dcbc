//! The `PEVT` codec as it was before the fixed-width record and the
//! sized-once frame buffer, kept under `#[cfg(test)]` as the oracle the
//! sweep compares with: a 64-byte starting buffer grown on demand, one
//! `put_*` / `get_*` call per field. The event half repeats
//! `pinsql_dbsim`'s own oracle — a `cfg(test)` item of another crate
//! cannot be reached from here.

use super::{EventFrame, EVENT_FORMAT, MIN_EVENT_BYTES};
use pinsql_dbsim::probe::ProbeSample;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use pinsql_workload::SpecId;

/// Serialized size of one [`ProbeSample`]: second + sessions + instant.
const PROBE_BYTES: usize = 8 + 4 + 8;

fn encode_event(w: &mut WireWriter, ev: &TelemetryEvent) {
    match ev {
        TelemetryEvent::Query(q) => {
            w.put_u8(1);
            w.put_u64(q.spec.0 as u64);
            w.put_f64(q.start_ms);
            w.put_f64(q.response_ms);
            w.put_u64(q.examined_rows);
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

fn decode_event(r: &mut WireReader<'_>) -> Result<TelemetryEvent, WireError> {
    Ok(match r.get_u8()? {
        1 => TelemetryEvent::Query(QueryRecord {
            spec: SpecId(r.get_u64()? as usize),
            start_ms: r.get_f64()?,
            response_ms: r.get_f64()?,
            examined_rows: r.get_u64()?,
        }),
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

/// [`EventFrame::to_bytes`] as it was.
pub fn to_bytes(frame: &EventFrame) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(64);
    EVENT_FORMAT.write_frame_header(&mut w, frame.tag());
    w.put_section(|w| match frame {
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

/// [`EventFrame::from_bytes`] as it was.
pub fn from_bytes(bytes: &[u8]) -> Result<EventFrame, WireError> {
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
