//! The field-by-field event codec the fixed-width one replaced, kept
//! under `#[cfg(test)]` as the oracle the sweep compares with: one
//! `put_*` / `get_*` call per field, each with its own bounds check.

use super::PROBE_BYTES;
use crate::probe::ProbeSample;
use crate::record::QueryRecord;
use crate::telemetry::{MetricsSample, TelemetryEvent};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use pinsql_workload::SpecId;

/// Appends one event as a tagged record (no framing).
pub fn encode_event(w: &mut WireWriter, ev: &TelemetryEvent) {
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

/// Decodes one tagged event record from untrusted bytes; never panics.
pub fn decode_event(r: &mut WireReader<'_>) -> Result<TelemetryEvent, WireError> {
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
