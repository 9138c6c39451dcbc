//! The unified telemetry event stream.
//!
//! Production PinSQL never sees a complete trace: query logs stream through
//! Kafka/Flink and per-second metrics arrive from the monitoring agent, all
//! interleaved in time. [`TelemetryEvent`] is the single currency every
//! online component speaks — the incremental collector folds it into cells,
//! the online detectors watch the metric samples, and the fleet engine
//! multiplexes many instances' streams.
//!
//! ## Ordering contract
//!
//! A stream is *time-ordered*: events are sorted by [`TelemetryEvent::time_ms`],
//! with ties broken by original log order (stable). Within one second `s`
//! the order is: every [`TelemetryEvent::Query`] arriving in `[s, s+1)`,
//! then the [`TelemetryEvent::Metrics`] sample for `s`, then
//! [`TelemetryEvent::Tick`] for `s + 1`. A `Tick { second }` promises that
//! all telemetry with timestamps `< second` has been delivered — the
//! watermark consumers advance their clocks on.
//!
//! Query records are delivered at their *arrival* timestamp (a real
//! collector ships them at completion). Arrival-order delivery is what
//! makes the online path bit-identical to the batch path: per-cell
//! floating-point sums accumulate in exactly the order
//! [`aggregate_case`](../pinsql_collector/fn.aggregate_case.html) would add
//! them.

use crate::metrics::InstanceMetrics;
use crate::ordf64::sort_by_total_key;
use crate::probe::ProbeSample;
use crate::record::QueryRecord;

/// One second's worth of instance metrics, as the monitoring agent
/// publishes them (Definition II.4, one row at a time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSample {
    /// The second this sample covers, `[second, second + 1)`.
    pub second: i64,
    pub active_session: f64,
    pub cpu_usage: f64,
    pub iops_usage: f64,
    pub row_lock_waits: f64,
    pub mdl_waits: f64,
    pub qps: f64,
    /// The raw active-session probe samples taken in this second (normally
    /// one; empty when the probe missed the second).
    pub probes: Vec<ProbeSample>,
}

impl MetricsSample {
    /// The six watched metric values in [`InstanceMetrics::iter_named`]
    /// order (`active_session, cpu_usage, iops_usage, row_lock_waits,
    /// mdl_waits, qps`) — the pre-resolved slot decode the online detector
    /// bank indexes by, instead of matching names per sample.
    #[inline]
    pub fn metric_values(&self) -> [f64; 6] {
        [
            self.active_session,
            self.cpu_usage,
            self.iops_usage,
            self.row_lock_waits,
            self.mdl_waits,
            self.qps,
        ]
    }

    /// The sample's value for a canonical metric name (see
    /// [`crate::metrics::names`]); `None` for unknown names.
    pub fn by_name(&self, name: &str) -> Option<f64> {
        use crate::metrics::names;
        match name {
            names::ACTIVE_SESSION | names::THREADS_RUNNING => Some(self.active_session),
            names::CPU_USAGE => Some(self.cpu_usage),
            names::IOPS_USAGE => Some(self.iops_usage),
            names::ROW_LOCK_WAITS => Some(self.row_lock_waits),
            names::MDL_WAITS => Some(self.mdl_waits),
            names::QPS => Some(self.qps),
            _ => None,
        }
    }
}

/// One event of an instance's telemetry stream.
///
/// The metrics sample is boxed: streams are overwhelmingly query records,
/// and an inline [`MetricsSample`] (with its probe `Vec`) would widen
/// *every* event to its size. Boxing the ~1/second cold variant keeps the
/// enum at `Query`'s footprint, so a million-event stream moves less than
/// half the memory through the ingest loop.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A query-log record, delivered at its arrival timestamp.
    Query(QueryRecord),
    /// The per-second instance-metric sample for `[second, second + 1)`.
    Metrics(Box<MetricsSample>),
    /// Watermark: all telemetry with timestamps `< second` was delivered.
    Tick { second: i64 },
}

impl TelemetryEvent {
    /// The event's position on the stream clock, in milliseconds.
    ///
    /// A metrics sample for second `s` closes that second, so it sits at
    /// `(s + 1) * 1000`; a tick for `second` sits at `second * 1000`.
    pub fn time_ms(&self) -> f64 {
        match self {
            TelemetryEvent::Query(r) => r.start_ms,
            // In `f64`: the second is an `i64` off the wire, and `+ 1` at
            // the top of its range would overflow.
            TelemetryEvent::Metrics(m) => (m.second as f64 + 1.0) * 1000.0,
            TelemetryEvent::Tick { second } => *second as f64 * 1000.0,
        }
    }
}

/// Interleaves a query log and instance metrics into one time-ordered
/// telemetry stream (the ordering contract in the module docs).
///
/// The log may be in any order (the simulator emits completion order); it
/// is sorted by arrival here in the order a stable sort gives (a keyed
/// sort, `ordf64::sort_by_total_key`), so tie order matches the batch
/// aggregator's `filter`-then-stable-sort. Records arriving before
/// the metric horizon's first second lead the stream; records at or past
/// its end trail it, before the final tick.
pub fn interleave(mut log: Vec<QueryRecord>, metrics: &InstanceMetrics) -> Vec<TelemetryEvent> {
    sort_by_total_key(&mut log, |r| r.start_ms);

    let n = metrics.len();
    let start = metrics.start_second;
    let mut events = Vec::with_capacity(log.len() + 2 * n + 1);
    let mut probe_cursor = 0usize;
    let mut rec_cursor = 0usize;

    for idx in 0..n {
        let second = start + idx as i64;
        let boundary = (second + 1) as f64 * 1000.0;
        while rec_cursor < log.len() && log[rec_cursor].start_ms < boundary {
            events.push(TelemetryEvent::Query(log[rec_cursor]));
            rec_cursor += 1;
        }
        let mut probes = Vec::new();
        while probe_cursor < metrics.probes.samples.len()
            && metrics.probes.samples[probe_cursor].second <= second
        {
            if metrics.probes.samples[probe_cursor].second == second {
                probes.push(metrics.probes.samples[probe_cursor]);
            }
            probe_cursor += 1;
        }
        events.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
            second,
            active_session: metrics.active_session[idx],
            cpu_usage: metrics.cpu_usage[idx],
            iops_usage: metrics.iops_usage[idx],
            row_lock_waits: metrics.row_lock_waits[idx],
            mdl_waits: metrics.mdl_waits[idx],
            qps: metrics.qps[idx],
            probes,
        })));
        events.push(TelemetryEvent::Tick { second: second + 1 });
    }

    // Records past the metric horizon, then a final watermark covering them.
    if rec_cursor < log.len() {
        let last = log.last().expect("non-empty tail");
        let end_second = second_of(last.start_ms) + 1;
        events.extend(log[rec_cursor..].iter().map(|r| TelemetryEvent::Query(*r)));
        events.push(TelemetryEvent::Tick { second: end_second.max(start + n as i64) });
    }
    events
}

/// The attribution second of a millisecond timestamp: equal to
/// `(ms / 1000.0).floor() as i64` for every `f64` — NaN reads as 0 and
/// both ends saturate — without the call through the GOT that `floor`
/// compiles to on a baseline x86-64 build (no `roundsd` before SSE4.1),
/// which the ingest path would otherwise pay per event. The cast
/// truncates toward zero, so only a negative quotient with a fractional
/// part needs the step down, and a quotient that saturated at `i64::MIN`
/// has none to take.
#[inline]
pub fn second_of(ms: f64) -> i64 {
    let q = ms / 1000.0;
    let t = q as i64;
    t.saturating_sub(i64::from((t as f64) > q))
}

/// The maximal run of consecutive [`TelemetryEvent::Query`] events starting
/// at `events[from]` whose (finite) arrival timestamps all fall in one
/// attribution second — `(second, run length)`, or `None` when `events[from]`
/// is absent, not a query, or has a non-finite timestamp.
///
/// This is the chunking primitive of the ingest hot path: on a time-ordered
/// stream, consumers fold a whole run with one watermark check and one
/// cell-row lookup instead of one per record. On an unordered stream it
/// still yields correct (merely shorter) runs, so callers never need to
/// pre-sort.
pub fn query_run(events: &[TelemetryEvent], from: usize) -> Option<(i64, usize)> {
    let TelemetryEvent::Query(first) = events.get(from)? else { return None };
    if !first.start_ms.is_finite() {
        return None;
    }
    let second = second_of(first.start_ms);
    let mut len = 1;
    while let Some(TelemetryEvent::Query(r)) = events.get(from + len) {
        if !r.start_ms.is_finite() || second_of(r.start_ms) != second {
            break;
        }
        len += 1;
    }
    Some((second, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeLog;
    use pinsql_workload::rng::RngExt;
    use pinsql_workload::SpecId;

    fn rec(start_ms: f64) -> QueryRecord {
        QueryRecord { spec: SpecId(0), start_ms, response_ms: 1.0, examined_rows: 0 }
    }

    fn metrics(start: i64, n: usize) -> InstanceMetrics {
        InstanceMetrics {
            start_second: start,
            active_session: vec![1.0; n],
            cpu_usage: vec![0.1; n],
            iops_usage: vec![0.2; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![5.0; n],
            probes: ProbeLog {
                samples: (0..n)
                    .map(|i| ProbeSample {
                        second: start + i as i64,
                        active_sessions: 1,
                        true_instant_ms: (start + i as i64) as f64 * 1000.0 + 500.0,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn stream_is_time_ordered() {
        let log = vec![rec(2500.0), rec(100.0), rec(1999.0)];
        let events = interleave(log, &metrics(0, 4));
        for pair in events.windows(2) {
            assert!(pair[0].time_ms() <= pair[1].time_ms(), "{pair:?}");
        }
        let queries: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Query(r) => Some(r.start_ms),
                _ => None,
            })
            .collect();
        assert_eq!(queries, vec![100.0, 1999.0, 2500.0]);
    }

    #[test]
    fn seconds_close_with_metrics_then_tick() {
        let events = interleave(vec![rec(500.0)], &metrics(0, 2));
        assert!(matches!(events[0], TelemetryEvent::Query(_)));
        assert!(matches!(&events[1], TelemetryEvent::Metrics(m) if m.second == 0));
        assert!(matches!(events[2], TelemetryEvent::Tick { second: 1 }));
        assert!(matches!(&events[3], TelemetryEvent::Metrics(m) if m.second == 1));
        assert!(matches!(events[4], TelemetryEvent::Tick { second: 2 }));
    }

    #[test]
    fn probes_ride_their_second() {
        let events = interleave(Vec::new(), &metrics(10, 3));
        let samples: Vec<&MetricsSample> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Metrics(m) => Some(m.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(samples.len(), 3);
        for m in samples {
            assert_eq!(m.probes.len(), 1);
            assert_eq!(m.probes[0].second, m.second);
        }
    }

    #[test]
    fn trailing_records_precede_final_tick() {
        let events = interleave(vec![rec(500.0), rec(7200.0)], &metrics(0, 2));
        let last = events.last().unwrap();
        assert!(matches!(last, TelemetryEvent::Tick { second: 8 }));
        assert!(matches!(events[events.len() - 2], TelemetryEvent::Query(r) if r.start_ms == 7200.0));
    }

    #[test]
    fn tie_order_is_stable() {
        // Two records at the same arrival keep log order — the tie rule the
        // batch aggregator's stable sort applies.
        let a = QueryRecord { spec: SpecId(1), start_ms: 100.0, response_ms: 1.0, examined_rows: 0 };
        let b = QueryRecord { spec: SpecId(2), start_ms: 100.0, response_ms: 2.0, examined_rows: 0 };
        let events = interleave(vec![a, b], &metrics(0, 1));
        let specs: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Query(r) => Some(r.spec.0),
                _ => None,
            })
            .collect();
        assert_eq!(specs, vec![1, 2]);
    }

    #[test]
    fn query_runs_chunk_by_attribution_second() {
        let events = interleave(
            vec![rec(100.0), rec(900.0), rec(999.9), rec(1000.0), rec(2500.0)],
            &metrics(0, 3),
        );
        // Walk the whole stream through query_run the way a consumer does.
        let mut runs = Vec::new();
        let mut i = 0;
        while i < events.len() {
            if let Some((second, len)) = query_run(&events, i) {
                runs.push((second, len));
                i += len;
            } else {
                i += 1;
            }
        }
        assert_eq!(runs, vec![(0, 3), (1, 1), (2, 1)]);
    }

    #[test]
    fn query_run_rejects_non_queries_and_non_finite_starts() {
        let events = vec![
            TelemetryEvent::Tick { second: 1 },
            TelemetryEvent::Query(QueryRecord {
                spec: SpecId(0),
                start_ms: f64::NAN,
                response_ms: 1.0,
                examined_rows: 0,
            }),
            TelemetryEvent::Query(rec(1500.0)),
        ];
        assert_eq!(query_run(&events, 0), None, "tick is not a run head");
        assert_eq!(query_run(&events, 1), None, "non-finite start is not a run head");
        assert_eq!(query_run(&events, 2), Some((1, 1)));
        assert_eq!(query_run(&events, 3), None, "past the end");
    }

    /// `second_of` is `(ms / 1000.0).floor() as i64` for every `f64`: on
    /// the edges where the cast and the floor part ways (negative
    /// fractions, both saturating ends — where a plain `- 1` would be a
    /// debug-build overflow trap — NaN, signed zeros, subnormals) and on
    /// a million seeded bit patterns.
    #[test]
    fn second_of_is_the_floor_it_replaced() {
        let floor = |ms: f64| (ms / 1000.0).floor() as i64;
        let two53_k = 9_007_199_254_740_992_000.0; // 2^53 * 1000
        let mut edges = vec![
            0.0,
            -0.0,
            999.999_999_999_999_9,
            -999.999_999_999_999_9,
            1000.0,
            -1000.0,
            86_399_000.0,
            -86_400_000.0,
            two53_k,
            -two53_k,
            9.3e21, // quotient just past i64::MAX
            -9.3e21,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
        ];
        for ms in edges.clone() {
            edges.push(f64::from_bits(ms.to_bits().wrapping_add(1)));
            edges.push(f64::from_bits(ms.to_bits().wrapping_sub(1)));
        }
        for ms in edges {
            assert_eq!(second_of(ms), floor(ms), "second_of({ms:e}), bits {:#018x}", ms.to_bits());
        }
        assert_eq!(second_of(f64::MIN), i64::MIN, "the negative end saturates");
        assert_eq!(second_of(f64::MAX), i64::MAX, "the positive end saturates");
        assert_eq!(second_of(-0.5), -1);

        // A million raw bit patterns (NaN payloads, subnormals, every
        // exponent), then the patterns a codec is tempted to normalize.
        let check = |ms: f64| {
            let bits = ms.to_bits();
            assert_eq!(second_of(ms), floor(ms), "second_of({ms:e}), bits {bits:#018x}");
        };
        pinsql_testkit::sweep(0..16, |_, rng| {
            (0..65_536).for_each(|_| check(f64::from_bits(rng.random())));
            (0..4_096).for_each(|_| check(pinsql_testkit::f64_pattern(rng)));
        });
    }

    #[test]
    fn query_run_splits_at_malformed_timestamps() {
        // A corrupted record mid-second must terminate the run so the
        // consumer's scalar path can classify it.
        let bad = QueryRecord { spec: SpecId(0), start_ms: f64::INFINITY, response_ms: 1.0, examined_rows: 0 };
        let events = vec![
            TelemetryEvent::Query(rec(100.0)),
            TelemetryEvent::Query(rec(200.0)),
            TelemetryEvent::Query(bad),
            TelemetryEvent::Query(rec(300.0)),
        ];
        assert_eq!(query_run(&events, 0), Some((0, 2)));
        assert_eq!(query_run(&events, 2), None);
        assert_eq!(query_run(&events, 3), Some((0, 1)));
    }

    #[test]
    fn by_name_matches_instance_metrics_names() {
        let events = interleave(Vec::new(), &metrics(0, 1));
        let TelemetryEvent::Metrics(m) = &events[0] else { panic!("metrics first") };
        assert_eq!(m.by_name("active_session"), Some(1.0));
        assert_eq!(m.by_name("cpu_usage"), Some(0.1));
        assert_eq!(m.by_name("qps"), Some(5.0));
        assert_eq!(m.by_name("nope"), None);
    }

    #[test]
    fn metric_values_decode_in_iter_named_order() {
        let m = MetricsSample {
            second: 0,
            active_session: 1.0,
            cpu_usage: 2.0,
            iops_usage: 3.0,
            row_lock_waits: 4.0,
            mdl_waits: 5.0,
            qps: 6.0,
            probes: Vec::new(),
        };
        let values = m.metric_values();
        let im = metrics(0, 1);
        for (slot, (name, _)) in im.iter_named().enumerate() {
            assert_eq!(values[slot], m.by_name(name).unwrap(), "{name}");
        }
        assert_eq!(values, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn event_stays_query_sized_with_boxed_metrics() {
        // The ingest loop streams millions of events; the cold metrics
        // variant must not widen the enum past the query record.
        assert!(
            std::mem::size_of::<TelemetryEvent>()
                <= std::mem::size_of::<QueryRecord>() + 8,
            "TelemetryEvent grew: {} bytes",
            std::mem::size_of::<TelemetryEvent>()
        );
    }
}
