//! Exporters: chrome-trace JSON and a flat metrics document.
//!
//! [`chrome_trace`] renders a registry's trace buffer in the Chrome
//! Trace Event format (the JSON array flavour wrapped in an object), so
//! a fleet run can be opened directly in `chrome://tracing` / Perfetto:
//! one row (`tid`) per lane, one complete (`"X"`) event per span.
//! [`metrics_export`] flattens counters, gauges, and per-stage histogram
//! summaries into the JSON document the `fleet` bench writes next to its
//! sweep results. [`validate_chrome_trace`] is the schema check CI's
//! `obs_smoke` step runs over the written file.

use crate::hist::LatencyHistogram;
use crate::registry::Registry;
use crate::{Counter, Gauge, Stage};
use pinsql_json::Json;
use std::collections::BTreeMap;

/// Renders the registry's trace buffer as chrome-trace JSON. `lanes` is
/// the observer's lane table (see
/// [`RecordingObserver::lanes`](crate::RecordingObserver::lanes)); each
/// lane becomes one named thread row. Only the fields the viewers
/// require are written; timestamps are microseconds since the observer's
/// origin.
pub fn chrome_trace(registry: &Registry, lanes: &[String]) -> String {
    let event = |name: &str, cat: &str, ph: &str, ts: f64, tid: usize| {
        vec![
            ("name", Json::str(name)),
            ("cat", Json::str(cat)),
            ("ph", Json::str(ph)),
            ("ts", Json::Num(ts)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
        ]
    };
    let mut events: Vec<Json> = lanes
        .iter()
        .enumerate()
        .map(|(tid, label)| {
            let mut ev = event("thread_name", "__metadata", "M", 0.0, tid);
            ev.push(("args", Json::obj([("name", Json::str(label.as_str()))])));
            Json::obj(ev)
        })
        .collect();
    for span in registry.trace() {
        let ts = span.start_ns as f64 / 1000.0;
        let mut ev = event(span.stage.name(), "pinsql", "X", ts, span.lane as usize);
        ev.push(("dur", Json::Num(span.end_ns.saturating_sub(span.start_ns) as f64 / 1000.0)));
        events.push(Json::obj(ev));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        // Spans dropped by the trace cap (0 = the trace is complete).
        ("trace_dropped", Json::Num(registry.trace_dropped() as f64)),
    ])
    .render()
}

/// Per-stage histogram summary in the flat metrics document.
#[derive(Debug, Clone)]
pub struct StageSummary {
    pub count: u64,
    pub total_ns: u64,
    pub mean_ns: f64,
    pub max_ns: u64,
    /// Upper-bound estimates from the log2 buckets.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub buckets: Vec<u64>,
}

impl StageSummary {
    fn of(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            total_ns: h.total_ns(),
            mean_ns: h.mean_ns(),
            max_ns: h.max_ns(),
            p50_ns: h.quantile_upper_ns(0.5),
            p99_ns: h.quantile_upper_ns(0.99),
            buckets: h.buckets().to_vec(),
        }
    }
}

/// The flat metrics document (`results/fleet_metrics.json`).
#[derive(Debug, Clone)]
pub struct MetricsExport {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, u64>,
    /// Stages that recorded at least one span.
    pub stages: BTreeMap<&'static str, StageSummary>,
    pub trace_events: usize,
    pub trace_dropped: u64,
}

impl MetricsExport {
    /// The document as the `fleet` bench writes it.
    pub fn to_json(&self) -> Json {
        let counts = |m: &BTreeMap<&'static str, u64>| {
            Json::obj(m.iter().map(|(&name, &v)| (name, Json::Num(v as f64))))
        };
        let stage = |s: &StageSummary| {
            Json::obj([
                ("count", Json::Num(s.count as f64)),
                ("total_ns", Json::Num(s.total_ns as f64)),
                ("mean_ns", Json::Num(s.mean_ns)),
                ("max_ns", Json::Num(s.max_ns as f64)),
                ("p50_ns", Json::Num(s.p50_ns as f64)),
                ("p99_ns", Json::Num(s.p99_ns as f64)),
                ("buckets", Json::Arr(s.buckets.iter().map(|&b| Json::Num(b as f64)).collect())),
            ])
        };
        Json::obj([
            ("counters", counts(&self.counters)),
            ("gauges", counts(&self.gauges)),
            ("stages", Json::obj(self.stages.iter().map(|(&name, s)| (name, stage(s))))),
            ("trace_events", Json::Num(self.trace_events as f64)),
            ("trace_dropped", Json::Num(self.trace_dropped as f64)),
        ])
    }
}

/// Flattens a registry into the metrics document.
pub fn metrics_export(registry: &Registry) -> MetricsExport {
    MetricsExport {
        counters: Counter::ALL.iter().map(|&c| (c.name(), registry.counter(c))).collect(),
        gauges: Gauge::ALL.iter().map(|&g| (g.name(), registry.gauge_value(g))).collect(),
        stages: Stage::ALL
            .iter()
            .filter(|&&s| registry.span_hist(s).count() > 0)
            .map(|&s| (s.name(), StageSummary::of(registry.span_hist(s))))
            .collect(),
        trace_events: registry.trace().len(),
        trace_dropped: registry.trace_dropped(),
    }
}

/// Validates a chrome-trace document produced by [`chrome_trace`]:
/// object root, `traceEvents` array, every event carrying a string
/// `name`, a known `ph`, numeric `pid`/`tid`/`ts`, and `dur` on complete
/// events. Returns the number of complete (`"X"`) events.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = pinsql_json::parse(json).map_err(|e| format!("not JSON: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("root must be an object".to_string());
    }
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let known_stages: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing string name"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for field in ["pid", "tid"] {
            let id = ev.get(field).and_then(|v| v.as_f64());
            if !id.is_some_and(|n| n >= 0.0 && n.fract() == 0.0) {
                return Err(format!("event {i}: missing numeric {field}"));
            }
        }
        if ev.get("ts").and_then(|v| v.as_f64()).is_none() {
            return Err(format!("event {i}: missing numeric ts"));
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: X event without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                if !known_stages.contains(&name) {
                    return Err(format!("event {i}: unknown stage name {name:?}"));
                }
                complete += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> (Registry, Vec<String>) {
        let mut reg = Registry::new();
        reg.record_span(Stage::IngestMerge, 1, 0, 5_000);
        reg.record_span(Stage::CellFold, 1, 100, 400);
        reg.record_span(Stage::Hsql, 2, 6_000, 9_000);
        reg.add(Counter::EventsIngested, 12);
        reg.gauge(Gauge::CellSeconds, 30);
        (reg, vec!["main".into(), "shard0".into(), "diag0".into()])
    }

    #[test]
    fn chrome_trace_roundtrips_validation() {
        let (reg, lanes) = sample_registry();
        let json = chrome_trace(&reg, &lanes);
        assert_eq!(validate_chrome_trace(&json), Ok(3));
        // Sanity on the raw shape: named rows plus complete events.
        let doc = pinsql_json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3 + 3, "three metadata rows, three spans");
        assert_eq!(doc.get("trace_dropped").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err(), "root array");
        assert!(validate_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"cell_fold","ph":"X","ts":1.0,"pid":1,"tid":0}]}"#
        )
        .is_err(), "X without dur");
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"nope","ph":"X","ts":1.0,"dur":2.0,"pid":1,"tid":0}]}"#
        )
        .is_err(), "unknown stage");
    }

    #[test]
    fn metrics_export_flattens_only_recorded_stages() {
        let (reg, _) = sample_registry();
        let m = metrics_export(&reg);
        assert_eq!(m.counters["events_ingested"], 12);
        assert_eq!(m.gauges["cell_seconds"], 30);
        assert_eq!(m.stages.len(), 3);
        assert!(m.stages.contains_key("hsql_rank"));
        assert!(!m.stages.contains_key("repair_suggest"));
        assert_eq!(m.trace_events, 3);
        let doc = pinsql_json::parse(&m.to_json().render_pretty()).unwrap();
        let hsql = doc.get("stages").and_then(|s| s.get("hsql_rank")).expect("recorded stage");
        assert_eq!(hsql.get("count").and_then(Json::as_f64), Some(1.0));
        let p99 = m.stages["hsql_rank"].p99_ns as f64;
        assert_eq!(hsql.get("p99_ns").and_then(Json::as_f64), Some(p99));
    }
}
