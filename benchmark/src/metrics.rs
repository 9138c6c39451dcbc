//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test
//! holds the two together); bounds live only in `BENCHMARK.json`.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a fleet operator sees; same set on every workload. Definitions
/// are in the README's glossary.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("events_per_s", "events/s"),
    lower("path_ns_per_event", "ns"),
    lower("report_ms_per_case", "ms"),
    lower("peak_rss_mb", "MiB"),
    lower("wire_bytes_per_event", "bytes"),
    higher("rsql_top1_hit_rate", "ratio"),
    higher("verdict_accuracy", "ratio"),
];

/// End-to-end metrics that are a pure function of the inputs: two runs on
/// one seed must agree on them to the last digit.
pub const EXACT: &[&str] = &["wire_bytes_per_event", "rsql_top1_hit_rate", "verdict_accuracy"];

/// One layer each, from the traced run and the isolation loops. For
/// counts and shapes that have no better side (events generated, case
/// length) the direction says which way means less work.
pub const PER_LAYER: &[MetricDef] = &[
    // generator: scenario / dbsim / workload
    lower("scenario.generate_s", "s"),
    lower("scenario.materialize_s", "s"),
    lower("scenario.events", "count"),
    lower("scenario.templates_per_instance", "count"),
    lower("scenario.busiest_second_events", "count"),
    // engine::wire + dbsim::wire
    lower("wire.encode_ns_per_event", "ns"),
    lower("wire.decode_ns_per_event", "ns"),
    lower("wire.frame_bytes_p50", "bytes"),
    higher("wire.events_per_frame_p50", "count"),
    // engine::transport
    lower("transport.plan_frames_ns_per_event", "ns"),
    lower("transport.frames", "count"),
    lower("transport.acks", "count"),
    lower("transport.credit_stalls", "count"),
    higher("transport.max_inflight_events", "count"),
    lower("transport.peak_buffered_events", "count"),
    lower("transport.sink_frame_us_p50", "us"),
    lower("transport.sink_frame_us_p99", "us"),
    lower("transport.gate_ns_per_frame", "ns"),
    lower("transport.source_ack_ns_per_frame", "ns"),
    lower("transport.source_wait_share", "ratio"),
    lower("transport.sink_idle_share", "ratio"),
    lower("transport.ack_rtt_us_p50", "us"),
    lower("transport.ack_rtt_us_p99", "us"),
    lower("transport.resumes", "count"),
    lower("transport.replayed_frames", "count"),
    higher("transport.tcp_events_per_s", "events/s"),
    // engine::daemon
    lower("daemon.offer_ns_per_event", "ns"),
    lower("daemon.advance_ns_per_event", "ns"),
    lower("daemon.advance_calls", "count"),
    lower("daemon.advance_us_p50", "us"),
    lower("daemon.advance_us_p90", "us"),
    lower("daemon.finish_ms", "ms"),
    lower("daemon.control_op_ms_p50", "ms"),
    lower("daemon.health_query_us_p50", "us"),
    // engine::instance
    lower("instance.ingest_ns_per_event", "ns"),
    lower("instance.close_case_ms_p50", "ms"),
    lower("instance.insitu_over_isolated", "ratio"),
    // engine::snapshot
    lower("snapshot.bytes_per_instance", "bytes"),
    lower("snapshot.encode_us_p50", "us"),
    lower("snapshot.decode_us_p50", "us"),
    lower("snapshot.restore_us_p50", "us"),
    // collector
    lower("collector.fold_ns_per_event", "ns"),
    lower("collector.cut_us_p50", "us"),
    lower("collector.cells_folded", "count"),
    lower("collector.retention_evictions", "count"),
    lower("collector.late_dropped", "count"),
    lower("collector.records_resident_max", "count"),
    // detect
    lower("detect.observe_ns_per_sample", "ns"),
    lower("detect.features_closed", "count"),
    higher("detect.detected_rate", "ratio"),
    lower("detect.onset_delay_s_p50", "s"),
    // pinsql
    lower("pinsql.estimate_ms_p50", "ms"),
    lower("pinsql.hsql_ms_p50", "ms"),
    lower("pinsql.rsql_ms_p50", "ms"),
    lower("pinsql.diagnose_ms_p50", "ms"),
    lower("pinsql.diagnose_ms_max", "ms"),
    lower("pinsql.templates_per_case_p50", "count"),
    lower("pinsql.case_seconds_p50", "s"),
    lower("pinsql.reported_per_case", "count"),
    higher("pinsql.rsql_top1_hit_rate", "ratio"),
    lower("pinsql.false_report_rate", "ratio"),
    // obs
    lower("obs.recording_overhead_share", "ratio"),
    // harness
    lower("trace.spans", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unaccounted_share", "ratio"),
];

/// Measured values keyed by catalogue name, in catalogue order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every catalogue entry,
    /// in catalogue order.
    ///
    /// # Panics
    /// Panics when a catalogue metric was never measured or a measured
    /// one is not in the catalogue — either is a harness bug.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Json {
        for (name, _) in &self.0 {
            assert!(catalogue.iter().any(|d| d.name == *name), "metric {name} not in catalogue");
        }
        Json::obj(catalogue.iter().map(|d| {
            let value =
                self.get(d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (d.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// True for the metric / workload name charset of `BENCHMARK.json`:
    /// 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.chars().all(ok_char)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` and the catalogue must agree on every name, unit
    /// and direction, and on the workload table.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, def) in listed.iter().zip(catalogue) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", def.name);
                }
            }
        }
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS), "run.sh measures as long as the driver");
        let workloads = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
        let names: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn values_render_in_catalogue_order() {
        let mut v = Values::default();
        for d in END_TO_END.iter().rev() {
            v.set(d.name, 1.5);
        }
        let doc = v.to_json(END_TO_END);
        let Json::Obj(fields) = &doc else { panic!("object") };
        let order: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(order, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(
            doc.get("setup_s").and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "wire.encode_ns_per_event", "a-b", "9lives", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "has space", "slash/y", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
