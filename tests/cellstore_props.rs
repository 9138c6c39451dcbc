//! The fold above the cell store, one path under two drives.
//!
//! Every record reaches its cell through one fold body, entered as a run
//! of N same-second records (`ingest_drain`) or as a run of one
//! (`ingest`). This suite drives both with identical event streams —
//! random, out-of-order, and chaos-perturbed real telemetry — and
//! requires identical ingest counters and watermark and bit-identical
//! `CaseData` snapshots; the time-ordered streams must also equal batch
//! aggregation. (The cell store itself is held to a map-per-second
//! oracle by an op-sequence sweep in `crates/collector`.)

use pinsql_collector::{aggregate_case, CaseData, IncrementalAggregator, IncrementalConfig};
use pinsql_dbsim::{interleave, MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_scenario::{
    generate_base, inject, simulate_telemetry, AnomalyKind, PerturbConfig, ScenarioConfig,
};
use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};
use pinsql_workload::rng::{rng_from_seed, RngExt};

mod common;
use common::assert_owners_by_catalog;

fn specs(n: usize) -> Vec<TemplateSpec> {
    (0..n)
        .map(|i| {
            TemplateSpec::new(
                &format!("SELECT c{i} FROM t{i} WHERE id = 1"),
                CostProfile::point_read(TableId(0)),
                format!("s{i}"),
            )
        })
        .collect()
}

/// `ctx` names the seed of the failing case.
fn assert_case_eq(a: &CaseData, b: &CaseData, ctx: &str) {
    assert_eq!(a.ts, b.ts, "{ctx}");
    assert_eq!(a.te, b.te, "{ctx}");
    assert_eq!(a.records, b.records, "{ctx}");
    assert_eq!(a.templates.len(), b.templates.len(), "{ctx}");
    assert_owners_by_catalog(a, ctx);
    assert_owners_by_catalog(b, ctx);
    for (x, y) in a.templates.iter().zip(&b.templates) {
        assert_eq!(x.id, y.id, "{ctx}");
        assert_eq!(x.series.start, y.series.start, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.execution_count, y.series.execution_count, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.examined_rows, y.series.examined_rows, "{ctx}: {:?}", x.id);
    }
}

/// Folds `events` as runs of one and as runs of N; both must agree on
/// every counter, the watermark and the window's bits. Returns the case.
fn fold_both_ways(
    specs: &[TemplateSpec],
    events: Vec<TelemetryEvent>,
    (ts, te): (i64, i64),
    ctx: &str,
) -> CaseData {
    let mut one_by_one = IncrementalAggregator::new(specs, IncrementalConfig::default());
    for ev in events.clone() {
        one_by_one.ingest(ev);
    }
    let mut in_runs = IncrementalAggregator::new(specs, IncrementalConfig::default());
    let mut buf = events;
    in_runs.ingest_drain(&mut buf);
    assert!(buf.is_empty(), "{ctx}: drain clears the buffer");
    assert_eq!(one_by_one.stats(), in_runs.stats(), "{ctx}: ingest counters");
    assert_eq!(one_by_one.watermark(), in_runs.watermark(), "{ctx}");
    let case = one_by_one.snapshot(ts, te);
    assert_case_eq(&case, &in_runs.snapshot(ts, te), ctx);
    case
}

/// Random event streams — arrivals in any order (including seconds
/// before the ring start), corrupted records, interleaved metric samples
/// — leave the same cells, records and counters in an aggregator fed runs
/// of N as in one fed runs of one. 256 seeded streams.
#[test]
fn stores_agree_on_random_streams() {
    for seed in 0..256u64 {
        let ctx = format!("seed {seed}");
        let mut rng = rng_from_seed(seed);
        let n = rng.random_range(1..250usize);
        let tick_every = rng.random_range(1..40usize);
        let specs = specs(6);
        let mut events: Vec<TelemetryEvent> = Vec::new();
        let mut max_sec = i64::MIN;
        for i in 0..n {
            let sec = rng.random_range(0..93u64) as i64 - 3;
            let start_ms = sec as f64 * 1000.0 + rng.random_range(0.0..1000.0);
            let rt = rng.random_range(0.1..500.0);
            // A small fraction of records carry non-finite fields and must
            // be dropped identically by every path.
            let (start_ms, response_ms) = match rng.random_range(0..20u32) {
                0 => (f64::NAN, rt),
                1 => (start_ms, f64::INFINITY),
                _ => (start_ms, rt),
            };
            events.push(TelemetryEvent::Query(QueryRecord {
                spec: SpecId(rng.random_range(0..6usize)),
                start_ms,
                response_ms,
                examined_rows: rng.random_range(0..100u64),
            }));
            max_sec = max_sec.max(sec);
            if i % tick_every == tick_every - 1 {
                // Ticks from the maximum arrival so far keep the watermark
                // monotone while arrivals stay out of order.
                events.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
                    second: max_sec.max(0),
                    active_session: 1.0,
                    ..Default::default()
                })));
            }
        }
        fold_both_ways(&specs, events, (-3, 91), &ctx);
    }
}

/// Chaos-perturbed real telemetry (drops, duplicates, jitter, clock skew,
/// shuffled delivery, blanked metric seconds). Fed in raw perturbed order
/// — genuinely out-of-order, exercising the ring's prepend and gap-fill
/// paths — it folds identically both ways; interleaved into a
/// time-ordered stream, both ways also equal batch aggregation.
#[test]
fn stores_agree_on_perturbed_telemetry() {
    for (seed, intensity) in [(21u64, 0.4), (22, 0.8)] {
        let cfg = ScenarioConfig::default().with_seed(seed).with_businesses(6).with_window(
            300, 180, 240,
        );
        let base = generate_base(&cfg);
        let scenario = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let p = PerturbConfig::at_intensity(seed ^ 0x5EED, intensity);
        let (log, metrics) = simulate_telemetry(&scenario, Some(&p));
        let specs = &scenario.workload.specs;
        let window = (0, scenario.cfg.window_s);

        let mut raw: Vec<TelemetryEvent> = log.iter().map(|r| TelemetryEvent::Query(*r)).collect();
        for s in 0..metrics.active_session.len() {
            raw.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: metrics.start_second + s as i64,
                active_session: metrics.active_session[s],
                cpu_usage: metrics.cpu_usage[s],
                iops_usage: metrics.iops_usage[s],
                row_lock_waits: metrics.row_lock_waits[s],
                mdl_waits: metrics.mdl_waits[s],
                qps: metrics.qps[s],
                probes: Vec::new(),
            })));
        }
        fold_both_ways(specs, raw, window, &format!("seed {seed}, raw order"));

        let ctx = format!("seed {seed}, time order");
        let online = fold_both_ways(specs, interleave(log.clone(), &metrics), window, &ctx);
        assert_case_eq(&online, &aggregate_case(&log, specs, &metrics, window.0, window.1), &ctx);
    }
}
