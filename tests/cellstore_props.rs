//! Property equivalence of the two cell-store representations.
//!
//! The incremental aggregator's dense-slab store is the hot-path default;
//! the hashed store is the reference implementation. This suite drives
//! both with identical event streams — random, out-of-order, and
//! chaos-perturbed real telemetry — and requires bit-identical `CaseData`
//! snapshots, `executions` reads, and ingest counters, plus scalar/chunked
//! agreement on the same streams.

use pinsql_collector::{CaseData, CellStoreKind, IncrementalAggregator, IncrementalConfig};
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_scenario::{
    generate_base, inject, simulate_telemetry, AnomalyKind, PerturbConfig, ScenarioConfig,
};
use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};
use pinsql_workload::rng::{rng_from_seed, RngExt};

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
    for (x, y) in a.templates.iter().zip(&b.templates) {
        assert_eq!(x.id, y.id, "{ctx}");
        assert_eq!(x.record_idx, y.record_idx, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.start, y.series.start, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.execution_count, y.series.execution_count, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms, "{ctx}: {:?}", x.id);
        assert_eq!(x.series.examined_rows, y.series.examined_rows, "{ctx}: {:?}", x.id);
    }
}

fn assert_aggs_agree(
    dense: &mut IncrementalAggregator,
    hashed: &mut IncrementalAggregator,
    ts: i64,
    te: i64,
    ctx: &str,
) {
    let sd = dense.stats();
    let sh = hashed.stats();
    assert_eq!(
        (sd.events, sd.queries, sd.malformed, sd.late),
        (sh.events, sh.queries, sh.malformed, sh.late),
        "{ctx}: ingest counters"
    );
    assert_eq!(dense.watermark(), hashed.watermark(), "{ctx}");
    assert_case_eq(&dense.snapshot(ts, te), &hashed.snapshot(ts, te), ctx);
    for s in ts..te {
        for spec_idx in 0..dense.catalog().n_slots() {
            let id = dense.catalog().id_of_slot(spec_idx as u32);
            assert_eq!(dense.executions(id, s), hashed.executions(id, s), "{ctx}: id {id:?} s={s}");
        }
    }
}

/// Random event streams — arrivals in any order (including seconds
/// before the ring start), corrupted records, interleaved ticks and
/// metric samples — fold identically through both stores, via both the
/// scalar and the chunked entry points. 256 seeded streams.
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

        let mk = |kind: CellStoreKind| {
            IncrementalAggregator::new(&specs, IncrementalConfig::default().with_cell_store(kind))
        };
        let mut dense = mk(CellStoreKind::Dense);
        let mut hashed = mk(CellStoreKind::Hashed);
        for ev in events.clone() {
            dense.ingest(ev.clone());
            hashed.ingest(ev);
        }
        assert_aggs_agree(&mut dense, &mut hashed, -3, 91, &ctx);

        // The chunked drain path over the same stream, both stores.
        let mut dense_chunked = mk(CellStoreKind::Dense);
        let mut hashed_chunked = mk(CellStoreKind::Hashed);
        let mut buf = events.clone();
        dense_chunked.ingest_drain(&mut buf);
        assert!(buf.is_empty(), "{ctx}");
        buf = events;
        hashed_chunked.ingest_drain(&mut buf);
        assert_aggs_agree(&mut dense_chunked, &mut hashed_chunked, -3, 91, &ctx);
        assert_case_eq(&dense.snapshot(-3, 91), &dense_chunked.snapshot(-3, 91), &ctx);
    }
}

/// Chaos-perturbed real telemetry (drops, duplicates, jitter, clock skew,
/// shuffled delivery, blanked metric seconds) folds identically through
/// both stores. Records are fed in raw perturbed order — genuinely
/// out-of-order, exercising the ring's prepend and gap-fill paths.
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

        let mk = |kind: CellStoreKind| {
            IncrementalAggregator::new(
                &scenario.workload.specs,
                IncrementalConfig::default().with_cell_store(kind),
            )
        };
        let mut dense = mk(CellStoreKind::Dense);
        let mut hashed = mk(CellStoreKind::Hashed);
        for rec in &log {
            dense.ingest(TelemetryEvent::Query(*rec));
            hashed.ingest(TelemetryEvent::Query(*rec));
        }
        for s in 0..metrics.active_session.len() {
            let sample = MetricsSample {
                second: metrics.start_second + s as i64,
                active_session: metrics.active_session[s],
                cpu_usage: metrics.cpu_usage[s],
                iops_usage: metrics.iops_usage[s],
                row_lock_waits: metrics.row_lock_waits[s],
                mdl_waits: metrics.mdl_waits[s],
                qps: metrics.qps[s],
                probes: Vec::new(),
            };
            dense.ingest(TelemetryEvent::Metrics(Box::new(sample.clone())));
            hashed.ingest(TelemetryEvent::Metrics(Box::new(sample)));
        }
        let ctx = format!("seed {seed}");
        assert_aggs_agree(&mut dense, &mut hashed, 0, scenario.cfg.window_s, &ctx);
    }
}
