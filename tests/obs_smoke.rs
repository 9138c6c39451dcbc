//! Observability smoke: a recorded golden case must export a valid
//! chrome trace and a coherent metrics snapshot, and the *disabled*
//! observer must cost (statistically) nothing on the ingest hot path.

mod common;

use common::{golden, load_manifest, GOLDEN_DELTA_S};
use pinsql_engine::{replay_diagnose, FleetConfig, OnlineInstance};
use pinsql_obs::export::{chrome_trace, metrics_export, validate_chrome_trace};
use pinsql_obs::{Counter, RecordingObserver, Stage};
use std::time::Instant;

#[test]
fn recorded_golden_case_exports_valid_trace_and_metrics() {
    let manifest = load_manifest();
    let sim = golden(&manifest[0]);
    let obs = RecordingObserver::new();
    let cfg = FleetConfig { delta_s: GOLDEN_DELTA_S, ..FleetConfig::default() };
    let (lc, d) = replay_diagnose(&sim.scenario, sim.events.clone(), &cfg, &obs);
    assert!(!lc.case.templates.is_empty());
    assert!(!d.rsqls.is_empty());

    let registry = obs.registry();

    // Chrome trace: structurally valid, with at least one complete event
    // per recorded stage, timestamps inside the run.
    let trace = chrome_trace(&registry, &obs.lanes());
    let n_events = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(n_events > 0, "trace must carry complete events");
    assert_eq!(
        n_events,
        registry.trace().len(),
        "every buffered span becomes one X event"
    );

    // Metrics export: every stage the replay exercised has a histogram
    // whose totals are self-consistent, and the close-time counters match
    // the case the pipeline actually closed.
    let metrics = metrics_export(&registry);
    for stage in
        [Stage::CellFold, Stage::DetectorStep, Stage::WindowCut, Stage::SessionEstimate, Stage::Hsql, Stage::Rsql]
    {
        let s = metrics.stages.get(stage.name()).unwrap_or_else(|| {
            panic!("stage {} missing from metrics export", stage.name())
        });
        assert!(s.count > 0, "stage {}", stage.name());
        assert!(s.max_ns >= s.p50_ns || s.count == 0, "stage {}", stage.name());
        assert_eq!(
            s.buckets.iter().sum::<u64>(),
            s.count,
            "stage {}: bucket counts sum to span count",
            stage.name()
        );
    }
    assert!(metrics.counters[Counter::EventsIngested.name()] > 0);
    assert!(metrics.counters[Counter::QueriesIngested.name()] > 0);
    // Every open transition is eventually matched by a close transition,
    // except a segment still open when the stream ends.
    let opened = metrics.counters[Counter::CasesOpened.name()];
    let closed = metrics.counters[Counter::CasesClosed.name()];
    assert!(opened >= 1, "a golden anomaly case must open");
    assert!(opened - closed <= 1, "opens {opened} vs closes {closed}");

    // The rendered document carries the same numbers.
    let doc = pinsql_json::parse(&metrics.to_json().render()).expect("metrics document parses");
    let fold = doc.get("stages").and_then(|s| s.get(Stage::CellFold.name())).expect("cell_fold");
    assert_eq!(
        fold.get("count").and_then(|c| c.as_f64()),
        Some(metrics.stages[Stage::CellFold.name()].count as f64)
    );
}

#[test]
fn disabled_observer_adds_no_measurable_ingest_cost() {
    // The zero-overhead claim, pinned loosely enough for CI: streaming a
    // scenario through `OnlineInstance` (default `NoopObserver`) must stay
    // within a small factor of the raw collector+detector loop it wraps.
    // The instrumented sites compile to nothing, so the only honest
    // difference is the event counter and segment-edge bookkeeping; a
    // forgotten always-on `Instant::now()` per event would blow well past
    // the bar. Min-of-N wall clocks to shed scheduler noise.
    let manifest = load_manifest();
    let sim = golden(&manifest[0]);
    let (scenario, events) = (&sim.scenario, &sim.events);
    const ROUNDS: usize = 5;

    let mut raw_best = f64::INFINITY;
    let mut inst_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let evs = events.clone();
        let t = Instant::now();
        let mut agg = pinsql_collector::IncrementalAggregator::new(
            &scenario.workload.specs,
            pinsql_collector::IncrementalConfig::default()
                .with_retention(scenario.cfg.window_s + 120),
        );
        let mut bank = pinsql_detect::OnlineDetectorBank::new();
        for ev in evs {
            if let pinsql_dbsim::TelemetryEvent::Metrics(sample) = &ev {
                bank.observe(sample);
            }
            agg.ingest(ev);
        }
        raw_best = raw_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box((&agg, &bank));

        let evs = events.clone();
        let t = Instant::now();
        let mut inst = OnlineInstance::new(scenario, GOLDEN_DELTA_S);
        for ev in evs {
            inst.ingest(ev);
        }
        inst_best = inst_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&inst);
    }

    let factor = inst_best / raw_best.max(1e-9);
    assert!(
        factor < 2.5,
        "noop-observed instance ingest is {factor:.2}x the raw loop \
         ({inst_best:.4}s vs {raw_best:.4}s) — observability is no longer free when disabled"
    );
}
