//! Property sweeps for the online window cut.
//!
//! The contract under test: for any ingest stream, an instance closes its
//! case whose per-template 1-minute rows (`CaseData::minute_rows`) are
//! **bit-identical** to what the oracle re-derives from the case's raw
//! series (`TemplateSeries::per_minute`), and whose normalized matrix
//! matches `NormalizedMatrix::from_series` over those re-derived rows, row
//! for row. Streams come from seeded random generators (out-of-order
//! arrivals, ±inf/NaN records), chaos-perturbed scenario telemetry,
//! constant workloads, retention-evicting long windows, and mid-window
//! snapshot/restore splits. Each cut's record → template owner table is
//! held to the catalog lookup it stands for on every one of them. A
//! failing sweep names its seed.

use pinsql_collector::{CaseData, IncrementalAggregator, IncrementalConfig};
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_engine::{InstanceSnapshot, OnlineInstance};
use pinsql_scenario::{PerturbConfig, Scenario};
use pinsql_timeseries::NormalizedMatrix;
use pinsql_workload::rng::{rng_from_seed, RngExt};
use pinsql_workload::SpecId;

mod common;
use common::{assert_owners_by_catalog, random_event_stream, small, small_scenario, Simulated};

const DELTA_S: i64 = 60;

/// The cut's rows equal the per-template `per_minute` oracle bit for
/// bit, and normalizing them reproduces `from_series` over the oracle's
/// rows exactly.
fn assert_cut_is_exact(case: &CaseData, what: &str) {
    let rows = &case.minute_rows;
    assert_eq!(rows.len(), case.templates.len(), "{what}: row count");
    assert_owners_by_catalog(case, what);

    let per_minutes: Vec<Vec<f64>> =
        case.templates.iter().map(|t| t.series.per_minute()).collect();
    for (i, per_min) in per_minutes.iter().enumerate() {
        assert_eq!(rows[i].len(), per_min.len(), "{what}: row {i} length");
        for (m, (a, b)) in rows[i].iter().zip(per_min).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: template {i} minute {m}: cut {a} vs per_minute {b}"
            );
        }
    }

    let row_refs: Vec<&[f64]> = rows.iter().map(|v| v.as_slice()).collect();
    let cut_matrix = NormalizedMatrix::from_series(&row_refs);
    let refs: Vec<&[f64]> = per_minutes.iter().map(|v| v.as_slice()).collect();
    let ref_matrix = NormalizedMatrix::from_series(&refs);
    assert_eq!(cut_matrix.row_len(), ref_matrix.row_len(), "{what}: matrix row length");
    for i in 0..per_minutes.len() {
        match (cut_matrix.row(i), ref_matrix.row(i)) {
            (Some(a), Some(b)) => {
                for (m, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: matrix row {i} col {m}");
                }
            }
            (None, None) => {}
            (a, b) => panic!(
                "{what}: matrix row {i} validity diverged (cut {:?}, oracle {:?})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Everything *outside* the cut is identical across two cases.
fn assert_case_eq_modulo_cut(a: &CaseData, b: &CaseData, what: &str) {
    assert_eq!(a.ts, b.ts, "{what}: ts");
    assert_eq!(a.te, b.te, "{what}: te");
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.templates.len(), b.templates.len(), "{what}: template count");
    for (x, y) in a.templates.iter().zip(&b.templates) {
        assert_eq!(x.id, y.id, "{what}: template id");
        assert_eq!(x.series.execution_count, y.series.execution_count, "{what}: {:?}", x.id);
        assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms, "{what}: {:?}", x.id);
    }
    assert_eq!(a.metrics.active_session, b.metrics.active_session, "{what}: active_session");
}

/// Runs one stream through an instance and checks its cut against the
/// oracle.
fn check_stream(scenario: &Scenario, events: &[TelemetryEvent], what: &str) {
    let mut inst = OnlineInstance::new(scenario, DELTA_S);
    inst.ingest_stream(events.to_vec());
    assert_cut_is_exact(&inst.close_case().case, what);
}

/// Seeded random streams: arrivals in any order (including before the
/// ring start), a sprinkle of NaN/∞ records, interleaved metric samples
/// and ticks — the cut always reproduces the oracle exactly. 256 streams.
#[test]
fn random_streams_cut_exactly() {
    let scenario = small_scenario(7);
    for seed in 0..256u64 {
        let mut rng = rng_from_seed(seed);
        let events = random_event_stream(&mut rng, scenario.workload.specs.len());
        check_stream(&scenario, &events, &format!("seed {seed}: random stream"));
    }
}

/// Chaos-perturbed real telemetry: dropped/duplicated/jittered/
/// reordered records and blanked metric seconds never desynchronize the
/// cut from the raw series. 256 perturbations of one simulation.
#[test]
fn perturbed_streams_cut_exactly() {
    let sim = small(11);
    for seed in 0..256u64 {
        let mut rng = rng_from_seed(seed);
        let perturb = PerturbConfig {
            seed: rng.random_range(0..1_000u64),
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            jitter_ms: 30.0,
            clock_skew_ms: rng.random_range(-50.0..50.0),
            reorder: rng.random_range(0..2u32) == 1,
            metric_blank_prob: 0.05,
        };
        let events = sim.perturbed_events(&perturb);
        check_stream(&sim.scenario, &events, &format!("seed {seed}: perturbed stream"));
    }
}

/// A perfectly constant workload — zero variance on every template and
/// on the session metric — yields exact constant rows.
#[test]
fn constant_stream_cut_is_exact() {
    let scenario = small_scenario(3);
    let n_specs = scenario.workload.specs.len();
    let mut events: Vec<TelemetryEvent> = Vec::new();
    for s in 0..240i64 {
        for q in 0..2 {
            events.push(TelemetryEvent::Query(QueryRecord {
                spec: SpecId(q % n_specs),
                start_ms: s as f64 * 1000.0 + q as f64 * 400.0,
                response_ms: 5.0,
                examined_rows: 10,
            }));
        }
        events.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
            second: s,
            active_session: 4.0,
            ..Default::default()
        })));
        events.push(TelemetryEvent::Tick { second: s + 1 });
    }
    check_stream(&scenario, &events, "constant stream");
}

/// A stream that runs far past the retention horizon: early seconds are
/// evicted from the rings, the eviction counter advances, and the cut at
/// close still matches the oracle over what remains.
/// (`OnlineInstance` sizes retention to the whole simulated window, so it
/// never evicts; the aggregator is driven directly, under the 60 s
/// look-back.)
#[test]
fn eviction_past_the_window_stays_exact() {
    let sim = small(5);
    let scenario = &sim.scenario;
    let mut agg = IncrementalAggregator::new(
        &scenario.workload.specs,
        IncrementalConfig::default().with_retention(DELTA_S),
    );
    // 240 s of telemetry: three quarters of the stream age out of the
    // rings before the window is cut.
    for ev in sim.events.clone() {
        agg.ingest(ev);
    }
    let te = scenario.cfg.window_s;
    assert_cut_is_exact(&agg.snapshot(te - DELTA_S, te), "evicting stream");
    assert!(agg.stats().evictions > 0, "a 240 s stream under a 60 s retention must evict");
}

/// Snapshot mid-window, restore through the untrusted byte path, drain
/// the tail: the restored instance's cut is bit-identical to the one
/// from an instance that never snapshotted.
#[test]
fn snapshot_restore_mid_window_preserves_the_cut() {
    let Simulated { scenario, events, .. } = small(9);
    for frac in [0.25f64, 0.5, 0.85] {
        let split = ((events.len() as f64) * frac) as usize;
        let mk = || OnlineInstance::new(scenario, DELTA_S);

        let mut baseline = mk();
        baseline.ingest_stream(events.clone());
        let lc_base = baseline.close_case();

        let mut live = mk();
        live.ingest_stream(events[..split].to_vec());
        let snap = InstanceSnapshot::from_bytes(live.snapshot().into_bytes())
            .expect("own bytes revalidate");
        let mut restored =
            OnlineInstance::restore(scenario, &snap).expect("own snapshot restores");
        restored.ingest_stream(events[split..].to_vec());
        let lc_restored = restored.close_case();

        let what = format!("restored at {split}");
        assert_cut_is_exact(&lc_base.case, "baseline");
        assert_cut_is_exact(&lc_restored.case, &what);
        assert_case_eq_modulo_cut(&lc_restored.case, &lc_base.case, &what);
        assert_eq!(lc_restored.case.minute_rows, lc_base.case.minute_rows, "{what}: rows");
    }
}
