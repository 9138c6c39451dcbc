//! The path every experiment cuts its cases through
//! (`pinsql_eval::caseset::label_online`: one online instance over the
//! simulated stream) against the batch oracle, on the shapes `pinsql-eval`
//! builds and the golden matrix never runs: telemetry perturbed at two
//! intensities, overlapping anomalies (`inject_many`), a clean and a
//! perturbed negative, and look-backs other than 600 s. Each case is
//! compared series for series, bit for bit, then re-diagnosed under the
//! default configuration and the three Fig. 6 ablations whose scores move,
//! and compared through the bit-exact `Snapshot` view.

mod common;

use common::{simulated, snapshot_of, ManifestEntry};
use pinsql::{Ablation, PinSql, PinSqlConfig};
use pinsql_eval::caseset::label_online;
use pinsql_scenario::{
    generate_base, inject_many, AnomalyKind, LabeledCase, PerturbConfig, ScenarioConfig,
};
use pinsql_timeseries::par::par_map;

/// One case shape: its name, seed, injected kinds (empty = negative),
/// look-back and chaos intensity.
struct Shape {
    name: &'static str,
    seed: u64,
    kinds: &'static [AnomalyKind],
    delta_s: i64,
    intensity: Option<f64>,
}

const OVERLAP: &[AnomalyKind] = &[AnomalyKind::BusinessSpike, AnomalyKind::RowLock];

const SHAPES: [Shape; 7] = [
    shape("spike_delta_240", 9410, &[AnomalyKind::BusinessSpike], 240, None),
    shape("row_lock_delta_300", 9411, &[AnomalyKind::RowLock], 300, None),
    shape("poor_sql_perturbed_0.25", 9412, &[AnomalyKind::PoorSql], 600, Some(0.25)),
    shape("mdl_lock_perturbed_1.0", 9413, &[AnomalyKind::MdlLock], 600, Some(1.0)),
    shape("overlap_spike_row_lock", 9414, OVERLAP, 600, None),
    shape("negative", 9415, &[], 600, None),
    shape("negative_perturbed_0.6", 9415, &[], 240, Some(0.6)),
];

const fn shape(
    name: &'static str,
    seed: u64,
    kinds: &'static [AnomalyKind],
    delta_s: i64,
    intensity: Option<f64>,
) -> Shape {
    Shape { name, seed, kinds, delta_s, intensity }
}

/// The three Fig. 6 ablations that move a score on the paper-sized case
/// set, beside the default configuration.
fn configs() -> [(&'static str, Ablation); 4] {
    [
        ("default", Ablation::default()),
        ("w/o estimate session", Ablation { no_estimate_session: true, ..Default::default() }),
        ("w/o scale-level score", Ablation { no_scale_level: true, ..Default::default() }),
        (
            "w/o history verification",
            Ablation { no_history_verification: true, ..Default::default() },
        ),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The two labelled cases agree in every series bit.
fn assert_cases_eq(online: &LabeledCase, oracle: &LabeledCase, what: &str) {
    let (a, b) = (&online.case, &oracle.case);
    assert_eq!((a.ts, a.te), (b.ts, b.te), "{what}: window");
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.templates.len(), b.templates.len(), "{what}: template count");
    for (x, y) in a.templates.iter().zip(&b.templates) {
        let id = x.id;
        assert_eq!(id, y.id, "{what}: template order");
        let (s, t) = (&x.series, &y.series);
        assert_eq!(bits(&s.execution_count), bits(&t.execution_count), "{what}: {id:?} count");
        assert_eq!(bits(&s.total_rt_ms), bits(&t.total_rt_ms), "{what}: {id:?} rt");
        assert_eq!(bits(&s.examined_rows), bits(&t.examined_rows), "{what}: {id:?} rows");
    }
    assert_eq!(a.minute_rows.len(), b.minute_rows.len(), "{what}: minute row count");
    for (i, (x, y)) in a.minute_rows.iter().zip(&b.minute_rows).enumerate() {
        assert_eq!(bits(x), bits(y), "{what}: minute row {i}");
    }
    for ((name, x), (_, y)) in a.metrics.iter_named().zip(b.metrics.iter_named()) {
        assert_eq!(bits(x), bits(y), "{what}: metric {name}");
    }
    common::assert_owners_by_catalog(a, what);
}

#[test]
fn eval_shapes_match_the_batch_oracle() {
    par_map(SHAPES.len(), 0, |i| {
        let shape = &SHAPES[i];
        let cfg = ScenarioConfig::default()
            .with_seed(shape.seed)
            .with_businesses(6)
            .with_window(600, 360, 480);
        let key = format!("eval shape {} {:?}", shape.seed, shape.kinds);
        let sim = simulated(key, || inject_many(&generate_base(&cfg), &cfg, shape.kinds));
        let perturb = shape.intensity.map(|x| PerturbConfig::at_intensity(shape.seed, x));

        let online = label_online(&sim.scenario, shape.delta_s, perturb.as_ref());
        let oracle = sim.labeled(shape.delta_s, perturb.as_ref());
        assert_cases_eq(&online, &oracle, shape.name);

        let entry = ManifestEntry { name: shape.name, kind: "eval shape", seed: shape.seed };
        for (label, ablation) in configs() {
            let pinsql = PinSql::new(PinSqlConfig::default().with_ablation(ablation));
            let diagnose = |lc: &LabeledCase| {
                pinsql.diagnose(&lc.case, &lc.window, &lc.history, lc.minutes_origin)
            };
            assert_eq!(
                snapshot_of(&entry, &online, &diagnose(&online)),
                snapshot_of(&entry, &oracle, &diagnose(&oracle)),
                "{} under {label}: the online case diverged from the oracle",
                shape.name
            );
        }
    });
}
