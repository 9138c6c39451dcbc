//! Property sweeps for the detection layer, each on `CASES` seeded random
//! inputs; a failure names the seed.

use pinsql_detect::{classify, detect_features, DetectorConfig, PhenomenonConfig};
use pinsql_workload::rng::{rng_from_seed, RngExt, StdRng};

const CASES: u64 = 256;

/// `lo..hi` values, each in `range`.
fn vec_in(rng: &mut StdRng, lo: usize, hi: usize, range: std::ops::Range<f64>) -> Vec<f64> {
    (0..rng.random_range(lo..hi)).map(|_| rng.random_range(range.clone())).collect()
}

/// The detector never panics and every feature is a well-formed,
/// in-bounds, non-overlapping segment.
#[test]
fn features_are_well_formed() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let series = vec_in(&mut rng, 0, 500, 0.0..1e6);
        let start = rng.random_range(0..2000u64) as i64 - 1000;
        let cfg = DetectorConfig::default();
        let feats = detect_features("m", &series, start, &cfg);
        let end = start + series.len() as i64;
        for f in &feats {
            assert!(f.start >= start && f.end <= end, "seed {seed}: {f:?}");
            assert!(f.start < f.end, "seed {seed}: {f:?}");
            assert!(f.peak_z >= cfg.trigger_z, "seed {seed}: {f:?}");
        }
        for pair in feats.windows(2) {
            assert!(pair[0].end <= pair[1].start, "seed {seed}: overlap: {pair:?}");
        }
    }
}

/// A constant series (any level) never alarms.
#[test]
fn constant_series_never_alarms() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let series = vec![rng.random_range(0.0..1e6); rng.random_range(0..400usize)];
        let feats = detect_features("m", &series, 0, &DetectorConfig::default());
        assert!(feats.is_empty(), "seed {seed}: {feats:?}");
    }
}

/// Scaling a series and its detector floor together preserves the
/// feature segmentation (the detector is scale-equivariant).
#[test]
fn detection_is_scale_equivariant() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let mut series = vec_in(&mut rng, 100, 200, 5.0..15.0);
        let spike_at = rng.random_range(50..90usize);
        let scale = rng.random_range(0.5..200.0);
        for v in series.iter_mut().skip(spike_at).take(8) {
            *v += 200.0;
        }
        let cfg = DetectorConfig { baseline_len: 40, warmup: 10, ..Default::default() };
        let scaled: Vec<f64> = series.iter().map(|v| v * scale).collect();
        let scaled_cfg = DetectorConfig { mad_floor: cfg.mad_floor * scale, ..cfg.clone() };
        let a = detect_features("m", &series, 0, &cfg);
        let b = detect_features("m", &scaled, 0, &scaled_cfg);
        assert_eq!(a.len(), b.len(), "seed {seed}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.start, x.end, x.kind), (y.start, y.end, y.kind), "seed {seed}");
        }
    }
}

/// Phenomenon classification output is sorted, merged (no same-type
/// pair closer than the gap), and duration-filtered.
#[test]
fn phenomena_are_merged_and_filtered() {
    use pinsql_detect::{Feature, FeatureKind};
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let features: Vec<Feature> = (0..rng.random_range(0..30usize))
            .map(|_| {
                let start = rng.random_range(0..1000u64) as i64;
                Feature {
                    metric: "active_session".into(),
                    kind: FeatureKind::SpikeUp,
                    start,
                    end: start + rng.random_range(1..120u64) as i64,
                    peak_z: 10.0,
                }
            })
            .collect();
        let cfg = PhenomenonConfig::default();
        let out = classify(&features, &cfg);
        for p in &out {
            assert!(p.duration() >= cfg.min_duration_s, "seed {seed}: {p:?}");
        }
        for pair in out.windows(2) {
            assert!(pair[0].start <= pair[1].start, "seed {seed}: not sorted");
            if pair[0].anomaly_type == pair[1].anomaly_type {
                assert!(
                    pair[1].start > pair[0].end + cfg.merge_gap_s,
                    "seed {seed}: unmerged same-type phenomena: {pair:?}"
                );
            }
        }
    }
}
