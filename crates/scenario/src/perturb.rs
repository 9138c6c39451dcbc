//! Telemetry-chaos perturbation: post-hoc degradation of materialized
//! telemetry.
//!
//! Production PinSQL never sees clean inputs: query-log shippers drop and
//! duplicate records, agent clocks skew and jitter, monitoring gaps blank
//! whole seconds of metrics, and log collectors deliver out of order. This
//! module degrades a simulated case *after* the simulator ran — the ground
//! truth stays what it was, only the observation decays — so the robustness
//! experiment can sweep accuracy against degradation intensity
//! (`results/robustness.json`) and property tests can assert the pipeline
//! never panics on garbage.
//!
//! Everything is seeded and deterministic: the same `PerturbConfig` applied
//! to the same telemetry yields bit-identical output, so perturbed cases
//! are as reproducible as clean ones. Blanked metric seconds are written as
//! `0.0`, never NaN — serialized traces stay valid JSON and the hardened
//! pipeline treats zero as "no load", exactly what a production gap-filled
//! series looks like.

use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};

/// How to degrade one case's telemetry. The default is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbConfig {
    /// Seed for the perturbation RNG (independent of the scenario seed, so
    /// the same case can be degraded many independent ways).
    pub seed: u64,
    /// Probability of dropping each log record.
    pub drop_prob: f64,
    /// Probability of duplicating each surviving log record.
    pub duplicate_prob: f64,
    /// Uniform timestamp jitter half-width, ms (each surviving record's
    /// arrival moves by `U(-jitter_ms, jitter_ms)`).
    pub jitter_ms: f64,
    /// Constant clock skew added to every record's arrival, ms (the log
    /// shipper's clock vs the metric agent's clock).
    pub clock_skew_ms: f64,
    /// Shuffle record order (collectors deliver out of order; aggregation
    /// must not depend on input order).
    pub reorder: bool,
    /// Probability of blanking each metric second (all six series read 0.0
    /// and probe samples for that second vanish).
    pub metric_blank_prob: f64,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        Self::noop(0)
    }
}

impl PerturbConfig {
    /// The identity perturbation: telemetry passes through untouched.
    pub fn noop(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            jitter_ms: 0.0,
            clock_skew_ms: 0.0,
            reorder: false,
            metric_blank_prob: 0.0,
        }
    }

    /// A single-knob degradation sweep: `intensity` 0.0 is the identity,
    /// 1.0 is severe (35 % of log records lost, 10 % duplicated, ±1.5 s
    /// jitter, 400 ms skew, shuffled delivery, 15 % of metric seconds
    /// blank). The robustness experiment sweeps this knob per anomaly kind.
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            drop_prob: 0.35 * x,
            duplicate_prob: 0.10 * x,
            jitter_ms: 1500.0 * x,
            clock_skew_ms: 400.0 * x,
            reorder: x > 0.0,
            metric_blank_prob: 0.15 * x,
        }
    }

    /// True when applying this config cannot change anything.
    pub fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.jitter_ms <= 0.0
            && self.clock_skew_ms == 0.0
            && !self.reorder
            && self.metric_blank_prob <= 0.0
    }
}

/// What a perturbation did, for experiment logging.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerturbStats {
    pub records_dropped: usize,
    pub records_duplicated: usize,
    pub seconds_blanked: usize,
}

/// Degrades a query log in place: drop, skew, jitter, duplicate, reorder.
///
/// Deterministic for a given `(log, cfg)`; records keep finite timestamps
/// (jitter and skew are finite shifts), so the log stays serializable.
pub fn perturb_log(log: &mut Vec<QueryRecord>, cfg: &PerturbConfig) -> PerturbStats {
    let mut stats = PerturbStats::default();
    if cfg.is_noop() {
        return stats;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E3779B97F4A7C15);
    let mut out = Vec::with_capacity(log.len());
    for rec in log.iter() {
        if cfg.drop_prob > 0.0 && rng.random::<f64>() < cfg.drop_prob {
            stats.records_dropped += 1;
            continue;
        }
        let mut r = *rec;
        if cfg.clock_skew_ms != 0.0 {
            r.start_ms += cfg.clock_skew_ms;
        }
        if cfg.jitter_ms > 0.0 {
            r.start_ms += rng.random_range(-cfg.jitter_ms..cfg.jitter_ms);
        }
        out.push(r);
        if cfg.duplicate_prob > 0.0 && rng.random::<f64>() < cfg.duplicate_prob {
            stats.records_duplicated += 1;
            out.push(r);
        }
    }
    if cfg.reorder {
        // Fisher–Yates with the same rng — a fully shuffled delivery order.
        for i in (1..out.len()).rev() {
            let j = rng.random_range(0..=i);
            out.swap(i, j);
        }
    }
    *log = out;
    stats
}

/// Blanks metric seconds in place: every series reads `0.0` for a blanked
/// second and probe samples taken in it disappear (the monitoring agent was
/// down). Returns how many seconds were blanked.
pub fn perturb_metrics(metrics: &mut InstanceMetrics, cfg: &PerturbConfig) -> usize {
    if cfg.metric_blank_prob <= 0.0 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1B54A32D192ED03);
    let n = metrics.len();
    let blanked: Vec<bool> =
        (0..n).map(|_| rng.random::<f64>() < cfg.metric_blank_prob).collect();
    for series in [
        &mut metrics.active_session,
        &mut metrics.cpu_usage,
        &mut metrics.iops_usage,
        &mut metrics.row_lock_waits,
        &mut metrics.mdl_waits,
        &mut metrics.qps,
    ] {
        for (v, &b) in series.iter_mut().zip(&blanked) {
            if b {
                *v = 0.0;
            }
        }
    }
    let start = metrics.start_second;
    metrics.probes.samples.retain(|p| {
        let off = p.second - start;
        off < 0 || off as usize >= n || !blanked[off as usize]
    });
    blanked.iter().filter(|&&b| b).count()
}

/// Applies the full chaos layer to one case's telemetry: log degradation
/// plus metric blanking.
pub fn perturb_telemetry(
    log: &mut Vec<QueryRecord>,
    metrics: &mut InstanceMetrics,
    cfg: &PerturbConfig,
) -> PerturbStats {
    let mut stats = perturb_log(log, cfg);
    stats.seconds_blanked = perturb_metrics(metrics, cfg);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_dbsim::probe::{ProbeLog, ProbeSample};
    use pinsql_workload::SpecId;

    fn record(spec: usize, start_ms: f64) -> QueryRecord {
        QueryRecord { spec: SpecId(spec), start_ms, response_ms: 50.0, examined_rows: 3 }
    }

    fn sample_log(n: usize) -> Vec<QueryRecord> {
        (0..n).map(|i| record(i % 5, i as f64 * 137.0)).collect()
    }

    fn sample_metrics(n: usize) -> InstanceMetrics {
        InstanceMetrics {
            start_second: 0,
            active_session: (0..n).map(|i| 1.0 + i as f64).collect(),
            cpu_usage: vec![0.5; n],
            iops_usage: vec![0.25; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![10.0; n],
            probes: ProbeLog {
                samples: (0..n as i64)
                    .map(|second| ProbeSample {
                        second,
                        active_sessions: 1,
                        true_instant_ms: second as f64 * 1000.0 + 500.0,
                    })
                    .collect(),
            },
        }
    }

    fn key(r: &QueryRecord) -> (usize, u64, u64, u64) {
        (r.spec.0, r.start_ms.to_bits(), r.response_ms.to_bits(), r.examined_rows)
    }

    #[test]
    fn noop_leaves_everything_untouched() {
        let mut log = sample_log(50);
        let orig: Vec<_> = log.iter().map(key).collect();
        let mut metrics = sample_metrics(30);
        let cfg = PerturbConfig::noop(99);
        assert!(cfg.is_noop());
        assert!(PerturbConfig::at_intensity(99, 0.0).is_noop());
        let stats = perturb_telemetry(&mut log, &mut metrics, &cfg);
        assert_eq!(stats, PerturbStats::default());
        assert_eq!(log.iter().map(key).collect::<Vec<_>>(), orig);
        assert_eq!(metrics.probes.samples.len(), 30);
    }

    #[test]
    fn drop_all_empties_the_log() {
        let mut log = sample_log(40);
        let cfg = PerturbConfig { drop_prob: 1.0, ..PerturbConfig::noop(1) };
        let stats = perturb_log(&mut log, &cfg);
        assert!(log.is_empty());
        assert_eq!(stats.records_dropped, 40);
    }

    #[test]
    fn duplicate_all_doubles_the_log() {
        let mut log = sample_log(25);
        let cfg = PerturbConfig { duplicate_prob: 1.0, ..PerturbConfig::noop(1) };
        let stats = perturb_log(&mut log, &cfg);
        assert_eq!(log.len(), 50);
        assert_eq!(stats.records_duplicated, 25);
    }

    #[test]
    fn reorder_preserves_the_multiset() {
        let mut log = sample_log(60);
        let mut orig: Vec<_> = log.iter().map(key).collect();
        let cfg = PerturbConfig { reorder: true, ..PerturbConfig::noop(5) };
        perturb_log(&mut log, &cfg);
        let mut got: Vec<_> = log.iter().map(key).collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, orig);
    }

    #[test]
    fn skew_and_jitter_keep_timestamps_finite() {
        let mut log = sample_log(80);
        let cfg = PerturbConfig {
            jitter_ms: 1500.0,
            clock_skew_ms: -400.0,
            ..PerturbConfig::noop(7)
        };
        perturb_log(&mut log, &cfg);
        assert_eq!(log.len(), 80);
        assert!(log.iter().all(|r| r.start_ms.is_finite()));
        // Skew alone is exact: with jitter off every record moves by -400.
        let mut log2 = sample_log(3);
        let cfg2 = PerturbConfig { clock_skew_ms: -400.0, ..PerturbConfig::noop(7) };
        perturb_log(&mut log2, &cfg2);
        assert_eq!(log2[1].start_ms, 137.0 - 400.0);
    }

    #[test]
    fn blanked_seconds_read_zero_and_lose_probes() {
        let mut metrics = sample_metrics(200);
        let cfg = PerturbConfig { metric_blank_prob: 0.5, ..PerturbConfig::noop(11) };
        let blanked = perturb_metrics(&mut metrics, &cfg);
        assert!(blanked > 50 && blanked < 150, "blanked {blanked} of 200");
        let zeros = metrics.active_session.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, blanked);
        assert_eq!(metrics.probes.samples.len(), 200 - blanked);
        assert!(metrics.active_session.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn perturbation_is_deterministic() {
        let cfg = PerturbConfig::at_intensity(1234, 0.7);
        let mut a = sample_log(120);
        let mut b = sample_log(120);
        let mut ma = sample_metrics(90);
        let mut mb = sample_metrics(90);
        let sa = perturb_telemetry(&mut a, &mut ma, &cfg);
        let sb = perturb_telemetry(&mut b, &mut mb, &cfg);
        assert_eq!(sa, sb);
        assert_eq!(a.iter().map(key).collect::<Vec<_>>(), b.iter().map(key).collect::<Vec<_>>());
        assert_eq!(ma.active_session, mb.active_session);
        assert_eq!(ma.probes.samples.len(), mb.probes.samples.len());
    }

    // Seeded sweeps: 256 (seed, intensity, size) triples each; a failure
    // names the sweep seed.

    /// `(perturbation seed in 0..10_000, intensity in 0..=1 with both ends
    /// drawn on purpose, size below max_n)`.
    fn sweep_case(seed: u64, max_n: usize) -> (PerturbConfig, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let intensity = match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.random_range(0.0..1.0),
        };
        let cfg = PerturbConfig::at_intensity(rng.random_range(0..10_000u64), intensity);
        (cfg, rng.random_range(0..max_n))
    }

    #[test]
    fn any_intensity_keeps_log_finite_and_bounded() {
        for seed in 0..256 {
            let (cfg, n) = sweep_case(seed, 200);
            let mut log = sample_log(n);
            let stats = perturb_log(&mut log, &cfg);
            assert!(log.len() <= 2 * n, "seed {seed}");
            assert!(log.iter().all(|r| r.start_ms.is_finite()), "seed {seed}");
            assert_eq!(
                log.len(),
                n - stats.records_dropped + stats.records_duplicated,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn any_intensity_keeps_metrics_finite() {
        for seed in 0..256 {
            let (cfg, n) = sweep_case(seed, 150);
            let mut metrics = sample_metrics(n);
            let blanked = perturb_metrics(&mut metrics, &cfg);
            assert!(blanked <= n, "seed {seed}");
            assert_eq!(metrics.len(), n, "seed {seed}");
            assert!(metrics.active_session.iter().all(|v| v.is_finite()), "seed {seed}");
            assert!(metrics.probes.samples.len() <= n, "seed {seed}");
        }
    }
}
