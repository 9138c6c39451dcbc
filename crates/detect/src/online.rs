//! Online basic perception: sample-at-a-time feature detection.
//!
//! The online engine only ever has *the next sample*, so the detection
//! algorithm lives here, with bounded rolling state:
//!
//! * [`OnlineFeatureDetector`] — one metric's detector: a *baseline* mode
//!   (rolling median/MAD over normal samples, warm-up gated) and a *segment*
//!   mode (frozen baseline statistics, peak-z tracking, recovery-run
//!   counting). Memory is `O(baseline_len + recover_len)` regardless of
//!   stream length. [`detect_features`](crate::detect_features) is this
//!   detector pushed over a whole series.
//! * [`OnlineDetectorBank`] — the six instance metrics' detectors driven
//!   from one [`MetricsSample`] stream, collecting closed features
//!   per-metric so the case layer sees them in exactly the order the
//!   per-metric `detect_features` loop produces.
//!
//! ## Recovery replay
//!
//! A segment closes once `recover_len` consecutive samples are back within
//! `recover_z`, and it ends where that run began. The run's samples then
//! count as arriving after the close: the detector buffers the current run
//! (at most `recover_len` samples) and replays it through its own baseline
//! mode, which may push them into the window or open the next segment. The
//! batch scanner this formulation was derived from (scan a segment forward,
//! resume at its end) is the oracle of this module's tests.

use crate::detector::DetectorConfig;
use crate::features::{Feature, FeatureKind};
use pinsql_dbsim::metrics::names;
use pinsql_dbsim::MetricsSample;
use pinsql_timeseries::rolling::{robust_z, RollingWindow};
use pinsql_timeseries::{KernelKind, WireError, WireReader, WireWriter};

/// Detection state for one metric.
#[derive(Debug, Clone)]
enum State {
    /// Tracking the baseline; no anomaly open.
    Baseline,
    /// Inside an anomalous segment opened at `seg_start`, judged against the
    /// baseline statistics frozen when the segment opened.
    Segment {
        med: f64,
        mad: f64,
        up: bool,
        seg_start: usize,
        peak_z: f64,
        /// The current run of consecutive recovered samples `(index, value)`;
        /// replayed through baseline mode when the segment closes.
        run: Vec<(usize, f64)>,
    },
}

/// Streaming spike / level-shift detector for a single metric.
#[derive(Debug, Clone)]
pub struct OnlineFeatureDetector {
    metric: String,
    cfg: DetectorConfig,
    start_second: i64,
    baseline: RollingWindow,
    /// Samples accepted so far (index of the next sample).
    n: usize,
    state: State,
}

impl OnlineFeatureDetector {
    /// Creates a detector for `metric` whose first sample will be at
    /// `start_second` (1-second sampling).
    pub fn new(metric: &str, start_second: i64, cfg: DetectorConfig) -> Self {
        let baseline = RollingWindow::new(cfg.baseline_len.max(2));
        Self { metric: metric.to_string(), cfg, start_second, baseline, n: 0, state: State::Baseline }
    }

    /// The metric this detector watches.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Number of samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.n
    }

    /// True while an anomalous segment is open (not yet recovered).
    pub fn in_segment(&self) -> bool {
        matches!(self.state, State::Segment { .. })
    }

    /// Consumes the next sample, appending to `out` any feature that
    /// *closed* on it (usually none, at most one).
    pub fn push(&mut self, x: f64, out: &mut Vec<Feature>) {
        let idx = self.n;
        self.n += 1;
        self.step(idx, x, out);
    }

    /// Ends the stream: an unrecovered open segment is emitted as a level
    /// shift running to the end of data. The detector is left in baseline
    /// mode.
    pub fn finish(&mut self) -> Option<Feature> {
        match std::mem::replace(&mut self.state, State::Baseline) {
            State::Baseline => None,
            State::Segment { up, seg_start, peak_z, .. } => {
                let kind = if up { FeatureKind::LevelShiftUp } else { FeatureKind::LevelShiftDown };
                Some(Feature {
                    metric: self.metric.clone(),
                    kind,
                    start: self.start_second + seg_start as i64,
                    end: self.start_second + self.n as i64,
                    peak_z,
                })
            }
        }
    }

    /// One step for the sample at `idx`. Recovery replay recurses at most
    /// one level: a replayed sample can open a new segment but can never
    /// complete a `recover_len` run inside the (shorter) replay buffer.
    fn step(&mut self, idx: usize, x: f64, out: &mut Vec<Feature>) {
        match std::mem::replace(&mut self.state, State::Baseline) {
            State::Baseline => {
                if self.baseline.len() < self.cfg.warmup.max(2) {
                    self.baseline.push(x);
                    return;
                }
                // With `capacity >= 2` a warm baseline always has a median,
                // but degenerate input must never panic (the PR 2
                // graceful-degradation contract): keep warming instead.
                let Some((med, mad)) = self.baseline.median_mad() else {
                    self.baseline.push(x);
                    return;
                };
                let z = robust_z(x, med, mad, self.cfg.mad_floor);
                if z.abs() < self.cfg.trigger_z {
                    self.baseline.push(x);
                    return;
                }
                self.state = State::Segment {
                    med,
                    mad,
                    up: z > 0.0,
                    seg_start: idx,
                    peak_z: z.abs(),
                    run: Vec::new(),
                };
            }
            State::Segment { med, mad, up, seg_start, mut peak_z, mut run } => {
                let z = robust_z(x, med, mad, self.cfg.mad_floor);
                peak_z = peak_z.max(z.abs());
                if z.abs() < self.cfg.recover_z {
                    run.push((idx, x));
                    if run.len() >= self.cfg.recover_len {
                        let seg_end = idx + 1 - run.len();
                        let duration = (seg_end - seg_start) as i64;
                        let kind = match (duration <= self.cfg.spike_max_s, up) {
                            (true, true) => FeatureKind::SpikeUp,
                            (true, false) => FeatureKind::SpikeDown,
                            (false, true) => FeatureKind::LevelShiftUp,
                            (false, false) => FeatureKind::LevelShiftDown,
                        };
                        out.push(Feature {
                            metric: self.metric.clone(),
                            kind,
                            start: self.start_second + seg_start as i64,
                            end: self.start_second + seg_end as i64,
                            peak_z,
                        });
                        // Replay the recovery run through baseline mode, as
                        // samples arriving after the close.
                        for (k, v) in run {
                            self.step(k, v, out);
                        }
                        return;
                    }
                } else {
                    run.clear();
                }
                self.state = State::Segment { med, mad, up, seg_start, peak_z, run };
            }
        }
    }
}

/// The bank section's kernel tag: the one detector kernel there is.
const KERNEL_TAG: u8 = 1;

/// The six instance-metric detectors driven from one sample stream.
#[derive(Debug, Clone)]
pub struct OnlineDetectorBank {
    detectors: Vec<OnlineFeatureDetector>,
    /// Closed features per metric, in the same slot order as `detectors`.
    closed: Vec<Vec<Feature>>,
    start_second: Option<i64>,
    finished: bool,
}

/// The instance metrics watched, in [`InstanceMetrics::iter_named`]
/// (`pinsql_dbsim::InstanceMetrics::iter_named`) order — the order the
/// per-metric detection loop visits them, which phenomenon classification's
/// tie-breaking depends on.
pub const WATCHED_METRICS: [&str; 6] = [
    names::ACTIVE_SESSION,
    names::CPU_USAGE,
    names::IOPS_USAGE,
    names::ROW_LOCK_WAITS,
    names::MDL_WAITS,
    names::QPS,
];

impl Default for OnlineDetectorBank {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineDetectorBank {
    /// Creates a bank with each metric's standard configuration (see
    /// [`DetectorConfig::for_metric`]). The time origin latches to the
    /// first observed sample's second.
    pub fn new() -> Self {
        Self { detectors: Vec::new(), closed: Vec::new(), start_second: None, finished: false }
    }

    /// [`new`](Self::new); `kernel` has one value. Single-valued; deleted
    /// by the `benchmark` PR (ROADMAP 3).
    pub fn with_kernel(kernel: KernelKind) -> Self {
        let KernelKind::Fast = kernel;
        Self::new()
    }

    /// Feeds one per-second metrics sample to all six detectors.
    ///
    /// Non-finite values are read as `0.0`, matching the sanitize pass the
    /// batch path applies before detection. Samples must arrive in second
    /// order, one per second.
    ///
    /// The six metric slots are pre-resolved: detectors sit in
    /// [`WATCHED_METRICS`] order and the sample decodes to the same order
    /// through [`MetricsSample::metric_values`], so the per-second loop is
    /// six array reads — no name matching, no per-push feature `Vec`.
    pub fn observe(&mut self, sample: &MetricsSample) {
        assert!(!self.finished, "bank already finished");
        if self.start_second.is_none() {
            let start = sample.second;
            self.start_second = Some(start);
            self.detectors = WATCHED_METRICS
                .iter()
                .map(|m| OnlineFeatureDetector::new(m, start, DetectorConfig::for_metric(m)))
                .collect();
            self.closed = vec![Vec::new(); WATCHED_METRICS.len()];
        }
        debug_assert!(self
            .detectors
            .iter()
            .zip(WATCHED_METRICS)
            .all(|(d, m)| d.metric() == m));
        let values = sample.metric_values();
        for (slot, det) in self.detectors.iter_mut().enumerate() {
            let v = values[slot];
            let v = if v.is_finite() { v } else { 0.0 };
            det.push(v, &mut self.closed[slot]);
        }
    }

    /// Ends the stream: flushes every open segment (idempotent).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for (slot, det) in self.detectors.iter_mut().enumerate() {
            if let Some(f) = det.finish() {
                self.closed[slot].push(f);
            }
        }
    }

    /// True while any metric has an open anomalous segment.
    pub fn any_open(&self) -> bool {
        self.detectors.iter().any(|d| d.in_segment())
    }

    /// Number of metric detectors currently inside an anomalous segment
    /// (0 ..= [`WATCHED_METRICS`] count).
    pub fn open_segments(&self) -> usize {
        self.detectors.iter().filter(|d| d.in_segment()).count()
    }

    /// Samples each detector has consumed (all six advance in lockstep;
    /// 0 before the first sample).
    pub fn samples_seen(&self) -> usize {
        self.detectors.first().map_or(0, OnlineFeatureDetector::samples_seen)
    }

    /// All features so far, grouped by metric in [`WATCHED_METRICS`] order
    /// and time-ordered within each metric — the exact list the per-metric
    /// detection loop hands to `classify`.
    pub fn features(&self) -> Vec<Feature> {
        self.closed.iter().flatten().cloned().collect()
    }

    /// Number of features detected so far (closed only).
    pub fn feature_count(&self) -> usize {
        self.closed.iter().map(Vec::len).sum()
    }

    /// Serializes the bank's complete streaming state into `w` (the
    /// checkpoint body — the engine wraps it in a magic/version envelope).
    ///
    /// A kernel tag byte (`1`, the only legal value; `0` named a second
    /// kernel that is now a test oracle), then per detector slot
    /// ([`WATCHED_METRICS`] order): sample count, the baseline window in
    /// arrival order, the state machine (frozen segment statistics and the
    /// recovery replay buffer included), and the closed features. Detector
    /// configurations are *not* serialized: the bank always derives them as
    /// `DetectorConfig::for_metric(m)`, so restore rebuilds them
    /// deterministically — one fewer way for a snapshot to disagree with
    /// the code that replays it.
    pub fn write_snapshot(&self, w: &mut WireWriter) {
        w.put_u8(KERNEL_TAG);
        w.put_bool(self.finished);
        w.put_bool(self.start_second.is_some());
        w.put_i64(self.start_second.unwrap_or(0));
        if self.start_second.is_none() {
            return;
        }
        debug_assert_eq!(self.detectors.len(), WATCHED_METRICS.len());
        for (slot, det) in self.detectors.iter().enumerate() {
            w.put_u64(det.n as u64);
            let baseline = det.baseline.arrival_values();
            w.put_len(baseline.len());
            for &v in &baseline {
                w.put_f64(v);
            }
            match &det.state {
                State::Baseline => w.put_u8(0),
                State::Segment { med, mad, up, seg_start, peak_z, run } => {
                    w.put_u8(1);
                    w.put_f64(*med);
                    w.put_f64(*mad);
                    w.put_bool(*up);
                    w.put_u64(*seg_start as u64);
                    w.put_f64(*peak_z);
                    w.put_len(run.len());
                    for &(idx, v) in run {
                        w.put_u64(idx as u64);
                        w.put_f64(v);
                    }
                }
            }
            w.put_len(self.closed[slot].len());
            for f in &self.closed[slot] {
                w.put_u8(match f.kind {
                    FeatureKind::SpikeUp => 0,
                    FeatureKind::SpikeDown => 1,
                    FeatureKind::LevelShiftUp => 2,
                    FeatureKind::LevelShiftDown => 3,
                });
                w.put_i64(f.start);
                w.put_i64(f.end);
                w.put_f64(f.peak_z);
            }
        }
    }

    /// Decodes a [`write_snapshot`](Self::write_snapshot) body back into a
    /// live bank. The restored bank continues the stream bit-identically:
    /// baselines are replayed in arrival order into identically-configured
    /// windows, segment statistics come back as their exact frozen bits,
    /// and the recovery replay buffer resumes mid-run.
    pub fn read_snapshot(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            KERNEL_TAG => {}
            v => return Err(WireError::BadTag { what: "kernel kind", value: v as u64 }),
        }
        let mut bank = Self::new();
        bank.finished = r.get_bool()?;
        let has_start = r.get_bool()?;
        let start = r.get_i64()?;
        if !has_start {
            return Ok(bank);
        }
        bank.start_second = Some(start);
        for metric in WATCHED_METRICS {
            let mut det =
                OnlineFeatureDetector::new(metric, start, DetectorConfig::for_metric(metric));
            det.n = r.get_u64()? as usize;
            let n_base = r.get_len(8)?;
            if n_base > det.baseline.capacity() {
                return Err(WireError::Mismatch {
                    what: "baseline window",
                    detail: format!(
                        "{n_base} samples exceed the {} capacity for {metric}",
                        det.baseline.capacity()
                    ),
                });
            }
            for _ in 0..n_base {
                let v = r.get_f64()?;
                if v.is_nan() {
                    return Err(WireError::Mismatch {
                        what: "baseline sample",
                        detail: format!("NaN in {metric} baseline"),
                    });
                }
                det.baseline.push(v);
            }
            det.state = match r.get_u8()? {
                0 => State::Baseline,
                1 => {
                    let med = r.get_f64()?;
                    let mad = r.get_f64()?;
                    let up = r.get_bool()?;
                    let seg_start = r.get_u64()? as usize;
                    let peak_z = r.get_f64()?;
                    let n_run = r.get_len(16)?;
                    let mut run = Vec::with_capacity(n_run);
                    for _ in 0..n_run {
                        run.push((r.get_u64()? as usize, r.get_f64()?));
                    }
                    State::Segment { med, mad, up, seg_start, peak_z, run }
                }
                v => return Err(WireError::BadTag { what: "detector state", value: v as u64 }),
            };
            let n_closed = r.get_len(25)?;
            let mut closed = Vec::with_capacity(n_closed);
            for _ in 0..n_closed {
                let kind = match r.get_u8()? {
                    0 => FeatureKind::SpikeUp,
                    1 => FeatureKind::SpikeDown,
                    2 => FeatureKind::LevelShiftUp,
                    3 => FeatureKind::LevelShiftDown,
                    v => return Err(WireError::BadTag { what: "feature kind", value: v as u64 }),
                };
                closed.push(Feature {
                    metric: metric.to_string(),
                    kind,
                    start: r.get_i64()?,
                    end: r.get_i64()?,
                    peak_z: r.get_f64()?,
                });
            }
            bank.detectors.push(det);
            bank.closed.push(closed);
        }
        Ok(bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect_features;
    use pinsql_testkit::{sweep, truncations};
    use pinsql_workload::rng::{RngExt, StdRng};

    /// The batch scanner the online detector was derived from, kept as its
    /// oracle: warm the baseline on normal samples; on a trigger, scan the
    /// segment forward against the frozen statistics to its recovery run
    /// or the end of data, then resume at the segment's end.
    fn batch_scan(
        metric: &str,
        series: &[f64],
        start_second: i64,
        cfg: &DetectorConfig,
    ) -> Vec<Feature> {
        let mut features = Vec::new();
        let mut baseline = RollingWindow::new(cfg.baseline_len.max(2));
        let mut i = 0usize;
        while i < series.len() {
            let x = series[i];
            if baseline.len() < cfg.warmup.max(2) {
                baseline.push(x);
                i += 1;
                continue;
            }
            let Some((med, mad)) = baseline.median_mad() else {
                baseline.push(x);
                i += 1;
                continue;
            };
            let z = robust_z(x, med, mad, cfg.mad_floor);
            if z.abs() < cfg.trigger_z {
                baseline.push(x);
                i += 1;
                continue;
            }
            let up = z > 0.0;
            let seg_start = i;
            let mut peak_z: f64 = z.abs();
            let mut recovered_run = 0usize;
            let mut seg_end = series.len(); // exclusive; trimmed on recovery
            for (j, &xj) in series.iter().enumerate().skip(i + 1) {
                let zj = robust_z(xj, med, mad, cfg.mad_floor);
                peak_z = peak_z.max(zj.abs());
                if zj.abs() < cfg.recover_z {
                    recovered_run += 1;
                    if recovered_run >= cfg.recover_len {
                        seg_end = j + 1 - recovered_run;
                        break;
                    }
                } else {
                    recovered_run = 0;
                }
            }
            let recovered = seg_end < series.len();
            let duration = (seg_end - seg_start) as i64;
            let kind = match (recovered && duration <= cfg.spike_max_s, up) {
                (true, true) => FeatureKind::SpikeUp,
                (true, false) => FeatureKind::SpikeDown,
                (false, true) => FeatureKind::LevelShiftUp,
                (false, false) => FeatureKind::LevelShiftDown,
            };
            features.push(Feature {
                metric: metric.to_string(),
                kind,
                start: start_second + seg_start as i64,
                end: start_second + seg_end as i64,
                peak_z,
            });
            if !recovered {
                break; // ran to the end of data
            }
            i = seg_end;
        }
        features
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig { baseline_len: 40, warmup: 10, spike_max_s: 30, ..Default::default() }
    }

    fn assert_matches_batch(series: &[f64], start: i64, cfg: &DetectorConfig) {
        let batch = batch_scan("m", series, start, cfg);
        let stream = detect_features("m", series, start, cfg);
        assert_eq!(stream, batch, "online/batch divergence on {} samples", series.len());
    }

    fn flat(n: usize, level: f64) -> Vec<f64> {
        (0..n).map(|i| level + ((i * 7) % 3) as f64 * 0.3).collect()
    }

    #[test]
    fn equivalent_on_quiet_series() {
        assert_matches_batch(&flat(200, 10.0), 0, &cfg());
        assert_matches_batch(&flat(5, 10.0), 0, &cfg());
        assert_matches_batch(&[], 0, &cfg());
    }

    #[test]
    fn bank_health_accessors_track_stream_state() {
        let mut bank = OnlineDetectorBank::new();
        assert_eq!(bank.samples_seen(), 0);
        assert_eq!(bank.open_segments(), 0);
        // A quiet warm-up then a sustained active-session surge: at least
        // that metric's detector must be inside a segment mid-surge.
        for s in 0..120i64 {
            let surge = s >= 80;
            bank.observe(&MetricsSample {
                second: s,
                active_session: if surge { 400.0 } else { 2.0 + (s % 3) as f64 * 0.2 },
                ..Default::default()
            });
        }
        assert_eq!(bank.samples_seen(), 120, "all detectors advance in lockstep");
        assert!(bank.open_segments() >= 1, "surge opens a segment");
        assert!(bank.any_open());
        assert!(bank.open_segments() <= WATCHED_METRICS.len());
        bank.finish();
        assert_eq!(bank.open_segments(), 0, "finish flushes open segments");
        assert!(bank.feature_count() >= 1);
    }

    #[test]
    fn equivalent_on_spike() {
        let mut s = flat(200, 10.0);
        for v in s.iter_mut().skip(100).take(10) {
            *v = 60.0;
        }
        assert_matches_batch(&s, 1000, &cfg());
    }

    #[test]
    fn equivalent_on_level_shift() {
        let mut s = flat(300, 10.0);
        for v in s.iter_mut().skip(100) {
            *v += 70.0;
        }
        assert_matches_batch(&s, 0, &cfg());
    }

    #[test]
    fn equivalent_on_double_spike_and_end_anomaly() {
        let mut s = flat(400, 10.0);
        for v in s.iter_mut().skip(100).take(6) {
            *v = 70.0;
        }
        for v in s.iter_mut().skip(250).take(6) {
            *v = 70.0;
        }
        for v in s.iter_mut().skip(390) {
            *v = 90.0; // runs to end of data
        }
        assert_matches_batch(&s, 0, &cfg());
    }

    #[test]
    fn equivalent_on_interrupted_recovery() {
        // Recovery runs that reset (anomalous sample inside the run)
        // exercise the replay-buffer clearing path.
        let mut s = flat(300, 10.0);
        for v in s.iter_mut().skip(100).take(5) {
            *v = 70.0;
        }
        s[107] = 70.0; // breaks the first recovery run
        for v in s.iter_mut().skip(150).take(40) {
            *v = 70.0;
        }
        assert_matches_batch(&s, 0, &cfg());
    }

    /// Seeds of [`online_detector_matches_the_batch_scan_oracle`]: the
    /// first [`NOISE_TRIALS`] run a noise series, the rest one seeded walk
    /// each.
    const SWEEP_SEEDS: u64 = 264;
    const NOISE_TRIALS: u64 = 8;

    /// Amplitude-varied noise with occasional bursts and dips, longer for
    /// each later trial: a broad sweep across the trigger / recover
    /// boundaries.
    fn noise_trial(rng: &mut StdRng, trial: u64) -> Vec<f64> {
        (0..150 + trial as usize * 37)
            .map(|i| {
                let base = 10.0 + 2.0 * rng.random::<f64>();
                if rng.random::<f64>() < 0.04 {
                    base + 40.0 + 30.0 * rng.random::<f64>()
                } else if i % 97 == 0 {
                    base - 8.0
                } else {
                    base
                }
            })
            .collect()
    }

    /// `n` samples at `level` with jitter of `unit` scale.
    fn jitter(rng: &mut StdRng, s: &mut Vec<f64>, n: usize, level: f64, unit: f64) {
        s.extend((0..n).map(|_| level + 0.6 * unit * rng.random::<f64>()));
    }

    /// One seeded walk. The configuration is paper-scale, default,
    /// utilization or degenerate (a tiny baseline, warm-up 0/1/2, low
    /// thresholds). The series strings together quiet
    /// stretches, spikes, level shifts and recovery runs interrupted one
    /// sample short, and may end on a recovery run one short of, exactly
    /// at or one past `recover_len`.
    fn seeded_walk(seed: u64, rng: &mut StdRng) -> (Vec<f64>, i64, DetectorConfig) {
        let cfg = match (seed / 2) % 4 {
            0 => cfg(),
            1 => DetectorConfig::default(),
            2 => DetectorConfig::for_utilization(),
            _ => DetectorConfig {
                baseline_len: rng.random_range(1..12usize),
                trigger_z: rng.random_range(1.0..4.0),
                recover_z: rng.random_range(0.5..5.0),
                recover_len: rng.random_range(1..7usize),
                spike_max_s: rng.random_range(1..20u64) as i64,
                warmup: rng.random_range(0..3usize),
                ..Default::default()
            },
        };
        let start = rng.random_range(0..2000u64) as i64 - 1000;
        // Utilization series live in [0, 1]: scale everything by the floor.
        let unit = cfg.mad_floor;
        let mut level = if unit < 1.0 { 0.3 } else { 10.0 };
        let back = cfg.recover_len;
        let target = rng.random_range(0..400usize);
        let mut s = Vec::new();
        while s.len() < target {
            let sign = if rng.random::<f64>() < 0.7 { 1.0 } else { -1.0 };
            let high = level + sign * unit * rng.random_range(8.0..60.0);
            // A recovery run settles up to about 4 z above the level: across
            // the recover threshold and, on degenerate thresholds, the
            // trigger one, so a replayed sample can reopen a segment.
            let settle = level + unit * rng.random_range(0.0..6.0);
            match rng.random_range(0..5u32) {
                0 => {
                    let n = rng.random_range(1..60usize);
                    jitter(rng, &mut s, n, level, unit);
                }
                1 => {
                    let n = rng.random_range(1..2 * cfg.spike_max_s as usize + 2);
                    jitter(rng, &mut s, n, high, unit);
                }
                2 => level = high,
                3 => {
                    for _ in 0..rng.random_range(1..4usize) {
                        let n = rng.random_range(1..10usize);
                        jitter(rng, &mut s, n, high, unit);
                        jitter(rng, &mut s, back - 1, settle, unit);
                    }
                }
                _ => {
                    let n = rng.random_range(1..30usize);
                    jitter(rng, &mut s, n, high, unit);
                    let n = back + rng.random_range(0..3usize) - 1;
                    jitter(rng, &mut s, n, settle, unit);
                    break;
                }
            }
        }
        (s, start, cfg)
    }

    /// `detect_features` (the online detector) against the batch scanner,
    /// bit for bit: the noise trials at two configurations, then 256
    /// seeded walks. Every failure names its seed.
    #[test]
    fn online_detector_matches_the_batch_scan_oracle() {
        sweep(0..SWEEP_SEEDS, |seed, rng| {
            let inputs = if seed < NOISE_TRIALS {
                let series = noise_trial(rng, seed);
                [(seed as i64 * 100, cfg()), (0, DetectorConfig::default())]
                    .map(|(start, c)| (series.clone(), start, c))
                    .to_vec()
            } else {
                vec![seeded_walk(seed, rng)]
            };
            for (series, start, cfg) in inputs {
                let what = format!("{} samples from second {start}, {cfg:?}", series.len());
                let online = detect_features("m", &series, start, &cfg);
                assert_eq!(online, batch_scan("m", &series, start, &cfg), "{what}");
            }
        });
    }

    #[test]
    fn degenerate_configs_return_to_warmup_instead_of_panicking() {
        // Regression for the old `expect("warm baseline")` in `step`: a
        // detector whose baseline cannot produce statistics must keep
        // warming up, never panic — the graceful-degradation contract.
        for warmup in [0usize, 1, 2] {
            let cfg = DetectorConfig {
                warmup,
                baseline_len: 1, // clamped to 2 internally
                ..Default::default()
            };
            // Constant, tiny, and empty streams all stay feature-free.
            assert_matches_batch(&[], 0, &cfg);
            assert_matches_batch(&[5.0], 0, &cfg);
            assert_matches_batch(&vec![5.0; 50], 0, &cfg);
            // A stream that triggers immediately after the minimal
            // warm-up still closes cleanly.
            let mut s = vec![1.0, 1.0, 1.0];
            s.extend(std::iter::repeat_n(500.0, 10));
            s.extend(std::iter::repeat_n(1.0, 20));
            assert_matches_batch(&s, 0, &cfg);
        }
    }

    #[test]
    fn open_segment_is_visible() {
        let mut det = OnlineFeatureDetector::new("m", 0, cfg());
        let mut out = Vec::new();
        for &x in &flat(100, 10.0) {
            det.push(x, &mut out);
        }
        assert!(!det.in_segment());
        det.push(90.0, &mut out);
        assert!(det.in_segment());
    }

    #[test]
    fn bank_matches_per_metric_batch_loop() {
        use pinsql_dbsim::probe::ProbeLog;
        use pinsql_dbsim::{interleave, InstanceMetrics, TelemetryEvent};
        let n = 400;
        let mut m = InstanceMetrics {
            start_second: 0,
            active_session: flat(n, 4.0),
            cpu_usage: (0..n).map(|i| 0.3 + ((i % 5) as f64) * 0.002).collect(),
            iops_usage: vec![0.2; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: flat(n, 50.0),
            probes: ProbeLog::default(),
        };
        for v in m.active_session.iter_mut().skip(200).take(30) {
            *v = 60.0;
        }
        for v in m.cpu_usage.iter_mut().skip(200).take(30) {
            *v = 0.95;
        }

        // The per-metric loop, as materialize runs it, on the oracle.
        let mut batch = Vec::new();
        for (name, series) in m.iter_named() {
            let c = DetectorConfig::for_metric(name);
            batch.extend(batch_scan(name, series, m.start_second, &c));
        }

        let mut bank = OnlineDetectorBank::new();
        for ev in interleave(Vec::new(), &m) {
            if let TelemetryEvent::Metrics(sample) = ev {
                bank.observe(&sample);
            }
        }
        bank.finish();
        assert!(!batch.is_empty(), "test scenario should trigger features");
        assert_eq!(bank.features(), batch);
    }

    #[test]
    fn bank_snapshot_round_trip_is_bit_exact() {
        use pinsql_timeseries::{WireReader, WireWriter};
        // A stream with a mid-surge split: the snapshot lands inside an
        // open segment with a partially-filled recovery run.
        let n = 300usize;
        let sample_at = |s: i64| {
            let surge = (120..180).contains(&s);
            MetricsSample {
                second: s,
                active_session: if surge { 300.0 } else { 3.0 + (s % 4) as f64 * 0.3 },
                cpu_usage: if surge { 0.97 } else { 0.3 + (s % 3) as f64 * 0.01 },
                iops_usage: 0.2,
                qps: 40.0 + (s % 5) as f64,
                ..Default::default()
            }
        };
        for split in [0usize, 1, 60, 130, 150, 182, 299] {
            let mut live = OnlineDetectorBank::new();
            let mut pre = OnlineDetectorBank::new();
            for s in 0..split as i64 {
                live.observe(&sample_at(s));
                pre.observe(&sample_at(s));
            }
            let mut w = WireWriter::new();
            pre.write_snapshot(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let mut restored = OnlineDetectorBank::read_snapshot(&mut r).unwrap();
            r.finish("bank").unwrap();

            // Re-serialization of the restored bank is byte-identical.
            let mut w2 = WireWriter::new();
            restored.write_snapshot(&mut w2);
            assert_eq!(w2.into_bytes(), bytes, "split {split}");

            for s in split as i64..n as i64 {
                live.observe(&sample_at(s));
                restored.observe(&sample_at(s));
            }
            live.finish();
            restored.finish();
            assert_eq!(live.features(), restored.features(), "split {split}");
            assert_eq!(live.samples_seen(), restored.samples_seen());
        }
    }

    #[test]
    fn bank_snapshot_rejects_corrupt_input_with_typed_errors() {
        use pinsql_timeseries::{WireError, WireReader, WireWriter};
        let mut bank = OnlineDetectorBank::new();
        for s in 0..90i64 {
            bank.observe(&MetricsSample {
                second: s,
                active_session: if s >= 80 { 400.0 } else { 2.0 + (s % 3) as f64 * 0.2 },
                ..Default::default()
            });
        }
        let mut w = WireWriter::new();
        bank.write_snapshot(&mut w);
        let bytes = w.into_bytes();

        // The kernel tag has one legal value; `0` named the kernel that
        // is now a test oracle.
        assert_eq!(bytes[0], 1);
        for tag in [0u8, 2, 9] {
            let mut corrupt = bytes.clone();
            corrupt[0] = tag;
            assert!(matches!(
                OnlineDetectorBank::read_snapshot(&mut WireReader::new(&corrupt)),
                Err(WireError::BadTag { what: "kernel kind", value }) if value == tag as u64
            ));
        }
        truncations(&bytes, 1, |prefix| {
            assert!(OnlineDetectorBank::read_snapshot(&mut WireReader::new(prefix)).is_err())
        });

        // An un-started bank round-trips too (fresh instance checkpointed
        // before its first metrics sample).
        let empty = OnlineDetectorBank::new();
        let mut w = WireWriter::new();
        empty.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        let restored = OnlineDetectorBank::read_snapshot(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(restored.samples_seen(), 0);
    }
}
