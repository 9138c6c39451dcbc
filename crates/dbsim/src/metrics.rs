//! Per-second instance performance metrics (Definition II.4).
//!
//! The simulator emits the metric set PinSQL's default configuration
//! watches — active session, CPU usage, IOPS usage — plus the row-lock and
//! metadata-lock wait gauges used by phenomenon classification.

use crate::probe::ProbeLog;

/// Canonical metric names, used as map keys by the detection layer.
pub mod names {
    pub const ACTIVE_SESSION: &str = "active_session";
    pub const CPU_USAGE: &str = "cpu_usage";
    pub const IOPS_USAGE: &str = "iops_usage";
    pub const ROW_LOCK_WAITS: &str = "innodb_row_lock_waits";
    pub const MDL_WAITS: &str = "mdl_waits";
    pub const THREADS_RUNNING: &str = "threads_running";
    pub const QPS: &str = "qps";
}

/// Per-second instance metrics over a simulation window starting at
/// `start_second`. All series have equal length.
#[derive(Debug, Clone, Default)]
pub struct InstanceMetrics {
    pub start_second: i64,
    /// Active session via the randomly-timed probe (what production
    /// monitoring reports).
    pub active_session: Vec<f64>,
    /// CPU utilization in `[0, 1]` (per-second mean).
    pub cpu_usage: Vec<f64>,
    /// IO utilization in `[0, 1]` (per-second mean).
    pub iops_usage: Vec<f64>,
    /// Queries observed waiting on row locks (sampled each second).
    pub row_lock_waits: Vec<f64>,
    /// Queries observed waiting on metadata locks (sampled each second).
    pub mdl_waits: Vec<f64>,
    /// Completed queries per second.
    pub qps: Vec<f64>,
    /// The raw probe log (true instants kept for validation only).
    pub probes: ProbeLog,
}

impl InstanceMetrics {
    /// Number of seconds covered.
    pub fn len(&self) -> usize {
        self.active_session.len()
    }

    /// True when no samples were produced.
    pub fn is_empty(&self) -> bool {
        self.active_session.is_empty()
    }

    /// Looks a metric up by canonical name.
    pub fn by_name(&self, name: &str) -> Option<&[f64]> {
        match name {
            names::ACTIVE_SESSION | names::THREADS_RUNNING => Some(&self.active_session),
            names::CPU_USAGE => Some(&self.cpu_usage),
            names::IOPS_USAGE => Some(&self.iops_usage),
            names::ROW_LOCK_WAITS => Some(&self.row_lock_waits),
            names::MDL_WAITS => Some(&self.mdl_waits),
            names::QPS => Some(&self.qps),
            _ => None,
        }
    }

    /// Replaces every non-finite sample across all six series with `0.0`,
    /// returning how many samples were replaced.
    ///
    /// Degraded or synthetic telemetry must never carry NaN/Inf into the
    /// pipeline (or into a serialized trace — JSON has no NaN), so callers
    /// that perturb metrics post-hoc sanitize before handing them on. A
    /// blanked second reads as zero, matching what a monitoring gap looks
    /// like after gap-filling in production collectors.
    pub fn sanitize(&mut self) -> usize {
        let mut replaced = 0;
        for series in [
            &mut self.active_session,
            &mut self.cpu_usage,
            &mut self.iops_usage,
            &mut self.row_lock_waits,
            &mut self.mdl_waits,
            &mut self.qps,
        ] {
            for v in series.iter_mut() {
                if !v.is_finite() {
                    *v = 0.0;
                    replaced += 1;
                }
            }
        }
        replaced
    }

    /// All `(name, series)` pairs, for iteration by the detection layer.
    pub fn iter_named(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        [
            (names::ACTIVE_SESSION, self.active_session.as_slice()),
            (names::CPU_USAGE, self.cpu_usage.as_slice()),
            (names::IOPS_USAGE, self.iops_usage.as_slice()),
            (names::ROW_LOCK_WAITS, self.row_lock_waits.as_slice()),
            (names::MDL_WAITS, self.mdl_waits.as_slice()),
            (names::QPS, self.qps.as_slice()),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_all_series() {
        let m = InstanceMetrics {
            start_second: 0,
            active_session: vec![1.0],
            cpu_usage: vec![0.5],
            iops_usage: vec![0.2],
            row_lock_waits: vec![0.0],
            mdl_waits: vec![0.0],
            qps: vec![10.0],
            probes: ProbeLog::default(),
        };
        assert_eq!(m.by_name(names::ACTIVE_SESSION), Some(&[1.0][..]));
        assert_eq!(m.by_name(names::CPU_USAGE), Some(&[0.5][..]));
        assert_eq!(m.by_name(names::QPS), Some(&[10.0][..]));
        assert_eq!(m.by_name("bogus"), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert_eq!(m.iter_named().count(), 6);
    }

    #[test]
    fn sanitize_zeroes_non_finite_samples() {
        let mut m = InstanceMetrics {
            start_second: 0,
            active_session: vec![1.0, f64::NAN, 3.0],
            cpu_usage: vec![0.5, f64::INFINITY, 0.4],
            iops_usage: vec![0.2, 0.1, 0.3],
            row_lock_waits: vec![0.0, f64::NEG_INFINITY, 0.0],
            mdl_waits: vec![0.0, 0.0, 0.0],
            qps: vec![10.0, 11.0, 12.0],
            probes: ProbeLog::default(),
        };
        assert_eq!(m.sanitize(), 3);
        assert_eq!(m.active_session, vec![1.0, 0.0, 3.0]);
        assert_eq!(m.cpu_usage, vec![0.5, 0.0, 0.4]);
        assert_eq!(m.row_lock_waits, vec![0.0, 0.0, 0.0]);
        assert_eq!(m.sanitize(), 0);
    }
}
