//! The `SHOW STATUS`-style active-session probe.
//!
//! Real monitoring agents call `SHOW STATUS` once per second, but the exact
//! instant `t3` at which the server snapshots its session count is unknown
//! to the collector — it lands somewhere inside `[t, t+1)` (Fig. 3). The
//! simulator reproduces that: each second it draws a uniform sub-second
//! offset, counts in-flight queries at that instant, and records only the
//! per-second value. The true offset is retained *separately* for test
//! validation; PinSQL's estimator never reads it.

/// One per-second probe sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// The second this sample is reported for.
    pub second: i64,
    /// Number of active sessions observed at the probe instant.
    pub active_sessions: u32,
    /// The true probe instant in ms — ground truth for validation only.
    /// The §IV-C estimator must not consume this field.
    pub true_instant_ms: f64,
}

/// The sequence of probe samples over a simulation.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog {
    pub samples: Vec<ProbeSample>,
}

impl ProbeLog {
    /// The per-second active-session series (what the collector stores).
    pub fn session_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.active_sessions as f64).collect()
    }

    /// First recorded second, if any.
    pub fn start_second(&self) -> Option<i64> {
        self.samples.first().map(|s| s.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_extraction() {
        let log = ProbeLog {
            samples: vec![
                ProbeSample { second: 10, active_sessions: 3, true_instant_ms: 10_400.0 },
                ProbeSample { second: 11, active_sessions: 7, true_instant_ms: 11_950.0 },
            ],
        };
        assert_eq!(log.session_series(), vec![3.0, 7.0]);
        assert_eq!(log.start_second(), Some(10));
        assert_eq!(ProbeLog::default().start_second(), None);
    }
}
