//! Anomaly-case windows (Definition II.2).
//!
//! An anomaly case `C = (M, Q, a_s, a_e)` binds metric and template data to
//! the detected anomaly period. The root-cause modules additionally look
//! back `δ_s` seconds before `a_s` because R-SQLs usually *precede* the
//! anomaly they cause; the collection window is `[t_s, t_e) =
//! [a_s − δ_s, a_e)`.

use crate::phenomenon::Phenomenon;

/// The time geometry of one anomaly case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyWindow {
    /// Anomaly start `a_s` (s).
    pub anomaly_start: i64,
    /// Anomaly end `a_e` (s, exclusive).
    pub anomaly_end: i64,
    /// Look-back offset `δ_s` (s).
    pub delta_s: i64,
}

impl AnomalyWindow {
    /// Builds the window from a detected phenomenon and a look-back.
    ///
    /// # Panics
    /// Panics if the phenomenon is empty or `delta_s` is negative.
    pub fn from_phenomenon(p: &Phenomenon, delta_s: i64) -> Self {
        assert!(p.end > p.start, "empty phenomenon");
        assert!(delta_s >= 0, "negative look-back");
        Self { anomaly_start: p.start, anomaly_end: p.end, delta_s }
    }

    /// Collection start `t_s = a_s − δ_s`.
    #[inline]
    pub fn ts(&self) -> i64 {
        self.anomaly_start - self.delta_s
    }

    /// Collection end `t_e = a_e`.
    #[inline]
    pub fn te(&self) -> i64 {
        self.anomaly_end
    }

    /// Anomaly duration (s).
    #[inline]
    pub fn anomaly_len(&self) -> i64 {
        self.anomaly_end - self.anomaly_start
    }

    /// Collection-window duration (s).
    #[inline]
    pub fn window_len(&self) -> i64 {
        self.te() - self.ts()
    }

    /// Clamps the collection window to available data `[data_start, data_end)`.
    pub fn clamped(&self, data_start: i64, data_end: i64) -> AnomalyWindow {
        let a_s = self.anomaly_start.clamp(data_start, data_end);
        let a_e = self.anomaly_end.clamp(a_s, data_end);
        let delta = self.delta_s.min(a_s - data_start);
        AnomalyWindow { anomaly_start: a_s, anomaly_end: a_e, delta_s: delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let w = AnomalyWindow { anomaly_start: 1000, anomaly_end: 1300, delta_s: 600 };
        assert_eq!(w.ts(), 400);
        assert_eq!(w.te(), 1300);
        assert_eq!(w.anomaly_len(), 300);
        assert_eq!(w.window_len(), 900);
    }

    #[test]
    fn from_phenomenon() {
        let p = Phenomenon { anomaly_type: "x".into(), start: 50, end: 90 };
        let w = AnomalyWindow::from_phenomenon(&p, 30);
        assert_eq!(w.ts(), 20);
        assert_eq!(w.te(), 90);
    }

    #[test]
    fn clamp_to_data() {
        let w = AnomalyWindow { anomaly_start: 100, anomaly_end: 400, delta_s: 300 };
        let c = w.clamped(0, 350);
        assert_eq!(c.ts(), 0);
        assert_eq!(c.anomaly_start, 100);
        assert_eq!(c.te(), 350);
    }

    #[test]
    #[should_panic(expected = "empty phenomenon")]
    fn empty_phenomenon_panics() {
        let p = Phenomenon { anomaly_type: "x".into(), start: 5, end: 5 };
        let _ = AnomalyWindow::from_phenomenon(&p, 0);
    }
}
