//! Anomaly-case windows (Definition II.2).
//!
//! An anomaly case `C = (M, Q, a_s, a_e)` binds metric and template data to
//! the detected anomaly period. The root-cause modules additionally look
//! back `δ_s` seconds before `a_s` because R-SQLs usually *precede* the
//! anomaly they cause; the collection window is `[t_s, t_e) =
//! [a_s − δ_s, a_e)`.

use crate::phenomenon::Phenomenon;
use std::ops::Range;

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

/// Picks the case window over the metric seconds `span` a stream
/// delivered: the longest phenomenon (the last of equals, as `max_by_key`
/// keeps it) with its `delta_s` look-back, clamped to `span`. Undetected,
/// or clamped to nothing, the case is the whole span with no look-back; an
/// empty span becomes the one second at its start. Returns the window,
/// whether a phenomenon was detected, and its type.
pub fn select_case_window(
    phenomena: &[Phenomenon],
    delta_s: i64,
    span: Range<i64>,
) -> (AnomalyWindow, bool, String) {
    let start = span.start.min(i64::MAX - 1);
    let end = span.end.max(start + 1);
    let whole = AnomalyWindow { anomaly_start: start, anomaly_end: end, delta_s: 0 };
    let Some(p) = phenomena.iter().max_by_key(|p| p.duration()) else {
        return (whole, false, "active_session_anomaly".to_string());
    };
    let window = AnomalyWindow::from_phenomenon(p, delta_s).clamped(start, end);
    let window = if window.anomaly_len() > 0 { window } else { whole };
    (window, true, p.anomaly_type.clone())
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

    fn ph(anomaly_type: &str, start: i64, end: i64) -> Phenomenon {
        Phenomenon { anomaly_type: anomaly_type.into(), start, end }
    }

    #[test]
    fn select_takes_the_longest_phenomenon_and_the_last_of_equals() {
        let ps = [ph("a", 100, 150), ph("b", 300, 400), ph("c", 500, 550)];
        let (w, detected, ty) = select_case_window(&ps, 120, 0..1200);
        assert_eq!(w, AnomalyWindow { anomaly_start: 300, anomaly_end: 400, delta_s: 120 });
        assert!(detected);
        assert_eq!(ty, "b");
        let tied = [ph("a", 100, 200), ph("b", 300, 400), ph("c", 500, 550)];
        let (w, _, ty) = select_case_window(&tied, 120, 0..1200);
        assert_eq!((w.anomaly_start, ty.as_str()), (300, "b"));
        // Clamped to the span: the look-back stops at its start.
        let (w, ..) = select_case_window(&[ph("a", 50, 900)], 120, 0..600);
        assert_eq!(w, AnomalyWindow { anomaly_start: 50, anomaly_end: 600, delta_s: 50 });
    }

    #[test]
    fn select_falls_back_to_the_whole_span_when_the_phenomenon_clamps_empty() {
        let (w, detected, ty) = select_case_window(&[ph("cpu", 700, 800)], 120, 0..600);
        assert_eq!(w, AnomalyWindow { anomaly_start: 0, anomaly_end: 600, delta_s: 0 });
        assert!(detected, "a phenomenon was detected, even if past the stream");
        assert_eq!(ty, "cpu");
    }

    #[test]
    fn select_without_phenomena_is_the_whole_undetected_span() {
        let (w, detected, ty) = select_case_window(&[], 600, 0..1200);
        assert_eq!(w, AnomalyWindow { anomaly_start: 0, anomaly_end: 1200, delta_s: 0 });
        assert!(!detected);
        assert_eq!(ty, "active_session_anomaly");
    }

    #[test]
    fn select_over_an_empty_span_is_one_second() {
        let one = |s| AnomalyWindow { anomaly_start: s, anomaly_end: s + 1, delta_s: 0 };
        let spans = [(0, 0, 0), (0, -5, 0), (0, i64::MIN, 0), (i64::MAX, i64::MAX, i64::MAX - 1)];
        for (start, end, at) in spans {
            let span = start..end;
            assert_eq!(select_case_window(&[], 600, span.clone()).0, one(at), "{span:?}");
            let (w, detected, _) = select_case_window(&[ph("a", 10, 20)], 600, span.clone());
            assert_eq!((w, detected), (one(at), true), "{span:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty phenomenon")]
    fn empty_phenomenon_panics() {
        let p = Phenomenon { anomaly_type: "x".into(), start: 5, end: 5 };
        let _ = AnomalyWindow::from_phenomenon(&p, 0);
    }
}
