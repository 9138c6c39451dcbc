//! Pettitt's non-parametric change-point test (Pettitt, 1979).
//!
//! The paper's anomaly-detection component integrates several methods,
//! citing Pettitt's test among them (§IV-B, ref. [28]). The test finds the
//! most likely single change point in a series without assuming a
//! distribution: it is the rank-based analogue of a two-sample test
//! applied at every possible split.
//!
//! For a series `x_1 … x_N`, the statistic at split `t` is
//! `U_t = Σ_{i≤t} Σ_{j>t} sgn(x_i − x_j)`; the change point is the `t`
//! maximizing `|U_t|`, with approximate significance
//! `p ≈ 2·exp(−6·K² / (N³ + N²))`, `K = max|U_t|`.
//!
//! The detection layer uses it to *confirm* level shifts found by the
//! streaming detector: a confirmed shift has a significant Pettitt point
//! inside the candidate segment.

/// Result of the Pettitt test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pettitt {
    /// Index of the most likely change point: the last index of the first
    /// segment (`0 ≤ index < N−1`).
    pub index: usize,
    /// The maximal |U_t| statistic.
    pub statistic: f64,
    /// Approximate two-sided p-value.
    pub p_value: f64,
    /// Sign of the change: +1 when the level rises after the point.
    pub direction: i8,
}

/// Runs Pettitt's test. Returns `None` for series shorter than 4 samples
/// (no meaningful split exists).
///
/// Complexity is `O(N log N)`-ish in principle, but this direct
/// implementation is `O(N²)` with a tiny constant — detection windows are
/// a few hundred samples, where the direct form is both simple and fast
/// (the incremental recurrence below avoids the naive `O(N³)`).
pub fn pettitt(xs: &[f64]) -> Option<Pettitt> {
    let n = xs.len();
    if n < 4 {
        return None;
    }
    // U_t can be computed incrementally: U_t = U_{t−1} + Σ_j sgn(x_t − x_j).
    // Σ_j sgn(x_t − x_j) over all j equals (#less − #greater); we compute it
    // per element in O(N) each, O(N²) total.
    let mut best_abs = -1.0;
    let mut best_idx = 0;
    let mut best_u = 0.0;
    let mut u = 0.0f64;
    for t in 0..n - 1 {
        let mut s = 0.0;
        for &xj in xs.iter() {
            // NB: not f64::signum — sgn(0) must be 0, while Rust's
            // `0.0f64.signum()` is 1.0.
            if xs[t] > xj {
                s += 1.0;
            } else if xs[t] < xj {
                s -= 1.0;
            }
        }
        u += s;
        if u.abs() > best_abs {
            best_abs = u.abs();
            best_idx = t;
            best_u = u;
        }
    }
    let nf = n as f64;
    let p = (2.0 * (-6.0 * best_abs * best_abs / (nf.powi(3) + nf.powi(2))).exp()).min(1.0);
    Some(Pettitt {
        index: best_idx,
        statistic: best_abs,
        p_value: p,
        // U_t sums sgn(first − second): a large *negative* U means the
        // early segment is smaller, i.e. the level rose.
        direction: if best_u < 0.0 { 1 } else { -1 },
    })
}

/// Convenience: is there a significant change point (p < alpha)?
pub fn has_change_point(xs: &[f64], alpha: f64) -> bool {
    pettitt(xs).is_some_and(|p| p.p_value < alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(level: f64, n: usize, phase: usize) -> Vec<f64> {
        (0..n).map(|i| level + ((i + phase) % 7) as f64 * 0.3).collect()
    }

    #[test]
    fn short_series_is_none() {
        assert!(pettitt(&[]).is_none());
        assert!(pettitt(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn clean_step_up_is_found() {
        let mut xs = noisy(10.0, 60, 0);
        xs.extend(noisy(20.0, 60, 3));
        let p = pettitt(&xs).unwrap();
        assert!((55..=64).contains(&p.index), "index {}", p.index);
        assert!(p.p_value < 0.001, "p {}", p.p_value);
        assert_eq!(p.direction, 1);
    }

    #[test]
    fn clean_step_down_is_found() {
        let mut xs = noisy(50.0, 40, 0);
        xs.extend(noisy(5.0, 40, 2));
        let p = pettitt(&xs).unwrap();
        assert!((35..=44).contains(&p.index), "index {}", p.index);
        assert!(p.p_value < 0.001);
        assert_eq!(p.direction, -1);
    }

    #[test]
    fn stationary_series_is_insignificant() {
        let xs = noisy(10.0, 120, 0);
        let p = pettitt(&xs).unwrap();
        assert!(p.p_value > 0.05, "p {} stat {}", p.p_value, p.statistic);
        assert!(!has_change_point(&xs, 0.01));
    }

    #[test]
    fn constant_series_is_insignificant() {
        let xs = vec![5.0; 100];
        let p = pettitt(&xs).unwrap();
        assert_eq!(p.statistic, 0.0);
        assert!(p.p_value >= 1.0 - 1e-9);
    }

    #[test]
    fn significance_monotone_in_shift_size() {
        let make = |delta: f64| {
            let mut xs = noisy(10.0, 30, 0);
            // Small shifts relative to the 0..1.8 noise band.
            xs.extend((0..30).map(|i| 10.0 + delta + ((i + 3) % 7) as f64 * 0.3));
            pettitt(&xs).unwrap().p_value
        };
        let p_small = make(0.3);
        let p_large = make(5.0);
        assert!(p_large < p_small, "large shift must be more significant: {p_large} vs {p_small}");
    }

    #[test]
    fn has_change_point_threshold() {
        let mut xs = noisy(10.0, 50, 0);
        xs.extend(noisy(30.0, 50, 1));
        assert!(has_change_point(&xs, 0.01));
        assert!(!has_change_point(&noisy(10.0, 100, 0), 1e-12));
    }
}
