//! Rolling robust statistics for streaming anomaly detection.
//!
//! The Basic Perception Layer (§IV-B) watches each performance metric
//! round-the-clock. Its detectors need, at every step, a robust estimate of
//! the recent baseline — we provide a rolling median / MAD (median absolute
//! deviation) window, plus a simple rolling mean/std for cheap callers.
//!
//! The windows here are small (tens to hundreds of samples), so the median
//! is recomputed from a maintained sorted buffer: `O(w)` per step via binary
//! search + shift, which comfortably beats fancier structures at these sizes.
//! The MAD, by contrast, used to collect-and-sort the deviations on every
//! query; [`RollingWindow::median_mad`] routes that through the
//! selection-based `O(log w)` kernel ([`crate::kernels::mad_of_sorted`]) —
//! bit-identical to the reference formulation, which stays available behind
//! [`KernelKind::Reference`] for the equivalence suites.

use crate::kernels::{self, KernelKind};

/// A fixed-capacity rolling window maintaining its contents both in arrival
/// order (for eviction) and in sorted order (for quantiles).
#[derive(Debug, Clone)]
pub struct RollingWindow {
    capacity: usize,
    /// Ring buffer in arrival order.
    ring: Vec<f64>,
    head: usize,
    len: usize,
    /// The same values kept sorted.
    sorted: Vec<f64>,
}

impl RollingWindow {
    /// Creates a window holding at most `capacity` recent observations.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window capacity must be positive");
        Self {
            capacity,
            ring: vec![0.0; capacity],
            head: 0,
            len: 0,
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Number of observations currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no observations are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes an observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN pushed into rolling window");
        if self.len == self.capacity {
            let evicted = self.ring[self.head];
            let pos = self
                .sorted
                .binary_search_by(|v| v.partial_cmp(&evicted).expect("NaN in window"))
                .expect("evicted value missing from sorted buffer");
            self.sorted.remove(pos);
        } else {
            self.len += 1;
        }
        self.ring[self.head] = x;
        self.head = (self.head + 1) % self.capacity;
        let pos = self
            .sorted
            .partition_point(|&v| v < x);
        self.sorted.insert(pos, x);
    }

    /// Median of the current contents; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        Some(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        })
    }

    /// Median absolute deviation around the median; `None` when empty.
    ///
    /// A `floor` is *not* applied here; detector layers add their own floor
    /// so that flat baselines don't produce infinite z-scores.
    pub fn mad(&self) -> Option<f64> {
        let med = self.median()?;
        let mut devs: Vec<f64> = self.sorted.iter().map(|&v| (v - med).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in window"));
        let n = devs.len();
        Some(if n % 2 == 1 {
            devs[n / 2]
        } else {
            (devs[n / 2 - 1] + devs[n / 2]) / 2.0
        })
    }

    /// Median and MAD in one call, through the selected kernel; `None`
    /// when empty.
    ///
    /// `KernelKind::Reference` is [`median`](Self::median) +
    /// [`mad`](Self::mad) (allocate the deviations, sort, index);
    /// `KernelKind::Fast` selects the same order statistics straight from
    /// the maintained sorted buffer in `O(log w)` without allocating. The
    /// two are bit-identical (pinned by this module's tests, `kernel_props`
    /// and the golden corpus).
    pub fn median_mad(&self, kind: KernelKind) -> Option<(f64, f64)> {
        match kind {
            KernelKind::Reference => Some((self.median()?, self.mad()?)),
            KernelKind::Fast => {
                let med = kernels::median_of_sorted(&self.sorted)?;
                Some((med, kernels::mad_of_sorted(&self.sorted, med)))
            }
        }
    }

    /// Mean of the current contents; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.len as f64)
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current contents in *arrival* order, oldest first.
    ///
    /// This is the checkpoint serialization order: a fresh window of the
    /// same capacity replaying these values through [`push`](Self::push)
    /// holds the same values in the same logical (eviction) order and the
    /// same sorted buffer — the ring may sit at a different rotation, which
    /// no observable operation can distinguish — so snapshot → restore is
    /// behaviorally exact and re-serialization is idempotent.
    pub fn arrival_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        if self.len < self.capacity {
            // Never wrapped: entries live in ring[0..len] with head == len.
            out.extend_from_slice(&self.ring[..self.len]);
        } else {
            // Full ring: oldest at head, wrapping around.
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
        }
        out
    }
}

/// Robust z-score of `x` against a (median, mad) baseline with a MAD floor.
///
/// The constant 1.4826 rescales MAD to be comparable with a standard
/// deviation under normality. `mad_floor` guards flat baselines.
#[inline]
pub fn robust_z(x: f64, median: f64, mad: f64, mad_floor: f64) -> f64 {
    (x - median) / (1.4826 * mad.max(mad_floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_yields_none() {
        let w = RollingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
        assert_eq!(w.mad(), None);
        assert_eq!(w.mean(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RollingWindow::new(0);
    }

    #[test]
    fn median_odd_and_even() {
        let mut w = RollingWindow::new(5);
        for x in [3.0, 1.0, 2.0] {
            w.push(x);
        }
        assert_eq!(w.median(), Some(2.0));
        w.push(10.0);
        assert_eq!(w.median(), Some(2.5));
    }

    #[test]
    fn eviction_keeps_sorted_consistent() {
        let mut w = RollingWindow::new(3);
        for x in [5.0, 1.0, 9.0, 2.0, 2.0] {
            w.push(x);
        }
        // window now holds [9, 2, 2]
        assert_eq!(w.len(), 3);
        assert_eq!(w.sorted, [2.0, 2.0, 9.0]);
        assert_eq!(w.median(), Some(2.0));
    }

    #[test]
    fn eviction_with_duplicates() {
        let mut w = RollingWindow::new(2);
        w.push(4.0);
        w.push(4.0);
        w.push(4.0);
        w.push(7.0);
        assert_eq!(w.sorted, [4.0, 7.0]);
    }

    #[test]
    fn mad_of_constant_window_is_zero() {
        let mut w = RollingWindow::new(4);
        for _ in 0..4 {
            w.push(3.0);
        }
        assert_eq!(w.mad(), Some(0.0));
        // robust_z with a floor stays finite.
        assert!(robust_z(10.0, 3.0, 0.0, 0.5).is_finite());
    }

    #[test]
    fn mad_matches_manual_computation() {
        let mut w = RollingWindow::new(5);
        for x in [1.0, 1.0, 2.0, 2.0, 8.0] {
            w.push(x);
        }
        // median = 2, |devs| sorted = [0,0,1,1,6] → mad = 1
        assert_eq!(w.mad(), Some(1.0));
    }

    #[test]
    fn median_mad_kernels_are_bit_identical() {
        // A deterministic stream with duplicates, evictions, and values
        // landing exactly on the median.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((state >> 40) % 1000) as f64) / 10.0
        };
        for capacity in [2usize, 3, 5, 16, 121] {
            let mut w = RollingWindow::new(capacity);
            assert_eq!(w.median_mad(KernelKind::Fast), None);
            assert_eq!(w.median_mad(KernelKind::Reference), None);
            for _ in 0..(capacity * 3 + 7) {
                w.push(next());
                let (fm, fd) = w.median_mad(KernelKind::Fast).unwrap();
                let (rm, rd) = w.median_mad(KernelKind::Reference).unwrap();
                assert_eq!(fm.to_bits(), rm.to_bits(), "median, capacity {capacity}");
                assert_eq!(fd.to_bits(), rd.to_bits(), "mad, capacity {capacity}");
                assert_eq!(rm.to_bits(), w.median().unwrap().to_bits());
                assert_eq!(rd.to_bits(), w.mad().unwrap().to_bits());
            }
        }
    }

    #[test]
    fn arrival_values_round_trip_is_behaviorally_exact() {
        for capacity in [1usize, 2, 3, 5, 8] {
            for n_pushes in 0..(capacity * 3 + 2) {
                let mut w = RollingWindow::new(capacity);
                for i in 0..n_pushes {
                    // Duplicates on purpose: eviction must stay stable.
                    w.push(((i * 7) % 5) as f64);
                }
                let arrival = w.arrival_values();
                assert_eq!(arrival.len(), w.len());
                let mut restored = RollingWindow::new(capacity);
                for &v in &arrival {
                    restored.push(v);
                }
                assert_eq!(restored.sorted, w.sorted);
                assert_eq!(restored.arrival_values(), arrival);
                // Continue both in lockstep: eviction order must agree.
                for i in 0..capacity * 2 {
                    w.push(i as f64 * 0.5);
                    restored.push(i as f64 * 0.5);
                    assert_eq!(restored.sorted, w.sorted);
                    assert_eq!(restored.arrival_values(), w.arrival_values());
                }
            }
        }
    }

    #[test]
    fn rolling_mean_tracks_window() {
        let mut w = RollingWindow::new(2);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.mean(), Some(3.0));
        w.push(8.0);
        assert_eq!(w.mean(), Some(6.0));
    }
}
