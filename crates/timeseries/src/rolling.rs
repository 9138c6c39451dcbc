//! Rolling robust statistics for streaming anomaly detection.
//!
//! The Basic Perception Layer (§IV-B) watches each performance metric
//! round-the-clock. Its detectors need, at every step, a robust estimate of
//! the recent baseline — we provide a rolling median / MAD (median absolute
//! deviation) window, plus a simple rolling mean/std for cheap callers.
//!
//! The windows here are small (tens to hundreds of samples), so the window
//! keeps its contents in a sorted buffer: `O(w)` per step via binary
//! search + shift, which comfortably beats fancier structures at these sizes.
//! [`RollingWindow::median_mad`] reads the median straight off that buffer
//! and selects the MAD in `O(log w)` ([`crate::kernels::mad_of_sorted`]);
//! the collect-and-sort formulation it replaced is this module's test
//! oracle, bit for bit.

use crate::kernels;

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

    /// Median and MAD (median absolute deviation around the median);
    /// `None` when empty.
    ///
    /// Selects the order statistics straight from the maintained sorted
    /// buffer in `O(log w)` without allocating — bit-identical to the
    /// allocate-and-sort `median` / `mad` oracle in this module's tests.
    /// No MAD floor is applied here; detector layers add their own so that
    /// flat baselines don't produce infinite z-scores.
    pub fn median_mad(&self) -> Option<(f64, f64)> {
        let med = kernels::median_of_sorted(&self.sorted)?;
        Some((med, kernels::mad_of_sorted(&self.sorted, med)))
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

/// The allocate-and-sort oracle [`RollingWindow::median_mad`] is held to.
#[cfg(test)]
impl RollingWindow {
    /// Median of the current contents; `None` when empty.
    pub(crate) fn median(&self) -> Option<f64> {
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

    /// Median absolute deviation around the median: collect the
    /// deviations, sort, index the middle; `None` when empty.
    pub(crate) fn mad(&self) -> Option<f64> {
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
    use pinsql_workload::rng::{RngExt, StdRng};

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

    /// One seed's stream, by shape: random, out of order (ascending,
    /// descending or shuffled), degraded (dropped, duplicated and spiked
    /// samples), constant, and finite values with one `+inf` and one
    /// `-inf` — placed where a window of at least three keeps its median
    /// finite, the only case the detector feeds it.
    fn stream(seed: u64, rng: &mut StdRng) -> (&'static str, Vec<f64>) {
        match seed % 5 {
            0 => ("random", (0..200).map(|_| (rng.random::<f64>() - 0.5) * 1e3).collect()),
            1 => {
                let mut v: Vec<f64> = (0..150).map(|_| rng.random::<f64>() * 100.0).collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                match rng.random_range(0..3usize) {
                    0 => ("ascending", v),
                    1 => ("descending", v.into_iter().rev().collect()),
                    _ => {
                        for i in (1..v.len()).rev() {
                            v.swap(i, rng.random_range(0..i + 1));
                        }
                        ("shuffled", v)
                    }
                }
            }
            2 => {
                let (mut v, mut last) = (Vec::new(), 10.0);
                for t in 0..300 {
                    let base = 10.0 + (t as f64 / 20.0).sin() * 2.0 + rng.random::<f64>();
                    match rng.random_range(0..10usize) {
                        0 => continue,
                        1 => v.extend([last, last]),
                        2 => v.push(base * 50.0),
                        _ => v.push(base),
                    }
                    last = base;
                }
                ("degraded", v)
            }
            3 => {
                let value = [0.0, -0.0, 1.0, -273.15, 1e300][rng.random_range(0..5usize)];
                ("constant", vec![value; 40])
            }
            _ => {
                let mut v: Vec<f64> = (0..40).map(|_| rng.random_range(0..50usize) as f64).collect();
                let up = 2 + rng.random_range(0..38usize);
                let mut down = 2 + rng.random_range(0..37usize);
                if down >= up {
                    down += 1;
                }
                v[up] = f64::INFINITY;
                v[down] = f64::NEG_INFINITY;
                ("infinities", v)
            }
        }
    }

    /// `median_mad()` against the allocate-and-sort `median()` / `mad()`
    /// after every push, bitwise, over 320 seeded streams of every shape.
    #[test]
    fn median_mad_kernels_are_bit_identical() {
        pinsql_testkit::sweep(0..320, |seed, rng| {
            let (shape, xs) = stream(seed, rng);
            let capacity = 3 + rng.random_range(0..62usize);
            let mut w = RollingWindow::new(capacity);
            assert_eq!(w.median_mad(), None, "empty window");
            for (i, &x) in xs.iter().enumerate() {
                w.push(x);
                let (med, mad) = w.median_mad().expect("non-empty window");
                let (oracle_med, oracle_mad) = (w.median().unwrap(), w.mad().unwrap());
                assert_eq!(
                    (med.to_bits(), mad.to_bits()),
                    (oracle_med.to_bits(), oracle_mad.to_bits()),
                    "{shape}, capacity {capacity}, step {i}: \
                     kernel ({med}, {mad}) vs oracle ({oracle_med}, {oracle_mad})"
                );
                if shape == "constant" {
                    assert_eq!(med.to_bits(), x.to_bits(), "constant median");
                    assert_eq!(mad, 0.0, "constant MAD");
                }
            }
        });
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
