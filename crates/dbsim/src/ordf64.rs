//! A totally-ordered `f64` wrapper for use as a priority key.
//!
//! Simulation times and virtual service times are `f64` milliseconds; the
//! event queue and the processor-sharing job sets need them as ordered map
//! keys. `OrdF64` orders by `f64::total_cmp`, and construction asserts the
//! value is not NaN (a NaN event time is always a bug upstream).

/// A non-NaN `f64` with total ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a finite (or infinite, but not NaN) value.
    ///
    /// # Panics
    /// Panics on NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "NaN used as ordered key");
        Self(v)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        Self::new(v)
    }
}

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s: every bit of
/// a negative value flipped, only the sign bit of a positive one.
#[inline]
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Sorts `items` by `key` in [`f64::total_cmp`] order, equal keys kept in
/// their original order: the order a stable
/// `sort_by(|a, b| key(a).total_cmp(&key(b)))` gives. It sorts
/// `(total_order_key, index)` pairs, no two of which are equal, so an
/// unstable sort gives that order too, then gathers the items.
pub(crate) fn sort_by_total_key<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> f64) {
    let mut keyed: Vec<(u64, usize)> =
        items.iter().enumerate().map(|(i, item)| (total_order_key(key(item)), i)).collect();
    keyed.sort_unstable();
    let sorted = keyed.iter().map(|&(_, i)| items[i]).collect();
    *items = sorted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};

    /// Random keys, many of them equal or special (±0, ±∞, NaNs of both
    /// signs, subnormals), each tagged with its position: the keyed sort
    /// and the stable comparator sort agree element for element.
    #[test]
    fn keyed_sort_matches_the_stable_comparator_sort() {
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
        ];
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(0..200usize);
            let mut items: Vec<(f64, usize)> = (0..n)
                .map(|i| {
                    let v = match rng.random_range(0..3u32) {
                        0 => special[rng.random_range(0..special.len())],
                        1 => rng.random_range(0..8u32) as f64 * 0.5 - 2.0,
                        _ => (rng.random::<f64>() - 0.5) * 1e6,
                    };
                    (v, i)
                })
                .collect();
            let mut want = items.clone();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            sort_by_total_key(&mut items, |item| item.0);
            let bits =
                |v: &[(f64, usize)]| v.iter().map(|&(k, i)| (k.to_bits(), i)).collect::<Vec<_>>();
            assert_eq!(bits(&items), bits(&want), "seed {seed}");
        }
    }

    #[test]
    fn ordering_is_total_and_numeric() {
        let mut v = [OrdF64::new(3.0), OrdF64::new(-1.0), OrdF64::new(2.5)];
        v.sort();
        assert_eq!(v.iter().map(|x| x.get()).collect::<Vec<_>>(), vec![-1.0, 2.5, 3.0]);
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        // total_cmp semantics; irrelevant for simulation but documented.
        assert!(OrdF64::new(-0.0) < OrdF64::new(0.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = OrdF64::new(f64::NAN);
    }
}
