//! A z-scored, length-aligned, contiguous series matrix — the substrate
//! that turns pairwise Pearson correlation into a dot product.
//!
//! `pearson(x, y)` recomputes both series' means and norms on every call:
//! for the `O(N²)` pair loop of §VI template clustering that is
//! `O(N²·L)` *redundant* passes over the data. Building a
//! [`NormalizedMatrix`] once per case hoists the per-series moments out of
//! the pair loop entirely: each row is centered and scaled to unit norm,
//! so `pearson(x_i, x_j) == dot(row_i, row_j)` exactly, and the pair loop
//! degrades to `O(N²·L)` fused multiply-adds over one contiguous
//! allocation — cache-friendly, branch-free, and trivially splittable
//! across threads by row.
//!
//! Zero-variance rows (constant series) carry no trend information; they
//! are flagged invalid and every dot product involving them is defined as
//! `0.0`, matching [`crate::stats::pearson`]'s degenerate-input contract.
//! Rows containing non-finite samples are treated the same way: a NaN or
//! infinite sample poisons the whole centered row, so it is flagged
//! invalid rather than propagating garbage through the pair loop.

/// Row-major matrix of unit-norm centered series.
///
/// Built once per diagnosis case; all rows share one contiguous buffer and
/// a common length (input series are truncated to the shortest present,
/// like the pairwise `pearson` over common prefixes).
#[derive(Debug, Clone)]
pub struct NormalizedMatrix {
    /// `n_rows * row_len` values, row-major.
    data: Vec<f64>,
    row_len: usize,
    n_rows: usize,
    /// `false` for rows whose source series had (numerically) no variance
    /// or fewer than two samples.
    valid: Vec<bool>,
}

impl NormalizedMatrix {
    /// Builds the matrix from raw series: truncates every series to the
    /// shortest length present, centers it, and scales it to unit norm.
    pub fn from_series(series: &[&[f64]]) -> Self {
        let n_rows = series.len();
        let row_len = series.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut data = vec![0.0f64; n_rows * row_len];
        let mut valid = vec![false; n_rows];
        if row_len >= 2 {
            for (i, s) in series.iter().enumerate() {
                let row = &mut data[i * row_len..(i + 1) * row_len];
                let mean = s[..row_len].iter().sum::<f64>() / row_len as f64;
                let mut norm_sq = 0.0;
                for (d, &v) in row.iter_mut().zip(&s[..row_len]) {
                    let c = v - mean;
                    *d = c;
                    norm_sq += c * c;
                }
                let norm = norm_sq.sqrt();
                // A non-finite norm means the source row held NaN/Inf —
                // degenerate, exactly like zero variance. So is a constant
                // row whatever its magnitude: at 1e35 the rounded mean
                // misses the value by an ulp, and the "deviations" that
                // leaves dwarf any absolute epsilon.
                let constant = || s[..row_len].iter().all(|&v| v == s[0]);
                if norm.is_finite() && norm > f64::EPSILON && !constant() {
                    row.iter_mut().for_each(|v| *v /= norm);
                    valid[i] = true;
                }
            }
        }
        Self { data, row_len, n_rows, valid }
    }

    /// Number of rows (series).
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Common (aligned) series length.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// The normalized row `i`, or `None` when the source series was
    /// degenerate (constant or too short).
    pub fn row(&self, i: usize) -> Option<&[f64]> {
        if self.valid[i] {
            Some(&self.data[i * self.row_len..(i + 1) * self.row_len])
        } else {
            None
        }
    }

    /// True when row `i` carries trend information.
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid[i]
    }

    /// Pearson correlation of rows `i` and `j` as a plain dot product;
    /// `0.0` when either row is degenerate. Clamped to `[-1, 1]` so ulp
    /// overshoot on near-collinear rows cannot leak out of the Pearson
    /// range callers rely on.
    pub fn dot(&self, i: usize, j: usize) -> f64 {
        match (self.row(i), self.row(j)) {
            (Some(a), Some(b)) => dot_kernel(a, b).clamp(-1.0, 1.0),
            _ => 0.0,
        }
    }
}

/// The canonical deterministic dot kernel now lives with the other slice
/// kernels; re-exported here because the matrix is its defining consumer.
pub use crate::kernels::dot as dot_kernel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pearson;

    #[test]
    fn dot_matches_pearson() {
        let a = [1.0, 2.5, 3.0, 4.8, 5.0];
        let b = [2.0, 1.0, 4.0, 4.0, 6.5];
        let c = [9.0, 7.0, 5.0, 3.0, 1.0];
        let m = NormalizedMatrix::from_series(&[&a, &b, &c]);
        for (i, x) in [a, b, c].iter().enumerate() {
            for (j, y) in [a, b, c].iter().enumerate() {
                let expect = pearson(x, y);
                let got = m.dot(i, j);
                assert!((got - expect).abs() < 1e-12, "({i},{j}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn truncates_to_shortest_series() {
        let long = [1.0, 2.0, 3.0, 4.0, 100.0, -7.0];
        let short = [2.0, 4.0, 6.0, 8.0];
        let m = NormalizedMatrix::from_series(&[&long, &short]);
        assert_eq!(m.row_len(), 4);
        assert!((m.dot(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rows_are_invalid() {
        let flat = [3.0, 3.0, 3.0];
        let ramp = [1.0, 2.0, 3.0];
        let m = NormalizedMatrix::from_series(&[&flat, &ramp]);
        assert!(!m.is_valid(0));
        assert!(m.is_valid(1));
        assert!(m.row(0).is_none());
        assert_eq!(m.dot(0, 1), 0.0);
        assert!((m.dot(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let m = NormalizedMatrix::from_series(&[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let single = [5.0];
        let m = NormalizedMatrix::from_series(&[&single]);
        assert_eq!(m.len(), 1);
        assert!(!m.is_valid(0));
        assert_eq!(m.dot(0, 0), 0.0);
    }

    #[test]
    fn non_finite_rows_are_invalid() {
        let nan_row = [1.0, f64::NAN, 3.0];
        let inf_row = [1.0, f64::INFINITY, 3.0];
        let ramp = [1.0, 2.0, 3.0];
        let m = NormalizedMatrix::from_series(&[&nan_row, &inf_row, &ramp]);
        assert!(!m.is_valid(0));
        assert!(!m.is_valid(1));
        assert!(m.is_valid(2));
        for i in 0..3 {
            for j in 0..3 {
                let d = m.dot(i, j);
                assert!(d.is_finite(), "({i},{j}) produced {d}");
                assert!((-1.0..=1.0).contains(&d));
            }
        }
    }

    #[test]
    fn unit_norm_rows() {
        let a = [10.0, -4.0, 3.3, 8.0, 0.0];
        let m = NormalizedMatrix::from_series(&[&a]);
        let row = m.row(0).unwrap();
        let norm_sq: f64 = row.iter().map(|v| v * v).sum();
        assert!((norm_sq - 1.0).abs() < 1e-12);
        let mean: f64 = row.iter().sum::<f64>() / row.len() as f64;
        assert!(mean.abs() < 1e-12);
    }
}
