//! Time-series substrate for the PinSQL reproduction.
//!
//! PinSQL (Liu et al., ICDE 2022) reasons about database performance anomalies
//! entirely through fixed-interval time series: per-instance performance
//! metrics and per-SQL-template metric sequences. This crate provides the
//! shared machinery every higher layer builds on:
//!
//! * [`TimeSeries`] — a fixed-interval sequence of `f64` observations with a
//!   start timestamp, addressable either by index or by timestamp
//!   (Definition II.1 of the paper).
//! * [`stats`] — means, variances, covariance, Pearson correlation, the
//!   *weighted* Pearson correlation used by the trend-level score (§V), and
//!   min-max normalization used by the scale-level score.
//! * [`weights`] — the sigmoid-based anomaly-window weight function
//!   `W_t = σ((t-a_s)/k_s) + σ((a_e-t)/k_s) − 1` (Eq. 1).
//! * [`outlier`] — Tukey's rule, used by the history-trend verification step
//!   (§VI) to decide whether a template's execution count is anomalous.
//! * [`rolling`] — rolling robust statistics (median / MAD / quantiles) used
//!   by the anomaly-feature detectors in the `pinsql-detect` crate.
//! * [`kernels`] — unrolled slice kernels (sum / sumsq / dot) and the
//!   selection-based `O(log w)` rolling median/MAD.
//! * [`graph`] — correlation graphs and connected components (union-find),
//!   used by SQL-template clustering (§VI).
//! * [`matrix`] — the [`NormalizedMatrix`] correlation kernel: z-scored,
//!   length-aligned contiguous rows built once per case, so pairwise
//!   Pearson degrades to a dot product.
//! * [`par`] — deterministic scoped-thread fan-out ([`par_map`]) used to
//!   parallelize the embarrassingly parallel diagnosis loops.
//! * [`fxhash`] — a seedless multiply-rotate hasher ([`FxHashMap`]) for
//!   the internal integer-keyed maps on ingest hot paths, where SipHash's
//!   DoS resistance buys nothing.
//! * [`resample`] — aggregation between the 1-second and 1-minute
//!   granularities the collector maintains (§IV-A).
//!
//! Everything here is deterministic and allocation-conscious; the hot paths
//! (pairwise correlation, weighted covariance) are written against slices so
//! callers can pre-normalize once and reuse buffers.

#![forbid(unsafe_code)]

pub mod fxhash;
pub mod graph;
pub mod kernels;
pub mod matrix;
pub mod outlier;
pub mod par;
pub mod resample;
pub mod rolling;
pub mod series;
pub mod stats;
pub mod weights;
pub mod wire;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use kernels::{CutKind, KernelKind};
pub use graph::{
    connected_components, connected_components_par, CorrelationGraph, UnionFind,
};
pub use matrix::NormalizedMatrix;
pub use par::{available_parallelism, effective_parallelism, par_flat_map, par_map};
pub use outlier::{tukey_fences, Quantiles, TukeyFences};
pub use series::TimeSeries;
pub use stats::{
    covariance, mean, mean_squared_error, min_max_normalize, pearson, variance,
    weighted_covariance, weighted_mean, weighted_pearson,
};
pub use weights::{sigmoid, sigmoid_window_weights};
pub use wire::{WireError, WireReader, WireWriter};
