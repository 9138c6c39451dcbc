//! Evaluation harness: metrics, methods, case sets, and one driver per
//! table/figure of the paper (see DESIGN.md's per-experiment index).
//!
//! * [`metrics`] — Hits@k and MRR exactly as §VIII-A defines them (the
//!   "correctly found template" is the first ranked template that appears
//!   in the annotated set);
//! * [`methods`] — the systems under evaluation: PinSQL (with optional
//!   ablation) and the Top-SQL baselines;
//! * [`caseset`] — reproducible ADAC-like case-set generation (round-robin
//!   over the four anomaly kinds, one seed per case);
//! * [`experiments`] — drivers that regenerate every table and figure:
//!   Table I (overall), Fig. 6 (ablations), Fig. 7 (scalability), Fig. 8
//!   (repair case study), Table II (optimization gains), Table III
//!   (session estimation), Table IV (Performance-Schema overhead), plus
//!   the robustness sweep (accuracy vs. telemetry-degradation intensity,
//!   with negative-case false-positive curves).

#![forbid(unsafe_code)]

pub mod caseset;
pub mod experiments;
pub mod methods;
pub mod metrics;

pub use caseset::{build_case, build_case_with, build_cases_par, CaseSetConfig};
pub use methods::{rank_with, split_parallelism, Method, Rankings};
pub use metrics::{first_hit_rank, hits_at_k, mean_reciprocal_rank, RankSummary};
