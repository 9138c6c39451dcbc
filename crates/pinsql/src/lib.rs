//! PinSQL — pinpointing root-cause SQL templates for cloud-database
//! performance anomalies (Liu et al., ICDE 2022).
//!
//! The library follows the anomaly propagation chain the paper introduces:
//!
//! ```text
//! R-SQLs  ──affect──▶  H-SQLs  ──inflate──▶  active session  ──▶ detector
//! ```
//!
//! and walks it backwards once an anomaly case is detected:
//!
//! 1. [`session_estimate`] (§IV-C) — estimate each template's *individual
//!    active session* from query logs alone, using the bucket trick to
//!    localize the unknown `SHOW STATUS` probe instant;
//! 2. [`hsql`] (§V) — rank templates by a fused impact score
//!    (trend-level + scale-level + scale-trend-level) to find the
//!    High-impact SQLs that directly drive the session anomaly;
//! 3. [`rsql`] (§VI) — cluster templates by execution-trend correlation
//!    (business clusters), rank clusters by H-SQL impact, select clusters
//!    by the cumulative threshold, verify candidates against 1/3/7-day
//!    history, and rank the surviving Root-cause SQLs;
//! 4. [`repair`] (§VII) — suggest/execute throttling, query optimization,
//!    or autoscale actions on the pinpointed R-SQLs.
//!
//! [`pipeline::PinSql`] ties the stages together and reports per-stage
//! wall-clock timings (the Table I `Time` column).

#![forbid(unsafe_code)]

pub mod config;
pub mod hsql;
pub mod pipeline;
pub mod repair;
pub mod report;
pub mod rsql;
pub mod session_estimate;

pub use config::{Ablation, ConfigEpoch, EstimatorKind, PinSqlConfig, PinSqlDelta, TransportPolicy};
pub use hsql::{rank_hsqls, HsqlRanking};
pub use pipeline::{Diagnosis, PinSql, RankedTemplate, StageTimings};
pub use repair::{suggest_actions, RepairAction, RepairConfig, RepairRule, SuggestedAction};
pub use report::{render_report, ReportOptions};
pub use rsql::{identify_rsqls, RsqlOutcome};
pub use session_estimate::{estimate_sessions, SessionEstimates};
