//! ADAC-like labelled anomaly-case generation.
//!
//! The paper evaluates on ADAC: 168 production anomaly cases with
//! DBA-labelled R-SQLs and H-SQLs. Production traces are not available, so
//! this crate generates cases with ground truth *by construction* (see
//! DESIGN.md):
//!
//! * [`gen`] — base workloads shaped like the paper's Fig. 4: independent
//!   businesses, each a microservice DAG over its own tables, with
//!   correlated diurnal traffic trends;
//! * [`inject`] — the three R-SQL categories of §II, as four concrete
//!   injectors: business spike (category 1), poor SQL (category 2), and
//!   MDL-lock / row-lock streams (category 3);
//! * [`materialize`] — runs the database simulator on the injected
//!   workload and emits its telemetry as the time-ordered event stream
//!   the online engine ingests ([`materialize::materialize_events`], or
//!   [`materialize::telemetry_events`] over telemetry already simulated);
//!   labels the case the engine cuts ([`LabeledCase::new`]: injected
//!   templates = R-SQLs; templates whose *true* per-second session
//!   inflates during the anomaly = H-SQLs);
//! * [`history`] — synthesizes the per-template 1-minute execution history
//!   for the 1/3/7-day look-back from the *clean* workload's expected
//!   rates (optionally replaying the anomaly in history, for tests of the
//!   recurring-spike rejection rule);
//! * [`perturb`] — the telemetry-chaos layer: seeded post-hoc degradation
//!   of simulated telemetry (drop/duplicate/jitter/skew/reorder log
//!   records, blank metric seconds), plus negative (no-anomaly) and
//!   overlapping-anomaly scenario construction via [`inject_none`] /
//!   [`inject_many`]. Degradation changes what the pipeline observes,
//!   never the ground truth.

#![forbid(unsafe_code)]

pub mod gen;
pub mod history;
pub mod inject;
pub mod materialize;
pub mod perturb;

pub use gen::{generate_base, ScenarioConfig};
pub use history::synthesize_history;
pub use inject::{inject, inject_many, inject_none, AnomalyKind, Scenario};
pub use materialize::{
    label_truth, materialize_events, prepare_telemetry, simulate_telemetry, telemetry_events,
    GroundTruth, LabeledCase,
};
pub use perturb::{
    perturb_log, perturb_metrics, perturb_telemetry, PerturbConfig, PerturbStats,
};
