//! Data collection and pre-processing (§IV-A of the paper).
//!
//! Production PinSQL ships query logs through LogStore/Kafka/Flink and
//! aggregates them into per-template time series at 1-second and 1-minute
//! granularities. This crate is the aggregation half of the in-process
//! substitute (the transport half is the engine's `PEVT` wire →
//! `IngestSink`, which feeds [`IncrementalAggregator`] one event at a
//! time):
//!
//! * [`catalog`] — the template catalog: `SqlId → (text, kind, tables,
//!   contributing specs)`, built from workload specs (structurally equal
//!   SQL from different services folds into one template, as in MySQL
//!   digests);
//! * [`aggregate`] — batch aggregation of a collection window into
//!   [`CaseData`]: per-template `#execution`, total response time, and
//!   examined-rows series plus the raw records PinSQL's active-session
//!   estimator needs;
//! * [`cellstore`] — the per-second, per-template cell rows behind the
//!   incremental aggregator: packed rows and one shared write index;
//! * [`history`] — the long-horizon per-template 1-minute `#execution`
//!   store used by history-trend verification (1/3/7 days back);
//! * [`incremental`] — the online aggregation engine: folds a
//!   [`TelemetryEvent`](pinsql_dbsim::TelemetryEvent) stream into four
//!   bounded state components (`records`, `cells`, `metrics`, `minutes`:
//!   one private module each, owning its bytes, its eviction and its
//!   stretch of the `PSNP` body), feeds the history store in-line, and
//!   re-assembles a batch-bit-identical [`CaseData`] snapshot for any
//!   retained window. Its bounded retention is what stands in for the
//!   paper's three-day LogStore.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod catalog;
pub mod cellstore;
mod cells;
pub mod history;
pub mod incremental;
mod metrics;
mod minutes;
mod records;

pub use aggregate::{aggregate_case, CaseData, TemplateData, TemplateSeries};
pub use records::RecordView;
pub use catalog::{TemplateCatalog, TemplateInfo};
pub use cellstore::CellStore;
pub use history::{HistorySeries, HistoryStore};
pub use incremental::{IncrementalAggregator, IncrementalConfig, IngestStats};
