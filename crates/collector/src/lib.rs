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
//! * [`cellstore`] — the per-second, per-template cell ring behind the
//!   incremental aggregator, with a direct-indexed dense-slab hot path and
//!   a hashed reference representation ([`CellStoreKind`]);
//! * [`history`] — the long-horizon per-template 1-minute `#execution`
//!   store used by history-trend verification (1/3/7 days back);
//! * [`incremental`] — the online aggregation engine: folds a
//!   [`TelemetryEvent`](pinsql_dbsim::TelemetryEvent) stream into
//!   ring-buffered per-second cells with bounded retention, feeds the
//!   history store in-line, and re-assembles a batch-bit-identical
//!   [`CaseData`] snapshot for any retained window. Its bounded
//!   retention is what stands in for the paper's three-day LogStore.

pub mod aggregate;
pub mod catalog;
pub mod cellstore;
pub mod history;
pub mod incremental;

pub use aggregate::{aggregate_case, CaseData, TemplateData, TemplateSeries, WindowCut};
pub use catalog::{TemplateCatalog, TemplateInfo};
pub use cellstore::{CellStore, CellStoreKind};
pub use history::{HistorySeries, HistoryStore};
pub use incremental::{IncrementalAggregator, IncrementalConfig, IngestStats};
