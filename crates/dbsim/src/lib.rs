//! Discrete-event cloud database instance simulator.
//!
//! The paper's evaluation runs against Alibaba RDS MySQL instances; this
//! crate is the substitute substrate (see DESIGN.md). It reproduces the
//! *signals PinSQL consumes* — per-query log records and per-second
//! instance metrics — from first principles:
//!
//! * [`ps`] — processor-sharing resources (CPU, IO) with the virtual-time
//!   formulation: `n` concurrent jobs each progress at rate
//!   `min(1, capacity/n)`;
//! * [`locks`] — a strict-FIFO metadata-lock manager per table (so a
//!   waiting `ALTER TABLE` piles every later statement up behind it, the
//!   paper's category-3(i) anomaly) and shared/exclusive row-slot locks
//!   (category-3(ii));
//! * [`engine`] — the one query lifecycle (MDL → row locks → CPU phase →
//!   IO phase → release) and its open-loop driver: arrivals through
//!   admission, completions emitted as [`QueryRecord`]s;
//! * [`probe`] — the `SHOW STATUS`-style active-session probe taken at a
//!   *uniformly random sub-second instant* each second (Fig. 3's `t3`),
//!   which is exactly the ambiguity §IV-C's bucket estimation resolves;
//! * [`metrics`] — per-second instance metrics (cpu/iops utilization,
//!   active session, lock waits);
//! * [`telemetry`] — the unified [`TelemetryEvent`] stream (query record |
//!   metric sample | clock tick) that the online collector, detectors, and
//!   fleet engine consume;
//! * [`closedloop`] — the second driver of the same lifecycle: N clients
//!   issuing back-to-back queries, for the Table IV Performance-Schema
//!   overhead study;
//! * [`config`] — instance sizing and the Performance-Schema overhead
//!   model.

#![forbid(unsafe_code)]

pub mod closedloop;
pub mod config;
pub mod engine;
mod flight;
pub mod locks;
pub mod metrics;
pub mod ordf64;
pub mod probe;
pub mod ps;
pub mod record;
pub mod telemetry;
pub mod wire;

pub use closedloop::{run_closed_loop, ClosedLoopConfig, ClosedLoopResult};
pub use config::{PfsConfig, SimConfig};
pub use engine::{run_open_loop, SimOutput};
pub use metrics::InstanceMetrics;
pub use record::QueryRecord;
pub use telemetry::{interleave, query_run, second_of, MetricsSample, TelemetryEvent};
pub use wire::{decode_event, encode_event};
