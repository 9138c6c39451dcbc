//! The online fleet engine (the production deployment shape of §VII).
//!
//! Production PinSQL is not a batch job: collectors on every RDS instance
//! publish query logs and metrics continuously, a streaming layer folds
//! them into per-template aggregates, detectors watch the metric streams,
//! and diagnosis fires when an anomaly case closes. This crate assembles
//! the online counterparts grown in the lower layers into that loop:
//!
//! * [`instance`] — [`OnlineInstance`]: one database instance's online
//!   pipeline. A [`TelemetryEvent`](pinsql_dbsim::TelemetryEvent) stream
//!   drives the incremental collector (ring-buffered cells, in-line
//!   history) and the online detector bank; when the case closes, the
//!   window is selected, a batch-bit-identical `CaseData` snapshot is cut,
//!   and the case is labelled.
//! * [`daemon`] — [`FleetDaemon`] / [`FleetServer`]: the one shard
//!   executor. The agent shards N instances' event streams across scoped
//!   ingestion workers (each a private time-ordered k-way merge over a
//!   disjoint set of instances), keeps the pipelines live between
//!   event-time watermarks, and on `finish` closes every case and fans
//!   diagnosis out with the deterministic `par_map` primitive. Checkpoint,
//!   resume, live reshard, config push and graceful restart are all the
//!   same quiesce → snapshot → reseat primitive. The server control plane
//!   steers the agent exclusively through the typed `PCTL` wire
//!   ([`control`]) — versioned config pushes ([`FleetDelta`] under a
//!   [`pinsql::ConfigEpoch`]), drains, restarts, and O(regions) health
//!   rollups. A daemon that finishes at config `F` is byte-identical to
//!   the batch pipeline under `F`, whatever happened on the way.
//! * [`fleet`] — the run's vocabulary ([`FleetConfig`],
//!   [`FleetCheckpoint`], [`FleetReport`] / [`FleetRun`]) and
//!   [`FleetEngine`], whose one run shape (`run_full`) is a daemon
//!   spawned and finished. Reshards, checkpoints, resumes and config
//!   pushes drive the daemon itself: it is the engine's only front end.
//! * [`snapshot`] — [`InstanceSnapshot`]: the versioned binary checkpoint
//!   of one instance's entire online state (aggregator rings, history,
//!   detector segments), the blob the reseat primitive moves. Malformed
//!   blobs fail with typed errors, never panics.
//! * [`transport`] / [`wire`] — the `PEVT` ingest wire: a source streams
//!   framed event batches to an [`IngestSink`] hosting a hollow daemon,
//!   under credit backpressure and exactly-once reconnect resume.
//!
//! ## Replay equivalence (the non-negotiable invariant)
//!
//! For any scenario, feeding its materialized event stream through the
//! online path yields a `Diagnosis` **bit-identical** to the batch path —
//! same golden corpus, any parallelism, any execution path. See
//! `replay_diagnose` and the `equivalence` matrix at the workspace root.

#![forbid(unsafe_code)]

pub mod control;
pub mod daemon;
pub mod fleet;
pub mod instance;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use control::{
    ControlMsg, ControlResp, DaemonState, FleetDelta, CONTROL_HEADER_LEN, CONTROL_MAGIC,
    CONTROL_VERSION,
};
pub use daemon::{ControlError, FleetDaemon, FleetServer};
pub use fleet::{
    FleetCheckpoint, FleetConfig, FleetEngine, FleetReport, FleetRun, InstanceOutcome,
};
pub use instance::{replay_diagnose, OnlineInstance};
pub use snapshot::{InstanceSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use transport::{
    pipe_pair, plan_frames, recv_hello, run_source, serve_agent, ByteConn, IngestSink, PipeConn,
    RegionServer, SourcePlan, SourceStats, TcpConn, TransportError,
};
pub use wire::{EventFrame, EVENT_HEADER_LEN, EVENT_MAGIC, EVENT_VERSION};
