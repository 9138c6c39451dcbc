//! Deterministic observability for the online fleet engine.
//!
//! Production PinSQL (§VII) runs unattended over hundreds of instances;
//! when a fleet stalls, the first question is *where the time goes* and
//! *whether the pipeline is healthy* — without perturbing the diagnosis
//! itself. This crate is that layer, built around three hard constraints:
//!
//! 1. **Statically zero-cost when off.** Instrumented code is generic
//!    over [`Observer`]; the default [`NoopObserver`] is a ZST whose
//!    associated `const ENABLED: bool = false` guards every call site, so
//!    monomorphization dead-strips the entire layer — no branch, no time
//!    read, no atomic — from the uninstrumented build. The workspace's
//!    `obs_smoke` suite guards this.
//! 2. **Provably inert when on.** Observers only *watch*: they never
//!    touch pipeline data, so diagnoses are byte-identical with recording
//!    enabled or disabled, on every execution path (the `equivalence`
//!    matrix's observer axis pins this against the golden corpus).
//! 3. **Mergeable across threads.** Stage latencies land in log2-bucketed
//!    [`LatencyHistogram`]s and counters are plain monotone sums, so
//!    per-shard registries merge associatively and commutatively
//!    (`merge_props` pins this) and a fleet-level roll-up is exact.
//!
//! What the layer captures:
//!
//! * [`Stage`] **spans** — one per pipeline stage (ingest merge, cell
//!   fold, detector step, window cut, session estimation, H-SQL, R-SQL,
//!   snapshot, reshard, config, restart, ingest wire), each feeding a per-stage histogram and a capped trace-event
//!   ring for chrome-trace export ([`export::chrome_trace`]).
//! * [`Counter`]s / [`Gauge`]s — monotone pipeline counters (events,
//!   queries, drops, evictions, cases) and resident-state gauges (queue
//!   depths, templates tracked).
//! * [`HealthSnapshot`] — a cheap point-in-time health read of one
//!   instance, aggregated fleet-wide into [`FleetHealth`].

#![forbid(unsafe_code)]

pub mod export;
mod health;
mod hist;
mod observer;
mod registry;

pub use health::{FleetHealth, FleetRollup, HealthRollup, HealthSnapshot, RegionRollup};
pub use hist::LatencyHistogram;
pub use observer::{NoopObserver, Observer, RecordingObserver};
pub use registry::{Registry, TraceEvent};

/// One pipeline stage a span can cover, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// One shard's whole k-way merge loop over its instance slice.
    IngestMerge,
    /// Folding telemetry into the incremental aggregator (scalar event or
    /// chunked same-second query run).
    CellFold,
    /// Driving the online detector bank with one metrics sample.
    DetectorStep,
    /// Case close: window selection plus the `CaseData` snapshot cut.
    WindowCut,
    /// Just the `CaseData` snapshot cut — assembling the retained rings,
    /// per-template minute rows included, into the diagnosis input. A
    /// sub-span of [`WindowCut`](Stage::WindowCut).
    CaseCut,
    /// §IV-C individual active-session estimation.
    SessionEstimate,
    /// §V H-SQL impact ranking.
    Hsql,
    /// §VI R-SQL clustering, correlation, and history verification.
    Rsql,
    /// Serializing one instance's online state into a checkpoint blob.
    SnapshotWrite,
    /// Rebuilding one instance's online state from a checkpoint blob.
    SnapshotRestore,
    /// One reshard handoff: quiesce, snapshot the fleet, re-seat every
    /// instance on its new shard.
    Reshard,
    /// One daemon config push: apply the delta in place at the watermark
    /// (no snapshot is written; the pipelines stay live).
    ConfigApply,
    /// One graceful daemon restart: drain, serialize, rebuild the fleet
    /// from bytes.
    DaemonRestart,
    /// Decoding and applying one `PEVT` ingest frame at the sink (batch
    /// buffering, watermark folds, ack minting).
    IngestWire,
}

impl Stage {
    /// All stages, pipeline order (index = discriminant).
    pub const ALL: [Stage; 14] = [
        Stage::IngestMerge,
        Stage::CellFold,
        Stage::DetectorStep,
        Stage::WindowCut,
        Stage::CaseCut,
        Stage::SessionEstimate,
        Stage::Hsql,
        Stage::Rsql,
        Stage::SnapshotWrite,
        Stage::SnapshotRestore,
        Stage::Reshard,
        Stage::ConfigApply,
        Stage::DaemonRestart,
        Stage::IngestWire,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys, chrome-trace event names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestMerge => "ingest_merge",
            Stage::CellFold => "cell_fold",
            Stage::DetectorStep => "detector_step",
            Stage::WindowCut => "window_cut",
            Stage::CaseCut => "case_cut",
            Stage::SessionEstimate => "session_estimate",
            Stage::Hsql => "hsql_rank",
            Stage::Rsql => "rsql_identify",
            Stage::SnapshotWrite => "snapshot_write",
            Stage::SnapshotRestore => "snapshot_restore",
            Stage::Reshard => "reshard",
            Stage::ConfigApply => "config_apply",
            Stage::DaemonRestart => "daemon_restart",
            Stage::IngestWire => "ingest_wire",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A monotone counter. Merging registries sums them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Telemetry events ingested (all variants).
    EventsIngested,
    /// Query records folded into cells.
    QueriesIngested,
    /// Records dropped for non-finite fields.
    MalformedDropped,
    /// Events behind the retention horizon, dropped on arrival.
    LateDropped,
    /// Per-second cell rows materialized in the ring.
    CellsFolded,
    /// Cells, records, and metric samples evicted by retention.
    RetentionEvictions,
    /// Complete minutes folded into the in-line history feed.
    HistoryMinutes,
    /// Detector-bank transitions into an open anomalous segment.
    CasesOpened,
    /// Cases closed into a labelled `CaseData`.
    CasesClosed,
    /// Features closed by the detector bank.
    FeaturesClosed,
    /// Instance checkpoints serialized.
    SnapshotsWritten,
    /// Instances rebuilt from a checkpoint.
    SnapshotsRestored,
    /// Total serialized checkpoint bytes.
    SnapshotBytes,
    /// Instance handoffs performed by reshard steps (instances moved to a
    /// *different* shard; an instance that keeps its shard is not counted).
    InstancesResharded,
    /// Config pushes accepted and applied by the daemon.
    ConfigPushes,
    /// Config pushes rejected (stale epoch, invalid delta, wrong state).
    ConfigRejected,
    /// Graceful daemon restarts completed.
    DaemonRestarts,
    /// Control-wire frames decoded by the agent.
    ControlFrames,
    /// `PEVT` ingest-wire frames decoded by the sink.
    EventFrames,
    /// Telemetry events that arrived over the ingest wire.
    EventsWired,
    /// Source reconnects resumed from a sink `Hello` (the unacked window
    /// was replayed).
    TransportResumes,
}

impl Counter {
    pub const ALL: [Counter; 21] = [
        Counter::EventsIngested,
        Counter::QueriesIngested,
        Counter::MalformedDropped,
        Counter::LateDropped,
        Counter::CellsFolded,
        Counter::RetentionEvictions,
        Counter::HistoryMinutes,
        Counter::CasesOpened,
        Counter::CasesClosed,
        Counter::FeaturesClosed,
        Counter::SnapshotsWritten,
        Counter::SnapshotsRestored,
        Counter::SnapshotBytes,
        Counter::InstancesResharded,
        Counter::ConfigPushes,
        Counter::ConfigRejected,
        Counter::DaemonRestarts,
        Counter::ControlFrames,
        Counter::EventFrames,
        Counter::EventsWired,
        Counter::TransportResumes,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsIngested => "events_ingested",
            Counter::QueriesIngested => "queries_ingested",
            Counter::MalformedDropped => "malformed_dropped",
            Counter::LateDropped => "late_dropped",
            Counter::CellsFolded => "cells_folded",
            Counter::RetentionEvictions => "retention_evictions",
            Counter::HistoryMinutes => "history_minutes",
            Counter::CasesOpened => "cases_opened",
            Counter::CasesClosed => "cases_closed",
            Counter::FeaturesClosed => "features_closed",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::SnapshotsRestored => "snapshots_restored",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::InstancesResharded => "instances_resharded",
            Counter::ConfigPushes => "config_pushes",
            Counter::ConfigRejected => "config_rejected",
            Counter::DaemonRestarts => "daemon_restarts",
            Counter::ControlFrames => "control_frames",
            Counter::EventFrames => "event_frames",
            Counter::EventsWired => "events_wired",
            Counter::TransportResumes => "transport_resumes",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A resident-state gauge. Merging registries keeps the maximum — the
/// fleet-level value of a queue-depth gauge is its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gauge {
    /// Per-second cell rows currently resident (queue depth).
    CellSeconds,
    /// Raw records currently retained (queue depth).
    RecordsResident,
    /// Metric samples currently retained (queue depth).
    MetricSeconds,
    /// Templates the catalog tracks.
    TemplatesTracked,
}

impl Gauge {
    pub const ALL: [Gauge; 4] = [
        Gauge::CellSeconds,
        Gauge::RecordsResident,
        Gauge::MetricSeconds,
        Gauge::TemplatesTracked,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::CellSeconds => "cell_seconds",
            Gauge::RecordsResident => "records_resident",
            Gauge::MetricSeconds => "metric_seconds",
            Gauge::TemplatesTracked => "templates_tracked",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_tables_are_consistent() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.into_iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        // Names are unique across each table (they become JSON keys).
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        let mut cnames: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        cnames.sort_unstable();
        cnames.dedup();
        assert_eq!(cnames.len(), Counter::COUNT);
    }
}
