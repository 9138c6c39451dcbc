//! The [`Observer`] trait and its two implementations.
//!
//! Instrumented code is generic over `O: Observer` and guards every
//! instrumentation site with `if O::ENABLED { ... }`. For
//! [`NoopObserver`] that constant is `false`, so the guard folds to dead
//! code at monomorphization and the compiled hot path is byte-for-byte
//! the uninstrumented one. [`RecordingObserver`] shares one
//! [`Registry`] across clones/forks behind a mutex — recording is a
//! debugging mode, not a hot-path citizen, and pays for itself only when
//! switched on.

use crate::registry::Registry;
use crate::{Counter, Gauge, Stage};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A sink for spans, counters, and gauges. Implementations must be pure
/// observers: nothing they do may influence pipeline outputs (the
/// `equivalence` matrix's observer axis enforces this for the shipped ones).
pub trait Observer: Clone + Send + Sync {
    /// Statically known on/off switch; instrumentation sites guard on it.
    const ENABLED: bool;

    /// Monotonic nanoseconds since an arbitrary per-observer origin
    /// (shared across forks of one observer).
    fn now_ns(&self) -> u64;

    /// Records a completed span of `stage` over `[start_ns, end_ns]`.
    fn span(&self, stage: Stage, start_ns: u64, end_ns: u64);

    /// Adds to a monotone counter.
    fn add(&self, counter: Counter, delta: u64);

    /// Reports a resident-state gauge value (merge keeps the maximum).
    fn gauge(&self, gauge: Gauge, value: u64);

    /// A handle recording into the same state under a new lane label
    /// (one lane per shard / diagnosis worker in chrome-trace output).
    fn fork(&self, lane: &str) -> Self;
}

/// The default observer: a ZST that compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn span(&self, _stage: Stage, _start_ns: u64, _end_ns: u64) {}

    #[inline(always)]
    fn add(&self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _gauge: Gauge, _value: u64) {}

    #[inline(always)]
    fn fork(&self, _lane: &str) -> Self {
        NoopObserver
    }
}

#[derive(Debug)]
struct Shared {
    registry: Registry,
    /// Lane labels; a [`TraceEvent`](crate::TraceEvent)'s `lane` indexes
    /// this table.
    lanes: Vec<String>,
}

/// An observer that records everything into a shared [`Registry`].
///
/// Clones and [`fork`](Observer::fork)s share the registry and the time
/// origin; forks additionally register a new lane label so trace events
/// from different shards / workers land on distinct chrome-trace rows.
#[derive(Debug, Clone)]
pub struct RecordingObserver {
    origin: Instant,
    lane: u32,
    shared: Arc<Mutex<Shared>>,
}

impl Default for RecordingObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingObserver {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            lane: 0,
            shared: Arc::new(Mutex::new(Shared {
                registry: Registry::new(),
                lanes: vec!["main".to_string()],
            })),
        }
    }

    /// This handle's lane index.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// A copy of the recorded state so far.
    pub fn registry(&self) -> Registry {
        self.shared.lock().expect("obs registry poisoned").registry.clone()
    }

    /// The lane labels registered so far (index = lane id).
    pub fn lanes(&self) -> Vec<String> {
        self.shared.lock().expect("obs registry poisoned").lanes.clone()
    }
}

impl Observer for RecordingObserver {
    const ENABLED: bool = true;

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span(&self, stage: Stage, start_ns: u64, end_ns: u64) {
        self.shared
            .lock()
            .expect("obs registry poisoned")
            .registry
            .record_span(stage, self.lane, start_ns, end_ns);
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.shared.lock().expect("obs registry poisoned").registry.add(counter, delta);
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        self.shared.lock().expect("obs registry poisoned").registry.gauge(gauge, value);
    }

    fn fork(&self, lane: &str) -> Self {
        let mut shared = self.shared.lock().expect("obs registry poisoned");
        let id = shared.lanes.len() as u32;
        shared.lanes.push(lane.to_string());
        drop(shared);
        Self { origin: self.origin, lane: id, shared: Arc::clone(&self.shared) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates_across_forks() {
        let obs = RecordingObserver::new();
        let shard = obs.fork("shard0");
        let diag = obs.fork("diag0");
        obs.add(Counter::EventsIngested, 1);
        shard.add(Counter::EventsIngested, 2);
        let t0 = diag.now_ns();
        diag.span(Stage::Hsql, t0, diag.now_ns());
        shard.gauge(Gauge::RecordsResident, 42);

        let reg = obs.registry();
        assert_eq!(reg.counter(Counter::EventsIngested), 3);
        assert_eq!(reg.span_hist(Stage::Hsql).count(), 1);
        assert_eq!(reg.gauge_value(Gauge::RecordsResident), 42);
        assert_eq!(obs.lanes(), vec!["main", "shard0", "diag0"]);
        assert_eq!(reg.trace()[0].lane, diag.lane());
    }

    // The zero-cost contract is compile-time: the noop observer must
    // report disabled (and the recorder enabled) in every build.
    const _: () = assert!(!NoopObserver::ENABLED);
    const _: () = assert!(RecordingObserver::ENABLED);

    #[test]
    fn noop_is_inert_and_forkable() {
        let obs = NoopObserver;
        assert_eq!(obs.now_ns(), 0);
        let f = obs.fork("anything");
        f.span(Stage::CellFold, 0, 10);
        f.add(Counter::CasesClosed, 1);
        f.gauge(Gauge::CellSeconds, 9);
    }
}
