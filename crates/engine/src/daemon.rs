//! The fleet daemon: the one shard executor, resident between batches.
//!
//! Production PinSQL (§VII) runs one online pipeline per instance:
//! collectors stream, a streaming layer folds, diagnosis fires when a
//! case closes — and operators retune thresholds, move instances between
//! shards and bounce agents without losing a second of online state.
//! [`FleetDaemon`] is that shape, and it is the engine's
//! **only** front end and the only thing in this crate that spawns shard
//! workers. It takes telemetry, not scenarios to simulate: a static run
//! is `spawn` over the caller's streams + `finish`, a reshard is
//! `advance_to` + `reshard` between them, a crash drill is `checkpoint` on
//! one agent and `resume` + `finish` on the next.
//!
//! - **Agent** ([`FleetDaemon`]) — owns the live [`OnlineInstance`]s, the
//!   unconsumed stream tails and the instance → shard map.
//!   [`advance_to`](FleetDaemon::advance_to) folds each stream's prefix
//!   strictly before an event-time watermark — per shard a private
//!   time-ordered k-way merge over its instances, one shard's on the
//!   calling thread and each other's on a scoped worker — so every pause
//!   point is exact whatever the shard layout.
//!   [`finish`](FleetDaemon::finish) drains the tails, closes every case
//!   in its shard, reassembles by instance id and fans
//!   `PinSql::diagnose` out across the closed cases.
//! - **Control plane** ([`handle_frame`](FleetDaemon::handle_frame)) —
//!   every operation crosses the typed `PCTL` wire ([`crate::control`]) as
//!   an encoded frame and is answered with one: versioned config pushes,
//!   drains, restarts, stops, health queries. There is no side channel; the
//!   suites exercise the bytes a remote deployment would.
//!
//! ## One primitive: quiesce → snapshot → reseat
//!
//! At a watermark the fleet is quiesced. From there a **checkpoint**
//! ([`checkpoint`](FleetDaemon::checkpoint)) hands the per-instance
//! snapshots out; a **reshard** ([`reshard`](FleetDaemon::reshard)) and a
//! **graceful restart** each re-seat every instance through the full
//! untrusted snapshot path (serialize → [`InstanceSnapshot::from_bytes`]
//! → restore) and then change the shard map or nothing at all; a
//! **resume** ([`resume`](FleetDaemon::resume)) boots an agent from the
//! snapshots a checkpoint handed out. A **config push** moves no state.
//! A snapshot/restore boundary is behaviorally invisible and instances
//! are independent — no event of one can affect another's pipeline, and
//! every shard layout preserves each instance's own event order — so
//! cases and diagnoses are bit-identical for **any** `shards` / `fanout`,
//! any sequence of reshards, any checkpoint boundary and any restart
//! schedule.
//!
//! A config push is byte-identical to a cold start without a reseat because
//!
//! - **`δ_s`** and every [`pinsql::PinSqlDelta`] knob are only read when
//!   a case closes / diagnoses, after the final config is in place;
//! - **shards / fanout / regions** never touch per-instance state.
//!
//! So a daemon that ends at config `F` — however many pushes, reshards
//! and restarts it took — produces the same bytes as the batch oracle
//! under `F`. The `equivalence` matrix at the workspace root pins every
//! path against the golden corpus.

use crate::control::{ControlMsg, ControlResp, DaemonState, FleetDelta};
use crate::fleet::{
    contiguous_assignment, FleetCheckpoint, FleetConfig, FleetReport, FleetRun, InstanceOutcome,
};
use crate::instance::OnlineInstance;
use crate::snapshot::{self, InstanceSnapshot};
use pinsql::{ConfigEpoch, PinSql};
use pinsql_dbsim::TelemetryEvent;
use pinsql_obs::{
    Counter, FleetHealth, FleetRollup, HealthSnapshot, NoopObserver, Observer, Stage,
};
use pinsql_scenario::{LabeledCase, Scenario};
use pinsql_timeseries::par::par_map;
use pinsql_timeseries::WireError;

/// The resident agent: live pipelines plus the control-plane handler.
/// See the module docs for the lifecycle and equivalence contract.
#[derive(Debug)]
pub struct FleetDaemon<'a, O: Observer = NoopObserver> {
    cfg: FleetConfig,
    epoch: ConfigEpoch,
    state: DaemonState,
    scenarios: &'a [Scenario],
    /// Live pipelines, instance-id order — the daemon's whole point.
    instances: Vec<OnlineInstance<'a, O>>,
    /// Unconsumed stream tails, aligned with `instances`.
    streams: Vec<Vec<TelemetryEvent>>,
    /// `assignment[i]` = shard that folds instance `i`: the contiguous
    /// layout under `cfg.shards` until a [`reshard`](Self::reshard) says
    /// otherwise.
    assignment: Vec<usize>,
    /// Highest quiesce boundary folded so far (`i64::MIN` before any).
    watermark: i64,
    /// Completed ingest rounds, for observer lane naming.
    rounds: usize,
    restarts: u64,
    obs: O,
}

impl<'a> FleetDaemon<'a> {
    /// Boots a **hollow** agent: live pipelines, empty streams. Telemetry
    /// arrives later over the `PEVT` ingest wire
    /// ([`offer_events`](FleetDaemon::offer_events)) — the deployment
    /// shape behind [`crate::transport::IngestSink`].
    pub fn spawn_hollow(cfg: FleetConfig, scenarios: &'a [Scenario]) -> Self {
        Self::spawn_hollow_observed(cfg, scenarios, NoopObserver)
    }
}

impl<'a, O: Observer> FleetDaemon<'a, O> {
    /// Boots an agent: one live pipeline per scenario under `cfg`, with
    /// `streams[i]` seated on instance `i` through
    /// [`offer_events`](Self::offer_events), the `PEVT` wire's admission
    /// check, whose typed error a refused stream returns. Missing streams
    /// leave their instances hollow. A negative `cfg.delta_s` is refused
    /// as a typed `delta_s` mismatch, as a config push or a snapshot
    /// carrying one is. Each instance records on its own `inst{i}` lane,
    /// each ingest round on one `r{round}shard{s}` lane per shard, each
    /// diagnosis on `diag{i}`.
    ///
    /// # Panics
    /// Panics on an empty fleet or `cfg.shards == 0` / `cfg.regions == 0`
    /// (programmer errors, like [`crate::FleetEngine::new`]).
    pub fn spawn(
        cfg: FleetConfig,
        scenarios: &'a [Scenario],
        streams: Vec<Vec<TelemetryEvent>>,
        obs: O,
    ) -> Result<Self, WireError> {
        snapshot::check_delta_s(cfg.delta_s)?;
        let instances = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                OnlineInstance::with_observer(sc, cfg.delta_s, obs.fork(&format!("inst{i}")))
            })
            .collect();
        Self::boot(cfg, scenarios, obs, instances).seat(streams)
    }

    /// [`spawn_hollow`](FleetDaemon::spawn_hollow) under an explicit
    /// observer. Panics like `spawn`, and on a negative `cfg.delta_s`.
    pub fn spawn_hollow_observed(cfg: FleetConfig, scenarios: &'a [Scenario], obs: O) -> Self {
        Self::spawn(cfg, scenarios, Vec::new(), obs)
            .expect("a hollow agent refuses only a negative delta_s")
    }

    /// Boots an agent from a [`FleetCheckpoint`] — crash recovery: every
    /// instance is restored from its snapshot and re-tuned to `cfg`, the
    /// streams are seated as by [`spawn`](Self::spawn) and drop the
    /// prefix the checkpoint already covers, and the watermark starts at
    /// the checkpoint boundary, so [`finish`](Self::finish) replays only
    /// the tail. `cfg`'s layout need not match the one that cut the
    /// checkpoint.
    ///
    /// Errors if `cfg.delta_s` is negative, the checkpoint's fleet size
    /// differs, a snapshot fails to decode or belongs to another scenario,
    /// or a stream is refused; panics like `spawn`.
    pub fn resume(
        cfg: FleetConfig,
        scenarios: &'a [Scenario],
        streams: Vec<Vec<TelemetryEvent>>,
        checkpoint: &FleetCheckpoint,
        obs: O,
    ) -> Result<Self, WireError> {
        snapshot::check_delta_s(cfg.delta_s)?;
        let (held, n) = (checkpoint.snapshots.len(), scenarios.len());
        if held != n {
            let detail = format!("checkpoint holds {held} instances, fleet has {n}");
            return Err(WireError::Mismatch { what: "checkpoint fleet size", detail });
        }
        let instances = scenarios
            .iter()
            .zip(&checkpoint.snapshots)
            .enumerate()
            .map(|(i, (sc, snap))| {
                OnlineInstance::restore_with_observer(sc, snap, obs.fork(&format!("inst{i}")))
            })
            .collect::<Result<_, _>>()?;
        let mut daemon = Self::boot(cfg, scenarios, obs, instances).seat(streams)?;
        for stream in &mut daemon.streams {
            stream.drain(..prefix_len(stream, Some(checkpoint.at_second)));
        }
        daemon.tune_instances();
        daemon.watermark = checkpoint.at_second;
        Ok(daemon)
    }

    /// `Starting` covers the constructors; by here one live pipeline per
    /// instance is in hand, to be seated on the contiguous layout with
    /// empty streams.
    fn boot(
        cfg: FleetConfig,
        scenarios: &'a [Scenario],
        obs: O,
        instances: Vec<OnlineInstance<'a, O>>,
    ) -> Self {
        assert!(!scenarios.is_empty(), "fleet daemon needs at least one scenario");
        assert!(cfg.shards >= 1, "FleetConfig.shards must be >= 1");
        assert!(cfg.regions >= 1, "FleetConfig.regions must be >= 1");
        let n = scenarios.len();
        Self {
            epoch: ConfigEpoch::INITIAL,
            state: DaemonState::Running,
            scenarios,
            instances,
            streams: vec![Vec::new(); n],
            assignment: contiguous_assignment(n, cfg.shards.clamp(1, n)),
            watermark: i64::MIN,
            rounds: 0,
            restarts: 0,
            obs,
            cfg,
        }
    }

    /// Offers `streams[i]` to instance `i`.
    fn seat(mut self, streams: Vec<Vec<TelemetryEvent>>) -> Result<Self, WireError> {
        for (i, stream) in streams.into_iter().enumerate() {
            self.offer_events(i, stream)?;
        }
        Ok(self)
    }

    /// Appends telemetry to one instance's pending stream: a `PEVT`
    /// batch, or a whole stream a constructor seats. The events fold at
    /// the next [`advance_to`](FleetDaemon::advance_to) boundary.
    ///
    /// The inputs are untrusted (they may have crossed a process
    /// boundary): an unknown instance id, a batch whose finite event times
    /// would go backwards — the order the boundary split relies on — or a
    /// query naming a `spec` the instance's catalog does not hold
    /// comes back as a typed error and leaves the agent untouched.
    pub fn offer_events(
        &mut self,
        instance: usize,
        events: Vec<TelemetryEvent>,
    ) -> Result<(), WireError> {
        self.admit(instance, events).map(drop)
    }

    /// [`offer_events`](Self::offer_events), also returning the batch's
    /// latest tick second (`i64::MIN` without one) — everything the
    /// ingest sink needs to know about a batch, from the one pass over it
    /// that validates it.
    pub(crate) fn admit(
        &mut self,
        instance: usize,
        events: Vec<TelemetryEvent>,
    ) -> Result<i64, WireError> {
        if self.state != DaemonState::Running {
            return Err(WireError::Mismatch {
                what: "daemon state",
                detail: format!("events offered in state {}", self.state),
            });
        }
        let Some(stream) = self.streams.get_mut(instance) else {
            return Err(WireError::Mismatch {
                what: "event batch instance",
                detail: format!("instance {instance} outside fleet of {}", self.streams.len()),
            });
        };
        let n_specs = self.instances[instance].n_specs();
        // Nothing is behind negative infinity, so an empty stream admits
        // any first event. `last` is the latest finite time: a NaN or
        // infinite timestamp passes (the fold counts it as malformed) but
        // is never the time later events are held to, so a corrupt record
        // cannot wedge its stream (`prefix_len` splits on finite times only).
        let mut last = stream
            .iter()
            .rev()
            .map(TelemetryEvent::time_ms)
            .find(|t| t.is_finite())
            .unwrap_or(f64::NEG_INFINITY);
        let mut latest_tick = i64::MIN;
        for ev in &events {
            match ev {
                TelemetryEvent::Query(q) if q.spec.0 >= n_specs => {
                    return Err(WireError::Mismatch {
                        what: "event spec",
                        detail: format!(
                            "instance {instance} spec index {} out of range ({n_specs})",
                            q.spec.0
                        ),
                    });
                }
                TelemetryEvent::Tick { second } => latest_tick = latest_tick.max(*second),
                TelemetryEvent::Query(_) | TelemetryEvent::Metrics(_) => {}
            }
            let t = ev.time_ms();
            if !t.is_finite() {
                continue;
            }
            if t < last {
                return Err(WireError::Mismatch {
                    what: "event stream order",
                    detail: format!(
                        "instance {instance} event at {t}ms behind buffered tail {last}ms"
                    ),
                });
            }
            last = t;
        }
        stream.extend(events);
        Ok(latest_tick)
    }

    /// Events offered (by the wire or a constructor) but not yet
    /// folded by a boundary — the queue depth the ingest-wire credit
    /// window bounds.
    pub fn buffered_events(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// The agent's observer handle (for layers — like the ingest sink —
    /// that record alongside the daemon).
    pub(crate) fn obs(&self) -> &O {
        &self.obs
    }

    /// Fleet size (instances hosted).
    pub fn n_instances(&self) -> usize {
        self.instances.len()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DaemonState {
        self.state
    }

    /// Config epoch of the last accepted push ([`ConfigEpoch::INITIAL`]
    /// before any).
    pub fn epoch(&self) -> ConfigEpoch {
        self.epoch
    }

    /// The configuration currently in force.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Event-time watermark: every event strictly before it has folded.
    pub fn watermark(&self) -> i64 {
        self.watermark
    }

    /// Graceful restarts survived so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Data plane: folds every stream's prefix strictly before
    /// `boundary_s` (event time) across the sharded workers. Boundaries
    /// must be non-decreasing; a repeated boundary is a no-op.
    ///
    /// # Panics
    /// Panics when the agent is not `Running` (drain first, or restart),
    /// or when `boundary_s` moves backwards — both programmer errors.
    pub fn advance_to(&mut self, boundary_s: i64) {
        assert_eq!(
            self.state,
            DaemonState::Running,
            "advance_to requires a running agent (state: {})",
            self.state
        );
        assert!(
            boundary_s >= self.watermark,
            "advance_to boundary {boundary_s} behind watermark {}",
            self.watermark
        );
        self.ingest_prefix(Some(boundary_s));
    }

    /// Control plane entry point: one encoded `PCTL` frame in, one out.
    /// Malformed frames come back as [`ControlResp::Reject`] — decoding
    /// untrusted bytes never panics and never kills the agent.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Vec<u8> {
        if O::ENABLED {
            self.obs.add(Counter::ControlFrames, 1);
        }
        let resp = match ControlMsg::from_bytes(frame) {
            Ok(msg) => self.handle(msg),
            Err(e) => self.reject(format!("malformed control frame: {e}")),
        };
        resp.to_bytes()
    }

    /// [`handle_frame`](Self::handle_frame) on a decoded message (the
    /// in-process fast path; the wire suites use the framed form).
    pub fn handle(&mut self, msg: ControlMsg) -> ControlResp {
        match msg {
            ControlMsg::ConfigPush { epoch, delta } => self.config_push(epoch, &delta),
            ControlMsg::Drain { to_second } => self.drain(to_second),
            ControlMsg::Restart => self.restart(),
            ControlMsg::Stop => self.stop(),
            // Health is answerable in every state, Stopped included.
            ControlMsg::HealthQuery => {
                ControlResp::Rollup { epoch: self.epoch, rollup: self.rollup() }
            }
        }
    }

    /// The shard → region → fleet rollup tree over the live pipelines:
    /// instances map to regions contiguously, each region folds an exact
    /// [`pinsql_obs::HealthRollup`], the total is their merge.
    pub fn rollup(&self) -> FleetRollup {
        let snaps: Vec<HealthSnapshot> =
            self.instances.iter().map(OnlineInstance::health_snapshot).collect();
        region_rollup(&snaps, self.cfg.regions)
    }

    /// Quiesce → snapshot: freezes the whole fleet at the current
    /// watermark as a [`FleetCheckpoint`]. Persist the blobs, and after a
    /// crash [`resume`](Self::resume) replays only the tail. The agent
    /// itself is untouched.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        FleetCheckpoint {
            at_second: self.watermark,
            snapshots: self.instances.iter().map(OnlineInstance::snapshot).collect(),
        }
    }

    /// Live reshard at the current watermark: re-seats every instance
    /// through the snapshot path, then `assignment[i]` becomes the shard
    /// that folds instance `i`. Shard ids may form any layout — more
    /// shards, fewer, permutations; empty shards spawn no worker. The
    /// handoff is behaviorally invisible. Records a [`Stage::Reshard`]
    /// span and counts [`Counter::InstancesResharded`] for instances
    /// whose shard actually changed.
    ///
    /// Errors only if a snapshot fails to revalidate (in-memory
    /// corruption; the live pipelines and the map are left untouched).
    ///
    /// # Panics
    /// Panics when `assignment` does not cover the fleet, or names a shard
    /// id at or above the fleet size (a layout never needs more non-empty
    /// shards than instances) — both before anything is re-seated.
    pub fn reshard(&mut self, assignment: &[usize]) -> Result<(), WireError> {
        let n = self.instances.len();
        assert_eq!(
            assignment.len(),
            n,
            "reshard assignment covers {} instances, fleet has {n}",
            assignment.len()
        );
        if let Some((i, s)) = assignment.iter().enumerate().find(|(_, &s)| s >= n) {
            panic!("reshard assignment puts instance {i} on shard {s}, outside 0..{n}");
        }
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        self.reseat()?;
        if O::ENABLED {
            let moved = assignment.iter().zip(&self.assignment).filter(|(a, b)| a != b).count();
            self.obs.add(Counter::InstancesResharded, moved as u64);
        }
        self.assignment.copy_from_slice(assignment);
        if O::ENABLED {
            self.obs.span(Stage::Reshard, n0, self.obs.now_ns());
        }
        Ok(())
    }

    /// Tears the agent down into a full [`FleetRun`]: drains any
    /// remaining stream tails, closes every case in its shard, diagnoses,
    /// and rolls the report up under the **final** config and epoch. The
    /// result is byte-identical to the batch oracle under that config.
    pub fn finish(mut self) -> FleetRun {
        if self.state != DaemonState::Stopped {
            self.ingest_prefix(None);
            self.state = DaemonState::Stopped;
        }
        let instances = std::mem::take(&mut self.instances);
        let artifacts = on_shards(
            &self.assignment,
            instances,
            |_| (),
            |(), group| group.into_iter().map(finalize_instance).collect(),
        );
        self.report(artifacts)
    }

    fn reject(&self, reason: String) -> ControlResp {
        if O::ENABLED {
            self.obs.add(Counter::ConfigRejected, 1);
        }
        ControlResp::Reject { epoch: self.epoch, reason }
    }

    fn ack(&self) -> ControlResp {
        ControlResp::Ack { epoch: self.epoch, state: self.state }
    }

    /// Applies `delta` under `epoch` at the current watermark, in place:
    /// no knob it can name touches per-instance state (module docs).
    /// Epochs are strictly monotone: stale or replayed pushes are rejected
    /// whole, so a push either moves the agent or leaves it untouched.
    fn config_push(&mut self, epoch: ConfigEpoch, delta: &FleetDelta) -> ControlResp {
        if self.state == DaemonState::Stopped {
            return self.reject(format!("config push in state {}", self.state));
        }
        if epoch <= self.epoch {
            return self.reject(format!("stale {epoch} (running {})", self.epoch));
        }
        if delta.shards == Some(0) || delta.regions == Some(0) {
            return self.reject("delta shards/regions must be >= 1".into());
        }
        if let Some(d @ ..0) = delta.delta_s {
            return self.reject(format!("delta_s {d} is a negative look-back"));
        }
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        delta.apply(&mut self.cfg);
        self.epoch = epoch;
        if delta.shards.is_some() {
            let n = self.instances.len();
            self.assignment = contiguous_assignment(n, self.cfg.shards.clamp(1, n));
        }
        self.tune_instances();
        if O::ENABLED {
            self.obs.add(Counter::ConfigPushes, 1);
            self.obs.span(Stage::ConfigApply, n0, self.obs.now_ns());
        }
        self.ack()
    }

    fn drain(&mut self, to_second: i64) -> ControlResp {
        if !matches!(self.state, DaemonState::Running | DaemonState::Draining) {
            return self.reject(format!("drain in state {}", self.state));
        }
        if to_second < self.watermark {
            return self
                .reject(format!("drain boundary {to_second} behind watermark {}", self.watermark));
        }
        self.ingest_prefix(Some(to_second));
        self.state = DaemonState::Draining;
        self.ack()
    }

    /// Graceful restart at the current watermark: serialize every
    /// pipeline, drop the live state, revalidate the blobs as untrusted
    /// bytes, restore. A crash drill — the daemon suites run it inside an
    /// open anomaly and the case must close identically.
    fn restart(&mut self) -> ControlResp {
        if !matches!(self.state, DaemonState::Running | DaemonState::Draining) {
            return self.reject(format!("restart in state {}", self.state));
        }
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        self.state = DaemonState::Restarting;
        if let Err(e) = self.reseat() {
            // Revalidation refused our own snapshot: in-memory corruption.
            // The old pipelines are still intact; stay quiesced.
            self.state = DaemonState::Draining;
            return self.reject(format!("restart handoff failed: {e}"));
        }
        self.restarts += 1;
        self.state = DaemonState::Running;
        if O::ENABLED {
            self.obs.add(Counter::DaemonRestarts, 1);
            self.obs.span(Stage::DaemonRestart, n0, self.obs.now_ns());
        }
        self.ack()
    }

    fn stop(&mut self) -> ControlResp {
        if self.state == DaemonState::Stopped {
            return self.ack(); // idempotent
        }
        self.ingest_prefix(None);
        self.state = DaemonState::Stopped;
        self.ack()
    }

    /// δ_s lives inside each pipeline; set it to the config in force
    /// (only read at case close — see the module docs).
    fn tune_instances(&mut self) {
        for inst in &mut self.instances {
            inst.set_delta_s(self.cfg.delta_s);
        }
    }

    /// Serialize → revalidate ([`InstanceSnapshot::from_bytes`], the
    /// untrusted path) → restore, for every instance. All-or-nothing: on
    /// any error the live pipelines are left untouched.
    fn reseat(&mut self) -> Result<(), WireError> {
        let mut rebuilt = Vec::with_capacity(self.instances.len());
        for (i, inst) in self.instances.iter().enumerate() {
            let blob = inst.snapshot().into_bytes();
            let snap = InstanceSnapshot::from_bytes(blob)?;
            rebuilt.push(OnlineInstance::restore_with_observer(
                &self.scenarios[i],
                &snap,
                self.obs.fork(&format!("inst{i}")),
            )?);
        }
        self.instances = rebuilt;
        Ok(())
    }

    /// Folds each stream's prefix strictly before `boundary_s` (`None`
    /// drains everything) into the live pipelines, one k-way merge per
    /// shard. Each prefix is folded where it lies and drained afterwards,
    /// so a stream keeps its buffer from fold to fold.
    fn ingest_prefix(&mut self, boundary_s: Option<i64>) {
        let round = self.rounds;
        let work: Vec<_> = self.instances.drain(..).zip(&mut self.streams).collect();
        let obs = &self.obs;
        self.instances = on_shards(
            &self.assignment,
            work,
            |s| obs.fork(&format!("r{round}shard{s}")),
            |lane, group| {
                let (mut insts, mut streams): (Vec<_>, Vec<_>) = group.into_iter().unzip();
                let merge_n0 = if O::ENABLED { lane.now_ns() } else { 0 };
                let cuts: Vec<usize> =
                    streams.iter().map(|stream| prefix_len(stream, boundary_s)).collect();
                let prefixes =
                    streams.iter_mut().zip(&cuts).map(|(stream, &cut)| &mut stream[..cut]);
                merge_streams(&mut insts, prefixes.collect());
                for (stream, cut) in streams.into_iter().zip(cuts) {
                    stream.drain(..cut);
                }
                if O::ENABLED {
                    lane.span(Stage::IngestMerge, merge_n0, lane.now_ns());
                }
                insts
            },
        );
        self.rounds += 1;
        self.watermark = boundary_s.unwrap_or(i64::MAX).max(self.watermark);
    }

    /// The back half of [`finish`](Self::finish): fan diagnosis out across
    /// the closed cases (one `diag{i}` lane each) and fold everything into
    /// the report. `artifacts` is in instance-id order.
    fn report(&self, artifacts: Vec<InstanceArtifacts>) -> FleetRun {
        let scenarios = self.scenarios;
        let events_total: u64 = artifacts.iter().map(|a| a.events).sum();
        let mut per_instance: Vec<(u64, u64)> = Vec::with_capacity(artifacts.len());
        let mut cases: Vec<LabeledCase> = Vec::with_capacity(artifacts.len());
        let mut health: Vec<HealthSnapshot> = Vec::with_capacity(artifacts.len());
        for a in artifacts {
            per_instance.push((a.events, a.queries));
            cases.push(a.case);
            health.push(a.health);
        }

        let diagnoser = PinSql::new(self.cfg.pinsql.clone());
        let diagnoses = par_map(cases.len(), self.cfg.fanout, |i| {
            let lc = &cases[i];
            if O::ENABLED {
                let lane = self.obs.fork(&format!("diag{i}"));
                diagnoser.diagnose_observed(
                    &lc.case,
                    &lc.window,
                    &lc.history,
                    lc.minutes_origin,
                    &lane,
                )
            } else {
                diagnoser.diagnose(&lc.case, &lc.window, &lc.history, lc.minutes_origin)
            }
        });

        let outcomes: Vec<InstanceOutcome> = diagnoses
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let lc = &cases[i];
                let top = d.rsqls.first();
                InstanceOutcome {
                    instance: i,
                    kind: scenarios[i].kind.map(|k| k.label()).unwrap_or("none").to_string(),
                    seed: scenarios[i].cfg.seed,
                    detected: lc.detected,
                    anomaly_type: lc.anomaly_type.clone(),
                    n_events: per_instance[i].0,
                    n_queries: per_instance[i].1,
                    case_seconds: lc.case.n_seconds(),
                    n_templates: lc.case.templates.len(),
                    n_reported: d.reported_rsqls.len(),
                    top_rsql: top.map(|r| r.label.clone()),
                    truth_hit: top.is_some_and(|r| lc.truth.rsqls.contains(&r.id)),
                }
            })
            .collect();

        let report = FleetReport {
            n_instances: outcomes.len(),
            config_epoch: self.epoch.0,
            shards: self.cfg.shards.clamp(1, outcomes.len()),
            events_total,
            rollup: region_rollup(&health, self.cfg.regions),
            outcomes,
        };
        FleetRun { report, cases, diagnoses, health: FleetHealth::from_instances(health) }
    }
}

/// The shard → region → fleet rollup tree: instances map to regions by
/// the same contiguous layout sharding uses.
fn region_rollup(health: &[HealthSnapshot], regions: usize) -> FleetRollup {
    let regions = regions.clamp(1, health.len().max(1));
    let region_of = contiguous_assignment(health.len(), regions);
    FleetRollup::from_assigned(health, |i| region_of[i] as u32)
}

/// The one place shard workers are spawned. Groups `items` (instance-id
/// order) by `assignment`, runs `work` over each non-empty shard's group
/// — the last such group on the calling thread, every other on a scoped
/// thread of its own, so a fleet folded by one shard spawns nothing — and
/// scatters the results back keyed by *instance id*: shard sets are
/// arbitrary after a handoff (reversed, permuted, regrouped), so nothing
/// may rely on contiguity, on the order shards finish in, or on which
/// group the caller ran. `lane(s)` runs on the calling thread, in shard
/// order, before any work starts, to mint what the worker for shard `s`
/// records on; `work` returns one result per item, in the order it
/// received them.
fn on_shards<T: Send, L: Send, R: Send>(
    assignment: &[usize],
    items: Vec<T>,
    mut lane: impl FnMut(usize) -> L,
    work: impl Fn(L, Vec<T>) -> Vec<R> + Sync,
) -> Vec<R> {
    debug_assert_eq!(assignment.len(), items.len());
    let n = items.len();
    let n_shards = assignment.iter().copied().max().map_or(0, |s| s + 1);
    let mut groups: Vec<(Vec<usize>, Vec<T>)> =
        (0..n_shards).map(|_| (Vec::new(), Vec::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        let (ids, group) = &mut groups[assignment[i]];
        ids.push(i);
        group.push(item);
    }
    let mut jobs: Vec<(L, Vec<usize>, Vec<T>)> = groups
        .into_iter()
        .enumerate()
        .filter(|(_, (ids, _))| !ids.is_empty())
        .map(|(s, (ids, group))| (lane(s), ids, group))
        .collect();

    let work = &work;
    let run = move |(lane, ids, group): (L, Vec<usize>, Vec<T>)| (ids, work(lane, group));
    let results: Vec<(Vec<usize>, Vec<R>)> = std::thread::scope(|scope| {
        let own = jobs.pop();
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(move || run(job))).collect();
        let own = own.map(run);
        let spawned = handles.into_iter().map(|h| h.join().expect("daemon shard panicked"));
        spawned.chain(own).collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (ids, outs) in results {
        debug_assert_eq!(ids.len(), outs.len());
        for (i, out) in ids.into_iter().zip(outs) {
            slots[i] = Some(out);
        }
    }
    slots.into_iter().map(|s| s.expect("every instance returns from its shard")).collect()
}

/// Length of the stream's prefix strictly before `boundary_s` (in event
/// time); `None` takes the whole stream. The prefix ends after the last
/// finite time before the boundary, so a NaN or infinite time folds with
/// the next finite event, never ahead of it. Events offered after a
/// boundary sit at or past it, so splitting the whole stream at a
/// boundary cuts exactly what the boundaries up to it folded, whatever
/// the batches and the shard layout — what [`resume`](FleetDaemon::resume)
/// relies on. The boundary arrives off the wire (`PEVT` Advance, `PCTL`
/// Drain), so the seconds → milliseconds step is done in `f64`, where no
/// `i64` can overflow it.
///
/// Admission orders the finite times, so this is a binary search for the
/// first index from which every finite time is at or past the boundary.
/// A probe reads forward to the first finite time before `hi` (past `hi`
/// the answer is known), so a run of non-finite times costs at most the
/// half of the range it sits in, and a stream without one costs
/// `log n` reads.
fn prefix_len(stream: &[TelemetryEvent], boundary_s: Option<i64>) -> usize {
    let Some(b) = boundary_s else { return stream.len() };
    let boundary_ms = b as f64 * 1000.0;
    let (mut lo, mut hi) = (0, stream.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let times = stream[mid..hi].iter().map(TelemetryEvent::time_ms);
        match times.enumerate().find(|(_, t)| t.is_finite()) {
            Some((k, t)) if t < boundary_ms => lo = mid + k + 1,
            _ => hi = mid,
        }
    }
    lo
}

/// The k-way merge loop: earliest next event time wins, ties to the
/// lowest position (instances arrive in increasing global id, so ties
/// break by id); same-second query runs move as one chunk through the
/// collector's amortized hot path. Per-instance event order is untouched,
/// so outcomes match the event-level merge exactly.
fn merge_streams<O: Observer>(
    instances: &mut [OnlineInstance<'_, O>],
    mut streams: Vec<&mut [TelemetryEvent]>,
) {
    debug_assert_eq!(instances.len(), streams.len());
    let mut cursors = vec![0usize; streams.len()];
    loop {
        // K is small (a fleet slice), so a linear scan beats a heap's
        // allocation churn.
        let mut head: Option<(f64, usize)> = None;
        for (j, stream) in streams.iter().enumerate() {
            if let Some(ev) = stream.get(cursors[j]) {
                let t = ev.time_ms();
                if head.is_none_or(|(best, _)| t < best) {
                    head = Some((t, j));
                }
            }
        }
        let Some((_, j)) = head else { break };
        cursors[j] += instances[j].ingest_next(streams[j], cursors[j]);
    }
}

/// What one instance contributes to the final report, keyed by id at the
/// reassembly point.
struct InstanceArtifacts {
    events: u64,
    queries: u64,
    health: HealthSnapshot,
    case: LabeledCase,
}

/// Closes one instance into its report contribution.
fn finalize_instance<O: Observer>(inst: OnlineInstance<'_, O>) -> InstanceArtifacts {
    InstanceArtifacts {
        events: inst.events_ingested(),
        queries: inst.ingest_stats().queries,
        health: inst.health_snapshot(),
        case: inst.close_case(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql::{PinSqlConfig, PinSqlDelta};
    use pinsql_obs::RecordingObserver;
    use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, ScenarioConfig};

    fn small_fleet(n: usize) -> Vec<Scenario> {
        let kinds = [Some(AnomalyKind::BusinessSpike), Some(AnomalyKind::PoorSql), None];
        (0..n)
            .map(|i| {
                let cfg = ScenarioConfig::default()
                    .with_seed(140 + i as u64)
                    .with_businesses(6)
                    .with_window(420, 240, 330);
                let base = generate_base(&cfg);
                match kinds[i % kinds.len()] {
                    Some(kind) => inject(&base, &cfg, kind),
                    None => inject_none(&base, &cfg),
                }
            })
            .collect()
    }

    /// A daemon over the fleet's simulated streams.
    fn spawn(cfg: FleetConfig, scenarios: &[Scenario]) -> FleetDaemon<'_> {
        let streams = crate::instance::simulated_streams(scenarios);
        FleetDaemon::spawn(cfg, scenarios, streams, NoopObserver).expect("streams admitted")
    }

    /// One control operation over the `PCTL` wire: the message encoded,
    /// handed to the agent, the reply decoded.
    fn control<O: Observer>(agent: &mut FleetDaemon<'_, O>, msg: ControlMsg) -> ControlResp {
        ControlResp::from_bytes(&agent.handle_frame(&msg.to_bytes())).expect("well-formed reply")
    }

    /// The agent at epoch `epoch` acknowledged, now in `state`.
    fn ack(epoch: u64, state: DaemonState) -> ControlResp {
        ControlResp::Ack { epoch: ConfigEpoch(epoch), state }
    }

    fn cfg(shards: usize) -> FleetConfig {
        FleetConfig {
            delta_s: 180,
            pinsql: PinSqlConfig::default(),
            fanout: 1,
            shards,
            ..FleetConfig::default()
        }
    }

    /// A hollow agent finished before any event closes each case on the
    /// one second an empty stream gets, and diagnoses it.
    #[test]
    fn hollow_agent_finishes_without_events() {
        let scenarios = small_fleet(3);
        let run = FleetDaemon::spawn_hollow(cfg(2), &scenarios).finish();
        assert_eq!(run.report.events_total, 0);
        assert_eq!(run.cases.len(), 3);
        for lc in &run.cases {
            assert!(!lc.detected);
            assert_eq!((lc.window.ts(), lc.window.te()), (0, 1));
        }
        assert!(run.diagnoses.iter().all(|d| d.reported_rsqls.is_empty()));
    }

    #[test]
    fn daemon_smoke_matches_batch_run() {
        let scenarios = small_fleet(3);
        let batch = spawn(cfg(1), &scenarios).finish();

        let mut agent = spawn(cfg(2), &scenarios);
        assert_eq!(agent.state(), DaemonState::Running);
        agent.advance_to(120);
        agent.advance_to(300);
        assert_eq!(agent.watermark(), 300);
        assert_eq!(control(&mut agent, ControlMsg::Stop), ack(0, DaemonState::Stopped));
        let run = agent.finish();

        assert_eq!(run.report.config_epoch, 0);
        assert_eq!(run.cases.len(), batch.cases.len());
        for (a, b) in run.cases.iter().zip(&batch.cases) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.case.records, b.case.records);
            crate::instance::assert_owners_by_catalog(&a.case);
            crate::instance::assert_owners_by_catalog(&b.case);
        }
        for (a, b) in run.diagnoses.iter().zip(&batch.diagnoses) {
            assert_eq!(a.rsqls, b.rsqls);
        }
        assert_eq!(run.health, batch.health);
    }

    /// Epoch algebra over real PCTL frames: a push is accepted only under
    /// a strictly greater epoch; replayed and stale pushes are rejected
    /// whole, leaving the running config untouched.
    #[test]
    fn stale_and_replayed_epochs_are_rejected_whole() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(60);
        let mut push = |epoch: u64, delta_s: i64| {
            let delta = FleetDelta { delta_s: Some(delta_s), ..FleetDelta::default() };
            let frame = ControlMsg::ConfigPush { epoch: ConfigEpoch(epoch), delta }.to_bytes();
            let reply = ControlResp::from_bytes(&agent.handle_frame(&frame)).unwrap();
            (reply, agent.config().delta_s)
        };

        // Epoch 2 from the initial epoch 0: accepted.
        assert_eq!(
            push(2, 240),
            (ControlResp::Ack { epoch: ConfigEpoch(2), state: DaemonState::Running }, 240)
        );
        // A replay of epoch 2 and a stale epoch 1: the reject reports the
        // running epoch and no part of the delta leaks.
        for stale in [2, 1] {
            match push(stale, 9) {
                (ControlResp::Reject { epoch, reason }, 240) => {
                    assert_eq!(epoch, ConfigEpoch(2));
                    assert!(reason.contains("stale"), "reason names the failure: {reason}");
                }
                other => panic!("epoch {stale} must be rejected whole, got {other:?}"),
            }
        }
    }

    /// A negative look-back would be acked and then panic at `finish`;
    /// the push is rejected whole instead, through the PCTL bytes.
    #[test]
    fn negative_delta_s_pushes_are_rejected_whole() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(60);
        for delta_s in [-1i64, i64::MIN] {
            let delta = FleetDelta { delta_s: Some(delta_s), ..FleetDelta::default() };
            let frame = ControlMsg::ConfigPush { epoch: ConfigEpoch(1), delta }.to_bytes();
            match ControlResp::from_bytes(&agent.handle_frame(&frame)).unwrap() {
                ControlResp::Reject { epoch, reason } => {
                    assert_eq!(epoch, ConfigEpoch::INITIAL);
                    assert!(reason.contains("delta_s"), "reason names the field: {reason}");
                }
                other => panic!("delta_s {delta_s} must be rejected, got {other:?}"),
            }
            assert_eq!(agent.config().delta_s, 180, "no part of the delta leaks");
        }
        let run = agent.finish();
        assert_eq!(run.report.config_epoch, 0);
        assert_eq!(run.cases.len(), 2);
    }

    /// A negative look-back handed to `spawn` or `resume` would boot an
    /// agent that panics at `finish`; both refuse it as a typed mismatch,
    /// as a config push or a snapshot carrying one is refused.
    #[test]
    fn negative_delta_s_configs_are_refused_at_spawn_and_resume() {
        let scenarios = small_fleet(1);
        let ckpt = FleetDaemon::spawn_hollow(cfg(1), &scenarios).checkpoint();
        for delta_s in [-1i64, i64::MIN] {
            let bad = FleetConfig { delta_s, ..cfg(1) };
            let refused = |r: Result<FleetDaemon<'_>, WireError>| {
                matches!(r, Err(WireError::Mismatch { what: "delta_s", .. }))
            };
            let spawned = FleetDaemon::spawn(bad.clone(), &scenarios, Vec::new(), NoopObserver);
            assert!(refused(spawned), "spawn took delta_s {delta_s}");
            let resumed = FleetDaemon::resume(bad, &scenarios, Vec::new(), &ckpt, NoopObserver);
            assert!(refused(resumed), "resume took delta_s {delta_s}");
        }
        let zero = FleetConfig { delta_s: 0, ..cfg(1) };
        assert!(FleetDaemon::resume(zero, &scenarios, Vec::new(), &ckpt, NoopObserver).is_ok());
    }

    #[test]
    fn lifecycle_states_gate_messages() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(100);

        let drain = ControlMsg::Drain { to_second: 200 };
        assert_eq!(control(&mut agent, drain), ack(0, DaemonState::Draining));
        assert_eq!(agent.watermark(), 200);
        // Draining pauses the data plane; a restart resumes it.
        assert_eq!(control(&mut agent, ControlMsg::Restart), ack(0, DaemonState::Running));
        assert_eq!(agent.restarts(), 1);
        agent.advance_to(250);

        // A malformed frame never kills the agent.
        let reply = ControlResp::from_bytes(&agent.handle_frame(b"PCTLgarbage")).unwrap();
        assert!(matches!(reply, ControlResp::Reject { .. }));
        assert_eq!(agent.state(), DaemonState::Running);

        assert_eq!(control(&mut agent, ControlMsg::Stop), ack(0, DaemonState::Stopped));
        let run = agent.finish();
        assert_eq!(run.report.n_instances, 2);
    }

    /// The instance → shard map is the daemon's: a reshard sets it, a
    /// push that names `shards` resets it to the contiguous layout, and
    /// any other push leaves it alone.
    #[test]
    fn shard_map_follows_reshards_and_shard_pushes_only() {
        let scenarios = small_fleet(3);
        let mut agent = spawn(cfg(2), &scenarios);
        assert_eq!(agent.assignment, [0, 1, 1]);
        agent.advance_to(100);
        agent.reshard(&[2, 0, 2]).unwrap();
        assert_eq!(agent.assignment, [2, 0, 2]);

        let push = |epoch, delta| ControlMsg::ConfigPush { epoch: ConfigEpoch(epoch), delta };
        let retune = FleetDelta { delta_s: Some(240), ..FleetDelta::default() };
        assert!(matches!(agent.handle(push(1, retune)), ControlResp::Ack { .. }));
        assert_eq!(agent.assignment, [2, 0, 2], "a push that names no shards keeps the map");
        agent.advance_to(200);

        let relayout = FleetDelta { shards: Some(3), ..FleetDelta::default() };
        assert!(matches!(agent.handle(push(2, relayout)), ControlResp::Ack { .. }));
        assert_eq!(agent.assignment, [0, 1, 2]);
        assert_eq!(agent.finish().report.shards, 3);
    }

    /// Diagnosis settings off the default on every knob a delta can name.
    fn off_default() -> PinSqlConfig {
        PinSqlConfig {
            tau: 0.5,
            kc: 2,
            tau_c: 0.7,
            tukey_k: 3.0,
            rsql_score_min: 0.9,
            parallelism: 3,
            ..PinSqlConfig::default()
        }
    }

    /// Every [`PinSqlDelta`] knob set to `p`'s value.
    fn every_knob(p: &PinSqlConfig) -> PinSqlDelta {
        PinSqlDelta {
            tau: Some(p.tau),
            kc: Some(p.kc),
            tau_c: Some(p.tau_c),
            tukey_k: Some(p.tukey_k),
            rsql_score_min: Some(p.rsql_score_min),
            parallelism: Some(p.parallelism),
        }
    }

    /// A push changes the config, not the pipelines: neither an empty
    /// delta nor one naming δ_s and every diagnosis knob writes or
    /// restores a snapshot. A restart, the crash drill, still reseats
    /// every instance.
    #[test]
    fn config_push_writes_no_snapshot_and_restart_reseats() {
        let scenarios = small_fleet(3);
        let n = scenarios.len() as u64;
        let obs = RecordingObserver::new();
        let streams = crate::instance::simulated_streams(&scenarios);
        let agent = FleetDaemon::spawn(cfg(2), &scenarios, streams, obs.clone());
        let mut agent = agent.expect("streams admitted");
        agent.advance_to(280);
        let push = |epoch, delta| ControlMsg::ConfigPush { epoch: ConfigEpoch(epoch), delta };
        let empty = push(1, FleetDelta::default());
        assert_eq!(control(&mut agent, empty), ack(1, DaemonState::Running));
        let pinsql = every_knob(&off_default());
        let knobs = FleetDelta { delta_s: Some(240), pinsql, ..FleetDelta::default() };
        assert_eq!(control(&mut agent, push(2, knobs)), ack(2, DaemonState::Running));
        let count = |c| obs.registry().counter(c);
        assert_eq!(count(Counter::ConfigPushes), 2);
        assert_eq!(count(Counter::SnapshotsWritten), 0, "a push wrote a snapshot");
        assert_eq!(count(Counter::SnapshotsRestored), 0, "a push restored a snapshot");

        assert_eq!(control(&mut agent, ControlMsg::Restart), ack(2, DaemonState::Running));
        assert_eq!(count(Counter::SnapshotsWritten), n);
        assert_eq!(count(Counter::SnapshotsRestored), n);
    }

    /// The push alone, with no reseat after it to hide a fault: booted
    /// under settings that disagree on every knob a delta can touch and
    /// corrected mid-anomaly, the daemon closes the cases and diagnoses of
    /// one spawned under the final config, bit for bit (`Debug` prints an
    /// `f64` in its shortest round-trip form, so equal text is equal bits;
    /// a diagnosis's wall-clock `timings` are left out).
    #[test]
    fn push_mid_anomaly_matches_a_cold_start_under_the_final_config() {
        let scenarios = small_fleet(3);
        let last = FleetConfig { regions: 2, ..cfg(2) };
        let wrong = FleetConfig {
            delta_s: 120,
            pinsql: off_default(),
            fanout: 2,
            shards: 3,
            regions: 1,
            ..last.clone()
        };
        let correcting = FleetDelta {
            shards: Some(last.shards),
            fanout: Some(last.fanout),
            delta_s: Some(last.delta_s),
            regions: Some(last.regions),
            pinsql: every_knob(&last.pinsql),
        };
        let mut agent = spawn(wrong, &scenarios);
        agent.advance_to(280); // the anomalies run 240..330
        let push = ControlMsg::ConfigPush { epoch: ConfigEpoch(1), delta: correcting };
        assert_eq!(control(&mut agent, push), ack(1, DaemonState::Running));
        assert_eq!(control(&mut agent, ControlMsg::Stop), ack(1, DaemonState::Stopped));
        let pushed = agent.finish();
        let cold = spawn(last, &scenarios).finish();

        assert_eq!(pushed.report.config_epoch, 1);
        assert_eq!(pushed.report.shards, cold.report.shards);
        assert_eq!(pushed.cases.len(), cold.cases.len());
        for (i, (a, b)) in pushed.cases.iter().zip(&cold.cases).enumerate() {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {i}");
        }
        let ranked = |d: &pinsql::Diagnosis| {
            let counts = (d.n_verified, d.n_clusters, d.selected_clusters);
            format!("{:?}", (&d.hsqls, &d.rsqls, &d.reported_rsqls, counts))
        };
        assert_eq!(pushed.diagnoses.len(), cold.diagnoses.len());
        for (i, (a, b)) in pushed.diagnoses.iter().zip(&cold.diagnoses).enumerate() {
            assert_eq!(ranked(a), ranked(b), "diagnosis {i}");
        }
        assert_eq!(pushed.health, cold.health);
    }

    /// A boundary behind the watermark is refused before anything folds.
    #[test]
    #[should_panic(expected = "advance_to boundary 100 behind watermark 200")]
    fn advance_to_behind_the_watermark_panics() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(200);
        agent.advance_to(100);
    }

    /// An assignment that does not cover the fleet is refused before the
    /// handoff.
    #[test]
    #[should_panic(expected = "reshard assignment covers 1 instances, fleet has 2")]
    fn reshard_of_the_wrong_length_panics() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(100);
        let _ = agent.reshard(&[0]);
    }

    /// A shard id at or above the fleet size is refused before the
    /// handoff, not at the next fold: `usize::MAX` would overflow the
    /// executor's shard count there, and `1 << 40` would ask it for 2⁴⁰
    /// shard groups.
    #[test]
    #[should_panic(expected = "puts instance 0 on shard 18446744073709551615, outside 0..2")]
    fn reshard_to_a_shard_beyond_the_fleet_panics_before_reseating() {
        let scenarios = small_fleet(2);
        let mut agent = spawn(cfg(1), &scenarios);
        agent.advance_to(100);
        let _ = agent.reshard(&[usize::MAX, 0]);
    }

    /// The executor's contract, whichever group the caller runs: results
    /// come back in instance-id order, lanes are minted on the calling
    /// thread in shard order before any work starts, every non-empty
    /// shard's group is worked whole under its own lane — and exactly one
    /// group runs on the caller, so one shard spawns nothing.
    #[test]
    fn on_shards_runs_one_group_on_the_caller_and_keeps_id_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        // One group; two; three non-contiguous shard ids in a permuted
        // layout with empty shards (1 and 3) between them.
        for assignment in [vec![0, 0, 0, 0], vec![1, 0, 1, 0, 0], vec![4, 0, 2, 4, 0, 2, 2]] {
            let items: Vec<usize> = (0..assignment.len()).map(|i| 100 + i).collect();
            let mut minted = Vec::new();
            let working = AtomicBool::new(false);
            let out = on_shards(
                &assignment,
                items,
                |s| {
                    assert_eq!(std::thread::current().id(), caller, "lanes mint on the caller");
                    assert!(!working.load(Ordering::SeqCst), "lanes mint before work starts");
                    minted.push(s);
                    s
                },
                |lane, group| {
                    working.store(true, Ordering::SeqCst);
                    let on = std::thread::current().id();
                    group.into_iter().map(|item| (item, lane, on)).collect()
                },
            );

            let mut shards = assignment.clone();
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(minted, shards, "{assignment:?}: one lane per non-empty shard, in order");
            for (i, (item, lane, on)) in out.iter().enumerate() {
                assert_eq!(*item, 100 + i, "{assignment:?}: results in instance-id order");
                assert_eq!(*lane, assignment[i], "{assignment:?}: worked under its shard's lane");
                let first = assignment.iter().position(|a| *a == assignment[i]).unwrap();
                assert_eq!(*on, out[first].2, "{assignment:?}: a group is worked whole");
            }
            let threads: Vec<_> = shards
                .iter()
                .map(|s| out[assignment.iter().position(|a| a == s).unwrap()].2)
                .collect();
            assert_eq!(
                threads.iter().filter(|t| **t == caller).count(),
                1,
                "{assignment:?}: exactly one group runs on the calling thread"
            );
            let distinct: std::collections::HashSet<_> = threads.iter().collect();
            assert_eq!(distinct.len(), shards.len(), "{assignment:?}: a thread per other group");
        }
    }

    /// A checkpoint is shipped bytes: one cut over a fleet of another size
    /// is refused with a typed error, not a panic.
    #[test]
    fn resume_refuses_a_checkpoint_of_another_fleet_size() {
        let scenarios = small_fleet(3);
        let ckpt = FleetDaemon::spawn_hollow(cfg(1), &scenarios[..2]).checkpoint();
        let err = FleetDaemon::resume(cfg(1), &scenarios, Vec::new(), &ckpt, NoopObserver)
            .expect_err("two snapshots cannot seat three instances");
        match err {
            WireError::Mismatch { what, detail } => {
                assert_eq!(what, "checkpoint fleet size");
                assert!(detail.contains("holds 2 instances, fleet has 3"), "{detail}");
            }
            other => panic!("expected a fleet-size mismatch, got {other:?}"),
        }
    }

    /// Caller streams pass the same admission as a `PEVT` batch: a spec
    /// outside the instance's catalog, event times going backwards and
    /// more streams than scenarios each come back as `offer_events`'
    /// typed mismatch, from `spawn` and from `resume` alike.
    #[test]
    fn spawn_and_resume_refuse_streams_admission_refuses() {
        use pinsql_dbsim::QueryRecord;
        use pinsql_workload::SpecId;

        let scenarios = small_fleet(2);
        let n_specs = scenarios[1].workload.specs.len();
        let query = |spec: usize, start_ms: f64| {
            TelemetryEvent::Query(QueryRecord {
                spec: SpecId(spec),
                start_ms,
                response_ms: 1.0,
                examined_rows: 1,
            })
        };
        let tick = |second| TelemetryEvent::Tick { second };
        let refused = [
            ("event spec", vec![vec![tick(0)], vec![query(0, 10.0), query(n_specs, 20.0)]]),
            ("event stream order", vec![vec![tick(0), query(0, 2500.0), query(0, 1500.0)]]),
            ("event batch instance", vec![vec![tick(0)], vec![tick(0)], vec![tick(0)]]),
        ];
        let ckpt = FleetDaemon::spawn_hollow(cfg(1), &scenarios).checkpoint();
        for (want, streams) in refused {
            let spawned = FleetDaemon::spawn(cfg(1), &scenarios, streams.clone(), NoopObserver);
            let resumed = FleetDaemon::resume(cfg(1), &scenarios, streams, &ckpt, NoopObserver);
            for (how, got) in [("spawn", spawned.map(drop)), ("resume", resumed.map(drop))] {
                match got {
                    Err(WireError::Mismatch { what, .. }) => assert_eq!(what, want, "{how}"),
                    other => panic!("{how}: expected a {want} mismatch, got {other:?}"),
                }
            }
        }
    }

    /// A NaN or ±∞ query time neither wedges admission nor moves the
    /// boundary split, wherever it sits: a +∞ ahead of on-time events, a
    /// −∞ behind the second's metrics sample (past the boundary), and a
    /// NaN ending a batch whose metrics sample comes in the next batch,
    /// behind a −∞. Offered one second per batch, each followed by the
    /// boundary it completes, the stream is admitted whole, and both the
    /// live run and a checkpoint cut at any boundary around them, resumed
    /// over the whole stream, end on the bits of the stream folded
    /// directly: no record lost, none folded twice.
    #[test]
    fn non_finite_times_neither_wedge_admission_nor_move_the_split() {
        use crate::instance::OnlineInstance;
        use pinsql_dbsim::QueryRecord;
        use pinsql_workload::SpecId;

        let scenarios = small_fleet(1);
        let mut batches: Vec<Vec<TelemetryEvent>> = Vec::new();
        for ev in crate::instance::simulated_streams(&scenarios).remove(0) {
            if batches.is_empty() || matches!(ev, TelemetryEvent::Tick { .. }) {
                batches.push(Vec::new());
            }
            batches.last_mut().unwrap().push(ev);
        }
        let corrupt = |start_ms| {
            let rec = QueryRecord { spec: SpecId(0), start_ms, response_ms: 1.0, examined_rows: 1 };
            TelemetryEvent::Query(rec)
        };
        let s = batches.len() / 2;
        let mid = batches[s].len() / 2;
        batches[s].insert(mid, corrupt(f64::INFINITY));
        batches[s].push(corrupt(f64::NEG_INFINITY));
        let metrics = batches[s + 1].pop().unwrap();
        assert!(matches!(metrics, TelemetryEvent::Metrics(_)));
        batches[s + 1].push(corrupt(f64::NAN));
        batches.insert(s + 2, vec![corrupt(f64::NEG_INFINITY), metrics]);
        let stream = batches.concat();

        let mut direct = OnlineInstance::new(&scenarios[0], cfg(1).delta_s);
        direct.ingest_stream(stream.clone());
        let health = direct.health_snapshot();
        let case = direct.close_case();
        assert_eq!(health.malformed_dropped, 4);
        let check = |run: FleetRun, how: &str| {
            assert_eq!(run.health.instances, std::slice::from_ref(&health), "{how}");
            assert_eq!(run.cases[0].window, case.window, "{how}");
            assert_eq!(run.cases[0].case.records, case.case.records, "{how}");
        };

        let mut agent = FleetDaemon::spawn(cfg(1), &scenarios, Vec::new(), NoopObserver).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            agent.offer_events(0, batch.clone()).expect("batch admitted");
            let tick = batch.iter().find_map(|ev| match ev {
                TelemetryEvent::Tick { second } => Some(*second),
                _ => None,
            });
            let Some(second) = tick else { continue };
            agent.advance_to(second + 1);
            if (s - 1..=s + 4).contains(&i) {
                let ckpt = agent.checkpoint();
                let streams = vec![stream.clone()];
                let resumed =
                    FleetDaemon::resume(cfg(1), &scenarios, streams, &ckpt, NoopObserver).unwrap();
                check(resumed.finish(), &format!("resumed at {}", ckpt.at_second));
            }
        }
        check(agent.finish(), "live");
    }

    /// `prefix_len`'s binary search against the walk it shortcuts: end
    /// after the last finite time before the boundary. Seeded streams of
    /// ordered finite times with NaN and ±∞ runs of every length (a whole
    /// stream of them included), at boundaries before, inside and past
    /// each.
    #[test]
    fn prefix_len_matches_the_linear_walk() {
        use pinsql_dbsim::QueryRecord;
        use pinsql_workload::rng::{rng_from_seed, RngExt};
        use pinsql_workload::SpecId;

        let walk = |stream: &[TelemetryEvent], boundary_ms: f64| {
            let mut cut = 0;
            for (i, t) in stream.iter().map(TelemetryEvent::time_ms).enumerate() {
                if t.is_finite() {
                    if t >= boundary_ms {
                        break;
                    }
                    cut = i + 1;
                }
            }
            cut
        };
        let query = |start_ms| {
            let rec = QueryRecord { spec: SpecId(0), start_ms, response_ms: 1.0, examined_rows: 1 };
            TelemetryEvent::Query(rec)
        };
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for seed in 0..400u64 {
            let mut rng = rng_from_seed(seed);
            let (len, odd_share) = (rng.random_range(0..60usize), rng.random_range(0..=4u32));
            let mut second = 0i64;
            let stream: Vec<TelemetryEvent> = (0..len)
                .map(|_| {
                    if rng.random_range(0..4u32) < odd_share {
                        query(odd[rng.random_range(0..3usize)])
                    } else {
                        second += rng.random_range(0..3u32) as i64;
                        TelemetryEvent::Tick { second }
                    }
                })
                .collect();
            for b in -1..=second + 1 {
                let want = walk(&stream, b as f64 * 1000.0);
                assert_eq!(prefix_len(&stream, Some(b)), want, "seed {seed} boundary {b}");
            }
            assert_eq!(prefix_len(&stream, None), len);
        }
    }

    #[test]
    fn rollup_tree_tracks_live_state() {
        let scenarios = small_fleet(3);
        let mut agent = spawn(FleetConfig { regions: 2, ..cfg(2) }, &scenarios);
        agent.advance_to(200);
        let ControlResp::Rollup { rollup: tree, .. } = control(&mut agent, ControlMsg::HealthQuery)
        else {
            panic!("a health query answers with the rollup tree")
        };
        assert_eq!(tree.instances(), 3);
        assert!(tree.is_consistent());
        assert_eq!(tree.regions.len(), 2);
        assert!(tree.total.events_total > 0);
    }
}
