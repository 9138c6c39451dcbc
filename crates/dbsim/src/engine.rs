//! The simulation engine: one query lifecycle and the open-loop driver.
//!
//! ## Lifecycle
//!
//! ```text
//! spawn → MDL (shared, or exclusive for DDL)
//!       → row slots (in ascending slot order, FIFO queues)
//!       → CPU phase (PS over `cores`)
//!       → IO phase  (PS over `io_channels`)
//!       → release locks, hand the query to the driver
//! ```
//!
//! [`Lifecycle`] owns everything a query's life touches: the clock, the
//! CPU and IO processor-sharing resources with each one's pending
//! departure, the lock manager, the in-flight table ([`InFlight`], indexed
//! by query id), the RNG, the per-spec cost samplers and the per-table
//! Zipfs. A [`Driver`] decides where queries come from and what a
//! completion does. There are two:
//!
//! * the open-loop driver here ([`run_open_loop`]): pre-generated
//!   arrivals pass through admission (`max_sessions`), a per-second probe
//!   and tick sample the metrics. At each completion it logs the record,
//!   admits the next queued arrival, then resumes the queries the
//!   released locks granted;
//! * the closed-loop driver ([`crate::closedloop`]): at each completion
//!   it counts the query and issues that client's next one; it resumes
//!   the grants only after the whole departure is handled.
//!
//! Lock waits and queueing are all part of the measured response time, so
//! an anomaly's victims (H-SQLs) show inflated `t_res` and inflated active
//! session — the propagation chain PinSQL traces.
//!
//! ## Events
//!
//! Events happen in `(time, seq)` order, `seq` being drawn each time an
//! event is scheduled. At most four are pending, so each has a slot and
//! the least is found by comparing them in place: the open loop's next
//! arrival, its next probe or tick (a cursor into the per-second timeline,
//! known up front), and each resource's next departure.
//!
//! A departure is computed from the resource's membership, so a job
//! joining or leaving supersedes it. A superseded departure is never
//! stored: handled, it would change nothing. Only its time could matter,
//! through the clock a loop stops at, and each driver keeps the one
//! scalar that says where: the open loop the latest superseded departure
//! within the drain cap ([`Driver::superseded`]), the closed loop the
//! first one past its end. A departure rescheduled at the membership it
//! was computed at (the resource's generation, unchanged) repeats the
//! pending one's time, and the pending one, with its earlier `seq`, stays:
//! handled first, it either pops a job, which supersedes the repeat, or
//! pops none, which the repeat would only do again.
//!
//! ## Determinism
//!
//! All randomness flows from `SimConfig::seed`, so a `(workload, config)`
//! pair reproduces byte-identical output.

use crate::config::SimConfig;
use crate::flight::InFlight;
use crate::locks::{LockKind, LockManager, QueryId};
use crate::metrics::InstanceMetrics;
use crate::ordf64::{sort_by_total_key, OrdF64};
use crate::probe::ProbeSample;
use crate::ps::PsResource;
use crate::record::QueryRecord;
use pinsql_workload::rng::{poisson, RngExt, SeedableRng, StdRng, Zipf};
use pinsql_workload::{CostSampler, LockFootprint, LockMode, SpecId, Workload};
use std::collections::VecDeque;

/// Numeric slack for departure detection, in ms.
const EPS_MS: f64 = 1e-6;

/// How long past the workload window the simulator keeps draining in-flight
/// queries before force-completing them, in seconds.
const DRAIN_CAP_S: i64 = 600;

/// Output of one open-loop run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Completed (or force-completed at drain cap) queries, in completion
    /// order, not arrival.
    pub log: Vec<QueryRecord>,
    /// Per-second instance metrics for `[start_s, end_s)`.
    pub metrics: InstanceMetrics,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    WaitingMdl,
    WaitingSlot(usize),
    Cpu,
    Io,
}

/// One query in flight.
#[derive(Debug)]
pub(crate) struct QueryState {
    spec: SpecId,
    arrival_ms: f64,
    cpu_ms: f64,
    io_ms: f64,
    examined_rows: u64,
    lock: Option<LockFootprint>,
    /// Ascending, distinct slots to lock (row modes only).
    slots: Vec<u32>,
    acquired_slots: usize,
    holds_mdl: bool,
    phase: Phase,
}

impl QueryState {
    /// The log record of this query, finished at `now`.
    fn record(&self, now: f64) -> QueryRecord {
        QueryRecord {
            spec: self.spec,
            start_ms: self.arrival_ms,
            response_ms: (now - self.arrival_ms).max(0.0),
            examined_rows: self.examined_rows,
        }
    }
}

/// The metadata lock a footprint takes: exclusive for DDL.
fn mdl_kind(mode: LockMode) -> LockKind {
    match mode {
        LockMode::ExclusiveTable => LockKind::Exclusive,
        _ => LockKind::Shared,
    }
}

/// The lock a footprint takes on each of its row slots.
fn row_kind(mode: LockMode) -> LockKind {
    match mode {
        LockMode::SharedRows => LockKind::Shared,
        _ => LockKind::Exclusive,
    }
}

/// A processor-sharing resource of the lifecycle; it indexes the
/// departure slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Res {
    Cpu = 0,
    Io = 1,
}

/// An event's place in the pop order: its time, then the sequence number
/// drawn when it was scheduled.
type Key = (OrdF64, u64);

/// A resource's pending departure, and the membership generation it was
/// computed at.
#[derive(Debug, Clone, Copy)]
struct Due {
    key: Key,
    gen: u64,
}

/// What a driver does with a query that finished its last phase.
pub(crate) trait Driver: Sized {
    /// Called for each finished query, in the order its resource popped
    /// them, while the departure is handled; the query is still in flight
    /// until the driver calls [`Lifecycle::release`].
    fn complete(life: &mut Lifecycle<'_, Self>, qid: QueryId);

    /// Called with the time of each departure a membership change
    /// superseded (see the module docs): the driver keeps what its stop
    /// clock needs of it.
    fn superseded(&mut self, at: f64);
}

/// One query lifecycle, shared by both drivers (see the module docs).
pub(crate) struct Lifecycle<'a, D> {
    workload: &'a Workload,
    cfg: &'a SimConfig,
    pub(crate) now: f64,
    seq: u64,
    /// Each resource's pending departure, indexed by [`Res`].
    due: [Option<Due>; 2],
    cpu: PsResource,
    io: PsResource,
    locks: LockManager,
    flight: InFlight<QueryState>,
    next_qid: QueryId,
    pub(crate) rng: StdRng,
    /// One per spec, indexed by `SpecId`.
    costs: Vec<CostSampler>,
    zipfs: Vec<Zipf>,
    /// Queries the released locks granted, not yet resumed.
    granted: Vec<QueryId>,
    finished: Vec<QueryId>,
    pub(crate) driver: D,
}

impl<'a, D: Driver> Lifecycle<'a, D> {
    /// A lifecycle whose clock and resources start at `now` ms.
    pub(crate) fn new(
        workload: &'a Workload,
        cfg: &'a SimConfig,
        rng: StdRng,
        now: f64,
        driver: D,
    ) -> Self {
        let mut cpu = PsResource::new(cfg.cores);
        let mut io = PsResource::new(cfg.io_channels);
        cpu.advance(now);
        io.advance(now);
        Self {
            workload,
            cfg,
            now,
            seq: 0,
            due: [None; 2],
            cpu,
            io,
            locks: LockManager::new(workload.tables.len()),
            flight: InFlight::new(),
            next_qid: 0,
            rng,
            costs: workload.specs.iter().map(|s| CostSampler::new(&s.cost)).collect(),
            zipfs: workload.tables.iter().map(|t| Zipf::new(t.hot_slots as usize, 0.8)).collect(),
            granted: Vec::new(),
            finished: Vec::new(),
            driver,
        }
    }

    fn resource(&mut self, res: Res) -> &mut PsResource {
        match res {
            Res::Cpu => &mut self.cpu,
            Res::Io => &mut self.io,
        }
    }

    /// The resource's busy integral, in ms, advanced to now.
    pub(crate) fn busy_ms(&mut self, res: Res) -> f64 {
        let now = self.now;
        let r = self.resource(res);
        r.advance(now);
        r.busy_ms()
    }

    /// The key of an event scheduled at `at`.
    fn key(&mut self, at: f64) -> Key {
        self.seq += 1;
        (OrdF64::new(at), self.seq)
    }

    /// The departure due first, with its resource.
    fn next_due(&self) -> Option<(Key, Res)> {
        match self.due {
            [Some(cpu), Some(io)] if io.key < cpu.key => Some((io.key, Res::Io)),
            [Some(cpu), _] => Some((cpu.key, Res::Cpu)),
            [None, io] => io.map(|io| (io.key, Res::Io)),
        }
    }

    /// Takes the departure due first: its time and resource.
    pub(crate) fn pop_event(&mut self) -> Option<(f64, Res)> {
        let (key, res) = self.next_due()?;
        self.due[res as usize] = None;
        Some((key.0.get(), res))
    }

    /// Puts a query of `spec` arriving at `arrival_ms` in flight: draws
    /// its cost, then its row slots. It takes no lock until
    /// [`Self::continue_acquisition`].
    pub(crate) fn spawn(&mut self, spec: SpecId, arrival_ms: f64) -> QueryId {
        let qid = self.next_qid;
        self.next_qid += 1;
        let cost = self.costs[spec.0].sample(&mut self.rng);
        let lock = self.workload.specs[spec.0].cost.lock;
        let slots = match lock {
            Some(fp) if matches!(fp.mode, LockMode::SharedRows | LockMode::ExclusiveRows) => {
                sample_slots(&self.zipfs[fp.table.0], fp.slots, &mut self.rng)
            }
            _ => Vec::new(),
        };
        let st = QueryState {
            spec,
            arrival_ms,
            cpu_ms: cost.cpu_ms * self.cfg.pfs.cpu_overhead_factor(),
            io_ms: cost.io_ms,
            examined_rows: cost.examined_rows,
            lock,
            slots,
            acquired_slots: 0,
            holds_mdl: false,
            phase: Phase::WaitingMdl,
        };
        self.flight.insert(qid, st);
        qid
    }

    /// Drives lock acquisition from the query's current progress — the
    /// MDL, then the row slots in ascending (deadlock-free) order; parks
    /// it when a lock is unavailable, otherwise starts the CPU phase.
    pub(crate) fn continue_acquisition(&mut self, qid: QueryId) {
        let st = self.flight.get_mut(qid).expect("state");
        if let Some(fp) = st.lock {
            let table = fp.table.0 as u32;
            if !st.holds_mdl {
                if !self.locks.request_mdl(qid, table, mdl_kind(fp.mode)) {
                    st.phase = Phase::WaitingMdl;
                    return;
                }
                st.holds_mdl = true;
            }
            while let Some(&slot) = st.slots.get(st.acquired_slots) {
                if !self.locks.request_slot(qid, table, slot, row_kind(fp.mode)) {
                    st.phase = Phase::WaitingSlot(st.acquired_slots);
                    return;
                }
                st.acquired_slots += 1;
            }
        }
        st.phase = Phase::Cpu;
        let cpu_ms = st.cpu_ms;
        self.start(Res::Cpu, qid, cpu_ms);
    }

    fn start(&mut self, res: Res, qid: QueryId, demand_ms: f64) {
        let now = self.now;
        self.resource(res).add(now, qid, demand_ms);
        self.schedule(res);
    }

    /// Schedules the resource's next departure at its current generation,
    /// superseding the pending one if the membership changed since.
    fn schedule(&mut self, res: Res) {
        let r = self.resource(res);
        let (gen, next) = (r.generation(), r.next_departure());
        let slot = res as usize;
        if let Some(stale) = self.due[slot].filter(|due| due.gen != gen) {
            self.due[slot] = None;
            self.driver.superseded(stale.key.0.get());
        }
        if let Some((at, _)) = next {
            let key = self.key(at.max(self.now));
            // At an unchanged generation the pending departure has this
            // one's time and the earlier key.
            let due = self.due[slot].get_or_insert(Due { key, gen });
            debug_assert_eq!(due.key.0, key.0, "a departure moved at one generation");
        }
    }

    /// Handles the departure of `res` popped last: pops every finished
    /// job, moves a finished CPU phase on to IO, hands each query that
    /// finished its last phase to the driver in pop order, then
    /// reschedules the resource.
    pub(crate) fn depart(&mut self, res: Res) {
        let mut finished = std::mem::take(&mut self.finished);
        let now = self.now;
        self.resource(res).pop_finished(now, EPS_MS, &mut finished);
        for qid in finished.drain(..) {
            let st = self.flight.get_mut(qid).expect("state");
            if res == Res::Cpu && st.io_ms > 0.0 {
                st.phase = Phase::Io;
                let io_ms = st.io_ms;
                self.start(Res::Io, qid, io_ms);
            } else {
                D::complete(self, qid);
            }
        }
        self.finished = finished;
        self.schedule(res);
    }

    /// Takes a finished query out of flight and frees its locks, appending
    /// the queries they grant to the list [`Self::resume_grants`] drains.
    pub(crate) fn release(&mut self, qid: QueryId) -> QueryState {
        let st = self.flight.remove(qid).expect("completing unknown query");
        if let Some(fp) = st.lock {
            let table = fp.table.0 as u32;
            for &slot in &st.slots[..st.acquired_slots] {
                self.locks.release_slot(table, slot, row_kind(fp.mode), &mut self.granted);
            }
            if st.holds_mdl {
                self.locks.release_mdl(table, mdl_kind(fp.mode), &mut self.granted);
            }
        }
        st
    }

    /// Continues every query a release granted its lock, in grant order.
    pub(crate) fn resume_grants(&mut self) {
        let mut grants = std::mem::take(&mut self.granted);
        for &qid in &grants {
            let st = self.flight.get_mut(qid).expect("granted unknown query");
            match st.phase {
                Phase::WaitingMdl => st.holds_mdl = true,
                Phase::WaitingSlot(i) => st.acquired_slots = i + 1,
                other => unreachable!("grant delivered to query in phase {:?}", other),
            }
            self.continue_acquisition(qid);
        }
        grants.clear();
        self.granted = grants;
    }
}

/// What the open loop's clock stops for.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    Departure(Res),
    Probe,
    SecondTick,
}

/// The open-loop driver: pre-generated arrivals through admission, the
/// per-second probe and tick timeline, the log and the metrics.
struct OpenLoop {
    /// Every second's probe and tick, known up front and sorted by key.
    timeline: Vec<(Key, Event)>,
    next_timed: usize,
    /// The pending arrival event: the next arrival's time, once scheduled.
    arrival_due: Option<Key>,
    admission_queue: VecDeque<QueryId>,
    admitted: usize,
    /// Pre-generated arrivals, ascending by time; `next_arrival` indexes it.
    arrivals: Vec<(f64, SpecId)>,
    next_arrival: usize,
    log: Vec<QueryRecord>,
    end_ms: f64,
    /// Past this, in-flight queries are force-completed.
    drain_end_ms: f64,
    /// The latest superseded departure within the drain cap: the clock
    /// had reached it by the time the cap stopped the run.
    stale_clock: f64,
    completed_this_second: u64,
    prev_cpu_busy: f64,
    prev_io_busy: f64,
    /// Per-second series, filled by the ticks and probes.
    metrics: InstanceMetrics,
}

impl Driver for OpenLoop {
    /// Logs the record, admits the next queued arrival, then resumes the
    /// queries the released locks granted.
    fn complete(life: &mut Lifecycle<'_, Self>, qid: QueryId) {
        let st = life.release(qid);
        let d = &mut life.driver;
        d.log.push(st.record(life.now));
        d.completed_this_second += 1;
        match d.admission_queue.pop_front() {
            // One session out, one in.
            Some(next) => life.continue_acquisition(next),
            None => d.admitted -= 1,
        }
        life.resume_grants();
    }

    fn superseded(&mut self, at: f64) {
        if at <= self.drain_end_ms {
            self.stale_clock = self.stale_clock.max(at);
        }
    }
}

impl<'a> Lifecycle<'a, OpenLoop> {
    fn open_loop(workload: &'a Workload, cfg: &'a SimConfig, start_s: i64, end_s: i64) -> Self {
        assert!(end_s > start_s, "empty simulation window");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let arrivals = generate_arrivals(workload, start_s, end_s, &mut rng);
        let driver = OpenLoop {
            timeline: Vec::with_capacity(2 * (end_s - start_s) as usize),
            next_timed: 0,
            arrival_due: None,
            admission_queue: VecDeque::new(),
            admitted: 0,
            // Every arrival ends as exactly one record.
            log: Vec::with_capacity(arrivals.len()),
            arrivals,
            next_arrival: 0,
            end_ms: end_s as f64 * 1000.0,
            drain_end_ms: (end_s + DRAIN_CAP_S) as f64 * 1000.0,
            stale_clock: f64::NEG_INFINITY,
            completed_this_second: 0,
            prev_cpu_busy: 0.0,
            prev_io_busy: 0.0,
            metrics: InstanceMetrics { start_second: start_s, ..InstanceMetrics::default() },
        };
        Self::new(workload, cfg, rng, start_s as f64 * 1000.0, driver)
    }

    /// Takes the least pending event of the arrival, the departures and
    /// the timeline: its time and kind.
    fn next_event(&mut self) -> Option<(f64, Event)> {
        let d = &self.driver;
        let mut next = self.next_due().map(|(key, res)| (key, Event::Departure(res)));
        let arrival = d.arrival_due.map(|key| (key, Event::Arrival));
        for (key, event) in [arrival, d.timeline.get(d.next_timed).copied()].into_iter().flatten() {
            if next.is_none_or(|(least, _)| key < least) {
                next = Some((key, event));
            }
        }
        let (key, event) = next?;
        match event {
            Event::Departure(res) => self.due[res as usize] = None,
            Event::Arrival => self.driver.arrival_due = None,
            Event::Probe | Event::SecondTick => self.driver.next_timed += 1,
        }
        Some((key.0.get(), event))
    }

    /// Adds an event to the timeline.
    fn push_timed(&mut self, at: f64, event: Event) {
        let key = self.key(at);
        self.driver.timeline.push((key, event));
    }

    /// Schedules the arrival event at `at`.
    fn schedule_arrival(&mut self, at: f64) {
        self.driver.arrival_due = Some(self.key(at));
    }

    fn run(mut self, start_s: i64, end_s: i64) -> SimOutput {
        self.drive(start_s, end_s);
        self.finish(start_s, end_s)
    }

    /// Runs the events until everything drained or the drain cap.
    fn drive(&mut self, start_s: i64, end_s: i64) {
        // Seed per-second probe and tick events.
        for s in start_s..end_s {
            let offset: f64 = self.rng.random::<f64>() * 1000.0;
            self.push_timed(s as f64 * 1000.0 + offset, Event::Probe);
            self.push_timed((s + 1) as f64 * 1000.0 - 1e-3, Event::SecondTick);
        }
        // A probe may fall after its second's tick.
        self.driver.timeline.sort_unstable_by_key(|&(key, _)| key);
        if let Some(&(at, _)) = self.driver.arrivals.first() {
            self.schedule_arrival(at);
        }

        let end_ms = self.driver.end_ms;
        while let Some((at, event)) = self.next_event() {
            if at > self.driver.drain_end_ms {
                break;
            }
            debug_assert!(at >= self.now - 1e-6, "event time regression");
            self.now = at.max(self.now);
            match event {
                Event::Arrival => self.on_arrival_batch(),
                Event::Departure(res) => self.depart(res),
                Event::Probe => self.on_probe(),
                Event::SecondTick => self.on_second_tick(),
            }
            // Stop early once the window is over and everything drained.
            if self.now >= end_ms
                && self.flight.is_empty()
                && self.driver.next_arrival >= self.driver.arrivals.len()
            {
                break;
            }
        }
    }

    /// Force-completes whatever is still in flight (the equivalent of
    /// killed sessions being written to the slow log), in arrival order,
    /// and closes the metric series.
    fn finish(self, start_s: i64, end_s: i64) -> SimOutput {
        let final_now = self.now.max(self.driver.end_ms).max(self.driver.stale_clock);
        let OpenLoop { mut log, mut metrics, .. } = self.driver;
        log.extend(self.flight.values().map(|st| st.record(final_now)));

        let n_secs = (end_s - start_s) as usize;
        let m = &mut metrics;
        for series in [
            &mut m.qps,
            &mut m.row_lock_waits,
            &mut m.mdl_waits,
            &mut m.cpu_usage,
            &mut m.iops_usage,
        ] {
            series.resize(n_secs, 0.0);
        }
        m.active_session = vec![0.0; n_secs];
        for p in &m.probes.samples {
            let idx = (p.second - start_s) as usize;
            if idx < n_secs {
                m.active_session[idx] = p.active_sessions as f64;
            }
        }
        SimOutput { log, metrics }
    }

    /// Spawns all arrivals due at the current instant through admission,
    /// then schedules the next arrival event.
    fn on_arrival_batch(&mut self) {
        while let Some(&(at, spec)) = self.driver.arrivals.get(self.driver.next_arrival) {
            if at > self.now + EPS_MS {
                self.schedule_arrival(at);
                return;
            }
            self.driver.next_arrival += 1;
            let qid = self.spawn(spec, at);
            if self.driver.admitted < self.cfg.max_sessions {
                self.driver.admitted += 1;
                self.continue_acquisition(qid);
            } else {
                self.driver.admission_queue.push_back(qid);
            }
        }
    }

    fn on_probe(&mut self) {
        // Active sessions = admitted, not-yet-completed statements,
        // including those blocked on locks (they occupy a thread).
        let second = (self.now / 1000.0).floor() as i64;
        self.driver.metrics.probes.samples.push(ProbeSample {
            second,
            active_sessions: self.driver.admitted as u32,
            true_instant_ms: self.now,
        });
    }

    fn on_second_tick(&mut self) {
        let cpu_busy = self.busy_ms(Res::Cpu);
        let io_busy = self.busy_ms(Res::Io);
        let d = &mut self.driver;
        let m = &mut d.metrics;
        m.cpu_usage.push((cpu_busy - d.prev_cpu_busy) / 1000.0);
        m.iops_usage.push((io_busy - d.prev_io_busy) / 1000.0);
        d.prev_cpu_busy = cpu_busy;
        d.prev_io_busy = io_busy;
        m.qps.push(d.completed_this_second as f64);
        d.completed_this_second = 0;
        m.row_lock_waits.push(self.locks.row_waiters() as f64);
        m.mdl_waits.push(self.locks.mdl_waiters() as f64);
    }
}

/// Samples `k` distinct hot slots, ascending.
fn sample_slots(zipf: &Zipf, k: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut slots: Vec<u32> = Vec::with_capacity(k as usize);
    let mut attempts = 0;
    while slots.len() < k as usize && attempts < k as usize * 20 {
        let s = zipf.sample(rng) as u32;
        if !slots.contains(&s) {
            slots.push(s);
        }
        attempts += 1;
    }
    slots.sort_unstable();
    slots
}

/// Pre-generates all arrivals over `[start_s, end_s)`, ascending by time.
///
/// Per second and root: draw `Poisson(rate(t))` invocations, place each at
/// a uniform ms within the second, expand the DAG, and jitter each
/// resulting query by up to 40 ms (APIs execute sequentially after the
/// user request lands).
fn generate_arrivals(
    workload: &Workload,
    start_s: i64,
    end_s: i64,
    rng: &mut StdRng,
) -> Vec<(f64, SpecId)> {
    let mut arrivals: Vec<(f64, SpecId)> = Vec::new();
    let mut specs_buf: Vec<SpecId> = Vec::new();
    for s in start_s..end_s {
        for (root, pattern) in &workload.roots {
            let rate = pattern.sample_rate(s, rng);
            let n = poisson(rng, rate);
            for _ in 0..n {
                let at = s as f64 * 1000.0 + rng.random::<f64>() * 1000.0;
                specs_buf.clear();
                workload.dag.sample_invocation(*root, rng, &mut specs_buf);
                for &spec in &specs_buf {
                    let jitter = rng.random::<f64>() * 40.0;
                    arrivals.push((at + jitter, spec));
                }
            }
        }
    }
    sort_by_total_key(&mut arrivals, |a| a.0);
    arrivals
}

/// Runs the open-loop simulation of `workload` over `[start_s, end_s)`
/// seconds.
///
/// The returned log contains every query that *arrived* in the window
/// (queries still in flight at the end are drained for up to 10 simulated
/// minutes, then force-completed, mirroring session kills reaching the
/// slow log). Metrics cover exactly `[start_s, end_s)`.
pub fn run_open_loop(
    workload: &Workload,
    config: &SimConfig,
    start_s: i64,
    end_s: i64,
) -> SimOutput {
    Lifecycle::open_loop(workload, config, start_s, end_s).run(start_s, end_s)
}

#[cfg(test)]
mod sweep_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_workload::{
        Api, ApiDag, CostProfile, TableDef, TableId, TemplateSpec, TrafficPattern, Workload,
    };
    use pinsql_workload::dag::Call;

    fn tiny_workload(rate: f64) -> Workload {
        let t0 = TableId(0);
        let specs = vec![
            TemplateSpec::new(
                "SELECT * FROM orders WHERE id = 1",
                CostProfile::point_read(t0),
                "orders.read",
            ),
            TemplateSpec::new(
                "UPDATE orders SET qty = 1 WHERE id = 2",
                CostProfile::point_write(t0),
                "orders.write",
            ),
        ];
        let mut dag = ApiDag::default();
        let api = dag.push(
            Api::named("api").query(Call::once(SpecId(0))).query(Call::maybe(SpecId(1), 0.3)),
        );
        Workload {
            tables: vec![TableDef::new("orders", 1_000_000, 64)],
            specs,
            dag,
            roots: vec![(api, TrafficPattern::steady(rate))],
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let w = tiny_workload(20.0);
        let cfg = SimConfig::default().with_seed(7);
        let a = run_open_loop(&w, &cfg, 0, 30);
        let b = run_open_loop(&w, &cfg, 0, 30);
        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(a.metrics.active_session, b.metrics.active_session);
        assert_eq!(a.log.first().map(|r| r.start_ms), b.log.first().map(|r| r.start_ms));
    }

    #[test]
    fn throughput_matches_offered_load() {
        let w = tiny_workload(50.0);
        let out = run_open_loop(&w, &SimConfig::default().with_seed(1), 0, 60);
        // Expected ~50 invocations/s × (1 + 0.3) queries = 65 QPS × 60 s.
        let n = out.log.len() as f64;
        assert!((n - 3900.0).abs() / 3900.0 < 0.1, "completed {n}");
        // The instance is far from saturation: response times are small.
        let mean_rt =
            out.log.iter().map(|r| r.response_ms).sum::<f64>() / out.log.len() as f64;
        assert!(mean_rt < 10.0, "mean rt {mean_rt}");
    }

    #[test]
    fn metrics_cover_exact_window() {
        let w = tiny_workload(10.0);
        let out = run_open_loop(&w, &SimConfig::default().with_seed(2), 5, 25);
        assert_eq!(out.metrics.len(), 20);
        assert_eq!(out.metrics.start_second, 5);
        assert_eq!(out.metrics.qps.len(), 20);
        assert_eq!(out.metrics.cpu_usage.len(), 20);
        assert_eq!(out.metrics.probes.samples.len(), 20);
        // Utilization is a fraction.
        for &u in &out.metrics.cpu_usage {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    #[test]
    fn probe_counts_in_flight_queries() {
        let w = tiny_workload(30.0);
        let out = run_open_loop(&w, &SimConfig::default().with_seed(3), 0, 30);
        // Cross-check each probe against the log: the number of log records
        // active at the true probe instant must equal the probe value.
        for p in &out.metrics.probes.samples {
            let from_log =
                out.log.iter().filter(|r| r.active_at(p.true_instant_ms)).count() as u32;
            assert_eq!(
                from_log, p.active_sessions,
                "probe at {} disagrees with log",
                p.true_instant_ms
            );
        }
    }

    #[test]
    fn ddl_blocks_everything_and_inflates_sessions() {
        // A DDL with 8 s of work arrives at t=10 on the same table the
        // regular traffic uses: active session must spike while it holds
        // the MDL, and recover afterwards.
        let mut w = tiny_workload(40.0);
        let t0 = TableId(0);
        w.specs.push(TemplateSpec::new(
            "ALTER TABLE orders ADD COLUMN note2 TEXT",
            CostProfile::ddl(t0, 8_000.0),
            "orders.ddl",
        ));
        // The DDL is offered once, at exactly t = 10 s, by splicing it
        // into the pre-generated arrivals: a Poisson root "at rate 1/s for
        // one second" offers none on 1/e of seeds, and the test is about
        // the pile-up, not the draw. Ten seeds vary everything else.
        for seed in 0..10 {
            let cfg = SimConfig::default().with_seed(seed);
            let mut engine = Lifecycle::open_loop(&w, &cfg, 0, 60);
            let arrivals = &mut engine.driver.arrivals;
            let at = arrivals.partition_point(|a| a.0 < 10_000.0);
            arrivals.insert(at, (10_000.0, SpecId(2)));
            let out = engine.run(0, 60);
            let sess = &out.metrics.active_session;
            let calm: f64 = sess[..9].iter().sum::<f64>() / 9.0;
            let peak = sess[11..19].iter().cloned().fold(0.0, f64::max);
            assert!(
                peak > calm * 5.0 + 10.0,
                "seed {seed}: DDL should pile sessions up: calm {calm}, peak {peak}"
            );
            // MDL waiters were observed.
            assert!(out.metrics.mdl_waits.iter().any(|&w| w > 0.0), "seed {seed}");
            // And the system recovered by the end.
            let tail: f64 = sess[45..].iter().sum::<f64>() / 15.0;
            assert!(tail < peak / 4.0, "seed {seed}: should recover: tail {tail}, peak {peak}");
        }
    }

    /// A DDL holds table 1's exclusive MDL far past the drain cap, with two
    /// readers of table 1 queued behind it, while table 0's traffic
    /// completes by the thousand: the in-flight table keeps room for the
    /// few queries in flight at once plus one `u32` per id since the
    /// DDL's, and the three still in flight at the cap are force-completed
    /// in arrival order, at one instant.
    #[test]
    fn in_flight_table_stays_bounded_behind_a_held_query() {
        let mut w = tiny_workload(100.0);
        w.tables.push(TableDef::new("audit", 1_000, 4));
        let audit = TableId(1);
        w.specs.push(TemplateSpec::new(
            "ALTER TABLE audit ADD COLUMN note TEXT",
            CostProfile::ddl(audit, 1e7),
            "audit.ddl",
        ));
        w.specs.push(TemplateSpec::new(
            "SELECT * FROM audit WHERE id = 1",
            CostProfile::point_read(audit),
            "audit.read",
        ));
        let held = [(1_000.0, SpecId(2)), (2_000.0, SpecId(3)), (30_000.0, SpecId(3))];
        let cfg = SimConfig::default().with_seed(11);
        let mut life = Lifecycle::open_loop(&w, &cfg, 0, 60);
        for (at, spec) in held {
            let arrivals = &mut life.driver.arrivals;
            let i = arrivals.partition_point(|a| a.0 < at);
            arrivals.insert(i, (at, spec));
        }
        let offered = life.driver.arrivals.len();
        life.drive(0, 60);

        let completed = life.driver.log.len();
        assert_eq!(completed + held.len(), offered);
        assert!(completed > 5_000, "only {completed} completed");
        assert_eq!(life.flight.len(), held.len());
        let (entries, index) = life.flight.allocated();
        assert!(entries <= 64, "{entries} entry slots for {offered} queries");
        assert!(index < 2 * offered, "{index} index slots for {offered} ids");

        let out = life.finish(0, 60);
        let forced = &out.log[completed..];
        let arrived: Vec<(SpecId, f64)> = forced.iter().map(|r| (r.spec, r.start_ms)).collect();
        assert_eq!(arrived, held.map(|(at, spec)| (spec, at)));
        assert!(forced.iter().all(|r| r.end_ms() == forced[0].end_ms()), "{forced:?}");
    }

    #[test]
    fn saturated_cpu_inflates_response_times() {
        let t0 = TableId(0);
        let specs = vec![TemplateSpec::new(
            "SELECT * FROM big_t WHERE note LIKE 'x'",
            CostProfile::poor_scan(t0, 100_000.0), // ~251 ms CPU each
            "scan",
        )];
        let mut dag = ApiDag::default();
        let api = dag.push(Api::named("a").query(Call::once(SpecId(0))));
        let w = Workload {
            tables: vec![TableDef::new("big_t", 10_000_000, 64)],
            specs,
            dag,
            roots: vec![(api, TrafficPattern::steady(120.0))], // >> capacity
        };
        let cfg = SimConfig::default().with_cores(4.0).with_seed(5);
        let out = run_open_loop(&w, &cfg, 0, 20);
        // Offered CPU load ≈ 120 × 0.25 s = 30 core-s per wall second on 4
        // cores: the system is overloaded, utilization pegs at ~1 and the
        // active session climbs over the window.
        let last_util = out.metrics.cpu_usage[10..].iter().sum::<f64>() / 10.0;
        assert!(last_util > 0.95, "cpu pegged: {last_util}");
        let first = out.metrics.active_session[2];
        let last = out.metrics.active_session[19];
        assert!(last > first + 50.0, "sessions should pile up: {first} -> {last}");
    }

    #[test]
    fn pfs_overhead_shows_up_in_cpu() {
        let w = tiny_workload(60.0);
        let normal = run_open_loop(&w, &SimConfig::default().with_seed(6), 0, 30);
        let pfs = run_open_loop(
            &w,
            &SimConfig::default().with_seed(6).with_pfs(crate::config::PfsConfig::PFS_CON_INS),
            0,
            30,
        );
        let cpu_normal: f64 = normal.metrics.cpu_usage.iter().sum();
        let cpu_pfs: f64 = pfs.metrics.cpu_usage.iter().sum();
        assert!(
            cpu_pfs > cpu_normal * 1.15,
            "pfs should raise CPU: {cpu_normal} -> {cpu_pfs}"
        );
    }

    #[test]
    fn empty_workload_produces_empty_log_and_flat_metrics() {
        let w = Workload {
            tables: vec![TableDef::new("t", 10, 1)],
            specs: vec![],
            dag: ApiDag::default(),
            roots: vec![],
        };
        let out = run_open_loop(&w, &SimConfig::default(), 0, 10);
        assert!(out.log.is_empty());
        assert_eq!(out.metrics.len(), 10);
        assert!(out.metrics.active_session.iter().all(|&v| v == 0.0));
        assert!(out.metrics.cpu_usage.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty simulation window")]
    fn empty_window_panics() {
        let w = tiny_workload(1.0);
        let _ = run_open_loop(&w, &SimConfig::default(), 10, 10);
    }
}
