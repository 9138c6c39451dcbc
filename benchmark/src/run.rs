//! The untraced measurement: set-up, warm-up, timed reps of both drives,
//! output checks. Every end-to-end metric comes from here.

use crate::affinity::pin_to_nth_allowed_cpu;
use crate::check::{hollow_reference, outcome_keys, Checks, OutcomeKey, Verdicts};
use crate::drive::{agent_loop, cut_schedule, drive, DriveStats, InlineLink, PipeLink};
use crate::guard::{rep_deadline, Watchdog};
use crate::metrics::Values;
use crate::stats::{median, quiet_quarter, Summary};
use crate::workloads::{fleet_config, policy, Inputs, WorkloadSpec, PANEL_SEEDS};
use pinsql_engine::{ByteConn, FleetDaemon, FleetRun, IngestSink, PipeConn, SourcePlan};
use pinsql_obs::{NoopObserver, Observer};
use std::sync::mpsc;
use std::time::Instant;

/// Fewest timed reps of each drive on each fleet, however short the
/// run's `--seconds`.
pub const MIN_TIMED_REPS: usize = 3;

/// One fleet of a workload's shape set up and ready to drive: inputs, the
/// reference every drive must agree with, and the wire-level facts derived
/// from the plan.
pub struct Prepared {
    /// The seed the fleet was built from.
    pub seed: u64,
    pub inputs: Inputs,
    /// Wall of the set-up.
    pub setup_s: f64,
    /// `VmHWM` after the set-up, before any daemon of this fleet existed.
    pub inputs_rss_mib: f64,
    /// The wire-less reference: a hollow daemon fed by `offer_events`.
    pub reference: FleetRun,
    pub want: Vec<OutcomeKey>,
    /// Encoded size of each planned frame, length prefix excluded.
    pub frame_bytes: Vec<usize>,
    /// Planned bytes on the wire, length prefixes included.
    pub wire_bytes: u64,
    /// Per-connection byte budgets of the scheduled cuts.
    pub cuts: Vec<usize>,
    pub checks: Checks,
}

/// Sets a workload up at `seed` and builds the reference every drive must
/// agree with.
pub fn prepare(spec: &WorkloadSpec, seed: u64, quick: bool) -> Prepared {
    let inputs = spec.build(seed, quick);
    let setup_s = inputs.setup_s();
    let inputs_rss_mib = peak_rss_mib();
    let frame_bytes: Vec<usize> = inputs.frames.iter().map(|f| f.to_bytes().len()).collect();
    let wire_bytes: u64 = frame_bytes.iter().map(|b| 4 + *b as u64).sum();
    let cuts = cut_schedule(wire_bytes, spec.cuts);
    let reference = hollow_reference(&inputs);

    // Every generated event applied, one case per instance.
    let mut checks = Checks::default();
    let (events, n) = (inputs.events(), inputs.scenarios.len());
    checks.expect(reference.report.events_total == events, || {
        format!(
            "seed {seed}, hollow: {} events applied, {events} generated",
            reference.report.events_total
        )
    });
    checks.expect(reference.report.outcomes.len() == n, || {
        format!("seed {seed}, hollow: {} cases for {n} instances", reference.report.outcomes.len())
    });
    let want = outcome_keys(&reference);

    Prepared {
        seed,
        inputs,
        setup_s,
        inputs_rss_mib,
        reference,
        want,
        frame_bytes,
        wire_bytes,
        cuts,
        checks,
    }
}

/// What a rep hands back for checking.
pub struct Rep<R> {
    pub ingest_s: f64,
    pub stats: DriveStats,
    pub fin_received: bool,
    pub peak_buffered: usize,
    pub rest: R,
}

/// One inline rep: source and sink on this thread. Inputs are cloned and
/// the daemon built before the timer starts; `make_link` picks the plain
/// or the timing link, `finish` decides what becomes of the sink.
pub fn inline_rep<'a, O: Observer, T>(
    p: &'a Prepared,
    obs: O,
    make_link: fn(IngestSink<'a, O>) -> InlineLink<'a, O>,
    finish: impl FnOnce(InlineLink<'a, O>) -> T,
) -> Rep<T> {
    // One CPU for the drive, its folds and its finish: see `affinity`.
    let _pin = pin_to_nth_allowed_cpu(0);
    let daemon = FleetDaemon::spawn_hollow_observed(fleet_config(), &p.inputs.scenarios, obs);
    let mut link = make_link(IngestSink::new(daemon, policy()));
    let mut plan = SourcePlan::new(p.inputs.frames.clone());
    let t0 = Instant::now();
    let stats = drive(&mut link, &mut plan, &p.cuts);
    let ingest_s = t0.elapsed().as_secs_f64();
    drop(plan);
    let (fin_received, peak_buffered) = (link.sink().fin_received(), link.sink().peak_buffered());
    Rep { ingest_s, stats, fin_received, peak_buffered, rest: finish(link) }
}

/// One pipe rep: `run_source` here, `serve_agent` on one agent thread,
/// each pinned to a CPU of its own (see `affinity`). The two `wrap`s
/// decorate the respective end of every connection.
pub fn pipe_rep<'a, S: ByteConn, A: ByteConn>(
    p: &'a Prepared,
    wrap_source: impl Fn(PipeConn) -> S,
    wrap_agent: impl Fn(PipeConn) -> A + Send,
) -> Rep<IngestSink<'a>> {
    let daemon = FleetDaemon::spawn_hollow(fleet_config(), &p.inputs.scenarios);
    let sink = IngestSink::new(daemon, policy());
    let mut plan = SourcePlan::new(p.inputs.frames.clone());
    let (agent_ends, accepted) = mpsc::channel::<PipeConn>();
    let (ingest_s, stats, sink) = std::thread::scope(|scope| {
        // Source on one CPU, agent (and the folds it spawns) on the other:
        // the shape in which the two ends can overlap at all.
        let _pin = pin_to_nth_allowed_cpu(0);
        let agent = scope.spawn(move || {
            let _pin = pin_to_nth_allowed_cpu(1);
            agent_loop(accepted, wrap_agent, sink)
        });
        let mut link = PipeLink::new(agent_ends, policy().max_frame_bytes, wrap_source);
        let t0 = Instant::now();
        let stats = drive(&mut link, &mut plan, &p.cuts);
        let ingest_s = t0.elapsed().as_secs_f64();
        // Dropping the link closes the last connection and the channel,
        // which is what lets the agent loop return.
        drop(link);
        (ingest_s, stats, agent.join().expect("agent thread panicked"))
    });
    let (fin_received, peak_buffered) = (sink.fin_received(), sink.peak_buffered());
    Rep { ingest_s, stats, fin_received, peak_buffered, rest: sink }
}

/// Per-rep invariants that hold on every drive. The rep (it can hang) and
/// every frame and control op it sent count as attempted operations; one
/// that failed shows up as the first failed check here.
pub fn check_rep<R>(checks: &mut Checks, label: &str, rep: &Rep<R>, events: u64) {
    let s = &rep.stats;
    checks.attempted += s.attempted() + 1;
    checks.expect(s.failed == 0, || format!("{label}: {} failed operations", s.failed));
    checks.expect(rep.fin_received, || format!("{label}: sink never received Fin"));
    checks.expect(!s.source.watermark_regressed, || format!("{label}: watermark regressed"));
    checks.expect(rep.peak_buffered <= policy().queue_capacity, || {
        format!("{label}: peak buffered {} over the queue capacity", rep.peak_buffered)
    });
    checks.expect(s.source.events_sent >= events, || {
        format!("{label}: sent {} of {events} events", s.source.events_sent)
    });
}

/// A finished run reports every generated event and the reference cases.
pub fn check_run(checks: &mut Checks, label: &str, run: &FleetRun, p: &Prepared) {
    let events = p.inputs.events();
    checks.expect(run.report.events_total == events, || {
        format!("{label}: {} events applied, {events} generated", run.report.events_total)
    });
    checks.same_outcomes(label, &outcome_keys(run), &p.want);
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one workload and how they were arrived at.
pub struct Measured {
    pub values: Values,
    pub summaries: Vec<(String, Summary)>,
    /// What else a reader needs beside the values, one printable line each.
    pub notes: Vec<String>,
    pub checks: Checks,
}

/// One fleet's reps within a measurement.
struct Session<'a> {
    p: &'a Prepared,
    dog: &'a Watchdog,
    checks: Checks,
    /// Wall of every rep so far; the watchdog deadline follows its median.
    walls: Vec<f64>,
    first_inline: Option<DriveStats>,
    times: FleetTimes,
}

/// What the timed reps on one fleet came to, kept after the fleet is gone.
#[derive(Default)]
struct FleetTimes {
    seed: u64,
    events: f64,
    cases: f64,
    wire_bytes: f64,
    setup_s: f64,
    inputs_rss_mib: f64,
    /// Timed walls: pipe drive, inline drive, its `finish()`, and the
    /// control ops inside the inline drive.
    pipe_s: Vec<f64>,
    inline_s: Vec<f64>,
    finish_s: Vec<f64>,
    control_s: Vec<f64>,
}

impl Session<'_> {
    /// One pipe rep; returns the drive's wall. With `finish`, the sink is
    /// also finished (untimed) and its cases checked.
    fn pipe(&mut self, label: &str, finish: bool) -> f64 {
        let p = self.p;
        let rep = self.dog.guard(label, rep_deadline(&self.walls), || pipe_rep(p, |c| c, |c| c));
        check_rep(&mut self.checks, label, &rep, p.inputs.events());
        self.walls.push(rep.ingest_s);
        if finish {
            check_run(&mut self.checks, label, &rep.rest.finish(), p);
        }
        rep.ingest_s
    }

    /// One inline rep; returns `(drive wall, finish wall, control-op wall)`.
    /// Every inline rep is finished (that is `report_ms_per_case`) and
    /// checked, and — the drive being deterministic — must repeat the
    /// first rep's source counters exactly.
    fn inline(&mut self, label: &str) -> (f64, f64, f64) {
        let p = self.p;
        let rep = self.dog.guard(label, rep_deadline(&self.walls), || {
            inline_rep(p, NoopObserver, InlineLink::new, |link| {
                let sink = link.into_sink();
                let t0 = Instant::now();
                let run = sink.finish();
                (t0.elapsed().as_secs_f64(), run)
            })
        });
        check_rep(&mut self.checks, label, &rep, p.inputs.events());
        let (finish_s, run) = &rep.rest;
        self.walls.push(rep.ingest_s + finish_s);
        check_run(&mut self.checks, label, run, p);
        match &self.first_inline {
            None => self.first_inline = Some(rep.stats.clone()),
            Some(first) => self.checks.expect(first.source == rep.stats.source, || {
                format!(
                    "{label}: source counters differ from the first rep's: {:?} vs {:?}",
                    rep.stats.source, first.source
                )
            }),
        }
        (rep.ingest_s, *finish_s, rep.stats.control_s)
    }

    /// One discarded warm-up of each drive. The pipe warm-up is the one
    /// pipe rep that is finished, so this is where its cases are checked.
    fn warm_up(&mut self) {
        let seed = self.p.seed;
        self.pipe(&format!("seed {seed}, pipe drive warm-up"), true);
        self.inline(&format!("seed {seed}, inline drive warm-up"));
    }

    /// One timed rep of each drive.
    fn timed(&mut self) {
        let (seed, n) = (self.p.seed, self.times.pipe_s.len() + 1);
        let pipe_wall = self.pipe(&format!("seed {seed}, pipe drive rep {n}"), false);
        let (drive_wall, finish_wall, control_wall) =
            self.inline(&format!("seed {seed}, inline drive rep {n}"));
        println!(
            "  seed {seed} rep {n}: pipe {pipe_wall:.4} s, inline {drive_wall:.4} s, finish \
             {finish_wall:.4} s"
        );
        self.times.pipe_s.push(pipe_wall);
        self.times.inline_s.push(drive_wall);
        self.times.finish_s.push(finish_wall);
        self.times.control_s.push(control_wall);
    }
}

/// Runs the untraced drives. The workload's shape is set up at each of
/// the fixed [`PANEL_SEEDS`] and then at the run's own `seed`, one fleet
/// after the other (only one is ever resident): set-up, one discarded
/// warm-up of each drive, then timed reps of both in turn for a quarter
/// of `seconds`, at least [`MIN_TIMED_REPS`]. The panel members'
/// references are what the two accuracy metrics are scored on, and the
/// four set-ups are what `setup_s` is the median of.
///
/// A timing is taken per fleet as [`quiet_quarter`] of its reps and summed
/// over the fleets before it is divided by their events or cases. Three
/// of the four fleets are the same on every seed, because what one seed's
/// few cases cost to report differs by a fifth and more from seed to
/// seed: with them the spread between runs on different seeds is a quarter
/// of that, and what is left is the machine's.
pub fn measure(
    spec: &WorkloadSpec,
    seed: u64,
    quick: bool,
    seconds: f64,
    dog: &Watchdog,
) -> Measured {
    let seeds: Vec<u64> = PANEL_SEEDS.iter().copied().chain([seed]).collect();
    let mut checks = Checks::default();
    let mut panel = Verdicts::default();
    let mut fleets = Vec::new();
    for (i, fleet_seed) in seeds.iter().enumerate() {
        let mut p = prepare(spec, *fleet_seed, quick);
        checks.merge(std::mem::take(&mut p.checks));
        if i < PANEL_SEEDS.len() {
            panel.add(&p.reference);
        }
        let mut session = Session {
            p: &p,
            dog,
            checks: Checks::default(),
            walls: Vec::new(),
            first_inline: None,
            times: FleetTimes {
                seed: p.seed,
                events: p.inputs.events() as f64,
                cases: p.inputs.scenarios.len() as f64,
                wire_bytes: p.wire_bytes as f64,
                setup_s: p.setup_s,
                inputs_rss_mib: p.inputs_rss_mib,
                ..FleetTimes::default()
            },
        };
        session.warm_up();
        let started = Instant::now();
        let share = seconds / seeds.len() as f64;
        while session.times.pipe_s.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < share
        {
            session.timed();
        }
        checks.merge(session.checks);
        fleets.push(session.times);
    }

    let sum = |f: &dyn Fn(&FleetTimes) -> f64| fleets.iter().map(f).sum::<f64>();
    let events = sum(&|t| t.events);
    let setup_s: Vec<f64> = fleets.iter().map(|t| t.setup_s).collect();

    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set("events_per_s", events / sum(&|t| quiet_quarter(&t.pipe_s)));
    values.set("path_ns_per_event", sum(&|t| quiet_quarter(&t.inline_s)) * 1e9 / events);
    values
        .set("report_ms_per_case", sum(&|t| quiet_quarter(&t.finish_s)) * 1e3 / sum(&|t| t.cases));
    let peak_rss = peak_rss_mib();
    values.set("peak_rss_mb", peak_rss);
    values.set("wire_bytes_per_event", sum(&|t| t.wire_bytes) / events);
    values.set("rsql_top1_hit_rate", panel.rsql_top1_hit_rate());
    values.set("verdict_accuracy", panel.verdict_accuracy());

    let mut summaries = vec![("setup_s".to_string(), Summary::of(&setup_s))];
    for t in &fleets {
        let each = |v: &[f64], f: &dyn Fn(f64) -> f64| {
            Summary::of(&v.iter().map(|x| f(*x)).collect::<Vec<f64>>())
        };
        let seed = t.seed;
        summaries.extend([
            (format!("events_per_s, seed {seed}"), each(&t.pipe_s, &|x| t.events / x)),
            (format!("path_ns_per_event, seed {seed}"), each(&t.inline_s, &|x| x * 1e9 / t.events)),
            (format!("report_ms_per_case, seed {seed}"), each(&t.finish_s, &|x| x * 1e3 / t.cases)),
        ]);
    }
    let control_share =
        sum(&|t| median(&t.control_s)) / sum(&|t| median(&t.inline_s)).max(f64::MIN_POSITIVE);
    let first_rss = fleets[0].inputs_rss_mib;
    let notes = vec![
        format!(
            "events_per_s, path_ns_per_event and report_ms_per_case: per fleet the median of the \
             fastest quarter of its reps, summed over the {} fleets; the lines above describe \
             all reps of each fleet",
            fleets.len()
        ),
        format!("control ops: {:.1} % of the inline drive's wall", 100.0 * control_share),
        format!(
            "peak_rss_mb: {first_rss:.0} MiB ({:.0} %) of it were resident after the first set-up, \
             before any daemon existed: the harness's own copy of one fleet's inputs",
            100.0 * first_rss / peak_rss.max(f64::MIN_POSITIVE)
        ),
        format!(
            "accuracy panel (seeds {PANEL_SEEDS:?}): top-1 hits {}/{} anomaly cases, false \
             reports {}/{} negative cases",
            panel.top1_hits, panel.anomalies, panel.false_reports, panel.negatives
        ),
    ];

    Measured { values, summaries, notes, checks }
}
