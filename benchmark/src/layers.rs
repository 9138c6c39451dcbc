//! The traced run: where a telemetry event's nanoseconds go.
//!
//! After (and apart from) the untraced drives, a single-thread pass
//! replaces `IngestSink` by its public constituents with a harness span
//! around each call, and isolation loops run each layer alone on the same
//! inputs. Every per-layer metric comes from here; no end-to-end metric
//! does.

use crate::affinity::pin_to_nth_allowed_cpu;
use crate::check::{Checks, Verdicts};
use crate::drive::{answers, control_op, ConnTimings, InlineLink, TimedConn};
use crate::guard::{rep_deadline, Watchdog};
use crate::metrics::Values;
use crate::run::{check_rep, check_run, inline_rep, pipe_rep, Prepared};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{busiest_second_events, fleet_config, policy};
use pinsql::{estimate_sessions, identify_rsqls, rank_hsqls, ConfigEpoch, PinSql};
use pinsql_collector::{IncrementalAggregator, IncrementalConfig};
use pinsql_dbsim::TelemetryEvent;
use pinsql_detect::OnlineDetectorBank;
use pinsql_engine::{
    run_source, serve_agent, ControlMsg, ControlResp, EventFrame, FleetDaemon, FleetDelta,
    FleetEngine, FleetRun, IngestSink, InstanceSnapshot, OnlineInstance, SourcePlan, TcpConn,
};
use pinsql_obs::{NoopObserver, RecordingObserver};
use pinsql_scenario::LabeledCase;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repeats of each per-instance isolation timing that reports a p50.
const ISOLATION_REPS: usize = 5;

/// What the traced run produced.
pub struct Traced {
    pub values: Values,
    pub tracer: Tracer,
    pub checks: Checks,
    /// The layer budget and what the tail metrics rest on, one printable
    /// line each.
    pub notes: Vec<String>,
}

/// Runs every traced and isolated measurement of one prepared workload.
pub fn traced(p: &Prepared, dog: &Watchdog) -> Result<Traced, String> {
    let mut v = Values::default();
    let mut checks = Checks::default();
    let mut tr = Tracer::new();
    let mut notes = Vec::new();
    // Everything single-threaded below runs on one CPU; the two-thread
    // drives place their agent on the other (see `affinity`).
    let _pin = pin_to_nth_allowed_cpu(0);

    shape_metrics(p, &mut v, &mut notes);
    transport_drives(p, dog, &mut v, &mut checks, &mut notes)?;
    let untraced_wall = observer_reps(p, dog, &mut v, &mut checks);

    let (path_wall, finish_wall, traced_run) =
        dog.guard("traced pass", rep_deadline(&[]), || traced_pass(p, &mut tr));
    check_run(&mut checks, "traced pass", &traced_run, p);

    let iso = tr.begin("isolation", 0);
    let cases = isolate_instances(p, &mut tr, &mut v);
    isolate_pinsql(&cases, &mut tr);
    tr.end(iso);
    control_ops(p, &mut v, &mut checks);
    case_facts(&p.reference, &mut v);

    layer_metrics(p, &tr, path_wall, finish_wall, untraced_wall, &mut v, &mut notes);

    // Unperturbed workloads must also equal the batch engine.
    if !p.inputs.perturbed {
        let batch = FleetEngine::new(fleet_config()).run_full(&p.inputs.scenarios);
        check_run(&mut checks, "run_full", &batch, p);
    }
    Ok(Traced { values: v, tracer: tr, checks, notes })
}

/// Sets a tail metric named for percentile `want`, and says in `notes`
/// what it rests on: `stats::tail` lowers the percentile when fewer than
/// ten samples lie beyond the one the name promises.
fn set_tail(v: &mut Values, notes: &mut Vec<String>, name: &'static str, want: f64, us: &[f64]) {
    let (p, value) = tail(us, want);
    v.set(name, value);
    let lowered = if p < want { " — too few samples for the percentile in the name" } else { "" };
    notes.push(format!("  {name}: p{} of n={}{lowered}", p * 100.0, us.len()));
}

/// What the generator produced and how the plan framed it.
fn shape_metrics(p: &Prepared, v: &mut Values, notes: &mut Vec<String>) {
    let inputs = &p.inputs;
    let events = inputs.events() as f64;
    v.set("scenario.generate_s", inputs.generate_s);
    v.set("scenario.materialize_s", inputs.materialize_s);
    v.set("scenario.events", events);
    let templates: usize = inputs.scenarios.iter().map(|s| s.workload.specs.len()).sum();
    v.set("scenario.templates_per_instance", templates as f64 / inputs.scenarios.len() as f64);
    let busiest = busiest_second_events(&inputs.streams);
    v.set("scenario.busiest_second_events", busiest as f64);
    // The issue's sufficient condition for a plan that cannot hang. It is
    // reported, not asserted: plans outside it need not hang (see README).
    let (need, capacity) = (2 * busiest as usize + policy().batch_events, policy().queue_capacity);
    notes.push(format!(
        "hang hazard: 2 x busiest second + one batch = {need} events against a queue of \
         {capacity}: {}",
        if need <= capacity { "inside the safe region" } else { "outside it; the watchdog guards" }
    ));
    v.set("transport.plan_frames_ns_per_event", inputs.plan_s * 1e9 / events);

    let (mut batch_bytes, mut batch_events) = (Vec::new(), Vec::new());
    for (frame, bytes) in inputs.frames.iter().zip(&p.frame_bytes) {
        if let EventFrame::Batch { events, .. } = frame {
            batch_bytes.push(4.0 + *bytes as f64);
            batch_events.push(events.len() as f64);
        }
    }
    v.set("wire.frame_bytes_p50", median(&batch_bytes));
    v.set("wire.events_per_frame_p50", median(&batch_events));
}

/// The drives again, this time with timing wrappers around the transport:
/// every sink call of an inline drive, both ends of every connection of a
/// pipe drive, and the same stream over TCP.
fn transport_drives(
    p: &Prepared,
    dog: &Watchdog,
    v: &mut Values,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let events = p.inputs.events();
    let deadline = rep_deadline(&[]);

    let rep = dog.guard("timed inline drive", deadline, || {
        inline_rep(p, NoopObserver, InlineLink::timed, |link| {
            let frame_us = link.sink_frame_us().to_vec();
            (frame_us, link.into_sink().finish())
        })
    });
    check_rep(checks, "timed inline", &rep, events);
    check_run(checks, "timed inline", &rep.rest.1, p);
    let source = &rep.stats.source;
    v.set("transport.frames", source.frames_sent as f64);
    v.set("transport.acks", source.acks as f64);
    v.set("transport.credit_stalls", source.credit_stalls as f64);
    v.set("transport.max_inflight_events", source.max_inflight_events as f64);
    v.set("transport.peak_buffered_events", rep.peak_buffered as f64);
    v.set("transport.sink_frame_us_p50", median(&rep.rest.0));
    set_tail(v, notes, "transport.sink_frame_us_p99", 0.99, &rep.rest.0);

    let source_t = Arc::new(Mutex::new(ConnTimings::default()));
    let agent_t = Arc::new(Mutex::new(ConnTimings::default()));
    let rep = dog.guard("timed pipe drive", deadline, || {
        let (s, a) = (Arc::clone(&source_t), Arc::clone(&agent_t));
        pipe_rep(
            p,
            move |c| TimedConn::new(c, Arc::clone(&s)),
            move |c| TimedConn::new(c, Arc::clone(&a)),
        )
    });
    check_rep(checks, "timed pipe", &rep, events);
    // Per resume the torn frame goes out again, and whatever else sat in
    // the unacked window is found already applied and dropped unsent.
    let source = &rep.stats.source;
    v.set("transport.resumes", source.resumes as f64);
    v.set("transport.replayed_frames", (source.resumes + source.replays_skipped) as f64);
    {
        let source_t = source_t.lock().expect("every timed connection has dropped");
        let agent_t = agent_t.lock().expect("every timed connection has dropped");
        v.set("transport.source_wait_share", source_t.recv_wait.as_secs_f64() / rep.ingest_s);
        v.set("transport.sink_idle_share", agent_t.recv_wait.as_secs_f64() / rep.ingest_s);
        v.set("transport.ack_rtt_us_p50", median(&source_t.rtt_us));
        set_tail(v, notes, "transport.ack_rtt_us_p99", 0.99, &source_t.rtt_us);
    }

    // A sandbox without a loopback interface reports 0 rather than failing
    // the run: this figure is informational and nothing else depends on it.
    let tcp_events_per_s = match dog.guard("tcp drive", deadline, || tcp_drive(p))? {
        Some((tcp_wall, tcp_run)) => {
            check_run(checks, "tcp", &tcp_run, p);
            events as f64 / tcp_wall
        }
        None => 0.0,
    };
    v.set("transport.tcp_events_per_s", tcp_events_per_s);
    Ok(())
}

/// The inline drive under a recording observer against the no-op one, two
/// alternating reps each. Returns the no-op median: the untraced baseline
/// the traced pass is compared with.
fn observer_reps(p: &Prepared, dog: &Watchdog, v: &mut Values, checks: &mut Checks) -> f64 {
    let deadline = rep_deadline(&[]);
    let (mut noop_s, mut recording_s) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let rep = dog.guard("inline drive (no-op observer)", deadline, || {
            inline_rep(p, NoopObserver, InlineLink::new, drop)
        });
        noop_s.push(rep.ingest_s);
        let rep = dog.guard("inline drive (recording observer)", deadline, || {
            inline_rep(p, RecordingObserver::new(), InlineLink::new, |link| {
                link.into_sink().finish()
            })
        });
        check_run(checks, "recording observer", &rep.rest, p);
        recording_s.push(rep.ingest_s);
    }
    let untraced_wall = median(&noop_s);
    v.set("obs.recording_overhead_share", median(&recording_s) / untraced_wall - 1.0);
    untraced_wall
}

/// Turns the recorded spans into the per-layer metrics and the printable
/// budget: do the layers add up to the path, and `finish()` to its parts?
fn layer_metrics(
    p: &Prepared,
    tr: &Tracer,
    path_wall: f64,
    finish_wall: f64,
    untraced_wall: f64,
    v: &mut Values,
    notes: &mut Vec<String>,
) {
    let events = p.inputs.events() as f64;
    let n_cases = p.inputs.scenarios.len() as f64;
    let lt = tr.layer_times();
    let total = |name: &str| lt.get(name).map_or(0.0, |l| l.total_ns as f64);
    let own = |name: &str| lt.get(name).map_or(0.0, |l| l.self_ns as f64);
    let count = |name: &str| lt.get(name).map_or(0.0, |l| l.count as f64);
    // Median of a span's durations, in units of `unit_ns`.
    let p50 = |name: &str, unit_ns: f64| median(&tr.durations_ns(name)) / unit_ns;
    let (us, ms) = (1e3, 1e6);

    v.set("wire.encode_ns_per_event", total("wire.encode") / events);
    v.set("wire.decode_ns_per_event", total("wire.decode") / events);
    v.set("transport.gate_ns_per_frame", own("sink.frame") / count("sink.frame").max(1.0));
    v.set("transport.source_ack_ns_per_frame", total("source.ack") / count("source.ack").max(1.0));
    v.set("daemon.offer_ns_per_event", total("daemon.offer") / events);
    v.set("daemon.advance_ns_per_event", total("daemon.advance") / events);
    v.set("daemon.advance_calls", count("daemon.advance"));
    v.set("daemon.advance_us_p50", p50("daemon.advance", us));
    // Folds come a few hundred to a run, which carries a p90 and no more.
    let advance_us: Vec<f64> = tr.durations_ns("daemon.advance").iter().map(|ns| ns / us).collect();
    set_tail(v, notes, "daemon.advance_us_p90", 0.90, &advance_us);
    v.set("daemon.finish_ms", finish_wall * 1e3);

    let instance_ns = total("instance.ingest") / events;
    let isolated_ns = (total("collector.fold") + total("detect.observe")) / events;
    let samples = count_metric_samples(&p.inputs.streams) as f64;
    v.set("instance.ingest_ns_per_event", instance_ns);
    v.set("instance.close_case_ms_p50", p50("instance.close_case", ms));
    v.set("instance.insitu_over_isolated", instance_ns / isolated_ns);
    v.set("snapshot.encode_us_p50", p50("snapshot.encode", us));
    v.set("snapshot.decode_us_p50", p50("snapshot.decode", us));
    v.set("snapshot.restore_us_p50", p50("snapshot.restore", us));
    v.set("collector.fold_ns_per_event", total("collector.fold") / events);
    v.set("collector.cut_us_p50", p50("collector.cut", us));
    v.set("detect.observe_ns_per_sample", total("detect.observe") / samples);
    v.set("pinsql.estimate_ms_p50", p50("pinsql.estimate", ms));
    v.set("pinsql.hsql_ms_p50", p50("pinsql.hsql", ms));
    v.set("pinsql.rsql_ms_p50", p50("pinsql.rsql", ms));
    v.set("pinsql.diagnose_ms_p50", p50("pinsql.diagnose", ms));
    let diagnose_max_ns = tr.durations_ns("pinsql.diagnose").into_iter().fold(0.0, f64::max);
    v.set("pinsql.diagnose_ms_max", diagnose_max_ns / ms);

    let path_layers = [
        "wire.encode",
        "wire.decode",
        "daemon.offer",
        "daemon.advance",
        "daemon.control",
        "source.ack",
    ];
    let gate_ns = own("sink.frame");
    let layer_sum = path_layers.iter().map(|l| total(l)).sum::<f64>() + gate_ns;
    let path_ns = path_wall * 1e9;
    v.set("trace.spans", tr.spans().len() as f64);
    v.set("trace.overhead_share", path_wall / untraced_wall - 1.0);
    v.set("trace.unaccounted_share", 1.0 - layer_sum / path_ns);

    let line = |layer: &str, ns: f64, note: &str| {
        format!(
            "  {layer:<16} {:>8.1} ns/event  {:>5.1} %{note}",
            ns / events,
            100.0 * ns / path_ns
        )
    };
    notes.push(format!(
        "path: traced {:.1} ns/event vs untraced inline {:.1} ns/event",
        path_ns / events,
        untraced_wall * 1e9 / events
    ));
    notes.extend(path_layers.iter().map(|layer| line(layer, total(layer), "")));
    notes.push(line("transport.gate", gate_ns, "  (sink.frame self time)"));
    notes.push(line("unaccounted", path_ns - layer_sum, "  (loop, clones, span bookkeeping)"));
    let finish_ms = finish_wall * 1e3;
    let close_ms = total("instance.close_case") / ms / ISOLATION_REPS as f64;
    let diagnose_ms = total("pinsql.diagnose") / ms;
    notes.push(format!(
        "report: daemon.finish {finish_ms:.1} ms = {:.1} ms/case; isolated close_case \
         {close_ms:.1} ms + diagnose {diagnose_ms:.1} ms leave {:.1} % unaccounted",
        finish_ms / n_cases,
        100.0 * (1.0 - (close_ms + diagnose_ms) / finish_ms)
    ));
}

fn count_metric_samples(streams: &[Vec<TelemetryEvent>]) -> usize {
    streams.iter().flatten().filter(|e| matches!(e, TelemetryEvent::Metrics(_))).count()
}

/// One plain connection over `TcpConn` on 127.0.0.1: wall of the source
/// drive and the finished run, or `None` when the loopback interface is
/// not there to bind or connect to. Connecting before the agent thread
/// starts (the kernel completes the handshake into the listen backlog)
/// means a failed connect cannot leave a thread stuck in `accept`.
fn tcp_drive(p: &Prepared) -> Result<Option<(f64, FleetRun)>, String> {
    let max = policy().max_frame_bytes;
    let loopback = TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l)));
    let (listener, mut conn) = match loopback {
        Ok((addr, listener)) => match TcpConn::connect(addr, max) {
            Ok(conn) => (listener, conn),
            Err(e) => {
                eprintln!("tcp drive skipped: {e}");
                return Ok(None);
            }
        },
        Err(e) => {
            eprintln!("tcp drive skipped: cannot bind 127.0.0.1: {e}");
            return Ok(None);
        }
    };
    let daemon = FleetDaemon::spawn_hollow(fleet_config(), &p.inputs.scenarios);
    let mut sink = IngestSink::new(daemon, policy());
    let mut plan = SourcePlan::new(p.inputs.frames.clone());
    std::thread::scope(|scope| {
        let agent = scope.spawn(move || {
            let _pin = pin_to_nth_allowed_cpu(1);
            let (stream, _) = listener.accept().map_err(|e| format!("tcp accept: {e}"))?;
            serve_agent(&mut TcpConn::new(stream, max), &mut sink)
                .map_err(|e| format!("tcp agent: {e}"))?;
            Ok::<_, String>(sink)
        });
        let t0 = Instant::now();
        let sent = run_source(&mut conn, &mut plan).map_err(|e| format!("tcp source: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        drop(conn);
        let sink = agent.join().expect("tcp agent thread panicked")?;
        sent?;
        Ok(Some((wall, sink.finish())))
    })
}

/// The single-thread traced pass: what `IngestSink::handle_event_frame`
/// does, spelled out over the daemon's public calls with a span around
/// each. Scheduled cuts fall on the same frames as in the drives (the
/// frame that would cross a connection's byte budget), and the control op
/// that answers each runs there under its own span. Returns `(ingest
/// wall, finish wall, run)`.
///
/// The fold rule below (half the queue, the slowest instance's latest
/// tick) is a copy of `IngestSink`'s private one. Only this pass's cases
/// are checked against the reference, not its fold schedule: a change to
/// the sink's policy has to be repeated here, or the per-layer figures
/// go on describing the old policy.
fn traced_pass(p: &Prepared, tr: &mut Tracer) -> (f64, f64, FleetRun) {
    let n = p.inputs.scenarios.len();
    let capacity = policy().queue_capacity;
    let mut daemon = FleetDaemon::spawn_hollow(fleet_config(), &p.inputs.scenarios);
    let mut latest_tick = vec![i64::MIN; n];
    let frames = p.inputs.frames.clone();
    let mut cuts = p.cuts.iter().copied().enumerate().peekable();
    let mut conn_bytes = 0usize;
    let mut epoch = ConfigEpoch::INITIAL;

    let root = tr.begin("path", 0);
    for frame in frames {
        let seq = frame.seq().unwrap_or(0);
        let bytes = tr.span("wire.encode", seq, || frame.to_bytes());
        if let Some((k, _)) = cuts.next_if(|(_, budget)| conn_bytes + 4 + bytes.len() > *budget) {
            let op = control_op(k, &mut epoch).to_bytes();
            std::hint::black_box(tr.span("daemon.control", seq, || daemon.handle_frame(&op)));
            conn_bytes = 0;
        }
        conn_bytes += 4 + bytes.len();
        let sink_frame = tr.begin("sink.frame", seq);
        let decoded = tr
            .span("wire.decode", seq, || EventFrame::from_bytes(&bytes))
            .expect("a frame just encoded decodes");
        match decoded {
            EventFrame::Batch { instance, events, .. } => {
                for ev in &events {
                    if let TelemetryEvent::Tick { second } = ev {
                        let t = &mut latest_tick[instance as usize];
                        *t = (*t).max(*second);
                    }
                }
                tr.span("daemon.offer", seq, || daemon.offer_events(instance as usize, events))
                    .expect("planned batches are in stream order");
                if daemon.buffered_events() >= capacity / 2 {
                    let boundary = latest_tick.iter().copied().min().unwrap_or(i64::MIN);
                    if boundary > daemon.watermark() {
                        tr.span("daemon.advance", seq, || daemon.advance_to(boundary));
                    }
                }
            }
            EventFrame::Advance { boundary_s, .. } => {
                let boundary = boundary_s.max(daemon.watermark());
                tr.span("daemon.advance", seq, || daemon.advance_to(boundary));
            }
            EventFrame::Fin { .. } | EventFrame::Hello { .. } | EventFrame::Ack { .. } => {}
        }
        let ack = EventFrame::Ack {
            seq,
            credits: capacity.saturating_sub(daemon.buffered_events()) as u64,
            watermark: daemon.watermark(),
        };
        let ack = ack.to_bytes();
        tr.end(sink_frame);
        // The source's side of the ack: decode it and let the acked frame
        // (its events with it) go, as `run_source`'s replay window does.
        tr.span("source.ack", seq, || {
            std::hint::black_box(EventFrame::from_bytes(&ack))
                .expect("an ack just encoded decodes");
            drop(frame);
        });
    }
    tr.end(root);
    let path_wall = tr.spans()[root].duration_ns() as f64 / 1e9;

    let finish = tr.begin("daemon.finish", 0);
    let run = daemon.finish();
    tr.end(finish);
    let finish_wall = tr.spans()[finish].duration_ns() as f64 / 1e9;
    (path_wall, finish_wall, run)
}

/// Per instance, each layer alone on the instance's own stream: the
/// collector fold and window cut, the detector bank, the whole
/// `OnlineInstance`, and a snapshot round trip at mid-stream. Returns the
/// closed cases for the diagnosis stages.
fn isolate_instances(p: &Prepared, tr: &mut Tracer, v: &mut Values) -> Vec<LabeledCase> {
    let cfg = fleet_config();
    let mut cases = Vec::new();
    let (mut cells, mut evictions, mut late, mut resident_max) = (0u64, 0u64, 0u64, 0usize);
    let mut snapshot_bytes = Vec::new();
    let mut onset_delay_s = Vec::new();

    for (i, (sc, stream)) in p.inputs.scenarios.iter().zip(&p.inputs.streams).enumerate() {
        let id = i as u64;

        // collector alone
        let mut agg = IncrementalAggregator::new(
            &sc.workload.specs,
            IncrementalConfig::default()
                .with_retention(sc.cfg.window_s + 120)
                .with_cut(cfg.pinsql.cut),
        );
        let mut events = stream.clone();
        tr.span("collector.fold", id, || agg.ingest_drain(&mut events));
        let window = &p.reference.cases[i].window;
        for _ in 0..ISOLATION_REPS {
            std::hint::black_box(
                tr.span("collector.cut", id, || agg.snapshot(window.ts(), window.te())),
            );
        }
        let stats = agg.stats();
        cells += stats.cells;
        evictions += stats.evictions;
        late += stats.late;
        resident_max = resident_max.max(agg.record_count());

        // detector bank alone
        let samples: Vec<_> = stream
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Metrics(m) => Some(m.as_ref()),
                _ => None,
            })
            .collect();
        let mut bank = OnlineDetectorBank::with_kernel(cfg.kernel);
        // Onset delay: the first closed → open edge at or after the
        // injected onset (a segment already open before it says nothing
        // about this anomaly), counted to the end of the second whose
        // sample tripped it — the sample only exists once that second ends.
        let mut opened_at = None;
        let mut was_open = false;
        tr.span("detect.observe", id, || {
            for m in &samples {
                bank.observe(m);
                let open = bank.any_open();
                if opened_at.is_none() && open && !was_open && m.second >= sc.cfg.anomaly_start {
                    opened_at = Some(m.second);
                }
                was_open = open;
            }
        });
        if let (false, Some(at)) = (sc.is_negative(), opened_at) {
            onset_delay_s.push((at + 1 - sc.cfg.anomaly_start) as f64);
        }

        // the whole instance: fold + detector in situ, then the case close
        let fresh = || {
            OnlineInstance::new(sc, cfg.delta_s).with_kernel(cfg.kernel).with_cut(cfg.pinsql.cut)
        };
        let mut inst = fresh();
        let events = stream.clone();
        tr.span("instance.ingest", id, || inst.ingest_stream(events));
        for _ in 1..ISOLATION_REPS {
            let copy = inst.clone();
            std::hint::black_box(tr.span("instance.close_case", id, || copy.close_case()));
        }
        cases.push(tr.span("instance.close_case", id, || inst.close_case()));

        // snapshot round trip at mid-stream
        let mid_ms = sc.cfg.window_s as f64 * 500.0;
        let half = stream.partition_point(|e| e.time_ms() < mid_ms);
        let mut inst = fresh();
        inst.ingest_stream(stream[..half].to_vec());
        for _ in 0..ISOLATION_REPS {
            let bytes = tr.span("snapshot.encode", id, || inst.snapshot()).into_bytes();
            snapshot_bytes.push(bytes.len() as f64);
            let snap = tr
                .span("snapshot.decode", id, || InstanceSnapshot::from_bytes(bytes))
                .expect("a snapshot just written validates");
            std::hint::black_box(
                tr.span("snapshot.restore", id, || OnlineInstance::restore(sc, &snap))
                    .expect("a validated snapshot restores"),
            );
        }
    }

    v.set("collector.cells_folded", cells as f64);
    v.set("collector.retention_evictions", evictions as f64);
    v.set("collector.late_dropped", late as f64);
    v.set("collector.records_resident_max", resident_max as f64);
    v.set("snapshot.bytes_per_instance", median(&snapshot_bytes));
    v.set("detect.onset_delay_s_p50", median(&onset_delay_s));
    cases
}

/// The three public diagnosis stages timed separately, then the whole
/// `diagnose` call, on every closed case.
fn isolate_pinsql(cases: &[LabeledCase], tr: &mut Tracer) {
    let cfg = fleet_config().pinsql;
    let diagnoser = PinSql::new(cfg.clone());
    for (i, lc) in cases.iter().enumerate() {
        let id = i as u64;
        let est = tr.span("pinsql.estimate", id, || estimate_sessions(&lc.case, &cfg));
        let hsql = tr.span("pinsql.hsql", id, || rank_hsqls(&lc.case, &est, &lc.window, &cfg));
        std::hint::black_box(tr.span("pinsql.rsql", id, || {
            identify_rsqls(&lc.case, &est, &hsql, &lc.window, &lc.history, lc.minutes_origin, &cfg)
        }));
        std::hint::black_box(tr.span("pinsql.diagnose", id, || {
            diagnoser.diagnose(&lc.case, &lc.window, &lc.history, lc.minutes_origin)
        }));
    }
}

/// Control ops against an agent quiesced at mid-window: restarts and
/// (empty) config pushes reseat every instance through the snapshot path;
/// health queries only read.
fn control_ops(p: &Prepared, v: &mut Values, checks: &mut Checks) {
    let mut daemon = FleetDaemon::spawn_hollow(fleet_config(), &p.inputs.scenarios);
    let mid_s = p.inputs.scenarios[0].cfg.window_s / 2;
    for (i, stream) in p.inputs.streams.iter().enumerate() {
        let half = stream.partition_point(|e| e.time_ms() < (mid_s * 1000) as f64);
        daemon.offer_events(i, stream[..half].to_vec()).expect("stream prefixes are in order");
    }
    daemon.advance_to(mid_s);

    let mut roundtrip = |msg: ControlMsg| {
        let frame = msg.to_bytes();
        let t0 = Instant::now();
        let reply = daemon.handle_frame(&frame);
        let took = t0.elapsed().as_secs_f64();
        let ok = ControlResp::from_bytes(&reply).is_ok_and(|resp| answers(&msg, &resp));
        checks.expect(ok, || format!("control op {msg:?} was refused"));
        took
    };
    let mut op_ms = Vec::new();
    let mut epoch = ConfigEpoch::INITIAL;
    for _ in 0..ISOLATION_REPS {
        op_ms.push(roundtrip(ControlMsg::Restart) * 1e3);
        epoch = epoch.next();
        let push = ControlMsg::ConfigPush { epoch, delta: FleetDelta::default() };
        op_ms.push(roundtrip(push) * 1e3);
    }
    let query_us: Vec<f64> =
        (0..2 * ISOLATION_REPS + 1).map(|_| roundtrip(ControlMsg::HealthQuery) * 1e6).collect();
    v.set("daemon.control_op_ms_p50", median(&op_ms));
    v.set("daemon.health_query_us_p50", median(&query_us));
}

/// Accuracy and case-shape figures from the reference run, that is, on
/// this run's seed. (The bounded accuracy metrics come from the fixed
/// panel of the untraced run: over one seed's few cases these move in
/// steps of tens of per cent, and can legitimately be 0.)
fn case_facts(run: &FleetRun, v: &mut Values) {
    let outcomes = &run.report.outcomes;
    let anomalies: Vec<_> = outcomes.iter().filter(|o| o.kind != "none").collect();
    let detected = anomalies.iter().filter(|o| o.detected).count();
    v.set("detect.detected_rate", detected as f64 / anomalies.len().max(1) as f64);
    v.set(
        "detect.features_closed",
        run.health.instances.iter().map(|h| h.features_closed as f64).sum(),
    );
    let mut verdicts = Verdicts::default();
    verdicts.add(run);
    v.set("pinsql.rsql_top1_hit_rate", verdicts.rsql_top1_hit_rate());
    v.set("pinsql.false_report_rate", verdicts.false_report_rate());
    let per_case = |f: &dyn Fn(&pinsql_engine::InstanceOutcome) -> f64| -> Vec<f64> {
        outcomes.iter().map(f).collect()
    };
    v.set("pinsql.templates_per_case_p50", median(&per_case(&|o| o.n_templates as f64)));
    v.set("pinsql.case_seconds_p50", median(&per_case(&|o| o.case_seconds as f64)));
    let reported = per_case(&|o| o.n_reported as f64);
    v.set("pinsql.reported_per_case", reported.iter().sum::<f64>() / reported.len() as f64);
}
