//! The socketed ingest path beyond the equivalence matrix.
//!
//! `tests/equivalence.rs` pins the loopback transport (clean and with a
//! mid-frame reconnect) against the batch reference at every matrix
//! point. This suite keeps what is not a matrix cell: the `std::net` TCP
//! transport against the same reference, `TcpConn`'s framing over real
//! 127.0.0.1 sockets (runs of small frames, clean and torn closes, an
//! over-cap prefix), the region server's rollup merge over many agents'
//! `PCTL` health queries, a credit deadlock surfacing as a typed error,
//! protocol-role and sequence discipline over raw frames, and the
//! wire-reachable integer and lifecycle extremes — an `Advance` / `Drain`
//! boundary at the ends of `i64`, a query naming a `spec` outside the
//! instance's catalog, a NaN timestamp ahead of a backwards event, an
//! `Advance` arriving at a drained agent, and a seeded sweep of extreme
//! event *times* (a tick, a metric second or a query arrival at the ends
//! of `i64` / `f64`) spliced into an ordinary stream.

mod common;

use common::{
    assert_run_matches_batch, batch_reference, control, drive_loopback, golden_fleet_config,
    golden_scenarios, golden_streams, live_policy, load_manifest, scenario_for, small_scenario,
    MatrixPoint, GOLDEN_DELTA_S,
};
use pinsql::TransportPolicy;
use pinsql_dbsim::{MetricsSample, QueryRecord, TelemetryEvent};
use pinsql_engine::{
    pipe_pair, plan_frames, recv_hello, serve_agent, ByteConn, ControlMsg, ControlResp,
    DaemonState, EventFrame, FleetDaemon, IngestSink, OnlineInstance, RegionServer, SourcePlan,
    TcpConn, TransportError,
};
use pinsql_scenario::Scenario;
use pinsql_timeseries::WireError;
use pinsql_workload::rng::{rng_from_seed, RngExt};
use pinsql_workload::SpecId;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Advance cadence (event-time seconds) the suites stream under.
const ADVANCE_EVERY_S: i64 = 60;

fn two_shards() -> MatrixPoint {
    MatrixPoint { shards: 2, ..MatrixPoint::BASELINE }
}

/// The deployment transport: the same protocol over real `std::net`
/// sockets. A smoke subset keeps the suite fast — the matrix is pinned
/// over the loopback, which shares every code path above the
/// [`pinsql_engine::ByteConn`] seam.
#[test]
fn tcp_transport_smoke_matches_batch() {
    let manifest = load_manifest();
    let entries: Vec<_> = manifest.into_iter().take(4).collect();
    let scenarios = golden_scenarios(&entries);
    let cfg = golden_fleet_config(two_shards());

    let streams = golden_streams(&entries);
    let policy = TransportPolicy::default();
    let mut plan = SourcePlan::new(plan_frames(&streams, &policy, ADVANCE_EVERY_S));

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let wired = std::thread::scope(|s| {
        let agent = s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = TcpConn::new(stream, policy.max_frame_bytes);
            let mut sink =
                IngestSink::new(FleetDaemon::spawn_hollow(cfg.clone(), &scenarios), policy);
            serve_agent(&mut conn, &mut sink).expect("agent serves to a clean close");
            assert!(sink.fin_received());
            sink.finish()
        });
        let mut conn = TcpConn::connect(addr, policy.max_frame_bytes).expect("connect");
        pinsql_engine::run_source(&mut conn, &mut plan).expect("source completes over TCP");
        drop(conn);
        agent.join().expect("agent thread")
    });
    assert!(plan.finished());

    let batch = batch_reference(&entries);
    assert_run_matches_batch(&entries, &batch, &wired.cases, &wired.diagnoses, "TCP run");
}

/// The region layer: many agents, one merged rollup tree. Each agent
/// hosts a slice of the fleet; the region server polls each over the
/// `PCTL` plane of the same connection the ingest wire uses, and the
/// merged tree re-aggregates exactly.
#[test]
fn region_server_merges_rollups_from_many_agents() {
    let manifest = load_manifest();
    let scenarios = golden_scenarios(&manifest);
    let mut region = RegionServer::new();

    let mut total_events = 0u64;
    for (slice, entries) in scenarios.chunks(8).zip(manifest.chunks(8)) {
        let streams = golden_streams(entries);
        // Eight golden instances outrun the default queue; size it to
        // stay live.
        let policy = live_policy(&streams);
        let mut plan = SourcePlan::new(plan_frames(&streams, &policy, ADVANCE_EVERY_S));
        let cfg = golden_fleet_config(two_shards());
        let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(cfg, slice), policy);

        // Stream the slice in, then poll health on a fresh connection.
        let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
        src.expect("source completes");
        agent.expect("agent clean close");

        let (mut client, mut server) = pipe_pair(policy.max_frame_bytes);
        std::thread::scope(|s| {
            let agent = s.spawn(|| {
                let _ = serve_agent(&mut server, &mut sink);
            });
            let (next_seq, _credits, _watermark) =
                recv_hello(&mut client).expect("agent leads with its hello");
            assert!(next_seq > 1, "the agent remembers the applied stream");
            let rollup = region.poll_agent(&mut client).expect("health query over PCTL");
            assert_eq!(rollup.instances() as usize, slice.len());
            total_events += rollup.total.events_total;
            drop(client);
            agent.join().expect("agent thread");
        });
    }

    assert_eq!(region.agents(), 2, "one rollup per agent");
    let tree = region.tree();
    assert_eq!(tree.instances() as usize, scenarios.len(), "merge covers the whole fleet");
    assert!(tree.is_consistent(), "merged regions re-aggregate to the merged total");
    assert_eq!(tree.total.events_total, total_events, "merge is an exact sum");
}

/// A `TcpConn` under test on the accepting side of a fresh 127.0.0.1
/// connection, and the raw socket at the other end. Reads time out, so a
/// receive that waits for bytes nobody sends fails instead of hanging.
fn tcp_conn_and_raw_peer(max_frame_bytes: usize) -> (TcpConn, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let raw = TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    accepted.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    (TcpConn::new(accepted, max_frame_bytes), raw)
}

/// Length prefix and body, as the wire carries a frame.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// Bodies of 0 to 40 bytes, each distinct.
fn small_frames(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| (0..i % 41).map(|j| (i * 31 + j) as u8).collect()).collect()
}

/// Many small frames back to back come out whole and in order through the
/// read buffer — written as one burst by a raw peer (so one `read` holds
/// many frames and frames straddle reads), and sent frame by frame by
/// another `TcpConn`; the peer closing between frames is a clean `None`.
#[test]
fn tcp_conn_reads_runs_of_small_frames_and_a_clean_close() {
    let frames = small_frames(2000);

    let (mut conn, mut raw) = tcp_conn_and_raw_peer(1 << 16);
    raw.write_all(&frames.iter().flat_map(|f| framed(f)).collect::<Vec<u8>>()).expect("burst");
    drop(raw);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(conn.recv_frame().expect("frame").as_ref(), Some(f), "raw burst, frame {i}");
    }
    assert_eq!(conn.recv_frame().expect("clean close"), None);

    let (mut conn, raw) = tcp_conn_and_raw_peer(1 << 16);
    let mut sender = TcpConn::new(raw, 1 << 16);
    std::thread::scope(|s| {
        let frames = &frames;
        s.spawn(move || {
            for f in frames {
                sender.send_frame(f).expect("send");
            }
        });
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(conn.recv_frame().expect("frame").as_ref(), Some(f), "TcpConn, frame {i}");
        }
        assert_eq!(conn.recv_frame().expect("clean close"), None, "the sender dropped its end");
    });
}

/// A peer that closes inside a frame's prefix or body leaves a torn frame,
/// with the `got` / `want` counts the loopback pipe gives for a cut at the
/// same byte; a whole frame before it still arrives.
#[test]
fn tcp_conn_torn_counts_match_the_pipe() {
    let body: Vec<u8> = (0..10).collect();
    let wire = framed(&body);
    for cut in [1, 2, 3, 4, 5, 9, wire.len() - 1] {
        let (mut conn, mut raw) = tcp_conn_and_raw_peer(1 << 16);
        raw.write_all(&wire).expect("whole frame");
        raw.write_all(&wire[..cut]).expect("torn frame");
        drop(raw);
        assert_eq!(conn.recv_frame().expect("whole frame first"), Some(body.clone()));
        let tcp = conn.recv_frame();

        let (mut source, mut sink) = pipe_pair(1 << 16);
        source.cut_outbound_after(wire.len() + cut);
        source.send_frame(&body).expect("whole frame");
        assert!(source.send_frame(&body).is_err(), "cut at {cut}: the pipe tears");
        assert_eq!(sink.recv_frame().expect("whole frame first"), Some(body.clone()));
        let pipe = sink.recv_frame();

        let want = if cut < 4 { 4 } else { wire.len() };
        assert_eq!(tcp, Err(TransportError::Torn { got: cut, want }), "cut at {cut}");
        assert_eq!(tcp, pipe, "cut at {cut}: TCP and the pipe disagree");
    }
}

/// An over-cap length prefix is refused as soon as it is read: the peer
/// keeps the connection open and sends no body, so a reader that went on
/// to allocate and read one would time out instead.
#[test]
fn tcp_conn_refuses_an_over_cap_prefix_before_the_body() {
    for len in [65u32, 1 << 20, u32::MAX] {
        let (mut conn, mut raw) = tcp_conn_and_raw_peer(64);
        raw.write_all(&len.to_le_bytes()).expect("prefix");
        let t0 = Instant::now();
        assert_eq!(
            conn.recv_frame(),
            Err(TransportError::FrameTooLarge { len: len as usize, max: 64 }),
            "prefix {len}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "prefix {len}: waited for a body");
        drop(raw);
    }
}

/// A policy whose queue is smaller than the stream's fold horizon used to
/// wedge the loopback: eight golden instances under the default 8 192-event
/// queue and a 60 s `Advance` cadence leave the source a batch larger than
/// the sink's grant with nothing in flight — and it waited for an ack that
/// no frame would ever cause. The source now names the deadlock: the grant
/// and the batch. A watchdog bounds the drive, so a hang fails the test
/// instead of stalling the suite.
#[test]
fn a_credit_deadlock_is_a_typed_error_not_a_hang() {
    let (done, outcome) = mpsc::channel();
    let drive = std::thread::spawn(move || {
        let entries = &load_manifest()[..8];
        let (scenarios, streams) = (golden_scenarios(entries), golden_streams(entries));
        let policy = TransportPolicy::default();
        let mut plan = SourcePlan::new(plan_frames(&streams, &policy, ADVANCE_EVERY_S));
        let daemon = FleetDaemon::spawn_hollow(golden_fleet_config(two_shards()), &scenarios);
        let mut sink = IngestSink::new(daemon, policy);
        let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
        let _ = done.send((src, agent, sink.credits(), plan.finished()));
    });
    let (src, agent, sink_credits, finished) = outcome
        .recv_timeout(Duration::from_secs(180))
        .expect("the loopback hung: the source waited for an ack that cannot come");
    drive.join().expect("the drive sent its outcome and returned");
    match src {
        Err(TransportError::CreditDeadlock { credits, batch_events }) => {
            assert!(batch_events > credits, "{batch_events}-event batch vs grant {credits}");
            assert_eq!(credits, sink_credits, "the error names the sink's last grant");
        }
        other => panic!("expected a credit deadlock, got {other:?}"),
    }
    assert_eq!(agent, Ok(()), "the agent sees the source leave cleanly");
    assert!(!finished);
}

/// A NaN timestamp passes admission (the fold counts it as malformed), but
/// it used to become the time later events were held to, and `t < NaN` is
/// false for every `t`: a backwards event behind a NaN was admitted,
/// breaking the sorted-stream invariant the boundary split relies on. The
/// check now holds against the latest real time, inside one batch and
/// across batches.
#[test]
fn a_nan_timestamp_does_not_switch_off_the_order_check() {
    let query = |start_ms| {
        TelemetryEvent::Query(QueryRecord {
            spec: SpecId(0),
            start_ms,
            response_ms: 2.0,
            examined_rows: 1,
        })
    };
    let is_order_error = |r: Result<(), WireError>| {
        matches!(r, Err(WireError::Mismatch { what: "event stream order", .. }))
    };
    let scenarios = one_scenario();
    let mut agent =
        FleetDaemon::spawn_hollow(golden_fleet_config(MatrixPoint::BASELINE), &scenarios);

    let backwards = vec![query(10_000.0), query(f64::NAN), tick(5)];
    assert!(is_order_error(agent.offer_events(0, backwards)), "inside one batch");
    assert_eq!(agent.buffered_events(), 0, "the refused batch buffered nothing");

    agent.offer_events(0, vec![query(10_000.0), query(f64::NAN)]).expect("a NaN still passes");
    assert!(is_order_error(agent.offer_events(0, vec![tick(5)])), "across batches");
    agent.offer_events(0, vec![query(f64::NAN)]).expect("a NaN after a NaN passes");
    assert!(is_order_error(agent.offer_events(0, vec![query(9_999.0)])), "behind two NaNs");
    agent.offer_events(0, vec![query(10_000.0), tick(11)]).expect("in order behind the NaNs");
    assert_eq!(agent.buffered_events(), 5);
}

fn one_scenario() -> Vec<Scenario> {
    load_manifest().iter().take(1).map(scenario_for).collect()
}

fn small_sink(scenarios: &[Scenario]) -> IngestSink<'_> {
    let policy =
        TransportPolicy { queue_capacity: 64, batch_events: 16, ..TransportPolicy::default() };
    let cfg = golden_fleet_config(MatrixPoint::BASELINE);
    IngestSink::new(FleetDaemon::spawn_hollow(cfg, scenarios), policy)
}

fn tick(second: i64) -> TelemetryEvent {
    TelemetryEvent::Tick { second }
}

fn batch(seq: u64, events: Vec<TelemetryEvent>) -> Vec<u8> {
    EventFrame::Batch { seq, instance: 0, events }.to_bytes()
}

fn acked_seq(reply: &[u8]) -> u64 {
    match EventFrame::from_bytes(reply).expect("well-formed ack") {
        EventFrame::Ack { seq, .. } => seq,
        other => panic!("expected an ack, got {other:?}"),
    }
}

/// Protocol-role and sequence discipline over raw frames: a sink-minted
/// frame sent at the sink, a sequence gap, and a credit overrun are each
/// refused with the typed error — and the daemon survives all three.
#[test]
fn protocol_violations_are_typed_and_survivable() {
    let scenarios = one_scenario();
    let mut sink = small_sink(&scenarios);

    // Role violation: an Ack arriving at the sink.
    let ack = EventFrame::Ack { seq: 1, credits: 1, watermark: 0 }.to_bytes();
    let err = sink.handle_event_frame(&ack).expect_err("sink-minted frame refused");
    assert!(format!("{err}").contains("role"), "typed role error, got {err}");

    // Sequence gap: seq 2 before seq 1.
    let err = sink.handle_event_frame(&batch(2, vec![tick(0)])).expect_err("gap refused");
    assert!(format!("{err}").contains("gap"), "typed gap error, got {err}");

    // Credit overrun: one batch bigger than the whole queue.
    let flood = batch(1, (0..65).map(|_| tick(0)).collect());
    let err = sink.handle_event_frame(&flood).expect_err("overrun refused");
    assert!(format!("{err}").contains("overruns"), "typed credit error, got {err}");

    // The sink survives: the real seq 1 still applies and acks.
    let reply = sink.handle_event_frame(&batch(1, vec![tick(0)])).expect("valid frame lands");
    assert_eq!(acked_seq(&reply), 1);
}

/// Boundaries arrive off the wire as raw `i64`s. At either end of the
/// range the seconds → milliseconds step used to overflow (a debug panic;
/// in release a wrapped-negative boundary that folded nothing while the
/// watermark jumped, starving every later `Advance`). Now: no panic,
/// everything buffered folds, and later frames still apply.
#[test]
fn extreme_advance_boundaries_fold_everything_and_keep_the_wire_alive() {
    for boundary_s in [i64::MAX, i64::MAX / 2] {
        let scenarios = one_scenario();
        let mut sink = small_sink(&scenarios);

        sink.handle_event_frame(&batch(1, vec![tick(0), tick(1), tick(2)])).expect("batch lands");
        assert_eq!(sink.buffered(), 3);
        let advance = EventFrame::Advance { seq: 2, boundary_s }.to_bytes();
        let reply = sink.handle_event_frame(&advance).expect("extreme advance applies");
        assert_eq!(acked_seq(&reply), 2);
        assert_eq!(sink.buffered(), 0, "boundary {boundary_s}: everything buffered folds");
        assert_eq!(sink.daemon().watermark(), boundary_s);

        // Later frames still apply: the next batch lands, and the next
        // (clamped) Advance folds it.
        sink.handle_event_frame(&batch(3, vec![tick(3)])).expect("later batch lands");
        let later = EventFrame::Advance { seq: 4, boundary_s: 10 }.to_bytes();
        assert_eq!(acked_seq(&sink.handle_event_frame(&later).expect("later advance")), 4);
        assert_eq!(sink.buffered(), 0, "boundary {boundary_s}: later events fold too");
        assert_eq!(sink.daemon().rollup().total.events_total, 4, "nothing lost");
    }

    // The far-negative end: nothing is that early, so nothing folds — and
    // nothing is lost; an ordinary Advance then folds the buffer.
    let scenarios = one_scenario();
    let mut sink = small_sink(&scenarios);
    sink.handle_event_frame(&batch(1, vec![tick(0), tick(1)])).expect("batch lands");
    let advance = EventFrame::Advance { seq: 2, boundary_s: i64::MIN + 1 }.to_bytes();
    sink.handle_event_frame(&advance).expect("far-negative advance applies");
    assert_eq!(sink.buffered(), 2);
    assert_eq!(sink.daemon().watermark(), i64::MIN + 1);
    let later = EventFrame::Advance { seq: 3, boundary_s: 10 }.to_bytes();
    sink.handle_event_frame(&later).expect("later advance applies");
    assert_eq!(sink.buffered(), 0);
    assert_eq!(sink.daemon().watermark(), 10);
}

/// The same extremes through the control plane's `Drain { to_second }`.
#[test]
fn extreme_drain_boundaries_never_panic_the_agent() {
    for to_second in [i64::MAX, i64::MAX / 2, i64::MIN + 1] {
        let scenarios = one_scenario();
        let mut agent =
            FleetDaemon::spawn_hollow(golden_fleet_config(MatrixPoint::BASELINE), &scenarios);
        agent.offer_events(0, vec![tick(0), tick(1)]).expect("events offered");

        let reply = agent.handle_frame(&ControlMsg::Drain { to_second }.to_bytes());
        match ControlResp::from_bytes(&reply).expect("well-formed reply") {
            ControlResp::Ack { state, .. } => assert_eq!(state, DaemonState::Draining),
            other => panic!("drain to {to_second} must ack, got {other:?}"),
        }
        let left = if to_second > 0 { 0 } else { 2 };
        assert_eq!(agent.buffered_events(), left, "drain to {to_second}");
        assert_eq!(agent.rollup().total.events_total, 2 - left as u64, "drain to {to_second}");
        assert_eq!(agent.watermark(), to_second);

        // Still alive: health answers, a restart resumes the data plane.
        let reply = agent.handle_frame(&ControlMsg::HealthQuery.to_bytes());
        assert!(matches!(ControlResp::from_bytes(&reply), Ok(ControlResp::Rollup { .. })));
        let reply = agent.handle_frame(&ControlMsg::Restart.to_bytes());
        assert!(matches!(
            ControlResp::from_bytes(&reply),
            Ok(ControlResp::Ack { state: DaemonState::Running, .. })
        ));
        assert_eq!(agent.state(), DaemonState::Running);
    }
}

/// A query's `spec` arrives off the wire as a raw `u64` and indexes the
/// instance's template catalog at the next fold. Out of range, it used to
/// decode, pass admission (which checked only instance id and time
/// order), be *acked* — and kill the agent at the next fold ("index out
/// of bounds" in the catalog, inside the shard worker). Now the batch is
/// refused at admission with the typed error `PSNP` restore already gives
/// the same value: nothing applied, nothing acked, agent untouched, and
/// the corrected frame lands under the same `seq`.
#[test]
fn out_of_range_spec_is_refused_at_admission_not_fatal_at_the_fold() {
    let query = |spec| {
        TelemetryEvent::Query(QueryRecord {
            spec: SpecId(spec),
            start_ms: 500.0,
            response_ms: 2.0,
            examined_rows: 1,
        })
    };
    let good = batch(1, vec![query(0)]);
    // header 7 + section length 8 + seq 8 + instance 4 + count 8 + tag 1
    // = byte 36, where the one event's `spec` starts.
    const SPEC_AT: usize = 36;
    assert_eq!(good[SPEC_AT..SPEC_AT + 8], 0u64.to_le_bytes(), "layout drifted");

    for bad_spec in [1_000_000u64, u64::MAX] {
        let scenarios = one_scenario();
        let n_specs = scenarios[0].workload.specs.len() as u64;
        assert!(bad_spec >= n_specs);
        let mut sink = small_sink(&scenarios);

        let mut bad = good.clone();
        bad[SPEC_AT..SPEC_AT + 8].copy_from_slice(&bad_spec.to_le_bytes());
        let answer = sink.handle_event_frame(&bad);
        // The fold that used to die on the admitted record: nothing to
        // trip over now.
        sink.daemon_mut().advance_to(10);
        match answer {
            Err(WireError::Mismatch { what: "event spec", detail }) => {
                assert!(
                    detail.contains(&format!("({n_specs})")),
                    "detail names the range: {detail}"
                )
            }
            other => panic!("spec {bad_spec} must be a typed refusal, got {other:?}"),
        }
        assert_eq!(sink.buffered(), 0, "spec {bad_spec}: the refused batch buffered nothing");
        assert!(matches!(control(sink.daemon_mut(), ControlMsg::HealthQuery), ControlResp::Rollup { .. }));

        // Never applied, so the corrected frame lands under the same seq.
        assert_eq!(acked_seq(&sink.handle_event_frame(&good).expect("corrected frame lands")), 1);
        assert_eq!(sink.buffered(), 1);
        // The largest spec the catalog does hold is admitted and folds.
        let last = batch(2, vec![query(n_specs as usize - 1)]);
        assert_eq!(acked_seq(&sink.handle_event_frame(&last).expect("in-range spec lands")), 2);
        sink.daemon_mut().advance_to(20);
        assert_eq!(sink.buffered(), 0);
        assert_eq!(sink.daemon().rollup().total.events_total, 2, "spec {bad_spec}: both folded");
    }
}

/// `PCTL` Drain followed by `PEVT` Advance on the same connection used to
/// reach `advance_to`'s running-state assertion and kill the agent. The
/// sink now answers with the typed error `offer_events` already gives in
/// that state, leaves the frame unapplied, and the agent lives on.
#[test]
fn advance_at_a_drained_agent_is_refused_not_fatal() {
    let scenarios = one_scenario();
    let mut sink = small_sink(&scenarios);
    sink.handle_event_frame(&batch(1, vec![tick(0), tick(1), tick(2)])).expect("batch lands");

    match control(sink.daemon_mut(), ControlMsg::Drain { to_second: 1 }) {
        ControlResp::Ack { state, .. } => assert_eq!(state, DaemonState::Draining),
        other => panic!("drain must ack, got {other:?}"),
    }
    assert_eq!(sink.buffered(), 2, "the drain folded second 0");

    let advance = EventFrame::Advance { seq: 2, boundary_s: 5 }.to_bytes();
    match sink.handle_event_frame(&advance) {
        Err(WireError::Mismatch { what: "daemon state", detail }) => {
            assert!(detail.contains("draining"), "detail names the state: {detail}")
        }
        other => panic!("advance at a drained agent must be a typed refusal, got {other:?}"),
    }
    assert_eq!(sink.buffered(), 2, "the refused frame folded nothing");

    // The agent is alive and answers health...
    assert!(matches!(control(sink.daemon_mut(), ControlMsg::HealthQuery), ControlResp::Rollup { .. }));
    // ...and after a Restart the re-sent Advance (same seq: it was never
    // applied) lands.
    assert!(matches!(
        control(sink.daemon_mut(), ControlMsg::Restart),
        ControlResp::Ack { state: DaemonState::Running, .. }
    ));
    assert_eq!(acked_seq(&sink.handle_event_frame(&advance).expect("re-sent advance")), 2);
    assert_eq!(sink.buffered(), 0);
    assert_eq!(sink.daemon().watermark(), 5);
}

/// The aggregator section of a `PSNP` blob, its seven counters zeroed —
/// the fold's state with the bookkeeping of how it got there masked out.
fn fold_state(blob: &[u8]) -> Vec<u8> {
    let mut sections = Vec::new();
    let mut at = 8;
    while at < blob.len() {
        let len = u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
        sections.push(blob[at + 8..at + 8 + len].to_vec());
        at += 8 + len;
    }
    let [_meta, mut aggregator, _bank] = <[Vec<u8>; 3]>::try_from(sections).unwrap();
    // retention, history origin, reserved byte, slot count, slot ids.
    let n_slots = u64::from_le_bytes(aggregator[17..25].try_into().unwrap()) as usize;
    aggregator[25 + 8 * n_slots..][..7 * 8].fill(0);
    aggregator
}

/// What the fold must make of a spliced event, told from the event and
/// its position alone.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Dropped and counted as malformed; the fold's state is untouched.
    Malformed,
    /// Dropped and counted as late; the fold's state is untouched.
    Late,
    /// Neither counted nor applied (a tick behind the watermark).
    Ignored,
    /// Applied — a clock that legitimately jumped, or the event that
    /// starts a ring: only the bounds are claimed.
    Applied,
}

/// No event time, however extreme, panics the fold, takes unbounded time,
/// or makes a ring outgrow its retention; a spliced event the fold drops
/// leaves exactly the state the stream without it leaves; and the wire
/// path ends on the same bits as the direct one. 320 seeded cases: an
/// ordinary 20–60 s stream with one integer extreme spliced into a `Tick`
/// or a `Metrics.second`, or one float extreme into a `QueryRecord.
/// start_ms`, at a random position — driven through
/// `OnlineInstance::ingest_stream` (event by event and whole) and through
/// `IngestSink::handle_event_frame` + `Advance`.
#[test]
fn extreme_event_times_are_bounded_and_a_dropped_one_changes_nothing() {
    const INTS: [i64; 6] =
        [i64::MIN + 1, i64::MAX, i64::MAX / 2, 1_000_000_000_000, -1_000_000_000_000, 30_000_000];
    const FLOATS: [f64; 9] =
        [1e15, -1e15, f64::MAX, -f64::MAX, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 3e10];
    /// Generous: the slowest event here is microseconds; before the rings
    /// bounded their gaps one such event took seconds, or never returned.
    const PER_EVENT: Duration = Duration::from_secs(2);

    let scenarios = vec![small_scenario(7)];
    let scenario = &scenarios[0];
    let n_specs = scenario.workload.specs.len();
    let bound = (scenario.cfg.window_s + 120 + 1) as usize;
    let new_instance = || OnlineInstance::new(scenario, GOLDEN_DELTA_S);

    for seed in 0..320u64 {
        let mut rng = rng_from_seed(seed);
        let mut stream: Vec<TelemetryEvent> = Vec::new();
        for s in 0..rng.random_range(20..60u64) as i64 {
            for q in 0..rng.random_range(1..4u32) {
                stream.push(TelemetryEvent::Query(QueryRecord {
                    spec: SpecId(rng.random_range(0..n_specs)),
                    start_ms: s as f64 * 1000.0 + q as f64 * 300.0,
                    response_ms: rng.random_range(0.5..50.0),
                    examined_rows: rng.random_range(0..100u64),
                }));
            }
            stream.push(TelemetryEvent::Metrics(Box::new(MetricsSample {
                second: s,
                active_session: rng.random_range(1.0..9.0),
                ..Default::default()
            })));
            stream.push(tick(s + 1));
        }
        let at = rng.random_range(0..=stream.len());
        // The first sample both starts the metric ring and sets the
        // watermark; the first event, a query, starts the cell ring.
        let first_sample =
            stream.iter().position(|ev| matches!(ev, TelemetryEvent::Metrics(_))).unwrap();
        let (spliced, fate) = match seed % 3 {
            0 => {
                let second = INTS[rng.random_range(0..INTS.len())];
                let behind = at > first_sample && second < 0;
                (tick(second), if behind { Fate::Ignored } else { Fate::Applied })
            }
            1 => {
                let second = INTS[rng.random_range(0..INTS.len())];
                let sample = MetricsSample { second, active_session: 5.0, ..Default::default() };
                let fate = match at > first_sample {
                    false => Fate::Applied,
                    true if second < 0 => Fate::Late,
                    true => Fate::Malformed,
                };
                (TelemetryEvent::Metrics(Box::new(sample)), fate)
            }
            _ => {
                let start_ms = FLOATS[rng.random_range(0..FLOATS.len())];
                let fate = match start_ms {
                    t if !t.is_finite() => Fate::Malformed,
                    t if t == 0.0 || at == 0 => Fate::Applied,
                    t if t < 0.0 => Fate::Late,
                    _ => Fate::Malformed,
                };
                let rec = QueryRecord {
                    spec: SpecId(rng.random_range(0..n_specs)),
                    start_ms,
                    response_ms: 3.0,
                    examined_rows: 1,
                };
                (TelemetryEvent::Query(rec), fate)
            }
        };
        let ctx = format!("seed {seed}: {spliced:?} at {at}/{}", stream.len());
        let mut with = stream.clone();
        with.insert(at, spliced);

        // Directly, one event at a time: bounded after every one.
        let mut direct = new_instance();
        for (i, ev) in with.iter().enumerate() {
            let t0 = Instant::now();
            direct.ingest_stream(vec![ev.clone()]);
            assert!(t0.elapsed() < PER_EVENT, "{ctx}: event {i} took {:?}", t0.elapsed());
            let h = direct.health_snapshot();
            assert!(h.cell_seconds <= bound, "{ctx}: {} cell seconds at {i}", h.cell_seconds);
            assert!(h.metric_seconds <= bound, "{ctx}: {} metric seconds at {i}", h.metric_seconds);
        }
        let blob = direct.snapshot();

        // As one stream: runs of N end on the bits runs of one end on.
        let mut whole = new_instance();
        whole.ingest_stream(with.clone());
        assert!(whole.snapshot() == blob, "{ctx}: chunked and per-event ingest diverged");

        // Over the wire: every event its own batch, folded by the widest
        // Advance there is. A finite time at or past that boundary (a tick
        // at `i64::MAX`, a query at `f64::MAX`) stays buffered, and
        // admission refuses (typed) whatever comes after it; a NaN or
        // infinite time is held to nothing and wedges no stream. Short of
        // a refusal, the wire path ends on the direct path's bits.
        let mut sink = small_sink(&scenarios);
        let mut seq = 0;
        for (i, ev) in with.iter().enumerate() {
            let t0 = Instant::now();
            for is_batch in [true, false] {
                let frame = match is_batch {
                    true => batch(seq + 1, vec![ev.clone()]),
                    false => EventFrame::Advance { seq: seq + 1, boundary_s: i64::MAX }.to_bytes(),
                };
                match sink.handle_event_frame(&frame) {
                    Ok(reply) => {
                        seq += 1;
                        assert_eq!(acked_seq(&reply), seq, "{ctx}: event {i}");
                    }
                    Err(WireError::Mismatch { what: "event stream order", .. }) => {}
                    Err(e) => panic!("{ctx}: event {i}: {e}"),
                }
            }
            assert!(t0.elapsed() < PER_EVENT, "{ctx}: frames of {i} took {:?}", t0.elapsed());
            let total = sink.daemon().rollup().total;
            assert!(total.max_cell_seconds as usize <= bound, "{ctx}: wire, event {i}");
        }
        if sink.daemon().rollup().total.events_total == with.len() as u64 {
            let wired = sink.daemon().checkpoint().snapshots.remove(0);
            assert!(wired == blob, "{ctx}: the wire path and the direct path diverged");
        }

        // Against the stream without the spliced event.
        let mut plain = new_instance();
        plain.ingest_stream(stream);
        let (was, now) = (plain.health_snapshot(), direct.health_snapshot());
        let dropped = |malformed, late| {
            assert_eq!(now.events_ingested, was.events_ingested + 1, "{ctx}");
            assert_eq!(now.malformed_dropped, was.malformed_dropped + malformed, "{ctx}");
            assert_eq!(now.late_dropped, was.late_dropped + late, "{ctx}");
            assert_eq!(
                (now.queries_ingested, now.cells_folded, now.retention_evictions),
                (was.queries_ingested, was.cells_folded, was.retention_evictions),
                "{ctx}"
            );
            assert_eq!((now.history_minutes, now.watermark), (was.history_minutes, was.watermark));
            assert!(
                fold_state(blob.as_bytes()) == fold_state(plain.snapshot().as_bytes()),
                "{ctx}: a dropped event changed the fold's state"
            );
        };
        match fate {
            Fate::Malformed => dropped(1, 0),
            Fate::Late => dropped(0, 1),
            Fate::Ignored => dropped(0, 0),
            Fate::Applied => {}
        }
    }
}
