//! The socketed ingest path beyond the equivalence matrix.
//!
//! `tests/equivalence.rs` pins the loopback transport (clean and with a
//! mid-frame reconnect) against the batch reference at every matrix
//! point. This suite keeps what is not a matrix cell: the `std::net` TCP
//! transport against the same reference, the region server's rollup merge
//! over many agents' `PCTL` health queries, protocol-role and sequence
//! discipline over raw frames, and the wire-reachable integer and
//! lifecycle extremes — an `Advance` / `Drain` boundary at the ends of
//! `i64`, a query naming a `spec` outside the instance's catalog, and an
//! `Advance` arriving at a drained agent.

mod common;

use common::{
    assert_run_matches_batch, batch_reference, drive_loopback, golden_fleet_config, live_policy,
    load_manifest, scenario_for, MatrixPoint,
};
use pinsql::TransportPolicy;
use pinsql_dbsim::{QueryRecord, TelemetryEvent};
use pinsql_engine::{
    pipe_pair, plan_frames, recv_hello, serve_agent, ControlMsg, ControlResp, DaemonState,
    EventFrame, FleetDaemon, IngestSink, RegionServer, SourcePlan, TcpConn,
};
use pinsql_scenario::{materialize_events, Scenario};
use pinsql_timeseries::WireError;
use pinsql_workload::SpecId;

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
    let scenarios: Vec<_> = entries.iter().map(scenario_for).collect();
    let cfg = golden_fleet_config(two_shards());

    let streams: Vec<_> = scenarios.iter().map(|s| materialize_events(s, None)).collect();
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
    let scenarios: Vec<_> = manifest.iter().map(scenario_for).collect();
    let mut region = RegionServer::new();

    let mut total_events = 0u64;
    for slice in scenarios.chunks(8) {
        let streams: Vec<_> = slice.iter().map(|s| materialize_events(s, None)).collect();
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

fn control(sink: &mut IngestSink<'_>, msg: ControlMsg) -> ControlResp {
    let reply = sink.daemon_mut().handle_frame(&msg.to_bytes());
    ControlResp::from_bytes(&reply).expect("well-formed control reply")
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
        assert!(matches!(control(&mut sink, ControlMsg::HealthQuery), ControlResp::Rollup { .. }));

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

    match control(&mut sink, ControlMsg::Drain { to_second: 1 }) {
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
    assert!(matches!(control(&mut sink, ControlMsg::HealthQuery), ControlResp::Rollup { .. }));
    // ...and after a Restart the re-sent Advance (same seq: it was never
    // applied) lands.
    assert!(matches!(
        control(&mut sink, ControlMsg::Restart),
        ControlResp::Ack { state: DaemonState::Running, .. }
    ));
    assert_eq!(acked_seq(&sink.handle_event_frame(&advance).expect("re-sent advance")), 2);
    assert_eq!(sink.buffered(), 0);
    assert_eq!(sink.daemon().watermark(), 5);
}
