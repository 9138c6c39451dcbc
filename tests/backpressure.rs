//! Backpressure: the ingest wire holds a hard memory bound under the
//! slowest legal consumer, and no fault or fold schedule changes the
//! final bytes.
//!
//! The policy is sized adversarially tight — one event-time second of
//! fleet traffic plus one batch — and the sink's pressure folds are
//! pushed to the last legal moment, so the source *must* stall on
//! credits to finish at all. The suite pins:
//!
//! * bounded memory — the sink's buffered high-water mark never exceeds
//!   `queue_capacity`, and the source's in-flight window never exceeds
//!   its credit grants;
//! * no loss, no reorder — the finished run is byte-identical to the
//!   batch reference on every case, stalls and folds included;
//! * monotone watermarks — no sink message ever moves time backwards;
//! * fault tolerance — a mid-frame tear on the data path and a severed
//!   ack path both resume cleanly on a fresh connection, replaying (or
//!   dropping) exactly the unacked window, still byte-identical.

mod common;

use common::{
    assert_run_matches_batch, batch_reference, busiest_second, drive_loopback, golden_fleet_config,
    golden_scenarios, golden_streams, load_manifest, ManifestEntry, MatrixPoint,
};
use pinsql::TransportPolicy;
use pinsql_engine::{
    pipe_pair, plan_frames, run_source, serve_agent, EventFrame, FleetDaemon, FleetRun,
    IngestSink, SourcePlan,
};
use pinsql_scenario::Scenario;
use pinsql_dbsim::TelemetryEvent;

const ADVANCE_EVERY_S: i64 = 1;
const BATCH_EVENTS: usize = 64;

fn point() -> MatrixPoint {
    MatrixPoint { shards: 2, ..MatrixPoint::BASELINE }
}

/// The four-scenario soak fixture: entries, scenarios, streams, and a
/// policy whose queue holds exactly one worst-case event-time second of
/// fleet traffic plus one batch — the tightest bound that stays live.
fn fixture() -> (Vec<ManifestEntry>, Vec<Scenario>, Vec<Vec<TelemetryEvent>>, TransportPolicy) {
    let manifest = load_manifest();
    let entries: Vec<_> = manifest.into_iter().take(4).collect();
    let scenarios = golden_scenarios(&entries);
    let streams = golden_streams(&entries);

    let policy = TransportPolicy::default()
        .with_queue_capacity(busiest_second(&streams) + BATCH_EVENTS)
        .with_batch_events(BATCH_EVENTS);
    policy.validate().expect("soak policy is valid");
    (entries, scenarios, streams, policy)
}

fn assert_matches_batch(entries: &[ManifestEntry], out: &FleetRun, what: &str) {
    assert_run_matches_batch(entries, &batch_reference(entries), &out.cases, &out.diagnoses, what);
}

/// The soak: a sink whose pressure folds only fire with the buffer
/// completely full (the slowest legal consumer — all regular folds come
/// from the source's per-second `Advance` marks), a queue sized to one
/// busiest second plus one batch, and the full four-scenario stream.
#[test]
fn slow_consumer_soak_holds_the_memory_bound_and_the_bytes() {
    let (entries, scenarios, streams, policy) = fixture();
    let total_events: usize = streams.iter().map(Vec::len).sum();

    let mut plan = SourcePlan::new(plan_frames(&streams, &policy, ADVANCE_EVERY_S));
    let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(golden_fleet_config(point()), &scenarios), policy)
        .with_fold_threshold(policy.queue_capacity);

    let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
    src.expect("source completes under the tight queue");
    agent.expect("agent clean close");
    assert!(plan.finished());
    assert!(sink.fin_received());

    // The memory bound, both ends of the wire.
    assert!(
        sink.peak_buffered() <= policy.queue_capacity,
        "sink buffered {} of a {}-event queue",
        sink.peak_buffered(),
        policy.queue_capacity
    );
    assert!(
        plan.stats.max_inflight_events <= policy.queue_capacity as u64,
        "in-flight window {} exceeded the credit bound {}",
        plan.stats.max_inflight_events,
        policy.queue_capacity
    );

    // The regulation actually happened: the stream is far larger than the
    // queue, so the source must have stalled on credits — and every
    // event still arrived exactly once, in order.
    assert!(total_events > 4 * policy.queue_capacity, "fixture must dwarf the queue");
    assert!(plan.stats.credit_stalls > 0, "a tight queue must stall the source");
    assert_eq!(plan.stats.events_sent, total_events as u64, "no loss, no duplicates");
    assert!(!plan.stats.watermark_regressed, "watermarks are monotone");
    assert!(plan.stats.last_watermark > i64::MIN, "folds actually advanced time");

    assert_matches_batch(&entries, &sink.finish(), "slow-consumer soak");
}

/// The fold schedule is invisible: an eager sink (fold at every
/// opportunity) and the lazy soak sink above produce byte-identical
/// runs from the same plan.
#[test]
fn fold_schedule_never_changes_the_bytes() {
    let (entries, scenarios, streams, policy) = fixture();
    let frames = plan_frames(&streams, &policy, ADVANCE_EVERY_S);

    let mut runs = Vec::new();
    for threshold in [1usize, policy.queue_capacity / 2] {
        let mut plan = SourcePlan::new(frames.clone());
        let mut sink =
            IngestSink::new(FleetDaemon::spawn_hollow(golden_fleet_config(point()), &scenarios), policy)
                .with_fold_threshold(threshold);
        let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
        src.expect("source completes");
        agent.expect("agent clean close");
        runs.push(sink.finish());
    }
    for run in &runs {
        assert_matches_batch(&entries, run, "fold-schedule variant");
    }
}

/// Data-path tear under pressure: the source→sink stream dies mid-frame
/// a third of the way in; the resumed connection replays the unacked
/// window and the run stays byte-identical, still inside the memory
/// bound.
#[test]
fn torn_data_path_resumes_exactly_once() {
    let (entries, scenarios, streams, policy) = fixture();
    let frames = plan_frames(&streams, &policy, ADVANCE_EVERY_S);
    let framed_bytes: usize = frames.iter().map(|f| 4 + f.to_bytes().len()).sum();

    let mut plan = SourcePlan::new(frames);
    let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(golden_fleet_config(point()), &scenarios), policy)
        .with_fold_threshold(policy.queue_capacity);

    let (src, _agent) =
        drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, Some(framed_bytes / 3 + 2));
    assert!(src.is_err(), "the source must notice the cut");
    assert!(!plan.finished());

    let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
    src.expect("resumed source completes");
    agent.expect("agent clean close");
    assert!(plan.finished());
    assert_eq!(plan.stats.resumes, 1);
    assert!(sink.peak_buffered() <= policy.queue_capacity, "the bound holds across the fault");

    assert_matches_batch(&entries, &sink.finish(), "torn-data-path run");
}

/// Ack-path severance: the sink keeps applying frames but its acks stop
/// arriving, so the source is left with an applied-but-unacked window.
/// The resume `Hello` advertises the sink's true position; the source
/// drops exactly the already-applied frames (`replays_skipped`) instead
/// of re-sending them, and the run stays byte-identical.
#[test]
fn severed_ack_path_drops_the_applied_window_on_resume() {
    let (entries, scenarios, streams, policy) = fixture();
    let mut plan = SourcePlan::new(plan_frames(&streams, &policy, ADVANCE_EVERY_S));
    let mut sink = IngestSink::new(FleetDaemon::spawn_hollow(golden_fleet_config(point()), &scenarios), policy);

    // First connection: cut the *agent's* outbound direction mid-stream,
    // well past the hello. Every sink frame (hello, ack) encodes to the
    // same framed length, so a budget of N½ frames is guaranteed to land
    // mid-ack — the applied-but-unacked shape this test is about.
    let ack_framed = 4 + EventFrame::Ack { seq: 0, credits: 0, watermark: 0 }.to_bytes().len();
    {
        let (mut source_conn, mut agent_conn) = pipe_pair(policy.max_frame_bytes);
        agent_conn.cut_outbound_after(ack_framed * 16 + ack_framed / 2);
        let sink_ref = &mut sink;
        std::thread::scope(|s| {
            let agent = s.spawn(move || {
                let _ = serve_agent(&mut agent_conn, sink_ref);
            });
            let src = run_source(&mut source_conn, &mut plan);
            assert!(src.is_err(), "losing the ack path must kill the connection");
            drop(source_conn);
            agent.join().expect("agent thread");
        });
    }
    assert!(!plan.finished());

    let (src, agent) = drive_loopback(&mut sink, &mut plan, policy.max_frame_bytes, None);
    src.expect("resumed source completes");
    agent.expect("agent clean close");
    assert!(plan.finished());
    assert_eq!(plan.stats.resumes, 1);
    assert!(
        plan.stats.replays_skipped > 0,
        "the resume hello must spare the source the already-applied window"
    );

    assert_matches_batch(&entries, &sink.finish(), "severed-ack-path run");
}

/// The sink's duplicate discipline at the frame level: a replayed frame
/// below `next_seq` is re-acked without being applied — the buffer does
/// not grow, time does not move, and the ack carries the current state.
#[test]
fn duplicate_frames_re_ack_without_reapplying() {
    let manifest = load_manifest();
    let scenarios = golden_scenarios(&manifest[..1]);
    let policy =
        TransportPolicy::default().with_queue_capacity(128).with_batch_events(16);
    let single = MatrixPoint { shards: 1, ..point() };
    let mut sink = IngestSink::new(
        FleetDaemon::spawn_hollow(golden_fleet_config(single), &scenarios),
        policy,
    );

    let batch = EventFrame::Batch {
        seq: 1,
        instance: 0,
        events: vec![TelemetryEvent::Tick { second: 0 }, TelemetryEvent::Tick { second: 1 }],
    }
    .to_bytes();

    let first = sink.handle_event_frame(&batch).expect("fresh frame applies");
    let buffered = sink.buffered();
    assert_eq!(buffered, 2);

    // The exact same bytes again: a reconnect replay.
    let second = sink.handle_event_frame(&batch).expect("duplicate re-acks");
    assert_eq!(sink.buffered(), buffered, "a duplicate must not re-apply");
    match (
        EventFrame::from_bytes(&first).expect("ack decodes"),
        EventFrame::from_bytes(&second).expect("ack decodes"),
    ) {
        (EventFrame::Ack { seq: a, .. }, EventFrame::Ack { seq: b, watermark, .. }) => {
            assert_eq!(a, 1);
            assert_eq!(b, 1, "the re-ack confirms the same applied position");
            assert_eq!(watermark, i64::MIN, "nothing folded, so time has not moved");
        }
        other => panic!("expected two acks, got {other:?}"),
    }
}
