//! The two drives: the deployed shape (source and agent on two threads
//! over the in-memory pipe) and the single-thread baseline (the sink called
//! straight from the source's `send_frame`).
//!
//! Both run the same loop — `run_source` until the plan completes, and on
//! a scheduled connection cut one `PCTL` op on a fresh connection followed
//! by a reconnect-and-resume — through the [`Link`] trait, so a cut
//! schedule means the same thing on either drive.

use pinsql::ConfigEpoch;
use pinsql_engine::{
    pipe_pair, recv_hello, run_source, serve_agent, ByteConn, ControlMsg, ControlResp, FleetDelta,
    IngestSink, PipeConn, SourcePlan, SourceStats, TransportError, CONTROL_MAGIC,
};
use pinsql_obs::Observer;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A reconnectable [`ByteConn`]: what a source sees of its agent.
pub trait Link: ByteConn {
    /// Drops the current connection and opens a fresh one; with `cut`,
    /// the new connection tears after that many outbound bytes (length
    /// prefixes included), like a socket dying mid-write.
    fn reconnect(&mut self, cut: Option<usize>);
}

/// The single-thread link: `send_frame` runs the sink in place (routing
/// on the magic exactly as `serve_agent` does) and queues the reply for
/// `recv_frame`; each connection opens with the sink's `Hello`.
pub struct InlineLink<'a, O: Observer> {
    sink: IngestSink<'a, O>,
    replies: VecDeque<Vec<u8>>,
    /// Outbound byte budget before the connection tears.
    budget: Option<usize>,
    torn: bool,
    /// Wall of each `handle_event_frame` call, when asked for.
    sink_frame_us: Option<Vec<f64>>,
}

impl<'a, O: Observer> InlineLink<'a, O> {
    pub fn new(sink: IngestSink<'a, O>) -> Self {
        Self { sink, replies: VecDeque::new(), budget: None, torn: true, sink_frame_us: None }
    }

    /// A link that also times every call into the sink (traced run only).
    pub fn timed(sink: IngestSink<'a, O>) -> Self {
        Self { sink_frame_us: Some(Vec::new()), ..Self::new(sink) }
    }

    pub fn sink_frame_us(&self) -> &[f64] {
        self.sink_frame_us.as_deref().unwrap_or_default()
    }

    pub fn sink(&self) -> &IngestSink<'a, O> {
        &self.sink
    }

    pub fn into_sink(self) -> IngestSink<'a, O> {
        self.sink
    }
}

impl<O: Observer> ByteConn for InlineLink<'_, O> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.torn {
            return Err(TransportError::Io("inline link is cut".into()));
        }
        if let Some(budget) = &mut self.budget {
            let wire_len = 4 + frame.len();
            if *budget < wire_len {
                // A frame the cut lands inside never reaches the sink.
                self.torn = true;
                self.replies.clear();
                return Err(TransportError::Io("inline link cut mid-frame".into()));
            }
            *budget -= wire_len;
        }
        let reply = if frame.len() >= 4 && frame[..4] == CONTROL_MAGIC {
            self.sink.daemon_mut().handle_frame(frame)
        } else if let Some(samples) = &mut self.sink_frame_us {
            let t0 = Instant::now();
            let reply = self.sink.handle_event_frame(frame)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            reply
        } else {
            self.sink.handle_event_frame(frame)?
        };
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        Ok(self.replies.pop_front())
    }
}

impl<O: Observer> Link for InlineLink<'_, O> {
    fn reconnect(&mut self, cut: Option<usize>) {
        self.replies.clear();
        self.replies.push_back(self.sink.hello().to_bytes());
        self.budget = cut;
        self.torn = false;
    }
}

/// The two-thread link: each reconnect makes a fresh `pipe_pair`, hands
/// the agent end to the agent thread and keeps the source end (decorated
/// by `wrap`). The old source end is dropped first — that drop is the
/// close the agent's serve loop is waiting for.
pub struct PipeLink<C: ByteConn, W: Fn(PipeConn) -> C> {
    agent_ends: mpsc::Sender<PipeConn>,
    conn: Option<C>,
    wrap: W,
    max_frame_bytes: usize,
}

impl<C: ByteConn, W: Fn(PipeConn) -> C> PipeLink<C, W> {
    pub fn new(agent_ends: mpsc::Sender<PipeConn>, max_frame_bytes: usize, wrap: W) -> Self {
        Self { agent_ends, conn: None, wrap, max_frame_bytes }
    }

    fn conn(&mut self) -> Result<&mut C, TransportError> {
        self.conn.as_mut().ok_or(TransportError::Disconnected)
    }
}

impl<C: ByteConn, W: Fn(PipeConn) -> C> ByteConn for PipeLink<C, W> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.conn()?.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.conn()?.recv_frame()
    }
}

impl<C: ByteConn, W: Fn(PipeConn) -> C> Link for PipeLink<C, W> {
    fn reconnect(&mut self, cut: Option<usize>) {
        self.conn = None;
        let (source_end, agent_end) = pipe_pair(self.max_frame_bytes);
        if let Some(bytes) = cut {
            source_end.cut_outbound_after(bytes);
        }
        self.agent_ends.send(agent_end).expect("agent thread is alive while the link is");
        self.conn = Some((self.wrap)(source_end));
    }
}

/// What [`TimedConn`]s measured, summed over every connection of one end.
#[derive(Debug, Default)]
pub struct ConnTimings {
    /// Time blocked in `recv_frame`.
    pub recv_wait: Duration,
    /// Send → reply round trips, in microseconds.
    pub rtt_us: Vec<f64>,
}

/// A [`ByteConn`] that times the frames passing through it, byte for byte
/// unchanged: time blocked in `recv_frame`, and the send → reply round
/// trip (the protocol answers every source frame with exactly one reply,
/// in order, so a FIFO of send times matches them; only a source end's
/// round trips mean anything). Measurements are handed to the shared
/// totals when the connection drops.
pub struct TimedConn<C: ByteConn> {
    inner: C,
    sent_at: VecDeque<Instant>,
    local: ConnTimings,
    totals: Arc<Mutex<ConnTimings>>,
}

impl<C: ByteConn> TimedConn<C> {
    pub fn new(inner: C, totals: Arc<Mutex<ConnTimings>>) -> Self {
        Self { inner, sent_at: VecDeque::new(), local: ConnTimings::default(), totals }
    }
}

impl<C: ByteConn> ByteConn for TimedConn<C> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.sent_at.push_back(Instant::now());
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let t0 = Instant::now();
        let out = self.inner.recv_frame();
        let t1 = Instant::now();
        self.local.recv_wait += t1 - t0;
        if let (Ok(Some(_)), Some(sent)) = (&out, self.sent_at.pop_front()) {
            self.local.rtt_us.push((t1 - sent).as_secs_f64() * 1e6);
        }
        out
    }
}

impl<C: ByteConn> Drop for TimedConn<C> {
    fn drop(&mut self) {
        // A poisoned total only loses measurements; never panic in drop.
        if let Ok(mut totals) = self.totals.lock() {
            totals.recv_wait += self.local.recv_wait;
            totals.rtt_us.append(&mut self.local.rtt_us);
        }
    }
}

/// What one drive did, beyond the source's own counters.
#[derive(Debug, Clone, Default)]
pub struct DriveStats {
    pub source: SourceStats,
    /// Wall of the `PCTL` ops (fresh connection, op, reply).
    pub control_s: f64,
    pub control_ops: u64,
    /// Typed rejects outside a scheduled cut, refused or mismatched ops.
    pub failed: u64,
}

impl DriveStats {
    /// Attempted operations: frames sent and control ops.
    pub fn attempted(&self) -> u64 {
        self.source.frames_sent + self.control_ops
    }
}

/// Per-connection outbound byte budgets that tear the stream `cuts`
/// times, evenly spaced over the planned wire bytes. The odd offset lands
/// the cut inside a frame rather than on a boundary.
pub fn cut_schedule(wire_bytes: u64, cuts: usize) -> Vec<usize> {
    let segment = (wire_bytes / (cuts as u64 + 1)) as usize;
    (0..cuts).map(|_| segment | 1).collect()
}

/// The control op that follows cut number `k`: Restart → ConfigPush
/// (empty delta, next epoch) → HealthQuery, cycling.
pub fn control_op(k: usize, epoch: &mut ConfigEpoch) -> ControlMsg {
    match k % 3 {
        0 => ControlMsg::Restart,
        1 => {
            *epoch = epoch.next();
            ControlMsg::ConfigPush { epoch: *epoch, delta: FleetDelta::default() }
        }
        _ => ControlMsg::HealthQuery,
    }
}

/// Runs `plan` to completion over `link`, tearing the connection at each
/// budget in `cuts` and answering every tear with a control op on a fresh
/// connection before resuming. A transport error no cut explains, or a
/// control op the agent refuses, counts as failed and ends the drive.
pub fn drive(link: &mut dyn Link, plan: &mut SourcePlan, cuts: &[usize]) -> DriveStats {
    let mut stats = DriveStats::default();
    let mut epoch = ConfigEpoch::INITIAL;
    let mut next_cut = 0usize;
    loop {
        let armed = cuts.get(next_cut).copied();
        link.reconnect(armed);
        match run_source(link, plan) {
            Ok(()) => break,
            Err(_) if armed.is_some() => {
                let msg = control_op(next_cut, &mut epoch);
                next_cut += 1;
                let t0 = Instant::now();
                link.reconnect(None);
                let ok = control_roundtrip(link, &msg);
                stats.control_s += t0.elapsed().as_secs_f64();
                stats.control_ops += 1;
                if !ok {
                    stats.failed += 1;
                    break;
                }
            }
            Err(e) => {
                eprintln!("drive: unscheduled transport error: {e}");
                stats.failed += 1;
                break;
            }
        }
    }
    stats.source = plan.stats.clone();
    if !plan.finished() {
        stats.failed += 1;
    }
    stats
}

/// One control op over a fresh connection; true when the agent answered
/// with the response kind the op calls for.
fn control_roundtrip(link: &mut dyn Link, msg: &ControlMsg) -> bool {
    let reply = recv_hello(link)
        .and_then(|_| link.send_frame(&msg.to_bytes()))
        .and_then(|()| link.recv_frame());
    let resp = match reply {
        Ok(Some(bytes)) => ControlResp::from_bytes(&bytes),
        Ok(None) => return false,
        Err(e) => {
            eprintln!("drive: control op transport error: {e}");
            return false;
        }
    };
    let ok = resp.as_ref().is_ok_and(|resp| answers(msg, resp));
    if !ok {
        eprintln!("drive: control op {msg:?} answered {resp:?}");
    }
    ok
}

/// True when `resp` is the kind of response `msg` calls for: a rollup for
/// a health query, an ack for everything else.
pub fn answers(msg: &ControlMsg, resp: &ControlResp) -> bool {
    match msg {
        ControlMsg::HealthQuery => matches!(resp, ControlResp::Rollup { .. }),
        _ => matches!(resp, ControlResp::Ack { .. }),
    }
}

/// The agent thread's loop: serve each connection the link hands over
/// until the link is dropped, then give the sink back. A torn stream is
/// the expected end of a cut connection; the sink survives it.
pub fn agent_loop<'a, C: ByteConn, O: Observer>(
    agent_ends: mpsc::Receiver<PipeConn>,
    wrap: impl Fn(PipeConn) -> C,
    mut sink: IngestSink<'a, O>,
) -> IngestSink<'a, O> {
    for end in agent_ends {
        let mut conn = wrap(end);
        let _ = serve_agent(&mut conn, &mut sink);
    }
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, fleet_config, policy};
    use pinsql_engine::{EventFrame, FleetDaemon};

    /// A conn that answers every frame with the frame itself, so what
    /// went in and what came out can be compared byte for byte.
    #[derive(Default)]
    struct Echo {
        sent: Vec<Vec<u8>>,
        pending: VecDeque<Vec<u8>>,
    }

    impl ByteConn for Echo {
        fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
            self.sent.push(frame.to_vec());
            self.pending.push_back(frame.to_vec());
            Ok(())
        }

        fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            Ok(self.pending.pop_front())
        }
    }

    #[test]
    fn timed_conn_passes_frames_through_byte_identically() {
        let totals = Arc::new(Mutex::new(ConnTimings::default()));
        let frames: Vec<Vec<u8>> = vec![vec![], vec![0, 255, 7], (0..=255).collect()];
        {
            let mut conn = TimedConn::new(Echo::default(), Arc::clone(&totals));
            for f in &frames {
                conn.send_frame(f).unwrap();
            }
            for f in &frames {
                assert_eq!(conn.recv_frame().unwrap().as_deref(), Some(f.as_slice()));
            }
            assert_eq!(conn.recv_frame().unwrap(), None);
            assert_eq!(conn.inner.sent, frames);
            assert!(totals.lock().unwrap().rtt_us.is_empty(), "totals arrive at drop");
        }
        let totals = totals.lock().unwrap();
        assert_eq!(totals.rtt_us.len(), frames.len(), "one round trip per answered frame");
    }

    #[test]
    fn inline_link_is_the_sink_behind_a_conn() {
        let inputs = find("idle_fleet").unwrap().build(3, true);
        let sink =
            |inputs| IngestSink::new(FleetDaemon::spawn_hollow(fleet_config(), inputs), policy());
        let mut direct = sink(&inputs.scenarios);
        let mut link = InlineLink::new(sink(&inputs.scenarios));

        assert!(link.send_frame(b"x").is_err(), "no connection before the first reconnect");
        link.reconnect(None);
        assert_eq!(link.recv_frame().unwrap(), Some(direct.hello().to_bytes()));
        for frame in inputs.frames.iter().take(50) {
            let bytes = frame.to_bytes();
            link.send_frame(&bytes).unwrap();
            let reply = link.recv_frame().unwrap();
            assert_eq!(reply, Some(direct.handle_event_frame(&bytes).unwrap()));
        }
        assert_eq!(link.recv_frame().unwrap(), None);
        assert_eq!(link.sink().buffered(), direct.buffered());

        // A cut lands inside the frame that crosses the budget: that frame
        // never reaches the sink and the connection stays dead.
        let next = inputs.frames[50].to_bytes();
        link.reconnect(Some(4 + next.len() - 1));
        let before = link.sink().buffered();
        assert!(link.send_frame(&next).is_err());
        assert_eq!(link.sink().buffered(), before);
        assert!(link.send_frame(&next).is_err());
        assert_eq!(link.recv_frame().unwrap(), None);

        // The resume handshake then asks for exactly that frame.
        link.reconnect(None);
        let hello = EventFrame::from_bytes(&link.recv_frame().unwrap().unwrap()).unwrap();
        assert!(matches!(hello, EventFrame::Hello { next_seq: 51, .. }), "{hello:?}");
    }

    #[test]
    fn cut_schedule_spaces_odd_budgets_evenly() {
        assert!(cut_schedule(1_000_000, 0).is_empty());
        let cuts = cut_schedule(2_100_000, 20);
        assert_eq!(cuts, vec![100_001; 20]);
    }

    #[test]
    fn drive_survives_cuts_and_applies_every_event_once() {
        let inputs = find("lifecycle").unwrap().build(9, true);
        let wire: u64 = inputs.frames.iter().map(|f| 4 + f.to_bytes().len() as u64).sum();
        let cuts = cut_schedule(wire, 6);
        let daemon = FleetDaemon::spawn_hollow(fleet_config(), &inputs.scenarios);
        let mut link = InlineLink::new(IngestSink::new(daemon, policy()));
        let mut plan = SourcePlan::new(inputs.frames.clone());
        let stats = drive(&mut link, &mut plan, &cuts);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.source.resumes, 6);
        assert_eq!(stats.control_ops, 6);
        // A torn send is not counted; its resend is: every frame goes whole once.
        assert_eq!(stats.source.frames_sent, inputs.frames.len() as u64);
        let run = link.into_sink().finish();
        assert_eq!(run.report.events_total, inputs.events());
        assert_eq!(run.report.config_epoch, 2, "two of six ops were config pushes");
    }
}
