//! Cross-process ingest transport: the socketed agent/server pairing.
//!
//! Everything below [`crate::daemon`] assumed telemetry was already in
//! the agent's address space. This module is the missing production leg:
//! a telemetry **source** (the collector side of one deployment region)
//! streams [`TelemetryEvent`]s to a **sink** (a hollow
//! [`FleetDaemon`]-hosting agent) over a byte stream — `std::net` TCP in
//! deployment, an in-memory loopback pipe with byte-level fault injection
//! in the suites — and a **region server** merges health rollups from
//! many connected agents with the already-associative
//! [`FleetRollup`] algebra.
//!
//! ## Framing
//!
//! The byte stream carries length-prefixed frames (`u32` little-endian
//! length, then the frame bytes, capped by
//! [`TransportPolicy::max_frame_bytes`]). Each frame is a `PEVT`
//! [`EventFrame`] or a `PCTL` control frame — the agent routes on the
//! magic, so one connection speaks both planes. A stream that ends
//! between frames is a clean close ([`ByteConn::recv_frame`] returns
//! `None`); a stream that ends *inside* a frame is a torn connection and
//! surfaces as a typed [`TransportError::Torn`] — never a panic, never a
//! half-applied frame.
//!
//! ## Exactly-once, credits, and folds
//!
//! The source pre-plans its frame sequence ([`plan_frames`]): a global
//! event-time walk over the per-instance streams that batches runs of
//! same-instance events, flushes every open batch when the walk crosses
//! a second, and emits [`EventFrame::Advance`] marks on a fixed
//! event-time cadence. Every source frame carries one monotone sequence
//! number; the sink applies exactly `next_seq`, re-acks duplicates
//! (a reconnect replays the unacked window), and refuses gaps — so the
//! daemon's streams receive each instance's events exactly once, in
//! stream order, and [`IngestSink::finish`] is byte-identical to
//! [`crate::FleetEngine::run_full`] over the same scenarios.
//!
//! Backpressure is credit-based and deterministic. The sink's queue bound
//! is [`TransportPolicy::queue_capacity`] buffered events; every
//! [`EventFrame::Hello`]/[`EventFrame::Ack`] carries
//! `capacity − buffered` as an absolute credit grant, and the source
//! never lets its in-flight event count exceed the last grant — when a
//! batch does not fit it *blocks on acks* ([`SourceStats::credit_stalls`]
//! counts these), it does not send and hope; with nothing in flight no ack
//! can come, and it says so ([`TransportError::CreditDeadlock`]) instead
//! of waiting. Credits regenerate when the
//! sink folds buffered prefixes into the pipelines: on every
//! source `Advance`, and under **pressure** — when the buffer crosses the
//! fold threshold, the sink folds at the highest boundary its received
//! [`TelemetryEvent::Tick`]s prove complete (the minimum over instances
//! of the latest tick second). Tick `s` in stream order promises every
//! event strictly before second `s` has been sent, so a pressure fold is
//! always safe, and any fold schedule yields the same final bytes — only
//! per-instance event order reaches the pipelines.

use crate::control::{DaemonState, CONTROL_MAGIC};
use crate::daemon::FleetDaemon;
use crate::fleet::FleetRun;
use crate::wire::EventFrame;
use pinsql::TransportPolicy;
use pinsql_dbsim::{second_of, TelemetryEvent};
use pinsql_obs::{Counter, FleetRollup, NoopObserver, Observer, Stage};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use pinsql_timeseries::WireError;

/// A typed transport failure. Connection-level faults are recoverable —
/// the daemon keeps its state and a reconnecting source resumes from the
/// sink's `Hello` — so every variant is a value, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The byte stream died inside a frame (read `got` of `want` framed
    /// bytes, then EOF): a torn frame, the signature of a mid-write
    /// disconnect.
    Torn { got: usize, want: usize },
    /// A frame length prefix exceeded the policy cap — a hostile or
    /// corrupt stream, refused before any allocation.
    FrameTooLarge { len: usize, max: usize },
    /// The peer closed the stream cleanly where the protocol still
    /// expected traffic.
    Disconnected,
    /// A frame decoded but violated the `PEVT` protocol (bad role, a
    /// sequence gap, credit overrun) or failed to decode at all.
    Wire(WireError),
    /// The agent's control plane refused a `PCTL` request.
    Rejected(String),
    /// The peer answered with a frame the protocol cannot accept here.
    Protocol(&'static str),
    /// The source's next batch exceeds the sink's grant while nothing is
    /// in flight: no ack can come (the sink folds only when a frame
    /// arrives), so waiting would hang. The policy's queue is too small
    /// for the stream's fold horizon.
    CreditDeadlock { credits: u64, batch_events: u64 },
    /// An OS-level socket failure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Torn { got, want } => {
                write!(f, "torn frame: {got} of {want} bytes before EOF")
            }
            TransportError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap {max}")
            }
            TransportError::Disconnected => write!(f, "peer closed mid-protocol"),
            TransportError::Wire(e) => write!(f, "event wire: {e}"),
            TransportError::Rejected(reason) => write!(f, "control plane rejected: {reason}"),
            TransportError::Protocol(what) => write!(f, "protocol violation: {what}"),
            TransportError::CreditDeadlock { credits, batch_events } => write!(
                f,
                "credit deadlock: a {batch_events}-event batch exceeds the grant of {credits} \
                 with nothing in flight"
            ),
            TransportError::Io(e) => write!(f, "transport io: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// One duplex framed byte stream. Implementations must deliver frames
/// whole and in order — the `PEVT` sequence discipline detects loss and
/// duplication *across* connections, not reordering inside one.
pub trait ByteConn {
    /// Writes one frame (length prefix + bytes).
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError>;
    /// Reads one frame; `Ok(None)` is a clean close *between* frames.
    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError>;
}

fn check_len(len: usize, max: usize) -> Result<(), TransportError> {
    if len > max {
        return Err(TransportError::FrameTooLarge { len, max });
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` means a clean EOF before
/// the first byte, `Torn` an EOF after it.
fn read_full(r: &mut impl Read, buf: &mut [u8], ctx: usize) -> Result<bool, TransportError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && ctx == 0 {
                    return Ok(false);
                }
                return Err(TransportError::Torn { got: got + ctx, want: buf.len() + ctx });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// `std::net` TCP transport: one [`ByteConn`] per stream. A frame goes out
/// as one write (one segment under `TCP_NODELAY`) and comes in through a
/// read buffer (one `read` call per run of small frames, not two a frame).
#[derive(Debug)]
pub struct TcpConn {
    stream: BufReader<TcpStream>,
    /// Prefix and body of the frame being sent; reused across sends.
    out: Vec<u8>,
    max_frame_bytes: usize,
}

impl TcpConn {
    /// Wraps an accepted or connected stream under a frame-size cap.
    pub fn new(stream: TcpStream, max_frame_bytes: usize) -> Self {
        // Frames are small and latency-coupled (credits ride the acks);
        // Nagle would serialize the credit loop on the RTT timer.
        let _ = stream.set_nodelay(true);
        Self { stream: BufReader::new(stream), out: Vec::new(), max_frame_bytes }
    }

    /// Connects to an agent.
    pub fn connect(
        addr: impl std::net::ToSocketAddrs,
        max_frame_bytes: usize,
    ) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Self::new(stream, max_frame_bytes))
    }
}

impl ByteConn for TcpConn {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        check_len(frame.len(), self.max_frame_bytes)?;
        self.out.clear();
        self.out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.out.extend_from_slice(frame);
        self.stream.get_mut().write_all(&self.out).map_err(|e| TransportError::Io(e.to_string()))
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut len = [0u8; 4];
        if !read_full(&mut self.stream, &mut len, 0)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(len) as usize;
        check_len(len, self.max_frame_bytes)?;
        let mut frame = vec![0u8; len];
        read_full(&mut self.stream, &mut frame, 4)?;
        Ok(Some(frame))
    }
}

/// One direction of the in-memory loopback: whole frames in send order,
/// what a cut left of the frame it tore, and the fault plan
/// ([`cut_after`](PipeConn::cut_outbound_after) tears the stream at an
/// exact byte offset, the knife the fault-injection suites twist).
#[derive(Debug, Default)]
struct PipeDir {
    frames: VecDeque<Vec<u8>>,
    /// The `Torn { got, want }` a byte-stream reader would meet at EOF.
    torn: Option<(usize, usize)>,
    closed: bool,
    /// Remaining byte budget before this direction tears mid-stream.
    cut_after: Option<usize>,
    /// The reader is blocked here: only then does a send or close wake it.
    waiting: bool,
}

/// One end of an in-memory duplex loopback pipe — the test-harness
/// transport. It moves whole frames, and what a reader sees is what the
/// same bytes over TCP give: frames whole and in order, the same caps,
/// and under a byte-level cut the same torn counts or clean close.
#[derive(Debug)]
pub struct PipeConn {
    shared: Arc<(Mutex<[PipeDir; 2]>, Condvar)>,
    /// Index of the direction this end *writes*.
    out: usize,
    max_frame_bytes: usize,
}

const POISONED: &str = "an end of the loopback panicked holding its lock";

/// A connected loopback pair: frames sent on one end arrive on the other.
pub fn pipe_pair(max_frame_bytes: usize) -> (PipeConn, PipeConn) {
    let shared = Arc::new((Mutex::default(), Condvar::new()));
    (
        PipeConn { shared: Arc::clone(&shared), out: 0, max_frame_bytes },
        PipeConn { shared, out: 1, max_frame_bytes },
    )
}

impl PipeConn {
    /// Arms the fault: after `bytes` more outbound bytes, this end's
    /// stream tears — later bytes are dropped on the floor and the
    /// direction closes, exactly like a socket dying mid-write. A cut
    /// landing inside a frame leaves the peer a torn frame; a cut landing
    /// on a frame boundary looks like a clean close.
    pub fn cut_outbound_after(&self, bytes: usize) {
        self.shared.0.lock().expect(POISONED)[self.out].cut_after = Some(bytes);
    }
}

impl ByteConn for PipeConn {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        check_len(frame.len(), self.max_frame_bytes)?;
        let (lock, cvar) = &*self.shared;
        let mut dirs = lock.lock().expect(POISONED);
        let dir = &mut dirs[self.out];
        if dir.closed {
            return Err(TransportError::Io("loopback stream is cut".into()));
        }
        let want = 4 + frame.len();
        let got = dir.cut_after.map_or(want, |budget| budget.min(want));
        if let Some(budget) = &mut dir.cut_after {
            *budget -= got;
            dir.closed = *budget == 0;
        }
        if got == want {
            dir.frames.push_back(frame.to_vec());
        } else if got > 0 {
            dir.torn = Some((got, if got < 4 { 4 } else { want }));
        }
        if dir.waiting {
            cvar.notify_all();
        }
        if got < want {
            return Err(TransportError::Io("loopback stream cut mid-frame".into()));
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let inbound = 1 - self.out;
        let (lock, cvar) = &*self.shared;
        let mut dirs = lock.lock().expect(POISONED);
        loop {
            let dir = &mut dirs[inbound];
            if let Some(frame) = dir.frames.front() {
                // An over-cap frame stays queued, as its prefix would
                // stay unread on a socket.
                check_len(frame.len(), self.max_frame_bytes)?;
                return Ok(dir.frames.pop_front());
            }
            if dir.closed {
                let Some((got, want)) = dir.torn else { return Ok(None) };
                // A stream reader checks a whole prefix before the body.
                if got >= 4 {
                    check_len(want - 4, self.max_frame_bytes)?;
                }
                return Err(TransportError::Torn { got, want });
            }
            dir.waiting = true;
            dirs = cvar.wait(dirs).expect(POISONED);
            dirs[inbound].waiting = false;
        }
    }
}

impl Drop for PipeConn {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        if let Ok(mut dirs) = lock.lock() {
            let dir = &mut dirs[self.out];
            dir.closed = true;
            if dir.waiting {
                cvar.notify_all();
            }
        }
    }
}

/// The agent end of the ingest wire: a hollow [`FleetDaemon`] behind the
/// `PEVT` exactly-once / credit discipline. Transport-agnostic — frames
/// in, replies out — so the same sink sits behind TCP, the loopback
/// pipe, or a unit test feeding raw bytes.
#[derive(Debug)]
pub struct IngestSink<'a, O: Observer = NoopObserver> {
    daemon: FleetDaemon<'a, O>,
    policy: TransportPolicy,
    /// Buffered events at which a pressure fold triggers.
    fold_threshold: usize,
    /// Next source sequence number to apply (frames below it re-ack).
    next_seq: u64,
    /// Per instance: latest tick second received (`i64::MIN` before one).
    latest_tick: Vec<i64>,
    fin: bool,
    hellos: u64,
    peak_buffered: usize,
    obs: O,
}

impl<'a, O: Observer> IngestSink<'a, O> {
    /// Wraps a (typically hollow) daemon under `policy`.
    ///
    /// # Panics
    /// Panics on an invalid policy (a programmer error — see
    /// [`TransportPolicy::validate`]).
    pub fn new(daemon: FleetDaemon<'a, O>, policy: TransportPolicy) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid transport policy: {e}");
        }
        let n = daemon.n_instances();
        let obs = daemon.obs().fork("wire");
        Self {
            daemon,
            policy,
            fold_threshold: policy.queue_capacity / 2,
            next_seq: 1,
            latest_tick: vec![i64::MIN; n],
            fin: false,
            hellos: 0,
            peak_buffered: 0,
            obs,
        }
    }

    /// Overrides the buffered-events level that triggers a pressure fold
    /// (default: half the queue capacity). The backpressure suite raises
    /// it to the full capacity to model the slowest legal consumer; any
    /// value changes only *when* folds happen, never the final bytes.
    pub fn with_fold_threshold(mut self, events: usize) -> Self {
        self.fold_threshold = events;
        self
    }

    /// Mints the connection handshake: resume point, credit grant,
    /// watermark. Call once per (re)connect, before reading frames.
    pub fn hello(&mut self) -> EventFrame {
        self.hellos += 1;
        if O::ENABLED && self.hellos > 1 {
            self.obs.add(Counter::TransportResumes, 1);
        }
        EventFrame::Hello {
            next_seq: self.next_seq,
            credits: self.credits(),
            watermark: self.daemon.watermark(),
        }
    }

    /// Credits the sink can grant right now: capacity minus buffered.
    pub fn credits(&self) -> u64 {
        self.policy.queue_capacity.saturating_sub(self.daemon.buffered_events()) as u64
    }

    /// Events buffered but not yet folded.
    pub fn buffered(&self) -> usize {
        self.daemon.buffered_events()
    }

    /// Highest buffered depth ever observed — the backpressure suite's
    /// memory-bound witness.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// True once the source declared its stream complete.
    pub fn fin_received(&self) -> bool {
        self.fin
    }

    /// The hosted agent.
    pub fn daemon(&self) -> &FleetDaemon<'a, O> {
        &self.daemon
    }

    /// The hosted agent, mutably — the `PCTL` control plane rides this
    /// (the serve loop routes control frames straight to
    /// [`FleetDaemon::handle_frame`]).
    pub fn daemon_mut(&mut self) -> &mut FleetDaemon<'a, O> {
        &mut self.daemon
    }

    /// Applies one `PEVT` frame and returns the encoded reply frame.
    /// Malformed bytes, protocol-role violations, sequence gaps, and
    /// credit overruns come back as typed errors — the connection dies,
    /// the daemon does not.
    pub fn handle_event_frame(&mut self, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        let n0 = if O::ENABLED { self.obs.now_ns() } else { 0 };
        let frame = EventFrame::from_bytes(bytes)?;
        if O::ENABLED {
            self.obs.add(Counter::EventFrames, 1);
        }
        let seq = match frame.seq() {
            Some(seq) => seq,
            None => {
                return Err(WireError::Mismatch {
                    what: "event frame role",
                    detail: "sink received a sink-minted frame (hello/ack)".into(),
                })
            }
        };
        if seq > self.next_seq {
            return Err(WireError::Mismatch {
                what: "event frame seq",
                detail: format!("gap: expected {}, got {seq}", self.next_seq),
            });
        }
        if seq == self.next_seq {
            self.apply(frame)?;
            self.next_seq += 1;
        }
        // A frame below `next_seq` is a reconnect replay of something
        // already applied: re-ack it so the source's window advances.
        let ack = EventFrame::Ack {
            seq: self.next_seq - 1,
            credits: self.credits(),
            watermark: self.daemon.watermark(),
        };
        if O::ENABLED {
            self.obs.span(Stage::IngestWire, n0, self.obs.now_ns());
        }
        Ok(ack.to_bytes())
    }

    /// Tears the sink down into the final [`FleetRun`] — byte-identical
    /// to [`crate::FleetEngine::run_full`] over the same scenarios once
    /// the source's whole stream was applied.
    pub fn finish(self) -> FleetRun {
        self.daemon.finish()
    }

    fn apply(&mut self, frame: EventFrame) -> Result<(), WireError> {
        match frame {
            EventFrame::Batch { instance, events, .. } => {
                let buffered = self.daemon.buffered_events();
                if buffered + events.len() > self.policy.queue_capacity {
                    return Err(WireError::Mismatch {
                        what: "transport credits",
                        detail: format!(
                            "batch of {} events overruns buffer {buffered}/{}",
                            events.len(),
                            self.policy.queue_capacity
                        ),
                    });
                }
                let count = events.len() as u64;
                // The daemon's admission pass validates the batch and
                // finds its latest tick in one walk over the events.
                let latest = self.daemon.admit(instance as usize, events)?;
                if latest > i64::MIN {
                    if let Some(t) = self.latest_tick.get_mut(instance as usize) {
                        *t = (*t).max(latest);
                    }
                }
                if O::ENABLED {
                    self.obs.add(Counter::EventsWired, count);
                }
                self.peak_buffered = self.peak_buffered.max(self.daemon.buffered_events());
                self.pressure_fold();
                Ok(())
            }
            EventFrame::Advance { boundary_s, .. } => {
                // A drained or stopped agent refuses the data plane with
                // the same typed error `offer_events` gives — the frame
                // stays unapplied, so the source may re-send it after a
                // `Restart`.
                if self.daemon.state() != DaemonState::Running {
                    return Err(WireError::Mismatch {
                        what: "daemon state",
                        detail: format!("advance received in state {}", self.daemon.state()),
                    });
                }
                self.daemon.advance_to(boundary_s.max(self.daemon.watermark()));
                Ok(())
            }
            EventFrame::Fin { .. } => {
                self.fin = true;
                Ok(())
            }
            EventFrame::Hello { .. } | EventFrame::Ack { .. } => unreachable!("seq-gated"),
        }
    }

    /// When the buffer crosses the fold threshold, folds at the highest
    /// boundary the received ticks prove complete: the minimum over
    /// instances of the latest tick second. Tick `s` arrives (in stream
    /// order) before any event of second `s`, so every instance's events
    /// strictly before that minimum are already buffered — the fold is
    /// exactly an [`FleetDaemon::advance_to`] and regenerates credits.
    fn pressure_fold(&mut self) {
        if self.daemon.buffered_events() < self.fold_threshold {
            return;
        }
        let boundary = self.latest_tick.iter().copied().min().unwrap_or(i64::MIN);
        if boundary > self.daemon.watermark() && boundary > i64::MIN {
            self.daemon.advance_to(boundary);
        }
    }
}

/// Plans a source's full frame sequence over per-instance event streams:
/// a global `(time, instance)`-ordered walk that appends each event to
/// its instance's open batch, flushes a batch at
/// [`TransportPolicy::batch_events`], flushes *all* open batches when the
/// walk crosses an event-time second (bounding how far any instance's
/// sink-side tick horizon can lag), marks an [`EventFrame::Advance`]
/// every `advance_every_s` seconds of event time, and closes with
/// [`EventFrame::Fin`]. Sequence numbers are assigned in emission order
/// starting at 1. The plan is a pure function of its inputs — two sources
/// over the same streams emit identical frames.
#[allow(
    clippy::needless_range_loop,
    reason = "`flush!(j)` needs the index itself: it is the instance id on the frame"
)]
pub fn plan_frames(
    streams: &[Vec<TelemetryEvent>],
    policy: &TransportPolicy,
    advance_every_s: i64,
) -> Vec<EventFrame> {
    assert!(advance_every_s >= 1, "advance cadence must be at least one second");
    let n = streams.len();
    let mut idx = vec![0usize; n];
    let mut open: Vec<Vec<TelemetryEvent>> = (0..n).map(|_| Vec::new()).collect();
    let mut frames = Vec::new();
    let mut seq = 1u64;

    let mut push = |frame: EventFrame, seq: &mut u64| {
        frames.push(frame);
        *seq += 1;
    };
    macro_rules! flush {
        ($i:expr) => {
            if !open[$i].is_empty() {
                let events = std::mem::take(&mut open[$i]);
                push(EventFrame::Batch { seq, instance: $i as u32, events }, &mut seq);
            }
        };
    }

    let mut current_s = i64::MIN;
    let mut last_advance = i64::MIN;
    loop {
        // Deterministic k-way pick: earliest time, lowest instance wins.
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if let Some(ev) = streams[i].get(idx[i]) {
                let t = ev.time_ms();
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        let Some((t, i)) = best else { break };
        let s = second_of(t);
        if s > current_s {
            for j in 0..n {
                flush!(j);
            }
            // Everything strictly before second `s` has been emitted, so
            // `s` is a safe Advance boundary. (`saturating_sub`: before
            // the first Advance `last_advance` sits at `i64::MIN`, and
            // the first eligible crossing should always mark.)
            if current_s > i64::MIN && s.saturating_sub(last_advance) >= advance_every_s {
                push(EventFrame::Advance { seq, boundary_s: s }, &mut seq);
                last_advance = s;
            }
            current_s = s;
        }
        open[i].push(streams[i][idx[i]].clone());
        idx[i] += 1;
        if open[i].len() >= policy.batch_events {
            flush!(i);
        }
    }
    for j in 0..n {
        flush!(j);
    }
    push(EventFrame::Fin { seq }, &mut seq);
    frames
}

/// Source-side counters, accumulated across reconnects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceStats {
    /// Frames sent, replays included.
    pub frames_sent: u64,
    /// Events sent inside batches, replays included.
    pub events_sent: u64,
    /// Acks received.
    pub acks: u64,
    /// Reconnects that resumed from a sink `Hello` (first connect not
    /// counted).
    pub resumes: u64,
    /// Frames the sink told us were already applied (dropped unsent from
    /// the replay window at `Hello`).
    pub replays_skipped: u64,
    /// Times the source blocked on acks because the next batch did not
    /// fit the credit window.
    pub credit_stalls: u64,
    /// Highest in-flight (sent, unacked) event count.
    pub max_inflight_events: u64,
    /// Watermark of the last sink message.
    pub last_watermark: i64,
    /// True if any sink message's watermark moved backwards (the suites
    /// assert this stays false).
    pub watermark_regressed: bool,
}

/// The source end of the ingest wire: owns the planned frame sequence,
/// the unacked replay window, and the credit accounting. One value
/// survives any number of connections — call [`run_source`] with a fresh
/// conn after each disconnect and it resumes from the sink's `Hello`.
#[derive(Debug)]
pub struct SourcePlan {
    /// Planned but unsent frames, front first.
    pending: VecDeque<EventFrame>,
    /// Sent frames awaiting ack (the reconnect replay window).
    unacked: VecDeque<EventFrame>,
    /// Events inside `unacked` batches.
    unacked_events: u64,
    /// Absolute credit grant from the last sink message.
    credits: u64,
    connects: u64,
    /// Source-side counters.
    pub stats: SourceStats,
}

fn frame_events(frame: &EventFrame) -> u64 {
    match frame {
        EventFrame::Batch { events, .. } => events.len() as u64,
        _ => 0,
    }
}

impl SourcePlan {
    /// Wraps a planned frame sequence (see [`plan_frames`]).
    pub fn new(frames: Vec<EventFrame>) -> Self {
        Self {
            pending: frames.into(),
            unacked: VecDeque::new(),
            unacked_events: 0,
            credits: 0,
            connects: 0,
            stats: SourceStats { last_watermark: i64::MIN, ..SourceStats::default() },
        }
    }

    /// True when every frame has been sent *and* acked.
    pub fn finished(&self) -> bool {
        self.pending.is_empty() && self.unacked.is_empty() && self.connects > 0
    }

    fn observe_grant(&mut self, credits: u64, watermark: i64) {
        self.credits = credits;
        if watermark < self.stats.last_watermark {
            self.stats.watermark_regressed = true;
        }
        self.stats.last_watermark = self.stats.last_watermark.max(watermark);
    }

    /// Applies the sink's connect handshake: drop already-applied frames
    /// from the replay window, queue the rest for resend, reset credits.
    fn resume(&mut self, next_seq: u64, credits: u64, watermark: i64) {
        self.connects += 1;
        if self.connects > 1 {
            self.stats.resumes += 1;
        }
        while let Some(frame) = self.unacked.pop_back() {
            if frame.seq().expect("source frames are sequenced") >= next_seq {
                self.pending.push_front(frame);
            } else {
                self.stats.replays_skipped += 1;
            }
        }
        self.unacked_events = 0;
        self.observe_grant(credits, watermark);
    }

    fn on_ack(&mut self, seq: u64, credits: u64, watermark: i64) {
        self.stats.acks += 1;
        while self
            .unacked
            .front()
            .is_some_and(|f| f.seq().expect("source frames are sequenced") <= seq)
        {
            let f = self.unacked.pop_front().expect("front checked");
            self.unacked_events -= frame_events(&f);
        }
        self.observe_grant(credits, watermark);
    }

    /// The next frame, if the credit window admits it now.
    fn pop_sendable(&mut self) -> Option<EventFrame> {
        let next = self.pending.front()?;
        if self.unacked_events + frame_events(next) > self.credits {
            return None;
        }
        self.pending.pop_front()
    }
}

/// Drives a [`SourcePlan`] over one connection until the plan completes
/// or the connection dies. On an error the plan keeps its state — open a
/// new conn and call again to resume (the fault-injection suites do this
/// across deliberate mid-frame cuts).
pub fn run_source(conn: &mut dyn ByteConn, plan: &mut SourcePlan) -> Result<(), TransportError> {
    // The sink speaks first: its Hello carries the resume point.
    let (next_seq, credits, watermark) = recv_hello(conn)?;
    plan.resume(next_seq, credits, watermark);
    loop {
        while let Some(frame) = plan.pop_sendable() {
            let events = frame_events(&frame);
            let bytes = frame.to_bytes();
            // Into the replay window *before* the send: a frame whose
            // write dies mid-stream is in an unknowable state at the
            // sink, which is exactly what the window is for — the resume
            // replays it and the sink's seq discipline sorts it out.
            plan.unacked.push_back(frame);
            plan.unacked_events += events;
            plan.stats.max_inflight_events =
                plan.stats.max_inflight_events.max(plan.unacked_events);
            conn.send_frame(&bytes)?;
            plan.stats.frames_sent += 1;
            plan.stats.events_sent += events;
        }
        if plan.pending.is_empty() && plan.unacked.is_empty() {
            return Ok(());
        }
        if let Some(head) = plan.pending.front() {
            // The head frame is withheld for credits; only an ack (whose
            // grant reflects the sink's folds) can unblock it, and with
            // nothing in flight none will come.
            if plan.unacked.is_empty() {
                let batch_events = frame_events(head);
                return Err(TransportError::CreditDeadlock { credits: plan.credits, batch_events });
            }
            plan.stats.credit_stalls += 1;
        }
        match conn.recv_frame()? {
            Some(bytes) => match EventFrame::from_bytes(&bytes)? {
                EventFrame::Ack { seq, credits, watermark } => plan.on_ack(seq, credits, watermark),
                _ => return Err(TransportError::Protocol("expected ack")),
            },
            None => return Err(TransportError::Disconnected),
        }
    }
}

/// Serves one connection at the agent: sends the `Hello` handshake, then
/// routes each inbound frame by magic — `PCTL` to the daemon's control
/// plane, everything else through the `PEVT` sink — and writes the
/// reply. Returns when the peer closes cleanly; a torn stream or a
/// protocol violation surfaces as the typed error (the sink, and the
/// daemon inside it, survive for the next connection).
pub fn serve_agent<O: Observer>(
    conn: &mut dyn ByteConn,
    sink: &mut IngestSink<'_, O>,
) -> Result<(), TransportError> {
    conn.send_frame(&sink.hello().to_bytes())?;
    loop {
        match conn.recv_frame()? {
            Some(bytes) => {
                let reply = if bytes.len() >= 4 && bytes[..4] == CONTROL_MAGIC {
                    sink.daemon_mut().handle_frame(&bytes)
                } else {
                    sink.handle_event_frame(&bytes)?
                };
                conn.send_frame(&reply)?;
            }
            None => return Ok(()),
        }
    }
}

/// Reads and decodes the agent's `Hello` handshake — for clients (like a
/// region server's health poller) that connect for the control plane and
/// must consume the ingest handshake first.
pub fn recv_hello(conn: &mut dyn ByteConn) -> Result<(u64, u64, i64), TransportError> {
    match conn.recv_frame()? {
        Some(bytes) => match EventFrame::from_bytes(&bytes)? {
            EventFrame::Hello { next_seq, credits, watermark } => {
                Ok((next_seq, credits, watermark))
            }
            _ => Err(TransportError::Protocol("expected hello on connect")),
        },
        None => Err(TransportError::Disconnected),
    }
}

/// A regional aggregation point above many agents: absorbs each agent's
/// [`FleetRollup`] tree and serves the merged view. The merge is the
/// exact associative/commutative [`pinsql_obs::HealthRollup`] algebra, so
/// a region server's state is O(regions) however many agents report, and
/// any polling order yields the same tree.
#[derive(Debug, Default)]
pub struct RegionServer {
    merged: FleetRollup,
    agents: u64,
}

impl RegionServer {
    /// An empty aggregation point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one agent's rollup tree into the regional view.
    pub fn absorb(&mut self, tree: &FleetRollup) {
        self.merged.merge(tree);
        self.agents += 1;
    }

    /// Queries one connected agent's rollup over the `PCTL` plane and
    /// absorbs it. The caller must have consumed the connection's ingest
    /// `Hello` already (see [`recv_hello`]).
    pub fn poll_agent(&mut self, conn: &mut dyn ByteConn) -> Result<FleetRollup, TransportError> {
        use crate::control::{ControlMsg, ControlResp};
        conn.send_frame(&ControlMsg::HealthQuery.to_bytes())?;
        match conn.recv_frame()? {
            Some(bytes) => match ControlResp::from_bytes(&bytes)? {
                ControlResp::Rollup { rollup, .. } => {
                    self.absorb(&rollup);
                    Ok(rollup)
                }
                ControlResp::Reject { reason, .. } => Err(TransportError::Rejected(reason)),
                ControlResp::Ack { .. } => Err(TransportError::Protocol("ack for health query")),
            },
            None => Err(TransportError::Disconnected),
        }
    }

    /// Agents folded in so far.
    pub fn agents(&self) -> u64 {
        self.agents
    }

    /// The region's merged tree.
    pub fn tree(&self) -> &FleetRollup {
        &self.merged
    }
}

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod sweep_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_delivers_frames_and_clean_close() {
        let (mut a, mut b) = pipe_pair(1 << 16);
        a.send_frame(b"hello").unwrap();
        a.send_frame(b"").unwrap();
        assert_eq!(b.recv_frame().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv_frame().unwrap().unwrap(), b"");
        drop(a);
        assert_eq!(b.recv_frame().unwrap(), None, "drop is a clean close");
    }

    #[test]
    fn pipe_cut_mid_frame_is_torn() {
        let (mut a, mut b) = pipe_pair(1 << 16);
        // 4-byte prefix + 5-byte body = 9 bytes; cut at 6 leaves a torn
        // frame on the floor (prefix plus 2 of 5 body bytes).
        a.cut_outbound_after(6);
        assert!(a.send_frame(b"hello").is_err());
        assert!(matches!(b.recv_frame(), Err(TransportError::Torn { got: 6, want: 9 })));
    }

    #[test]
    fn pipe_cut_on_boundary_is_clean_close() {
        let (mut a, mut b) = pipe_pair(1 << 16);
        a.cut_outbound_after(9);
        a.send_frame(b"hello").unwrap(); // the whole frame fits the budget...
        assert!(a.send_frame(b"x").is_err(), "...and the stream dies right after it");
        assert_eq!(b.recv_frame().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_refused_both_ways() {
        let (mut a, _b) = pipe_pair(8);
        assert!(matches!(
            a.send_frame(&[0u8; 9]),
            Err(TransportError::FrameTooLarge { len: 9, max: 8 })
        ));
        // A hostile length prefix is refused at the reader before any
        // allocation: splice raw bytes in under a permissive sender cap.
        let (mut c, d) = pipe_pair(1 << 16);
        let mut small = PipeConn { shared: d.shared.clone(), out: d.out, max_frame_bytes: 8 };
        c.send_frame(&[0u8; 100]).unwrap();
        assert!(matches!(
            small.recv_frame(),
            Err(TransportError::FrameTooLarge { len: 100, max: 8 })
        ));
    }
}
