//! Seeded sweep comparing the frame-queue `PipeConn` with the byte-queue
//! oracle, operation by operation: the same sends, receives, cuts and
//! drops on both, and the same result from each — the frame's bytes, a
//! clean `None`, or the `TransportError` with its `got` / `want` / `len` /
//! `max`. Every case is a pure function of its seed, and a failure names
//! the seed.

use super::oracle::{self, BytePipe};
use super::{pipe_pair, ByteConn, PipeConn, TransportError};
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SEEDS: u64 = 256;
const OPS_PER_SEED: u64 = 96;
/// Cap of the two main ends: above every ordinary frame the sweep sends.
const CAP: usize = 32 * 1024;

/// A frame body: the sizes either side of a length prefix, up to a few
/// batches' worth, over the small end's cap, or at and over the main cap.
/// The bytes run from a random start, so a reordered or spliced frame
/// cannot pass for another of its length.
fn frame(rng: &mut StdRng, small_cap: usize) -> Vec<u8> {
    let len = match rng.random_range(0..8usize) {
        0..=2 => [0, 1, 3, 4, 5][rng.random_range(0..5usize)],
        3..=5 => rng.random_range(0..3 * 8192 + 1usize),
        6 => small_cap + 1 + rng.random_range(0..64usize),
        _ => CAP + rng.random_range(0..2usize),
    };
    let start: usize = rng.random();
    (0..len).map(|i| start.wrapping_add(i * 7) as u8).collect()
}

/// How often each outcome was seen, so the sweep can show it reached all.
#[derive(Debug, Default)]
struct Tally {
    frames: u64,
    clean_closes: u64,
    torn_in_prefix: u64,
    torn_in_body: u64,
    too_large_to_send: u64,
    too_large_to_receive: u64,
}

impl Tally {
    fn send(&mut self, result: &Result<(), TransportError>) {
        if let Err(TransportError::FrameTooLarge { .. }) = result {
            self.too_large_to_send += 1;
        }
    }

    fn recv(&mut self, result: &Result<Option<Vec<u8>>, TransportError>) {
        match result {
            Ok(Some(_)) => self.frames += 1,
            Ok(None) => self.clean_closes += 1,
            Err(TransportError::Torn { got, .. }) if *got < 4 => self.torn_in_prefix += 1,
            Err(TransportError::Torn { .. }) => self.torn_in_body += 1,
            Err(TransportError::FrameTooLarge { .. }) => self.too_large_to_receive += 1,
            Err(_) => {}
        }
    }
}

/// One seed: ends A and B of each transport, plus B' — a second end over
/// B's two directions under a smaller cap, spliced in the way
/// `oversized_frames_are_refused_both_ways` does it — driven by the same
/// random operations.
fn run_seed(rng: &mut StdRng, tally: &mut Tally) {
    let small_cap = [0, 3, 8, 100][rng.random_range(0..4usize)];
    let (a, b) = pipe_pair(CAP);
    let b_small =
        PipeConn { shared: Arc::clone(&b.shared), out: b.out, max_frame_bytes: small_cap };
    let mut new = [Some(a), Some(b), Some(b_small)];
    let (a, b) = oracle::pair(CAP);
    let b_small = b.with_cap(small_cap);
    let mut old = [Some(a), Some(b), Some(b_small)];

    let send = |n: &mut PipeConn, o: &mut BytePipe, frame: &[u8], what: &str, tally: &mut Tally| {
        let got = n.send_frame(frame);
        assert_eq!(got, o.send_frame(frame), "{what}: send of {} bytes", frame.len());
        tally.send(&got);
    };
    let recv = |n: &mut PipeConn, o: &mut BytePipe, what: &str, tally: &mut Tally| {
        let got = n.recv_frame();
        assert_eq!(got, o.recv_frame(), "{what}: receive");
        tally.recv(&got);
        matches!(got, Ok(Some(_)))
    };

    for op in 0..OPS_PER_SEED {
        // B' mostly meets over-cap frames, so it gets one op in ten.
        let end = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2][rng.random_range(0..10usize)];
        let what = format!("op {op}, end {end}");
        let (Some(n), Some(o)) = (&mut new[end], &mut old[end]) else { continue };
        match rng.random_range(0..32usize) {
            0..=15 => send(n, o, &frame(rng, small_cap), &what, tally),
            16..=27 if !o.would_block() => {
                recv(n, o, &what, tally);
            }
            28..=29 => {
                // Arm a cut relative to the frame sent right after it: at
                // offset 0, inside the prefix, inside the body, exactly on
                // its end, or past it into later frames.
                let frame = frame(rng, small_cap);
                let wire = 4 + frame.len();
                let at = match rng.random_range(0..5usize) {
                    0 => 0,
                    1 => 1 + rng.random_range(0..3usize),
                    2 => 4 + rng.random_range(0..frame.len().max(1)),
                    3 => wire,
                    _ => wire + rng.random_range(0..64usize),
                };
                n.cut_outbound_after(at);
                o.cut_outbound_after(at);
                send(n, o, &frame, &format!("{what}, cut at {at}"), tally);
            }
            30 if end < 2 => {
                new[end] = None;
                old[end] = None;
            }
            _ => {}
        }
    }

    // Close everything and read each end dry: dropping B' closes what A
    // reads, dropping A closes what B reads.
    for (close, read) in [(2, 0), (0, 1)] {
        new[close] = None;
        old[close] = None;
        if let (Some(n), Some(o)) = (&mut new[read], &mut old[read]) {
            let what = format!("drain of end {read}");
            while recv(n, o, &what, tally) {}
        }
    }
}

#[test]
fn frame_queue_matches_the_byte_queue_oracle() {
    let current = Arc::new(AtomicU64::new(0));
    let (done, finished) = mpsc::channel();
    let at = Arc::clone(&current);
    let sweep = std::thread::spawn(move || {
        let mut tally = Tally::default();
        sweep(0..SEEDS, |seed, rng| {
            at.store(seed, Ordering::Relaxed);
            run_seed(rng, &mut tally);
        });
        let _ = done.send(tally);
    });
    // Where the frame queue waits and the oracle would not, the sweep
    // hangs rather than fails: the clock fails it, naming the seed.
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(tally) => {
            sweep.join().expect("the sweep sent its tally and returned");
            for (outcome, n) in [
                ("frames", tally.frames),
                ("clean closes", tally.clean_closes),
                ("tears inside a prefix", tally.torn_in_prefix),
                ("tears inside a body", tally.torn_in_body),
                ("over-cap sends", tally.too_large_to_send),
                ("over-cap receives", tally.too_large_to_receive),
            ] {
                assert!(n >= 20, "the sweep reached only {n} {outcome}: {tally:?}");
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "seed {}: a receive blocked where the oracle returns",
            current.load(Ordering::Relaxed)
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(sweep.join().expect_err("the sweep ended without a tally"))
        }
    }
}
