//! A byte-queue loopback pipe: the reference `sweep_tests` holds the
//! frame-queue `PipeConn` to. Every frame goes into a `VecDeque<u8>`
//! behind its length prefix and comes out a byte at a time, so torn
//! counts, caps and clean closes fall out of the byte stream itself.

use super::{check_len, ByteConn, TransportError};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Default)]
struct PipeDir {
    buf: VecDeque<u8>,
    closed: bool,
    /// Remaining byte budget before this direction tears mid-stream.
    cut_after: Option<usize>,
}

/// One end of the byte-queue loopback.
#[derive(Debug)]
pub(super) struct BytePipe {
    shared: Arc<(Mutex<[PipeDir; 2]>, Condvar)>,
    /// Index of the direction this end *writes*.
    out: usize,
    max_frame_bytes: usize,
}

/// A connected byte-queue pair.
pub(super) fn pair(max_frame_bytes: usize) -> (BytePipe, BytePipe) {
    let shared = Arc::new((Mutex::default(), Condvar::new()));
    (
        BytePipe { shared: Arc::clone(&shared), out: 0, max_frame_bytes },
        BytePipe { shared, out: 1, max_frame_bytes },
    )
}

impl BytePipe {
    pub(super) fn cut_outbound_after(&self, bytes: usize) {
        let (lock, cvar) = &*self.shared;
        lock.lock().unwrap()[self.out].cut_after = Some(bytes);
        cvar.notify_all();
    }

    /// A second end over this end's two directions, under its own cap.
    pub(super) fn with_cap(&self, max_frame_bytes: usize) -> BytePipe {
        BytePipe { shared: Arc::clone(&self.shared), out: self.out, max_frame_bytes }
    }

    /// True when `recv_frame` would wait: nothing inbound and no close.
    pub(super) fn would_block(&self) -> bool {
        let dir = &self.shared.0.lock().unwrap()[1 - self.out];
        dir.buf.is_empty() && !dir.closed
    }
}

fn prefix(buf: &VecDeque<u8>) -> usize {
    let mut len = [0u8; 4];
    for (i, b) in buf.iter().take(4).enumerate() {
        len[i] = *b;
    }
    u32::from_le_bytes(len) as usize
}

impl ByteConn for BytePipe {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        check_len(frame.len(), self.max_frame_bytes)?;
        let (lock, cvar) = &*self.shared;
        let mut dirs = lock.lock().unwrap();
        let dir = &mut dirs[self.out];
        if dir.closed {
            return Err(TransportError::Io("loopback stream is cut".into()));
        }
        let mut bytes = Vec::with_capacity(4 + frame.len());
        bytes.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        bytes.extend_from_slice(frame);
        let deliver = match dir.cut_after {
            Some(budget) => budget.min(bytes.len()),
            None => bytes.len(),
        };
        dir.buf.extend(&bytes[..deliver]);
        if let Some(budget) = &mut dir.cut_after {
            *budget -= deliver;
            if *budget == 0 {
                dir.closed = true;
            }
        }
        cvar.notify_all();
        if deliver < bytes.len() {
            return Err(TransportError::Io("loopback stream cut mid-frame".into()));
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let inbound = 1 - self.out;
        let (lock, cvar) = &*self.shared;
        let mut dirs = lock.lock().unwrap();
        loop {
            let dir = &mut dirs[inbound];
            if dir.buf.len() >= 4 {
                let len = prefix(&dir.buf);
                check_len(len, self.max_frame_bytes)?;
                if dir.buf.len() >= 4 + len {
                    dir.buf.drain(..4);
                    let frame: Vec<u8> = dir.buf.drain(..len).collect();
                    cvar.notify_all();
                    return Ok(Some(frame));
                }
            }
            if dir.closed {
                return if dir.buf.is_empty() {
                    Ok(None)
                } else {
                    // Bytes short of a whole frame, then EOF: torn.
                    let got = dir.buf.len();
                    let want = if got >= 4 { 4 + prefix(&dir.buf) } else { 4 };
                    Err(TransportError::Torn { got, want })
                };
            }
            dirs = cvar.wait(dirs).unwrap();
        }
    }
}

impl Drop for BytePipe {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.shared;
        if let Ok(mut dirs) = lock.lock() {
            dirs[self.out].closed = true;
            cvar.notify_all();
        }
    }
}
