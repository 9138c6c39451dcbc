//! The per-second metric-sample ring, and the span rule both per-second
//! rings admit by.
//!
//! Invariant: the ring holds one [`MetricsSample`] for every second of
//! `[start, start + len)`, contiguous — a monitoring gap is zero-filled,
//! so it reads as "no load" exactly like the batch slicer — and never
//! spans more than `retention_s + 1` seconds.

use pinsql_dbsim::probe::{ProbeLog, ProbeSample};
use pinsql_dbsim::{InstanceMetrics, MetricsSample};
use pinsql_timeseries::{WireError, WireReader, WireWriter};
use std::collections::VecDeque;
use std::ops::Range;

/// Non-finite telemetry reads as 0 everywhere a window touches it — the
/// rule the batch slicer applies.
#[inline]
pub(crate) fn finite(x: f64) -> f64 {
    if x.is_finite() { x } else { 0.0 }
}

/// Which side of a ring a second fell off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OffRing {
    /// Older than the ring can reach back to.
    Behind,
    /// Further ahead than one retention of rows.
    Ahead,
}

/// `second - start` for a ring of `len` contiguous rows from `start`
/// (negative: that many rows to prepend), provided the ring reaches
/// `second` without spanning more than `retention_s + 1` rows. This is
/// the time-jump rule: whatever a timestamp off the wire says, one event
/// materialises at most one retention of rows, and no arithmetic on it
/// can overflow.
pub(crate) fn reach(start: i64, len: usize, second: i64, retention_s: i64) -> Result<i64, OffRing> {
    match second.checked_sub(start) {
        Some(d) if d > retention_s => Err(OffRing::Ahead),
        Some(d) if d < 0 && d.unsigned_abs() + len as u64 > retention_s as u64 + 1 => {
            Err(OffRing::Behind)
        }
        Some(d) => Ok(d),
        None if second < start => Err(OffRing::Behind),
        None => Err(OffRing::Ahead),
    }
}

#[derive(Debug, Clone)]
pub(crate) struct MetricRing {
    ring: VecDeque<MetricsSample>,
    /// Second of `ring[0]` (where the next sample lands while empty).
    start: i64,
}

impl MetricRing {
    pub fn new() -> Self {
        Self { ring: VecDeque::new(), start: 0 }
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// The seconds the ring holds, `[start, start + len)`.
    pub fn span(&self) -> Range<i64> {
        self.start..self.start.saturating_add(self.ring.len() as i64)
    }

    /// Stores one sample, replacing the one already held for its second,
    /// and zero-fills the gap seconds before it — the one place a metric
    /// gap is materialised. A sample before the ring's start or more than
    /// a retention past it is refused and nothing changes.
    pub fn push(&mut self, sample: MetricsSample, retention_s: i64) -> Result<(), OffRing> {
        let second = sample.second;
        if self.ring.is_empty() {
            self.start = second;
        }
        let idx = match reach(self.start, self.ring.len(), second, retention_s)? {
            d if d < 0 => return Err(OffRing::Behind),
            d => d as usize,
        };
        while self.ring.len() < idx {
            let missing = self.start + self.ring.len() as i64;
            self.ring.push_back(MetricsSample { second: missing, ..Default::default() });
        }
        if idx < self.ring.len() {
            self.ring[idx] = sample;
        } else {
            self.ring.push_back(sample);
        }
        Ok(())
    }

    /// Drops the samples before `horizon`; returns how many went.
    pub fn evict(&mut self, horizon: i64) -> u64 {
        let mut evicted = 0;
        while self.start < horizon && self.ring.pop_front().is_some() {
            self.start += 1;
            evicted += 1;
        }
        evicted
    }

    /// The retained metrics restricted to `[ts, te)`, non-finite samples
    /// zeroed — the online analogue of the batch `slice_metrics`, clipped
    /// to available data the same way.
    pub fn window(&self, ts: i64, te: i64) -> InstanceMetrics {
        let lo = ts.max(self.start);
        let hi = te.min(self.span().end);
        // Non-empty only when `start <= lo < hi <= start + len`.
        let at = |second: i64| (second - self.start) as usize;
        let range = if lo < hi { at(lo)..at(hi) } else { 0..0 };
        let len = range.len();
        let mut out = InstanceMetrics {
            start_second: ts,
            active_session: Vec::with_capacity(len),
            cpu_usage: Vec::with_capacity(len),
            iops_usage: Vec::with_capacity(len),
            row_lock_waits: Vec::with_capacity(len),
            mdl_waits: Vec::with_capacity(len),
            qps: Vec::with_capacity(len),
            probes: ProbeLog::default(),
        };
        for sample in self.ring.range(range) {
            out.active_session.push(finite(sample.active_session));
            out.cpu_usage.push(finite(sample.cpu_usage));
            out.iops_usage.push(finite(sample.iops_usage));
            out.row_lock_waits.push(finite(sample.row_lock_waits));
            out.mdl_waits.push(finite(sample.mdl_waits));
            out.qps.push(finite(sample.qps));
            out.probes.samples.extend(sample.probes.iter().copied());
        }
        out
    }

    /// Bytes [`write`](Self::write) writes.
    pub fn wire_len(&self) -> usize {
        16 + self.ring.iter().map(|s| 8 + 6 * 8 + 8 + 20 * s.probes.len()).sum::<usize>()
    }

    /// `PSNP`: start second, then each sample with its probes.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_i64(self.start);
        w.put_len(self.ring.len());
        for sample in &self.ring {
            w.put_i64(sample.second);
            for v in sample.metric_values() {
                w.put_f64(v);
            }
            w.put_len(sample.probes.len());
            for p in &sample.probes {
                w.put_i64(p.second);
                w.put_u32(p.active_sessions);
                w.put_f64(p.true_instant_ms);
            }
        }
    }

    /// Reads [`write`](Self::write)'s stretch.
    pub fn read(r: &mut WireReader) -> Result<Self, WireError> {
        let start = r.get_i64()?;
        let n = r.get_len(64)?;
        let mut ring = VecDeque::with_capacity(n);
        for _ in 0..n {
            let second = r.get_i64()?;
            let mut vals = [0.0f64; 6];
            for v in &mut vals {
                *v = r.get_f64()?;
            }
            let n_probes = r.get_len(20)?;
            let mut probes = Vec::with_capacity(n_probes);
            for _ in 0..n_probes {
                probes.push(ProbeSample {
                    second: r.get_i64()?,
                    active_sessions: r.get_u32()?,
                    true_instant_ms: r.get_f64()?,
                });
            }
            ring.push_back(MetricsSample {
                second,
                active_session: vals[0],
                cpu_usage: vals[1],
                iops_usage: vals[2],
                row_lock_waits: vals[3],
                mdl_waits: vals[4],
                qps: vals[5],
                probes,
            });
        }
        Ok(Self { ring, start })
    }
}
