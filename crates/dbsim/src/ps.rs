//! Processor-sharing resources via virtual service time.
//!
//! `n` concurrent jobs on a resource of capacity `c` each progress at rate
//! `min(1, c/n)` (a job cannot use more than one server). The classic
//! virtual-time trick makes departures `O(log n)`: maintain a clock `V`
//! advancing at the common per-job rate; a job arriving at `V₀` with demand
//! `d` departs when `V = V₀ + d`. Jobs live in a min-heap keyed by their
//! target `V` (ties by job id, so the order is total), so the next
//! departure is the top.

use crate::ordf64::OrdF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a job on a resource (the engine uses query ids).
pub type JobId = u64;

/// A processor-sharing resource.
#[derive(Debug)]
pub struct PsResource {
    capacity: f64,
    /// Virtual service time.
    virt: f64,
    /// Wall-clock ms at which `virt` was last advanced.
    last: f64,
    /// Jobs keyed by (target virtual time, job id), least first.
    jobs: BinaryHeap<Reverse<(OrdF64, JobId)>>,
    /// Membership generation, bumped when jobs join or leave. The engine
    /// keeps one pending departure per resource and tags it with the
    /// generation it was computed at: at a newer generation it is
    /// superseded and replaced, at the same one a reschedule repeats it.
    generation: u64,
    /// Busy integral accumulator: ∫ min(n, c)/c dt, i.e. utilization·time.
    busy_ms: f64,
}

impl PsResource {
    /// Creates a resource with the given capacity (number of servers).
    ///
    /// # Panics
    /// Panics unless `capacity > 0`.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "resource capacity must be positive");
        Self { capacity, virt: 0.0, last: 0.0, jobs: BinaryHeap::new(), generation: 0, busy_ms: 0.0 }
    }

    /// Current membership generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-job progress rate with `n` jobs.
    #[inline]
    fn rate(&self, n: usize) -> f64 {
        if n == 0 {
            1.0
        } else {
            (self.capacity / n as f64).min(1.0)
        }
    }

    /// Advances the virtual clock (and the busy integral) to wall time
    /// `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the last advance (time must be monotone).
    pub fn advance(&mut self, now: f64) {
        let dt = now - self.last;
        assert!(dt >= -1e-9, "time went backwards: {} -> {}", self.last, now);
        if dt > 0.0 {
            let n = self.jobs.len();
            self.virt += dt * self.rate(n);
            self.busy_ms += dt * (n as f64).min(self.capacity) / self.capacity;
            self.last = now;
        }
    }

    /// Adds a job with the given service demand (ms of dedicated-server
    /// time). Call after/with `advance(now)`.
    pub fn add(&mut self, now: f64, job: JobId, demand_ms: f64) {
        self.advance(now);
        let target = self.virt + demand_ms.max(0.0);
        self.jobs.push(Reverse((OrdF64::new(target), job)));
        self.generation += 1;
    }

    /// The wall-clock time at which the next departure will occur if
    /// membership does not change, with the departing job id.
    pub fn next_departure(&self) -> Option<(f64, JobId)> {
        let Reverse((target, job)) = self.jobs.peek().copied()?;
        let rate = self.rate(self.jobs.len());
        let dt = (target.get() - self.virt).max(0.0) / rate;
        Some((self.last + dt, job))
    }

    /// Pops every job whose service is complete at wall time `now`
    /// (within `eps_ms` of slack, to absorb floating error), appending them
    /// to `out`. Advances the clock first.
    pub fn pop_finished(&mut self, now: f64, eps_ms: f64, out: &mut Vec<JobId>) {
        self.advance(now);
        let before = out.len();
        while let Some(&Reverse((target, job))) = self.jobs.peek() {
            if target.get() <= self.virt + eps_ms {
                self.jobs.pop();
                out.push(job);
            } else {
                break;
            }
        }
        if out.len() != before {
            self.generation += 1;
        }
    }

    /// Total busy time (utilization integral) accumulated so far, in ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-6;

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut r = PsResource::new(4.0);
        r.add(0.0, 1, 100.0);
        let (t, j) = r.next_departure().unwrap();
        assert!((t - 100.0).abs() < EPS);
        assert_eq!(j, 1);
        let mut out = Vec::new();
        r.pop_finished(100.0, EPS, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(r.next_departure(), None);
    }

    #[test]
    fn jobs_within_capacity_do_not_slow_each_other() {
        let mut r = PsResource::new(4.0);
        r.add(0.0, 1, 100.0);
        r.add(0.0, 2, 50.0);
        // 2 jobs, 4 servers: both run at rate 1.
        let (t, j) = r.next_departure().unwrap();
        assert!((t - 50.0).abs() < EPS);
        assert_eq!(j, 2);
    }

    #[test]
    fn oversubscription_stretches_service() {
        let mut r = PsResource::new(1.0);
        r.add(0.0, 1, 100.0);
        r.add(0.0, 2, 100.0);
        // 2 jobs share 1 server: each runs at rate 0.5 → departs at 200.
        let (t, _) = r.next_departure().unwrap();
        assert!((t - 200.0).abs() < EPS);
        let mut out = Vec::new();
        r.pop_finished(200.0, EPS, &mut out);
        assert_eq!(out.len(), 2, "equal demands depart together");
    }

    #[test]
    fn late_arrival_shares_remaining_work() {
        let mut r = PsResource::new(1.0);
        r.add(0.0, 1, 100.0);
        // At t=50, job 1 has 50 ms of work left.
        r.add(50.0, 2, 50.0);
        // Both have 50 ms left at rate 0.5 → depart at t=150.
        let (t, _) = r.next_departure().unwrap();
        assert!((t - 150.0).abs() < EPS);
    }

    #[test]
    fn busy_integral_tracks_utilization() {
        let mut r = PsResource::new(2.0);
        r.add(0.0, 1, 100.0); // 1 job on 2 cores: util 0.5
        r.advance(100.0);
        assert!((r.busy_ms() - 50.0).abs() < EPS);
        let mut out = Vec::new();
        r.pop_finished(100.0, EPS, &mut out);
        r.advance(200.0); // idle
        assert!((r.busy_ms() - 50.0).abs() < EPS);
    }

    #[test]
    fn generation_bumps_on_membership_changes_only() {
        let mut r = PsResource::new(1.0);
        let g0 = r.generation();
        r.advance(10.0);
        assert_eq!(r.generation(), g0);
        r.add(10.0, 1, 5.0);
        assert_eq!(r.generation(), g0 + 1);
        let mut out = Vec::new();
        r.pop_finished(15.0, EPS, &mut out);
        assert_eq!(r.generation(), g0 + 2);
    }

    #[test]
    fn zero_demand_departs_immediately() {
        let mut r = PsResource::new(1.0);
        r.add(0.0, 7, 0.0);
        let mut out = Vec::new();
        r.pop_finished(0.0, EPS, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PsResource::new(0.0);
    }
}
