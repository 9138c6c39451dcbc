//! Per-query cost profiles and lock footprints.
//!
//! Each SQL template carries a [`CostProfile`] describing the resources one
//! execution consumes. The simulator turns a profile into a concrete
//! [`QueryCost`] sample per execution; heavy tails come from log-normal
//! service demands. Lock behaviour is part of the cost profile because it
//! is a property of the *statement shape* (an `UPDATE … WHERE pk = ?` locks
//! one hot slot; an `ALTER TABLE` takes the metadata lock).

use crate::rng::{lognormal, Rng};
use crate::tables::TableId;

/// How a statement locks the table it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// No locks beyond a shared metadata lock (plain MVCC reads).
    None,
    /// Shared row locks on hot slots (`SELECT … LOCK IN SHARE MODE`):
    /// conflicts with exclusive row locks.
    SharedRows,
    /// Exclusive row locks on hot slots (`UPDATE`, `DELETE`, `SELECT … FOR
    /// UPDATE`): conflicts with both shared and exclusive locks on the same
    /// slots.
    ExclusiveRows,
    /// Exclusive metadata lock on the whole table (DDL): blocks *every*
    /// other statement touching the table — the paper's category-3(i)
    /// anomaly where "the entire database is locked".
    ExclusiveTable,
}

/// The lock footprint of one statement execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockFootprint {
    pub table: TableId,
    pub mode: LockMode,
    /// Number of hot slots one execution locks (row modes only).
    pub slots: u32,
}

/// Resource demands of one template execution (averages; samples vary).
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Mean CPU service demand per execution, in milliseconds.
    pub cpu_ms: f64,
    /// Mean IO service demand per execution, in milliseconds.
    pub io_ms: f64,
    /// Mean number of rows examined per execution.
    pub examined_rows: f64,
    /// Shape (σ of the underlying normal) of the log-normal demand
    /// distributions; 0 makes costs deterministic.
    pub sigma: f64,
    /// Lock footprint, if the statement locks anything.
    pub lock: Option<LockFootprint>,
}

impl CostProfile {
    /// A cheap indexed point read: sub-millisecond CPU, a handful of rows.
    pub fn point_read(table: TableId) -> Self {
        Self { cpu_ms: 0.15, io_ms: 0.1, examined_rows: 4.0, sigma: 0.4, lock: None }
            .reading(table)
    }

    /// A moderate range read.
    pub fn range_read(table: TableId, rows: f64) -> Self {
        Self {
            cpu_ms: 0.4 + rows / 2000.0,
            io_ms: 0.3 + rows / 5000.0,
            examined_rows: rows,
            sigma: 0.5,
            lock: None,
        }
        .reading(table)
    }

    /// An indexed single-row write taking one exclusive hot slot.
    pub fn point_write(table: TableId) -> Self {
        Self {
            cpu_ms: 0.3,
            io_ms: 0.4,
            examined_rows: 3.0,
            sigma: 0.4,
            lock: Some(LockFootprint { table, mode: LockMode::ExclusiveRows, slots: 1 }),
        }
    }

    /// A poorly written statement: scans `scanned` rows (missing index),
    /// burning CPU and IO proportional to the scan — the paper's category-2
    /// R-SQL.
    pub fn poor_scan(table: TableId, scanned: f64) -> Self {
        Self {
            cpu_ms: 1.0 + scanned / 400.0,
            io_ms: 0.5 + scanned / 1500.0,
            examined_rows: scanned,
            sigma: 0.35,
            lock: None,
        }
        .reading(table)
    }

    /// A batch write locking many hot slots for its whole duration — the
    /// paper's category-3(ii) row-lock R-SQL.
    pub fn batch_write(table: TableId, slots: u32, cpu_ms: f64) -> Self {
        Self {
            cpu_ms,
            io_ms: cpu_ms * 0.6,
            examined_rows: slots as f64 * 50.0,
            sigma: 0.3,
            lock: Some(LockFootprint { table, mode: LockMode::ExclusiveRows, slots }),
        }
    }

    /// DDL taking the table's exclusive metadata lock for `cpu_ms` of work —
    /// the category-3(i) MDL R-SQL.
    pub fn ddl(table: TableId, cpu_ms: f64) -> Self {
        Self {
            cpu_ms,
            io_ms: cpu_ms * 0.2,
            examined_rows: 0.0,
            sigma: 0.1,
            lock: Some(LockFootprint { table, mode: LockMode::ExclusiveTable, slots: 0 }),
        }
    }

    /// Marks the profile as reading `table` (shared-MDL only). Readers must
    /// still declare their table so DDL can block them.
    pub fn reading(mut self, table: TableId) -> Self {
        if self.lock.is_none() {
            self.lock = Some(LockFootprint { table, mode: LockMode::None, slots: 0 });
        }
        self
    }

    /// Converts plain reads into locking reads (shared row locks on
    /// `slots` hot slots), modelling `LOCK IN SHARE MODE` victims.
    pub fn with_shared_row_locks(mut self, slots: u32) -> Self {
        if let Some(lock) = &mut self.lock {
            if lock.mode == LockMode::None {
                lock.mode = LockMode::SharedRows;
                lock.slots = slots;
            }
        }
        self
    }

    /// Samples the concrete cost of one execution.
    pub fn sample(&self, rng: &mut impl Rng) -> QueryCost {
        CostSampler::new(self).sample(rng)
    }
}

/// A [`CostProfile`] prepared for many draws: each demand's log-normal
/// location `μ = ln(mean) − σ²/2` (see
/// [`lognormal_with_mean`](crate::rng::lognormal_with_mean)) is computed
/// once instead of per execution. Draws are exactly those of
/// [`CostProfile::sample`], which is this sampler built on the spot.
#[derive(Debug, Clone, Copy)]
pub struct CostSampler {
    sigma: f64,
    /// CPU ms, IO ms, examined rows.
    means: [f64; 3],
    mus: [f64; 3],
}

impl CostSampler {
    pub fn new(profile: &CostProfile) -> Self {
        let sigma = profile.sigma;
        let means = [profile.cpu_ms, profile.io_ms, profile.examined_rows];
        Self { sigma, means, mus: means.map(|mean| mean.ln() - sigma * sigma / 2.0) }
    }

    /// Samples the concrete cost of one execution.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> QueryCost {
        let [cpu_ms, io_ms, rows] = if self.sigma <= 0.0 {
            self.means
        } else {
            // In order: each draw consumes the stream, a zero mean none.
            let mut draw = |i: usize| {
                if self.means[i] <= 0.0 {
                    0.0
                } else {
                    lognormal(rng, self.mus[i], self.sigma)
                }
            };
            [draw(0), draw(1), draw(2)]
        };
        QueryCost { cpu_ms, io_ms, examined_rows: rows.round().max(0.0) as u64 }
    }
}

/// Concrete resource cost of one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCost {
    pub cpu_ms: f64,
    pub io_ms: f64,
    pub examined_rows: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    const T: TableId = TableId(0);

    #[test]
    fn profiles_carry_expected_lock_modes() {
        assert_eq!(CostProfile::point_read(T).lock.unwrap().mode, LockMode::None);
        assert_eq!(CostProfile::point_write(T).lock.unwrap().mode, LockMode::ExclusiveRows);
        assert_eq!(CostProfile::ddl(T, 100.0).lock.unwrap().mode, LockMode::ExclusiveTable);
        let locked_read = CostProfile::point_read(T).with_shared_row_locks(2);
        assert_eq!(locked_read.lock.unwrap().mode, LockMode::SharedRows);
        assert_eq!(locked_read.lock.unwrap().slots, 2);
    }

    #[test]
    fn with_shared_row_locks_does_not_demote_writes() {
        let w = CostProfile::point_write(T).with_shared_row_locks(5);
        assert_eq!(w.lock.unwrap().mode, LockMode::ExclusiveRows);
        assert_eq!(w.lock.unwrap().slots, 1);
    }

    #[test]
    fn sample_means_match_profile() {
        let mut rng = rng_from_seed(11);
        let p = CostProfile::poor_scan(T, 50_000.0);
        let n = 20_000;
        let mut cpu = 0.0;
        let mut rows = 0.0;
        for _ in 0..n {
            let c = p.sample(&mut rng);
            cpu += c.cpu_ms;
            rows += c.examined_rows as f64;
        }
        assert!((cpu / n as f64 - p.cpu_ms).abs() / p.cpu_ms < 0.05);
        assert!((rows / n as f64 - p.examined_rows).abs() / p.examined_rows < 0.05);
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = rng_from_seed(12);
        let p = CostProfile { cpu_ms: 5.0, io_ms: 1.0, examined_rows: 10.0, sigma: 0.0, lock: None };
        let a = p.sample(&mut rng);
        let b = p.sample(&mut rng);
        assert_eq!(a, b);
        assert_eq!(a.cpu_ms, 5.0);
        assert_eq!(a.examined_rows, 10);
    }

    /// The prepared sampler draws, bit for bit, what one
    /// `lognormal_with_mean` call per demand draws, including a zero mean
    /// (no draw) and a zero sigma (no draws at all).
    #[test]
    fn sampler_matches_per_draw_lognormal_with_mean() {
        use crate::rng::lognormal_with_mean;
        let profiles = [
            CostProfile::point_read(T),
            CostProfile::point_write(T),
            CostProfile::poor_scan(T, 50_000.0),
            CostProfile::batch_write(T, 8, 120.0),
            CostProfile::ddl(T, 3_000.0), // examined_rows 0
            CostProfile { cpu_ms: 5.0, io_ms: 0.0, examined_rows: 10.0, sigma: 0.0, lock: None },
        ];
        for (i, p) in profiles.iter().enumerate() {
            let sampler = CostSampler::new(p);
            let (mut a, mut b) = (rng_from_seed(i as u64), rng_from_seed(i as u64));
            for draw in 0..500 {
                let got = sampler.sample(&mut a);
                let (cpu_ms, io_ms, rows) = if p.sigma <= 0.0 {
                    (p.cpu_ms, p.io_ms, p.examined_rows)
                } else {
                    (
                        lognormal_with_mean(&mut b, p.cpu_ms, p.sigma),
                        lognormal_with_mean(&mut b, p.io_ms, p.sigma),
                        lognormal_with_mean(&mut b, p.examined_rows, p.sigma),
                    )
                };
                let what = format!("profile {i}, draw {draw}");
                assert_eq!(got.cpu_ms.to_bits(), cpu_ms.to_bits(), "{what}: cpu");
                assert_eq!(got.io_ms.to_bits(), io_ms.to_bits(), "{what}: io");
                assert_eq!(got.examined_rows, rows.round().max(0.0) as u64, "{what}: rows");
            }
        }
    }
}
