//! Property sweeps for the simulator substrates — processor-sharing
//! invariants and lock-manager safety — on `CASES` seeded random inputs; a
//! failure names the seed.

use pinsql_dbsim::locks::{LockKind, LockManager, QueryId};
use pinsql_dbsim::ps::PsResource;
use pinsql_workload::rng::{rng_from_seed, RngExt, StdRng};
use std::collections::HashSet;

const CASES: u64 = 256;

/// `lo..hi` values, each in `range`.
fn vec_in(rng: &mut StdRng, lo: usize, hi: usize, range: std::ops::Range<f64>) -> Vec<f64> {
    (0..rng.random_range(lo..hi)).map(|_| rng.random_range(range.clone())).collect()
}

/// Jobs depart in order of remaining work; everyone eventually departs;
/// the busy integral never exceeds elapsed time.
#[test]
fn ps_everyone_departs_and_busy_bounded() {
    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let capacity = rng.random_range(1.0..16.0);
        let demands = vec_in(&mut rng, 1, 40, 0.1..500.0);
        let gaps = vec_in(&mut rng, 1, 40, 0.0..100.0);
        let mut r = PsResource::new(capacity);
        let mut t = 0.0;
        let mut expected: HashSet<u64> = HashSet::new();
        for (i, (&d, &g)) in demands.iter().zip(gaps.iter().cycle()).enumerate() {
            t += g;
            r.add(t, i as u64, d);
            expected.insert(i as u64);
        }
        let mut done: Vec<u64> = Vec::new();
        let mut guard = 0;
        while let Some((at, _)) = r.next_departure() {
            let at = at.max(t);
            r.pop_finished(at, 1e-6, &mut done);
            t = at + 1e-3;
            guard += 1;
            assert!(guard < 10_000, "seed {seed}: departure loop diverged");
        }
        let done_set: HashSet<u64> = done.iter().copied().collect();
        assert_eq!(done_set, expected, "seed {seed}");
        assert!(r.busy_ms() <= t + 1e-6, "seed {seed}");
        // Work conservation: total service delivered equals total demand,
        // and busy time is at least total demand / capacity.
        let total: f64 = demands.iter().sum();
        assert!(
            r.busy_ms() * capacity >= total - 1e-3,
            "seed {seed}: busy {} * cap {} < demand {}",
            r.busy_ms(),
            capacity,
            total
        );
    }
}

/// The lock manager never grants conflicting holders and always grants
/// every queued request exactly once after enough releases.
#[test]
fn lock_manager_safety_and_liveness() {
    // Holders + queue mirror, per table.
    #[derive(Default, Clone)]
    struct Mirror {
        shared: Vec<QueryId>,
        excl: Option<QueryId>,
        queued: Vec<(QueryId, LockKind)>,
    }
    impl Mirror {
        fn grant(&mut self, q: QueryId, kind: LockKind, seed: u64) {
            match kind {
                LockKind::Shared => {
                    assert!(self.excl.is_none(), "seed {seed}: shared granted under exclusive");
                    self.shared.push(q);
                }
                LockKind::Exclusive => {
                    assert!(
                        self.excl.is_none() && self.shared.is_empty(),
                        "seed {seed}: exclusive granted next to a holder"
                    );
                    self.excl = Some(q);
                }
            }
        }
    }

    for seed in 0..CASES {
        let mut rng = rng_from_seed(seed);
        let n_ops = rng.random_range(1..200u64);
        let mut m = LockManager::new(4);
        let mut mirror: Vec<Mirror> = vec![Mirror::default(); 4];
        let mut granted_buf = Vec::new();

        for q in 0..n_ops {
            let table = rng.random_range(0..4u32);
            let t = table as usize;
            let kind =
                if rng.random_range(0..2u32) == 1 { LockKind::Exclusive } else { LockKind::Shared };
            if m.request_mdl(q, table, kind) {
                // Immediate grant: must be compatible with mirror state.
                assert!(mirror[t].queued.is_empty(), "seed {seed}: grant jumped the queue");
                mirror[t].grant(q, kind, seed);
            } else {
                mirror[t].queued.push((q, kind));
            }
            // Every other op, release one holder (the excl or the first shared).
            if q.is_multiple_of(2) {
                granted_buf.clear();
                if mirror[t].excl.take().is_some() {
                    m.release_mdl(table, LockKind::Exclusive, &mut granted_buf);
                } else if !mirror[t].shared.is_empty() {
                    mirror[t].shared.remove(0);
                    m.release_mdl(table, LockKind::Shared, &mut granted_buf);
                }
                // Apply grants to the mirror in FIFO order.
                for &g in &granted_buf {
                    let pos = mirror[t].queued.iter().position(|&(qq, _)| qq == g);
                    assert_eq!(pos, Some(0), "seed {seed}: grants must be FIFO and queued");
                    let (qq, k) = mirror[t].queued.remove(0);
                    mirror[t].grant(qq, k, seed);
                }
            }
        }
        // Waiter accounting agrees with the mirror.
        let queued_total: usize = mirror.iter().map(|m| m.queued.len()).sum();
        assert_eq!(m.mdl_waiters(), queued_total, "seed {seed}");
    }
}
