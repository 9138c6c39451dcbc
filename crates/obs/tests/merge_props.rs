//! Property tests for registry/histogram merge algebra.
//!
//! The fleet engine merges per-shard registries in whatever order shards
//! finish, so the merge must be associative and commutative, and bucket
//! counts must sum exactly across arbitrary shard splits. These are
//! deterministic property tests over `pinsql_testkit::sweep` (seeds
//! printed in failures), sweeping many random workloads
//! and split shapes per property.

use pinsql_obs::{Counter, Gauge, LatencyHistogram, Registry, Stage};
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};

/// A random span workload: durations spread across the full log2 range
/// (including 0 and huge values) so every bucket shape gets exercised.
fn random_durations(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let magnitude = rng.random_range(0..64u64);
            if magnitude == 0 { 0 } else { rng.random::<u64>() >> (64 - magnitude.min(63)) }
        })
        .collect()
}

fn hist_of(durations: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &d in durations {
        h.record(d);
    }
    h
}

/// Applies one random op stream to a registry (spans + counters + gauges).
fn apply_ops(reg: &mut Registry, rng: &mut StdRng, n: usize) {
    for _ in 0..n {
        match rng.random_range(0..3u32) {
            0 => {
                let stage = Stage::ALL[rng.random_range(0..Stage::COUNT)];
                let start = rng.random_range(0..1u64 << 40);
                let dur = rng.random_range(0..1u64 << 30);
                reg.record_span(stage, rng.random_range(0..4u32), start, start + dur);
            }
            1 => {
                let c = Counter::ALL[rng.random_range(0..Counter::COUNT)];
                reg.add(c, rng.random_range(0..1000u64));
            }
            _ => {
                let g = Gauge::ALL[rng.random_range(0..Gauge::COUNT)];
                reg.gauge(g, rng.random_range(0..1u64 << 20));
            }
        }
    }
}

fn assert_registry_eq(a: &Registry, b: &Registry, ctx: &str) {
    for s in Stage::ALL {
        assert_eq!(a.span_hist(s), b.span_hist(s), "{ctx}: stage {}", s.name());
    }
    for c in Counter::ALL {
        assert_eq!(a.counter(c), b.counter(c), "{ctx}: counter {}", c.name());
    }
    for g in Gauge::ALL {
        assert_eq!(a.gauge_value(g), b.gauge_value(g), "{ctx}: gauge {}", g.name());
    }
}

#[test]
fn histogram_bucket_counts_sum_exactly_over_arbitrary_splits() {
    sweep(0..200, |_, rng| {
        let n = 1 + rng.random_range(0..500usize);
        let durations = random_durations(rng, n);
        let whole = hist_of(&durations);

        // A random shard split: each duration assigned to one of k parts.
        let k = 1 + rng.random_range(0..8usize);
        let mut parts = vec![LatencyHistogram::new(); k];
        for &d in &durations {
            parts[rng.random_range(0..k)].record(d);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole, "split-merge must equal bulk");
        assert_eq!(
            merged.buckets().iter().sum::<u64>(),
            n as u64,
            "every duration lands in exactly one bucket"
        );
        assert_eq!(merged.count(), n as u64);
    });
}

#[test]
fn histogram_merge_is_commutative_and_associative() {
    sweep(0..200, |_, rng| {
        let sized = |rng: &mut StdRng| {
            let n = 1 + rng.random_range(0..200usize);
            hist_of(&random_durations(rng, n))
        };
        let a = sized(rng);
        let b = sized(rng);
        let c = sized(rng);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity");

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");

        // Identity: merging an empty histogram changes nothing.
        let mut a_id = a.clone();
        a_id.merge(&LatencyHistogram::new());
        assert_eq!(a_id, a, "identity");
    });
}

#[test]
fn registry_merge_is_commutative_and_associative() {
    sweep(0..100, |_, rng| {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let mut c = Registry::new();
        for reg in [&mut a, &mut b, &mut c] {
            let n = 1 + rng.random_range(0..300usize);
            apply_ops(reg, rng, n);
        }

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Traces concatenate in merge order (order is presentation, not
        // data), so commutativity is over histograms/counters/gauges.
        assert_registry_eq(&ab, &ba, "commutativity");
        assert_eq!(ab.trace().len(), ba.trace().len());

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_registry_eq(&ab_c, &a_bc, "associativity");
    });
}

#[test]
fn registry_split_merge_equals_single_stream() {
    // One op stream applied whole vs. round-robined across k registries
    // then merged: counters and histograms must agree exactly.
    sweep(0..60, |_, rng| {
        let n_ops = 1 + rng.random_range(0..400usize);
        let k = 1 + rng.random_range(0..6usize);

        // Re-derive the identical op stream from a cloned rng state.
        let mut whole = Registry::new();
        let mut rng_whole = rng.clone();
        apply_ops(&mut whole, &mut rng_whole, n_ops);

        let mut parts = vec![Registry::new(); k];
        let mut rng_parts = rng.clone();
        for i in 0..n_ops {
            apply_ops(&mut parts[i % k], &mut rng_parts, 1);
        }

        let mut merged = Registry::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_registry_eq(&merged, &whole, "split/whole");
    });
}
