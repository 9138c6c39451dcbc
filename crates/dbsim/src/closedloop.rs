//! Closed-loop saturation driver for the Table IV overhead study.
//!
//! The paper stress-tests Performance-Schema overhead with a 32-thread
//! sysbench run against a 4-core instance, measuring QPS at the CPU
//! bottleneck under different pfs configurations. This driver reproduces
//! that shape: `clients` virtual sessions each issue one query at a time,
//! drawn from a weighted template mix, with zero think time; completed
//! queries per second are counted after a warm-up.

use crate::config::SimConfig;
use crate::locks::{LockKind, LockManager, QueryId};
use crate::ordf64::OrdF64;
use crate::ps::PsResource;
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng, Zipf};
use pinsql_workload::{LockMode, TemplateSpec, Workload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Number of concurrent client sessions.
    pub clients: usize,
    /// Warm-up seconds excluded from the measurement.
    pub warmup_s: f64,
    /// Measured seconds.
    pub measure_s: f64,
    /// Weighted mix over `workload.specs` indices.
    pub mix: Vec<(usize, f64)>,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        Self { clients: 32, warmup_s: 5.0, measure_s: 30.0, mix: Vec::new() }
    }
}

/// Result of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopResult {
    /// Completed queries per second over the measurement window.
    pub qps: f64,
    /// Mean CPU utilization over the measurement window.
    pub cpu_utilization: f64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    spec: usize,
    io_ms: f64,
    slots_from: usize,
    slots_len: usize,
    holds_mdl: bool,
    next_slot: usize,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    WaitMdl,
    WaitSlot,
    Cpu,
    Io,
}

/// Runs the closed loop and reports sustained QPS.
///
/// Only `workload.specs` and `workload.tables` are used (the DAG and
/// traffic patterns are open-loop concerns).
pub fn run_closed_loop(
    workload: &Workload,
    sim: &SimConfig,
    cfg: &ClosedLoopConfig,
) -> ClosedLoopResult {
    assert!(cfg.clients > 0, "need at least one client");
    assert!(!cfg.mix.is_empty(), "closed loop needs a non-empty mix");
    let total_weight: f64 = cfg.mix.iter().map(|(_, w)| w).sum();
    assert!(total_weight > 0.0, "mix weights must sum to a positive value");

    let mut rng = StdRng::seed_from_u64(sim.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut cpu = PsResource::new(sim.cores);
    let mut io = PsResource::new(sim.io_channels);
    let mut locks = LockManager::new(workload.tables.len());
    let zipfs: Vec<Zipf> =
        workload.tables.iter().map(|t| Zipf::new(t.hot_slots as usize, 0.8)).collect();

    let mut states: HashMap<QueryId, InFlight> = HashMap::new();
    let mut slot_store: Vec<u32> = Vec::new(); // arena of slot lists
    let mut heap: BinaryHeap<Reverse<(OrdF64, u64, Dep)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut next_qid: QueryId = 0;
    let mut now = 0.0f64;
    let end_ms = (cfg.warmup_s + cfg.measure_s) * 1000.0;
    let warm_ms = cfg.warmup_s * 1000.0;
    let mut completed_measured: u64 = 0;
    let mut cpu_busy_at_warm: Option<f64> = None;
    // CPU demands sampled for queries parked on locks, keyed by query id
    // (declared before the macros below so their bodies can bind it).
    let mut pending_cpu: HashMap<QueryId, f64> = HashMap::new();

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Dep {
        Cpu(u64),
        Io(u64),
    }

    // --- helpers (closures capture too much; use macros-by-function style) ---
    fn pick_spec(mix: &[(usize, f64)], total: f64, rng: &mut StdRng) -> usize {
        let mut u: f64 = rng.random::<f64>() * total;
        for &(spec, w) in mix {
            if u < w {
                return spec;
            }
            u -= w;
        }
        mix.last().expect("non-empty mix").0
    }

    struct Ctx<'a> {
        specs: &'a [TemplateSpec],
        pfs_factor: f64,
    }
    let ctx = Ctx { specs: &workload.specs, pfs_factor: sim.pfs.cpu_overhead_factor() };

    // Issues a fresh query for one client slot.
    macro_rules! issue {
        () => {{
            let spec_idx = pick_spec(&cfg.mix, total_weight, &mut rng);
            let spec = &ctx.specs[spec_idx];
            let cost = spec.cost.sample(&mut rng);
            let qid = next_qid;
            next_qid += 1;
            let (slots_from, slots_len) = match spec.cost.lock {
                Some(fp)
                    if matches!(fp.mode, LockMode::SharedRows | LockMode::ExclusiveRows) =>
                {
                    let from = slot_store.len();
                    let mut chosen: Vec<u32> = Vec::with_capacity(fp.slots as usize);
                    let mut tries = 0;
                    while chosen.len() < fp.slots as usize && tries < fp.slots * 20 {
                        let s = zipfs[fp.table.0].sample(&mut rng) as u32;
                        if !chosen.contains(&s) {
                            chosen.push(s);
                        }
                        tries += 1;
                    }
                    chosen.sort_unstable();
                    let len = chosen.len();
                    slot_store.extend_from_slice(&chosen);
                    (from, len)
                }
                _ => (slot_store.len(), 0),
            };
            states.insert(
                qid,
                InFlight {
                    spec: spec_idx,
                    io_ms: cost.io_ms,
                    slots_from,
                    slots_len,
                    holds_mdl: false,
                    next_slot: 0,
                    phase: Phase::WaitMdl,
                },
            );
            // Store sampled CPU in io_ms? No — drive acquisition inline.
            progress!(qid, cost.cpu_ms * ctx.pfs_factor);
        }};
    }

    // Drives lock acquisition then the CPU phase. `$cpu_ms` < 0 means "the
    // CPU demand was already recorded" (resumption after a lock grant).
    macro_rules! progress {
        ($qid:expr, $cpu_ms:expr) => {{
            let qid: QueryId = $qid;
            let cpu_ms: f64 = $cpu_ms;
            let st = states.get_mut(&qid).expect("state");
            let spec = &ctx.specs[st.spec];
            let mut parked = false;
            if let Some(fp) = spec.cost.lock {
                let table = fp.table.0 as u32;
                if !st.holds_mdl {
                    let kind = if fp.mode == LockMode::ExclusiveTable {
                        LockKind::Exclusive
                    } else {
                        LockKind::Shared
                    };
                    if locks.request_mdl(qid, table, kind) {
                        st.holds_mdl = true;
                    } else {
                        st.phase = Phase::WaitMdl;
                        parked = true;
                    }
                }
                if !parked {
                    while st.next_slot < st.slots_len {
                        let slot = slot_store[st.slots_from + st.next_slot];
                        let kind = if fp.mode == LockMode::SharedRows {
                            LockKind::Shared
                        } else {
                            LockKind::Exclusive
                        };
                        if locks.request_slot(qid, table, slot, kind) {
                            st.next_slot += 1;
                        } else {
                            st.phase = Phase::WaitSlot;
                            parked = true;
                            break;
                        }
                    }
                }
            }
            if !parked {
                st.phase = Phase::Cpu;
                cpu.add(now, qid, cpu_ms);
                if let Some((at, _)) = cpu.next_departure() {
                    seq += 1;
                    heap.push(Reverse((OrdF64::new(at.max(now)), seq, Dep::Cpu(cpu.generation()))));
                }
            } else {
                // Stash the sampled CPU demand for resumption.
                pending_cpu.insert(qid, cpu_ms);
            }
        }};
    }

    let mut finished: Vec<QueryId> = Vec::new();
    let mut granted: Vec<QueryId> = Vec::new();

    for _ in 0..cfg.clients {
        issue!();
    }

    while let Some(Reverse((at, _, dep))) = heap.pop() {
        now = at.get().max(now);
        if now >= end_ms {
            break;
        }
        match dep {
            Dep::Cpu(gen) => {
                if gen != cpu.generation() {
                    continue;
                }
                finished.clear();
                cpu.pop_finished(now, 1e-6, &mut finished);
                for &qid in &finished {
                    let st = states.get_mut(&qid).expect("state");
                    if st.io_ms > 0.0 {
                        st.phase = Phase::Io;
                        io.add(now, qid, st.io_ms);
                        if let Some((at, _)) = io.next_departure() {
                            seq += 1;
                            heap.push(Reverse((
                                OrdF64::new(at.max(now)),
                                seq,
                                Dep::Io(io.generation()),
                            )));
                        }
                    } else {
                        complete(
                            qid, &mut states, &slot_store, &mut locks, &mut granted, &ctx,
                        );
                        if now >= warm_ms {
                            completed_measured += 1;
                        }
                        issue!();
                    }
                }
                if let Some((at, _)) = cpu.next_departure() {
                    seq += 1;
                    heap.push(Reverse((OrdF64::new(at.max(now)), seq, Dep::Cpu(cpu.generation()))));
                }
            }
            Dep::Io(gen) => {
                if gen != io.generation() {
                    continue;
                }
                finished.clear();
                io.pop_finished(now, 1e-6, &mut finished);
                for &qid in &finished {
                    complete(qid, &mut states, &slot_store, &mut locks, &mut granted, &ctx);
                    if now >= warm_ms {
                        completed_measured += 1;
                    }
                    issue!();
                }
                if let Some((at, _)) = io.next_departure() {
                    seq += 1;
                    heap.push(Reverse((OrdF64::new(at.max(now)), seq, Dep::Io(io.generation()))));
                }
            }
        }
        // Resume lock-grant recipients.
        if !granted.is_empty() {
            let grants: Vec<QueryId> = std::mem::take(&mut granted);
            for g in grants {
                let cpu_ms = pending_cpu.remove(&g).expect("pending cpu demand");
                {
                    let st = states.get_mut(&g).expect("state");
                    match st.phase {
                        Phase::WaitMdl => st.holds_mdl = true,
                        Phase::WaitSlot => st.next_slot += 1,
                        other => unreachable!("grant in phase {:?}", other),
                    }
                }
                progress!(g, cpu_ms);
            }
        }
        // Snapshot CPU busy time at the warm-up boundary.
        if cpu_busy_at_warm.is_none() && now >= warm_ms {
            cpu.advance(now);
            cpu_busy_at_warm = Some(cpu.busy_ms());
        }
    }

    fn complete(
        qid: QueryId,
        states: &mut HashMap<QueryId, InFlight>,
        slot_store: &[u32],
        locks: &mut LockManager,
        granted: &mut Vec<QueryId>,
        ctx: &Ctx<'_>,
    ) {
        let st = states.remove(&qid).expect("completing unknown query");
        if let Some(fp) = ctx.specs[st.spec].cost.lock {
            let table = fp.table.0 as u32;
            let slot_kind = if fp.mode == LockMode::SharedRows {
                LockKind::Shared
            } else {
                LockKind::Exclusive
            };
            for i in 0..st.next_slot {
                locks.release_slot(table, slot_store[st.slots_from + i], slot_kind, granted);
            }
            if st.holds_mdl {
                let kind = if fp.mode == LockMode::ExclusiveTable {
                    LockKind::Exclusive
                } else {
                    LockKind::Shared
                };
                locks.release_mdl(table, kind, granted);
            }
        }
    }

    cpu.advance(end_ms.max(now));
    let busy = cpu.busy_ms() - cpu_busy_at_warm.unwrap_or(0.0);
    ClosedLoopResult {
        qps: completed_measured as f64 / cfg.measure_s,
        cpu_utilization: (busy / (cfg.measure_s * 1000.0)).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PfsConfig;
    use pinsql_workload::dag::ApiDag;
    use pinsql_workload::{CostProfile, TableDef, TableId, TemplateSpec, Workload};

    fn bench_workload() -> Workload {
        let tables: Vec<TableDef> =
            (0..4).map(|i| TableDef::new(format!("sbtest{i}"), 10_000_000, 256)).collect();
        let mut specs = Vec::new();
        for i in 0..4 {
            let t = TableId(i);
            specs.push(TemplateSpec::new(
                &format!("SELECT c FROM sbtest{i} WHERE id = 1"),
                CostProfile::point_read(t),
                format!("read{i}"),
            ));
            specs.push(TemplateSpec::new(
                &format!("UPDATE sbtest{i} SET k = k + 1 WHERE id = 1"),
                CostProfile::point_write(t),
                format!("write{i}"),
            ));
        }
        Workload { tables, specs, dag: ApiDag::default(), roots: vec![] }
    }

    fn mix_read_only() -> Vec<(usize, f64)> {
        (0..8).filter(|i| i % 2 == 0).map(|i| (i, 1.0)).collect()
    }

    fn mix_write_only() -> Vec<(usize, f64)> {
        (0..8).filter(|i| i % 2 == 1).map(|i| (i, 1.0)).collect()
    }

    #[test]
    fn closed_loop_saturates_cpu() {
        let w = bench_workload();
        let sim = SimConfig::default().with_cores(4.0).with_seed(21);
        let cfg = ClosedLoopConfig {
            clients: 32,
            warmup_s: 2.0,
            measure_s: 10.0,
            mix: mix_read_only(),
        };
        let res = run_closed_loop(&w, &sim, &cfg);
        assert!(res.qps > 1000.0, "qps {}", res.qps);
        assert!(res.cpu_utilization > 0.9, "util {}", res.cpu_utilization);
    }

    #[test]
    fn pfs_reduces_qps() {
        let w = bench_workload();
        let cfg = ClosedLoopConfig {
            clients: 32,
            warmup_s: 2.0,
            measure_s: 10.0,
            mix: mix_read_only(),
        };
        let base = run_closed_loop(&w, &SimConfig::default().with_cores(4.0).with_seed(3), &cfg);
        let heavy = run_closed_loop(
            &w,
            &SimConfig::default().with_cores(4.0).with_seed(3).with_pfs(PfsConfig::PFS_CON_INS),
            &cfg,
        );
        let decline = 1.0 - heavy.qps / base.qps;
        assert!(
            (0.15..0.45).contains(&decline),
            "pfs+con+ins decline should be ~25-30%: {decline}"
        );
    }

    #[test]
    fn write_mix_runs_with_lock_contention() {
        let w = bench_workload();
        let sim = SimConfig::default().with_cores(4.0).with_seed(5);
        let cfg = ClosedLoopConfig {
            clients: 32,
            warmup_s: 1.0,
            measure_s: 5.0,
            mix: mix_write_only(),
        };
        let res = run_closed_loop(&w, &sim, &cfg);
        assert!(res.qps > 500.0, "qps {}", res.qps);
    }

    #[test]
    #[should_panic(expected = "non-empty mix")]
    fn empty_mix_panics() {
        let w = bench_workload();
        let _ = run_closed_loop(
            &w,
            &SimConfig::default(),
            &ClosedLoopConfig { mix: vec![], ..Default::default() },
        );
    }
}
