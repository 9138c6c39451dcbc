//! Closed-loop saturation driver for the Table IV overhead study.
//!
//! The paper stress-tests Performance-Schema overhead with a 32-thread
//! sysbench run against a 4-core instance, measuring QPS at the CPU
//! bottleneck under different pfs configurations. This driver reproduces
//! that shape: `clients` virtual sessions each issue one query at a time,
//! drawn from a weighted template mix, with zero think time; completed
//! queries per second are counted after a warm-up.
//!
//! Queries run through the simulator's one query lifecycle
//! ([`crate::engine`]), the one the open loop drives; this module keeps
//! only what makes the loop closed. At each completion the driver counts
//! the query and issues that client's next one (mix draw, then the cost
//! and slot draws). The queries the completions' released locks granted
//! are resumed only after the whole departure — every completion and the
//! resource's reschedule. The run stops at the first departure at or past
//! its end, superseded ones included: the CPU busy integral is read
//! there.

use crate::config::SimConfig;
use crate::engine::{Driver, Lifecycle, Res};
use crate::locks::QueryId;
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};
use pinsql_workload::{SpecId, Workload};

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

/// The clients: the mix they draw from and the completions counted past
/// the warm-up.
struct Clients<'c> {
    mix: &'c [(usize, f64)],
    total_weight: f64,
    warm_ms: f64,
    end_ms: f64,
    /// The earliest superseded departure at or past `end_ms`.
    stale_stop: f64,
    completed_measured: u64,
}

impl Driver for Clients<'_> {
    fn complete(life: &mut Lifecycle<'_, Self>, qid: QueryId) {
        life.release(qid);
        if life.now >= life.driver.warm_ms {
            life.driver.completed_measured += 1;
        }
        issue(life);
    }

    fn superseded(&mut self, at: f64) {
        if at >= self.end_ms {
            self.stale_stop = self.stale_stop.min(at);
        }
    }
}

/// Issues one client's next query: a mix draw, then the lifecycle's spawn
/// and lock acquisition.
fn issue(life: &mut Lifecycle<'_, Clients<'_>>) {
    let Clients { mix, total_weight, .. } = life.driver;
    let mut u: f64 = life.rng.random::<f64>() * total_weight;
    let mut spec = mix.last().expect("non-empty mix").0;
    for &(candidate, w) in mix {
        if u < w {
            spec = candidate;
            break;
        }
        u -= w;
    }
    let qid = life.spawn(SpecId(spec), life.now);
    life.continue_acquisition(qid);
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

    let rng = StdRng::seed_from_u64(sim.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let end_ms = (cfg.warmup_s + cfg.measure_s) * 1000.0;
    let warm_ms = cfg.warmup_s * 1000.0;
    let clients = Clients {
        mix: &cfg.mix,
        total_weight,
        warm_ms,
        end_ms,
        stale_stop: f64::INFINITY,
        completed_measured: 0,
    };
    let mut life = Lifecycle::new(workload, sim, rng, 0.0, clients);
    for _ in 0..cfg.clients {
        issue(&mut life);
    }

    let mut cpu_busy_at_warm: Option<f64> = None;
    let mut stop = f64::INFINITY;
    while let Some((at, res)) = life.pop_event() {
        life.now = at.max(life.now);
        if life.now >= end_ms {
            stop = life.now;
            break;
        }
        life.depart(res);
        life.resume_grants();
        // Snapshot CPU busy time at the warm-up boundary.
        if cpu_busy_at_warm.is_none() && life.now >= warm_ms {
            cpu_busy_at_warm = Some(life.busy_ms(Res::Cpu));
        }
    }

    // The clock stops at the first departure at or past the end,
    // superseded ones included; with none pending, at the end.
    let stop = stop.min(life.driver.stale_stop);
    life.now = if stop.is_finite() { stop } else { end_ms.max(life.now) };
    let busy = life.busy_ms(Res::Cpu) - cpu_busy_at_warm.unwrap_or(0.0);
    ClosedLoopResult {
        qps: life.driver.completed_measured as f64 / cfg.measure_s,
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

    /// FNV-1a over the bit patterns of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Known answer: the `qps` and `cpu_utilization` bits of a grid of
    /// runs — read-only, write-only and mixed, pfs off and `con+ins`, one
    /// and 32 clients, two seeds — fold to one pinned fingerprint. A
    /// change to the query lifecycle, to the draw order or to where the
    /// warm-up snapshot is taken moves it.
    #[test]
    fn closed_loop_known_answer_grid() {
        let w = bench_workload();
        let mixed: Vec<(usize, f64)> = (0..8).map(|i| (i, [3.0, 1.0][i % 2])).collect();
        let mut bits = Vec::new();
        for mix in [mix_read_only(), mix_write_only(), mixed] {
            for pfs in [PfsConfig::OFF, PfsConfig::PFS_CON_INS] {
                for clients in [1, 32] {
                    for seed in [1, 99] {
                        let sim = SimConfig::default().with_cores(4.0).with_seed(seed).with_pfs(pfs);
                        let cfg = ClosedLoopConfig {
                            clients,
                            warmup_s: 0.5,
                            measure_s: 1.5,
                            mix: mix.clone(),
                        };
                        let r = run_closed_loop(&w, &sim, &cfg);
                        bits.extend([r.qps.to_bits(), r.cpu_utilization.to_bits()]);
                    }
                }
            }
        }
        assert_eq!(fnv(bits), 0x44a8_2fce_bb3b_69d4, "closed-loop results moved");
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
