//! Known answers for the query lifecycle over a seeded sweep of small
//! inputs.
//!
//! Each seed draws a random workload — one to three tables with few hot
//! slots, point reads and writes, scans with an IO phase, batch writes,
//! locking reads and short DDL — and runs it through both drivers:
//!
//! * an open loop with a tight admission limit and a long DDL spliced in
//!   whose work ends within a few seconds of the 600 s drain cap, before
//!   or after it, so that on many seeds queries are still in flight at
//!   the cap and are force-completed there;
//! * a closed loop of one to six clients on one to four cores, so that
//!   both saturated and unsaturated runs (a `cpu_utilization` under 1)
//!   are pinned.
//!
//! Every bit of each output folds to one fingerprint per seed, pinned in
//! `known_answers.txt` (one `seed fingerprint` line per seed) by
//! `pinsql_testkit::pin`. A failure prints the first lines that moved,
//! each naming its seed. After an intentional change to the simulator,
//! `PINSQL_BLESS=1 cargo test -p pinsql-dbsim known_answer` rewrites the
//! file; review the diff.

use super::Lifecycle;
use crate::closedloop::{run_closed_loop, ClosedLoopConfig};
use crate::config::{PfsConfig, SimConfig};
use crate::engine::SimOutput;
use pinsql_workload::dag::Call;
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};
use pinsql_workload::{
    Api, ApiDag, CostProfile, LockMode, SpecId, TableDef, TableId, TemplateSpec, TrafficPattern,
    Workload,
};

const SEEDS: u64 = 256;

const ANSWERS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/src/engine/known_answers.txt");

/// FNV-1a over the bit patterns of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every bit of an open-loop output: each record's fields, each metric
/// series and each probe sample.
fn output_words(out: &SimOutput, words: &mut Vec<u64>) {
    words.push(out.log.len() as u64);
    for r in &out.log {
        words.extend([r.spec.0 as u64, r.start_ms.to_bits(), r.response_ms.to_bits()]);
        words.push(r.examined_rows);
    }
    let m = &out.metrics;
    words.push(m.start_second as u64);
    for series in [
        &m.active_session,
        &m.cpu_usage,
        &m.iops_usage,
        &m.row_lock_waits,
        &m.mdl_waits,
        &m.qps,
    ] {
        words.push(series.len() as u64);
        words.extend(series.iter().map(|v| v.to_bits()));
    }
    for p in &m.probes.samples {
        words.extend([p.second as u64, p.active_sessions as u64, p.true_instant_ms.to_bits()]);
    }
}

/// One to three tables of 1–24 hot slots, and a few statements on each.
fn random_workload(rng: &mut StdRng) -> Workload {
    let n_tables = rng.random_range(1..=3usize);
    let tables: Vec<TableDef> = (0..n_tables)
        .map(|i| TableDef::new(format!("t{i}"), 1_000_000, rng.random_range(1..=24u32)))
        .collect();
    let mut specs = Vec::new();
    for t in (0..n_tables).map(TableId) {
        let profiles = [
            CostProfile::point_read(t),
            CostProfile::point_write(t),
            CostProfile::poor_scan(t, rng.random_range(200.0..6_000.0)),
            CostProfile::batch_write(t, rng.random_range(2..=5u32), rng.random_range(1.0..12.0)),
            CostProfile::range_read(t, rng.random_range(50.0..2_000.0))
                .with_shared_row_locks(rng.random_range(1..=3u32)),
            CostProfile::ddl(t, rng.random_range(5.0..120.0)),
        ];
        for cost in profiles {
            // DDL is rarer than the rest.
            let is_ddl = cost.lock.is_some_and(|l| l.mode == LockMode::ExclusiveTable);
            let keep = rng.random::<f64>() < if is_ddl { 0.3 } else { 0.7 };
            if keep || specs.is_empty() {
                let i = specs.len();
                specs.push(TemplateSpec::new(&format!("SELECT {i} FROM t"), cost, format!("s{i}")));
            }
        }
    }
    Workload { tables, specs, dag: ApiDag::default(), roots: Vec::new() }
}

/// The open-loop half of seed `seed`: random traffic over `w`'s
/// statements, and one long DDL ending near the drain cap.
fn open_loop_words(seed: u64, rng: &mut StdRng, mut w: Workload, words: &mut Vec<u64>) {
    let n_specs = w.specs.len();
    for _ in 0..rng.random_range(1..=3usize) {
        let mut api = Api::named("api");
        for _ in 0..rng.random_range(1..=3usize) {
            let spec = SpecId(rng.random_range(0..n_specs));
            api = if rng.random::<f64>() < 0.5 {
                api.query(Call::once(spec))
            } else {
                api.query(Call::maybe(spec, rng.random_range(0.2..0.9)))
            };
        }
        let root = w.dag.push(api);
        w.roots.push((root, TrafficPattern::steady(rng.random_range(2.0..40.0))));
    }
    let end_s = rng.random_range(3..=8u32) as i64;
    let cfg = SimConfig {
        io_channels: rng.random_range(1..=4u32) as f64,
        max_sessions: [4, 16, 1_000, 1_000][rng.random_range(0..4usize)],
        ..SimConfig::default()
            .with_cores([1.0, 1.0, 2.0, 4.0][rng.random_range(0..4usize)])
            .with_pfs(random_pfs(rng))
            .with_seed(seed)
    };
    // A DDL of CPU work only, deterministic, arriving inside the window;
    // anything on its table queues behind its exclusive MDL. Run alone from
    // its arrival, it would end within −3 … +2 s of the drain cap on half
    // the seeds, in the last 200 ms before it on the other half; sharing a
    // core pushes it later, past the cap on many seeds.
    let table = TableId(rng.random_range(0..w.tables.len()));
    let at_ms = rng.random::<f64>() * end_s as f64 * 1_000.0;
    let drain_end_ms = (end_s + super::DRAIN_CAP_S) as f64 * 1_000.0;
    let overrun_ms = if rng.random::<f64>() < 0.5 {
        rng.random_range(-3_000.0..2_000.0)
    } else {
        rng.random_range(-200.0..0.0)
    };
    let cpu_ms = (drain_end_ms - at_ms + overrun_ms) / cfg.pfs.cpu_overhead_factor();
    let ddl = SpecId(w.specs.len());
    w.specs.push(TemplateSpec::new(
        "ALTER TABLE t ADD COLUMN c INT",
        CostProfile { io_ms: 0.0, sigma: 0.0, ..CostProfile::ddl(table, cpu_ms) },
        "ddl",
    ));
    let mut life = Lifecycle::open_loop(&w, &cfg, 0, end_s);
    let arrivals = &mut life.driver.arrivals;
    let i = arrivals.partition_point(|a| a.0 < at_ms);
    arrivals.insert(i, (at_ms, ddl));
    output_words(&life.run(0, end_s), words);
}

fn random_pfs(rng: &mut StdRng) -> PfsConfig {
    [PfsConfig::OFF, PfsConfig::PFS, PfsConfig::PFS_INS, PfsConfig::PFS_CON, PfsConfig::PFS_CON_INS]
        [rng.random_range(0..5usize)]
}

/// The closed-loop half of seed `seed`: a random weighted mix over `w`'s
/// statements.
fn closed_loop_words(seed: u64, rng: &mut StdRng, w: &Workload, words: &mut Vec<u64>) {
    let mix: Vec<(usize, f64)> =
        (0..w.specs.len()).map(|i| (i, rng.random_range(0.1..3.0))).collect();
    let sim = SimConfig::default()
        .with_cores([1.0, 2.0, 4.0][rng.random_range(0..3usize)])
        .with_pfs(random_pfs(rng))
        .with_seed(seed);
    let cfg = ClosedLoopConfig {
        clients: rng.random_range(1..=6usize),
        warmup_s: rng.random_range(0.05..0.3),
        measure_s: rng.random_range(0.2..0.6),
        mix,
    };
    let r = run_closed_loop(w, &sim, &cfg);
    words.extend([r.qps.to_bits(), r.cpu_utilization.to_bits()]);
}

/// Seed `seed`'s fingerprint: both drivers over one random workload.
fn fingerprint(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = random_workload(&mut rng);
    let mut words = Vec::new();
    closed_loop_words(seed, &mut rng, &w, &mut words);
    open_loop_words(seed, &mut rng, w, &mut words);
    fnv(words)
}

#[test]
fn known_answer_sweep() {
    let got: Vec<u64> = pinsql_timeseries::par_map(SEEDS as usize, 2, |i| fingerprint(i as u64));
    let table: String =
        got.iter().enumerate().map(|(seed, f)| format!("{seed} {f:016x}\n")).collect();
    pinsql_testkit::pin(ANSWERS, table.as_bytes());
}
