//! Fleet-engine throughput sweep: instance count × event rate.
//!
//! For every (instances, businesses-per-instance) cell, builds that many
//! scenarios (anomaly kinds cycled, plus a negative every fifth instance),
//! multiplexes their telemetry through one [`FleetEngine`] run, and
//! records sustained ingest throughput plus per-case diagnosis latency.
//!
//! Usage: `cargo run -p pinsql-bench --release --bin fleet [-- INSTANCES_CSV [BUSINESSES_CSV [SEED [FANOUT [SHARDS_CSV]]]]]`
//! Defaults: instances `2,4,8`, businesses `6,12`, seed 5000, fanout 0
//! (all cores), shards `1,2,4`. Event rate scales with the businesses
//! knob — more businesses means more templates and a proportionally
//! denser query stream per instance.
//!
//! Two sweeps run back to back:
//!
//! * the throughput sweep (instances × businesses at 1 shard) →
//!   `results/fleet.json`, unchanged shape from earlier revisions;
//! * the **scaling sweep** (shards × instances at the first businesses
//!   value) → `results/fleet_scaling.json`, reporting each cell's ingest
//!   throughput and its speedup over the 1-shard run of the same fleet.
//!   Outcomes are bit-identical across shard counts (pinned by the
//!   `equivalence` matrix), so the sweep reports timing only.
//!
//! A final **traced run** repeats the largest fleet under a
//! `RecordingObserver` and exports the per-stage timeline as
//! `results/trace_fleet.json` (chrome://tracing / Perfetto format) plus
//! flat per-stage histograms, counters, and the fleet health roll-up as
//! `results/fleet_metrics.json`.

use pinsql::PinSqlConfig;
use pinsql_engine::{FleetConfig, FleetEngine, FleetReport};
use pinsql_obs::export::{chrome_trace, metrics_export, MetricsExport};
use pinsql_obs::{FleetHealth, RecordingObserver, Stage};
use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, Scenario, ScenarioConfig};
use serde::Serialize;

const WINDOW_S: i64 = 600;
const ANOMALY: (i64, i64) = (360, 480);
const DELTA_S: i64 = 240;

#[derive(Serialize)]
struct SweepCell {
    instances: usize,
    businesses: usize,
    report: FleetReport,
}

#[derive(Serialize)]
struct FleetSweep {
    seed: u64,
    fanout: usize,
    window_s: i64,
    delta_s: i64,
    cells: Vec<SweepCell>,
}

#[derive(Serialize)]
struct ScalingCell {
    instances: usize,
    shards: usize,
    events_total: u64,
    ingest_wall_s: f64,
    events_per_sec: f64,
    /// This cell's ingest throughput over the 1-shard cell of the same
    /// fleet (1.0 when this *is* the 1-shard cell).
    speedup_vs_1shard: f64,
    diagnose_mean_s: f64,
    diagnose_max_s: f64,
}

/// `results/fleet_metrics.json`: the traced run's flat metrics view.
#[derive(Serialize)]
struct FleetMetrics {
    instances: usize,
    businesses: usize,
    shards: usize,
    fanout: usize,
    /// Per-stage latency histograms, counters, and gauges.
    metrics: MetricsExport,
    /// Per-instance health snapshots plus fleet totals.
    health: FleetHealth,
}

#[derive(Serialize)]
struct ScalingSweep {
    seed: u64,
    fanout: usize,
    businesses: usize,
    window_s: i64,
    delta_s: i64,
    /// Cores visible to the process — shard speedups cannot exceed this.
    available_cores: usize,
    cells: Vec<ScalingCell>,
}

fn scenarios(n: usize, businesses: usize, seed: u64) -> Vec<Scenario> {
    let kinds = [
        Some(AnomalyKind::BusinessSpike),
        Some(AnomalyKind::PoorSql),
        Some(AnomalyKind::MdlLock),
        Some(AnomalyKind::RowLock),
        None,
    ];
    (0..n)
        .map(|i| {
            let cfg = ScenarioConfig::default()
                .with_seed(seed + i as u64)
                .with_businesses(businesses)
                .with_window(WINDOW_S, ANOMALY.0, ANOMALY.1);
            let base = generate_base(&cfg);
            match kinds[i % kinds.len()] {
                Some(kind) => inject(&base, &cfg, kind),
                None => inject_none(&base, &cfg),
            }
        })
        .collect()
}

fn parse_csv(arg: Option<String>, default: &[usize]) -> Vec<usize> {
    arg.map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect::<Vec<_>>())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all("results")
        .map_err(|e| e.to_string())
        .and_then(|_| serde_json::to_string_pretty(value).map_err(|e| e.to_string()))
        .and_then(|json| std::fs::write(path, json).map_err(|e| e.to_string()))
    {
        eprintln!("failed to write {path}: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn main() {
    let instance_counts = parse_csv(std::env::args().nth(1), &[2, 4, 8]);
    let business_counts = parse_csv(std::env::args().nth(2), &[6, 12]);
    let seed: u64 = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(5000);
    let fanout: usize = std::env::args().nth(4).and_then(|s| s.parse().ok()).unwrap_or(0);
    let shard_counts = parse_csv(std::env::args().nth(5), &[1, 2, 4]);

    let engine = FleetEngine::new(FleetConfig {
        delta_s: DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout,
        shards: 1,
        ..FleetConfig::default()
    });

    println!(
        "{:>9} {:>10} {:>10} {:>12} {:>11} {:>11} {:>9}",
        "instances", "businesses", "events", "events/sec", "diag mean s", "diag max s", "hits"
    );
    let mut cells = Vec::new();
    for &bz in &business_counts {
        for &n in &instance_counts {
            let scen = scenarios(n, bz, seed);
            let report = engine.run(&scen);
            let hits = report.outcomes.iter().filter(|o| o.truth_hit).count();
            let with_truth =
                report.outcomes.iter().filter(|o| o.kind != "none").count();
            println!(
                "{:>9} {:>10} {:>10} {:>12.0} {:>11.4} {:>11.4} {:>6}/{}",
                n,
                bz,
                report.events_total,
                report.events_per_sec,
                report.diagnose_mean_s,
                report.diagnose_max_s,
                hits,
                with_truth,
            );
            cells.push(SweepCell { instances: n, businesses: bz, report });
        }
    }

    let sweep = FleetSweep { seed, fanout, window_s: WINDOW_S, delta_s: DELTA_S, cells };
    write_json("results/fleet.json", &sweep);

    // Scaling sweep: shards × instances at the first businesses value.
    let businesses = business_counts[0];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!();
    println!(
        "{:>9} {:>7} {:>10} {:>12} {:>9} {:>11} {:>11}",
        "instances", "shards", "events", "events/sec", "speedup", "diag mean s", "diag max s"
    );
    let mut scaling_cells = Vec::new();
    for &n in &instance_counts {
        let scen = scenarios(n, businesses, seed);
        let mut baseline_eps = 0.0f64;
        for &shards in &shard_counts {
            let engine = FleetEngine::new(FleetConfig {
                delta_s: DELTA_S,
                pinsql: PinSqlConfig::default(),
                fanout,
                shards,
                ..FleetConfig::default()
            });
            let report = engine.run(&scen);
            if shards == 1 || baseline_eps == 0.0 {
                baseline_eps = report.events_per_sec;
            }
            let speedup =
                if baseline_eps > 0.0 { report.events_per_sec / baseline_eps } else { 0.0 };
            println!(
                "{:>9} {:>7} {:>10} {:>12.0} {:>9.2} {:>11.4} {:>11.4}",
                n,
                report.shards,
                report.events_total,
                report.events_per_sec,
                speedup,
                report.diagnose_mean_s,
                report.diagnose_max_s,
            );
            scaling_cells.push(ScalingCell {
                instances: n,
                shards: report.shards,
                events_total: report.events_total,
                ingest_wall_s: report.ingest_wall_s,
                events_per_sec: report.events_per_sec,
                speedup_vs_1shard: speedup,
                diagnose_mean_s: report.diagnose_mean_s,
                diagnose_max_s: report.diagnose_max_s,
            });
        }
    }
    let scaling = ScalingSweep {
        seed,
        fanout,
        businesses,
        window_s: WINDOW_S,
        delta_s: DELTA_S,
        available_cores: cores,
        cells: scaling_cells,
    };
    write_json("results/fleet_scaling.json", &scaling);

    // Traced run: the largest fleet once more, recording. The diagnosis
    // outputs are identical to the untraced runs (the equivalence matrix
    // pins this); what this adds is the cross-thread stage timeline.
    let n = *instance_counts.last().unwrap_or(&2);
    let shards = *shard_counts.last().unwrap_or(&1);
    let scen = scenarios(n, businesses, seed);
    let obs = RecordingObserver::new();
    let run = FleetEngine::new(FleetConfig {
        delta_s: DELTA_S,
        pinsql: PinSqlConfig::default(),
        fanout,
        shards,
        ..FleetConfig::default()
    })
    .run_full_observed(&scen, &obs);

    let registry = obs.registry();
    println!();
    println!("traced run: {n} instances, {shards} shards");
    println!("{:>17} {:>9} {:>12} {:>12} {:>12}", "stage", "spans", "mean us", "p99 us", "max us");
    for stage in Stage::ALL {
        let h = registry.span_hist(stage);
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:>17} {:>9} {:>12.1} {:>12.1} {:>12.1}",
            stage.name(),
            h.count(),
            h.mean_ns() / 1000.0,
            h.quantile_upper_ns(0.99) as f64 / 1000.0,
            h.max_ns() as f64 / 1000.0,
        );
    }

    if let Err(e) = std::fs::create_dir_all("results")
        .map_err(|e| e.to_string())
        .and_then(|_| {
            std::fs::write("results/trace_fleet.json", chrome_trace(&registry, &obs.lanes()))
                .map_err(|e| e.to_string())
        })
    {
        eprintln!("failed to write results/trace_fleet.json: {e}");
    } else {
        eprintln!("wrote results/trace_fleet.json (open in chrome://tracing or ui.perfetto.dev)");
    }
    let metrics = FleetMetrics {
        instances: n,
        businesses,
        shards,
        fanout,
        metrics: metrics_export(&registry),
        health: run.health,
    };
    write_json("results/fleet_metrics.json", &metrics);
}
