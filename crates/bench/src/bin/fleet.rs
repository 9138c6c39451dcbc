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
//! Two sweeps run back to back, each printed as a table:
//!
//! * the throughput sweep (instances × businesses at 1 shard);
//! * the **scaling sweep** (shards × instances at the first businesses
//!   value), reporting each cell's ingest throughput and its speedup over
//!   the 1-shard run of the same fleet. Outcomes are bit-identical across
//!   shard counts (pinned by the `equivalence` matrix), so the sweep
//!   reports timing only.
//!
//! A final **traced run** repeats the largest fleet under a
//! `RecordingObserver`, prints the stage table and the fleet health
//! totals, and exports the per-stage timeline as
//! `results/trace_fleet.json` (chrome://tracing / Perfetto format) plus
//! the flat per-stage histograms, counters and gauges as
//! `results/fleet_metrics.json`.

#![forbid(unsafe_code)]

use pinsql::PinSqlConfig;
use pinsql_engine::{FleetConfig, FleetEngine};
use pinsql_obs::export::{chrome_trace, metrics_export};
use pinsql_obs::{RecordingObserver, Stage};
use pinsql_scenario::{generate_base, inject, inject_none, AnomalyKind, Scenario, ScenarioConfig};

const WINDOW_S: i64 = 600;
const ANOMALY: (i64, i64) = (360, 480);
const DELTA_S: i64 = 240;

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

fn write_results(file: &str, text: String) {
    let path = format!("results/{file}");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
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
        }
    }

    // Scaling sweep: shards × instances at the first businesses value.
    let businesses = business_counts[0];
    println!();
    println!(
        "{:>9} {:>7} {:>10} {:>12} {:>9} {:>11} {:>11}",
        "instances", "shards", "events", "events/sec", "speedup", "diag mean s", "diag max s"
    );
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
        }
    }

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

    let h = &run.health;
    println!(
        "health: {} instances, {} events, {} queries, max {} records resident",
        h.instances.len(),
        h.events_total,
        h.queries_total,
        h.max_records_resident
    );

    // Open in chrome://tracing or ui.perfetto.dev.
    write_results("trace_fleet.json", chrome_trace(&registry, &obs.lanes()));
    write_results("fleet_metrics.json", metrics_export(&registry).to_json().render_pretty());
}
