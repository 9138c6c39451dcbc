mod common;
use common::*;
use pinsql_engine::FleetDaemon;
use pinsql_scenario::materialize_events;
use std::time::Instant;

#[test]
fn timing() {
    let t = Instant::now();
    let entries = load_manifest();
    let sc: Vec<_> = entries.iter().map(scenario_for).collect();
    println!("scenarios {:.2}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let streams: Vec<_> = sc.iter().map(|s| materialize_events(s, None)).collect();
    println!("materialize {:.2}s events {}", t.elapsed().as_secs_f64(), streams.iter().map(Vec::len).sum::<usize>());
    drop(streams);
    let t = Instant::now();
    let _b = batch_reference(&entries[..2]);
    println!("batch 2 cases {:.2}s", t.elapsed().as_secs_f64());
    let cfg = golden_fleet_config(MatrixPoint::BASELINE);
    let t = Instant::now();
    let mut d = FleetDaemon::spawn(cfg.clone(), &sc);
    println!("spawn {:.2}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    d.advance_to(1_000_000);
    println!("advance {:.2}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let _run = d.finish();
    println!("finish {:.2}s", t.elapsed().as_secs_f64());
}
