//! The resident daemon beyond the equivalence matrix.
//!
//! `tests/equivalence.rs` pins the reconfigured, restarted daemon against
//! the batch reference at every matrix point. This suite keeps the
//! [`FleetReport`] contract on golden scenarios: config epoch, per-region
//! rollup counts. (The epoch algebra over real PCTL
//! frames is an engine unit test,
//! `daemon::tests::stale_and_replayed_epochs_are_rejected_whole`.)

mod common;

use common::{control, golden_scenarios, golden_streams, load_manifest, GOLDEN_DELTA_S};
use pinsql_engine::{ControlMsg, ControlResp, DaemonState, FleetConfig, FleetDaemon, FleetRun};
use pinsql_obs::NoopObserver;

/// Five golden scenarios under two shards and three regions, run to the
/// end with no pushes and stopped over the control wire.
fn five_instance_run() -> FleetRun {
    let entries = &load_manifest()[..5];
    let scenarios = golden_scenarios(entries);
    let cfg = FleetConfig {
        delta_s: GOLDEN_DELTA_S,
        shards: 2,
        fanout: 1,
        regions: 3,
        ..FleetConfig::default()
    };
    let mut agent = FleetDaemon::spawn(cfg, &scenarios, golden_streams(entries), NoopObserver)
        .expect("streams admitted");
    let stopped = control(&mut agent, ControlMsg::Stop);
    assert!(matches!(stopped, ControlResp::Ack { state: DaemonState::Stopped, .. }), "{stopped:?}");
    agent.finish()
}

/// The report's rollup tree is exact: region counts partition the fleet
/// and re-aggregate to the fleet totals.
#[test]
fn fleet_report_rollup_counts() {
    let run = five_instance_run();
    let report = &run.report;

    assert_eq!(report.config_epoch, 0, "no pushes: still the initial epoch");
    assert_eq!(report.rollup.regions.len(), 3, "one rollup per region");
    assert_eq!(report.rollup.instances(), 5, "rollup covers the whole fleet");
    assert!(report.rollup.is_consistent(), "region rollups re-aggregate to the fleet total");
    let per_region: u64 = report.rollup.regions.iter().map(|r| r.rollup.instances).sum();
    assert_eq!(per_region, report.rollup.total.instances, "regions partition the fleet");
    assert_eq!(report.rollup.total.events_total, report.events_total);
}
