//! The paper's motivating SALES example (§I, Challenge III), hand-built.
//!
//! ```text
//! cargo run --release --example lock_contention
//! ```
//!
//! A repricing batch job issues wide exclusive-row-lock `UPDATE`s on the
//! `sales` table while reading current prices through the shop's own
//! services (so its traffic couples with the shop's templates — the
//! microservice-DAG structure §VI's clustering relies on). Running
//! `SELECT`s are forced to wait behind the locks, so the *SELECTs* blow up
//! the active session — they are the H-SQLs — while the *UPDATE* is the
//! R-SQL. A Top-SQL product ranks by total response time and surfaces the
//! victims; PinSQL walks the propagation chain back to the batch UPDATE.

use pinsql::{PinSql, PinSqlConfig};
use pinsql_baselines::{rank_top, TopMetric};
use pinsql_collector::{HistoryStore, IncrementalAggregator, IncrementalConfig};
use pinsql_detect::{classify, AnomalyWindow, OnlineDetectorBank, PhenomenonConfig};
use pinsql_dbsim::{interleave, run_open_loop, SimConfig, TelemetryEvent};
use pinsql_workload::dag::{Api, Call};
use pinsql_workload::{
    ApiDag, CostProfile, EventShape, RateEvent, SpecId, TableDef, TableId, TemplateSpec,
    TrafficPattern, Workload,
};

fn main() {
    let sales = TableId(0);
    let users = TableId(1);
    let specs = vec![
        // The victims: locking reads on sales (e.g. inventory checks).
        TemplateSpec::new(
            "SELECT qty FROM sales WHERE sku = 1 LOCK IN SHARE MODE",
            CostProfile::point_read(sales).with_shared_row_locks(1),
            "sales.check_stock",
        ),
        TemplateSpec::new(
            "SELECT price FROM sales WHERE sku = 2",
            CostProfile::point_read(sales),
            "sales.read_price",
        ),
        // Unrelated business on another table.
        TemplateSpec::new(
            "SELECT name FROM users WHERE uid = 3",
            CostProfile::point_read(users),
            "users.profile",
        ),
        // The root cause: a batch repricing job taking wide exclusive locks.
        TemplateSpec::new(
            "UPDATE sales SET price = 1 WHERE campaign = 2",
            CostProfile::batch_write(sales, 32, 700.0),
            "sales.batch_reprice",
        ),
    ];
    let mut dag = ApiDag::default();
    // The shop's inventory/pricing service (a child API the batch job can
    // also call).
    let inventory = dag.push(
        Api::named("inventory").query(Call::times(SpecId(0), 2)).query(Call::once(SpecId(1))),
    );
    let shop = dag
        .push(Api::named("shop").child(Call::once(inventory)).query(Call::once(SpecId(2))));
    // The repricing pipeline: occasionally fires the batch UPDATE and reads
    // prices through the shop's own inventory service (trend coupling).
    let repricer =
        dag.push(Api::named("repricer").query(Call::maybe(SpecId(3), 0.3)).child(Call::times(inventory, 2)));
    let workload = Workload {
        tables: vec![TableDef::new("sales", 5_000_000, 48), TableDef::new("users", 2_000_000, 48)],
        specs,
        dag,
        roots: vec![
            (shop, TrafficPattern::diurnal(8.0, 0.3, 900.0, 0.0)),
            // The batch job runs only during [300, 540).
            (
                repricer,
                TrafficPattern::steady(1e-4).with_noise(0.0).with_event(RateEvent {
                    start: 300,
                    end: 540,
                    multiplier: 3.2 / 1e-4,
                    shape: EventShape::Step,
                }),
            ),
        ],
    };

    println!("simulating 720 s of the SALES scenario...");
    let out = run_open_loop(&workload, &SimConfig::default().with_cores(2.0).with_seed(5), 0, 720);

    // Stream the telemetry through the online collector and detector bank,
    // in time order: every event is folded, every metric sample stepped.
    let mut collector = IncrementalAggregator::new(&workload.specs, IncrementalConfig::default());
    let mut detectors = OnlineDetectorBank::new();
    for ev in interleave(out.log, &out.metrics) {
        if let TelemetryEvent::Metrics(sample) = &ev {
            detectors.observe(sample);
        }
        collector.ingest(ev);
    }
    detectors.finish();
    let phenomena = classify(&detectors.features(), &PhenomenonConfig::default());
    let p = phenomena.iter().max_by_key(|p| p.end - p.start).expect("anomaly detected");
    println!("detected {} over [{}, {}) s", p.anomaly_type, p.start, p.end);

    let window = AnomalyWindow::from_phenomenon(p, 240).clamped(0, 720);
    let case = collector.snapshot(window.ts(), window.te());

    // What a Top-SQL product shows the DBA:
    let top = rank_top(&case, &window, TopMetric::TotalResponseTime);
    println!("\nTop-RT view (what the DBA sees first):");
    for &(idx, v) in top.iter().take(3) {
        let t = &case.templates[idx];
        println!("  {:>12.0} ms total  {}", v, case.catalog.get(t.id).unwrap().label);
    }

    // What PinSQL concludes:
    let d = PinSql::new(PinSqlConfig::default()).diagnose(
        &case,
        &window,
        &HistoryStore::new(),
        1_000_000,
    );
    println!("\nPinSQL H-SQLs (victims driving the session):");
    for h in d.hsqls.iter().take(2) {
        println!("  impact {:+.2}  {}", h.score, h.label);
    }
    println!("PinSQL R-SQLs (the root cause):");
    for r in d.rsqls.iter().take(2) {
        println!("  score {:+.2}  {}", r.score, r.label);
    }
    assert_eq!(d.rsqls[0].label, "sales.batch_reprice", "the batch job must be pinpointed");
    println!("\n→ the batch repricing UPDATE is the R-SQL, as constructed ✓");
}
