//! Unit tests of the composition: batch equivalence, runs of N against
//! runs of one, retention, the time-jump rule, and the `PSNP` body.

use super::*;
use crate::aggregate::aggregate_case;
use crate::cells::{cell_from_row, cell_row, CELL_ROW_BYTES};
use crate::cellstore::Cell;
use pinsql_dbsim::probe::ProbeLog;
use pinsql_dbsim::wire::{query_record_bytes, query_record_from_bytes, QUERY_RECORD_BYTES};
use pinsql_dbsim::{interleave, InstanceMetrics, QueryRecord};
use pinsql_testkit::{f64_pattern, mutations, sweep, truncations, BYTE_VALUES};
use pinsql_workload::rng::RngExt;
use pinsql_workload::{CostProfile, SpecId, TableId};

fn spec(sql: &str) -> TemplateSpec {
    TemplateSpec::new(sql, CostProfile::point_read(TableId(0)), "t")
}

fn rec(spec_idx: usize, start_ms: f64, rt: f64, rows: u64) -> QueryRecord {
    QueryRecord { spec: SpecId(spec_idx), start_ms, response_ms: rt, examined_rows: rows }
}

fn query(agg: &mut IncrementalAggregator, rec: QueryRecord) {
    agg.ingest(TelemetryEvent::Query(rec));
}

fn flat_metrics(start: i64, n: usize) -> InstanceMetrics {
    InstanceMetrics {
        start_second: start,
        active_session: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
        cpu_usage: vec![0.25; n],
        iops_usage: vec![0.1; n],
        row_lock_waits: vec![0.0; n],
        mdl_waits: vec![0.0; n],
        qps: vec![7.0; n],
        probes: ProbeLog::default(),
    }
}

/// Each record's owner against the catalog's id for its spec, looked up
/// among the case's templates.
fn assert_owners_by_catalog(case: &CaseData) {
    for rec in case.records.iter() {
        let pos = case.template_index(case.catalog.id_of_spec(rec.spec));
        let want = pos.map_or(CaseData::NO_TEMPLATE, |p| p as u32);
        assert_eq!(case.template_of(rec.spec), want, "owner of {rec:?}");
    }
}

fn assert_case_eq(a: &CaseData, b: &CaseData) {
    assert_eq!(a.ts, b.ts);
    assert_eq!(a.te, b.te);
    assert_eq!(a.records, b.records);
    assert_eq!(a.metrics.start_second, b.metrics.start_second);
    assert_eq!(a.metrics.active_session, b.metrics.active_session);
    assert_eq!(a.metrics.cpu_usage, b.metrics.cpu_usage);
    assert_eq!(a.metrics.iops_usage, b.metrics.iops_usage);
    assert_eq!(a.metrics.row_lock_waits, b.metrics.row_lock_waits);
    assert_eq!(a.metrics.mdl_waits, b.metrics.mdl_waits);
    assert_eq!(a.metrics.qps, b.metrics.qps);
    assert_eq!(a.metrics.probes.samples, b.metrics.probes.samples);
    assert_eq!(a.templates.len(), b.templates.len());
    assert_owners_by_catalog(a);
    assert_owners_by_catalog(b);
    for (x, y) in a.templates.iter().zip(&b.templates) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.series.start, y.series.start);
        assert_eq!(x.series.execution_count, y.series.execution_count);
        assert_eq!(x.series.total_rt_ms, y.series.total_rt_ms);
        assert_eq!(x.series.examined_rows, y.series.examined_rows);
    }
}

#[test]
fn snapshot_matches_batch_aggregation() {
    let specs = vec![
        spec("SELECT * FROM a WHERE x = 1"),
        spec("SELECT * FROM b WHERE x = 1"),
        spec("UPDATE c SET y = 1 WHERE x = 2"),
    ];
    // A jittery, unsorted log with out-of-window stragglers.
    let mut log = Vec::new();
    for i in 0..400 {
        let s = (i * 37) % 120;
        log.push(rec(i % 3, s as f64 * 1000.0 + (i % 7) as f64 * 133.7, 3.0 + i as f64, i as u64 % 5));
    }
    log.push(rec(0, -500.0, 1.0, 1));
    log.push(rec(1, 500_000.0, 1.0, 1));
    let metrics = flat_metrics(0, 120);

    let batch = aggregate_case(&log, &specs, &metrics, 20, 100);

    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for ev in interleave(log, &metrics) {
        agg.ingest(ev);
    }
    assert_case_eq(&agg.snapshot(20, 100), &batch);
}

#[test]
fn chunked_ingest_matches_scalar_ingest() {
    let specs = vec![
        spec("SELECT * FROM a WHERE x = 1"),
        spec("SELECT * FROM b WHERE x = 1"),
    ];
    let mut log = Vec::new();
    for i in 0..300 {
        let s = (i * 13) % 90;
        log.push(rec(i % 2, s as f64 * 1000.0 + (i % 11) as f64 * 90.9, 2.0 + i as f64, i as u64 % 3));
    }
    // A malformed record mid-stream exercises the run-splitting rules.
    log.push(rec(0, f64::NAN, 1.0, 0));
    log.push(rec(1, 10_500.0, f64::INFINITY, 0));
    let metrics = flat_metrics(0, 90);
    let events = interleave(log, &metrics);

    let mut scalar = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for ev in events.clone() {
        scalar.ingest(ev);
    }
    let mut chunked = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    let mut buf = events;
    chunked.ingest_drain(&mut buf);
    assert!(buf.is_empty(), "drain clears the reusable buffer");

    let s = scalar.stats();
    let c = chunked.stats();
    assert_eq!(s.events, c.events);
    assert_eq!(s.queries, c.queries);
    assert_eq!(s.malformed, c.malformed);
    assert_eq!(s.late, c.late);
    assert_eq!(scalar.watermark(), chunked.watermark());
    assert_case_eq(&scalar.snapshot(0, 90), &chunked.snapshot(0, 90));
}

#[test]
fn snapshot_windows_are_reusable_and_nested() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let log: Vec<QueryRecord> =
        (0..600).map(|i| rec(0, i as f64 * 100.0, 2.0, 1)).collect();
    let metrics = flat_metrics(0, 60);
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for ev in interleave(log.clone(), &metrics) {
        agg.ingest(ev);
    }
    for (ts, te) in [(0, 60), (10, 50), (30, 31)] {
        let batch = aggregate_case(&log, &specs, &metrics, ts, te);
        assert_case_eq(&agg.snapshot(ts, te), &batch);
    }
}

#[test]
fn malformed_records_are_dropped() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, f64::NAN, 1.0, 0));
    query(&mut agg, rec(0, 100.0, f64::INFINITY, 0));
    query(&mut agg, rec(0, 100.0, 1.0, 0));
    assert_eq!(agg.stats().malformed, 2);
    assert_eq!(agg.record_count(), 1);
}

#[test]
fn memory_stays_within_retention_horizon() {
    // The regression this type exists for: the old streaming
    // aggregator's `(template, second)` map grew without bound.
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1"), spec("SELECT 2 FROM u WHERE id = 1")];
    let retention = 300;
    let mut agg = IncrementalAggregator::new(
        &specs,
        IncrementalConfig::default().with_retention(retention),
    );
    let horizon_s = 20_000i64;
    for s in 0..horizon_s {
        agg.ingest(TelemetryEvent::Query(rec((s % 2) as usize, s as f64 * 1000.0 + 1.0, 2.0, 1)));
        agg.ingest(TelemetryEvent::Metrics(Box::new(MetricsSample {
            second: s,
            active_session: 1.0,
            ..Default::default()
        })));
        agg.ingest(TelemetryEvent::Tick { second: s + 1 });
        assert!(agg.cell_seconds() <= retention as usize + 1, "at {s}");
        assert!(agg.metric_seconds() <= retention as usize + 1, "at {s}");
        assert!(agg.record_count() <= retention as usize + 1, "at {s}");
    }
    // Still serves windows inside the horizon.
    let case = agg.snapshot(horizon_s - 100, horizon_s);
    assert_eq!(case.n_seconds(), 100);
    assert_eq!(case.records.len(), 100);
}

#[test]
fn history_feed_folds_complete_minutes() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let origin = 5000;
    let mut agg = IncrementalAggregator::new(
        &specs,
        IncrementalConfig { history_origin_min: origin, ..Default::default() },
    );
    // Two executions per second for 150 s: minutes 0 and 1 complete
    // (120 each), minute 2 still open.
    for s in 0..150i64 {
        query(&mut agg, rec(0, s as f64 * 1000.0, 1.0, 0));
        query(&mut agg, rec(0, s as f64 * 1000.0 + 500.0, 1.0, 0));
        agg.advance_watermark(s + 1);
    }
    let id = agg.catalog().id_of_spec(SpecId(0));
    assert_eq!(agg.history().window_filled(id, origin, origin + 2), vec![120.0, 120.0]);
    assert_eq!(agg.history().window_filled(id, origin + 2, origin + 3), vec![0.0]);
    // Closing the third minute folds it.
    agg.advance_watermark(180);
    assert_eq!(agg.history().window_filled(id, origin + 2, origin + 3), vec![60.0]);
}

#[test]
fn fold_and_eviction_counters_track_state() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let retention = 120;
    let mut agg = IncrementalAggregator::new(
        &specs,
        IncrementalConfig::default().with_retention(retention),
    );
    for s in 0..300i64 {
        query(&mut agg, rec(0, s as f64 * 1000.0, 1.0, 0));
        agg.advance_watermark(s + 1);
    }
    let stats = agg.stats();
    // One cell row per second, monotone even though only `retention`
    // rows stay resident.
    assert_eq!(stats.cells, 300);
    assert!(agg.cell_seconds() <= retention as usize + 1);
    // Evictions cover the cells and records pushed past the horizon.
    assert!(stats.evictions > 0);
    assert_eq!(
        stats.evictions,
        (300 - agg.cell_seconds() as u64) + (300 - agg.record_count() as u64)
    );
    // 300 s = 5 minutes; the last one is complete at watermark 300.
    assert_eq!(stats.history_minutes, 5);
}

#[test]
fn chunked_ingest_matches_scalar_fold_counters() {
    let specs =
        vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
    let mut log = Vec::new();
    for i in 0..200 {
        let s = (i * 31) % 70;
        log.push(rec(i % 2, s as f64 * 1000.0 + (i % 13) as f64 * 71.3, 2.0, 1));
    }
    let metrics = flat_metrics(0, 70);
    let events = interleave(log, &metrics);
    let mut scalar = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for ev in events.clone() {
        scalar.ingest(ev);
    }
    let mut chunked = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    let mut buf = events;
    chunked.ingest_drain(&mut buf);
    let s = scalar.stats();
    let c = chunked.stats();
    assert_eq!(s.cells, c.cells, "rows created, not calls, are counted");
    assert_eq!(s.evictions, c.evictions);
    assert_eq!(s.history_minutes, c.history_minutes);
}

#[test]
fn sorted_and_unsorted_record_paths_agree() {
    let specs = vec![
        spec("SELECT * FROM a WHERE x = 1"),
        spec("SELECT * FROM b WHERE x = 1"),
    ];
    // Sorted prefix, then one straggler flips the ring to unsorted.
    let mut log: Vec<QueryRecord> =
        (0..200).map(|i| rec(i % 2, i as f64 * 300.0, 2.0, 1)).collect();
    let mut sorted_agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for r in &log {
        query(&mut sorted_agg, *r);
    }
    sorted_agg.advance_watermark(60);
    let fast = sorted_agg.snapshot(5, 55);

    log.push(rec(0, 100.0, 9.0, 1)); // out of order, outside [5, 55)
    let mut unsorted_agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    for r in &log {
        query(&mut unsorted_agg, *r);
    }
    unsorted_agg.advance_watermark(60);
    let slow = unsorted_agg.snapshot(5, 55);
    assert_case_eq(&fast, &slow);
}

#[test]
fn metrics_gaps_zero_fill() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    agg.push_metrics(MetricsSample { second: 0, active_session: 4.0, ..Default::default() });
    agg.push_metrics(MetricsSample { second: 3, active_session: 9.0, ..Default::default() });
    let case = agg.snapshot(0, 4);
    assert_eq!(case.metrics.active_session, vec![4.0, 0.0, 0.0, 9.0]);
}

// The three time-jump cases below each panicked, or cost seconds and
// gigabytes for one event, before the rings bounded their own gaps.

#[test]
fn time_jump_first_tick_at_the_bottom_of_the_clock_is_just_a_tick() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    agg.ingest(TelemetryEvent::Tick { second: i64::MIN + 1 });
    assert_eq!(agg.watermark(), i64::MIN + 1);
    query(&mut agg, rec(0, 1500.0, 2.0, 1));
    agg.ingest(TelemetryEvent::Metrics(Box::new(MetricsSample {
        second: i64::MAX,
        ..Default::default()
    })));
    assert_eq!(agg.watermark(), i64::MAX, "the last second publishes without overflow");
    assert_eq!((agg.cell_seconds(), agg.record_count(), agg.metric_seconds()), (0, 0, 1));
}

#[test]
fn time_jump_record_beyond_the_ring_is_dropped_not_materialised() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let retention = 300;
    let cfg = IncrementalConfig::default().with_retention(retention);
    let mut agg = IncrementalAggregator::new(&specs, cfg);
    query(&mut agg, rec(0, 1500.0, 2.0, 1));
    let before = agg.stats();
    for ahead in [3.0e10, 1.0e15, f64::MAX] {
        query(&mut agg, rec(0, ahead, 2.0, 1));
    }
    for sample_ahead in [30_000_000, i64::MAX / 2, i64::MAX] {
        agg.push_metrics(MetricsSample { second: 1, ..Default::default() });
        agg.push_metrics(MetricsSample { second: sample_ahead, ..Default::default() });
    }
    let after = agg.stats();
    assert_eq!(after.malformed - before.malformed, 6, "ahead of the ring counts as malformed");
    assert_eq!((after.queries, after.cells), (before.queries, before.cells));
    assert_eq!((agg.cell_seconds(), agg.record_count(), agg.metric_seconds()), (1, 1, 1));
    assert_eq!(agg.watermark(), 2, "a dropped sample publishes nothing");
    // The last second the ring can reach is admitted, one past it is not.
    query(&mut agg, rec(0, (1 + retention) as f64 * 1000.0, 2.0, 1));
    query(&mut agg, rec(0, (2 + retention) as f64 * 1000.0, 2.0, 1));
    assert_eq!(agg.cell_seconds(), retention as usize + 1);
    assert_eq!(agg.stats().malformed - after.malformed, 1);
    // ... and the same rule reaching back: older than the ring can hold is late.
    query(&mut agg, rec(0, -1000.0, 2.0, 1));
    assert_eq!(agg.stats().late - after.late, 1);
}

#[test]
fn time_jump_of_the_clock_skips_untouched_minutes_arithmetically() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    let id = agg.catalog().id_of_spec(SpecId(0));
    query(&mut agg, rec(0, 61_000.0, 2.0, 1));
    agg.ingest(TelemetryEvent::Tick { second: i64::MAX / 2 });
    assert_eq!(agg.stats().history_minutes, (i64::MAX / 2 / 60 - 1) as u64);
    assert_eq!(agg.history().window_filled(id, 0, 3), vec![0.0, 1.0, 0.0]);
    assert_eq!((agg.cell_seconds(), agg.record_count()), (0, 0));
    // Traffic resumes at the new time: the history series restarts
    // there instead of zero-filling the jump.
    let now_ms = (i64::MAX / 2) as f64 * 1000.0;
    query(&mut agg, rec(0, now_ms, 2.0, 1));
    agg.ingest(TelemetryEvent::Tick { second: i64::MAX / 2 + 120 });
    assert_eq!(agg.history().span(id), Some((i64::MAX / 2 / 60, 1)));
}

/// The checkpoint body the engine's envelope wraps.
fn checkpoint(agg: &IncrementalAggregator) -> Vec<u8> {
    let mut body = WireWriter::new();
    agg.write_snapshot(&mut body);
    body.into_bytes()
}

#[test]
fn checkpoint_round_trip_is_behaviorally_exact() {
    let specs = vec![
        spec("SELECT * FROM a WHERE x = 1"),
        spec("SELECT * FROM b WHERE x = 1"),
        spec("UPDATE c SET v = v + 1 WHERE id = 1"),
    ];
    let cfg = IncrementalConfig::default().with_retention(120);
    let metrics = flat_metrics(0, 200);
    let log: Vec<QueryRecord> = (0..600)
        .map(|i| rec(i % 3, (i as f64 * 311.7) % 200_000.0, 2.0 + (i % 7) as f64, i as u64))
        .collect();
    let events = interleave(log, &metrics);
    let split = events.len() / 3;

    let mut live = IncrementalAggregator::new(&specs, cfg);
    for ev in &events[..split] {
        live.ingest(ev.clone());
    }
    let body = checkpoint(&live);
    let mut r = WireReader::new(&body);
    let mut restored = IncrementalAggregator::read_snapshot(&specs, &mut r).unwrap();
    r.finish("aggregator snapshot").unwrap();
    assert_eq!(checkpoint(&restored), body, "re-serialization drifted");

    for ev in &events[split..] {
        live.ingest(ev.clone());
        restored.ingest(ev.clone());
    }
    assert_eq!(live.stats(), restored.stats());
    assert_eq!(live.watermark(), restored.watermark());
    assert_eq!(live.cell_seconds(), restored.cell_seconds());
    assert_eq!(live.record_count(), restored.record_count());
    assert_case_eq(&live.snapshot(80, 200), &restored.snapshot(80, 200));
    assert_eq!(checkpoint(&live), checkpoint(&restored), "post-drain state drifted");
}

/// `snapshot_len` counts what `write_snapshot` writes, byte for byte:
/// empty, mid-stream, unsorted, and after evicting and restoring.
#[test]
fn snapshot_len_counts_the_checkpoint_body() {
    let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
    let mut agg =
        IncrementalAggregator::new(&specs, IncrementalConfig::default().with_retention(90));
    assert_eq!(agg.snapshot_len(), checkpoint(&agg).len(), "empty");
    let metrics = flat_metrics(0, 400);
    let log: Vec<QueryRecord> =
        (0..3000).map(|i| rec(i % 2, (i as f64 * 131.3) % 400_000.0, 1.0, i as u64)).collect();
    let events = interleave(log, &metrics);
    for (i, ev) in events.into_iter().enumerate() {
        agg.ingest(ev);
        if i % 397 == 0 {
            assert_eq!(agg.snapshot_len(), checkpoint(&agg).len(), "after {i} events");
        }
    }
    query(&mut agg, rec(1, 360_500.0, 1.0, 1));
    let body = checkpoint(&agg);
    assert_eq!(agg.snapshot_len(), body.len(), "unsorted");
    let restored = restore(&specs, &body).expect("own body restores");
    assert_eq!(restored.snapshot_len(), body.len(), "restored");
}

#[test]
fn checkpoint_rejects_wrong_scenario_and_corrupt_tags() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 1000.0, 2.0, 1));
    agg.advance_watermark(5);
    let mut w = WireWriter::new();
    agg.write_snapshot(&mut w);
    let bytes = w.into_bytes();

    // Restoring into a different workload is a typed mismatch.
    let other = vec![spec("SELECT 9 FROM u WHERE id = 9"), spec("SELECT 8 FROM v WHERE id = 8")];
    let err = IncrementalAggregator::read_snapshot(&other, &mut WireReader::new(&bytes))
        .expect_err("catalog mismatch must fail");
    assert!(matches!(err, WireError::Mismatch { what: "template catalog", .. }), "{err}");

    // The reserved byte after the two i64 config fields must be 0.
    assert_eq!(bytes[16], 0);
    for tag in 1..=u8::MAX {
        let mut corrupt = bytes.clone();
        corrupt[16] = tag;
        let err = IncrementalAggregator::read_snapshot(&specs, &mut WireReader::new(&corrupt))
            .expect_err("a non-zero reserved byte must fail");
        assert!(matches!(err, WireError::BadTag { what: "reserved byte", .. }), "{err}");
    }

    // Every truncation of the snapshot is an error, never a panic.
    truncations(&bytes, 1, |prefix| assert!(restore(&specs, prefix).is_err(), "decoded"));
}

/// Where `row` first occurs in `blob`.
fn offset_of(blob: &[u8], row: &[u8]) -> usize {
    blob.windows(row.len()).position(|w| w == row).expect("the row is in the blob")
}

fn restore(specs: &[TemplateSpec], blob: &[u8]) -> Result<IncrementalAggregator, WireError> {
    IncrementalAggregator::read_snapshot(specs, &mut WireReader::new(blob))
}

#[test]
fn checkpoint_rejects_a_sorted_flag_over_unsorted_records() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    let log = [1000.0, 3000.0, 2000.0, 4000.0].map(|ms| rec(0, ms, 2.0, 1));
    for r in log {
        query(&mut agg, r);
    }
    agg.advance_watermark(5);
    let blob = checkpoint(&agg);
    restore(&specs, &blob).expect("the honest blob restores");

    // The record stretch: the sorted flag, the count, then the rows. Taken
    // at its word, the flag sends window cuts to a binary search over
    // unsorted records: a cut of [2, 3) then returns the record at 3000 ms
    // beside the one at 2000 ms, which the window's cells do not count.
    let first_row = offset_of(&blob, &query_record_bytes(&log[0]));
    let flag = first_row - 1 - 8;
    assert_eq!(blob[flag], 0, "the straggler left the ring unsorted");
    let mut lying = blob.clone();
    lying[flag] = 1;
    let err = restore(&specs, &lying).expect_err("a sorted flag over unsorted records");
    assert!(matches!(err, WireError::Mismatch { what: "record order", .. }), "{err}");

    // Nor does the fold ever keep a non-finite time or a spec outside the
    // catalog.
    let second_row = first_row + QUERY_RECORD_BYTES;
    for (at, bad, what) in [
        (second_row + 8, f64::NAN.to_bits(), "record time"),
        (second_row + 16, f64::INFINITY.to_bits(), "record time"),
        (second_row, u64::MAX, "record spec"),
    ] {
        let mut corrupt = blob.clone();
        corrupt[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        let err = restore(&specs, &corrupt).expect_err(what);
        assert!(matches!(err, WireError::Mismatch { what: w, .. } if w == what), "{err}");
    }
}

#[test]
fn checkpoint_rejects_a_cell_row_naming_a_slot_twice() {
    let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 1100.0, 2.0, 7));
    query(&mut agg, rec(1, 1200.0, 3.0, 9));
    agg.advance_watermark(5);
    let blob = checkpoint(&agg);
    restore(&specs, &blob).expect("the honest blob restores");

    // Rename the second cell of second 1 to the first one's slot. Taken in,
    // the row and the shared write table would disagree: a write lands on
    // the last duplicate while a window sweep counts both.
    let [a, b] = [0, 1].map(|s| agg.catalog().slot_of_spec(SpecId(s)));
    let at = offset_of(&blob, &cell_row(b, (1.0, 3.0, 9.0)));
    let mut twice = blob.clone();
    twice[at..at + 4].copy_from_slice(&cell_row(a, (0.0, 0.0, 0.0))[..4]);
    let err = restore(&specs, &twice).expect_err("a row naming one slot twice");
    assert!(matches!(err, WireError::Mismatch { what: "cell slot", .. }), "{err}");
}

#[test]
fn checkpoint_rejects_a_cell_count_the_fold_never_stores() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 1100.0, 2.0, 7));
    agg.advance_watermark(5);
    let blob = checkpoint(&agg);
    restore(&specs, &blob).expect("the honest blob restores");

    // The count of second 1's one cell. No cut follows a restore here: a
    // count taken at its word sizes and sums the cut.
    let slot = agg.catalog().slot_of_spec(SpecId(0));
    let at = offset_of(&blob, &cell_row(slot, (1.0, 2.0, 7.0))) + 4;
    let with_count = |count: f64| {
        let mut edited = blob.clone();
        edited[at..at + 8].copy_from_slice(&count.to_bits().to_le_bytes());
        restore(&specs, &edited)
    };
    let max = (1u64 << 53) as f64;
    with_count(max).expect("2^53 is a count the fold can reach");
    for bad in [f64::MAX, 1e18, max + 2.0, f64::NAN, f64::INFINITY, -5.0, 0.0, -0.0, 2.5] {
        let err = with_count(bad).err().unwrap_or_else(|| panic!("count {bad} restored"));
        assert!(matches!(err, WireError::Mismatch { what: "cell count", .. }), "{bad}: {err}");
    }
}

#[test]
fn checkpoint_with_a_record_no_window_cell_counts_cuts_it_unowned() {
    let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    let honest = rec(0, 1100.0, 2.0, 7);
    query(&mut agg, honest);
    agg.advance_watermark(5);
    let blob = checkpoint(&agg);

    // Re-label the one record as spec 1: it passes every check a restore
    // makes, but no cell of the window counts it.
    let mut crafted = blob.clone();
    let at = offset_of(&blob, &query_record_bytes(&honest));
    crafted[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
    let mut restored = restore(&specs, &crafted).expect("the record row itself is sound");
    let case = restored.snapshot(0, 5);
    assert_eq!(case.records.len(), 1);
    assert_eq!(case.templates.len(), 1);
    assert_eq!(case.templates[0].id, agg.catalog().id_of_spec(SpecId(0)));
    assert_eq!(case.template_of(SpecId(1)), CaseData::NO_TEMPLATE);
    assert_eq!(case.template_of(SpecId(0)), 0);
}

#[test]
fn checkpoint_rejects_a_history_span_past_the_end_of_time() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 1000.0, 2.0, 1));
    query(&mut agg, rec(0, 61_000.0, 2.0, 1));
    agg.advance_watermark(125);
    let blob = checkpoint(&agg);
    restore(&specs, &blob).expect("the honest blob restores");

    // The history series: id, start minute 0, two minutes.
    let id = agg.catalog().id_of_spec(SpecId(0));
    let head = [id.0.to_le_bytes(), 0i64.to_le_bytes(), 2u64.to_le_bytes()].concat();
    let start = offset_of(&blob, &head) + 8;
    let at = |minute: i64| {
        let mut edited = blob.clone();
        edited[start..start + 8].copy_from_slice(&minute.to_le_bytes());
        restore(&specs, &edited)
    };
    // A span at the bottom of the clock restores and reads past without
    // wrapping; one whose last minute lies past i64::MAX is refused.
    let low = at(i64::MIN).expect("a span starting at i64::MIN");
    assert_eq!(low.history().window_filled(id, 0, 3), vec![0.0; 3]);
    assert_eq!(low.history().window_filled(id, i64::MIN, i64::MIN + 3), vec![1.0, 1.0, 0.0]);
    at(i64::MAX - 1).expect("a span ending at i64::MAX");
    let err = at(i64::MAX).expect_err("a span ending past i64::MAX");
    assert!(matches!(err, WireError::Mismatch { what: "history span", .. }), "{err}");
}

/// A minute row's positions are catalog slots: a restored row of another
/// width than the catalog's slot count is a typed mismatch, not a row the
/// next query of its minute indexes past the end of.
#[test]
fn checkpoint_rejects_a_minute_row_of_another_width() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1"), spec("SELECT 2 FROM u WHERE id = 2")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 1000.0, 2.0, 1));
    let blob = checkpoint(&agg);
    // The feed is written last: its one in-flight row's length, then one
    // count per slot.
    let len_at = blob.len() - 2 * 8 - 8;
    assert_eq!(blob[len_at..len_at + 8], 2u64.to_le_bytes());
    let mut narrow = blob[..blob.len() - 8].to_vec();
    narrow[len_at..len_at + 8].copy_from_slice(&1u64.to_le_bytes());
    let mut wide = blob.clone();
    wide[len_at..len_at + 8].copy_from_slice(&3u64.to_le_bytes());
    wide.extend_from_slice(&0f64.to_le_bytes());
    for edited in [narrow, wide] {
        let err = restore(&specs, &edited).expect_err("a row of another width");
        assert!(matches!(err, WireError::Mismatch { what: "minute row", .. }), "{err}");
    }
}

/// The feed's rows are minute indices too: restored anywhere but inside
/// the cell ring's seconds, the next record's minute lies arbitrarily far
/// from them (the parent subtracted its way to an overflow).
#[test]
fn checkpoint_rejects_minute_rows_outside_the_cell_ring() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 61_000.0, 2.0, 1));
    let blob = checkpoint(&agg);
    // The feed ends with its first minute, the row count and one row of
    // one slot.
    let start_at = blob.len() - 8 - 8 - 8 - 8;
    assert_eq!(blob[start_at..start_at + 8], 1i64.to_le_bytes());
    for start in [i64::MIN, 0, 2, i64::MAX] {
        let mut moved = blob.clone();
        moved[start_at..start_at + 8].copy_from_slice(&start.to_le_bytes());
        let err = restore(&specs, &moved).expect_err("rows outside the ring");
        assert!(matches!(err, WireError::Mismatch { what: "minute rows", .. }), "{err}");
    }
}

/// The fold frontier is a minute index too: restored below the clock's
/// minutes, the next fold's `end - next` overflowed (the parent restored
/// it and panicked at the next watermark advance).
#[test]
fn checkpoint_rejects_a_minute_frontier_off_the_clock() {
    let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
    let mut agg = IncrementalAggregator::new(&specs, IncrementalConfig::default());
    query(&mut agg, rec(0, 61_000.0, 2.0, 1));
    agg.ingest(TelemetryEvent::Tick { second: 180 });
    let blob = checkpoint(&agg);
    // The feed ends with its frontier (flag, minute), its first minute
    // and an empty row count.
    let next_at = blob.len() - 3 * 8;
    assert_eq!((blob[next_at - 1], &blob[next_at..next_at + 8]), (1, &3i64.to_le_bytes()[..]));
    let at = |next: i64| {
        let mut moved = blob.clone();
        moved[next_at..next_at + 8].copy_from_slice(&next.to_le_bytes());
        restore(&specs, &moved)
    };
    for next in [i64::MIN, i64::MIN.div_euclid(60) - 1, i64::MAX / 60 + 1, i64::MAX] {
        let err = at(next).expect_err("a frontier off the clock");
        assert!(matches!(err, WireError::Mismatch { what: "minute frontier", .. }), "{err}");
    }
    // The clock's first and last minutes restore and fold to its end.
    for next in [i64::MIN.div_euclid(60), i64::MAX / 60] {
        let mut restored = at(next).expect("a minute of the clock");
        restored.ingest(TelemetryEvent::Tick { second: i64::MAX });
        assert_eq!(restored.watermark(), i64::MAX);
    }
}

/// The two fixed-width `PSNP` rows (record, cell) against the
/// field-by-field calls they replaced: the same bytes out, and from
/// every prefix of those bytes and every single-byte mutation the same
/// value bit for bit or the same `WireError` variant (`need` / `have`
/// inside `Truncated` are not compared: the row read names the whole
/// row's size, the field reads the first field that did not fit).
#[test]
fn fixed_width_snapshot_rows_match_the_field_calls() {

    // The oracle: each row as the per-field calls wrote and read it.
    fn put_fields(
        w: &mut WireWriter,
        rec: &QueryRecord,
        slot: u32,
        cell: Cell,
    ) {
        w.put_u64(rec.spec.0 as u64);
        w.put_f64(rec.start_ms);
        w.put_f64(rec.response_ms);
        w.put_u64(rec.examined_rows);
        w.put_u32(slot);
        w.put_f64(cell.0);
        w.put_f64(cell.1);
        w.put_f64(cell.2);
    }
    type Rows = (QueryRecord, (u32, Cell));
    fn get_fields(r: &mut WireReader) -> Result<Rows, WireError> {
        let rec = QueryRecord {
            spec: SpecId(r.get_u64()? as usize),
            start_ms: r.get_f64()?,
            response_ms: r.get_f64()?,
            examined_rows: r.get_u64()?,
        };
        let cell = (r.get_u32()?, (r.get_f64()?, r.get_f64()?, r.get_f64()?));
        Ok((rec, cell))
    }
    fn get_rows(r: &mut WireReader) -> Result<Rows, WireError> {
        let rec = query_record_from_bytes(r.get_array()?);
        let cell = cell_from_row(r.get_array()?);
        Ok((rec, cell))
    }
    let refield = |(rec, (slot, cell)): &Rows| {
        let mut w = WireWriter::new();
        put_fields(&mut w, rec, *slot, *cell);
        w.into_bytes()
    };
    let agree = |bytes: &[u8]| {
        let new = get_rows(&mut WireReader::new(bytes));
        let old = get_fields(&mut WireReader::new(bytes));
        match (&new, &old) {
            (Ok(a), Ok(b)) => assert_eq!(refield(a), refield(b)),
            (Err(WireError::Truncated { .. }), Err(WireError::Truncated { .. })) => {}
            _ => panic!("new {new:?}, oracle {old:?}"),
        }
    };

    sweep(0..200, |_, rng| {
        let rec = QueryRecord {
            spec: SpecId([0, usize::MAX, rng.random()][rng.random_range(0..3usize)]),
            start_ms: f64_pattern(rng),
            response_ms: f64_pattern(rng),
            examined_rows: rng.random(),
        };
        let (slot, cell) = (rng.random(), (f64_pattern(rng), f64_pattern(rng), f64_pattern(rng)));

        let mut w = WireWriter::new();
        w.put_array(query_record_bytes(&rec));
        w.put_array(cell_row(slot, cell));
        let bytes = w.into_bytes();
        assert_eq!(bytes, refield(&(rec, (slot, cell))), "bytes differ");
        assert_eq!(bytes.len(), QUERY_RECORD_BYTES + CELL_ROW_BYTES);
        agree(&bytes);
        truncations(&bytes, 1, agree);
        mutations(&bytes, &BYTE_VALUES, |b| b ^ 0x10, agree);
    });
}
