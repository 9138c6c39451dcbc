//! Batch aggregation of a collection window into per-template series.
//!
//! §IV-A: `metric_{Q,t} = Aggregate({metric(q) ∀q ∈ Q, t(q) ∈ [t, t+Δt)})`
//! — queries are attributed to the interval containing their *arrival*
//! timestamp. Three metrics are maintained per template at 1-second
//! granularity (`#execution` count, total response time, total examined
//! rows); 1-minute series are derived by [`TemplateSeries::per_minute`].

use crate::catalog::TemplateCatalog;
use crate::cells::CellRing;
use crate::metrics::{finite, MetricRing};
use crate::records::RecordRing;
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_sqlkit::SqlId;
use pinsql_timeseries::resample::{downsample, Downsample};
use pinsql_timeseries::TimeSeries;
use pinsql_workload::TemplateSpec;

/// Per-template metric series over a collection window.
#[derive(Debug, Clone)]
pub struct TemplateSeries {
    /// Window start (seconds).
    pub start: i64,
    /// Executions per second (by arrival).
    pub execution_count: Vec<f64>,
    /// Total response time per second, ms.
    pub total_rt_ms: Vec<f64>,
    /// Total examined rows per second.
    pub examined_rows: Vec<f64>,
}

impl TemplateSeries {
    pub(crate) fn zeros(start: i64, n: usize) -> Self {
        Self {
            start,
            execution_count: vec![0.0; n],
            total_rt_ms: vec![0.0; n],
            examined_rows: vec![0.0; n],
        }
    }

    /// 1-minute execution counts (sum over each 60-second block).
    ///
    /// Only *complete* minutes are emitted: a trailing partial minute would
    /// show an artificial cliff in every template's trend, biasing the
    /// pairwise correlations the clustering step thresholds.
    pub fn per_minute(&self) -> Vec<f64> {
        let full = self.execution_count.len() / 60 * 60;
        downsample(
            &TimeSeries::from_values(self.start, 1, self.execution_count[..full].to_vec()),
            60,
            Downsample::Sum,
        )
        .into_values()
    }
}

/// One template's aggregated view within a case.
#[derive(Debug, Clone)]
pub struct TemplateData {
    pub id: SqlId,
    pub series: TemplateSeries,
    /// Indices into [`CaseData::records`] of this template's queries.
    /// Strictly ascending, and no record is listed by two templates:
    /// [`CaseData::record_templates`] and the record-order sums built on it
    /// (session estimation, HSQL labels) depend on both and panic otherwise.
    pub record_idx: Vec<u32>,
}

/// Per-template minute rows carried on a [`CaseData`] cut from the online
/// aggregator.
///
/// The rows are the 1-minute execution-count series every template would
/// get from [`TemplateSeries::per_minute`], assembled during the window
/// cut's cell sweep instead of one `O(window)` re-scan per template —
/// minute counts are integer-valued sums of `1.0` accumulated in ascending
/// second order, so they are bit-identical to the per-template derivation
/// and the diagnosis output cannot depend on which one produced them.
#[derive(Debug, Clone, Default)]
pub struct WindowCut {
    /// First absolute minute of the rows (`ts / 60` for aligned windows).
    pub minute_start: i64,
    /// Per-template 1-minute execution counts, parallel to
    /// [`CaseData::templates`] (sorted by `SqlId`); `n_seconds / 60`
    /// complete minutes each.
    pub minute_rows: Vec<Vec<f64>>,
}

impl WindowCut {
    /// Borrowed minute rows in `&[&[f64]]` shape for matrix assembly.
    pub fn row_refs(&self) -> Vec<&[f64]> {
        self.minute_rows.iter().map(|r| r.as_slice()).collect()
    }
}

/// Everything the root-cause pipeline needs about one collection window.
#[derive(Debug, Clone)]
pub struct CaseData {
    /// Collection window `[ts, te)` in seconds (`ts = a_s − δ_s`).
    pub ts: i64,
    pub te: i64,
    pub catalog: TemplateCatalog,
    /// Instance metrics for the window.
    pub metrics: InstanceMetrics,
    /// All query records arriving in the window, sorted by arrival.
    pub records: Vec<QueryRecord>,
    /// Per-template aggregates, in a stable order (sorted by `SqlId`).
    pub templates: Vec<TemplateData>,
    /// Precomputed minute rows when the online window cut produced this
    /// case; `None` on the batch path.
    pub cut: Option<Box<WindowCut>>,
}

impl CaseData {
    /// Number of seconds in the window.
    pub fn n_seconds(&self) -> usize {
        (self.te - self.ts) as usize
    }

    /// Index of a template by id.
    pub fn template_index(&self, id: SqlId) -> Option<usize> {
        self.templates.binary_search_by_key(&id, |t| t.id).ok()
    }

    /// The instance active-session series for the window.
    pub fn instance_session(&self) -> &[f64] {
        &self.metrics.active_session
    }

    /// [`CaseData::record_templates`]' marker for an unreferenced record.
    pub const NO_TEMPLATE: u32 = u32::MAX;

    /// For each record, the position in [`CaseData::templates`] of the
    /// template whose `record_idx` lists it; [`CaseData::NO_TEMPLATE`] for
    /// a record no template references.
    ///
    /// This is what lets per-template sums be taken in one front-to-back
    /// pass over `records` instead of one strided gather per template.
    /// Because every `record_idx` is ascending and a record belongs to at
    /// most one template (both hold by construction in `aggregate_case`
    /// and `IncrementalAggregator::snapshot`), such a pass adds each
    /// template's records in the same order the gather would — so f64 sums
    /// come out bit-identical.
    ///
    /// # Panics
    /// If a `record_idx` is not strictly ascending or lists a record another
    /// template already owns: either would change the sums silently.
    pub fn record_templates(&self) -> Vec<u32> {
        let mut owner = vec![Self::NO_TEMPLATE; self.records.len()];
        for (pos, tpl) in self.templates.iter().enumerate() {
            let mut floor = 0;
            for &ri in &tpl.record_idx {
                let slot = &mut owner[ri as usize];
                assert!(
                    ri >= floor && *slot == Self::NO_TEMPLATE,
                    "template {pos}: record_idx must ascend and own record {ri} alone"
                );
                *slot = pos as u32;
                floor = ri + 1;
            }
        }
        owner
    }
}

/// Aggregates a simulation log into a [`CaseData`] for the window
/// `[ts, te)` seconds.
///
/// `metrics` must cover the window (it is sliced to it); records outside
/// the window are dropped, mirroring the collector's retention query.
pub fn aggregate_case(
    log: &[QueryRecord],
    specs: &[TemplateSpec],
    metrics: &InstanceMetrics,
    ts: i64,
    te: i64,
) -> CaseData {
    assert!(te > ts, "empty collection window");
    let catalog = TemplateCatalog::from_specs(specs);
    let n = (te - ts) as usize;
    let ts_ms = ts as f64 * 1000.0;
    let te_ms = te as f64 * 1000.0;

    // Filter + sort the window's records by arrival. A record with a
    // non-finite timestamp or response time (corrupted log line) carries no
    // usable attribution and is dropped with the out-of-window ones.
    let mut records: Vec<QueryRecord> = log
        .iter()
        .filter(|r| {
            r.start_ms.is_finite()
                && r.response_ms.is_finite()
                && r.start_ms >= ts_ms
                && r.start_ms < te_ms
        })
        .copied()
        .collect();
    records.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));

    // Accumulate per template through the catalog's dense slots: `slot_pos`
    // maps a template's slot to its position in `templates` (`u32::MAX` =
    // not yet seen), so attribution is two `Vec` lookups — no hashing.
    let mut slot_pos = vec![u32::MAX; catalog.n_slots()];
    let mut templates: Vec<TemplateData> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let slot = catalog.slot_of_spec(rec.spec) as usize;
        let entry = if slot_pos[slot] == u32::MAX {
            slot_pos[slot] = templates.len() as u32;
            templates.push(TemplateData {
                id: catalog.id_of_slot(slot as u32),
                series: TemplateSeries::zeros(ts, n),
                record_idx: Vec::new(),
            });
            templates.last_mut().expect("just pushed")
        } else {
            &mut templates[slot_pos[slot] as usize]
        };
        let sec = ((rec.start_ms - ts_ms) / 1000.0) as usize;
        let sec = sec.min(n - 1);
        entry.series.execution_count[sec] += 1.0;
        entry.series.total_rt_ms[sec] += rec.response_ms;
        entry.series.examined_rows[sec] += rec.examined_rows as f64;
        entry.record_idx.push(i as u32);
    }
    templates.sort_by_key(|t| t.id);

    let metrics = slice_metrics(metrics, ts, te);
    CaseData { ts, te, catalog, metrics, records, templates, cut: None }
}

/// The online counterpart of [`aggregate_case`]: the same [`CaseData`] for
/// `[ts, te)`, assembled from the incremental aggregator's resident rings
/// instead of a complete trace. `slot_pos` is scratch the caller keeps
/// across cuts. Panics if `te <= ts`, like the batch path.
pub(crate) fn cut_window(
    catalog: &TemplateCatalog,
    cells: &CellRing,
    ring: &RecordRing,
    metrics: &MetricRing,
    slot_pos: &mut Vec<u32>,
    ts: i64,
    te: i64,
) -> CaseData {
    assert!(te > ts, "empty collection window");
    let n = (te - ts) as usize;

    // One sweep over the window's touched cells yields each template's
    // execution count. Membership and sizing then need no record
    // re-scan: a template is in the window iff it has a touched cell there
    // (every retained record has its cell row — one retention horizon), and
    // its record count is the integer-exact count sum. So `templates` and
    // `records` are built at final size and the loop below only pushes.
    let touched = cells.sweep_window(ts, te, slot_pos);
    let window_records: usize = touched.iter().map(|&(_, count)| count).sum();
    let mut templates: Vec<TemplateData> = touched
        .iter()
        .map(|&(slot, count)| TemplateData {
            id: catalog.id_of_slot(slot),
            series: TemplateSeries::zeros(ts, n),
            record_idx: Vec::with_capacity(count),
        })
        .collect();

    // Window records in arrival order. `slot_pos`, filled by the sweep,
    // maps each slot to its template's position; the create-on-miss arm is
    // unreachable for consistent state and kept as a graceful fallback.
    let mut records: Vec<QueryRecord> = Vec::with_capacity(window_records);
    ring.for_each_in(ts as f64 * 1000.0, te as f64 * 1000.0, |rec| {
        let slot = catalog.slot_of_spec(rec.spec) as usize;
        if slot_pos[slot] == u32::MAX {
            debug_assert!(false, "window record without a window cell");
            slot_pos[slot] = templates.len() as u32;
            templates.push(TemplateData {
                id: catalog.id_of_slot(slot as u32),
                series: TemplateSeries::zeros(ts, n),
                record_idx: Vec::new(),
            });
        }
        templates[slot_pos[slot] as usize].record_idx.push(records.len() as u32);
        records.push(*rec);
    });

    // Series values come straight from the cells: each `(template, second)`
    // cell was accumulated record-by-record at ingest, in the order the
    // batch aggregator sums, so assignment (not re-accumulation) preserves
    // bit-identity. The same sweep buckets each template's counts into
    // complete minutes — ascending seconds, zeros contributing nothing,
    // exactly `TemplateSeries::per_minute`'s partial sums — so no
    // per-template re-scan ever derives the matrix rows.
    let n_minutes = n / 60;
    let mut minute_rows: Vec<Vec<f64>> = templates.iter().map(|_| vec![0.0; n_minutes]).collect();
    cells.for_each_in(ts, te, |s, slot, cell| {
        let pos = slot_pos[slot as usize];
        if pos != u32::MAX {
            let idx = (s - ts) as usize;
            let series = &mut templates[pos as usize].series;
            series.execution_count[idx] = cell.0;
            series.total_rt_ms[idx] = cell.1;
            series.examined_rows[idx] = cell.2;
            if idx / 60 < n_minutes {
                minute_rows[pos as usize][idx / 60] += cell.0;
            }
        }
    });

    // The sort below reorders `templates`, so the cut rows pair with
    // their ids first and sort the same way — they must stay parallel.
    let mut entries: Vec<(SqlId, Vec<f64>)> =
        templates.iter().map(|tpl| tpl.id).zip(minute_rows).collect();
    entries.sort_by_key(|(id, _)| *id);
    let minute_rows = entries.into_iter().map(|(_, row)| row).collect();
    let cut = Some(Box::new(WindowCut { minute_start: ts.div_euclid(60), minute_rows }));

    templates.sort_by_key(|t| t.id);

    CaseData {
        ts,
        te,
        catalog: catalog.clone(),
        metrics: metrics.window(ts, te),
        records,
        templates,
        cut,
    }
}

/// Restricts instance metrics to `[ts, te)`, zeroing any non-finite sample
/// on the way (a monitoring gap must read as "no load", not poison every
/// downstream correlation).
fn slice_metrics(m: &InstanceMetrics, ts: i64, te: i64) -> InstanceMetrics {
    let lo = (ts - m.start_second).max(0) as usize;
    let hi = ((te - m.start_second).max(0) as usize).min(m.active_session.len());
    let slice = |v: &[f64]| {
        v[lo.min(v.len())..hi.max(lo).min(v.len())]
            .iter()
            .map(|&x| finite(x))
            .collect::<Vec<f64>>()
    };
    InstanceMetrics {
        start_second: ts,
        active_session: slice(&m.active_session),
        cpu_usage: slice(&m.cpu_usage),
        iops_usage: slice(&m.iops_usage),
        row_lock_waits: slice(&m.row_lock_waits),
        mdl_waits: slice(&m.mdl_waits),
        qps: slice(&m.qps),
        probes: pinsql_dbsim::probe::ProbeLog {
            samples: m
                .probes
                .samples
                .iter()
                .filter(|p| p.second >= ts && p.second < te)
                .copied()
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_workload::{CostProfile, SpecId, TableId};

    fn spec(sql: &str) -> TemplateSpec {
        TemplateSpec::new(sql, CostProfile::point_read(TableId(0)), "t")
    }

    fn rec(spec_idx: usize, start_ms: f64, rt: f64, rows: u64) -> QueryRecord {
        QueryRecord { spec: SpecId(spec_idx), start_ms, response_ms: rt, examined_rows: rows }
    }

    fn empty_metrics(start: i64, n: usize) -> InstanceMetrics {
        InstanceMetrics {
            start_second: start,
            active_session: vec![0.0; n],
            cpu_usage: vec![0.0; n],
            iops_usage: vec![0.0; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog::default(),
        }
    }

    #[test]
    fn aggregates_by_arrival_second() {
        let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
        let log = vec![
            rec(0, 500.0, 10.0, 5),
            rec(0, 900.0, 20.0, 7),
            rec(0, 1500.0, 30.0, 2),
            rec(1, 2500.0, 5.0, 1),
        ];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 4), 0, 4);
        assert_eq!(case.templates.len(), 2);
        let a_id = case.catalog.id_of_spec(SpecId(0));
        let a = &case.templates[case.template_index(a_id).unwrap()];
        assert_eq!(a.series.execution_count, vec![2.0, 1.0, 0.0, 0.0]);
        assert_eq!(a.series.total_rt_ms, vec![30.0, 30.0, 0.0, 0.0]);
        assert_eq!(a.series.examined_rows, vec![12.0, 2.0, 0.0, 0.0]);
        assert_eq!(a.record_idx.len(), 3);
    }

    #[test]
    fn record_templates_inverts_record_idx() {
        let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
        let log = vec![
            rec(1, 100.0, 1.0, 0),
            rec(0, 200.0, 1.0, 0),
            rec(1, 300.0, 1.0, 0),
            rec(0, 1400.0, 1.0, 0),
        ];
        let mut case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        // A record appended behind the aggregator's back belongs to nobody.
        case.records.push(rec(0, 1500.0, 1.0, 0));
        let owner = case.record_templates();
        assert_eq!(owner.len(), 5);
        assert_eq!(owner[4], CaseData::NO_TEMPLATE);
        for (pos, tpl) in case.templates.iter().enumerate() {
            let swept: Vec<u32> =
                (0..owner.len() as u32).filter(|&i| owner[i as usize] == pos as u32).collect();
            assert_eq!(swept, tpl.record_idx, "record order within template {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "record_idx must ascend")]
    fn record_templates_rejects_a_shared_record() {
        let specs = vec![spec("SELECT * FROM a WHERE x = 1"), spec("SELECT * FROM b WHERE x = 1")];
        let log = vec![rec(0, 100.0, 1.0, 0), rec(1, 200.0, 1.0, 0)];
        let mut case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        let shared = case.templates[0].record_idx[0];
        case.templates[1].record_idx.insert(0, shared);
        case.record_templates();
    }

    #[test]
    fn records_outside_window_are_dropped() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let log = vec![rec(0, -100.0, 1.0, 0), rec(0, 500.0, 1.0, 0), rec(0, 99_999.0, 1.0, 0)];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        assert_eq!(case.records.len(), 1);
        assert_eq!(case.templates.len(), 1);
    }

    #[test]
    fn records_are_sorted_by_arrival() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let log = vec![rec(0, 1800.0, 1.0, 0), rec(0, 200.0, 1.0, 0), rec(0, 950.0, 1.0, 0)];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        let starts: Vec<f64> = case.records.iter().map(|r| r.start_ms).collect();
        assert_eq!(starts, vec![200.0, 950.0, 1800.0]);
    }

    #[test]
    fn structurally_equal_specs_aggregate_together() {
        let specs = vec![
            spec("SELECT * FROM t WHERE uid = 5"),
            spec("SELECT * FROM t WHERE uid = 999"),
        ];
        let log = vec![rec(0, 100.0, 1.0, 0), rec(1, 200.0, 1.0, 0)];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 1), 0, 1);
        assert_eq!(case.templates.len(), 1);
        assert_eq!(case.templates[0].series.execution_count[0], 2.0);
    }

    #[test]
    fn metrics_are_sliced_to_window() {
        let mut m = empty_metrics(0, 10);
        m.active_session = (0..10).map(|i| i as f64).collect();
        let case = aggregate_case(&[], &[], &m, 3, 7);
        assert_eq!(case.instance_session(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(case.metrics.start_second, 3);
        assert_eq!(case.n_seconds(), 4);
    }

    #[test]
    fn non_finite_records_are_dropped() {
        let specs = vec![spec("SELECT 1 FROM t WHERE id = 1")];
        let log = vec![
            rec(0, f64::NAN, 1.0, 0),
            rec(0, 500.0, f64::INFINITY, 0),
            rec(0, 900.0, 1.0, 0),
        ];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        assert_eq!(case.records.len(), 1);
        assert_eq!(case.records[0].start_ms, 900.0);
    }

    #[test]
    fn sliced_metrics_are_finite() {
        let mut m = empty_metrics(0, 4);
        m.active_session = vec![1.0, f64::NAN, f64::INFINITY, 4.0];
        let case = aggregate_case(&[], &[], &m, 0, 4);
        assert_eq!(case.instance_session(), &[1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn per_minute_downsampling() {
        let mut s = TemplateSeries::zeros(0, 120);
        for i in 0..120 {
            s.execution_count[i] = 1.0;
        }
        assert_eq!(s.per_minute(), vec![60.0, 60.0]);
    }
}
