//! A collection window as per-template series: [`CaseData`] and its two
//! builders.
//!
//! §IV-A: `metric_{Q,t} = Aggregate({metric(q) ∀q ∈ Q, t(q) ∈ [t, t+Δt)})`
//! — queries are attributed to the interval containing their *arrival*
//! timestamp. Three metrics are maintained per template at 1-second
//! granularity (`#execution` count, total response time, total examined
//! rows), plus each template's 1-minute execution counts
//! ([`CaseData::minute_rows`]).
//!
//! Every case a deployment or an experiment diagnoses is cut online, from
//! the incremental aggregator's rings (`cut_window`, reached through
//! [`IncrementalAggregator::snapshot`](crate::IncrementalAggregator::snapshot)).
//! [`aggregate_case`] builds the same case from a complete log. No
//! production path calls it; it stays public as the reference that unit
//! tests in other crates build small fixtures from, and that the root
//! suite's batch oracle aggregates with. Test-only code shared across
//! crates needs a public item: a cargo feature gating it would add a
//! build option, and a shared test-kit crate is a larger move of its own.
//!
//! A [`CaseData`] holds the window's records as a [`RecordView`] (shared
//! chunks of the online record ring, or one chunk of a batch log) and says
//! which template a record belongs to by a table lookup on its spec,
//! [`CaseData::template_of`]: a record of spec `s` belongs to the template
//! of `s`'s catalog slot, so a template's records in record order are
//! exactly the records of its specs in record order. Both builders fill
//! the table from the same slot → position map their series are
//! accumulated through.

use crate::catalog::TemplateCatalog;
use crate::cells::CellRing;
use crate::metrics::{finite, MetricRing};
use crate::records::{RecordRing, RecordView};
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_sqlkit::SqlId;
use pinsql_timeseries::resample::{downsample, Downsample};
use pinsql_timeseries::TimeSeries;
use pinsql_workload::{SpecId, TemplateSpec};

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

/// One template's aggregated view within a case. Its records are the
/// case's records [`CaseData::template_of`] maps to its position.
#[derive(Debug, Clone)]
pub struct TemplateData {
    pub id: SqlId,
    pub series: TemplateSeries,
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
    pub records: RecordView,
    /// Per-template aggregates, in a stable order (sorted by `SqlId`).
    pub templates: Vec<TemplateData>,
    /// Per-template 1-minute execution counts, parallel to `templates`:
    /// each template's [`TemplateSeries::per_minute`], `n_seconds / 60`
    /// complete minutes. The online cut buckets them during its cell sweep
    /// and [`aggregate_case`] derives them per template; minute counts are
    /// integer-valued sums of `1.0` in ascending second order, so both are
    /// bit-identical and a diagnosis cannot tell which builder ran.
    pub minute_rows: Vec<Vec<f64>>,
    /// Per spec, the position in `templates` of its template, or
    /// [`CaseData::NO_TEMPLATE`]: [`CaseData::template_of`]'s table.
    owners: Vec<u32>,
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

    /// [`CaseData::template_of`]'s answer for a spec no template of the
    /// case covers.
    pub const NO_TEMPLATE: u32 = u32::MAX;

    /// The position in [`CaseData::templates`] of the template a record
    /// of `spec` belongs to; [`CaseData::NO_TEMPLATE`] when the case has
    /// none (the spec's template has no cell in the window).
    ///
    /// This is what lets per-template sums be taken in one front-to-back
    /// pass over `records` instead of one gather per template: restricted
    /// to one template, record order is the order a gather of its records
    /// visits, so f64 sums come out bit-identical.
    #[inline]
    pub fn template_of(&self, spec: SpecId) -> u32 {
        self.owners.get(spec.0).copied().unwrap_or(Self::NO_TEMPLATE)
    }
}

/// The window's templates, zeroed, in `SqlId` order, for the catalog
/// slots `slots` (each once): `slot_pos[slot]` is left at each one's
/// position. Other entries of `slot_pos` are left as they are.
fn seat_templates(
    catalog: &TemplateCatalog,
    mut slots: Vec<u32>,
    slot_pos: &mut [u32],
    ts: i64,
    n: usize,
) -> Vec<TemplateData> {
    slots.sort_unstable_by_key(|&slot| catalog.id_of_slot(slot));
    for (pos, &slot) in slots.iter().enumerate() {
        slot_pos[slot as usize] = pos as u32;
    }
    let zeros = || TemplateSeries::zeros(ts, n);
    slots
        .into_iter()
        .map(|slot| TemplateData { id: catalog.id_of_slot(slot), series: zeros() })
        .collect()
}

/// [`CaseData::template_of`]'s table: each spec's slot's entry of
/// `slot_pos` (a position, or [`CaseData::NO_TEMPLATE`]).
fn owner_table(catalog: &TemplateCatalog, slot_pos: &[u32]) -> Vec<u32> {
    (0..catalog.n_specs()).map(|s| slot_pos[catalog.slot_of_spec(SpecId(s)) as usize]).collect()
}

/// Aggregates a simulation log into a [`CaseData`] for the window
/// `[ts, te)` seconds: the batch reference the online cut is pinned
/// against (module docs).
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

    // Accumulate per template through the catalog's dense slots: the
    // window's slots first, then `slot_pos` maps each to its template's
    // position, so attribution is two `Vec` lookups — no hashing.
    let mut slot_pos = vec![CaseData::NO_TEMPLATE; catalog.n_slots()];
    let mut slots = Vec::new();
    for rec in &records {
        let slot = catalog.slot_of_spec(rec.spec);
        if slot_pos[slot as usize] == CaseData::NO_TEMPLATE {
            slot_pos[slot as usize] = 0;
            slots.push(slot);
        }
    }
    let mut templates = seat_templates(&catalog, slots, &mut slot_pos, ts, n);
    let owners = owner_table(&catalog, &slot_pos);
    for rec in &records {
        let series = &mut templates[owners[rec.spec.0] as usize].series;
        let sec = ((rec.start_ms - ts_ms) / 1000.0) as usize;
        let sec = sec.min(n - 1);
        series.execution_count[sec] += 1.0;
        series.total_rt_ms[sec] += rec.response_ms;
        series.examined_rows[sec] += rec.examined_rows as f64;
    }

    let metrics = slice_metrics(metrics, ts, te);
    let minute_rows = templates.iter().map(|t| t.series.per_minute()).collect();
    CaseData { ts, te, catalog, metrics, records: records.into(), templates, minute_rows, owners }
}

/// The online counterpart of [`aggregate_case`]: the same [`CaseData`] for
/// `[ts, te)`, assembled from the incremental aggregator's resident rings
/// instead of a complete trace. `slot_pos` is scratch the caller keeps
/// across cuts. Panics if `te <= ts`, like `aggregate_case`.
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

    // One sweep over the window's touched cells yields its templates: a
    // template is in the window iff it has a touched cell there (every
    // retained record has its cell row — one retention horizon).
    let slots = cells.sweep_window(ts, te, slot_pos);
    let mut templates = seat_templates(catalog, slots, slot_pos, ts, n);

    // Series values come straight from the cells: each `(template, second)`
    // cell was accumulated record-by-record at ingest, in the order the
    // batch aggregator sums, so assignment (not re-accumulation) preserves
    // bit-identity. The same sweep buckets each template's counts into
    // complete minutes — ascending seconds, zeros contributing nothing,
    // exactly `TemplateSeries::per_minute`'s partial sums — so no
    // per-template re-scan ever derives the matrix rows.
    let n_minutes = n / 60;
    let mut minute_rows = vec![vec![0.0; n_minutes]; templates.len()];
    cells.for_each_in(ts, te, |s, slot, cell| {
        let pos = slot_pos[slot as usize] as usize;
        let idx = (s - ts) as usize;
        let series = &mut templates[pos].series;
        series.execution_count[idx] = cell.0;
        series.total_rt_ms[idx] = cell.1;
        series.examined_rows[idx] = cell.2;
        if idx / 60 < n_minutes {
            minute_rows[pos][idx / 60] += cell.0;
        }
    });

    // The records are the ring's, shared. A record whose template has no
    // cell in the window — only a crafted checkpoint makes one — is left
    // to no template.
    CaseData {
        ts,
        te,
        catalog: catalog.clone(),
        metrics: metrics.window(ts, te),
        records: ring.view(ts as f64 * 1000.0, te as f64 * 1000.0),
        templates,
        minute_rows,
        owners: owner_table(catalog, slot_pos),
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
        let a_pos = case.template_index(a_id).unwrap();
        let a = &case.templates[a_pos];
        assert_eq!(a.series.execution_count, vec![2.0, 1.0, 0.0, 0.0]);
        assert_eq!(a.series.total_rt_ms, vec![30.0, 30.0, 0.0, 0.0]);
        assert_eq!(a.series.examined_rows, vec![12.0, 2.0, 0.0, 0.0]);
        let owned = case.records.iter().filter(|r| case.template_of(r.spec) == a_pos as u32);
        assert_eq!(owned.count(), 3);
    }

    #[test]
    fn template_of_maps_each_spec_to_its_template() {
        // Specs 0 and 2 share a template; spec 3's template has no record
        // in the window.
        let specs = vec![
            spec("SELECT * FROM a WHERE x = 1"),
            spec("SELECT * FROM b WHERE x = 1"),
            spec("SELECT * FROM a WHERE x = 2"),
            spec("SELECT * FROM c WHERE x = 1"),
        ];
        let log = vec![
            rec(1, 100.0, 1.0, 0),
            rec(0, 200.0, 1.0, 0),
            rec(2, 300.0, 1.0, 0),
            rec(0, 1400.0, 1.0, 0),
            rec(3, 2500.0, 1.0, 0),
        ];
        let case = aggregate_case(&log, &specs, &empty_metrics(0, 2), 0, 2);
        assert_eq!(case.templates.len(), 2);
        for s in 0..specs.len() {
            let want = case.template_index(case.catalog.id_of_spec(SpecId(s)));
            let want = want.map_or(CaseData::NO_TEMPLATE, |pos| pos as u32);
            assert_eq!(case.template_of(SpecId(s)), want, "spec {s}");
        }
        assert_eq!(case.template_of(SpecId(3)), CaseData::NO_TEMPLATE);
        assert_eq!(case.template_of(SpecId(specs.len())), CaseData::NO_TEMPLATE);
        // Record order within the shared template is arrival order.
        let a = case.template_of(SpecId(0));
        let in_a = case.records.iter().filter(|r| case.template_of(r.spec) == a);
        let starts: Vec<f64> = in_a.map(|r| r.start_ms).collect();
        assert_eq!(starts, vec![200.0, 300.0, 1400.0]);
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
