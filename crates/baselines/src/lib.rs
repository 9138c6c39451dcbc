//! Top-SQL baselines (§VIII-A competitors).
//!
//! Every cloud vendor's diagnosing product exposes "Top SQL" views: sort
//! the templates by an aggregate metric over the anomaly period and let the
//! DBA read from the top. The paper evaluates four variants:
//!
//! * **Top-EN** — by `#execution` (sudden business change indicator);
//! * **Top-RT** — by total response time (equivalent to ranking by average
//!   active session, the strongest single metric);
//! * **Top-ER** — by `#examined_rows` (CPU-anomaly indicator);
//! * **Top-All** — the per-case best of the three (a DBA paging through
//!   all the sorted views).
//!
//! All of them rank the *same list* for R-SQLs and H-SQLs — which is
//! exactly why they fail on R-SQLs hiding behind victims.

#![forbid(unsafe_code)]

use pinsql_collector::CaseData;
use pinsql_detect::AnomalyWindow;

/// The metric a Top-SQL baseline sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopMetric {
    /// Top-EN.
    ExecutionCount,
    /// Top-RT.
    TotalResponseTime,
    /// Top-ER.
    ExaminedRows,
}

impl TopMetric {
    /// All three single-metric baselines.
    pub const ALL: [TopMetric; 3] =
        [TopMetric::ExecutionCount, TopMetric::TotalResponseTime, TopMetric::ExaminedRows];

    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            TopMetric::ExecutionCount => "Top-EN",
            TopMetric::TotalResponseTime => "Top-RT",
            TopMetric::ExaminedRows => "Top-ER",
        }
    }
}

/// Ranks the case's templates by the metric summed over the anomaly
/// period, descending. Returns `(template index, value)` pairs.
pub fn rank_top(case: &CaseData, window: &AnomalyWindow, metric: TopMetric) -> Vec<(usize, f64)> {
    let lo = (window.anomaly_start - window.ts()).max(0) as usize;
    let hi = ((window.anomaly_end - window.ts()).max(0) as usize).min(case.n_seconds());
    let hi = hi.max(lo);
    let mut ranked: Vec<(usize, f64)> = case
        .templates
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let series = match metric {
                TopMetric::ExecutionCount => &t.series.execution_count,
                TopMetric::TotalResponseTime => &t.series.total_rt_ms,
                TopMetric::ExaminedRows => &t.series.examined_rows,
            };
            let end = hi.min(series.len());
            let start = lo.min(end);
            (i, series[start..end].iter().sum::<f64>())
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_collector::aggregate_case;
    use pinsql_dbsim::probe::ProbeLog;
    use pinsql_dbsim::{InstanceMetrics, QueryRecord};
    use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

    fn case() -> (CaseData, AnomalyWindow) {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("SELECT * FROM a WHERE x = 1", c.clone(), "many_fast"),
            TemplateSpec::new("SELECT * FROM b WHERE x = 1", c.clone(), "few_slow"),
            TemplateSpec::new("SELECT * FROM c WHERE x = 1", c, "scanner"),
        ];
        let mut log = Vec::new();
        for t in 0..60i64 {
            // many_fast: 50/s, 5 ms, 2 rows
            for j in 0..50 {
                log.push(QueryRecord {
                    spec: SpecId(0),
                    start_ms: t as f64 * 1000.0 + j as f64 * 19.0,
                    response_ms: 5.0,
                    examined_rows: 2,
                });
            }
            // few_slow inside the anomaly window only: 2/s, 2 s each
            if (30..50).contains(&t) {
                for j in 0..2 {
                    log.push(QueryRecord {
                        spec: SpecId(1),
                        start_ms: t as f64 * 1000.0 + j as f64 * 400.0,
                        response_ms: 2000.0,
                        examined_rows: 10,
                    });
                }
                // scanner: 1/s, modest rt, many rows
                log.push(QueryRecord {
                    spec: SpecId(2),
                    start_ms: t as f64 * 1000.0 + 100.0,
                    response_ms: 80.0,
                    examined_rows: 100_000,
                });
            }
        }
        let n = 60;
        let metrics = InstanceMetrics {
            start_second: 0,
            active_session: vec![1.0; n],
            cpu_usage: vec![0.3; n],
            iops_usage: vec![0.1; n],
            row_lock_waits: vec![0.0; n],
            mdl_waits: vec![0.0; n],
            qps: vec![0.0; n],
            probes: ProbeLog::default(),
        };
        let case = aggregate_case(&log, &specs, &metrics, 0, 60);
        let window = AnomalyWindow { anomaly_start: 30, anomaly_end: 50, delta_s: 30 };
        (case, window)
    }

    fn idx(case: &CaseData, spec: usize) -> usize {
        case.template_index(case.catalog.id_of_spec(SpecId(spec))).unwrap()
    }

    #[test]
    fn top_en_picks_the_chattiest() {
        let (case, w) = case();
        let r = rank_top(&case, &w, TopMetric::ExecutionCount);
        assert_eq!(r[0].0, idx(&case, 0));
        assert_eq!(r[0].1, 50.0 * 20.0);
    }

    #[test]
    fn top_rt_picks_the_total_time_hog() {
        let (case, w) = case();
        let r = rank_top(&case, &w, TopMetric::TotalResponseTime);
        // few_slow: 2×2000 ms × 20 s = 80 000 > many_fast 50×5×20 = 5 000.
        assert_eq!(r[0].0, idx(&case, 1));
    }

    #[test]
    fn top_er_picks_the_scanner() {
        let (case, w) = case();
        let r = rank_top(&case, &w, TopMetric::ExaminedRows);
        assert_eq!(r[0].0, idx(&case, 2));
    }

    #[test]
    fn ranking_covers_all_templates() {
        let (case, w) = case();
        for m in TopMetric::ALL {
            let r = rank_top(&case, &w, m);
            assert_eq!(r.len(), 3);
            assert!(r.windows(2).all(|p| p[0].1 >= p[1].1), "descending for {m:?}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(TopMetric::ExecutionCount.label(), "Top-EN");
        assert_eq!(TopMetric::TotalResponseTime.label(), "Top-RT");
        assert_eq!(TopMetric::ExaminedRows.label(), "Top-ER");
    }
}
