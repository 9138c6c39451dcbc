//! Workload summaries and capacity forecasts.
//!
//! Operators (and the scenario generator's tests) need a quick answer to
//! "what does this workload demand from the instance?" before running a
//! simulation: expected QPS per template/table, expected CPU/IO core
//! demand, and a utilization forecast for a given instance size. The
//! forecast is first-order (no queueing): it flags *offered load*, which
//! is what determines whether an injected anomaly can saturate.

use crate::dag::SpecId;
use crate::tables::TableId;
use crate::Workload;

/// Per-template expected demand at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateDemand {
    pub spec: SpecId,
    pub label: String,
    /// Expected executions per second.
    pub rate: f64,
    /// Expected CPU demand, core-seconds per second.
    pub cpu_load: f64,
    /// Expected IO demand, channel-seconds per second.
    pub io_load: f64,
    /// Expected examined rows per second.
    pub rows_per_s: f64,
}

/// A whole-workload snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Evaluation instant (seconds).
    pub at: i64,
    pub total_qps: f64,
    /// Offered CPU load in core-seconds per second (1.0 = one busy core).
    pub total_cpu_load: f64,
    pub total_io_load: f64,
    pub per_template: Vec<TemplateDemand>,
}

impl WorkloadSummary {
    /// Computes the snapshot at time `t`.
    pub fn at(workload: &Workload, t: i64) -> Self {
        let rates = workload.expected_spec_rates(t);
        let mut per_template = Vec::with_capacity(workload.specs.len());
        let mut total_qps = 0.0;
        let mut total_cpu = 0.0;
        let mut total_io = 0.0;
        for (i, spec) in workload.specs.iter().enumerate() {
            let rate = rates.get(i).copied().unwrap_or(0.0);
            let cpu_load = rate * spec.cost.cpu_ms / 1000.0;
            let io_load = rate * spec.cost.io_ms / 1000.0;
            total_qps += rate;
            total_cpu += cpu_load;
            total_io += io_load;
            per_template.push(TemplateDemand {
                spec: SpecId(i),
                label: spec.label.clone(),
                rate,
                cpu_load,
                io_load,
                rows_per_s: rate * spec.cost.examined_rows,
            });
        }
        Self { at: t, total_qps, total_cpu_load: total_cpu, total_io_load: total_io, per_template }
    }

    /// Forecast CPU utilization on an instance with `cores` (offered load
    /// over capacity, uncapped — values above 1.0 mean saturation and
    /// growing backlogs).
    pub fn cpu_utilization(&self, cores: f64) -> f64 {
        assert!(cores > 0.0, "cores must be positive");
        self.total_cpu_load / cores
    }

    /// Per-table expected QPS (all templates touching the table summed;
    /// templates without a lock footprint contribute to no table).
    pub fn qps_by_table(&self, workload: &Workload) -> Vec<(TableId, f64)> {
        let mut by_table = vec![0.0f64; workload.tables.len()];
        for d in &self.per_template {
            if let Some(fp) = workload.specs[d.spec.0].cost.lock {
                by_table[fp.table.0] += d.rate;
            }
        }
        by_table
            .into_iter()
            .enumerate()
            .map(|(i, q)| (TableId(i), q))
            .collect()
    }

    /// The `k` templates with the highest expected CPU load.
    pub fn top_cpu(&self, k: usize) -> Vec<&TemplateDemand> {
        let mut v: Vec<&TemplateDemand> = self.per_template.iter().collect();
        v.sort_by(|a, b| b.cpu_load.total_cmp(&a.cpu_load));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Api, Call};
    use crate::{ApiDag, CostProfile, TableDef, TemplateSpec, TrafficPattern};

    fn workload() -> Workload {
        let t0 = TableId(0);
        let t1 = TableId(1);
        let specs = vec![
            TemplateSpec::new(
                "SELECT a FROM x WHERE id = 1",
                CostProfile { cpu_ms: 2.0, io_ms: 1.0, examined_rows: 10.0, sigma: 0.0, lock: None }
                    .reading(t0),
                "cheap",
            ),
            TemplateSpec::new(
                "SELECT b FROM y WHERE n LIKE 1",
                CostProfile { cpu_ms: 100.0, io_ms: 10.0, examined_rows: 1e4, sigma: 0.0, lock: None }
                    .reading(t1),
                "heavy",
            ),
        ];
        let mut dag = ApiDag::default();
        let api = dag
            .push(Api::named("a").query(Call::times(SpecId(0), 2)).query(Call::maybe(SpecId(1), 0.5)));
        Workload {
            tables: vec![TableDef::new("x", 100, 4), TableDef::new("y", 100, 4)],
            specs,
            dag,
            roots: vec![(api, TrafficPattern::steady(10.0))],
        }
    }

    #[test]
    fn summary_matches_hand_computation() {
        let w = workload();
        let s = WorkloadSummary::at(&w, 0);
        // cheap: 10 × 2 = 20/s; heavy: 10 × 0.5 = 5/s.
        assert!((s.total_qps - 25.0).abs() < 1e-9);
        // CPU: 20 × 2 ms + 5 × 100 ms = 0.04 + 0.5 = 0.54 core.
        assert!((s.total_cpu_load - 0.54).abs() < 1e-9);
        assert!((s.total_io_load - (20.0 * 0.001 + 5.0 * 0.01)).abs() < 1e-9);
        assert!((s.cpu_utilization(2.0) - 0.27).abs() < 1e-9);
    }

    #[test]
    fn top_cpu_ranks_the_heavy_template_first() {
        let w = workload();
        let s = WorkloadSummary::at(&w, 0);
        let top = s.top_cpu(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].label, "heavy");
        assert!(s.top_cpu(10).len() == 2);
    }

    #[test]
    fn qps_by_table_attributes_by_lock_footprint() {
        let w = workload();
        let s = WorkloadSummary::at(&w, 0);
        let by_table = s.qps_by_table(&w);
        assert!((by_table[0].1 - 20.0).abs() < 1e-9);
        assert!((by_table[1].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn zero_cores_panics() {
        let w = workload();
        let _ = WorkloadSummary::at(&w, 0).cpu_utilization(0.0);
    }
}
