//! Fig. 7 — scalability: PinSQL computing time vs the number of SQL
//! templates and vs the anomaly-period length.
//!
//! The paper's observation to reproduce: running time is clearly
//! positively correlated with the anomaly (window) length, while the
//! template count has a weaker effect; even the slowest cases stay well
//! under a minute.
//!
//! Timing doesn't need labelled ground truth, so cases here are
//! synthesized directly (random template traffic around a session
//! anomaly) and cut by the online collector — that is what lets the sweep
//! reach the paper's thousands of templates without hour-long
//! simulations.

use crate::caseset::cut_telemetry;
use pinsql::{PinSql, PinSqlConfig};
use pinsql_collector::HistoryStore;
use pinsql_detect::AnomalyWindow;
use pinsql_dbsim::probe::{ProbeLog, ProbeSample};
use pinsql_dbsim::{InstanceMetrics, QueryRecord};
use pinsql_workload::rng::{poisson, rng_from_seed, RngExt};
use pinsql_workload::{CostProfile, SpecId, TableId, TemplateSpec};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub n_templates: usize,
    pub anomaly_len_s: i64,
    pub window_s: i64,
    pub n_queries: usize,
    pub time_s: f64,
}

/// Both sweeps.
#[derive(Debug, Clone)]
pub struct Fig7 {
    pub by_templates: Vec<Point>,
    pub by_anomaly_len: Vec<Point>,
    /// Resolved worker-thread count the measured diagnoser ran with.
    pub parallelism: usize,
}

/// Builds a synthetic timing case: `n_templates` templates with Poisson
/// traffic over a window, a subset surging during the anomaly.
pub fn timing_case(
    n_templates: usize,
    anomaly_len_s: i64,
    seed: u64,
) -> (pinsql_collector::CaseData, AnomalyWindow) {
    let delta_s = anomaly_len_s.min(600);
    let window_s = delta_s + anomaly_len_s;
    let a_start = delta_s;
    let a_end = window_s;
    let mut rng = rng_from_seed(seed);
    let specs: Vec<TemplateSpec> = (0..n_templates)
        .map(|i| {
            TemplateSpec::new(
                &format!("SELECT col_{i} FROM t{} WHERE id = 1", i % 40),
                CostProfile::point_read(TableId(0)),
                format!("tpl_{i}"),
            )
        })
        .collect();
    // Keep total traffic fixed (~600 qps) so the sweep isolates template
    // count from record count.
    let per_tpl_rate = 600.0 / n_templates as f64;
    let mut log: Vec<QueryRecord> = Vec::new();
    let mut session = vec![0.0f64; window_s as usize];
    let mut probes = Vec::with_capacity(window_s as usize);
    for t in 0..window_s {
        let anomaly = t >= a_start;
        let mut active = 0.0;
        for i in 0..n_templates {
            let surged = anomaly && i % 10 == 0;
            let rate = per_tpl_rate * if surged { 4.0 } else { 1.0 };
            let k = poisson(&mut rng, rate);
            for _ in 0..k {
                let rt = if surged { 400.0 } else { 30.0 };
                log.push(QueryRecord {
                    spec: SpecId(i),
                    start_ms: t as f64 * 1000.0 + rng.random::<f64>() * 1000.0,
                    response_ms: rt * (0.5 + rng.random::<f64>()),
                    examined_rows: 10,
                });
            }
            active += rate * if surged { 0.4 } else { 0.03 };
        }
        session[t as usize] = active;
        probes.push(ProbeSample {
            second: t,
            active_sessions: active.round() as u32,
            true_instant_ms: t as f64 * 1000.0 + 500.0,
        });
    }
    let n = window_s as usize;
    let metrics = InstanceMetrics {
        start_second: 0,
        active_session: session,
        cpu_usage: vec![0.3; n],
        iops_usage: vec![0.1; n],
        row_lock_waits: vec![0.0; n],
        mdl_waits: vec![0.0; n],
        qps: vec![0.0; n],
        probes: ProbeLog { samples: probes },
    };
    let case = cut_telemetry(&specs, log, &metrics, 0, window_s);
    let window = AnomalyWindow { anomaly_start: a_start, anomaly_end: a_end, delta_s };
    (case, window)
}

fn measure(n_templates: usize, anomaly_len_s: i64, seed: u64, parallelism: usize) -> Point {
    let (case, window) = timing_case(n_templates, anomaly_len_s, seed);
    let pinsql = PinSql::new(PinSqlConfig::default().with_parallelism(parallelism));
    let t0 = std::time::Instant::now();
    let _ = pinsql.diagnose(&case, &window, &HistoryStore::new(), 1_000_000);
    Point {
        n_templates,
        anomaly_len_s,
        window_s: window.window_len(),
        n_queries: case.records.len(),
        time_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs both sweeps with the serial diagnoser. `scale` trims the largest
/// points for quick runs (1.0 = full paper-scale sweep).
pub fn run(scale: f64) -> Fig7 {
    run_par(scale, 1)
}

/// [`run`] with a parallelism knob for the *measured* diagnoser (`0` =
/// all cores, `1` = serial). The sweep loop itself stays serial so each
/// point is timed on an otherwise idle machine.
pub fn run_par(scale: f64, parallelism: usize) -> Fig7 {
    let template_sweep: Vec<usize> = [250usize, 500, 1000, 2000, 4000, 6000]
        .iter()
        .map(|&n| ((n as f64 * scale) as usize).max(50))
        .collect();
    let anomaly_sweep: Vec<i64> = [120i64, 300, 600, 1200, 2400, 4800]
        .iter()
        .map(|&s| ((s as f64 * scale) as i64).max(60))
        .collect();
    let by_templates = template_sweep
        .iter()
        .map(|&n| measure(n, (600.0 * scale) as i64 + 60, 7001, parallelism))
        .collect();
    let by_anomaly_len =
        anomaly_sweep.iter().map(|&s| measure(1000, s, 7002, parallelism)).collect();
    Fig7 {
        by_templates,
        by_anomaly_len,
        parallelism: pinsql_timeseries::effective_parallelism(parallelism),
    }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 7 — computing time vs number of templates")?;
        writeln!(f, "{:>10} {:>12} {:>12} {:>10}", "templates", "anomaly(s)", "queries", "time(s)")?;
        for p in &self.by_templates {
            writeln!(
                f,
                "{:>10} {:>12} {:>12} {:>10.3}",
                p.n_templates, p.anomaly_len_s, p.n_queries, p.time_s
            )?;
        }
        writeln!(f, "\nFig. 7 — computing time vs anomaly period length")?;
        writeln!(f, "{:>10} {:>12} {:>12} {:>10}", "templates", "anomaly(s)", "queries", "time(s)")?;
        for p in &self.by_anomaly_len {
            writeln!(
                f,
                "{:>10} {:>12} {:>12} {:>10.3}",
                p.n_templates, p.anomaly_len_s, p.n_queries, p.time_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_timeseries::pearson;

    #[test]
    fn time_grows_with_anomaly_length() {
        let fig = run(0.12); // small sweep for tests
        assert_eq!(fig.by_anomaly_len.len(), 6);
        let lens: Vec<f64> = fig.by_anomaly_len.iter().map(|p| p.anomaly_len_s as f64).collect();
        let times: Vec<f64> = fig.by_anomaly_len.iter().map(|p| p.time_s).collect();
        let corr = pearson(&lens, &times);
        assert!(corr > 0.5, "time should grow with anomaly length: {corr} ({times:?})");
        // Paper's first observation: even the slowest case is far under a
        // minute.
        assert!(times.iter().all(|&t| t < 60.0));
    }

    #[test]
    fn timing_case_has_expected_shape() {
        let (case, window) = timing_case(100, 120, 5);
        assert_eq!(case.templates.len(), 100);
        assert!(case.records.len() > 10_000);
        assert_eq!(window.anomaly_len(), 120);
    }
}
