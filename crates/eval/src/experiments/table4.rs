//! Table IV — QPS and QPS-decline under Performance-Schema configurations.
//!
//! A 32-client closed-loop saturation test on a 4-core instance with 20
//! tables, under three mixes (read-only / read-write / write-only) and five
//! pfs configurations. The shape to reproduce: enabling pfs costs ~10 %,
//! instruments or consumers alone a little more, and both together decline
//! QPS by ~25–30 %.

use pinsql_dbsim::{run_closed_loop, ClosedLoopConfig, PfsConfig, SimConfig};
use pinsql_workload::dag::ApiDag;
use pinsql_workload::{CostProfile, TableDef, TableId, TemplateSpec, Workload};

/// The three sysbench-style mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    ReadOnly,
    ReadWrite,
    WriteOnly,
}

impl Mix {
    pub const ALL: [Mix; 3] = [Mix::ReadOnly, Mix::ReadWrite, Mix::WriteOnly];

    pub fn label(&self) -> &'static str {
        match self {
            Mix::ReadOnly => "Read Only",
            Mix::ReadWrite => "Read Write",
            Mix::WriteOnly => "Write Only",
        }
    }
}

/// One configuration row: QPS and decline per mix.
#[derive(Debug, Clone)]
pub struct Row {
    pub config: String,
    /// `(qps, decline_percent)` for each of the three mixes.
    pub cells: Vec<(f64, f64)>,
}

/// The overhead study.
#[derive(Debug, Clone)]
pub struct Table4 {
    pub rows: Vec<Row>,
}

/// The sysbench-style schema: 20 tables × 10 M rows.
fn bench_workload() -> Workload {
    let n_tables = 20usize;
    let tables: Vec<TableDef> =
        (0..n_tables).map(|i| TableDef::new(format!("sbtest{i}"), 10_000_000, 256)).collect();
    let mut specs = Vec::new();
    for i in 0..n_tables {
        let t = TableId(i);
        specs.push(TemplateSpec::new(
            &format!("SELECT c FROM sbtest{i} WHERE id = 5"),
            CostProfile::point_read(t),
            format!("ro.point_{i}"),
        ));
        specs.push(TemplateSpec::new(
            &format!("SELECT c FROM sbtest{i} WHERE id > 5 AND id < 105"),
            CostProfile::range_read(t, 100.0),
            format!("ro.range_{i}"),
        ));
        specs.push(TemplateSpec::new(
            &format!("UPDATE sbtest{i} SET k = 6 WHERE id = 7"),
            CostProfile::point_write(t),
            format!("wo.update_{i}"),
        ));
    }
    Workload { tables, specs, dag: ApiDag::default(), roots: vec![] }
}

fn mix_weights(mix: Mix, n_tables: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for i in 0..n_tables {
        let (point, range, update) = (3 * i, 3 * i + 1, 3 * i + 2);
        match mix {
            Mix::ReadOnly => {
                out.push((point, 3.0));
                out.push((range, 1.0));
            }
            Mix::ReadWrite => {
                out.push((point, 3.0));
                out.push((range, 1.0));
                out.push((update, 2.0));
            }
            Mix::WriteOnly => out.push((update, 1.0)),
        }
    }
    out
}

/// Runs the full grid. `measure_s` trades precision for speed.
pub fn run(measure_s: f64, seed: u64) -> Table4 {
    let workload = bench_workload();
    let configs = [
        PfsConfig::OFF,
        PfsConfig::PFS,
        PfsConfig::PFS_INS,
        PfsConfig::PFS_CON,
        PfsConfig::PFS_CON_INS,
    ];
    // Baselines per mix, from the `normal` config.
    let mut rows = Vec::new();
    let mut baselines = vec![0.0f64; Mix::ALL.len()];
    for cfg in configs {
        let mut cells = Vec::new();
        for (mi, mix) in Mix::ALL.iter().enumerate() {
            let sim = SimConfig::default().with_cores(4.0).with_seed(seed).with_pfs(cfg);
            let cl = ClosedLoopConfig {
                clients: 32,
                warmup_s: measure_s * 0.2,
                measure_s,
                mix: mix_weights(*mix, workload.tables.len()),
            };
            let res = run_closed_loop(&workload, &sim, &cl);
            if !cfg.enabled {
                baselines[mi] = res.qps;
            }
            let decline = if baselines[mi] > 0.0 {
                (1.0 - res.qps / baselines[mi]) * 100.0
            } else {
                0.0
            };
            cells.push((res.qps, decline));
        }
        rows.push(Row { config: cfg.label().to_string(), cells });
    }
    Table4 { rows }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table IV — QPS and decline rate under pfs configurations")?;
        write!(f, "{:<14}", "Config")?;
        for m in Mix::ALL {
            write!(f, " | {:>10} {:>7}", m.label(), "↓QPS%")?;
        }
        writeln!(f)?;
        writeln!(f, "{}", "-".repeat(14 + 3 * 21))?;
        for r in &self.rows {
            write!(f, "{:<14}", r.config)?;
            for (qps, decline) in &r.cells {
                write!(f, " | {:>10.0} {:>7.2}", qps, decline)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shape_matches_paper() {
        let t = run(4.0, 99);
        assert_eq!(t.rows.len(), 5);
        let decline = |cfg: &str, mix: usize| -> f64 {
            t.rows.iter().find(|r| r.config == cfg).unwrap().cells[mix].1
        };
        for mix in 0..3 {
            assert_eq!(decline("normal", mix), 0.0);
            assert!(decline("pfs", mix) > 4.0, "pfs should cost noticeably: {t}");
            assert!(
                decline("pfs+con+ins", mix) > decline("pfs", mix) + 8.0,
                "combination is super-additive: {t}"
            );
            assert!(decline("pfs+con+ins", mix) < 45.0, "{t}");
        }
        // Read-only throughput exceeds write-only (cheaper statements).
        let normal = t.rows.iter().find(|r| r.config == "normal").unwrap();
        assert!(normal.cells[0].0 > normal.cells[2].0, "{t}");
    }
}
