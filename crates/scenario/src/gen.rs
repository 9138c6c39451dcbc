//! Base-workload generation: businesses, DAGs, tables, templates.
//!
//! Each *business* owns one table and a small microservice DAG (root API →
//! child APIs), whose templates therefore share the root's traffic trend —
//! the structure §VI's clustering exploits. Templates are realistic OLTP
//! statements over the business's table, each with a distinct column name
//! so every spec is a distinct SQL template.

use pinsql_workload::dag::{Api, Call};
use pinsql_workload::{
    ApiDag, ApiId, CostProfile, SpecId, TableDef, TableId, TemplateSpec, TrafficPattern, Workload,
};
use pinsql_workload::rng::{RngExt, SeedableRng, StdRng};

/// Scenario sizing and timing.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    /// Number of independent businesses.
    pub n_business: usize,
    /// Number of *giant* businesses: stable, very-high-traffic services
    /// whose templates dominate the aggregate metrics (execution count,
    /// total response time, examined rows) without being anomaly-related —
    /// the pattern §V calls out as fooling Top-SQL rankings.
    pub n_giants: usize,
    /// Root invocation rate range (per second) per business.
    pub root_rate: (f64, f64),
    /// Root invocation rate range for giant businesses.
    pub giant_rate: (f64, f64),
    /// Simulated window `[0, window_s)`.
    pub window_s: i64,
    /// Injected anomaly period `[anomaly_start, anomaly_end)`.
    pub anomaly_start: i64,
    pub anomaly_end: i64,
    /// Instance cores (kept small so injections can saturate).
    pub cores: f64,
    /// IO channels.
    pub io_channels: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            n_business: 16,
            n_giants: 2,
            root_rate: (2.0, 6.0),
            giant_rate: (18.0, 32.0),
            window_s: 1200,
            anomaly_start: 720,
            anomaly_end: 960,
            cores: 2.0,
            io_channels: 4.0,
        }
    }
}

impl ScenarioConfig {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style business-count override.
    pub fn with_businesses(mut self, n: usize) -> Self {
        self.n_business = n;
        self
    }

    /// Builder-style window override.
    pub fn with_window(mut self, window_s: i64, anomaly_start: i64, anomaly_end: i64) -> Self {
        assert!(0 < anomaly_start && anomaly_start < anomaly_end && anomaly_end <= window_s);
        self.window_s = window_s;
        self.anomaly_start = anomaly_start;
        self.anomaly_end = anomaly_end;
        self
    }
}

/// A generated base workload plus the bookkeeping the injectors need.
#[derive(Debug, Clone)]
pub struct BaseWorkload {
    pub workload: Workload,
    /// Per-business: (root api, business table, child apis).
    pub businesses: Vec<Business>,
}

/// Bookkeeping for one business.
#[derive(Debug, Clone)]
pub struct Business {
    pub root: ApiId,
    pub table: TableId,
    pub apis: Vec<ApiId>,
    pub specs: Vec<SpecId>,
}

/// Generates the clean (anomaly-free) base workload.
pub fn generate_base(cfg: &ScenarioConfig) -> BaseWorkload {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
    let mut tables = Vec::with_capacity(cfg.n_business);
    let mut specs: Vec<TemplateSpec> = Vec::new();
    let mut dag = ApiDag::default();
    let mut roots = Vec::with_capacity(cfg.n_business);
    let mut businesses = Vec::with_capacity(cfg.n_business);

    for b in 0..cfg.n_business {
        let table = TableId(tables.len());
        let rows = 1_000_000 + (rng.random::<u64>() % 9_000_000);
        tables.push(TableDef::new(format!("tbl_b{b}"), rows, 48));

        let mut biz_specs = Vec::new();
        let mut biz_apis = Vec::new();

        // Child APIs first (so the root can reference them).
        let n_children = rng.random_range(1..=3usize);
        let mut children = Vec::with_capacity(n_children);
        for c in 0..n_children {
            let mut api = Api::named(format!("b{b}_api{c}"));
            let n_templates = rng.random_range(1..=3usize);
            for _ in 0..n_templates {
                let spec = make_template(&mut rng, b, table, &tables[table.0].name, specs.len());
                let spec_id = SpecId(specs.len());
                specs.push(spec);
                biz_specs.push(spec_id);
                let count = rng.random_range(1..=2u32);
                let prob = if rng.random::<f64>() < 0.3 { 0.6 } else { 1.0 };
                api = api.query(Call { target: spec_id, count, prob });
            }
            let id = dag.push(api);
            children.push(id);
            biz_apis.push(id);
        }

        // Root API: its own template plus the children.
        let mut root = Api::named(format!("b{b}_root"));
        let spec = make_template(&mut rng, b, table, &tables[table.0].name, specs.len());
        let spec_id = SpecId(specs.len());
        specs.push(spec);
        biz_specs.push(spec_id);
        root = root.query(Call::once(spec_id));
        for &child in &children {
            let prob = if rng.random::<f64>() < 0.25 { 0.5 } else { 1.0 };
            root = root.child(Call { target: child, count: 1, prob });
        }
        let root_id = dag.push(root);
        biz_apis.push(root_id);

        // Diurnal-ish traffic, business-specific phase and period.
        let base = rng.random_range(cfg.root_rate.0..cfg.root_rate.1);
        let amplitude = rng.random_range(0.35..0.6);
        let period = rng.random_range(400.0..1400.0);
        let phase = rng.random_range(0.0..period);
        let pattern = TrafficPattern::diurnal(base, amplitude, period, phase).with_noise(0.05);
        roots.push((root_id, pattern));

        businesses.push(Business { root: root_id, table, apis: biz_apis, specs: biz_specs });
    }

    // Giant businesses: stable very-high-QPS services plus one steady
    // heavy analytical statement each. They dominate #execution, total
    // response time, and #examined_rows on the instance while having no
    // relationship with injected anomalies.
    for g in 0..cfg.n_giants {
        let table = TableId(tables.len());
        tables.push(TableDef::new(format!("tbl_g{g}"), 40_000_000, 256));
        let mut biz_specs = Vec::new();
        let mut api = Api::named(format!("g{g}_api"));
        // Chatty cheap templates (top the execution counts).
        for k in 0..3 {
            let uniq = specs.len();
            let spec_id = SpecId(uniq);
            specs.push(TemplateSpec::new(
                &format!("SELECT col_{uniq} FROM tbl_g{g} WHERE id = 1"),
                CostProfile::point_read(table),
                format!("g{g}.hot_read_{uniq}"),
            ));
            biz_specs.push(spec_id);
            api = api.query(Call::times(spec_id, 1 + (k % 2) as u32));
        }
        // A steady analytical scan (tops total RT and examined rows).
        let uniq = specs.len();
        let heavy = SpecId(uniq);
        specs.push(TemplateSpec::new(
            &format!(
                "SELECT col_{uniq}, SUM(col_x) FROM tbl_g{g} WHERE ts_{uniq} > 1 GROUP BY col_{uniq}"
            ),
            CostProfile::range_read(table, rng.random_range(25_000.0..45_000.0)),
            format!("g{g}.report_{uniq}"),
        ));
        biz_specs.push(heavy);
        api = api.query(Call::maybe(heavy, 0.08));
        let root_id = dag.push(api);
        let base = rng.random_range(cfg.giant_rate.0..cfg.giant_rate.1);
        // Giants are *stable*: tiny amplitude, long period.
        let pattern = TrafficPattern::diurnal(base, 0.08, 3600.0, rng.random_range(0.0..3600.0))
            .with_noise(0.03);
        roots.push((root_id, pattern));
        businesses.push(Business {
            root: root_id,
            table,
            apis: vec![root_id],
            specs: biz_specs,
        });
    }

    let workload = Workload { tables, specs, dag, roots };
    debug_assert!(workload.dag.validate(workload.specs.len()).is_ok());
    BaseWorkload { workload, businesses }
}

/// Builds one realistic OLTP template for a business table. `uniq` makes
/// the SQL text (and thus the SqlId) unique per spec.
fn make_template(
    rng: &mut StdRng,
    business: usize,
    table: TableId,
    table_name: &str,
    uniq: usize,
) -> TemplateSpec {
    let roll: f64 = rng.random();
    if roll < 0.45 {
        // Indexed point read.
        TemplateSpec::new(
            &format!("SELECT col_{uniq} FROM {table_name} WHERE id = 1"),
            CostProfile::point_read(table),
            format!("b{business}.point_read_{uniq}"),
        )
    } else if roll < 0.65 {
        // Range read.
        let rows = rng.random_range(200.0..4000.0);
        TemplateSpec::new(
            &format!(
                "SELECT col_{uniq}, col_x FROM {table_name} WHERE ts_{uniq} > 1 AND ts_{uniq} < 2"
            ),
            CostProfile::range_read(table, rows),
            format!("b{business}.range_read_{uniq}"),
        )
    } else if roll < 0.82 {
        // Point write (exclusive row lock on one hot slot).
        TemplateSpec::new(
            &format!("UPDATE {table_name} SET col_{uniq} = 1 WHERE id = 2"),
            CostProfile::point_write(table),
            format!("b{business}.point_write_{uniq}"),
        )
    } else {
        // Locking read (shared row lock) — the victims of the paper's
        // SALES example.
        TemplateSpec::new(
            &format!(
                "SELECT col_{uniq} FROM {table_name} WHERE id = 3 LOCK IN SHARE MODE"
            ),
            CostProfile::point_read(table).with_shared_row_locks(1),
            format!("b{business}.locking_read_{uniq}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_workload_is_valid_and_sized() {
        let cfg = ScenarioConfig::default().with_seed(3);
        let base = generate_base(&cfg);
        let w = &base.workload;
        let total = cfg.n_business + cfg.n_giants;
        assert_eq!(w.tables.len(), total);
        assert_eq!(base.businesses.len(), total);
        assert!(w.specs.len() >= cfg.n_business * 2);
        assert!(w.dag.validate(w.specs.len()).is_ok());
        assert_eq!(w.roots.len(), total);
        // All spec SQL ids are distinct (unique column names).
        let mut ids: Vec<_> = w.specs.iter().map(|s| s.template.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), w.specs.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ScenarioConfig::default().with_seed(9);
        let a = generate_base(&cfg);
        let b = generate_base(&cfg);
        assert_eq!(a.workload.specs.len(), b.workload.specs.len());
        for (x, y) in a.workload.specs.iter().zip(&b.workload.specs) {
            assert_eq!(x.template.id, y.template.id);
        }
        let c = generate_base(&ScenarioConfig::default().with_seed(10));
        assert_ne!(
            a.workload.specs.iter().map(|s| s.template.id).collect::<Vec<_>>(),
            c.workload.specs.iter().map(|s| s.template.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn businesses_own_their_specs() {
        let base = generate_base(&ScenarioConfig::default().with_seed(4));
        let mut seen = std::collections::HashSet::new();
        for biz in &base.businesses {
            for s in &biz.specs {
                assert!(seen.insert(*s), "spec {s:?} in two businesses");
            }
            assert!(!biz.specs.is_empty());
        }
    }

    #[test]
    fn expected_rates_are_positive() {
        let base = generate_base(&ScenarioConfig::default().with_seed(5));
        let rates = base.workload.spec_rates().at(100);
        assert!(rates.iter().all(|&r| r >= 0.0));
        assert!(rates.iter().sum::<f64>() > 1.0);
    }

    #[test]
    #[should_panic]
    fn bad_window_panics() {
        let _ = ScenarioConfig::default().with_window(100, 200, 300);
    }
}
