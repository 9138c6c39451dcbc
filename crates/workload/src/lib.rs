//! Workload model for the PinSQL reproduction.
//!
//! §VI of the paper motivates template clustering with how modern back-ends
//! are built: business logic lives in microservices whose APIs call each
//! other in a DAG, so all SQL templates reachable from one user request
//! share one traffic trend. This crate models exactly that structure:
//!
//! * [`rng`] — seeded samplers built on `rand` (Poisson, log-normal via
//!   Box–Muller, Zipf) used everywhere randomness is needed;
//! * [`cost`] — per-query resource cost profiles (CPU, IO, examined rows)
//!   and lock footprints;
//! * [`spec`] — [`spec::TemplateSpec`]: a SQL template plus its cost
//!   profile and the table it touches;
//! * [`dag`] — the microservice API DAG and its expansion from a root
//!   invocation to the multiset of template executions it triggers;
//! * [`traffic`] — arrival-rate patterns (diurnal base + noise) and rate
//!   events (spikes / ramps / steps) used to inject business changes;
//! * [`tables`] — logical table definitions (row counts, hot ranges) that
//!   the simulator's lock managers key on.
//!
//! A [`Workload`] bundles specs, tables, the DAG, and root traffic; the
//! `pinsql-dbsim` crate consumes it to produce query logs and metrics.

#![forbid(unsafe_code)]

pub mod cost;
pub mod dag;
pub mod rng;
pub mod spec;
pub mod tables;
pub mod traffic;

pub use cost::{CostProfile, CostSampler, LockFootprint, LockMode, QueryCost};
pub use dag::{Api, ApiDag, ApiId, SpecId};
pub use spec::TemplateSpec;
pub use tables::{TableDef, TableId};
pub use traffic::{EventShape, RateEvent, TrafficPattern};

/// A complete workload: the inputs the database simulator needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Logical tables; [`TableId`] indexes into this.
    pub tables: Vec<TableDef>,
    /// SQL template specifications; [`SpecId`] indexes into this.
    pub specs: Vec<TemplateSpec>,
    /// Microservice call graph over the specs.
    pub dag: ApiDag,
    /// Arrival traffic per root API: `(root, pattern)`.
    pub roots: Vec<(ApiId, TrafficPattern)>,
}

impl Workload {
    /// The expected-rate table: every root's DAG multiplicities folded
    /// once, so each [`SpecRates::at`] costs one `mean_rate` per root.
    pub fn spec_rates(&self) -> SpecRates<'_> {
        let mults =
            self.roots.iter().map(|(root, _)| self.dag.expected_multiplicities(*root)).collect();
        SpecRates { workload: self, mults }
    }
}

/// A workload's expected per-spec execution rates, with the API DAG
/// folded once per root ([`Workload::spec_rates`]).
#[derive(Debug, Clone)]
pub struct SpecRates<'w> {
    workload: &'w Workload,
    /// `mults[i]`: root `i`'s expected executions per spec, per invocation.
    mults: Vec<Vec<(SpecId, f64)>>,
}

impl SpecRates<'_> {
    /// Expected executions of each spec per second at time `t`, combining
    /// every root's rate with the DAG's expected multiplicities.
    pub fn at(&self, t: i64) -> Vec<f64> {
        let mut rates = vec![0.0; self.workload.specs.len()];
        for ((_, pattern), mults) in self.workload.roots.iter().zip(&self.mults) {
            let rate = pattern.mean_rate(t);
            for &(spec, mult) in mults {
                rates[spec.0] += rate * mult;
            }
        }
        rates
    }
}
