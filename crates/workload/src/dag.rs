//! The microservice API call DAG (§VI, Fig. 4).
//!
//! One user request enters at a *root* API; each API issues some SQL
//! templates directly and calls child APIs, possibly probabilistically
//! (`IF` branches) or repeatedly (`FOR` loops). All templates reachable
//! from one root therefore share the root's traffic trend — the property
//! PinSQL's clustering step exploits.

use crate::dag::expansion::Expansion;
use crate::rng::{Rng, RngExt};

/// Index of an API within [`ApiDag::apis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApiId(pub usize);

/// Index of a template spec within [`crate::Workload::specs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecId(pub usize);

/// An edge: call the target `count` times, each with probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call<T> {
    pub target: T,
    /// Loop multiplicity (`FOR` in the paper's Fig. 4 code blocks).
    pub count: u32,
    /// Branch probability (`IF`): each of the `count` attempts fires
    /// independently with this probability.
    pub prob: f64,
}

impl<T> Call<T> {
    /// An unconditional single call.
    pub fn once(target: T) -> Self {
        Self { target, count: 1, prob: 1.0 }
    }

    /// `count` unconditional calls.
    pub fn times(target: T, count: u32) -> Self {
        Self { target, count, prob: 1.0 }
    }

    /// A single call taken with probability `prob`.
    pub fn maybe(target: T, prob: f64) -> Self {
        Self { target, count: 1, prob }
    }

    fn expected(&self) -> f64 {
        self.count as f64 * self.prob
    }
}

/// One microservice API: the templates it issues and the APIs it calls.
#[derive(Debug, Clone)]
pub struct Api {
    pub name: String,
    pub queries: Vec<Call<SpecId>>,
    pub children: Vec<Call<ApiId>>,
}

impl Api {
    /// An API issuing no queries and calling no children.
    pub fn named(name: impl Into<String>) -> Self {
        Self { name: name.into(), queries: Vec::new(), children: Vec::new() }
    }

    /// Adds a query call (builder style).
    pub fn query(mut self, call: Call<SpecId>) -> Self {
        self.queries.push(call);
        self
    }

    /// Adds a child-API call (builder style).
    pub fn child(mut self, call: Call<ApiId>) -> Self {
        self.children.push(call);
        self
    }
}

/// The call graph. Must be acyclic; [`ApiDag::validate`] checks.
#[derive(Debug, Clone, Default)]
pub struct ApiDag {
    pub apis: Vec<Api>,
}

impl ApiDag {
    /// Adds an API, returning its id.
    pub fn push(&mut self, api: Api) -> ApiId {
        self.apis.push(api);
        ApiId(self.apis.len() - 1)
    }

    /// Checks that every edge targets an existing API/spec (bounds given by
    /// `n_specs`) and that the graph is acyclic. Returns a description of
    /// the first problem found.
    pub fn validate(&self, n_specs: usize) -> Result<(), String> {
        for (i, api) in self.apis.iter().enumerate() {
            for q in &api.queries {
                if q.target.0 >= n_specs {
                    return Err(format!("api {} ({}) references missing spec {}", i, api.name, q.target.0));
                }
                if !(0.0..=1.0).contains(&q.prob) {
                    return Err(format!("api {} query prob {} out of range", i, q.prob));
                }
            }
            for c in &api.children {
                if c.target.0 >= self.apis.len() {
                    return Err(format!("api {} ({}) calls missing api {}", i, api.name, c.target.0));
                }
                if !(0.0..=1.0).contains(&c.prob) {
                    return Err(format!("api {} child prob {} out of range", i, c.prob));
                }
            }
        }
        // Cycle detection via iterative DFS coloring.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.apis.len()];
        for start in 0..self.apis.len() {
            if color[start] != Color::White {
                continue;
            }
            // stack of (node, next child index)
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < self.apis[node].children.len() {
                    let child = self.apis[node].children[*next].target.0;
                    *next += 1;
                    match color[child] {
                        Color::White => {
                            color[child] = Color::Gray;
                            stack.push((child, 0));
                        }
                        Color::Gray => {
                            return Err(format!(
                                "cycle through api {} ({})",
                                child, self.apis[child].name
                            ));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Expected number of executions of each spec per invocation of `root`
    /// (probabilities and loop counts folded through the DAG). Only specs
    /// with a positive expectation are returned.
    pub fn expected_multiplicities(&self, root: ApiId) -> Vec<(SpecId, f64)> {
        let mut acc: Vec<f64> = vec![0.0; self.max_spec_index() + 1];
        self.fold_expected(root, 1.0, &mut acc);
        acc.into_iter()
            .enumerate()
            .filter(|(_, m)| *m > 0.0)
            .map(|(i, m)| (SpecId(i), m))
            .collect()
    }

    fn max_spec_index(&self) -> usize {
        self.apis
            .iter()
            .flat_map(|a| a.queries.iter())
            .map(|q| q.target.0)
            .max()
            .unwrap_or(0)
    }

    fn fold_expected(&self, api: ApiId, weight: f64, acc: &mut Vec<f64>) {
        let a = &self.apis[api.0];
        for q in &a.queries {
            if q.target.0 >= acc.len() {
                acc.resize(q.target.0 + 1, 0.0);
            }
            acc[q.target.0] += weight * q.expected();
        }
        for c in &a.children {
            self.fold_expected(c.target, weight * c.expected(), acc);
        }
    }

    /// Samples the concrete multiset of spec executions triggered by one
    /// invocation of `root`, appending `(spec, count)`-expanded entries to
    /// `out`.
    pub fn sample_invocation(&self, root: ApiId, rng: &mut impl Rng, out: &mut Vec<SpecId>) {
        let mut stack = vec![(root, 1u32)];
        while let Some((api, times)) = stack.pop() {
            for _ in 0..times {
                let a = &self.apis[api.0];
                for q in &a.queries {
                    for _ in 0..q.count {
                        if q.prob >= 1.0 || rng.random::<f64>() < q.prob {
                            out.push(q.target);
                        }
                    }
                }
                for c in &a.children {
                    let mut fired = 0u32;
                    for _ in 0..c.count {
                        if c.prob >= 1.0 || rng.random::<f64>() < c.prob {
                            fired += 1;
                        }
                    }
                    if fired > 0 {
                        stack.push((c.target, fired));
                    }
                }
            }
        }
    }

    /// Returns an [`Expansion`] view precomputing per-root expectations.
    pub fn expansion(&self) -> Expansion<'_> {
        Expansion::new(self)
    }
}

pub mod expansion {
    //! Precomputed expected multiplicities for every root.

    use super::{ApiDag, ApiId, SpecId};

    /// Caches `expected_multiplicities` for all APIs of a DAG.
    pub struct Expansion<'a> {
        dag: &'a ApiDag,
        cache: Vec<Vec<(SpecId, f64)>>,
    }

    impl<'a> Expansion<'a> {
        pub(super) fn new(dag: &'a ApiDag) -> Self {
            let cache = (0..dag.apis.len())
                .map(|i| dag.expected_multiplicities(ApiId(i)))
                .collect();
            Self { dag, cache }
        }

        /// Expected spec multiplicities per invocation of `api`.
        pub fn of(&self, api: ApiId) -> &[(SpecId, f64)] {
            &self.cache[api.0]
        }

        /// The underlying DAG.
        pub fn dag(&self) -> &ApiDag {
            self.dag
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    /// Builds the paper's Fig. 4 topology:
    /// API1 → {API2, API3, API4×loop}, API2 → API4 (IF), API5 → API6.
    fn fig4() -> ApiDag {
        let mut dag = ApiDag::default();
        let api6 = dag.push(Api::named("api6").query(Call::once(SpecId(5))));
        let api4 = dag.push(Api::named("api4").query(Call::once(SpecId(3))));
        let api3 = dag.push(Api::named("api3").query(Call::once(SpecId(2))));
        let api2 = dag.push(
            Api::named("api2").query(Call::once(SpecId(1))).child(Call::maybe(api4, 0.5)),
        );
        let _api1 = dag.push(
            Api::named("api1")
                .query(Call::once(SpecId(0)))
                .child(Call::once(api2))
                .child(Call::once(api3))
                .child(Call::times(api4, 3)),
        );
        let _api5 = dag.push(Api::named("api5").query(Call::once(SpecId(4))).child(Call::once(api6)));
        dag
    }

    #[test]
    fn validate_accepts_fig4() {
        assert_eq!(fig4().validate(6), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_spec_and_cycles() {
        let dag = fig4();
        assert!(dag.validate(3).is_err());
        let mut cyclic = ApiDag::default();
        let a = cyclic.push(Api::named("a"));
        let b = cyclic.push(Api::named("b").child(Call::once(a)));
        cyclic.apis[a.0].children.push(Call::once(b));
        assert!(cyclic.validate(0).unwrap_err().contains("cycle"));
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut dag = ApiDag::default();
        dag.push(Api::named("x").query(Call { target: SpecId(0), count: 1, prob: 1.5 }));
        assert!(dag.validate(1).is_err());
    }

    #[test]
    fn expected_multiplicities_fold_loops_and_branches() {
        let dag = fig4();
        // api1 is index 4 in construction order.
        let mults = dag.expected_multiplicities(ApiId(4));
        let get = |s: usize| mults.iter().find(|(id, _)| id.0 == s).map(|(_, m)| *m);
        assert_eq!(get(0), Some(1.0)); // api1's own query
        assert_eq!(get(1), Some(1.0)); // via api2
        assert_eq!(get(2), Some(1.0)); // via api3
        // api4's query: 3 unconditional + 0.5 via api2's IF branch.
        assert!((get(3).unwrap() - 3.5).abs() < 1e-12);
        assert_eq!(get(4), None); // api5's business is unreachable
        assert_eq!(get(5), None);
    }

    #[test]
    fn sample_invocation_mean_matches_expectation() {
        let dag = fig4();
        let mut rng = rng_from_seed(9);
        let n = 20_000;
        let mut count3 = 0usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.clear();
            dag.sample_invocation(ApiId(4), &mut rng, &mut out);
            count3 += out.iter().filter(|s| s.0 == 3).count();
        }
        let mean = count3 as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn unreachable_business_stays_silent() {
        let dag = fig4();
        let mut rng = rng_from_seed(10);
        let mut out = Vec::new();
        dag.sample_invocation(ApiId(4), &mut rng, &mut out);
        assert!(out.iter().all(|s| s.0 != 4 && s.0 != 5));
    }

    #[test]
    fn expansion_caches_all_roots() {
        let dag = fig4();
        let exp = dag.expansion();
        assert_eq!(exp.of(ApiId(5)).len(), 2); // api5 reaches specs 4 and 5
        assert_eq!(exp.dag().apis.len(), 6);
    }
}
