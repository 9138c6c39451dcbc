//! Output checks: every way of running a workload must report the same
//! cases.

use pinsql_engine::{FleetDaemon, FleetRun, InstanceOutcome};

use crate::workloads::{fleet_config, Inputs};

/// What one instance's diagnosis came to — everything in an
/// [`InstanceOutcome`] except timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeKey {
    pub instance: usize,
    pub kind: String,
    pub detected: bool,
    pub anomaly_type: String,
    pub n_events: u64,
    pub n_templates: usize,
    pub n_reported: usize,
    pub top_rsql: Option<String>,
}

impl From<&InstanceOutcome> for OutcomeKey {
    fn from(o: &InstanceOutcome) -> Self {
        Self {
            instance: o.instance,
            kind: o.kind.clone(),
            detected: o.detected,
            anomaly_type: o.anomaly_type.clone(),
            n_events: o.n_events,
            n_templates: o.n_templates,
            n_reported: o.n_reported,
            top_rsql: o.top_rsql.clone(),
        }
    }
}

pub fn outcome_keys(run: &FleetRun) -> Vec<OutcomeKey> {
    run.report.outcomes.iter().map(OutcomeKey::from).collect()
}

/// The wire-less reference: a hollow daemon handed each whole stream by
/// `offer_events`, then finished.
pub fn hollow_reference(inputs: &Inputs) -> FleetRun {
    let mut daemon = FleetDaemon::spawn_hollow(fleet_config(), &inputs.scenarios);
    for (i, stream) in inputs.streams.iter().enumerate() {
        daemon.offer_events(i, stream.clone()).expect("generated streams are time-ordered");
    }
    daemon.finish()
}

/// How diagnoses compare with the ground truth the scenarios carry,
/// tallied over any number of finished runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdicts {
    /// Cases with an injected anomaly, and those of them whose top-ranked
    /// R-SQL is ground truth.
    pub anomalies: usize,
    pub top1_hits: usize,
    /// Cases with nothing injected (`kind == "none"`), and those of them
    /// that reported R-SQLs all the same.
    pub negatives: usize,
    pub false_reports: usize,
}

fn share(part: usize, of: usize) -> f64 {
    if of == 0 {
        0.0
    } else {
        part as f64 / of as f64
    }
}

impl Verdicts {
    pub fn add(&mut self, run: &FleetRun) {
        for o in &run.report.outcomes {
            if o.kind == "none" {
                self.negatives += 1;
                self.false_reports += usize::from(o.n_reported > 0);
            } else {
                self.anomalies += 1;
                self.top1_hits += usize::from(o.truth_hit);
            }
        }
    }

    pub fn rsql_top1_hit_rate(&self) -> f64 {
        share(self.top1_hits, self.anomalies)
    }

    pub fn false_report_rate(&self) -> f64 {
        share(self.false_reports, self.negatives)
    }

    /// Cases diagnosed right — an anomaly whose top-ranked R-SQL is ground
    /// truth, a negative that stayed quiet — over all cases.
    pub fn verdict_accuracy(&self) -> f64 {
        let right = self.top1_hits + (self.negatives - self.false_reports);
        share(right, self.anomalies + self.negatives)
    }
}

/// Collects check failures. `attempted` counts every check, plus the
/// operations callers add to it (reps, frames sent, control ops), so a
/// mismatch shows up in the result's `failed` / `attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// One check per expected case: present, and equal to the reference.
    pub fn same_outcomes(&mut self, label: &str, got: &[OutcomeKey], want: &[OutcomeKey]) {
        for (i, w) in want.iter().enumerate() {
            self.expect(got.get(i) == Some(w), || match got.get(i) {
                Some(g) => format!("{label}: instance {i} outcome {g:?}, reference {w:?}"),
                None => format!("{label}: instance {i} has no case"),
            });
        }
        self.expect(got.len() <= want.len(), || {
            format!("{label}: {} cases for {} instances", got.len(), want.len())
        });
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(instance: usize, top: Option<&str>) -> OutcomeKey {
        OutcomeKey {
            instance,
            kind: "poor_sql".into(),
            detected: true,
            anomaly_type: "cpu".into(),
            n_events: 10,
            n_templates: 3,
            n_reported: 1,
            top_rsql: top.map(str::to_string),
        }
    }

    #[test]
    fn missing_and_mismatched_cases_each_fail_once() {
        let want = vec![key(0, Some("a")), key(1, Some("b")), key(2, None)];
        let mut c = Checks::default();
        c.same_outcomes("same", &want, &want);
        assert!(c.failures.is_empty());
        assert_eq!(c.attempted, 4);

        let mut c = Checks::default();
        c.same_outcomes("pipe", &[key(0, Some("a")), key(1, Some("x"))], &want);
        assert_eq!(c.failures.len(), 2, "{:?}", c.failures);
        assert!(c.failures[0].contains("instance 1 outcome"));
        assert!(c.failures[1].contains("instance 2 has no case"));
    }
}
