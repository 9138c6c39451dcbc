//! Synthesizing per-template execution history for the look-back days.
//!
//! History-trend verification needs each template's 1-minute `#execution`
//! series 1/3/7 days before the case. Simulating whole days is wasteful:
//! the verification only reads the windows aligned with the case, so we
//! synthesize exactly those windows from the *clean* workload's expected
//! rates (evaluated at the same within-window offsets — the diurnal
//! patterns repeat) plus Poisson noise. Injected templates have no history
//! (they are new), which is precisely what rule (ii) checks.

use pinsql_collector::HistoryStore;
use pinsql_workload::rng::{poisson, SeedableRng, StdRng};
use pinsql_workload::Workload;

/// Synthesizes history for the case window.
///
/// * `clean` — the workload *without* the anomaly injection;
/// * `minutes_origin` — absolute minute index of the case window start;
/// * `window_min` — case-window length in minutes;
/// * `days` — look-back days to fill (1/3/7 by default);
/// * `replay_anomaly_from` — when `Some((workload, days))`, those look-back
///   days are filled from the *injected* workload instead, making the
///   anomaly recur in history (used to test the recurring-spike rejection).
pub fn synthesize_history(
    clean: &Workload,
    minutes_origin: i64,
    window_min: i64,
    days: &[u32],
    seed: u64,
    replay_anomaly_from: Option<(&Workload, &[u32])>,
) -> HistoryStore {
    let mut store = HistoryStore::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x8f3a_79b1_22dd_4e01);
    // Each workload's DAG is folded once per call, not once per minute.
    let clean_rates = (clean, clean.spec_rates());
    let replay = replay_anomaly_from.map(|(w, days)| ((w, w.spec_rates()), days));
    for &d in days {
        let (workload, rates_of) = match &replay {
            Some((rates, replay_days)) if replay_days.contains(&d) => rates,
            _ => &clean_rates,
        };
        let from = minutes_origin - d as i64 * 1440;
        for m in 0..window_min {
            // Evaluate expected per-second rates at the same within-window
            // offset (patterns are stationary across days up to phase).
            let rates = rates_of.at(m * 60 + 30);
            for (spec, &rate) in workload.specs.iter().zip(&rates) {
                if rate <= 0.0 {
                    continue;
                }
                let count = poisson(&mut rng, rate * 60.0) as f64;
                if count > 0.0 {
                    store.record(spec.template.id, from + m, count);
                }
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_base, ScenarioConfig};
    use crate::inject::{inject, AnomalyKind};
    use pinsql_collector::TemplateCatalog;

    #[test]
    fn history_covers_lookback_windows() {
        let cfg = ScenarioConfig::default().with_seed(11);
        let base = generate_base(&cfg);
        let origin = 100_000i64;
        let window_min = cfg.window_s / 60;
        let store =
            synthesize_history(&base.workload, origin, window_min, &[1, 3, 7], 11, None);
        let catalog = TemplateCatalog::from_specs(&base.workload.specs);
        let id = catalog.id_of_spec(pinsql_workload::SpecId(0));
        for d in [1i64, 3, 7] {
            let from = origin - d * 1440;
            let w = store.window_filled(id, from, from + window_min);
            assert!(w.iter().sum::<f64>() > 0.0, "day {d} must have traffic");
        }
        // Nothing outside the look-back windows.
        let w = store.window_filled(id, origin, origin + window_min);
        assert_eq!(w.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn injected_templates_have_no_history() {
        let cfg = ScenarioConfig::default().with_seed(12);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::PoorSql);
        let origin = 100_000i64;
        let store = synthesize_history(
            &s.base_workload,
            origin,
            cfg.window_s / 60,
            &[1, 3, 7],
            12,
            None,
        );
        let catalog = TemplateCatalog::from_specs(&s.workload.specs);
        let injected = catalog.id_of_spec(s.truth_rsql_specs[0]);
        for d in [1i64, 3, 7] {
            let from = origin - d * 1440;
            let w = store.window_filled(injected, from, from + cfg.window_s / 60);
            assert_eq!(w.iter().sum::<f64>(), 0.0);
        }
    }

    #[test]
    fn replay_puts_the_anomaly_into_history() {
        let cfg = ScenarioConfig::default().with_seed(13);
        let base = generate_base(&cfg);
        let s = inject(&base, &cfg, AnomalyKind::BusinessSpike);
        let origin = 100_000i64;
        let window_min = cfg.window_s / 60;
        let store = synthesize_history(
            &s.base_workload,
            origin,
            window_min,
            &[1, 3, 7],
            13,
            Some((&s.workload, &[3])),
        );
        let catalog = TemplateCatalog::from_specs(&s.workload.specs);
        let injected = catalog.id_of_spec(s.truth_rsql_specs[0]);
        let anom_min = cfg.anomaly_start / 60;
        // Day 3 replays the spike; day 1 does not.
        let d3 = store.window_filled(injected, origin - 3 * 1440, origin - 3 * 1440 + window_min);
        let d1 = store.window_filled(injected, origin - 1440, origin - 1440 + window_min);
        assert!(d3[anom_min as usize + 1] > 0.0);
        assert_eq!(d1.iter().sum::<f64>(), 0.0);
    }
}
