//! Arrival-rate patterns and rate events.
//!
//! Root-API traffic is a non-homogeneous Poisson process: a base rate
//! modulated by a diurnal sinusoid and multiplicative noise, further scaled
//! by [`RateEvent`]s — the instrument used to inject the paper's
//! category-1 anomalies (business scenario change / QPS sudden increase).

use crate::rng::Rng;

/// The time shape of a rate event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventShape {
    /// Full multiplier over the whole window (a level shift while active).
    Step,
    /// Linear ramp from 1× at the window start to the multiplier at the end.
    RampUp,
    /// Triangular spike peaking mid-window.
    Spike,
}

/// A multiplicative rate modifier over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEvent {
    pub start: i64,
    pub end: i64,
    pub multiplier: f64,
    pub shape: EventShape,
}

impl RateEvent {
    /// The factor this event applies at time `t` (1.0 outside the window).
    pub fn factor(&self, t: i64) -> f64 {
        if t < self.start || t >= self.end || self.end <= self.start {
            return 1.0;
        }
        let span = (self.end - self.start) as f64;
        let frac = (t - self.start) as f64 / span;
        match self.shape {
            EventShape::Step => self.multiplier,
            EventShape::RampUp => 1.0 + (self.multiplier - 1.0) * frac,
            EventShape::Spike => {
                // triangular: 1 → multiplier at midpoint → 1
                let tri = 1.0 - (2.0 * frac - 1.0).abs();
                1.0 + (self.multiplier - 1.0) * tri
            }
        }
    }
}

/// A root API's arrival-rate pattern (invocations per second).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPattern {
    /// Base invocations per second.
    pub base_rate: f64,
    /// Relative amplitude of the diurnal sinusoid in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of the sinusoid in seconds (86 400 for a true day; scenarios
    /// use shorter periods so tests see variation quickly).
    pub period_s: f64,
    /// Phase offset in seconds.
    pub phase_s: f64,
    /// Standard deviation of multiplicative per-second noise.
    pub noise: f64,
    /// Rate events (spikes, ramps, steps).
    pub events: Vec<RateEvent>,
}

impl TrafficPattern {
    /// A steady pattern with mild noise and no diurnal variation.
    pub fn steady(base_rate: f64) -> Self {
        Self {
            base_rate,
            diurnal_amplitude: 0.0,
            period_s: 86_400.0,
            phase_s: 0.0,
            noise: 0.03,
            events: Vec::new(),
        }
    }

    /// A diurnal pattern: `base · (1 + a · sin(2π (t+phase)/period))`.
    pub fn diurnal(base_rate: f64, amplitude: f64, period_s: f64, phase_s: f64) -> Self {
        Self {
            base_rate,
            diurnal_amplitude: amplitude,
            period_s,
            phase_s,
            noise: 0.03,
            events: Vec::new(),
        }
    }

    /// Adds an event (builder style).
    pub fn with_event(mut self, event: RateEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the noise level (builder style).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// The *mean* rate at time `t` (noise excluded).
    pub fn mean_rate(&self, t: i64) -> f64 {
        let diurnal = 1.0
            + self.diurnal_amplitude
                * (std::f64::consts::TAU * (t as f64 + self.phase_s) / self.period_s).sin();
        let event_factor: f64 = self.events.iter().map(|e| e.factor(t)).product();
        (self.base_rate * diurnal * event_factor).max(0.0)
    }

    /// Samples the realized rate at `t`: mean rate with multiplicative
    /// Gaussian noise, clamped at zero.
    pub fn sample_rate(&self, t: i64, rng: &mut impl Rng) -> f64 {
        let mean = self.mean_rate(t);
        if self.noise <= 0.0 {
            return mean;
        }
        let noise = 1.0 + self.noise * crate::rng::standard_normal(rng);
        (mean * noise).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn steady_pattern_is_flat() {
        let p = TrafficPattern::steady(50.0);
        assert_eq!(p.mean_rate(0), 50.0);
        assert_eq!(p.mean_rate(10_000), 50.0);
    }

    #[test]
    fn diurnal_oscillates_around_base() {
        let p = TrafficPattern::diurnal(100.0, 0.5, 1000.0, 0.0);
        assert!((p.mean_rate(0) - 100.0).abs() < 1e-9);
        assert!((p.mean_rate(250) - 150.0).abs() < 1e-9); // sin peak
        assert!((p.mean_rate(750) - 50.0).abs() < 1e-9); // sin trough
    }

    #[test]
    fn step_event_multiplies_inside_window() {
        let p = TrafficPattern::steady(10.0).with_event(RateEvent {
            start: 100,
            end: 200,
            multiplier: 3.0,
            shape: EventShape::Step,
        });
        assert_eq!(p.mean_rate(99), 10.0);
        assert_eq!(p.mean_rate(100), 30.0);
        assert_eq!(p.mean_rate(199), 30.0);
        assert_eq!(p.mean_rate(200), 10.0);
    }

    #[test]
    fn ramp_event_grows_linearly() {
        let e = RateEvent { start: 0, end: 100, multiplier: 5.0, shape: EventShape::RampUp };
        assert!((e.factor(0) - 1.0).abs() < 1e-9);
        assert!((e.factor(50) - 3.0).abs() < 1e-9);
        assert!((e.factor(99) - 4.96).abs() < 0.01);
    }

    #[test]
    fn spike_event_peaks_mid_window() {
        let e = RateEvent { start: 0, end: 100, multiplier: 9.0, shape: EventShape::Spike };
        assert!((e.factor(50) - 9.0).abs() < 1e-9);
        assert!(e.factor(10) < e.factor(30));
        assert!(e.factor(90) < e.factor(70));
        assert_eq!(e.factor(100), 1.0);
        assert_eq!(e.factor(-1), 1.0);
    }

    #[test]
    fn degenerate_event_window_is_identity() {
        let e = RateEvent { start: 100, end: 100, multiplier: 9.0, shape: EventShape::Step };
        assert_eq!(e.factor(100), 1.0);
    }

    #[test]
    fn overlapping_events_compose_multiplicatively() {
        let p = TrafficPattern::steady(10.0)
            .with_event(RateEvent { start: 0, end: 100, multiplier: 2.0, shape: EventShape::Step })
            .with_event(RateEvent { start: 50, end: 150, multiplier: 3.0, shape: EventShape::Step });
        assert_eq!(p.mean_rate(25), 20.0);
        assert_eq!(p.mean_rate(75), 60.0);
        assert_eq!(p.mean_rate(125), 30.0);
    }

    #[test]
    fn sampled_rate_is_nonnegative_and_centred() {
        let p = TrafficPattern::steady(20.0).with_noise(0.1);
        let mut rng = rng_from_seed(13);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let r = p.sample_rate(0, &mut rng);
            assert!(r >= 0.0);
            sum += r;
        }
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn zero_noise_sample_equals_mean() {
        let p = TrafficPattern::steady(20.0).with_noise(0.0);
        let mut rng = rng_from_seed(14);
        assert_eq!(p.sample_rate(5, &mut rng), 20.0);
    }
}
