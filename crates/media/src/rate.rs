//! Time-varying arrival-rate profiles for the churn process.
//!
//! The paper's churn counterpart ([`crate::ChurnSpec`]) originally drew
//! arrivals from a *constant-rate* Poisson process. Real audiences are
//! not constant: they follow diurnal waves (the day/night cycle of a
//! global 3DTI broadcast) and flash spikes (a kickoff, a replayed
//! highlight). [`RateProfile`] generalises the arrival process into a
//! non-homogeneous Poisson process whose instantaneous rate is
//! `base_rate × multiplier(t)`, sampled by thinning (Lewis–Shedler):
//! candidate gaps are drawn at the profile's peak rate and accepted with
//! probability `multiplier(t) / max_multiplier`, which reproduces the
//! exact time-varying process without numerical integration.
//!
//! [`RateProfile::Constant`] bypasses thinning entirely and draws one
//! exponential gap per arrival — the *identical* random-stream
//! consumption of the original constant process, so every existing seed
//! replays byte-identically.

use serde::{Deserialize, Serialize};
use telecast_sim::{SimDuration, SimRng, SimTime};

/// Maximum number of spike windows a [`RateProfile::DiurnalSpikes`]
/// profile can hold (a fixed array keeps the profile `Copy`, like the
/// spec that embeds it).
pub const MAX_SPIKE_WINDOWS: usize = 4;

/// One piecewise rate spike: the arrival rate is multiplied by
/// `multiplier` inside `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeWindow {
    /// When the spike begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Rate multiplier inside the window (≥ 0; above 1 is a flash crowd,
    /// below 1 a lull, 0 silences arrivals).
    pub multiplier: f64,
}

impl Default for SpikeWindow {
    fn default() -> Self {
        SpikeWindow {
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
            multiplier: 1.0,
        }
    }
}

impl SpikeWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

/// How the churn arrival rate varies over virtual time, as a
/// dimensionless multiplier on the spec's base rate.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RateProfile {
    /// The original homogeneous process: multiplier 1 forever.
    #[default]
    Constant,
    /// Flash spikes *composed onto* a sinusoidal day/night wave: the
    /// multiplier is `1 + amplitude · sin(2π · (t + phase) / period)`
    /// times the spike windows' (a replayed-highlight burst during the
    /// evening peak multiplies the already-elevated rate). With no
    /// windows the spike factor is exactly 1, leaving the plain diurnal
    /// wave of `diurnal_wave`; `spike_storm` adds the bursts.
    DiurnalSpikes {
        /// Length of one full day/night cycle.
        period: SimDuration,
        /// Wave amplitude in `[0, 1]` — 0 leaves only the spikes, 1
        /// silences the trough completely.
        amplitude: f64,
        /// Phase offset added to `t` before the sine.
        phase: SimDuration,
        /// The spike windows; only the first `active` entries are live.
        windows: [SpikeWindow; MAX_SPIKE_WINDOWS],
        /// Number of live windows.
        active: usize,
    },
}

/// The multiplier contributed by spike windows at `t`: the maximum
/// multiplier among the windows containing `t` (overlapping spikes do
/// not stack — the tallest wins), 1 outside every window. Zero-width
/// windows contain no instant, so they contribute nothing.
fn spike_multiplier(windows: &[SpikeWindow], t: SimTime) -> f64 {
    windows
        .iter()
        .filter(|w| w.contains(t))
        .map(|w| w.multiplier)
        .reduce(f64::max)
        .unwrap_or(1.0)
}

/// The supremum of [`spike_multiplier`] over all `t` (≥ 1: outside every
/// window the multiplier is 1).
fn spike_envelope(windows: &[SpikeWindow]) -> f64 {
    windows
        .iter()
        .filter(|w| !w.duration.is_zero())
        .map(|w| w.multiplier)
        .fold(1.0, f64::max)
}

/// The sinusoidal diurnal multiplier at `t`.
fn diurnal_multiplier(period: SimDuration, amplitude: f64, phase: SimDuration, t: SimTime) -> f64 {
    let cycle = (t + phase).as_micros() % period.as_micros().max(1);
    let angle = cycle as f64 / period.as_micros().max(1) as f64 * std::f64::consts::TAU;
    (1.0 + amplitude * angle.sin()).max(0.0)
}

impl RateProfile {
    /// Spike windows composed onto a diurnal wave that starts at its
    /// trough (the sine's minimum), so a run beginning at `t = 0` ramps
    /// up into the first "day". No windows gives the plain wave; the
    /// `spike_storm` audience adds replayed-highlight bursts.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SPIKE_WINDOWS`] windows are given.
    pub fn diurnal_with_spikes(
        period: SimDuration,
        amplitude: f64,
        windows: &[SpikeWindow],
    ) -> Self {
        let (fixed, active) = pack_windows(windows);
        RateProfile::DiurnalSpikes {
            period,
            amplitude,
            // sin is minimal at 3/4 of the cycle.
            phase: period / 2 + period / 4,
            windows: fixed,
            active,
        }
    }

    /// Whether this is the constant profile (the exponential fast path).
    pub fn is_constant(&self) -> bool {
        matches!(self, RateProfile::Constant)
    }

    /// The rate multiplier at virtual time `t` (≥ 0). Overlapping spike
    /// windows do not stack: the largest containing multiplier wins.
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        match *self {
            RateProfile::Constant => 1.0,
            RateProfile::DiurnalSpikes {
                period,
                amplitude,
                phase,
                windows,
                active,
            } => {
                diurnal_multiplier(period, amplitude, phase, t)
                    * spike_multiplier(&windows[..active], t)
            }
        }
    }

    /// The supremum of [`RateProfile::multiplier_at`] over all `t` — the
    /// thinning envelope rate.
    pub fn max_multiplier(&self) -> f64 {
        match *self {
            RateProfile::Constant => 1.0,
            RateProfile::DiurnalSpikes {
                amplitude,
                windows,
                active,
                ..
            } => (1.0 + amplitude) * spike_envelope(&windows[..active]),
        }
    }

    /// The demand-forecast ratio: the rate multiplier `horizon` ahead of
    /// `now`, relative to the multiplier `lag` before `now`. Above 1 the
    /// audience is about to grow (a spike window opening, the diurnal
    /// wave climbing); below 1 it is about to shrink. The predictive
    /// autoscaler feeds this straight into its scale decision. Clamped
    /// against a vanishing past multiplier so a silent trough does not
    /// produce an infinite ratio.
    ///
    /// A forecaster whose demand observations are EWMA-smoothed
    /// effectively sees the rate of `lag` ago; comparing the future
    /// against that reference keeps the ratio elevated through a spike's
    /// onset (when the rate has already jumped but the smoothed
    /// observations — and the demand itself — have not caught up yet)
    /// instead of collapsing to 1 and releasing capacity into the front
    /// of the burst.
    pub fn forecast_ratio_lagged(
        &self,
        now: SimTime,
        horizon: SimDuration,
        lag: SimDuration,
    ) -> f64 {
        let ahead = self.multiplier_at(now + horizon);
        let here = self.multiplier_at(now - lag).max(1e-3);
        (ahead / here).min(self.max_multiplier().max(1.0))
    }

    /// Validates the profile's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            RateProfile::Constant => Ok(()),
            RateProfile::DiurnalSpikes {
                period,
                amplitude,
                windows,
                active,
                ..
            } => {
                validate_diurnal(period, amplitude)?;
                validate_spikes(&windows, active)
            }
        }
    }

    /// Draws the next arrival of the non-homogeneous Poisson process
    /// with base rate `1 / mean_gap`, starting the search at `from`.
    /// Returns `None` once the (thinned) arrival lands past `horizon`.
    ///
    /// The constant profile draws exactly one exponential gap — the same
    /// random-stream consumption as the original homogeneous process.
    pub fn sample_next_arrival(
        &self,
        mean_gap: SimDuration,
        from: SimTime,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        if self.is_constant() {
            let gap = SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
            let at = from + gap;
            return (at <= horizon).then_some(at);
        }
        // Lewis–Shedler thinning at the envelope rate.
        let envelope = self.max_multiplier();
        debug_assert!(envelope >= 1.0, "multiplier supremum below the base rate");
        let envelope_gap = mean_gap.as_secs_f64() / envelope;
        let mut t = from;
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(envelope_gap));
            if t > horizon {
                return None;
            }
            if rng.unit() < self.multiplier_at(t) / envelope {
                return Some(t);
            }
        }
    }
}

/// Copies `windows` into the fixed-size array a profile embeds.
///
/// # Panics
///
/// Panics if more than [`MAX_SPIKE_WINDOWS`] windows are given.
fn pack_windows(windows: &[SpikeWindow]) -> ([SpikeWindow; MAX_SPIKE_WINDOWS], usize) {
    assert!(
        windows.len() <= MAX_SPIKE_WINDOWS,
        "at most {MAX_SPIKE_WINDOWS} spike windows, got {}",
        windows.len()
    );
    let mut fixed = [SpikeWindow::default(); MAX_SPIKE_WINDOWS];
    fixed[..windows.len()].copy_from_slice(windows);
    (fixed, windows.len())
}

fn validate_diurnal(period: SimDuration, amplitude: f64) -> Result<(), String> {
    if period.is_zero() {
        return Err("diurnal period must be positive".into());
    }
    if !amplitude.is_finite() || !(0.0..=1.0).contains(&amplitude) {
        return Err(format!("diurnal amplitude out of [0, 1]: {amplitude}"));
    }
    Ok(())
}

fn validate_spikes(
    windows: &[SpikeWindow; MAX_SPIKE_WINDOWS],
    active: usize,
) -> Result<(), String> {
    if active > MAX_SPIKE_WINDOWS {
        return Err(format!(
            "{active} spike windows exceed the {MAX_SPIKE_WINDOWS} cap"
        ));
    }
    for w in &windows[..active] {
        if !w.multiplier.is_finite() || w.multiplier < 0.0 {
            return Err(format!("spike multiplier invalid: {}", w.multiplier));
        }
        if w.duration.is_zero() {
            return Err("spike window duration must be positive".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spike windows over a flat baseline: a zero-amplitude wave
    /// contributes exactly 1.
    fn spikes(windows: &[SpikeWindow]) -> RateProfile {
        RateProfile::diurnal_with_spikes(SimDuration::from_secs(86_400), 0.0, windows)
    }

    #[test]
    fn constant_profile_matches_the_plain_exponential_stream() {
        let mean = SimDuration::from_secs(10);
        let horizon = SimTime::from_secs(1_000_000);
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let gap = SimDuration::from_secs_f64(a.exponential(mean.as_secs_f64()));
            let expected = t + gap;
            let got = RateProfile::Constant
                .sample_next_arrival(mean, t, horizon, &mut b)
                .expect("inside horizon");
            assert_eq!(got, expected, "constant path changed the draw sequence");
            t = expected;
        }
    }

    #[test]
    fn diurnal_multiplier_waves_between_trough_and_peak() {
        let p = RateProfile::diurnal_with_spikes(SimDuration::from_secs(86_400), 0.8, &[]);
        assert!(p.validate().is_ok());
        let trough = p.multiplier_at(SimTime::ZERO);
        let peak = p.multiplier_at(SimTime::from_secs(43_200));
        assert!((trough - 0.2).abs() < 1e-6, "trough {trough}");
        assert!((peak - 1.8).abs() < 1e-6, "peak {peak}");
        assert!((p.max_multiplier() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn thinning_tracks_the_diurnal_wave() {
        let p = RateProfile::diurnal_with_spikes(SimDuration::from_secs(1_000), 0.9, &[]);
        let mean = SimDuration::from_secs_f64(0.5);
        let horizon = SimTime::from_secs(10_000);
        let mut rng = SimRng::seed_from_u64(11);
        let mut t = SimTime::ZERO;
        let mut low_half = 0usize; // cycle positions [0, 500): around the trough
        let mut high_half = 0usize; // cycle positions [500, 1000): around the peak
        while let Some(at) = p.sample_next_arrival(mean, t, horizon, &mut rng) {
            // The wave starts at its trough: trough at cycle position 0, peak at
            // position period/2 — compare the quarter-cycles centred on
            // each.
            let cycle_pos = at.as_micros() % 1_000_000_000;
            if (250_000_000..750_000_000).contains(&cycle_pos) {
                high_half += 1;
            } else {
                low_half += 1;
            }
            t = at;
        }
        assert!(
            high_half as f64 > low_half as f64 * 1.5,
            "thinning did not follow the wave: low {low_half} high {high_half}"
        );
    }

    #[test]
    fn spike_windows_multiply_the_rate() {
        let p = spikes(&[
            SpikeWindow {
                start: SimTime::from_secs(100),
                duration: SimDuration::from_secs(50),
                multiplier: 5.0,
            },
            SpikeWindow {
                start: SimTime::from_secs(400),
                duration: SimDuration::from_secs(50),
                multiplier: 0.0,
            },
        ]);
        assert!(p.validate().is_ok());
        assert_eq!(p.multiplier_at(SimTime::from_secs(99)), 1.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(120)), 5.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(150)), 1.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(420)), 0.0);
        assert_eq!(p.max_multiplier(), 5.0);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let p = RateProfile::diurnal_with_spikes(SimDuration::from_secs(600), 0.5, &[]);
        let mean = SimDuration::from_secs(1);
        let horizon = SimTime::from_secs(3_600);
        let draw = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = SimTime::ZERO;
            let mut out = Vec::new();
            while let Some(at) = p.sample_next_arrival(mean, t, horizon, &mut rng) {
                out.push(at);
                t = at;
            }
            out
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    /// Counts arrivals of `p` inside `[from, to)` over one seeded run.
    fn arrivals_in(
        p: &RateProfile,
        seed: u64,
        horizon: SimTime,
        from: SimTime,
        to: SimTime,
    ) -> usize {
        let mean = SimDuration::from_secs_f64(0.25);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut t = SimTime::ZERO;
        let mut count = 0usize;
        while let Some(at) = p.sample_next_arrival(mean, t, horizon, &mut rng) {
            if at >= from && at < to {
                count += 1;
            }
            t = at;
        }
        count
    }

    #[test]
    fn spike_thinning_matches_the_profile_rate_within_tolerance() {
        // A 5× spike over [2000, 3000) on a base rate of 4/s: the
        // empirical arrival rate inside the window must sit near 20/s,
        // the rate outside near 4/s.
        let p = spikes(&[SpikeWindow {
            start: SimTime::from_secs(2_000),
            duration: SimDuration::from_secs(1_000),
            multiplier: 5.0,
        }]);
        let horizon = SimTime::from_secs(4_000);
        let inside = arrivals_in(
            &p,
            23,
            horizon,
            SimTime::from_secs(2_000),
            SimTime::from_secs(3_000),
        );
        let outside = arrivals_in(&p, 23, horizon, SimTime::ZERO, SimTime::from_secs(2_000));
        let inside_rate = inside as f64 / 1_000.0;
        let outside_rate = outside as f64 / 2_000.0;
        assert!(
            (inside_rate - 20.0).abs() / 20.0 < 0.10,
            "in-spike rate {inside_rate}/s should be ≈ 20/s"
        );
        assert!(
            (outside_rate - 4.0).abs() / 4.0 < 0.10,
            "baseline rate {outside_rate}/s should be ≈ 4/s"
        );
    }

    #[test]
    fn spike_sampling_is_seed_deterministic() {
        let p = spikes(&[
            SpikeWindow {
                start: SimTime::from_secs(100),
                duration: SimDuration::from_secs(60),
                multiplier: 6.0,
            },
            SpikeWindow {
                start: SimTime::from_secs(400),
                duration: SimDuration::from_secs(30),
                multiplier: 0.2,
            },
        ]);
        let draw = |seed: u64| {
            let mean = SimDuration::from_secs(1);
            let horizon = SimTime::from_secs(1_000);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = SimTime::ZERO;
            let mut out = Vec::new();
            while let Some(at) = p.sample_next_arrival(mean, t, horizon, &mut rng) {
                out.push(at);
                t = at;
            }
            out
        };
        assert_eq!(draw(31), draw(31));
        assert_ne!(draw(31), draw(32));
    }

    #[test]
    fn overlapping_spikes_take_the_tallest_multiplier() {
        let overlapping = spikes(&[
            SpikeWindow {
                start: SimTime::from_secs(100),
                duration: SimDuration::from_secs(100),
                multiplier: 3.0,
            },
            SpikeWindow {
                start: SimTime::from_secs(150),
                duration: SimDuration::from_secs(100),
                multiplier: 7.0,
            },
        ]);
        assert_eq!(overlapping.multiplier_at(SimTime::from_secs(120)), 3.0);
        assert_eq!(overlapping.multiplier_at(SimTime::from_secs(180)), 7.0);
        assert_eq!(overlapping.multiplier_at(SimTime::from_secs(220)), 7.0);
        assert_eq!(overlapping.max_multiplier(), 7.0);
        // Order independence: the reversed window list composes the same.
        let reversed = spikes(&[
            SpikeWindow {
                start: SimTime::from_secs(150),
                duration: SimDuration::from_secs(100),
                multiplier: 7.0,
            },
            SpikeWindow {
                start: SimTime::from_secs(100),
                duration: SimDuration::from_secs(100),
                multiplier: 3.0,
            },
        ]);
        for secs in [90, 120, 180, 220, 260] {
            let t = SimTime::from_secs(secs);
            assert_eq!(overlapping.multiplier_at(t), reversed.multiplier_at(t));
        }
    }

    #[test]
    fn zero_width_spikes_contain_no_instant_and_fail_validation() {
        let w = SpikeWindow {
            start: SimTime::from_secs(100),
            duration: SimDuration::ZERO,
            multiplier: 9.0,
        };
        assert!(!w.contains(SimTime::from_secs(100)));
        let p = spikes(&[w]);
        // Even unvalidated, a zero-width window never perturbs the rate
        // or inflates the thinning envelope.
        assert_eq!(p.multiplier_at(SimTime::from_secs(100)), 1.0);
        assert_eq!(p.max_multiplier(), 1.0);
        assert!(p.validate().unwrap_err().contains("duration"));
    }

    #[test]
    fn diurnal_spikes_compose_multiplicatively() {
        let day = SimDuration::from_secs(1_000);
        // Peak of the trough-started wave is at period/2.
        let p = RateProfile::diurnal_with_spikes(
            day,
            0.5,
            &[SpikeWindow {
                start: SimTime::from_secs(400),
                duration: SimDuration::from_secs(200),
                multiplier: 4.0,
            }],
        );
        assert!(p.validate().is_ok());
        // At the wave's peak (t = 500) inside the spike: 1.5 × 4.
        assert!((p.multiplier_at(SimTime::from_secs(500)) - 6.0).abs() < 1e-9);
        // At the trough (t = 0), outside the spike: 0.5.
        assert!((p.multiplier_at(SimTime::ZERO) - 0.5).abs() < 1e-9);
        // Envelope covers the worst case.
        assert!((p.max_multiplier() - 6.0).abs() < 1e-12);
        let bad = RateProfile::DiurnalSpikes {
            period: SimDuration::ZERO,
            amplitude: 0.5,
            phase: SimDuration::ZERO,
            windows: [SpikeWindow::default(); MAX_SPIKE_WINDOWS],
            active: 0,
        };
        assert!(bad.validate().unwrap_err().contains("period"));
    }

    #[test]
    fn forecast_ratio_sees_the_spike_coming() {
        let p = spikes(&[SpikeWindow {
            start: SimTime::from_secs(300),
            duration: SimDuration::from_secs(100),
            multiplier: 6.0,
        }]);
        let horizon = SimDuration::from_secs(60);
        // One horizon before the spike opens, the ratio jumps to 6.
        let ratio = |p: &RateProfile, now| p.forecast_ratio_lagged(now, horizon, SimDuration::ZERO);
        assert!((ratio(&p, SimTime::from_secs(250)) - 6.0).abs() < 1e-9);
        // Inside the spike looking past its end, the ratio collapses.
        assert!((ratio(&p, SimTime::from_secs(380)) - 1.0 / 6.0).abs() < 1e-9);
        // Flat profiles forecast no change, and the ratio is capped by
        // the envelope even when the present multiplier vanishes.
        assert_eq!(ratio(&RateProfile::Constant, SimTime::ZERO), 1.0);
        let blackout = spikes(&[SpikeWindow {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(50),
            multiplier: 0.0,
        }]);
        assert!(ratio(&blackout, SimTime::from_secs(10)) <= 1.0);
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let p = RateProfile::diurnal_with_spikes(SimDuration::ZERO, 0.5, &[]);
        assert!(p.validate().unwrap_err().contains("period"));
        let p = RateProfile::diurnal_with_spikes(SimDuration::from_secs(60), 1.5, &[]);
        assert!(p.validate().unwrap_err().contains("amplitude"));
        let p = spikes(&[SpikeWindow {
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
            multiplier: 2.0,
        }]);
        assert!(p.validate().unwrap_err().contains("duration"));
    }

    #[test]
    #[should_panic(expected = "spike windows")]
    fn too_many_spike_windows_panic() {
        let w = SpikeWindow {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            multiplier: 2.0,
        };
        spikes(&[w; MAX_SPIKE_WINDOWS + 1]);
    }
}
