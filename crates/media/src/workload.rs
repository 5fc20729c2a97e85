//! Viewer workload generators: arrivals, view popularity, view changes and
//! departures — the "dynamic viewer behavior" of the paper's challenge (3).

use serde::{Deserialize, Serialize};
use telecast_sim::{SimDuration, SimRng, SimTime};

use crate::popularity::{RefocusEvent, ViewPopularity};
use crate::view::ViewId;

/// How viewers arrive over virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// All viewers arrive at the same instant (the paper's "large-scale
    /// simultaneous viewer arrivals").
    Flash,
    /// One viewer every `gap`; deterministic ramp.
    Staggered {
        /// Gap between consecutive arrivals.
        gap: SimDuration,
    },
    /// Poisson arrivals with the given mean inter-arrival time.
    Poisson {
        /// Mean inter-arrival time.
        mean_gap: SimDuration,
    },
}

impl ArrivalModel {
    /// Draws the arrival instants for `count` viewers starting at `from`,
    /// in non-decreasing order.
    pub fn arrivals(&self, count: usize, from: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
        match *self {
            ArrivalModel::Flash => vec![from; count],
            ArrivalModel::Staggered { gap } => (0..count).map(|i| from + gap * i as u64).collect(),
            ArrivalModel::Poisson { mean_gap } => {
                let mut t = from;
                (0..count)
                    .map(|_| {
                        t += SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
                        t
                    })
                    .collect()
            }
        }
    }
}

/// How viewers pick views from the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ViewChoice {
    /// All viewers request the same view (maximum overlay sharing).
    Single(ViewId),
    /// Uniform choice over the catalog.
    Uniform,
    /// Zipf-distributed popularity with exponent `s` (rank 0 = the most
    /// popular view); models the skew of real audiences.
    Zipf {
        /// Zipf exponent; 0 degenerates to uniform.
        s: f64,
    },
}

impl ViewChoice {
    /// Draws one view from a catalog of `catalog_len` views.
    ///
    /// # Panics
    ///
    /// Panics if `catalog_len` is zero.
    pub fn sample(&self, catalog_len: usize, rng: &mut SimRng) -> ViewId {
        assert!(catalog_len > 0, "cannot choose from an empty catalog");
        match *self {
            ViewChoice::Single(v) => {
                assert!(v.index() < catalog_len, "view outside catalog");
                v
            }
            ViewChoice::Uniform => ViewId::new(rng.range(0..catalog_len as u32)),
            ViewChoice::Zipf { s } => ViewId::new(rng.zipf(catalog_len, s) as u32),
        }
    }

    /// Draws a view *different from* `current` (a view change target);
    /// falls back to `current` only for single-view catalogs.
    pub fn sample_change(&self, catalog_len: usize, current: ViewId, rng: &mut SimRng) -> ViewId {
        if catalog_len <= 1 {
            return current;
        }
        loop {
            let next = match *self {
                // Single-view choice has nowhere to go; hop uniformly.
                ViewChoice::Single(_) => ViewId::new(rng.range(0..catalog_len as u32)),
                _ => self.sample(catalog_len, rng),
            };
            if next != current {
                return next;
            }
        }
    }
}

/// One scripted viewer-behaviour event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadEvent {
    /// Viewer `viewer` joins requesting `view`.
    Join {
        /// Workload-local viewer index.
        viewer: usize,
        /// Requested view.
        view: ViewId,
    },
    /// Viewer switches to `view`.
    ViewChange {
        /// Workload-local viewer index.
        viewer: usize,
        /// The new view.
        view: ViewId,
    },
    /// Viewer leaves the session gracefully.
    Depart {
        /// Workload-local viewer index.
        viewer: usize,
    },
}

/// A fully-scripted viewer workload: a time-ordered list of joins, view
/// changes and departures, generated up front so experiments are
/// reproducible and schemes can be compared on identical inputs.
///
/// ```
/// use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
/// use telecast_sim::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let wl = ViewerWorkload::builder(100, 8)
///     .arrivals(ArrivalModel::Flash)
///     .view_choice(ViewChoice::Zipf { s: 1.0 })
///     .build(&mut rng);
/// assert_eq!(wl.events().len(), 100); // joins only by default
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewerWorkload {
    events: Vec<(SimTime, WorkloadEvent)>,
    viewer_count: usize,
}

impl ViewerWorkload {
    /// Starts building a workload of `viewers` viewers over a catalog of
    /// `catalog_len` views.
    pub fn builder(viewers: usize, catalog_len: usize) -> ViewerWorkloadBuilder {
        ViewerWorkloadBuilder {
            viewers,
            catalog_len,
            arrivals: ArrivalModel::Flash,
            view_choice: ViewChoice::Uniform,
            start: SimTime::ZERO,
            view_changes_per_viewer: 0.0,
            view_change_window: SimDuration::from_secs(60),
            departure_fraction: 0.0,
            departure_window: SimDuration::from_secs(60),
            refocus: Vec::new(),
        }
    }

    /// The scripted events in non-decreasing time order.
    pub fn events(&self) -> &[(SimTime, WorkloadEvent)] {
        &self.events
    }

    /// Number of distinct viewers in the script.
    pub fn viewer_count(&self) -> usize {
        self.viewer_count
    }
}

/// Builder for [`ViewerWorkload`].
#[derive(Debug, Clone)]
pub struct ViewerWorkloadBuilder {
    viewers: usize,
    catalog_len: usize,
    arrivals: ArrivalModel,
    view_choice: ViewChoice,
    start: SimTime,
    view_changes_per_viewer: f64,
    view_change_window: SimDuration,
    departure_fraction: f64,
    departure_window: SimDuration,
    refocus: Vec<RefocusEvent>,
}

impl ViewerWorkloadBuilder {
    /// Sets the arrival model (default: flash crowd).
    pub fn arrivals(mut self, model: ArrivalModel) -> Self {
        self.arrivals = model;
        self
    }

    /// Sets the view-choice model (default: uniform).
    pub fn view_choice(mut self, choice: ViewChoice) -> Self {
        self.view_choice = choice;
        self
    }

    /// Sets the first arrival instant (default: time zero).
    pub fn start(mut self, at: SimTime) -> Self {
        self.start = at;
        self
    }

    /// Schedules on average `per_viewer` view changes per viewer, spread
    /// uniformly over `window` after each viewer's join.
    pub fn view_changes(mut self, per_viewer: f64, window: SimDuration) -> Self {
        self.view_changes_per_viewer = per_viewer;
        self.view_change_window = window;
        self
    }

    /// Makes `fraction` of viewers depart, at a uniform instant within
    /// `window` after their join.
    ///
    /// # Panics
    ///
    /// `build` panics if the fraction is outside `[0, 1]`.
    pub fn departures(mut self, fraction: f64, window: SimDuration) -> Self {
        self.departure_fraction = fraction;
        self.departure_window = window;
        self
    }

    /// Installs an audience-level [`ViewPopularity`]: the Zipf exponent
    /// replaces the view-choice model and the re-focus schedule is
    /// adopted wholesale (see [`ViewerWorkloadBuilder::refocus`]).
    ///
    /// # Panics
    ///
    /// `build` panics if any re-focus target lies outside the catalog.
    pub fn popularity(mut self, popularity: &ViewPopularity) -> Self {
        self.view_choice = popularity.choice();
        self.refocus = popularity.refocus_events().to_vec();
        self
    }

    /// Appends one correlated re-focus event: `event.fraction` of the
    /// audience hops to `event.target`, each participating viewer at an
    /// independent uniform instant inside `event.window` after
    /// `event.at`. Hops scheduled before a viewer's arrival are dropped;
    /// a viewer already watching the target stays put (no event). An
    /// empty schedule consumes **zero** extra RNG draws, so pre-existing
    /// workload seeds replay byte-identically.
    pub fn refocus(mut self, event: RefocusEvent) -> Self {
        self.refocus.push(event);
        self
    }

    /// Generates the scripted workload.
    ///
    /// Each viewer's individual Zipf re-picks and the correlated re-focus
    /// hops merge into one time-ordered chain per viewer, so a Zipf
    /// change after a re-focus hops away *from the re-focus target* — the
    /// drift that empties the storm view again and makes its tree worth
    /// pruning.
    ///
    /// # Panics
    ///
    /// Panics if the departure fraction is outside `[0, 1]`, the catalog
    /// is empty while viewers exist, or a re-focus event is invalid or
    /// targets a view outside the catalog.
    pub fn build(self, rng: &mut SimRng) -> ViewerWorkload {
        assert!(
            (0.0..=1.0).contains(&self.departure_fraction),
            "departure fraction out of range"
        );
        for event in &self.refocus {
            if let Err(err) = event.validate() {
                panic!("invalid refocus event: {err}");
            }
            assert!(
                event.target.index() < self.catalog_len,
                "refocus target {} outside catalog of {} views",
                event.target,
                self.catalog_len
            );
        }
        let mut events: Vec<(SimTime, WorkloadEvent)> = Vec::new();
        let arrivals = self.arrivals.arrivals(self.viewers, self.start, rng);
        for (viewer, &at) in arrivals.iter().enumerate() {
            let view = self.view_choice.sample(self.catalog_len, rng);
            events.push((at, WorkloadEvent::Join { viewer, view }));

            let changes = poisson_count(self.view_changes_per_viewer, rng);
            // `None` marks an individual Zipf re-pick (target drawn at
            // emission so it chains off the then-current view); `Some` a
            // correlated re-focus hop with its target fixed up front.
            let mut hops: Vec<(SimTime, Option<ViewId>)> = (0..changes)
                .map(|_| (at + jitter(self.view_change_window, rng), None))
                .collect();
            for event in &self.refocus {
                if rng.chance(event.fraction) {
                    let t = event.at + jitter(event.window, rng);
                    // Hops scheduled before this viewer arrives are lost.
                    if t >= at {
                        hops.push((t, Some(event.target)));
                    }
                }
            }
            hops.sort_unstable_by_key(|&(t, target)| (t, target.is_some(), target));
            let mut current = view;
            for (t, target) in hops {
                let next = match target {
                    Some(target) => target,
                    None => self
                        .view_choice
                        .sample_change(self.catalog_len, current, rng),
                };
                if next == current {
                    // Already watching the re-focus target: no event.
                    continue;
                }
                current = next;
                events.push((
                    t,
                    WorkloadEvent::ViewChange {
                        viewer,
                        view: current,
                    },
                ));
            }

            if rng.chance(self.departure_fraction) {
                let t = at + jitter(self.departure_window, rng);
                events.push((t, WorkloadEvent::Depart { viewer }));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        ViewerWorkload {
            events,
            viewer_count: self.viewers,
        }
    }
}

/// A continuous-churn model: Poisson arrivals, lognormal dwell times and
/// a fraction of abrupt failures — the sustained-membership counterpart
/// of the one-shot [`ViewerWorkload`] scripts.
///
/// `telecast::TelecastSession::start_churn` replays the spec live
/// through the discrete-event engine: each arrival is drawn when the
/// previous one fires, so sustained 100k+ populations never materialise
/// a script, and rejected viewers can retry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Mean gap between Poisson arrivals (the *base* rate; see
    /// [`ChurnSpec::rate_profile`]).
    pub mean_arrival_gap: SimDuration,
    /// Mean of the lognormal dwell (connected) time.
    pub mean_dwell: SimDuration,
    /// σ of the underlying normal of the dwell distribution.
    pub dwell_sigma: f64,
    /// Fraction of leavers that fail abruptly instead of departing
    /// gracefully.
    pub fail_fraction: f64,
    /// How arriving viewers pick views.
    pub view_choice: ViewChoice,
    /// How the arrival rate varies over virtual time: constant (the
    /// original homogeneous process, byte-identical draws for existing
    /// seeds) or a sinusoidal diurnal wave with optional flash spikes —
    /// sampled by thinning (see [`crate::RateProfile`]).
    pub rate_profile: crate::RateProfile,
}

impl ChurnSpec {
    /// A steady-state spec for `population` viewers with
    /// `churn_per_minute` of them leaving (and, in equilibrium, joining)
    /// each minute: mean dwell `1 / churn_per_minute` minutes, arrival
    /// gap `mean_dwell / population` (Little's law).
    ///
    /// # Panics
    ///
    /// Panics if `population` is zero or `churn_per_minute` is not in
    /// `(0, 1]`.
    pub fn steady_state(population: usize, churn_per_minute: f64) -> Self {
        assert!(population > 0, "churn over an empty population");
        assert!(
            churn_per_minute > 0.0 && churn_per_minute <= 1.0,
            "churn_per_minute out of (0, 1]: {churn_per_minute}"
        );
        let mean_dwell = SimDuration::from_secs_f64(60.0 / churn_per_minute);
        let mean_arrival_gap =
            SimDuration::from_secs_f64(mean_dwell.as_secs_f64() / population as f64);
        ChurnSpec {
            mean_arrival_gap,
            mean_dwell,
            dwell_sigma: 1.0,
            fail_fraction: 0.1,
            view_choice: ViewChoice::Zipf { s: 0.8 },
            rate_profile: crate::RateProfile::Constant,
        }
    }

    /// Sets the fraction of leavers that fail abruptly.
    pub fn with_fail_fraction(mut self, fraction: f64) -> Self {
        self.fail_fraction = fraction;
        self
    }

    /// Sets the time-varying arrival-rate profile.
    pub fn with_rate_profile(mut self, profile: crate::RateProfile) -> Self {
        self.rate_profile = profile;
        self
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_arrival_gap.is_zero() {
            return Err("mean_arrival_gap must be positive".into());
        }
        if self.mean_dwell.is_zero() {
            return Err("mean_dwell must be positive".into());
        }
        if !self.dwell_sigma.is_finite() || self.dwell_sigma < 0.0 {
            return Err(format!("dwell_sigma invalid: {}", self.dwell_sigma));
        }
        if !(0.0..=1.0).contains(&self.fail_fraction) {
            return Err(format!(
                "fail_fraction out of [0, 1]: {}",
                self.fail_fraction
            ));
        }
        self.rate_profile.validate()?;
        Ok(())
    }

    /// Draws the next arrival instant after `from` under the spec's rate
    /// profile; `None` once it lands past `horizon`. The constant
    /// profile consumes exactly one exponential draw (the original
    /// stream), so existing seeds replay byte-identically.
    pub fn sample_next_arrival(
        &self,
        from: SimTime,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        self.rate_profile
            .sample_next_arrival(self.mean_arrival_gap, from, horizon, rng)
    }

    /// Draws one viewer's dwell (connected) time.
    pub fn sample_dwell(&self, rng: &mut SimRng) -> SimDuration {
        if self.dwell_sigma == 0.0 {
            return self.mean_dwell;
        }
        SimDuration::from_secs_f64(
            rng.lognormal_with_mean(self.mean_dwell.as_secs_f64(), self.dwell_sigma),
        )
    }

    /// Draws whether a leave is an abrupt failure.
    pub fn sample_fail(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.fail_fraction)
    }
}

/// Samples a Poisson count with the given mean (inversion; means here are
/// tiny so the linear scan is fine).
fn poisson_count(mean: f64, rng: &mut SimRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut product = rng.unit();
    let mut count = 0;
    while product > limit {
        product *= rng.unit();
        count += 1;
    }
    count
}

fn jitter(window: SimDuration, rng: &mut SimRng) -> SimDuration {
    if window.is_zero() {
        SimDuration::ZERO
    } else {
        SimDuration::from_micros(rng.range(0..window.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_arrivals_are_simultaneous() {
        let mut rng = SimRng::seed_from_u64(1);
        let at = ArrivalModel::Flash.arrivals(5, SimTime::from_secs(3), &mut rng);
        assert_eq!(at, vec![SimTime::from_secs(3); 5]);
    }

    #[test]
    fn staggered_arrivals_are_evenly_spaced() {
        let mut rng = SimRng::seed_from_u64(1);
        let at = ArrivalModel::Staggered {
            gap: SimDuration::from_millis(10),
        }
        .arrivals(3, SimTime::ZERO, &mut rng);
        assert_eq!(
            at,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_millis(20)
            ]
        );
    }

    #[test]
    fn poisson_arrivals_are_ordered() {
        let mut rng = SimRng::seed_from_u64(2);
        let at = ArrivalModel::Poisson {
            mean_gap: SimDuration::from_millis(100),
        }
        .arrivals(100, SimTime::ZERO, &mut rng);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at[99] > SimTime::ZERO);
    }

    #[test]
    fn zipf_choice_prefers_rank_zero() {
        let mut rng = SimRng::seed_from_u64(3);
        let choice = ViewChoice::Zipf { s: 1.2 };
        let mut counts = [0usize; 8];
        for _ in 0..8_000 {
            counts[choice.sample(8, &mut rng).index()] += 1;
        }
        assert!(counts[0] > counts[7] * 3);
    }

    #[test]
    fn sample_change_never_returns_current() {
        let mut rng = SimRng::seed_from_u64(4);
        let choice = ViewChoice::Uniform;
        for _ in 0..500 {
            let next = choice.sample_change(8, ViewId::new(3), &mut rng);
            assert_ne!(next, ViewId::new(3));
        }
        // Degenerate single-view catalog: stays put.
        assert_eq!(
            choice.sample_change(1, ViewId::new(0), &mut rng),
            ViewId::new(0)
        );
    }

    #[test]
    fn workload_events_are_time_ordered() {
        let mut rng = SimRng::seed_from_u64(5);
        let wl = ViewerWorkload::builder(200, 8)
            .arrivals(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_millis(50),
            })
            .view_choice(ViewChoice::Zipf { s: 1.0 })
            .view_changes(1.5, SimDuration::from_secs(30))
            .departures(0.2, SimDuration::from_secs(60))
            .build(&mut rng);
        assert!(wl.events().windows(2).all(|w| w[0].0 <= w[1].0));
        let joins = wl
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, WorkloadEvent::Join { .. }))
            .count();
        assert_eq!(joins, 200);
        let changes = wl
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, WorkloadEvent::ViewChange { .. }))
            .count();
        assert!(changes > 100, "expected ~300 view changes, got {changes}");
        let departs = wl
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, WorkloadEvent::Depart { .. }))
            .count();
        assert!(
            (20..=60).contains(&departs),
            "expected ~40 departures, got {departs}"
        );
    }

    #[test]
    fn view_changes_differ_from_previous_view() {
        let mut rng = SimRng::seed_from_u64(6);
        let wl = ViewerWorkload::builder(50, 8)
            .view_changes(2.0, SimDuration::from_secs(10))
            .build(&mut rng);
        // Track each viewer's current view; every change must differ.
        let mut current: std::collections::HashMap<usize, ViewId> = Default::default();
        for (_, ev) in wl.events() {
            match *ev {
                WorkloadEvent::Join { viewer, view } => {
                    current.insert(viewer, view);
                }
                WorkloadEvent::ViewChange { viewer, view } => {
                    assert_ne!(current[&viewer], view);
                    current.insert(viewer, view);
                }
                WorkloadEvent::Depart { .. } => {}
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            ViewerWorkload::builder(100, 8)
                .view_changes(1.0, SimDuration::from_secs(10))
                .departures(0.3, SimDuration::from_secs(20))
                .build(&mut rng)
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
    }

    #[test]
    fn churn_spec_steady_state_matches_littles_law() {
        // 1% per minute over 6000 viewers: mean dwell 100 min, one
        // arrival per second on average.
        let spec = ChurnSpec::steady_state(6_000, 0.01);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.mean_dwell, SimDuration::from_secs(6_000));
        assert_eq!(spec.mean_arrival_gap, SimDuration::from_secs(1));

        let mut rng = SimRng::seed_from_u64(21);
        let n = 20_000;
        let mean_dwell: f64 = (0..n)
            .map(|_| spec.sample_dwell(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_dwell - 6_000.0).abs() / 6_000.0 < 0.05,
            "dwell mean {mean_dwell} far from 6000s"
        );
    }

    #[test]
    fn churn_spec_validation_catches_bad_parameters() {
        let spec = ChurnSpec::steady_state(100, 0.05);
        assert!(spec.with_fail_fraction(1.5).validate().is_err());
        let mut zero_gap = spec;
        zero_gap.mean_arrival_gap = SimDuration::ZERO;
        assert!(zero_gap.validate().is_err());
    }

    #[test]
    fn refocus_events_are_correlated_and_skip_target_watchers() {
        let storm = RefocusEvent {
            at: SimTime::from_secs(30),
            window: SimDuration::from_secs(4),
            target: ViewId::new(7),
            fraction: 1.0,
        };
        let mut rng = SimRng::seed_from_u64(11);
        let wl = ViewerWorkload::builder(300, 8)
            .view_choice(ViewChoice::Zipf { s: 1.1 })
            .refocus(storm)
            .build(&mut rng);
        // With fraction 1.0 every viewer not already on the target hops
        // inside the window.
        let hops: Vec<_> = wl
            .events()
            .iter()
            .filter(|(t, e)| {
                matches!(e, WorkloadEvent::ViewChange { view, .. } if *view == ViewId::new(7))
                    && *t >= SimTime::from_secs(30)
                    && *t <= SimTime::from_secs(34)
            })
            .collect();
        let on_target_at_join = wl
            .events()
            .iter()
            .filter(
                |(_, e)| matches!(e, WorkloadEvent::Join { view, .. } if *view == ViewId::new(7)),
            )
            .count();
        assert_eq!(hops.len() + on_target_at_join, 300);

        // An empty schedule consumes zero extra draws: byte-identical to
        // the pre-refocus builder on the same seed.
        let mut a = SimRng::seed_from_u64(12);
        let mut b = SimRng::seed_from_u64(12);
        let plain = ViewerWorkload::builder(100, 8)
            .view_changes(1.0, SimDuration::from_secs(20))
            .departures(0.3, SimDuration::from_secs(40))
            .build(&mut a);
        let with_empty = ViewerWorkload::builder(100, 8)
            .view_changes(1.0, SimDuration::from_secs(20))
            .departures(0.3, SimDuration::from_secs(40))
            .popularity(&ViewPopularity::zipf(0.0))
            .view_choice(ViewChoice::Uniform)
            .build(&mut b);
        assert_eq!(plain, with_empty);
    }

    #[test]
    #[should_panic(expected = "outside catalog")]
    fn refocus_target_outside_catalog_panics() {
        let mut rng = SimRng::seed_from_u64(1);
        ViewerWorkload::builder(10, 4)
            .refocus(RefocusEvent {
                at: SimTime::ZERO,
                window: SimDuration::ZERO,
                target: ViewId::new(4),
                fraction: 0.5,
            })
            .build(&mut rng);
    }

    #[test]
    fn poisson_count_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 10_000;
        let total: usize = (0..n).map(|_| poisson_count(1.5, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.1, "poisson mean {mean} far from 1.5");
    }
}
