//! Elastic CDN pool autoscaling.
//!
//! The paper provisions the CDN as a *static* bounded outbound pool
//! (`C_cdn_obw = 6000 Mbps`). Under time-varying churn — flash-crowd
//! kickoffs, diurnal audience waves — a static pool is either saturated
//! at the peak (rejecting joins) or bleeding money at the trough
//! (provisioned Mbps-hours nobody uses). This module adds the control
//! side of an elastic pool:
//!
//! * [`AutoscalePolicy`] — a target-utilisation band with min/max
//!   capacity bounds, a capacity step per action, and independent
//!   scale-up/scale-down cooldowns;
//! * [`Autoscaler`] — the stateful controller: one control step,
//!   [`Autoscaler::tick`], scores its due forecasts, feeds its demand
//!   EWMAs and evaluates the policy against the pool, emitting
//!   [`ScaleDecision`]s which the owner applies with
//!   [`crate::Cdn::apply_scale_slot`]. [`Autoscaler::per_slot`] builds
//!   one controller per pool slot.
//!
//! The controller is deliberately deterministic and side-effect free —
//! decisions are pure functions of `(policy, pool state, last action
//! times)`, so two sessions with identical event timelines autoscale
//! identically.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use telecast_net::{Bandwidth, CapacityAccount};
use telecast_sim::{SimDuration, SimTime};

use crate::{split_capacity, PoolScope};

/// Direction of one scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDirection {
    /// Capacity was added to the pool.
    Up,
    /// Capacity was removed from the pool.
    Down,
}

/// One scaling action decided by the [`Autoscaler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleDecision {
    /// Whether this grows or shrinks the pool.
    pub direction: ScaleDirection,
    /// Pool capacity before the action.
    pub from: Bandwidth,
    /// Pool capacity after the action.
    pub to: Bandwidth,
}

/// The target-utilisation autoscaling policy.
///
/// The pool is resized to keep utilisation inside
/// `[low_watermark, high_watermark]`: a tick observing utilisation above
/// the high watermark scales up by [`AutoscalePolicy::step`] (clamped to
/// `max`), one observing utilisation below the low watermark scales down
/// by the same step (clamped to `min` and to the currently reserved
/// amount). Cooldowns rate-limit each direction independently so the
/// controller neither thrashes on a spike nor collapses the pool during
/// a short lull.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Period between autoscale evaluations (the engine tick).
    pub period: SimDuration,
    /// Scale down when utilisation falls below this fraction.
    pub low_watermark: f64,
    /// Scale up when utilisation rises above this fraction.
    pub high_watermark: f64,
    /// Smallest pool the controller will shrink to.
    pub min: Bandwidth,
    /// Largest pool the controller will grow to.
    pub max: Bandwidth,
    /// Capacity added or removed per action.
    pub step: Bandwidth,
    /// Minimum virtual time between two scale-ups.
    pub up_cooldown: SimDuration,
    /// Minimum virtual time between two scale-downs.
    pub down_cooldown: SimDuration,
}

impl Default for AutoscalePolicy {
    /// A conservative band: evaluate every 15 s, keep utilisation in
    /// `[0.50, 0.85]`, move in 1000 Mbps steps between 1000 Mbps and
    /// 100 Gbps, with a 30 s up- and 120 s down-cooldown (scale up fast,
    /// scale down slowly — the classic asymmetry).
    fn default() -> Self {
        AutoscalePolicy {
            period: SimDuration::from_secs(15),
            low_watermark: 0.50,
            high_watermark: 0.85,
            min: Bandwidth::from_mbps(1_000),
            max: Bandwidth::from_mbps(100_000),
            step: Bandwidth::from_mbps(1_000),
            up_cooldown: SimDuration::from_secs(30),
            down_cooldown: SimDuration::from_secs(120),
        }
    }
}

impl AutoscalePolicy {
    /// A policy sized for a pool that starts at `initial`: min = initial,
    /// max = `ceiling`, step = a quarter of the initial pool (at least
    /// 250 Mbps) so under-provisioned starts recover in a few ticks.
    pub fn for_pool(initial: Bandwidth, ceiling: Bandwidth) -> Self {
        let quarter = Bandwidth::from_kbps(initial.as_kbps() / 4);
        let step = quarter.max(Bandwidth::from_mbps(250));
        AutoscalePolicy {
            min: initial,
            max: ceiling.max(initial),
            step,
            ..AutoscalePolicy::default()
        }
    }

    /// Splits this policy into per-slot policies under `scope`: the
    /// policy itself for [`PoolScope::Global`], or one per region with
    /// `min`/`max`/`step` divided by the same region weights as the pool
    /// capacity (see [`crate::split_capacity`]). A 5%-share region of a
    /// small step would round to dust, so each slot's quantum is floored
    /// at a quarter of that slot's own `min` (the
    /// [`AutoscalePolicy::for_pool`] heuristic) and at 1 Mbps so a
    /// zero-share split still validates. Watermarks, period and
    /// cooldowns are inherited unchanged — each slot's controller owns
    /// its own clocks.
    pub fn split(&self, scope: PoolScope) -> Vec<AutoscalePolicy> {
        if matches!(scope, PoolScope::Global) {
            return vec![*self];
        }
        let mins = split_capacity(self.min, scope);
        let maxs = split_capacity(self.max, scope);
        let steps = split_capacity(self.step, scope);
        mins.iter()
            .enumerate()
            .map(|(slot, &min)| {
                let step_floor =
                    Bandwidth::from_kbps(min.as_kbps() / 4).max(Bandwidth::from_mbps(1));
                AutoscalePolicy {
                    min,
                    max: maxs[slot].max(min),
                    step: steps[slot].max(step_floor),
                    ..*self
                }
            })
            .collect()
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.is_zero() {
            return Err("autoscale period must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.low_watermark) || !(0.0..=1.0).contains(&self.high_watermark)
        {
            return Err(format!(
                "watermarks out of [0, 1]: low {} high {}",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.low_watermark >= self.high_watermark {
            return Err(format!(
                "low watermark {} must be below high watermark {}",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.min > self.max {
            return Err(format!(
                "min capacity {} exceeds max capacity {}",
                self.min, self.max
            ));
        }
        if self.step.is_zero() {
            return Err("scale step must be positive".into());
        }
        Ok(())
    }
}

/// The predictive extension of an [`AutoscalePolicy`]: instead of
/// reacting to the utilisation band alone, the controller provisions for
/// a short-horizon *demand forecast*,
///
/// ```text
/// forecast(t) = used(t) + horizon · (trend(t) + inflow(t) · (phase_ratio − 1))
/// ```
///
/// where `trend` is an EWMA of the observed *net* demand drift (how fast
/// the pool's reserved Mbps is moving — the stock the standing audience
/// integrates), `inflow` an EWMA of the observed *fresh arrival* demand
/// rate (the flow the churn profile modulates; both fed at each
/// [`Autoscaler::tick`]), and `phase_ratio` the session's
/// arrival-rate profile looked up `horizon` ahead relative to its value
/// a short lag ago (see
/// `telecast_media::RateProfile::forecast_ratio_lagged`). In steady
/// state (flat trend, `phase_ratio ≈ 1`) the forecast is just the
/// current demand — no standing over-provision; under audience growth
/// the trend term leads the demand instead of lagging a step behind it;
/// ahead of a spike the `(ratio − 1)` surge term grows the pool
/// *before* the first rejected join, and ahead of a trough it releases
/// early. The pool is steered toward `forecast / target_utilisation`,
/// moving up to [`PREDICTIVE_MAX_UP_STEPS`] steps per decision upward
/// (several times the reactive climb rate, without betting the whole
/// ceiling on one noisy observation) and directly to the target
/// downward — never below the headroom today's demand needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictivePolicy {
    /// How far ahead demand is forecast. Should cover at least one
    /// policy period plus the scale-up cooldown so the pool is grown
    /// before the forecast materialises.
    pub horizon: SimDuration,
    /// EWMA smoothing factor for the observed arrival demand, in
    /// `(0, 1]` — higher weighs recent ticks more.
    pub alpha: f64,
    /// Utilisation the forecast demand is provisioned at (the point
    /// inside the reactive band the pool is steered to), in `(0, 1]`.
    pub target_utilisation: f64,
}

/// Most steps one predictive scale-up may jump at once.
pub const PREDICTIVE_MAX_UP_STEPS: u64 = 3;

impl Default for PredictivePolicy {
    /// Forecast 90 s ahead, EWMA α = 0.3, provision the forecast at 70%
    /// utilisation.
    fn default() -> Self {
        PredictivePolicy {
            horizon: SimDuration::from_secs(90),
            alpha: 0.3,
            target_utilisation: 0.70,
        }
    }
}

impl PredictivePolicy {
    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon.is_zero() {
            return Err("predictive horizon must be positive".into());
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("predictive alpha out of (0, 1]: {}", self.alpha));
        }
        if !(self.target_utilisation.is_finite()
            && self.target_utilisation > 0.0
            && self.target_utilisation <= 1.0)
        {
            return Err(format!(
                "predictive target utilisation out of (0, 1]: {}",
                self.target_utilisation
            ));
        }
        Ok(())
    }
}

/// The stateful autoscale controller: policy plus per-direction cooldown
/// bookkeeping, action counters and the forecaster's per-slot state.
/// Every regional pool gets its *own* instance — the cooldown
/// timestamps live here, so one region's scale-up never silences
/// another region's (a shared controller would gate all regions on
/// whichever scaled last).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    predictive: Option<PredictivePolicy>,
    /// EWMA of observed fresh arrival demand, Mbps per second.
    ewma_demand: f64,
    /// EWMA of the observed net drift of reserved pool demand, Mbps per
    /// second (positive while the audience grows).
    ewma_trend: f64,
    last_up: Option<SimTime>,
    last_down: Option<SimTime>,
    ups: u64,
    downs: u64,
    /// The pool's reserved Kbps at the previous tick — the finite
    /// difference behind the demand-trend EWMA.
    prev_used_kbps: u64,
    /// Issued-but-not-yet-due forecasts, `(due, forecast Mbps)` in issue
    /// order, scored against the realised demand once due.
    pending_forecasts: VecDeque<(SimTime, f64)>,
}

impl Autoscaler {
    /// Creates a reactive (utilisation-band) controller for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`AutoscalePolicy::validate`]).
    pub fn new(policy: AutoscalePolicy) -> Self {
        if let Err(msg) = policy.validate() {
            panic!("invalid autoscale policy: {msg}");
        }
        Autoscaler {
            policy,
            predictive: None,
            ewma_demand: 0.0,
            ewma_trend: 0.0,
            last_up: None,
            last_down: None,
            ups: 0,
            downs: 0,
            prev_used_kbps: 0,
            pending_forecasts: VecDeque::new(),
        }
    }

    /// Creates a predictive controller: `policy` still supplies the
    /// bounds, step quantum, period and cooldowns; `predictive` drives
    /// the forecast-based target (see [`PredictivePolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if either policy is invalid.
    pub fn predictive(policy: AutoscalePolicy, predictive: PredictivePolicy) -> Self {
        if let Err(msg) = predictive.validate() {
            panic!("invalid predictive policy: {msg}");
        }
        Autoscaler {
            predictive: Some(predictive),
            ..Autoscaler::new(policy)
        }
    }

    /// Builds the controllers for `pool_slots` pool slots under `scope`:
    /// none without a `policy`, one on `policy` itself for a single
    /// slot, or one per regional pool with the policy split by the
    /// region weights (see [`AutoscalePolicy::split`]). Each is
    /// predictive when `predictive` is set, and each owns its clocks.
    pub fn per_slot(
        policy: Option<AutoscalePolicy>,
        predictive: Option<PredictivePolicy>,
        scope: PoolScope,
        pool_slots: usize,
    ) -> Vec<Autoscaler> {
        let Some(policy) = policy else {
            return Vec::new();
        };
        let scope = if pool_slots == 1 {
            PoolScope::Global
        } else {
            scope
        };
        policy
            .split(scope)
            .into_iter()
            .map(|slot_policy| match predictive {
                Some(predictive) => Autoscaler::predictive(slot_policy, predictive),
                None => Autoscaler::new(slot_policy),
            })
            .collect()
    }

    /// Whether this controller scales on a demand forecast rather than
    /// the utilisation band alone.
    pub fn is_predictive(&self) -> bool {
        self.predictive.is_some()
    }

    /// The predictive extension, when configured.
    pub fn predictive_policy(&self) -> Option<&PredictivePolicy> {
        self.predictive.as_ref()
    }

    /// Feeds one tick's observations into the forecaster's EWMAs:
    /// `inflow_mbps_per_sec` is the fresh arrival demand (Mbps of new
    /// stream requests per second since the last tick), and
    /// `trend_mbps_per_sec` the net drift of the pool's reserved demand
    /// over the same window. No-op on reactive controllers.
    fn observe_demand(&mut self, inflow_mbps_per_sec: f64, trend_mbps_per_sec: f64) {
        if let Some(pred) = self.predictive {
            self.ewma_demand =
                pred.alpha * inflow_mbps_per_sec + (1.0 - pred.alpha) * self.ewma_demand;
            self.ewma_trend =
                pred.alpha * trend_mbps_per_sec + (1.0 - pred.alpha) * self.ewma_trend;
        }
    }

    /// The current EWMA of observed arrival demand, Mbps per second.
    pub fn demand_rate(&self) -> f64 {
        self.ewma_demand
    }

    /// The current EWMA of the net reserved-demand drift, Mbps per
    /// second.
    pub fn demand_trend(&self) -> f64 {
        self.ewma_trend
    }

    /// The policy in effect.
    pub fn policy(&self) -> &AutoscalePolicy {
        &self.policy
    }

    /// Scale-up actions taken so far.
    pub fn scale_ups(&self) -> u64 {
        self.ups
    }

    /// Scale-down actions taken so far.
    pub fn scale_downs(&self) -> u64 {
        self.downs
    }

    /// One control step on `pool` at virtual time `now`, run every
    /// `period` by the owner:
    ///
    /// 1. scores each forecast that has come due against the demand
    ///    reserved now, handing `forecast − realised` Mbps to
    ///    `on_scored` in issue order;
    /// 2. feeds the EWMAs with `fresh_kbps`, the fresh arrival demand
    ///    observed since the last tick, and with the drift of the
    ///    reserved demand since the last tick;
    /// 3. evaluates the policy — on the demand forecast at
    ///    `phase_ratio`, queueing that forecast for scoring, or on the
    ///    utilisation band for a reactive controller, which ignores
    ///    `fresh_kbps` and issues no forecast.
    ///
    /// The caller applies the returned decision to the pool.
    pub fn tick(
        &mut self,
        now: SimTime,
        pool: &CapacityAccount,
        fresh_kbps: u64,
        period: SimDuration,
        phase_ratio: f64,
        mut on_scored: impl FnMut(f64),
    ) -> Option<ScaleDecision> {
        let used_mbps = pool.used().as_mbps_f64();
        while let Some(&(due, forecast_mbps)) = self.pending_forecasts.front() {
            if due > now {
                break;
            }
            self.pending_forecasts.pop_front();
            on_scored(forecast_mbps - used_mbps);
        }
        let period_secs = period.as_secs_f64();
        let used_kbps = pool.used().as_kbps();
        let prev_kbps = std::mem::replace(&mut self.prev_used_kbps, used_kbps);
        self.observe_demand(
            fresh_kbps as f64 / 1_000.0 / period_secs,
            (used_kbps as f64 - prev_kbps as f64) / 1_000.0 / period_secs,
        );
        self.evaluate_predictive(now, pool, phase_ratio)
    }

    /// Evaluates the policy against `pool` at virtual time `now` and, if
    /// a resize is warranted (band violated, bounds allow movement,
    /// cooldown elapsed), records the action and returns it. The caller
    /// applies the returned decision to the pool.
    fn evaluate(&mut self, now: SimTime, pool: &CapacityAccount) -> Option<ScaleDecision> {
        let p = &self.policy;
        let total = pool.total();
        let util = pool.utilisation();
        if util > p.high_watermark && total < p.max && self.cooled(self.last_up, p.up_cooldown, now)
        {
            let to = (total + p.step).min(p.max);
            self.last_up = Some(now);
            self.ups += 1;
            return Some(ScaleDecision {
                direction: ScaleDirection::Up,
                from: total,
                to,
            });
        }
        if util < p.low_watermark
            && total > p.min
            && self.cooled(self.last_down, p.down_cooldown, now)
        {
            // Never shrink below the reserved amount, and leave the pool
            // at the high watermark at most so the shrink itself does not
            // immediately re-trigger a scale-up.
            let floor = pool.used().max(p.min);
            let to = total.saturating_sub(p.step).max(floor);
            if to < total {
                self.last_down = Some(now);
                self.downs += 1;
                return Some(ScaleDecision {
                    direction: ScaleDirection::Down,
                    from: total,
                    to,
                });
            }
        }
        None
    }

    /// Evaluates the *predictive* policy against `pool` at virtual time
    /// `now` and queues the forecast for scoring. `phase_ratio` is the
    /// arrival-rate profile's multiplier at `now + horizon` relative to
    /// now (1.0 when no profile is known). Falls back to
    /// [`Autoscaler::evaluate`] on reactive controllers.
    ///
    /// Unlike the reactive step walk, a predictive decision moves the
    /// pool *directly* to the forecast target (quantised to step
    /// multiples above `min`, clamped to the policy bounds), in either
    /// direction, still rate-limited by the per-direction cooldowns.
    fn evaluate_predictive(
        &mut self,
        now: SimTime,
        pool: &CapacityAccount,
        phase_ratio: f64,
    ) -> Option<ScaleDecision> {
        let Some(pred) = self.predictive else {
            return self.evaluate(now, pool);
        };
        let p = self.policy;
        let used = pool.used().as_mbps_f64();
        // The surge term: the demand drift already underway plus the
        // scheduled change of the arrival flow over the horizon (the
        // steady-state flow itself is balanced by departures).
        let surge = pred.horizon.as_secs_f64()
            * (self.ewma_trend + self.ewma_demand * (phase_ratio.max(0.0) - 1.0));
        self.pending_forecasts
            .push_back((now + pred.horizon, (used + surge).max(0.0)));
        let target_mbps = {
            let raw = (used + surge).max(0.0) / pred.target_utilisation;
            let min = p.min.as_mbps_f64();
            let step = p.step.as_mbps_f64();
            let stepped = if raw <= min {
                min
            } else {
                min + ((raw - min) / step).ceil() * step
            };
            stepped.clamp(min, p.max.as_mbps_f64())
        };
        let target = Bandwidth::from_kbps((target_mbps * 1_000.0).round() as u64);
        let total = pool.total();
        // A confident forecast still moves in bounded jumps upward.
        let target = target.min(total + p.step * PREDICTIVE_MAX_UP_STEPS);
        if target > total && self.cooled(self.last_up, p.up_cooldown, now) {
            self.last_up = Some(now);
            self.ups += 1;
            return Some(ScaleDecision {
                direction: ScaleDirection::Up,
                from: total,
                to: target,
            });
        }
        // Downward moves carry a two-step deadband: a one-step dip in
        // the forecast is noise more often than a lull, and a release
        // that has to be re-bought a tick later costs both money and
        // (briefly) headroom.
        if target + p.step * 2 <= total && self.cooled(self.last_down, p.down_cooldown, now) {
            // An anticipated lull never strips the *current* demand of
            // its headroom — release only what today's load does not
            // need, and let the rest follow `used` down. Shrinking to
            // exactly `used` would reject the very next arrival.
            let floor = Bandwidth::from_kbps(
                (pool.used().as_mbps_f64() / pred.target_utilisation * 1_000.0).round() as u64,
            );
            let to = target.max(floor).max(p.min);
            if to < total {
                self.last_down = Some(now);
                self.downs += 1;
                return Some(ScaleDecision {
                    direction: ScaleDirection::Down,
                    from: total,
                    to,
                });
            }
        }
        None
    }

    fn cooled(&self, last: Option<SimTime>, cooldown: SimDuration, now: SimTime) -> bool {
        match last {
            None => true,
            Some(at) => now.saturating_since(at) >= cooldown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(total_mbps: u64, used_mbps: u64) -> CapacityAccount {
        let mut acct = CapacityAccount::new(Bandwidth::from_mbps(total_mbps));
        acct.reserve(Bandwidth::from_mbps(used_mbps)).expect("fits");
        acct
    }

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            period: SimDuration::from_secs(10),
            low_watermark: 0.5,
            high_watermark: 0.85,
            min: Bandwidth::from_mbps(1_000),
            max: Bandwidth::from_mbps(4_000),
            step: Bandwidth::from_mbps(1_000),
            up_cooldown: SimDuration::from_secs(30),
            down_cooldown: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn scales_up_above_the_band() {
        let mut scaler = Autoscaler::new(policy());
        let d = scaler
            .evaluate(SimTime::from_secs(10), &pool(1_000, 950))
            .expect("above high watermark");
        assert_eq!(d.direction, ScaleDirection::Up);
        assert_eq!(d.to, Bandwidth::from_mbps(2_000));
        assert_eq!(scaler.scale_ups(), 1);
    }

    #[test]
    fn respects_the_max_bound_and_up_cooldown() {
        let mut scaler = Autoscaler::new(policy());
        assert!(scaler
            .evaluate(SimTime::from_secs(10), &pool(1_000, 950))
            .is_some());
        // Cooldown: 10 s later nothing happens despite saturation.
        assert!(scaler
            .evaluate(SimTime::from_secs(20), &pool(2_000, 1_950))
            .is_none());
        // After the cooldown the next step lands, clamped at max.
        let d = scaler
            .evaluate(SimTime::from_secs(40), &pool(3_500, 3_400))
            .expect("cooled down");
        assert_eq!(d.to, Bandwidth::from_mbps(4_000));
        // At max: no further ups.
        assert!(scaler
            .evaluate(SimTime::from_secs(80), &pool(4_000, 3_999))
            .is_none());
    }

    #[test]
    fn scales_down_below_the_band_with_its_own_cooldown() {
        let mut scaler = Autoscaler::new(policy());
        let d = scaler
            .evaluate(SimTime::from_secs(10), &pool(4_000, 100))
            .expect("below low watermark");
        assert_eq!(d.direction, ScaleDirection::Down);
        assert_eq!(d.to, Bandwidth::from_mbps(3_000));
        // Down-cooldown (60 s) still running: no action.
        assert!(scaler
            .evaluate(SimTime::from_secs(40), &pool(3_000, 100))
            .is_none());
        let d = scaler
            .evaluate(SimTime::from_secs(80), &pool(3_000, 100))
            .expect("down-cooldown elapsed");
        assert_eq!(d.to, Bandwidth::from_mbps(2_000));
        assert_eq!(scaler.scale_downs(), 2);
    }

    #[test]
    fn never_shrinks_below_min_or_used() {
        // Below the low watermark but already at min: no action.
        let mut scaler = Autoscaler::new(policy());
        assert!(scaler
            .evaluate(SimTime::from_secs(10), &pool(1_000, 10))
            .is_none());
        // A big step is floored by the reserved amount, not by min.
        let mut big_step = policy();
        big_step.step = Bandwidth::from_mbps(3_000);
        let mut scaler = Autoscaler::new(big_step);
        let d = scaler
            .evaluate(SimTime::from_secs(10), &pool(4_000, 1_500))
            .expect("util 0.375 below the low watermark");
        assert_eq!(d.to, Bandwidth::from_mbps(1_500));
    }

    #[test]
    fn quiet_inside_the_band() {
        let mut scaler = Autoscaler::new(policy());
        assert!(scaler
            .evaluate(SimTime::from_secs(10), &pool(2_000, 1_400))
            .is_none());
        assert_eq!(scaler.scale_ups() + scaler.scale_downs(), 0);
    }

    #[test]
    fn for_pool_sizes_the_step_to_the_start() {
        let p =
            AutoscalePolicy::for_pool(Bandwidth::from_mbps(8_000), Bandwidth::from_mbps(20_000));
        assert_eq!(p.min, Bandwidth::from_mbps(8_000));
        assert_eq!(p.max, Bandwidth::from_mbps(20_000));
        assert_eq!(p.step, Bandwidth::from_mbps(2_000));
        assert!(p.validate().is_ok());
        // Tiny pools still move in useful steps.
        let p = AutoscalePolicy::for_pool(Bandwidth::from_mbps(100), Bandwidth::from_mbps(5_000));
        assert_eq!(p.step, Bandwidth::from_mbps(250));
    }

    #[test]
    fn predictive_prescales_on_the_forecast_despite_low_utilisation() {
        let pred = PredictivePolicy {
            horizon: SimDuration::from_secs(60),
            alpha: 1.0,
            target_utilisation: 0.5,
        };
        let mut scaler = Autoscaler::predictive(
            AutoscalePolicy {
                max: Bandwidth::from_mbps(10_000),
                ..policy()
            },
            pred,
        );
        // Utilisation 0.4 — the reactive band would scale *down*. The
        // forecast (10 Mbps/s of fresh demand, a 5× spike one horizon
        // ahead) steers the pool up instead, several steps at once.
        scaler.observe_demand(10.0, 0.0);
        let d = scaler
            .evaluate_predictive(SimTime::from_secs(10), &pool(1_000, 400), 5.0)
            .expect("forecast exceeds the pool");
        assert_eq!(d.direction, ScaleDirection::Up);
        // Surge 10·60·(5−1) = 2400 over used 400 at 50% target → 5600,
        // quantised to 6000, capped at 3 steps above the pool → 4000.
        assert_eq!(d.to, Bandwidth::from_mbps(4_000));
        assert_eq!(scaler.scale_ups(), 1);
    }

    #[test]
    fn predictive_holds_steady_state_without_over_provisioning() {
        let pred = PredictivePolicy {
            horizon: SimDuration::from_secs(60),
            alpha: 1.0,
            target_utilisation: 0.8,
        };
        let mut scaler = Autoscaler::predictive(
            AutoscalePolicy {
                max: Bandwidth::from_mbps(10_000),
                ..policy()
            },
            pred,
        );
        // Steady state: arrivals flow but the phase ratio is 1, so the
        // surge term vanishes — a pool sitting at the target utilisation
        // is left alone in both directions.
        scaler.observe_demand(25.0, 0.0);
        assert!(scaler
            .evaluate_predictive(SimTime::from_secs(10), &pool(2_000, 1_500), 1.0)
            .is_none());
    }

    #[test]
    fn predictive_releases_capacity_when_the_forecast_falls() {
        let pred = PredictivePolicy {
            horizon: SimDuration::from_secs(60),
            alpha: 1.0,
            target_utilisation: 0.5,
        };
        let mut scaler = Autoscaler::predictive(
            AutoscalePolicy {
                max: Bandwidth::from_mbps(10_000),
                ..policy()
            },
            pred,
        );
        scaler.observe_demand(0.0, 0.0);
        // 7000 Mbps provisioned, 400 used, no inflow: the target drops
        // to min in one decision instead of one step per cooldown.
        let d = scaler
            .evaluate_predictive(SimTime::from_secs(10), &pool(7_000, 400), 1.0)
            .expect("forecast far below the pool");
        assert_eq!(d.direction, ScaleDirection::Down);
        assert_eq!(d.to, Bandwidth::from_mbps(1_000));
    }

    #[test]
    fn predictive_still_respects_cooldowns_and_bounds() {
        let pred = PredictivePolicy {
            horizon: SimDuration::from_secs(60),
            alpha: 1.0,
            target_utilisation: 0.5,
        };
        let mut scaler = Autoscaler::predictive(policy(), pred);
        scaler.observe_demand(50.0, 0.0);
        // Target would be huge; clamped at max (4000).
        let d = scaler
            .evaluate_predictive(SimTime::from_secs(10), &pool(1_000, 900), 2.0)
            .expect("scale up");
        assert_eq!(d.to, Bandwidth::from_mbps(4_000));
        // Up-cooldown (30 s) still gates the next action.
        assert!(scaler
            .evaluate_predictive(SimTime::from_secs(20), &pool(1_000, 900), 2.0)
            .is_none());
    }

    #[test]
    fn reactive_controllers_ignore_demand_observations() {
        let mut scaler = Autoscaler::new(policy());
        scaler.observe_demand(1_000.0, 500.0);
        assert_eq!(scaler.demand_rate(), 0.0);
        assert!(!scaler.is_predictive());
        // evaluate_predictive falls back to the reactive band.
        assert!(scaler
            .evaluate_predictive(SimTime::from_secs(10), &pool(2_000, 1_400), 9.0)
            .is_none());
    }

    fn ticking(horizon_secs: u64) -> Autoscaler {
        let pred = PredictivePolicy {
            horizon: SimDuration::from_secs(horizon_secs),
            alpha: 1.0,
            target_utilisation: 0.5,
        };
        Autoscaler::predictive(
            AutoscalePolicy {
                max: Bandwidth::from_mbps(10_000),
                ..policy()
            },
            pred,
        )
    }

    /// Ticks `scaler` at `secs` on a pool reserving `used_mbps` with no
    /// fresh demand, returning the errors it scored.
    fn tick_at(scaler: &mut Autoscaler, secs: u64, used_mbps: u64) -> Vec<f64> {
        let mut scored = Vec::new();
        scaler.tick(
            SimTime::from_secs(secs),
            &pool(4_000, used_mbps),
            0,
            SimDuration::from_secs(10),
            1.0,
            |error| scored.push(error),
        );
        scored
    }

    #[test]
    fn tick_scores_forecasts_once_due_in_issue_order() {
        let mut scaler = ticking(20);
        // With a flat phase the forecast is used + horizon · trend:
        // 400 + 20·40 = 1200 due at 30 s, then 600 + 20·20 = 1000 due
        // at 40 s.
        assert!(tick_at(&mut scaler, 10, 400).is_empty());
        assert!(tick_at(&mut scaler, 20, 600).is_empty());
        // Both mature by 40 s (a forecast due exactly now counts) and
        // score against the demand realised then, oldest first.
        assert_eq!(tick_at(&mut scaler, 40, 500), vec![700.0, 500.0]);
        // The 40 s forecast is due at 60 s, not yet.
        assert!(tick_at(&mut scaler, 50, 500).is_empty());
        assert_eq!(scaler.pending_forecasts.len(), 2);
    }

    #[test]
    fn tick_trends_on_the_previous_ticks_reserved_demand() {
        let mut scaler = ticking(60);
        let tick = |scaler: &mut Autoscaler, secs, used_mbps, fresh_kbps| {
            scaler.tick(
                SimTime::from_secs(secs),
                &pool(4_000, used_mbps),
                fresh_kbps,
                SimDuration::from_secs(10),
                1.0,
                |_| {},
            );
        };
        tick(&mut scaler, 10, 400, 50_000);
        tick(&mut scaler, 20, 600, 0);
        // α = 1: the trend is this tick's finite difference against the
        // previous tick's 400 Mbps, the inflow this tick's fresh demand.
        assert_eq!(scaler.demand_trend(), 20.0);
        assert_eq!(scaler.demand_rate(), 0.0);
        tick(&mut scaler, 30, 300, 50_000);
        assert_eq!(scaler.demand_trend(), -30.0);
        assert_eq!(scaler.demand_rate(), 5.0);
    }

    #[test]
    fn reactive_tick_ignores_fresh_demand_and_queues_no_forecast() {
        let mut ticked = Autoscaler::new(policy());
        let mut evaluated = Autoscaler::new(policy());
        for (secs, used_mbps) in [(10, 950), (20, 100), (90, 100), (200, 3_900)] {
            let pool = pool(4_000, used_mbps);
            let now = SimTime::from_secs(secs);
            let decision = ticked.tick(now, &pool, 1_000_000, policy().period, 9.0, |_| {
                panic!("a reactive controller scored a forecast")
            });
            assert_eq!(decision, evaluated.evaluate(now, &pool));
        }
        assert_eq!(ticked.demand_rate(), 0.0);
        assert!(ticked.pending_forecasts.is_empty());
    }

    #[test]
    fn regional_instances_keep_independent_cooldown_clocks() {
        // One controller per regional pool: region A scaling up at t=10
        // must not start region B's cooldown. (A shared controller — the
        // pre-region-split bug this guards against — would return None
        // for B at t=12.)
        let mut a = Autoscaler::new(policy());
        let mut b = Autoscaler::new(policy());
        assert!(a
            .evaluate(SimTime::from_secs(10), &pool(1_000, 950))
            .is_some());
        assert!(
            b.evaluate(SimTime::from_secs(12), &pool(1_000, 980))
                .is_some(),
            "region B's fresh controller was gated by region A's cooldown"
        );
        // And A itself is still cooling.
        assert!(a
            .evaluate(SimTime::from_secs(12), &pool(2_000, 1_990))
            .is_none());
    }

    #[test]
    fn predictive_validation_catches_bad_parameters() {
        assert!(PredictivePolicy::default().validate().is_ok());
        let p = PredictivePolicy {
            alpha: 0.0,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().contains("alpha"));
        let p = PredictivePolicy {
            horizon: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().contains("horizon"));
        let p = PredictivePolicy {
            target_utilisation: 1.5,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().contains("utilisation"));
    }

    #[test]
    fn validation_catches_bad_policies() {
        let mut p = policy();
        p.low_watermark = 0.9;
        assert!(p.validate().unwrap_err().contains("below high"));
        let mut p = policy();
        p.step = Bandwidth::ZERO;
        assert!(p.validate().unwrap_err().contains("step"));
        let mut p = policy();
        p.min = Bandwidth::from_mbps(10_000);
        assert!(p.validate().unwrap_err().contains("exceeds max"));
        let mut p = policy();
        p.period = SimDuration::ZERO;
        assert!(p.validate().unwrap_err().contains("period"));
    }

    #[test]
    fn split_global_is_identity() {
        let p = AutoscalePolicy::default();
        assert_eq!(p.split(PoolScope::Global), vec![p]);
    }

    #[test]
    fn split_per_region_mirrors_capacity_split() {
        let p = AutoscalePolicy {
            min: Bandwidth::from_mbps(10_000),
            max: Bandwidth::from_mbps(80_000),
            step: Bandwidth::from_mbps(2_000),
            ..AutoscalePolicy::default()
        };
        let slots = p.split(PoolScope::PerRegion);
        let mins = split_capacity(p.min, PoolScope::PerRegion);
        assert_eq!(slots.len(), mins.len());
        for (slot, policy) in slots.iter().enumerate() {
            assert_eq!(policy.min, mins[slot]);
            assert!(policy.max >= policy.min);
            assert!(policy.validate().is_ok(), "slot {slot} invalid");
            // Inherited knobs are untouched.
            assert_eq!(policy.period, p.period);
            assert_eq!(policy.high_watermark, p.high_watermark);
        }
        // The shares sum back to the whole.
        let total: u64 = slots.iter().map(|s| s.min.as_kbps()).sum();
        assert_eq!(total, p.min.as_kbps());
    }

    #[test]
    fn split_floors_dust_steps() {
        // A tiny step would round a 5%-share region's quantum to dust;
        // the floor keeps every slot's policy valid and useful.
        let p = AutoscalePolicy {
            min: Bandwidth::from_mbps(100),
            max: Bandwidth::from_mbps(1_000),
            step: Bandwidth::from_mbps(4),
            ..AutoscalePolicy::default()
        };
        for slot in p.split(PoolScope::PerRegion) {
            assert!(slot.step >= Bandwidth::from_mbps(1));
            assert!(slot.validate().is_ok());
        }
    }
}
