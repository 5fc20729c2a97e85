//! Virtual time for the discrete-event engine.
//!
//! All 4D TeleCast quantities are delays (Δ = 60 s, `dmax` = 65 s, `dbuff` =
//! 300 ms, PlanetLab RTTs of a few ms), so time is kept as an unsigned count
//! of **microseconds** — fine enough for sub-millisecond propagation delays
//! and wide enough (u64) for centuries of virtual time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant of virtual time, measured in microseconds since simulation
/// start.
///
/// `SimTime` is an absolute point on the simulation clock; the corresponding
/// span type is [`SimDuration`]. Arithmetic between the two behaves like
/// `std::time::Instant`/`Duration`:
///
/// ```
/// use telecast_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 250_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(250));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// ```
/// use telecast_sim::SimDuration;
///
/// let d = SimDuration::from_millis(300) / 2;
/// assert_eq!(d, SimDuration::from_millis(150));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Span from `earlier` to `self`, or [`SimDuration::ZERO`] if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from a fractional number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1_000_000.0).round() as u64)
    }

    /// Span length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Span length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if the sum overflows `u64` microseconds —
    /// a saturated clock would silently freeze a runaway scheduling loop
    /// at `SimTime::MAX` instead of surfacing the bug. Release builds
    /// keep the saturating behaviour.
    fn add(self, rhs: SimDuration) -> SimTime {
        if cfg!(debug_assertions) {
            SimTime(
                self.0
                    .checked_add(rhs.0)
                    .expect("SimTime + SimDuration overflowed the virtual clock"),
            )
        } else {
            SimTime(self.0.saturating_add(rhs.0))
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds on overflow, like `SimTime + SimDuration`;
    /// saturates in release builds.
    fn add(self, rhs: SimDuration) -> SimDuration {
        if cfg!(debug_assertions) {
            SimDuration(
                self.0
                    .checked_add(rhs.0)
                    .expect("SimDuration + SimDuration overflowed"),
            )
        } else {
            SimDuration(self.0.saturating_add(rhs.0))
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Integer number of times `rhs` fits in `self` (floor division);
    /// this is exactly the layer-index computation of the paper's Eq. 1.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(60).as_millis(), 60_000);
    }

    #[test]
    fn instant_plus_span_round_trips() {
        let t = SimTime::from_millis(100) + SimDuration::from_millis(50);
        assert_eq!(t, SimTime::from_millis(150));
        assert_eq!(t - SimTime::from_millis(100), SimDuration::from_millis(50));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(10));
    }

    #[test]
    fn duration_division_is_layer_arithmetic() {
        // Eq. 1 shape: floor((d - Δ) / τ) with dbuff=300ms, κ=2 → τ=150ms.
        let tau = SimDuration::from_millis(150);
        assert_eq!(SimDuration::from_millis(0) / tau, 0);
        assert_eq!(SimDuration::from_millis(149) / tau, 0);
        assert_eq!(SimDuration::from_millis(150) / tau, 1);
        assert_eq!(SimDuration::from_millis(449) / tau, 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_millis(1) - SimDuration::from_millis(2);
    }

    /// Regression: a runaway scheduling loop used to freeze the clock at
    /// `u64::MAX` silently; debug builds must fail loudly instead.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "overflowed the virtual clock")
    )]
    fn instant_overflow_is_loud_in_debug() {
        let t = SimTime::MAX + SimDuration::from_micros(1);
        // Release builds saturate (the sentinel stays usable there).
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "SimDuration + SimDuration overflowed")
    )]
    fn duration_overflow_is_loud_in_debug() {
        let d = SimDuration::MAX + SimDuration::from_micros(1);
        assert_eq!(d, SimDuration::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
