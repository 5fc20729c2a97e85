//! CDN cost accounting: provisioned-capacity pricing.
//!
//! The elastic pool is billed for the outbound capacity it *provisions*,
//! metered in Mbps-hours (the committed-rate model of dedicated CDN
//! contracts), so over-provisioning shows up in dollars even while the
//! pool sits idle.

use serde::{Deserialize, Serialize};
use telecast_net::Bandwidth;
use telecast_sim::SimTime;

/// Meters *provisioned* (not used) outbound capacity over virtual time,
/// in Mbps-hours, and prices it at a committed-rate tariff.
///
/// The meter is driven by the pool owner: every capacity change first
/// [`accrues`](ProvisionedMeter::accrue) the segment since the previous
/// change at the old rate, then records the new rate. Reads are
/// non-mutating and include the in-flight segment, so the bill at any
/// instant is exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProvisionedMeter {
    dollars_per_mbps_hour: f64,
    current: Bandwidth,
    since: SimTime,
    accrued_mbps_hours: f64,
}

impl ProvisionedMeter {
    /// Starts metering `capacity` at virtual time zero.
    ///
    /// # Panics
    ///
    /// Panics if the tariff is negative or not finite.
    pub fn new(dollars_per_mbps_hour: f64, capacity: Bandwidth) -> Self {
        assert!(
            dollars_per_mbps_hour.is_finite() && dollars_per_mbps_hour >= 0.0,
            "invalid tariff: {dollars_per_mbps_hour}"
        );
        ProvisionedMeter {
            dollars_per_mbps_hour,
            current: capacity,
            since: SimTime::ZERO,
            accrued_mbps_hours: 0.0,
        }
    }

    /// Closes the running segment at `now` and switches the metered rate
    /// to `capacity`. Call this *before* applying a pool resize.
    pub fn accrue(&mut self, now: SimTime, capacity: Bandwidth) {
        self.accrued_mbps_hours += self.segment_mbps_hours(now);
        self.since = now.max(self.since);
        self.current = capacity;
    }

    /// Mbps-hours accrued up to `now`, including the running segment.
    pub fn mbps_hours_at(&self, now: SimTime) -> f64 {
        self.accrued_mbps_hours + self.segment_mbps_hours(now)
    }

    /// Provisioned-capacity dollars accrued up to `now`.
    pub fn dollars_at(&self, now: SimTime) -> f64 {
        self.mbps_hours_at(now) * self.dollars_per_mbps_hour
    }

    fn segment_mbps_hours(&self, now: SimTime) -> f64 {
        let hours = now.saturating_since(self.since).as_secs_f64() / 3_600.0;
        self.current.as_mbps_f64() * hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_price_is_free() {
        let meter = ProvisionedMeter::new(0.0, Bandwidth::from_mbps(6_000));
        assert_eq!(meter.dollars_at(SimTime::from_secs(3_600)), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid tariff")]
    fn negative_price_panics() {
        ProvisionedMeter::new(-1.0, Bandwidth::ZERO);
    }

    #[test]
    fn provisioned_meter_accrues_across_capacity_changes() {
        // 1000 Mbps for 1 hour, then 2000 Mbps for 30 minutes.
        let mut meter = ProvisionedMeter::new(0.03, Bandwidth::from_mbps(1_000));
        meter.accrue(SimTime::from_secs(3_600), Bandwidth::from_mbps(2_000));
        let at = SimTime::from_secs(3_600 + 1_800);
        assert!((meter.mbps_hours_at(at) - 2_000.0).abs() < 1e-9);
        assert!((meter.dollars_at(at) - 60.0).abs() < 1e-9);
        // The running segment bills at the new rate.
        let later = SimTime::from_secs(2 * 3_600);
        assert!((meter.mbps_hours_at(later) - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn provisioned_meter_reads_are_non_mutating() {
        let meter = ProvisionedMeter::new(0.1, Bandwidth::from_mbps(100));
        let at = SimTime::from_secs(7_200);
        assert!((meter.mbps_hours_at(at) - 200.0).abs() < 1e-9);
        assert!((meter.mbps_hours_at(at) - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid tariff")]
    fn negative_tariff_panics() {
        ProvisionedMeter::new(f64::NAN, Bandwidth::ZERO);
    }
}
