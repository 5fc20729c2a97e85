//! The output check: a 64-bit digest of every simulated statistic a
//! workload reads. A speed-up of the simulator must leave it unchanged;
//! so must tracing, repetition and the worker-thread count.

use telecast::{SessionMetrics, TelecastSession};
use telecast_sim::{Histogram, TimeSeries};

/// An order-sensitive 64-bit hash over words (FxHash-style mixing with a
/// final avalanche), identical on every platform.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Default for Digest {
    fn default() -> Self {
        Digest(0x4D_7E1E_CA57)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Folds a histogram in: its length, then every sample in record
    /// order.
    pub fn histogram(&mut self, h: &Histogram) {
        self.u64(h.len() as u64);
        for &v in h.samples() {
            self.f64(v);
        }
    }

    /// Folds a time series in: its length, then every point.
    pub fn series(&mut self, s: &TimeSeries) {
        self.u64(s.len() as u64);
        for &(at, v) in s.points() {
            self.u64(at.as_micros());
            self.f64(v);
        }
    }

    /// Folds in every counter, histogram and series of `m`.
    pub fn metrics(&mut self, m: &SessionMetrics) {
        for c in [
            &m.requested_streams,
            &m.accepted_streams,
            &m.admitted_viewers,
            &m.rejected_viewers,
            &m.switch_starved,
            &m.wasted_subtree_kbps_ms,
            &m.fragments_merged,
            &m.groups_retired,
            &m.prune_reclaimed_kbps,
            &m.subscription_messages,
            &m.displacements,
            &m.layer_drops,
            &m.victims,
            &m.victims_repositioned,
            &m.resync_cap_hits,
            &m.churn_arrivals,
            &m.churn_departures,
            &m.churn_failures,
            &m.autoscale_ups,
            &m.autoscale_downs,
            &m.join_retries,
            &m.spill_requests,
            &m.spill_admits,
            &m.spill_releases,
        ] {
            self.u64(c.value());
        }
        for h in [
            &m.join_delays_ms,
            &m.view_change_delays_ms,
            &m.switch_latency_ms,
        ] {
            self.histogram(h);
        }
        for s in [
            &m.cdn_usage_mbps,
            &m.provisioned_cdn_mbps,
            &m.cdn_utilisation,
            &m.population,
        ] {
            self.series(s);
        }
        for group in [&m.provisioned_by_slot, &m.forecast_error_by_slot] {
            self.u64(group.len() as u64);
            for s in group {
                self.series(s);
            }
        }
        self.u64(m.peak_event_queue);
        self.u64(m.peak_retry_queue);
    }

    /// Folds in a session's metrics and the overlay and engine totals the
    /// workloads read from it.
    pub fn session(&mut self, s: &TelecastSession) {
        self.metrics(s.metrics());
        self.u64(s.events_processed());
        self.u64(s.connected_viewers() as u64);
        self.u64(s.attach_probe_total());
        self.u64(s.depth_shift_total());
        self.f64(s.mean_tree_depth());
    }

    /// The finished digest.
    pub fn finish(self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_value_both_matter() {
        let digest = |xs: &[u64]| {
            let mut d = Digest::default();
            xs.iter().for_each(|&x| d.u64(x));
            d.finish()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
    }
}
