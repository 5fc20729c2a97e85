//! Session-wide measurements — the quantities the paper's figures plot.

use telecast_sim::{merge_step_sum, Cdf, Counter, Histogram, SimTime, TimeSeries};

/// Accumulated counters and samples of one session run.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// Streams requested across all join attempts (`N_total`).
    pub requested_streams: Counter,
    /// Streams accepted at admission (`N_accepted`).
    pub accepted_streams: Counter,
    /// Viewers admitted (≥ one stream per site).
    pub admitted_viewers: Counter,
    /// Viewers rejected at admission.
    pub rejected_viewers: Counter,
    /// Join delay samples in milliseconds (Fig. 14(c)).
    pub join_delays_ms: Histogram,
    /// View-change delay samples in milliseconds (Fig. 14(c)).
    pub view_change_delays_ms: Histogram,
    /// Switch-latency samples in milliseconds: leave-old-tree →
    /// first-frame-on-new-tree (the CDN fast path of §VI). Unlike
    /// [`SessionMetrics::view_change_delays_ms`] this excludes the
    /// request→teardown control-plane time.
    pub switch_latency_ms: Histogram,
    /// View changes whose CDN fast path granted no temporary lease —
    /// the first frame of the new view waits for the background join.
    pub switch_starved: Counter,
    /// Wasted subtree bandwidth, in kbps·ms: old-view bandwidth still
    /// flowing to a switching viewer between its view-change request
    /// and the old tree's teardown (see
    /// [`SessionMetrics::wasted_mbps_hours`]).
    pub wasted_subtree_kbps_ms: Counter,
    /// CDN-rooted tree fragments folded under P2P parents by the prune
    /// pass (each fold returns one CDN serve to the pool).
    pub fragments_merged: Counter,
    /// Drained view groups retired by the prune pass.
    pub groups_retired: Counter,
    /// CDN capacity returned to the pool by prune merges, in kbps.
    pub prune_reclaimed_kbps: Counter,
    /// Subscription-protocol messages sent (overhead).
    pub subscription_messages: Counter,
    /// Push-down displacements performed by Algorithm 1.
    pub displacements: Counter,
    /// Streams dropped because their layer exceeded the admissible
    /// maximum.
    pub layer_drops: Counter,
    /// Victim viewers produced by departures and view changes.
    pub victims: Counter,
    /// Victims recovered into a P2P position (vs staying on the CDN).
    pub victims_repositioned: Counter,
    /// CDN outbound usage over time, in Mbps (Fig. 13(a) reports the
    /// peak).
    pub cdn_usage_mbps: TimeSeries,
    /// *Provisioned* CDN outbound capacity over time, in Mbps — a flat
    /// line for the paper's static pool, a staircase tracking demand
    /// under autoscaling. With per-region pools this is the aggregate
    /// (the sum over [`SessionMetrics::provisioned_by_slot`]).
    pub provisioned_cdn_mbps: TimeSeries,
    /// Per-pool-slot provisioned capacity over time, in Mbps — one
    /// series per regional pool (a single entry mirroring the aggregate
    /// under the global pool scope). Grown lazily to the slot count.
    pub provisioned_by_slot: Vec<TimeSeries>,
    /// CDN pool utilisation (used / provisioned) over time, sampled by
    /// the GSC monitor event.
    pub cdn_utilisation: TimeSeries,
    /// Connected population over time, sampled by the GSC monitor event.
    pub population: TimeSeries,
    /// Times the subscription-chain damping cap was hit (should stay 0).
    pub resync_cap_hits: Counter,
    /// Viewers admitted by the churn runtime (arrival events that issued
    /// a join).
    pub churn_arrivals: Counter,
    /// Churn dwell expiries that departed gracefully.
    pub churn_departures: Counter,
    /// Churn dwell expiries that failed abruptly.
    pub churn_failures: Counter,
    /// Autoscale actions that grew the CDN pool.
    pub autoscale_ups: Counter,
    /// Autoscale actions that shrank the CDN pool.
    pub autoscale_downs: Counter,
    /// Parked CDN-rejected joins retried after a scale-up.
    pub join_retries: Counter,
    /// Cross-shard CDN spill requests emitted (sharded runtime only):
    /// foreground joins the local regional pool could not serve, offered
    /// to a foreign shard's pool at the next epoch barrier.
    pub spill_requests: Counter,
    /// Spill requests a donor shard's pool admitted.
    pub spill_admits: Counter,
    /// Foreign-lease batches returned to their donor shard when a
    /// spill-served viewer departed.
    pub spill_releases: Counter,
    /// Per-slot forecast error of the predictive autoscaler, in Mbps:
    /// each sample is `forecast − realised` reserved demand, recorded
    /// when a forecast's horizon comes due (positive = over-forecast).
    /// Empty on reactive controllers.
    pub forecast_error_by_slot: Vec<TimeSeries>,
    /// Deepest the event heap has ever been — the queue-pressure figure
    /// a capacity plan needs.
    pub peak_event_queue: u64,
    /// Most CDN-rejected joins ever parked for retry at once.
    pub peak_retry_queue: u64,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        SessionMetrics {
            requested_streams: Counter::new("requested_streams"),
            accepted_streams: Counter::new("accepted_streams"),
            admitted_viewers: Counter::new("admitted_viewers"),
            rejected_viewers: Counter::new("rejected_viewers"),
            join_delays_ms: Histogram::new(),
            view_change_delays_ms: Histogram::new(),
            switch_latency_ms: Histogram::new(),
            switch_starved: Counter::new("switch_starved"),
            wasted_subtree_kbps_ms: Counter::new("wasted_subtree_kbps_ms"),
            fragments_merged: Counter::new("fragments_merged"),
            groups_retired: Counter::new("groups_retired"),
            prune_reclaimed_kbps: Counter::new("prune_reclaimed_kbps"),
            subscription_messages: Counter::new("subscription_messages"),
            displacements: Counter::new("displacements"),
            layer_drops: Counter::new("layer_drops"),
            victims: Counter::new("victims"),
            victims_repositioned: Counter::new("victims_repositioned"),
            cdn_usage_mbps: TimeSeries::new(),
            provisioned_cdn_mbps: TimeSeries::new(),
            provisioned_by_slot: Vec::new(),
            cdn_utilisation: TimeSeries::new(),
            population: TimeSeries::new(),
            resync_cap_hits: Counter::new("resync_cap_hits"),
            churn_arrivals: Counter::new("churn_arrivals"),
            churn_departures: Counter::new("churn_departures"),
            churn_failures: Counter::new("churn_failures"),
            autoscale_ups: Counter::new("autoscale_ups"),
            autoscale_downs: Counter::new("autoscale_downs"),
            join_retries: Counter::new("join_retries"),
            spill_requests: Counter::new("spill_requests"),
            spill_admits: Counter::new("spill_admits"),
            spill_releases: Counter::new("spill_releases"),
            forecast_error_by_slot: Vec::new(),
            peak_event_queue: 0,
            peak_retry_queue: 0,
        }
    }

    /// The acceptance ratio `ρ = N_accepted / N_total` (1 if nothing was
    /// requested).
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.requested_streams.value();
        if total == 0 {
            1.0
        } else {
            self.accepted_streams.value() as f64 / total as f64
        }
    }

    /// Peak CDN outbound usage observed, in Mbps.
    pub fn peak_cdn_mbps(&self) -> f64 {
        self.cdn_usage_mbps.peak()
    }

    /// Records a CDN usage sample. The series is a step function, so
    /// consecutive identical values collapse into the first sample —
    /// long churn runs would otherwise accumulate one point per protocol
    /// event.
    pub fn sample_cdn_usage(&mut self, at: SimTime, mbps: f64) {
        if self.cdn_usage_mbps.last() == Some(mbps) {
            return;
        }
        self.cdn_usage_mbps.record(at, mbps);
    }

    /// Records a connected-population sample (GSC monitor event).
    pub fn sample_population(&mut self, at: SimTime, viewers: f64) {
        self.population.record(at, viewers);
    }

    /// Records a provisioned-capacity sample. Like the usage series this
    /// is a step function — consecutive identical values collapse into
    /// the first sample.
    pub fn sample_provisioned(&mut self, at: SimTime, mbps: f64) {
        if self.provisioned_cdn_mbps.last() == Some(mbps) {
            return;
        }
        self.provisioned_cdn_mbps.record(at, mbps);
    }

    /// Records a CDN pool utilisation sample (GSC monitor event).
    pub fn sample_cdn_utilisation(&mut self, at: SimTime, fraction: f64) {
        self.cdn_utilisation.record(at, fraction);
    }

    /// Records a per-slot provisioned-capacity sample, growing the slot
    /// list as needed. Step-function semantics like the aggregate:
    /// consecutive identical values collapse into the first sample.
    pub fn sample_provisioned_slot(&mut self, slot: usize, at: SimTime, mbps: f64) {
        if self.provisioned_by_slot.len() <= slot {
            self.provisioned_by_slot
                .resize_with(slot + 1, TimeSeries::new);
        }
        let series = &mut self.provisioned_by_slot[slot];
        if series.last() == Some(mbps) {
            return;
        }
        series.record(at, mbps);
    }

    /// Records a matured forecast's error for one pool slot, growing
    /// the slot list as needed. `error_mbps` is forecast − realised.
    pub fn sample_forecast_error(&mut self, slot: usize, at: SimTime, error_mbps: f64) {
        if self.forecast_error_by_slot.len() <= slot {
            self.forecast_error_by_slot
                .resize_with(slot + 1, TimeSeries::new);
        }
        self.forecast_error_by_slot[slot].record(at, error_mbps);
    }

    /// Mean absolute forecast error across every slot's matured
    /// forecasts, in Mbps; `None` when no forecast has matured (e.g. a
    /// reactive controller).
    pub fn mean_abs_forecast_error_mbps(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for series in &self.forecast_error_by_slot {
            for &(_, error) in series.points() {
                sum += error.abs();
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// CDF of join delays (milliseconds).
    pub fn join_delay_cdf(&self) -> Cdf {
        self.join_delays_ms.cdf()
    }

    /// Folds `other` into `self` as one more member of a merged view:
    /// counters sum, peaks take the maximum, histograms append `other`'s
    /// samples in ascending order, and the population, CDN-usage and
    /// provisioned step series sum point-wise ([`merge_step_sum`]). The
    /// merged view's pool slots are its members' pools, member after
    /// member: `provisioned_by_slot` gains `other`'s aggregate series and
    /// `forecast_error_by_slot` all of `other`'s slots. `cdn_utilisation`
    /// stays as it is: a merged used/provisioned ratio is not recoverable
    /// from members sampled at different instants.
    pub fn merge(&mut self, other: &SessionMetrics) {
        let this = std::mem::take(self);
        let o = other;
        let sum = |mut into: Counter, from: &Counter| {
            into.add(from.value());
            into
        };
        let cat = |mut into: Histogram, from: &Histogram| {
            into.extend(from.sorted_samples().iter().copied());
            into
        };
        let step = |into: TimeSeries, from: &TimeSeries| merge_step_sum(&[&into, from]);
        let mut provisioned_by_slot = this.provisioned_by_slot;
        provisioned_by_slot.push(o.provisioned_cdn_mbps.clone());
        let mut forecast_error_by_slot = this.forecast_error_by_slot;
        forecast_error_by_slot.extend(o.forecast_error_by_slot.iter().cloned());
        // A struct literal without `..`: a new field fails to compile
        // until it is merged here.
        *self = SessionMetrics {
            requested_streams: sum(this.requested_streams, &o.requested_streams),
            accepted_streams: sum(this.accepted_streams, &o.accepted_streams),
            admitted_viewers: sum(this.admitted_viewers, &o.admitted_viewers),
            rejected_viewers: sum(this.rejected_viewers, &o.rejected_viewers),
            join_delays_ms: cat(this.join_delays_ms, &o.join_delays_ms),
            view_change_delays_ms: cat(this.view_change_delays_ms, &o.view_change_delays_ms),
            switch_latency_ms: cat(this.switch_latency_ms, &o.switch_latency_ms),
            switch_starved: sum(this.switch_starved, &o.switch_starved),
            wasted_subtree_kbps_ms: sum(this.wasted_subtree_kbps_ms, &o.wasted_subtree_kbps_ms),
            fragments_merged: sum(this.fragments_merged, &o.fragments_merged),
            groups_retired: sum(this.groups_retired, &o.groups_retired),
            prune_reclaimed_kbps: sum(this.prune_reclaimed_kbps, &o.prune_reclaimed_kbps),
            subscription_messages: sum(this.subscription_messages, &o.subscription_messages),
            displacements: sum(this.displacements, &o.displacements),
            layer_drops: sum(this.layer_drops, &o.layer_drops),
            victims: sum(this.victims, &o.victims),
            victims_repositioned: sum(this.victims_repositioned, &o.victims_repositioned),
            cdn_usage_mbps: step(this.cdn_usage_mbps, &o.cdn_usage_mbps),
            provisioned_cdn_mbps: step(this.provisioned_cdn_mbps, &o.provisioned_cdn_mbps),
            provisioned_by_slot,
            cdn_utilisation: this.cdn_utilisation,
            population: step(this.population, &o.population),
            resync_cap_hits: sum(this.resync_cap_hits, &o.resync_cap_hits),
            churn_arrivals: sum(this.churn_arrivals, &o.churn_arrivals),
            churn_departures: sum(this.churn_departures, &o.churn_departures),
            churn_failures: sum(this.churn_failures, &o.churn_failures),
            autoscale_ups: sum(this.autoscale_ups, &o.autoscale_ups),
            autoscale_downs: sum(this.autoscale_downs, &o.autoscale_downs),
            join_retries: sum(this.join_retries, &o.join_retries),
            spill_requests: sum(this.spill_requests, &o.spill_requests),
            spill_admits: sum(this.spill_admits, &o.spill_admits),
            spill_releases: sum(this.spill_releases, &o.spill_releases),
            forecast_error_by_slot,
            peak_event_queue: this.peak_event_queue.max(o.peak_event_queue),
            peak_retry_queue: this.peak_retry_queue.max(o.peak_retry_queue),
        };
    }

    /// Wasted subtree bandwidth in Mbps·hours — the figure-friendly
    /// unit of [`SessionMetrics::wasted_subtree_kbps_ms`]
    /// (1 Mbps·hour = 1000 kbps × 3 600 000 ms).
    pub fn wasted_mbps_hours(&self) -> f64 {
        self.wasted_subtree_kbps_ms.value() as f64 / 3.6e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ratio_division() {
        let mut m = SessionMetrics::new();
        assert_eq!(m.acceptance_ratio(), 1.0);
        m.requested_streams.add(10);
        m.accepted_streams.add(7);
        assert!((m.acceptance_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cdn_peak_tracks_series() {
        let mut m = SessionMetrics::new();
        m.sample_cdn_usage(SimTime::from_secs(1), 100.0);
        m.sample_cdn_usage(SimTime::from_secs(2), 450.0);
        m.sample_cdn_usage(SimTime::from_secs(3), 20.0);
        assert_eq!(m.peak_cdn_mbps(), 450.0);
    }

    #[test]
    fn wasted_bandwidth_unit_conversion() {
        let mut m = SessionMetrics::new();
        // 2000 kbps wasted for 1.8e6 ms = 2 Mbps for half an hour.
        m.wasted_subtree_kbps_ms.add(2_000 * 1_800_000);
        assert!((m.wasted_mbps_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_every_field() {
        let mut part = SessionMetrics::new();
        part.fragments_merged.add(3);
        part.switch_starved.add(2);
        part.switch_latency_ms.record(40.0);
        part.join_delays_ms.record(250.0);
        part.sample_population(SimTime::from_secs(1), 10.0);
        part.sample_provisioned(SimTime::from_secs(0), 100.0);
        part.sample_forecast_error(0, SimTime::from_secs(5), -2.0);
        part.peak_event_queue = 7;
        let mut merged = SessionMetrics::new();
        merged.merge(&part);
        merged.merge(&part);
        assert_eq!(merged.fragments_merged.value(), 6);
        assert_eq!(merged.switch_starved.value(), 4);
        assert_eq!(merged.switch_latency_ms.len(), 2);
        assert_eq!(merged.join_delays_ms.len(), 2);
        assert_eq!(merged.population.points(), &[(SimTime::from_secs(1), 20.0)]);
        assert_eq!(merged.provisioned_by_slot.len(), 2);
        assert_eq!(merged.forecast_error_by_slot.len(), 2);
        assert_eq!(merged.mean_abs_forecast_error_mbps(), Some(2.0));
        assert_eq!(merged.peak_event_queue, 7);
        assert!(merged.cdn_utilisation.is_empty());
    }

    #[test]
    fn delay_cdfs_are_exposed() {
        let mut m = SessionMetrics::new();
        m.join_delays_ms.record(250.0);
        m.join_delays_ms.record(750.0);
        let cdf = m.join_delay_cdf();
        assert!((cdf.fraction_at(500.0) - 0.5).abs() < 1e-9);
    }
}
