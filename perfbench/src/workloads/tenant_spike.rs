//! `tenant_spike`: a [`TenantFleet`] of four broadcasts with Zipf-split
//! audiences churning 30% per minute on a shared diurnal wave; the
//! headline tenant bursts 6× and then 9×. Shared predictive autoscalers
//! run on per-region pools through the capacity broker. It is the only
//! workload with quota arbitration, deficit-fair retries and
//! forecast-driven scaling; it has no view switching and no worker pool.
//!
//! Untraced runs call `run_until(horizon)` once. Traced runs step it one
//! fleet epoch at a time, on the boundaries the fleet uses anyway.

use std::collections::BTreeMap;
use std::time::Instant;

use telecast::{DelayModelChoice, SessionConfig, SessionMetrics, TenantFleet};
use telecast_cdn::{AutoscalePolicy, CdnConfig, PoolScope, PredictivePolicy, TenantQuota};
use telecast_media::{ChurnSpec, RateProfile, SpikeWindow};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimTime};

use super::{finish, join_delays, overlay_layers, per, protocol_layers};
use super::{Model, Outcome, Results, RunEnd, Scale, SetupEnd, Start};
use crate::digest::Digest;
use crate::trace::Tracer;

/// Size and shape of the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Steady-state audience across all tenants.
    pub viewers: usize,
    /// Tenant broadcasts.
    pub tenants: usize,
    /// Zipf exponent of the audience split.
    pub zipf: f64,
    /// Simulated horizon in minutes; also the length of one diurnal day.
    pub minutes: u64,
    /// Share of each tenant's population leaving per minute.
    pub churn_per_minute: f64,
    /// Diurnal amplitude of the shared baseline.
    pub amplitude: f64,
    /// Rate multiplier of the headline tenant's first burst (the second
    /// is half as tall again).
    pub spike_multiplier: f64,
}

impl Params {
    /// The benchmark's size, or the test size.
    pub fn new(scale: Scale) -> Params {
        let (viewers, minutes) = match scale {
            Scale::Full => (3_000, 5),
            Scale::Small => (800, 4),
        };
        Params {
            viewers,
            tenants: 4,
            zipf: 1.0,
            minutes,
            churn_per_minute: 0.30,
            amplitude: 0.5,
            spike_multiplier: 6.0,
        }
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }

    /// The shared starting pool: 4 Mbps per viewer of the whole audience.
    fn pool(&self) -> Bandwidth {
        Bandwidth::from_mbps((self.viewers as u64 * 4).max(2_000))
    }

    /// Tenant `index`'s arrival profile: the shared diurnal wave, with
    /// two bursts at 40% and 70% of the horizon for the headline tenant.
    fn rate_profile(&self, index: usize) -> RateProfile {
        let horizon = self.minutes * 60;
        let day = SimDuration::from_secs(horizon);
        let duration = SimDuration::from_secs((horizon / 10).max(60));
        let bursts = [
            SpikeWindow {
                start: SimTime::from_secs(horizon * 2 / 5),
                duration,
                multiplier: self.spike_multiplier,
            },
            SpikeWindow {
                start: SimTime::from_secs(horizon * 7 / 10),
                duration,
                multiplier: self.spike_multiplier * 1.5,
            },
        ];
        let windows: &[SpikeWindow] = if index == 0 { &bursts } else { &[] };
        RateProfile::diurnal_with_spikes(day, self.amplitude, windows)
    }
}

/// Salt mixed into each tenant's seed so the broadcasts draw independent
/// streams from one workload seed.
const TENANT_SEED_SALT: u64 = 0xA54F_F53A_5F1D_36F1;

/// Splits `total` into Zipf-weighted audience sizes by largest remainder
/// (ties by index), so they sum to `total` exactly.
fn zipf_split(total: usize, tenants: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=tenants)
        .map(|i| 1.0 / (i as f64).powf(exponent))
        .collect();
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut sizes: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut order: Vec<usize> = (0..tenants).collect();
    order.sort_by(|&a, &b| {
        (shares[b].fract())
            .total_cmp(&shares[a].fract())
            .then(a.cmp(&b))
    });
    let left = total - sizes.iter().sum::<usize>();
    for &i in order.iter().cycle().take(left) {
        sizes[i] += 1;
    }
    sizes
}

/// Sums the counters of `parts` and concatenates their join delays, in
/// order, the way the sharded runtime merges its shards.
fn merge(parts: &[&SessionMetrics]) -> SessionMetrics {
    let mut merged = SessionMetrics::new();
    for m in parts {
        for (into, from) in [
            (&mut merged.requested_streams, &m.requested_streams),
            (&mut merged.accepted_streams, &m.accepted_streams),
            (&mut merged.admitted_viewers, &m.admitted_viewers),
            (&mut merged.rejected_viewers, &m.rejected_viewers),
            (&mut merged.victims, &m.victims),
            (&mut merged.victims_repositioned, &m.victims_repositioned),
            (&mut merged.displacements, &m.displacements),
            (&mut merged.subscription_messages, &m.subscription_messages),
            (&mut merged.layer_drops, &m.layer_drops),
            (&mut merged.resync_cap_hits, &m.resync_cap_hits),
            (&mut merged.join_retries, &m.join_retries),
        ] {
            into.add(from.value());
        }
        for &v in m.join_delays_ms.samples() {
            merged.join_delays_ms.record(v);
        }
        merged.peak_event_queue = merged.peak_event_queue.max(m.peak_event_queue);
        merged.peak_retry_queue = merged.peak_retry_queue.max(m.peak_retry_queue);
    }
    merged
}

/// Tenant `index`'s session config on the shared per-region pools.
fn tenant_config(p: &Params, seed: u64, index: usize) -> SessionConfig {
    SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(
            CdnConfig::default()
                .with_outbound(p.pool())
                .with_pool_scope(PoolScope::PerRegion),
        )
        .with_delay_model(DelayModelChoice::Coordinate)
        .with_monitor_period(SimDuration::from_secs(10))
        .with_seed(seed ^ TENANT_SEED_SALT.wrapping_mul(index as u64 + 1))
}

/// Runs one repetition.
pub fn run(p: &Params, seed: u64, tr: &mut Tracer) -> Outcome {
    let start = Start::now();
    let setup_span = tr.open("setup", None);

    let media_at = Instant::now();
    let media_span = tr.open("media.workload", setup_span);
    let audiences = zipf_split(p.viewers, p.tenants, p.zipf);
    let specs: Vec<ChurnSpec> = audiences
        .iter()
        .enumerate()
        .map(|(i, &audience)| {
            ChurnSpec::steady_state(audience, p.churn_per_minute)
                .with_rate_profile(p.rate_profile(i))
        })
        .collect();
    tr.close(media_span);

    let build_at = Instant::now();
    let build_span = tr.open("core.build", setup_span);
    let ceiling = Bandwidth::from_mbps((p.viewers as u64 * 16).max(6_000));
    let fleet_config = tenant_config(p, seed, 0)
        .with_seed(seed)
        .with_autoscale(AutoscalePolicy::for_pool(p.pool(), ceiling))
        .with_predictive(PredictivePolicy {
            horizon: SimDuration::from_secs(45),
            alpha: 0.5,
            target_utilisation: 0.95,
        });
    let epoch = fleet_config
        .autoscale
        .as_ref()
        .map_or(SimDuration::from_secs(15), |a| a.period);
    let mut fleet = TenantFleet::new(&fleet_config, epoch);
    // Each tenant is guaranteed half an even share and may burst to four.
    let quota = TenantQuota {
        floor_percent: (100 / (2 * p.tenants as u32)).max(1),
        ceiling_percent: (400 / p.tenants as u32).clamp(1, 100),
    };
    for (i, (&audience, spec)) in audiences.iter().zip(specs).enumerate() {
        let config = tenant_config(p, seed, i);
        // Twice the steady audience in gateways: bursts add real viewers.
        let idx = fleet.add_tenant(&config, quota, (audience * 2).max(2));
        fleet
            .session_mut(idx)
            .start_churn(spec, p.horizon(), audience);
    }
    tr.close(build_span);
    tr.close(setup_span);
    let setup = SetupEnd::now(
        (0..fleet.tenant_count())
            .map(|i| fleet.session(i).events_processed())
            .sum(),
    );

    let run_span = tr.open("run", None);
    let epochs = p.horizon().as_micros() / epoch.as_micros();
    let mut epoch_ms = Vec::new();
    if tr.on() {
        for k in 1..=epochs {
            let span = tr.open("core.tenancy.epoch", run_span);
            let t0 = Instant::now();
            fleet.run_until(SimTime::from_micros(epoch.as_micros() * k));
            epoch_ms.push((Instant::now() - t0).as_secs_f64() * 1e3);
            tr.close(span);
        }
    } else {
        fleet.run_until(p.horizon());
    }
    let collect_start = Instant::now();
    let spans_s = if epoch_ms.is_empty() {
        (collect_start - setup.at).as_secs_f64()
    } else {
        epoch_ms.iter().sum::<f64>() / 1e3
    };
    let collect_span = tr.open("core.collect", run_span);
    let tenants: Vec<&SessionMetrics> = (0..fleet.tenant_count())
        .map(|i| fleet.session(i).metrics())
        .collect();
    let m = merge(&tenants);
    let (join_p50_ms, join_p99_ms, join_samples) = join_delays(&m.join_delays_ms);
    let model = Model {
        acceptance_ratio: m.acceptance_ratio(),
        join_p50_ms,
        join_p99_ms,
        join_samples,
        cdn_mbps_hours: (0..fleet.tenant_count())
            .map(|i| fleet.served_mbps_hours(i))
            .sum(),
        provisioned_dollars: fleet.provisioned_dollars_at(p.horizon()),
    };
    tr.close(collect_span);
    tr.close(run_span);
    let end = RunEnd::now(collect_start);

    // Everything below is the benchmark's own bookkeeping.
    let mut d = Digest::default();
    let mut tenant_events = Vec::new();
    for i in 0..fleet.tenant_count() {
        let session = fleet.session(i);
        d.session(session);
        d.f64(fleet.served_mbps_hours(i));
        tenant_events.push(session.events_processed());
    }
    d.u64(fleet.autoscale_ups());
    d.u64(fleet.autoscale_downs());
    for &(at, error) in fleet.forecast_errors() {
        d.u64(at.as_micros());
        d.f64(error);
    }
    d.f64(fleet.provisioned_mbps_hours_at(p.horizon()));
    d.f64(model.provisioned_dollars);

    let total_events: u64 = tenant_events.iter().sum();
    let mut layers = BTreeMap::new();
    for (name, value) in [
        (
            "media.workload_build_s",
            (build_at - media_at).as_secs_f64(),
        ),
        ("core.build_s", (setup.at - build_at).as_secs_f64()),
        ("cdn.autoscale_ups", fleet.autoscale_ups() as f64),
        ("cdn.autoscale_downs", fleet.autoscale_downs() as f64),
        (
            "cdn.forecast_error_mbps",
            fleet.mean_abs_forecast_error_mbps().unwrap_or(0.0),
        ),
        ("core.tenancy.epochs", epochs as f64),
        (
            "core.tenancy.max_event_share",
            per(
                tenant_events.iter().copied().max().unwrap_or(0) as f64,
                total_events,
            ),
        ),
    ] {
        layers.insert(name, value);
    }
    if !epoch_ms.is_empty() {
        layers.insert(
            "core.tenancy.epoch_ms_p50",
            crate::metrics::median(&epoch_ms),
        );
        layers.insert(
            "core.tenancy.epoch_ms_max",
            epoch_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    protocol_layers(&mut layers, &m);
    overlay_layers(
        &mut layers,
        (0..fleet.tenant_count()).map(|i| fleet.session(i)),
        m.accepted_streams.value(),
    );
    let results = Results {
        model,
        admissions: m.admitted_viewers.value() + m.rejected_viewers.value(),
        digest: d.finish(),
        events: total_events,
        peak_queue: m.peak_event_queue,
        spans_s,
        layers,
    };
    finish(start, setup, end, results)
}
