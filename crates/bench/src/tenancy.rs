//! The tenant-mix scenario: M concurrent broadcasts share the regional
//! CDN pools through one capacity broker, under per-tenant quotas and
//! deficit-fair retry arbitration.
//!
//! Audience sizes follow a Zipf split — one headline broadcast and a
//! long tail — and the *largest* tenant additionally bursts
//! (replayed-highlight spike windows on the shared diurnal baseline)
//! while every other tenant rides the plain wave. The claims the
//! conformance suite pins on this scenario:
//!
//! * **noisy-neighbour isolation** — the burster's overload degrades
//!   the other tenants' bad-join rate only within a bounded factor of
//!   what they'd see running solo, because the quota floors protect
//!   their entitlement and the weighted-fair arbitration splits retry
//!   headroom by floor weight rather than demand; and
//! * **consolidation efficiency** — the shared pools provision fewer
//!   Mbps-hours than M statically-split pools on the same seeds, since
//!   one shared controller absorbs the burst with capacity the quiet
//!   tenants are not using.
//!
//! Everything exported is a pure function of the seed; the JSON figure
//! is byte-identical across runs and machines.

use telecast::{DelayModelChoice, SessionConfig, TenantFleet};
use telecast_cdn::{PoolScope, TenantQuota};
use telecast_media::{ChurnSpec, RateProfile};
use telecast_net::Bandwidth;
use telecast_sim::{SimDuration, SimTime};

use crate::scenario::{
    autoscale_policy_for, base_config, burst_windows, day_minutes, series_from, xy, PoolSizing,
    PREDICTIVE_POLICY,
};
use crate::table::{FigureData, Series};

/// Salt mixed into each tenant's seed so sibling broadcasts draw
/// independent arrival/dwell streams from one master seed.
pub const TENANT_SEED_SALT: u64 = 0xA54F_F53A_5F1D_36F1;

/// Parameters of one tenant-mix run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantMixScenario {
    /// Total steady-state audience across every tenant (split by Zipf).
    pub viewers: usize,
    /// Number of concurrent tenant broadcasts.
    pub tenants: u32,
    /// Zipf exponent of the audience split (tenant `i` weighs
    /// `1/(i+1)^zipf`).
    pub zipf: f64,
    /// Simulated duration in minutes.
    pub minutes: u64,
    /// Fraction of each tenant's population leaving per minute.
    pub churn_per_minute: f64,
    /// Diurnal amplitude of the shared baseline (one compressed day per
    /// run), in `[0, 1]`.
    pub amplitude: f64,
    /// Rate multiplier of the headline tenant's burst windows.
    pub spike_multiplier: f64,
    /// Delay substrate.
    pub backend: DelayModelChoice,
    /// Master seed (each tenant derives its own via
    /// [`TENANT_SEED_SALT`]).
    pub seed: u64,
    /// Starting shared CDN pool in Mbps; `None` applies
    /// [`PoolSizing::BURST`] to the *aggregate* audience, not per tenant.
    pub pool_mbps: Option<u64>,
    /// Whether the fleet's shared autoscalers run at all.
    pub autoscale: bool,
    /// Whether they are predictive (forecast-driven) instead of
    /// reactive.
    pub predictive: bool,
}

impl Default for TenantMixScenario {
    fn default() -> Self {
        TenantMixScenario {
            viewers: 20_000,
            tenants: 4,
            zipf: 1.0,
            minutes: 20,
            churn_per_minute: 0.30,
            amplitude: 0.5,
            spike_multiplier: 6.0,
            backend: DelayModelChoice::Coordinate,
            seed: 0x7E_4A47,
            pool_mbps: None,
            autoscale: true,
            predictive: true,
        }
    }
}

/// Splits `total` into `tenants` Zipf-weighted audience sizes by the
/// largest-remainder method: sizes sum to exactly `total`, are
/// non-increasing, and every tenant gets at least one viewer while
/// `total ≥ tenants`.
pub fn zipf_split(total: usize, tenants: usize, exponent: f64) -> Vec<usize> {
    assert!(tenants > 0, "zipf_split over zero tenants");
    assert!(
        exponent > 0.0 && exponent.is_finite(),
        "zipf exponent out of range: {exponent}"
    );
    let weights: Vec<f64> = (0..tenants)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    // Integer floors first, then hand the remainder out in descending
    // fractional order (ties by index — deterministic).
    let shares: Vec<f64> = weights
        .iter()
        .map(|w| total as f64 * w / weight_sum)
        .collect();
    let mut sizes: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let assigned: usize = sizes.iter().sum();
    let mut order: Vec<usize> = (0..tenants).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().cycle().take(total.saturating_sub(assigned)) {
        sizes[i] += 1;
    }
    // Floors of tiny tails can be zero; guarantee one viewer each by
    // taking from the head (which has the most to spare).
    for i in 0..tenants {
        if sizes[i] == 0 && sizes[0] > 1 {
            sizes[i] = 1;
            sizes[0] -= 1;
        }
    }
    sizes
}

/// The quota every tenant gets: a guaranteed floor of half an even
/// share and a burstable ceiling of four even shares (capped at the
/// whole pool) — enough slack for the headline burst, enough floor to
/// protect the tail. A single tenant owns the pool outright.
pub fn tenant_quota(tenants: u32) -> TenantQuota {
    if tenants <= 1 {
        return TenantQuota::FULL;
    }
    TenantQuota {
        floor_percent: (100 / (2 * tenants)).max(1),
        ceiling_percent: (400 / tenants).clamp(1, 100),
    }
}

impl TenantMixScenario {
    /// Tenant `index`'s arrival-rate profile: the shared diurnal wave,
    /// with the spike storm's burst schedule on top for the headline
    /// tenant.
    pub fn rate_profile(&self, index: usize) -> RateProfile {
        let day = SimDuration::from_secs(day_minutes(self.minutes, 1) * 60);
        let windows = if index == 0 {
            burst_windows(self.minutes, self.spike_multiplier)
        } else {
            Vec::new()
        };
        RateProfile::diurnal_with_spikes(day, self.amplitude, &windows)
    }

    /// The shared starting pool.
    pub fn pool(&self) -> Bandwidth {
        PoolSizing::BURST.pool(self.pool_mbps, self.viewers)
    }
}

/// What a tenant-mix run leaves besides its figure: only values the
/// figure does not export.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMixOutcome {
    /// The exported figure (`results/tenant_mix.json`).
    pub figure: FigureData,
    /// Connected population per tenant at the horizon (the figure
    /// exports only the sum).
    pub final_population_by_tenant: Vec<usize>,
    /// Mean absolute forecast error of the shared predictive
    /// controllers, in Mbps (stdout-only; not part of the figure).
    pub mean_abs_forecast_error_mbps: Option<f64>,
    /// Matured forecasts scored into the error above.
    pub forecasts_scored: usize,
}

/// Builds the per-tenant session config for `run_tenant_mix` — also
/// the config the conformance suite reuses to run a tenant *solo* on
/// the same seed (the isolation comparison's control arm).
pub fn tenant_config(scenario: &TenantMixScenario, index: usize) -> SessionConfig {
    let seed = scenario.seed ^ TENANT_SEED_SALT.wrapping_mul(index as u64 + 1);
    base_config(
        scenario.pool(),
        PoolScope::PerRegion,
        scenario.backend,
        seed,
    )
}

/// Runs the scenario. Pure in the seed: equal scenarios produce equal
/// (`==`, and byte-identical JSON) outcomes regardless of host or
/// repetition.
pub fn run_tenant_mix(scenario: &TenantMixScenario) -> TenantMixOutcome {
    let m = scenario.tenants as usize;
    let pool = scenario.pool();
    let horizon = SimTime::from_secs(scenario.minutes * 60);
    let audiences = zipf_split(scenario.viewers.max(m), m, scenario.zipf);

    // The fleet's shared controllers are sized for the aggregate
    // audience — the whole point of consolidation.
    let mut fleet_config = tenant_config(scenario, 0).with_seed(scenario.seed);
    if scenario.autoscale {
        fleet_config =
            fleet_config.with_autoscale(autoscale_policy_for(pool, scenario.viewers * 2));
    }
    if scenario.predictive {
        fleet_config = fleet_config.with_predictive(PREDICTIVE_POLICY);
    }
    let epoch = fleet_config
        .autoscale
        .as_ref()
        .map(|p| p.period)
        .unwrap_or(SimDuration::from_secs(15));

    let mut fleet = TenantFleet::new(&fleet_config, epoch);
    let quota = tenant_quota(scenario.tenants);
    for (i, &audience) in audiences.iter().enumerate() {
        // Twice the steady audience in provisioned gateways, like the
        // spike storm: bursts add real viewers.
        let idx = fleet.add_tenant(&tenant_config(scenario, i), quota, (audience * 2).max(2));
        let spec = ChurnSpec::steady_state(audience, scenario.churn_per_minute)
            .with_rate_profile(scenario.rate_profile(i));
        fleet.session_mut(idx).start_churn(spec, horizon, audience);
    }
    fleet.run_until(horizon);

    let fleet = &fleet;
    let metrics = |i: usize| fleet.session(i).metrics();
    let acceptance: Vec<f64> = (0..m).map(|i| metrics(i).acceptance_ratio()).collect();
    let final_population_by_tenant: Vec<usize> = (0..m)
        .map(|i| fleet.session(i).connected_viewers())
        .collect();
    let x = scenario.viewers as f64;
    let mut series: Vec<Series> = (0..m)
        .map(|i| Series::new(format!("population_tenant_{i}"), xy(&metrics(i).population)))
        .collect();
    let labels = [
        "audience_by_tenant",
        "acceptance_by_tenant",
        "bad_join_rate_by_tenant",
        "served_mbps_hours_by_tenant",
        "acceptance_spread",
        "provisioned_mbps_hours",
        "provisioned_dollars",
        "autoscale_ups",
        "autoscale_downs",
        "final_population",
    ];
    series.extend(series_from(&labels, |label| {
        let per_tenant =
            |f: &dyn Fn(usize) -> f64| Some((0..m).map(|i| (i as f64, f(i))).collect());
        let value = match label {
            "audience_by_tenant" => return per_tenant(&|i| audiences[i] as f64),
            "acceptance_by_tenant" => return per_tenant(&|i| acceptance[i]),
            "bad_join_rate_by_tenant" => {
                return per_tenant(&|i| {
                    let tenant = metrics(i);
                    bad_join_rate(
                        tenant.admitted_viewers.value(),
                        tenant.rejected_viewers.value(),
                    )
                })
            }
            "served_mbps_hours_by_tenant" => return per_tenant(&|i| fleet.served_mbps_hours(i)),
            "acceptance_spread" => {
                acceptance.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
                    - acceptance.iter().fold(f64::INFINITY, |a, &b| a.min(b))
            }
            "provisioned_mbps_hours" => fleet.provisioned_mbps_hours_at(horizon),
            "provisioned_dollars" => fleet.provisioned_dollars_at(horizon),
            "autoscale_ups" => fleet.autoscale_ups() as f64,
            "autoscale_downs" => fleet.autoscale_downs() as f64,
            "final_population" => final_population_by_tenant.iter().sum::<usize>() as f64,
            _ => return None,
        };
        Some(vec![(x, value)])
    }));

    let figure = FigureData {
        id: "tenant_mix".into(),
        title: format!(
            "Tenant mix: {} tenants sharing {} over a Zipf({}) audience of {} for {} minutes \
             ({}, headline tenant bursts {}×)",
            scenario.tenants,
            pool,
            scenario.zipf,
            scenario.viewers,
            scenario.minutes,
            match (scenario.autoscale, scenario.predictive) {
                (true, true) => "predictive autoscale",
                (true, false) => "reactive autoscale",
                (false, _) => "static pools",
            },
            scenario.spike_multiplier,
        ),
        x_label: "seconds (population series) / tenant index (per-tenant) / viewers (scalars)"
            .into(),
        y_label: "per-metric value".into(),
        series,
    };
    TenantMixOutcome {
        figure,
        final_population_by_tenant,
        mean_abs_forecast_error_mbps: fleet.mean_abs_forecast_error_mbps(),
        forecasts_scored: fleet.forecast_errors().len(),
    }
}

/// Rejected / (admitted + rejected), 0 when nothing was attempted.
pub fn bad_join_rate(admitted: u64, rejected: u64) -> f64 {
    let attempts = admitted + rejected;
    if attempts == 0 {
        0.0
    } else {
        rejected as f64 / attempts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(tenants: u32) -> TenantMixScenario {
        TenantMixScenario {
            viewers: 600,
            tenants,
            zipf: 1.0,
            minutes: 10,
            churn_per_minute: 0.3,
            amplitude: 0.5,
            spike_multiplier: 6.0,
            backend: DelayModelChoice::Dense,
            seed: 43,
            pool_mbps: Some(400),
            autoscale: true,
            predictive: true,
        }
    }

    #[test]
    fn zipf_split_conserves_and_orders() {
        let sizes = zipf_split(10_000, 8, 1.0);
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
        for pair in sizes.windows(2) {
            assert!(pair[0] >= pair[1], "split not non-increasing: {sizes:?}");
        }
        assert!(sizes.iter().all(|&s| s > 0));
        // Degenerate splits stay total-preserving.
        assert_eq!(zipf_split(3, 3, 2.0).iter().sum::<usize>(), 3);
        assert_eq!(zipf_split(100, 1, 1.0), vec![100]);
    }

    #[test]
    fn quotas_never_oversubscribe_floors() {
        for m in 1..=64u32 {
            let q = tenant_quota(m);
            q.validate();
            assert!(
                q.floor_percent * m <= 100,
                "floors oversubscribed at {m} tenants"
            );
        }
        assert_eq!(tenant_quota(1), TenantQuota::FULL);
    }

    #[test]
    fn mix_runs_and_exports_per_tenant_series() {
        let outcome = run_tenant_mix(&small(3));
        let figure = &outcome.figure;
        assert_eq!(figure.find("audience_by_tenant").unwrap().points.len(), 3);
        assert!(outcome.final_population_by_tenant.iter().all(|&p| p > 0));
        assert!(figure.scalar("acceptance_spread").unwrap() >= 0.0);
        assert!(figure.scalar("provisioned_mbps_hours").unwrap() > 0.0);
        let labels: Vec<&str> = outcome
            .figure
            .series
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        for wanted in [
            "population_tenant_0",
            "population_tenant_2",
            "acceptance_by_tenant",
            "bad_join_rate_by_tenant",
            "served_mbps_hours_by_tenant",
            "acceptance_spread",
            "provisioned_mbps_hours",
        ] {
            assert!(labels.contains(&wanted), "missing series {wanted}");
        }
    }

    #[test]
    fn outcome_is_seed_deterministic() {
        let a = run_tenant_mix(&small(3));
        let b = run_tenant_mix(&small(3));
        assert_eq!(a, b);
        assert_eq!(a.figure.to_json(), b.figure.to_json());
    }
}
