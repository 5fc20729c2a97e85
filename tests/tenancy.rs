//! Multi-tenancy conformance: the capacity broker's conservation and
//! fairness invariants, noisy-neighbour isolation under the tenant-mix
//! scenario, consolidation efficiency against statically-split pools,
//! and byte-identity of the single-tenant broker path against the
//! committed scenario artifacts.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use telecast::{DelayModelChoice, TenantFleet};
use telecast_bench::{
    autoscale_policy_for, run_churn, run_tenant_mix, tenant_config, tenant_quota, zipf_split,
    ChurnPreset, ChurnScenario, TenantMixScenario,
};
use telecast_cdn::{CapacityBroker, CdnConfig, CdnLease, PoolScope, TenantId, TenantQuota};
use telecast_media::ChurnSpec;
use telecast_net::{Bandwidth, Region};
use telecast_sim::{SimDuration, SimTime};

/// The repository's committed `results/` directory.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

// ---------------------------------------------------------------------
// Broker conservation — property test
// ---------------------------------------------------------------------

proptest! {
    /// Under any interleaving of quota-checked serves and releases
    /// across three tenants and every region, the broker's per-tenant
    /// ledgers always sum to exactly the pool-slot usage, nobody
    /// exceeds their ceiling, and releasing everything restores the
    /// pools to empty.
    #[test]
    fn broker_conserves_capacity_under_any_traffic(
        ops in proptest::collection::vec(
            (0u32..3, 0usize..5, 1u64..40_000, any::<bool>()),
            1..120,
        )
    ) {
        let mut broker = CapacityBroker::new(
            CdnConfig::default()
                .with_outbound(Bandwidth::from_mbps(500))
                .with_pool_scope(PoolScope::PerRegion),
        );
        let tenants: Vec<TenantId> = [
            TenantQuota { floor_percent: 20, ceiling_percent: 70 },
            TenantQuota { floor_percent: 30, ceiling_percent: 100 },
            TenantQuota { floor_percent: 10, ceiling_percent: 40 },
        ]
        .into_iter()
        .map(|q| broker.register(q))
        .collect();
        let mut held: Vec<CdnLease> = Vec::new();

        for &(t, r, kbps, is_serve) in &ops {
            let tenant = tenants[t as usize];
            let region = Region::ALL[r];
            if is_serve || held.is_empty() {
                let bw = Bandwidth::from_kbps(kbps);
                let admissible = broker.can_serve_in(tenant, bw, region);
                match broker.serve(tenant, bw, region) {
                    Ok(lease) => {
                        prop_assert!(admissible, "serve admitted what can_serve_in refused");
                        held.push(lease);
                    }
                    Err(_) => prop_assert!(!admissible, "serve refused what can_serve_in admitted"),
                }
            } else {
                // Deterministic pick: drain from the middle.
                let lease = held.remove(held.len() / 2);
                broker.release(lease);
            }

            // Conservation: tenant ledgers sum to the slot usage…
            for slot in 0..broker.cdn().pool_slots() {
                let by_tenant: u64 = tenants
                    .iter()
                    .map(|&t| broker.used_kbps(t, slot))
                    .sum();
                prop_assert_eq!(by_tenant, broker.cdn().pool(slot).used().as_kbps());
                // …and no tenant exceeds its ceiling share of the slot.
                for &tid in &tenants {
                    let cap = u128::from(broker.cdn().pool(slot).total().as_kbps())
                        * u128::from(broker.quota(tid).ceiling_percent)
                        / 100;
                    prop_assert!(u128::from(broker.used_kbps(tid, slot)) <= cap);
                }
            }
        }

        for lease in held.drain(..) {
            broker.release(lease);
        }
        for slot in 0..broker.cdn().pool_slots() {
            prop_assert_eq!(broker.cdn().pool(slot).used().as_kbps(), 0);
        }
    }
}

// ---------------------------------------------------------------------
// Isolation and efficiency — the tenant-mix headline
// ---------------------------------------------------------------------

fn mix_scenario() -> TenantMixScenario {
    TenantMixScenario {
        viewers: 600,
        tenants: 3,
        zipf: 1.0,
        minutes: 10,
        churn_per_minute: 0.3,
        amplitude: 0.5,
        spike_multiplier: 6.0,
        backend: DelayModelChoice::Dense,
        seed: 47,
        pool_mbps: Some(6000),
        autoscale: true,
        predictive: true,
    }
}

/// Runs tenant `index` of the mix *alone* on a statically-split slice
/// of the shared pool (`1/M`-th of capacity and of the controller's
/// band), on the same seed and churn workload it gets inside the mix.
/// Returns (bad-join rate, provisioned Mbps-hours, served Mbps-hours).
fn run_solo(scenario: &TenantMixScenario, index: usize, audience: usize) -> (f64, f64, f64) {
    let m = scenario.tenants as u64;
    let slice = Bandwidth::from_kbps(scenario.pool().as_kbps() / m);
    let gateways = (audience * 2).max(2);
    let mut config = tenant_config(scenario, index).with_cdn(
        CdnConfig::default()
            .with_outbound(slice)
            .with_pool_scope(PoolScope::PerRegion),
    );
    if scenario.autoscale {
        config = config.with_autoscale(autoscale_policy_for(slice, gateways));
    }
    // Reuse the fleet runner with a single FULL tenant so the solo arm
    // goes through exactly the same barrier/controller code path.
    let epoch = config
        .autoscale
        .as_ref()
        .map(|p| p.period)
        .unwrap_or(SimDuration::from_secs(15));
    let mut fleet = TenantFleet::new(&config, epoch);
    let idx = fleet.add_tenant(&config, TenantQuota::FULL, gateways);
    let horizon = SimTime::from_secs(scenario.minutes * 60);
    let spec = ChurnSpec::steady_state(audience, scenario.churn_per_minute)
        .with_rate_profile(scenario.rate_profile(index));
    fleet.session_mut(idx).start_churn(spec, horizon, audience);
    fleet.run_until(horizon);
    let metrics = fleet.session(idx).metrics();
    let attempts = metrics.admitted_viewers.value() + metrics.rejected_viewers.value();
    let bad = if attempts == 0 {
        0.0
    } else {
        metrics.rejected_viewers.value() as f64 / attempts as f64
    };
    (
        bad,
        fleet.provisioned_mbps_hours_at(horizon),
        fleet.served_mbps_hours(idx),
    )
}

#[test]
fn quota_floors_bound_the_noisy_neighbour_and_sharing_beats_static_split() {
    let scenario = mix_scenario();
    let mix = run_tenant_mix(&scenario);
    let per_tenant = |label| &mix.figure.find(label).expect(label).points;
    let audiences = zipf_split(scenario.viewers, scenario.tenants as usize, scenario.zipf);
    let exported: Vec<usize> = per_tenant("audience_by_tenant")
        .iter()
        .map(|&(_, a)| a as usize)
        .collect();
    assert_eq!(exported, audiences);
    let mix_bad_join = per_tenant("bad_join_rate_by_tenant");
    let mix_served = per_tenant("served_mbps_hours_by_tenant");

    // Tenant 0 bursts 6×/9× mid-run; tenants 1.. ride the plain wave.
    // Isolation: each quiet tenant's bad-join rate inside the mix stays
    // within a bounded factor of its solo run on a static 1/M slice —
    // the floor guarantees and fair arbitration keep the burster from
    // starving them (without quotas the burster could take the whole
    // shared pool and push neighbours toward 100% rejects).
    let mut solo_provisioned_total = 0.0;
    let mut solo_served_total = 0.0;
    for (i, &audience) in audiences.iter().enumerate() {
        let (solo_bad, solo_provisioned, solo_served) = run_solo(&scenario, i, audience);
        solo_provisioned_total += solo_provisioned;
        solo_served_total += solo_served;
        eprintln!(
            "tenant {i}: solo bad-join {solo_bad:.4} / mix {:.4}, solo provisioned {solo_provisioned:.1} served {solo_served:.1} / mix served {:.1} Mbps-h",
            mix_bad_join[i].1,
            mix_served[i].1,
        );
        if i == 0 {
            continue; // the burster is the perturbation, not the probe
        }
        let mix_bad = mix_bad_join[i].1;
        let bound = (3.0 * solo_bad).max(0.10);
        assert!(
            mix_bad <= bound,
            "tenant {i}: bad-join rate {mix_bad:.4} in the mix exceeds \
             {bound:.4} (3× its solo rate {solo_bad:.4}, floor 0.10) — \
             the burster leaked through the quota floors"
        );
    }

    // Efficiency: the shared, quota-brokered pools provision fewer
    // Mbps-hours than the M statically-split pools serving the same
    // workloads — consolidation absorbs the burst with capacity the
    // quiet tenants were not using.
    let mix_provisioned = mix.figure.scalar("provisioned_mbps_hours").unwrap();
    assert!(
        mix_provisioned < solo_provisioned_total,
        "shared pools provisioned {mix_provisioned:.1} Mbps-h, statically-split pools \
         {solo_provisioned_total:.1} — consolidation bought nothing"
    );
    // …and not by serving less: the consolidated pools deliver at least
    // the split arms' total served volume (the burster can grow into
    // idle neighbour capacity, so typically more).
    let mix_served_total: f64 = mix_served.iter().map(|&(_, served)| served).sum();
    assert!(
        mix_served_total >= 0.99 * solo_served_total,
        "shared pools served {mix_served_total:.1} Mbps-h vs the split arms' \
         {solo_served_total:.1} — the provisioning win came out of service"
    );
}

#[test]
fn tenant_mix_is_seed_deterministic_and_fair_under_even_quotas() {
    let scenario = TenantMixScenario {
        spike_multiplier: 1.5,
        ..mix_scenario()
    };
    let a = run_tenant_mix(&scenario);
    let b = run_tenant_mix(&scenario);
    assert_eq!(a.figure.to_json(), b.figure.to_json());
    // With a barely-bursting headline tenant, acceptance across tenants
    // should be close — the spread is a fairness figure, not noise.
    let spread = a.figure.scalar("acceptance_spread").unwrap();
    assert!(
        spread < 0.25,
        "acceptance spread {spread:.3} across equal-quota tenants"
    );
    // Quotas for any M never oversubscribe the pool.
    for m in 1..=32 {
        tenant_quota(m).validate();
    }
}

// ---------------------------------------------------------------------
// Byte-identity of the single-tenant broker path
// ---------------------------------------------------------------------

/// The scaled-down replay references: cheap enough for the default
/// (debug) test profile, committed as
/// `results/tenancy_replay_{churn,spike,mix}.json`.
/// The figures' `id` fields still read `churn_storm`/`spike_storm`/
/// `tenant_mix` —
/// they are the same generators at reduced scale; only the file stem
/// marks them as replay references.
fn replay_churn_scenario() -> ChurnScenario {
    ChurnScenario {
        viewers: 600,
        minutes: 3,
        churn_per_minute: 0.02,
        autoscale: true,
        ..ChurnScenario::preset(ChurnPreset::ChurnStorm)
    }
}

fn replay_spike_scenario() -> ChurnScenario {
    ChurnScenario {
        viewers: 500,
        minutes: 10,
        autoscale: true,
        predictive: true,
        ..ChurnScenario::preset(ChurnPreset::SpikeStorm)
    }
}

#[test]
fn single_tenant_broker_replays_the_committed_small_references_byte_identically() {
    let churn = run_churn(&replay_churn_scenario()).figure.to_json();
    let committed = fs::read_to_string(results_dir().join("tenancy_replay_churn.json"))
        .expect("missing results/tenancy_replay_churn.json — run the ignored regenerate test");
    assert_eq!(
        churn, committed,
        "churn replay diverged from the committed reference bytes"
    );

    let spike = run_churn(&replay_spike_scenario());
    let committed = fs::read_to_string(results_dir().join("tenancy_replay_spike.json"))
        .expect("missing results/tenancy_replay_spike.json — run the ignored regenerate test");
    assert_eq!(
        spike.figure.to_json(),
        committed,
        "spike replay diverged from the committed reference bytes"
    );
    // The session's predictive controllers score their forecasts into
    // the metrics, which no committed figure exports: pin them exactly.
    assert_eq!(spike.forecasts_scored, 185);
    assert_eq!(
        spike.mean_abs_forecast_error_mbps.map(f64::to_bits),
        Some(0x4084_2936_466c_5c23),
        "spike forecast error moved: {:?}",
        spike.mean_abs_forecast_error_mbps
    );
}

/// The fleet barrier's shared predictive controllers, pinned: the mix
/// figure byte for byte, plus the scale-action and forecast-scoring
/// figures that the fleet reports beside it.
#[test]
fn tenant_mix_replays_its_committed_reference_and_forecast_figures() {
    let mix = run_tenant_mix(&mix_scenario());
    let committed = fs::read_to_string(results_dir().join("tenancy_replay_mix.json"))
        .expect("missing results/tenancy_replay_mix.json — run the ignored regenerate test");
    assert_eq!(
        mix.figure.to_json(),
        committed,
        "tenant-mix replay diverged from the committed reference bytes"
    );
    let scalar = |label| mix.figure.scalar(label).unwrap();
    assert_eq!(
        (
            scalar("autoscale_ups"),
            scalar("autoscale_downs"),
            mix.forecasts_scored
        ),
        (18.0, 15.0, 185)
    );
    assert_eq!(
        mix.mean_abs_forecast_error_mbps.map(f64::to_bits),
        Some(0x4080_2c68_19b2_0f20),
        "mix forecast error moved: {:?}",
        mix.mean_abs_forecast_error_mbps
    );
}

/// Full-size replay of the committed CI artifacts — the exact scenarios
/// the scenario-matrix runs (`churn_storm --viewers 20000 --minutes 5`,
/// `spike_storm --viewers 10000 --minutes 15 --autoscale --predictive`).
/// Minutes of work unoptimised, so opt in with
/// `cargo test --release -p telecast-conformance --test tenancy -- --ignored`.
#[test]
#[ignore = "full-size replay; run in release"]
fn single_tenant_broker_replays_the_committed_ci_artifacts_byte_identically() {
    let churn = run_churn(&ChurnScenario {
        viewers: 20_000,
        minutes: 5,
        ..ChurnScenario::preset(ChurnPreset::ChurnStorm)
    })
    .figure
    .to_json();
    let committed = fs::read_to_string(results_dir().join("churn_storm.json")).unwrap();
    assert_eq!(churn, committed, "results/churn_storm.json diverged");

    let spike = run_churn(&ChurnScenario {
        viewers: 10_000,
        minutes: 15,
        autoscale: true,
        predictive: true,
        ..ChurnScenario::preset(ChurnPreset::SpikeStorm)
    })
    .figure
    .to_json();
    let committed = fs::read_to_string(results_dir().join("spike_storm.json")).unwrap();
    assert_eq!(spike, committed, "results/spike_storm.json diverged");
}

/// Regenerates the small replay references. Run after an *intentional*
/// behaviour change, then commit the three files:
/// `cargo test --release -p telecast-conformance --test tenancy -- --ignored regenerate`
#[test]
#[ignore = "writes the committed replay references"]
fn regenerate_small_replay_references() {
    let dir = results_dir();
    fs::write(
        dir.join("tenancy_replay_churn.json"),
        run_churn(&replay_churn_scenario()).figure.to_json(),
    )
    .unwrap();
    fs::write(
        dir.join("tenancy_replay_spike.json"),
        run_churn(&replay_spike_scenario()).figure.to_json(),
    )
    .unwrap();
    fs::write(
        dir.join("tenancy_replay_mix.json"),
        run_tenant_mix(&mix_scenario()).figure.to_json(),
    )
    .unwrap();
}
