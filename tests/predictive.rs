//! Cross-crate guarantees of predictive per-region autoscaling: on the
//! same seed, the forecast-driven controller admits more of a spike
//! storm (fewer rejected/retried joins) at no more provisioned
//! Mbps-hours than the reactive utilisation band; the per-region pool
//! split conserves the global pool; and the single-slot (global-scope)
//! configuration reproduces the pre-split provisioned series exactly.

use std::sync::OnceLock;

use telecast::{SessionConfig, TelecastSession};
use telecast_bench::{run_churn, ChurnOutcome, ChurnPreset, ChurnScenario};
use telecast_cdn::{split_capacity, AutoscalePolicy, PoolScope};
use telecast_net::{Bandwidth, Region};
use telecast_sim::SimTime;

/// The conformance storm: a small spike-storm instance (dense backend,
/// 400 steady viewers) with the scenario's default burst schedule and a
/// post-burst trough tail.
fn storm(predictive: bool) -> ChurnScenario {
    ChurnScenario {
        viewers: 400,
        minutes: 30,
        churn_per_minute: 0.3,
        backend: telecast::DelayModelChoice::Dense,
        seed: 61,
        pool_mbps: Some(1_600),
        autoscale: true,
        predictive,
        ..ChurnScenario::preset(ChurnPreset::SpikeStorm)
    }
}

/// The predictive run several tests assert against, computed once (the
/// debug-build spike run is the expensive part of this suite).
fn predictive_outcome() -> &'static ChurnOutcome {
    static OUTCOME: OnceLock<ChurnOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| run_churn(&storm(true)))
}

/// The exported scalar `label`.
fn scalar(outcome: &ChurnOutcome, label: &str) -> f64 {
    outcome.figure.scalar(label).expect(label)
}

/// The exported per-region provisioned series, in region order.
fn provisioned_by_region(outcome: &ChurnOutcome) -> Vec<(String, &[(f64, f64)])> {
    Region::ALL
        .iter()
        .filter_map(|region| {
            let label = format!("provisioned_mbps_{region}");
            let series = outcome.figure.find(&label)?;
            Some((label, series.points.as_slice()))
        })
        .collect()
}

/// The tentpole's acceptance bar: on equal seeds, predictive beats
/// reactive on rejected+retried joins at equal-or-lower provisioned
/// Mbps-hours.
#[test]
fn predictive_beats_reactive_on_the_same_seed() {
    let reactive = run_churn(&storm(false));
    let predictive = predictive_outcome();

    let bad = |o| scalar(o, "rejected_joins") + scalar(o, "join_retries");
    let (reactive_bad, predictive_bad) = (bad(&reactive), bad(predictive));
    assert!(
        predictive_bad < reactive_bad,
        "predictive {predictive_bad} rejected+retried should beat reactive {reactive_bad}"
    );
    let (predictive_rho, reactive_rho) = (
        scalar(predictive, "acceptance_ratio"),
        scalar(&reactive, "acceptance_ratio"),
    );
    assert!(
        predictive_rho >= reactive_rho,
        "predictive ρ {predictive_rho:.3} fell below reactive ρ {reactive_rho:.3}"
    );
    let (predictive_cost, reactive_cost) = (
        scalar(predictive, "provisioned_mbps_hours"),
        scalar(&reactive, "provisioned_mbps_hours"),
    );
    assert!(
        predictive_cost <= reactive_cost,
        "predictive cost {predictive_cost:.0} Mbps-h exceeds reactive {reactive_cost:.0} Mbps-h"
    );
    // Both controllers actually scaled, and the predictive one also
    // released capacity (the reactive laggard's blind spot).
    assert!(scalar(&reactive, "autoscale_ups") > 0.0);
    assert!(scalar(predictive, "autoscale_ups") > 0.0);
    assert!(
        scalar(predictive, "autoscale_downs") > scalar(&reactive, "autoscale_downs"),
        "the forecast never released capacity ahead of the troughs"
    );
    assert_eq!(predictive.retry_queue_len, 0, "parked joins never drained");
}

/// The spike-storm export is pure in the seed.
#[test]
fn spike_storm_json_is_byte_identical_per_seed() {
    let a = predictive_outcome().figure.to_json();
    let b = run_churn(&storm(true)).figure.to_json();
    assert_eq!(a, b, "same-seed spike exports diverged");
    let c = run_churn(&ChurnScenario {
        seed: 62,
        ..storm(true)
    })
    .figure
    .to_json();
    assert_ne!(a, c, "different seeds produced identical exports");
}

/// Per-region pools carry one provisioned series per region, and the
/// series respect the weight split at the start of the run.
#[test]
fn per_region_series_start_at_the_weight_split() {
    let by_region = provisioned_by_region(predictive_outcome());
    assert_eq!(by_region.len(), Region::ALL.len());
    let slots = split_capacity(Bandwidth::from_mbps(1_600), PoolScope::PerRegion);
    for (slot, (label, points)) in by_region.iter().enumerate() {
        let first = points.first().expect("series sampled").1;
        assert_eq!(
            first,
            slots[slot].as_mbps_f64(),
            "series {label} does not start at the region's split share"
        );
    }
    // Conservation at t=0: the per-region shares sum to the global pool.
    let sum: f64 = by_region
        .iter()
        .map(|(_, points)| points.first().unwrap().1)
        .sum();
    assert_eq!(sum, 1_600.0);
}

/// In the single-region (global-scope) configuration, the per-slot
/// provisioned series IS the aggregate series — the pre-split behaviour
/// reproduced exactly, point for point.
#[test]
fn single_slot_series_reproduces_the_global_series() {
    let policy = AutoscalePolicy::for_pool(Bandwidth::from_mbps(150), Bandwidth::from_mbps(2_400));
    let config = SessionConfig::default()
        .with_cdn(
            telecast_cdn::CdnConfig::default()
                .with_outbound(Bandwidth::from_mbps(150))
                .with_pool_scope(PoolScope::Global),
        )
        .with_monitor_period(telecast_sim::SimDuration::from_secs(10))
        .with_autoscale(policy)
        .with_seed(7);
    let mut session = TelecastSession::builder(config).viewers(300).build();
    session.start_churn(
        telecast_media::ChurnSpec::steady_state(300, 0.3),
        SimTime::from_secs(600),
        300,
    );
    session.run_until(SimTime::from_secs(600));
    let m = session.metrics();
    assert_eq!(m.provisioned_by_slot.len(), 1, "global scope has one slot");
    assert!(
        m.autoscale_ups.value() > 0,
        "the under-provisioned pool never scaled"
    );
    // Every aggregate sample appears in the slot series with the same
    // value (the slot series may carry extra monitor samples between
    // scale actions, but never a different value for the same instant).
    let slot = &m.provisioned_by_slot[0];
    for &(at, value) in m.provisioned_cdn_mbps.points() {
        let matching = slot
            .points()
            .iter()
            .rev()
            .find(|&&(slot_at, _)| slot_at <= at)
            .map(|&(_, v)| v);
        assert_eq!(
            matching,
            Some(value),
            "slot series diverged from the aggregate at t={at:?}"
        );
    }
}
