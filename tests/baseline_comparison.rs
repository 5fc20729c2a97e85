//! Comparative invariants between 4D TeleCast and its baselines — the
//! qualitative claims behind Figure 15 and the ablations, asserted on
//! identical workloads.

use telecast::{OutboundPolicy, SessionConfig, TelecastSession};
use telecast_baselines::{
    equal_split_outbound, fifo_placement, no_layering, priority_first_outbound,
    random_dissemination,
};
use telecast_cdn::CdnConfig;
use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimRng};

struct Outcome {
    acceptance: f64,
    effective_bw: f64,
    mean_depth: f64,
    mean_streams: f64,
}

fn run(config: SessionConfig, viewers: usize) -> Outcome {
    let mut session = TelecastSession::builder(config).viewers(viewers).build();
    let mut rng = SimRng::seed_from_u64(77);
    let workload = ViewerWorkload::builder(viewers, 8)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(25),
        })
        .view_choice(ViewChoice::Zipf { s: 0.8 })
        .build(&mut rng);
    session.run_workload(&workload);
    let per_viewer = session.streams_per_viewer();
    let admitted: Vec<_> = per_viewer.iter().filter(|&&n| n > 0).collect();
    Outcome {
        acceptance: session.metrics().acceptance_ratio(),
        effective_bw: session.effective_bandwidth_ratio(),
        mean_depth: session.mean_tree_depth(),
        mean_streams: if admitted.is_empty() {
            0.0
        } else {
            admitted.iter().copied().sum::<usize>() as f64 / admitted.len() as f64
        },
    }
}

fn tight_config(seed: u64) -> SessionConfig {
    SessionConfig::default()
        .with_seed(seed)
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(900)))
}

#[test]
fn telecast_beats_random_on_acceptance() {
    let telecast = run(tight_config(1), 150);
    let random = run(random_dissemination(tight_config(1)), 150);
    assert!(
        telecast.acceptance > random.acceptance,
        "TeleCast {} must beat Random {}",
        telecast.acceptance,
        random.acceptance
    );
    // The paper's gap at scale is ~10-20 points; require a visible gap.
    assert!(
        telecast.acceptance - random.acceptance > 0.03,
        "gap too small: {} vs {}",
        telecast.acceptance,
        random.acceptance
    );
    // TeleCast actually builds P2P dissemination trees (depth 0 would mean
    // everyone hangs off the CDN and the comparison is vacuous).
    assert!(
        telecast.mean_depth > 0.0,
        "TeleCast mean tree depth was {}",
        telecast.mean_depth
    );
}

#[test]
fn push_down_grants_incentive_depths() {
    // The paper's Overlay Property: viewers engaging more outbound
    // bandwidth end up closer to the root (lower delay) — the incentive
    // to contribute. Compare mean tree depth of strong (≥ 10 Mbps) vs
    // weak (≤ 4 Mbps) contributors under push-down.
    let config = tight_config(3);
    let mut session = TelecastSession::builder(config).viewers(150).build();
    let mut rng = SimRng::seed_from_u64(77);
    let workload = ViewerWorkload::builder(150, 8)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(25),
        })
        .view_choice(ViewChoice::Zipf { s: 0.8 })
        .build(&mut rng);
    session.run_workload(&workload);

    let mut strong = Vec::new();
    let mut weak = Vec::new();
    for &v in session.viewer_ids() {
        let state = session.viewer(v).unwrap();
        let depths = session.viewer_tree_depths(v);
        if depths.is_empty() {
            continue;
        }
        let mean = depths.iter().sum::<usize>() as f64 / depths.len() as f64;
        let obw = state.ports.outbound.total();
        if obw >= Bandwidth::from_mbps(10) {
            strong.push(mean);
        } else if obw <= Bandwidth::from_mbps(4) {
            weak.push(mean);
        }
    }
    assert!(
        !strong.is_empty() && !weak.is_empty(),
        "both cohorts populated"
    );
    let strong_mean = strong.iter().sum::<f64>() / strong.len() as f64;
    let weak_mean = weak.iter().sum::<f64>() / weak.len() as f64;
    assert!(
        strong_mean < weak_mean,
        "strong contributors ({strong_mean:.2}) should sit above weak ones ({weak_mean:.2})"
    );
}

#[test]
fn outbound_policies_express_fig8_tradeoff() {
    // Squeeze the CDN so the P2P allocation policy decides outcomes.
    // Round-robin's design goal is the middle of Fig. 8's trade-off:
    // maximum *total* accepted streams. Priority-first starves every
    // non-top tree of P2P slots (with 2 Mbps streams the remainder never
    // fits a second stream), so once the CDN pool binds, later viewers
    // fail site coverage and are rejected outright; equal-split wastes
    // fragmented capacity. Round-robin must dominate both on acceptance.
    let squeeze = |c: SessionConfig| {
        c.with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(450)))
    };
    let rr = run(squeeze(tight_config(4)), 150);
    let pf = run(priority_first_outbound(squeeze(tight_config(4))), 150);
    let es = run(equal_split_outbound(squeeze(tight_config(4))), 150);
    assert!(
        rr.acceptance + 1e-9 >= pf.acceptance,
        "round-robin ({}) must accept at least as much as priority-first ({})",
        rr.acceptance,
        pf.acceptance
    );
    assert!(
        rr.acceptance + 1e-9 >= es.acceptance,
        "round-robin ({}) must accept at least as much as equal-split ({})",
        rr.acceptance,
        es.acceptance
    );
    // The other side of the trade-off: among the viewers each policy
    // admits, priority-first's survivors enjoy full views (they joined
    // while the CDN could still top them up).
    assert!(
        pf.mean_streams >= rr.mean_streams - 1.5,
        "priority-first quality {} collapsed below round-robin {}",
        pf.mean_streams,
        rr.mean_streams
    );
}

#[test]
fn layering_preserves_effective_bandwidth() {
    let mut slow_hops = tight_config(5).with_cdn(CdnConfig::unbounded());
    slow_hops.hop_processing = SimDuration::from_millis(250);
    let with = run(slow_hops.clone(), 150);
    let without = run(no_layering(slow_hops), 150);
    assert!(
        (with.effective_bw - 1.0).abs() < 1e-9,
        "layering keeps 100%"
    );
    assert!(
        without.effective_bw < with.effective_bw,
        "no-layering must lose effective bandwidth: {} vs {}",
        without.effective_bw,
        with.effective_bw
    );
}

#[test]
fn all_policies_accept_everyone_when_resources_abound() {
    // With an unbounded CDN every scheme reaches ρ = 1 — the comparison
    // only separates them under scarcity.
    let lavish = SessionConfig::default()
        .with_seed(6)
        .with_outbound(BandwidthProfile::fixed_mbps(10))
        .with_cdn(CdnConfig::unbounded());
    for config in [
        lavish.clone(),
        random_dissemination(lavish.clone()),
        fifo_placement(lavish.clone()),
        {
            let mut c = lavish.clone();
            c.outbound_policy = OutboundPolicy::EqualSplit;
            c
        },
    ] {
        let outcome = run(config, 80);
        assert!(
            (outcome.acceptance - 1.0).abs() < 1e-9,
            "expected ρ=1, got {}",
            outcome.acceptance
        );
    }
}
