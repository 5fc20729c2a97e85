//! Property-based tests of the core algorithms: allocation invariants,
//! layer-scheme algebra, and whole-session invariants under randomized
//! small workloads.

use proptest::prelude::*;
use telecast::alloc::{covers_all_sites, InboundPlan, OutboundPlan};
use telecast::{LayerScheme, OutboundPolicy, SessionConfig, TelecastSession, ViewerStatus};
use telecast_media::{PrioritizedStream, SiteId, StreamId, ViewId};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_overlay::TreeParent;
use telecast_sim::SimDuration;

fn arb_streams() -> impl Strategy<Value = Vec<PrioritizedStream>> {
    proptest::collection::vec((0u16..3, 500u64..4_000), 1..10).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (site, kbps))| PrioritizedStream {
                stream: StreamId::new(SiteId::new(site), i as u16),
                df: 1.0 - 0.05 * i as f64,
                eta: i as u32 + 1,
                bitrate_kbps: kbps,
            })
            .collect()
    })
}

proptest! {
    /// Inbound allocation accepts a prefix, never overshoots capacity,
    /// and is monotone in capacity.
    #[test]
    fn inbound_is_prefix_and_capacity_bounded(
        streams in arb_streams(),
        capacity in 0u64..30_000,
    ) {
        let cap = Bandwidth::from_kbps(capacity);
        let mut plan = InboundPlan::default();
        plan.allocate(&streams, cap, |_, _| true);
        prop_assert!(plan.inbound_used <= cap);
        prop_assert!(plan.accepted.len() <= streams.len());
        for (a, b) in plan.accepted.iter().zip(streams.iter()) {
            prop_assert_eq!(a.stream, b.stream, "accepted set must be a prefix");
        }
        // Monotone: more capacity never accepts fewer streams. The
        // refill reuses the plan and must equal a fresh one.
        let accepted = plan.accepted.len();
        plan.allocate(&streams, Bandwidth::from_kbps(capacity + 2_000), |_, _| true);
        prop_assert!(plan.accepted.len() >= accepted);
        let mut fresh = InboundPlan::default();
        fresh.allocate(&streams, Bandwidth::from_kbps(capacity + 2_000), |_, _| true);
        prop_assert_eq!(&plan, &fresh);
    }

    /// Round-robin outbound never overshoots capacity, leaves less than
    /// the smallest stream rate unused, and every policy stays within
    /// capacity — for any mix of stream rates.
    #[test]
    fn outbound_policies_respect_capacity(
        streams in arb_streams(),
        capacity in 0u64..60_000,
    ) {
        let cap = Bandwidth::from_kbps(capacity);
        let mut plan = OutboundPlan::default();
        plan.allocate(&streams, cap, OutboundPolicy::RoundRobin);
        prop_assert!(plan.outbound_used <= cap);
        // Round-robin is exhaustive: what remains fits no stream.
        let leftover = cap - plan.outbound_used;
        let min_bw = streams.iter().map(|s| s.bitrate_kbps).min().unwrap_or(0);
        prop_assert!(leftover.as_kbps() < min_bw.max(1));
        // Each policy refills the same plan, which must equal a fresh one.
        for policy in [OutboundPolicy::PriorityFirst, OutboundPolicy::EqualSplit] {
            plan.allocate(&streams, cap, policy);
            prop_assert!(plan.outbound_used <= cap);
            let mut fresh = OutboundPlan::default();
            fresh.allocate(&streams, cap, policy);
            prop_assert_eq!(&plan, &fresh);
        }
    }

    /// With uniform stream rates (every 3DTI camera encodes at the same
    /// bitrate), round-robin guarantees the Overlay Property's premise:
    /// allocated outbound is non-increasing along the priority order and
    /// slot counts differ by at most one.
    #[test]
    fn round_robin_monotone_for_uniform_rates(
        count in 1usize..10,
        bitrate in 500u64..4_000,
        capacity in 0u64..60_000,
    ) {
        let streams: Vec<PrioritizedStream> = (0..count)
            .map(|i| PrioritizedStream {
                stream: StreamId::new(SiteId::new((i % 2) as u16), i as u16),
                df: 1.0 - 0.05 * i as f64,
                eta: i as u32 + 1,
                bitrate_kbps: bitrate,
            })
            .collect();
        let cap = Bandwidth::from_kbps(capacity);
        let mut rr = OutboundPlan::default();
        rr.allocate(&streams, cap, OutboundPolicy::RoundRobin);
        let degs: Vec<u32> = rr.slots.iter().map(|&(_, d)| d).collect();
        for w in degs.windows(2) {
            prop_assert!(w[0] >= w[1], "slot monotonicity violated: {degs:?}");
        }
        let (lo, hi) = (degs.iter().min().unwrap(), degs.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "round-robin spread exceeds one: {degs:?}");
        // Under uniform rates, round-robin also uses at least as much
        // capacity as equal-split (which wastes per-stream remainders).
        let mut es = OutboundPlan::default();
        es.allocate(&streams, cap, OutboundPolicy::EqualSplit);
        prop_assert!(rr.outbound_used >= es.outbound_used);
    }

    /// Site coverage is exactly "every site index appears".
    #[test]
    fn site_coverage_definition(streams in arb_streams(), sites in 1usize..4) {
        let covered = covers_all_sites(&streams, sites);
        let mut seen = vec![false; sites];
        for s in &streams {
            if s.stream.site().index() < sites {
                seen[s.stream.site().index()] = true;
            }
        }
        prop_assert_eq!(covered, seen.iter().all(|&b| b));
    }

    /// Layer scheme algebra: layer_of_delay inverts delay_at_top_of, and
    /// push-down yields spreads ≤ κ while never lowering any layer.
    #[test]
    fn layer_scheme_algebra(
        dbuff_ms in 100u64..1_000,
        kappa in 2u64..8,
        layers in proptest::collection::vec(0u64..40, 1..12),
    ) {
        let scheme = LayerScheme::new(
            SimDuration::from_secs(60),
            SimDuration::from_millis(dbuff_ms),
            kappa,
            SimDuration::from_secs(90),
        );
        for l in 0..scheme.max_layer() {
            prop_assert_eq!(scheme.layer_of_delay(scheme.delay_at_top_of(l)), l);
        }
        let mut pushed = layers.clone();
        scheme.push_down(&mut pushed);
        let hi = *pushed.iter().max().unwrap();
        let lo = *pushed.iter().min().unwrap();
        prop_assert!(hi - lo <= kappa);
        prop_assert_eq!(hi, *layers.iter().max().unwrap(), "deepest layer unchanged");
        for (before, after) in layers.iter().zip(pushed.iter()) {
            prop_assert!(after >= before, "push-down never raises a stream earlier");
        }
    }

    /// Whole-session invariant under random joins: whatever the seed,
    /// outbound profile and view spread, every connected viewer satisfies
    /// site coverage, the κ bound, and has live upstreams.
    #[test]
    fn session_invariants_hold_for_random_populations(
        seed in 0u64..1_000,
        lo in 0u64..6,
        spread in 0u64..9,
        viewers in 5usize..40,
    ) {
        let config = SessionConfig::default()
            .with_seed(seed)
            .with_outbound(BandwidthProfile::Uniform {
                lo: Bandwidth::from_mbps(lo),
                hi: Bandwidth::from_mbps(lo + spread),
            });
        let mut session = TelecastSession::builder(config).viewers(viewers).build();
        let ids = session.viewer_ids().to_vec();
        for (i, &v) in ids.iter().enumerate() {
            session.request_join(v, ViewId::new((i % 8) as u32)).expect("valid");
        }
        session.run_to_idle();
        let kappa = session.scheme().kappa();
        let sites = session.config().sites.len();
        for &v in &ids {
            let state = session.viewer(v).unwrap();
            if state.status != ViewerStatus::Connected {
                continue;
            }
            // Site coverage (admission constraint).
            let mut seen = vec![false; sites];
            for sid in state.subs.keys() {
                seen[sid.site().index()] = true;
            }
            prop_assert!(seen.iter().all(|&b| b), "viewer {v} missing a site");
            // κ bound.
            if let (Some(lo), Some(hi)) = (state.layers().min(), state.layers().max()) {
                prop_assert!(hi - lo <= kappa);
            }
            // Upstreams live; CDN parents hold leases.
            for sub in state.subs.values() {
                match sub.parent {
                    TreeParent::Cdn => prop_assert!(sub.lease.is_some()),
                    TreeParent::Viewer(p) => {
                        prop_assert_eq!(
                            session.viewer(p).unwrap().status,
                            ViewerStatus::Connected
                        );
                    }
                }
            }
        }
    }
}
