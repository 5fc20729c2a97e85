//! Behavioural tests of the full session: admission, overlay shape,
//! synchronization bounds, view changes, departures and victim recovery.

use telecast::{
    DelayModelChoice, OutboundPolicy, PlacementStrategy, SessionConfig, TelecastError,
    TelecastSession, ViewerStatus,
};
use telecast_cdn::CdnConfig;
use telecast_media::{
    ArrivalModel, ChurnSpec, ProducerSite, SiteId, ViewChoice, ViewId, ViewerWorkload,
};
use telecast_net::{Bandwidth, BandwidthProfile, NodeKind};
use telecast_overlay::TreeParent;
use telecast_sim::{SimDuration, SimRng, SimTime};

fn small_config() -> SessionConfig {
    SessionConfig::default().with_seed(7)
}

fn join_all(session: &mut TelecastSession, view: ViewId) {
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, view).expect("join accepted");
    }
    session.run_to_idle();
}

#[test]
fn all_viewers_accepted_with_generous_bandwidth() {
    let config = small_config().with_outbound(BandwidthProfile::fixed_mbps(10));
    let mut session = TelecastSession::builder(config).viewers(40).build();
    join_all(&mut session, ViewId::new(0));
    assert_eq!(session.metrics().admitted_viewers.value(), 40);
    assert_eq!(session.metrics().rejected_viewers.value(), 0);
    assert!((session.metrics().acceptance_ratio() - 1.0).abs() < 1e-9);
    // Every viewer got all 6 streams of the view.
    for &v in session.viewer_ids() {
        assert_eq!(session.viewer(v).unwrap().stream_count(), 6);
    }
}

#[test]
fn zero_outbound_makes_everything_cdn_served() {
    let config = small_config().with_outbound(BandwidthProfile::fixed_mbps(0));
    let mut session = TelecastSession::builder(config).viewers(30).build();
    join_all(&mut session, ViewId::new(0));
    // No P2P capacity at all: every accepted stream has a CDN parent.
    assert!((session.cdn_stream_fraction() - 1.0).abs() < 1e-9);
    // 30 viewers × 6 streams × 2 Mbps = 360 Mbps from the CDN.
    assert_eq!(session.cdn().outbound().used(), Bandwidth::from_mbps(360));
}

#[test]
fn capped_cdn_rejects_overflow_without_p2p() {
    // CDN fits only 36 streams (72 Mbps / 2), i.e. 6 viewers.
    let config = small_config()
        .with_outbound(BandwidthProfile::fixed_mbps(0))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(72)));
    let mut session = TelecastSession::builder(config).viewers(10).build();
    join_all(&mut session, ViewId::new(0));
    assert_eq!(session.metrics().admitted_viewers.value(), 6);
    assert_eq!(session.metrics().rejected_viewers.value(), 4);
    let expected = 36.0 / 60.0;
    assert!((session.metrics().acceptance_ratio() - expected).abs() < 1e-9);
    // Rejected viewers hold no resources.
    let zero_stream_viewers = session
        .streams_per_viewer()
        .into_iter()
        .filter(|&n| n == 0)
        .count();
    assert_eq!(zero_stream_viewers, 4);
}

#[test]
fn p2p_contribution_reduces_cdn_load() {
    let base = small_config().with_cdn(CdnConfig::unbounded());
    let mut cdn_only =
        TelecastSession::builder(base.clone().with_outbound(BandwidthProfile::fixed_mbps(0)))
            .viewers(60)
            .build();
    join_all(&mut cdn_only, ViewId::new(0));

    let mut hybrid = TelecastSession::builder(base.with_outbound(BandwidthProfile::fixed_mbps(8)))
        .viewers(60)
        .build();
    join_all(&mut hybrid, ViewId::new(0));

    let cdn_only_mbps = cdn_only.cdn().outbound().used().as_mbps_f64();
    let hybrid_mbps = hybrid.cdn().outbound().used().as_mbps_f64();
    assert!(
        hybrid_mbps < cdn_only_mbps / 2.0,
        "8 Mbps of per-viewer upload should halve CDN load: {hybrid_mbps} vs {cdn_only_mbps}"
    );
    assert!((hybrid.metrics().acceptance_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn sync_bound_holds_for_every_connected_viewer() {
    let config = small_config().with_outbound(BandwidthProfile::uniform_mbps(0, 12));
    let mut session = TelecastSession::builder(config).viewers(80).build();
    // Spread over several views.
    let ids = session.viewer_ids().to_vec();
    for (i, v) in ids.iter().enumerate() {
        session
            .request_join(*v, ViewId::new((i % 8) as u32))
            .expect("valid request");
    }
    session.run_to_idle();
    let kappa = session.scheme().kappa();
    for &v in &ids {
        let state = session.viewer(v).unwrap();
        if state.status != ViewerStatus::Connected || state.subs.is_empty() {
            continue;
        }
        let min = state.layers().min().unwrap();
        let max = state.layers().max().unwrap();
        assert!(
            max - min <= kappa,
            "viewer {v} violates the κ bound: layers {min}..{max}"
        );
        // Layer Property 2 ⇒ inter-stream effective delay ≤ dbuff.
        let e2es: Vec<_> = state.subs.values().map(|s| s.e2e).collect();
        let lo = e2es.iter().min().unwrap();
        let hi = e2es.iter().max().unwrap();
        assert!(
            *hi - *lo <= session.config().dbuff,
            "viewer {v} skew {:?} exceeds dbuff",
            *hi - *lo
        );
    }
    assert!((session.effective_bandwidth_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn no_layering_ablation_loses_effective_bandwidth() {
    let mut config = small_config().with_outbound(BandwidthProfile::uniform_mbps(0, 12));
    config.layering_enabled = false;
    // Large per-hop processing makes deep trees drift far apart.
    config.hop_processing = SimDuration::from_millis(200);
    let mut session = TelecastSession::builder(config).viewers(120).build();
    join_all(&mut session, ViewId::new(0));
    let ratio = session.effective_bandwidth_ratio();
    assert!(
        ratio < 1.0,
        "without layering some delivered bandwidth must be ineffective, got {ratio}"
    );
}

#[test]
fn join_delays_are_sub_second_scale() {
    let config = small_config();
    let mut session = TelecastSession::builder(config).viewers(50).build();
    join_all(&mut session, ViewId::new(0));
    let h = &session.metrics().join_delays_ms;
    assert_eq!(h.len(), 50);
    let summary = h.summary();
    assert!(summary.min > 50.0, "join needs several network legs");
    assert!(
        summary.max < 3_000.0,
        "join delay {0} ms out of the paper's range",
        summary.max
    );
}

#[test]
fn view_change_is_faster_than_join_and_served_by_cdn() {
    let config = small_config().with_outbound(BandwidthProfile::fixed_mbps(8));
    let mut session = TelecastSession::builder(config).viewers(30).build();
    join_all(&mut session, ViewId::new(0));
    let ids = session.viewer_ids().to_vec();
    for &v in ids.iter().take(10) {
        session
            .request_view_change(v, ViewId::new(1))
            .expect("connected");
    }
    session.run_to_idle();
    let vc = session.metrics().view_change_delays_ms.summary();
    assert_eq!(vc.count, 10);
    let join = session.metrics().join_delays_ms.summary();
    assert!(
        vc.mean < join.mean,
        "view change ({} ms) should beat join ({} ms)",
        vc.mean,
        join.mean
    );
    // After settling, the switchers watch view 1.
    for &v in ids.iter().take(10) {
        let state = session.viewer(v).unwrap();
        assert_eq!(state.view, Some(ViewId::new(1)));
        assert_eq!(state.status, ViewerStatus::Connected);
        assert!(state.temp_leases.is_empty(), "temp CDN serves released");
        assert!(state.stream_count() > 0);
    }
}

#[test]
fn departures_recover_orphans() {
    let config = small_config().with_outbound(BandwidthProfile::fixed_mbps(6));
    let mut session = TelecastSession::builder(config).viewers(40).build();
    join_all(&mut session, ViewId::new(0));
    let ids = session.viewer_ids().to_vec();
    // Remove the first half (joined first → nearer the roots → victims).
    for &v in ids.iter().take(20) {
        session.request_depart(v).expect("connected");
    }
    session.run_to_idle();
    let mut still_serving = 0;
    for &v in ids.iter().skip(20) {
        let state = session.viewer(v).unwrap();
        assert_eq!(state.status, ViewerStatus::Connected);
        // Every remaining subscription has a live upstream (a connected
        // parent or the CDN).
        for (sid, sub) in &state.subs {
            match sub.parent {
                TreeParent::Cdn => {}
                TreeParent::Viewer(p) => {
                    let pstate = session.viewer(p).unwrap();
                    assert_eq!(
                        pstate.status,
                        ViewerStatus::Connected,
                        "stream {sid} of {v} is fed by departed {p}"
                    );
                }
            }
        }
        still_serving += state.stream_count();
    }
    assert!(still_serving > 0);
    assert!(
        session.metrics().victims.value() > 0,
        "departures orphaned someone"
    );
}

#[test]
fn abrupt_failure_behaves_like_departure() {
    let config = small_config().with_outbound(BandwidthProfile::fixed_mbps(6));
    let mut session = TelecastSession::builder(config).viewers(20).build();
    join_all(&mut session, ViewId::new(0));
    let ids = session.viewer_ids().to_vec();
    session.fail_viewer(ids[0]).expect("connected");
    session.run_to_idle();
    assert_eq!(session.viewer(ids[0]).unwrap().status, ViewerStatus::Idle);
    for &v in &ids[1..] {
        for sub in session.viewer(v).unwrap().subs.values() {
            if let TreeParent::Viewer(p) = sub.parent {
                assert_ne!(p, ids[0], "failed viewer still feeds {v}");
            }
        }
    }
}

#[test]
fn random_baseline_accepts_fewer_than_push_down() {
    let cdn = CdnConfig::default().with_outbound(Bandwidth::from_mbps(150));
    let build = |placement| {
        let mut config = small_config()
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(cdn);
        config.placement = placement;
        if placement == PlacementStrategy::Random {
            config.layering_enabled = false;
        }
        let mut session = TelecastSession::builder(config).viewers(200).build();
        let mut rng = SimRng::seed_from_u64(3);
        let wl = ViewerWorkload::builder(200, 8)
            .arrivals(ArrivalModel::Staggered {
                gap: SimDuration::from_millis(40),
            })
            .view_choice(ViewChoice::Zipf { s: 0.8 })
            .build(&mut rng);
        session.run_workload(&wl);
        session.metrics().acceptance_ratio()
    };
    let telecast = build(PlacementStrategy::PushDown);
    let random = build(PlacementStrategy::Random);
    assert!(
        telecast > random,
        "push-down ({telecast}) should beat random ({random})"
    );
}

#[test]
fn outbound_policies_trade_quality_for_share() {
    // PriorityFirst concentrates slots on S1-trees; EqualSplit spreads.
    let run = |policy| {
        let mut config = small_config().with_outbound(BandwidthProfile::fixed_mbps(6));
        config.outbound_policy = policy;
        config.cdn = CdnConfig::default().with_outbound(Bandwidth::from_mbps(100));
        let mut session = TelecastSession::builder(config).viewers(60).build();
        join_all(&mut session, ViewId::new(0));
        session.metrics().acceptance_ratio()
    };
    let rr = run(OutboundPolicy::RoundRobin);
    let pf = run(OutboundPolicy::PriorityFirst);
    // Round-robin must not be worse than priority-first overall.
    assert!(
        rr >= pf,
        "round-robin ({rr}) should be at least as good as priority-first ({pf})"
    );
}

#[test]
fn workload_runs_are_deterministic() {
    let run = || {
        let config = small_config().with_outbound(BandwidthProfile::uniform_mbps(0, 12));
        let mut session = TelecastSession::builder(config).viewers(100).build();
        let mut rng = SimRng::seed_from_u64(11);
        let wl = ViewerWorkload::builder(100, 8)
            .arrivals(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_millis(25),
            })
            .view_choice(ViewChoice::Zipf { s: 1.0 })
            .view_changes(0.5, SimDuration::from_secs(20))
            .departures(0.2, SimDuration::from_secs(40))
            .build(&mut rng);
        session.run_workload(&wl);
        (
            session.metrics().acceptance_ratio(),
            session.metrics().admitted_viewers.value(),
            session.cdn().outbound().used().as_kbps(),
            session.metrics().victims.value(),
            session.metrics().subscription_messages.value(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn random_mode_ports_are_conserved_under_churn() {
    // In the Random baseline, parents' outbound is reserved per edge (no
    // pre-allocation); arbitrary churn must never leave reservations
    // behind once everyone departs.
    let mut config = small_config().with_outbound(BandwidthProfile::uniform_mbps(2, 14));
    config.placement = PlacementStrategy::Random;
    config.layering_enabled = false;
    let mut session = TelecastSession::builder(config).viewers(80).build();
    let mut rng = SimRng::seed_from_u64(4);
    let wl = ViewerWorkload::builder(80, 8)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(20),
        })
        .view_changes(1.0, SimDuration::from_secs(30))
        .build(&mut rng);
    session.run_workload(&wl);
    for &v in session.viewer_ids().to_vec().iter() {
        let _ = session.request_depart(v);
    }
    session.run_to_idle();
    assert_eq!(session.cdn().outbound().used(), Bandwidth::ZERO);
    for &v in session.viewer_ids() {
        let state = session.viewer(v).unwrap();
        assert_eq!(
            state.ports.outbound.used(),
            Bandwidth::ZERO,
            "viewer {v} still holds outbound reservations after full departure"
        );
        assert_eq!(state.ports.inbound.used(), Bandwidth::ZERO);
    }
}

#[test]
fn adaptation_period_is_deterministic_too() {
    let run = || {
        let mut config = small_config().with_outbound(BandwidthProfile::uniform_mbps(0, 12));
        config.adaptation_period = Some(SimDuration::from_secs(45));
        let mut session = TelecastSession::builder(config).viewers(60).build();
        let mut rng = SimRng::seed_from_u64(12);
        let wl = ViewerWorkload::builder(60, 8)
            .arrivals(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_millis(400),
            })
            .view_changes(0.5, SimDuration::from_secs(90))
            .build(&mut rng);
        session.run_workload(&wl);
        (
            session.metrics().subscription_messages.value(),
            session.layer_snapshot().iter().sum::<u64>(),
            session.cdn().outbound().used().as_kbps(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn api_errors_are_reported() {
    let mut session = TelecastSession::builder(small_config()).viewers(2).build();
    let ids = session.viewer_ids().to_vec();
    // Unknown view.
    assert!(session.request_join(ids[0], ViewId::new(99)).is_err());
    // Double join.
    session.request_join(ids[0], ViewId::new(0)).unwrap();
    assert!(session.request_join(ids[0], ViewId::new(0)).is_err());
    // View change before being connected.
    assert!(session.request_view_change(ids[1], ViewId::new(1)).is_err());
    // Depart before join.
    assert!(session.request_depart(ids[1]).is_err());
}

/// Only the session's own viewers resolve: producers, the GSC, LSCs and
/// CDN edges share the registry but are not viewers, and neither is an
/// id past the last viewer (here, one issued by a larger session).
#[test]
fn non_viewer_ids_are_unknown_viewers() {
    let session = TelecastSession::builder(small_config()).viewers(5).build();
    let mut non_viewers = 0;
    for info in session.registry().iter() {
        match info.kind {
            NodeKind::Viewer => assert_eq!(session.viewer(info.id).unwrap().node, info.id),
            _ => {
                non_viewers += 1;
                assert_eq!(
                    session.viewer(info.id).unwrap_err(),
                    TelecastError::UnknownViewer(info.id)
                );
            }
        }
    }
    assert!(non_viewers > 0, "the registry holds the infrastructure too");
    let larger = TelecastSession::builder(small_config()).viewers(6).build();
    let beyond = *larger.viewer_ids().last().unwrap();
    assert_eq!(
        session.viewer(beyond).unwrap_err(),
        TelecastError::UnknownViewer(beyond)
    );
}

/// Runs `n` viewers through a four-view session on a tight CDN pool
/// with the prune floor armed: staggered arrivals, then view changes and
/// departures that drop streams and reposition their victims.
fn four_view_churn(n: usize, seed: u64) -> TelecastSession {
    let config = SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), 4, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), 4, 2_000, 10),
        ],
        streams_per_local_view: 3,
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(200)))
    .with_prune_floor(4)
    .with_seed(seed);
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let catalog_len = session.catalog().len();
    let workload = ViewerWorkload::builder(n, catalog_len)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(200),
        })
        .view_changes(1.0, SimDuration::from_secs(60))
        .departures(0.3, SimDuration::from_secs(60))
        .build(&mut SimRng::seed_from_u64(seed));
    session.run_workload(&workload);
    session
}

/// The four-view churn at 150 viewers. Recovering dropped streams'
/// victims repositions viewers, and each reposition resyncs again inside
/// the resync that caused the drop (nine calls deep on this seed). The
/// counters were recorded before the resync buffers were pooled. A
/// nested resync that shared its caller's visit counts would move them.
#[test]
fn nested_resync_chains_keep_their_counters() {
    let session = four_view_churn(150, 1);
    let m = session.metrics();
    assert_eq!(m.subscription_messages.value(), 4_773);
    assert_eq!(m.resync_cap_hits.value(), 961);
    assert_eq!(m.victims_repositioned.value(), 175);
    assert_eq!(m.layer_drops.value(), 57);
    assert_eq!(m.fragments_merged.value(), 12, "the prune pass ran");
}

/// Churn pool conservation: at every sampled instant of a churn run the
/// available pool holds no duplicates, every idle viewer is in the pool
/// (the push-back paths in `churn_admit_one`/`churn_leave` never drop
/// one), and `available + connected + in-flight` partitions the whole
/// population. After the horizon drains, every viewer is back in the
/// pool exactly once.
#[test]
fn churn_pool_is_conserved_under_pushback() {
    use std::collections::BTreeSet;
    use telecast_net::NodeId;

    let config = small_config()
        .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
        .with_monitor_period(SimDuration::from_secs(5));
    let mut session = TelecastSession::builder(config).viewers(120).build();
    // Aggressive churn so arrivals, graceful departures, abrupt failures
    // and stale-candidate push-backs all interleave within the horizon.
    let spec = telecast_media::ChurnSpec::steady_state(120, 0.5).with_fail_fraction(0.3);
    let horizon = telecast_sim::SimTime::from_secs(300);
    session.start_churn(spec, horizon, 60);
    let all: BTreeSet<NodeId> = session.viewer_ids().iter().copied().collect();

    for step in 1..=30u64 {
        session.run_until(telecast_sim::SimTime::from_secs(step * 10));
        let pool = session.churn_pool().expect("churn active").to_vec();
        let pool_set: BTreeSet<NodeId> = pool.iter().copied().collect();
        assert_eq!(pool.len(), pool_set.len(), "duplicate viewers in the pool");
        assert!(pool_set.is_subset(&all), "pool holds unknown viewers");

        let mut connected = 0usize;
        let mut departure_in_flight = 0usize;
        let mut join_in_flight = 0usize;
        let mut parked_rejected = 0usize;
        for &v in &all {
            let status = session.viewer(v).expect("known viewer").status;
            match status {
                ViewerStatus::Connected => {
                    if pool_set.contains(&v) {
                        // Pushed back at dwell expiry while the graceful
                        // departure is still in flight.
                        departure_in_flight += 1;
                    } else {
                        connected += 1;
                    }
                }
                ViewerStatus::Joining => {
                    assert!(!pool_set.contains(&v), "joining viewer still pooled");
                    join_in_flight += 1;
                }
                ViewerStatus::Idle => {
                    assert!(
                        pool_set.contains(&v),
                        "idle viewer {v} leaked out of the churn pool"
                    );
                }
                ViewerStatus::Rejected => {
                    // Back in the pool once its dwell expired; parked
                    // (awaiting that expiry) otherwise.
                    if !pool_set.contains(&v) {
                        parked_rejected += 1;
                    }
                }
            }
        }
        assert_eq!(
            (pool.len() - departure_in_flight)
                + (connected + departure_in_flight)
                + join_in_flight
                + parked_rejected,
            all.len(),
            "population partition broken at step {step}"
        );
        assert_eq!(
            session.connected_viewers(),
            connected + departure_in_flight,
            "maintained connected counter diverged"
        );
    }

    // Horizon passed: the audience drains and everyone returns home.
    session.run_to_idle();
    let pool = session.churn_pool().expect("churn active").to_vec();
    let pool_set: BTreeSet<NodeId> = pool.iter().copied().collect();
    assert_eq!(pool.len(), pool_set.len(), "duplicates after drain");
    assert_eq!(pool_set, all, "viewers missing from the drained pool");
    assert_eq!(session.connected_viewers(), 0);
}

/// The elastic-CDN loop end-to-end at session level: a pool too small
/// for the kickoff parks rejected joins, the autoscaler grows the pool,
/// and the retry queue drains into admissions.
#[test]
fn autoscale_retries_parked_joins_after_scale_up() {
    use telecast_cdn::AutoscalePolicy;

    // No P2P upload at all: every stream must come from the CDN, so the
    // 72 Mbps pool admits only 6 of 30 viewers at the kickoff.
    let policy = AutoscalePolicy {
        period: SimDuration::from_secs(5),
        min: Bandwidth::from_mbps(72),
        max: Bandwidth::from_mbps(720),
        step: Bandwidth::from_mbps(144),
        up_cooldown: SimDuration::from_secs(5),
        down_cooldown: SimDuration::from_secs(600),
        ..AutoscalePolicy::default()
    };
    // No monitor period here: two periodic sources would re-arm each
    // other forever and `run_to_idle` could not drain (the same reason
    // the scenario runners drive continuous runs with `run_until`).
    let config = small_config()
        .with_outbound(BandwidthProfile::fixed_mbps(0))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(72)))
        .with_autoscale(policy);
    let mut session = TelecastSession::builder(config).viewers(30).build();
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, ViewId::new(0)).expect("requested");
    }
    session.run_to_idle();

    let m = session.metrics();
    assert!(
        m.autoscale_ups.value() > 0,
        "saturated pool never triggered a scale-up"
    );
    assert!(
        m.join_retries.value() > 0,
        "parked joins were never retried"
    );
    // 30 viewers × 6 streams × 2 Mbps = 360 Mbps total demand: within
    // the 720 Mbps ceiling, so every parked join eventually lands.
    assert_eq!(session.metrics().admitted_viewers.value(), 30);
    assert_eq!(session.retry_queue_len(), 0, "retry queue did not drain");
    assert!(
        session.cdn().outbound().total() > Bandwidth::from_mbps(72),
        "pool never grew"
    );
    // The staircase was recorded.
    assert!(m.provisioned_cdn_mbps.points().len() >= 2);
}

/// Per-region pools under a CDN-only kickoff: admission and victim
/// recovery are region-scoped (one saturated region rejects while
/// others still serve), a controller per regional pool scales each one
/// independently, retries drain per region, and the slot accounting
/// always conserves the aggregate pool.
#[test]
fn per_region_pools_scale_and_conserve_regionally() {
    use telecast_cdn::{AutoscalePolicy, PoolScope};
    use telecast_net::Region;

    // The step is sized so every region's split quantum covers a
    // viewer's full 12 Mbps view in one or two actions (Oceania's 5%
    // share of 400 Mbps is 20 Mbps) — a region whose step is smaller
    // than one view needs more scale actions than a parked join's
    // retry budget.
    let policy = AutoscalePolicy {
        period: SimDuration::from_secs(5),
        min: Bandwidth::from_mbps(100),
        max: Bandwidth::from_mbps(1_000),
        step: Bandwidth::from_mbps(400),
        up_cooldown: SimDuration::from_secs(5),
        down_cooldown: SimDuration::from_secs(600),
        ..AutoscalePolicy::default()
    };
    // Zero P2P upload: every stream is CDN-served, so the tiny
    // weight-split shares (Oceania starts at 5 Mbps — not even three
    // 2 Mbps streams) saturate regionally at the kickoff.
    let config = small_config()
        .with_outbound(BandwidthProfile::fixed_mbps(0))
        .with_cdn(
            CdnConfig::default()
                .with_outbound(Bandwidth::from_mbps(100))
                .with_pool_scope(PoolScope::PerRegion),
        )
        .with_autoscale(policy);
    let mut session = TelecastSession::builder(config).viewers(40).build();
    assert_eq!(session.autoscalers().len(), Region::ALL.len());
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, ViewId::new(0)).expect("requested");
    }
    session.run_to_idle();

    let m = session.metrics();
    assert!(
        m.autoscale_ups.value() > 0,
        "no regional pool ever scaled up"
    );
    // 40 viewers × 12 Mbps within the 1000 Mbps aggregate ceiling:
    // every region's parked joins eventually land.
    assert_eq!(m.admitted_viewers.value(), 40);
    assert_eq!(session.retry_queue_len(), 0, "a regional queue is stuck");
    // Slot accounting conserves the aggregate in both directions.
    let cdn = session.cdn();
    let used_sum: u64 = (0..cdn.pool_slots())
        .map(|s| cdn.pool(s).used().as_kbps())
        .sum();
    let total_sum: u64 = (0..cdn.pool_slots())
        .map(|s| cdn.pool(s).total().as_kbps())
        .sum();
    assert_eq!(used_sum, cdn.outbound().used().as_kbps());
    assert_eq!(total_sum, cdn.outbound().total().as_kbps());
    for slot in 0..cdn.pool_slots() {
        assert!(cdn.pool(slot).used() <= cdn.pool(slot).total());
    }
    // Regions scaled *independently*: at least two distinct slot totals
    // (the 40%-weight region needs more steps than the 5% one).
    let mut totals: Vec<u64> = (0..cdn.pool_slots())
        .map(|s| cdn.pool(s).total().as_kbps())
        .collect();
    totals.dedup();
    assert!(
        totals.len() > 1,
        "regional pools all moved in lockstep: {totals:?}"
    );
}

/// The counters a resync-heavy run ends with.
#[derive(Debug, PartialEq, Eq)]
struct ResyncCounters {
    subscription_messages: u64,
    resync_cap_hits: u64,
    layer_drops: u64,
    victims_repositioned: u64,
}

fn resync_counters(session: &TelecastSession) -> ResyncCounters {
    let m = session.metrics();
    ResyncCounters {
        subscription_messages: m.subscription_messages.value(),
        resync_cap_hits: m.resync_cap_hits.value(),
        layer_drops: m.layer_drops.value(),
        victims_repositioned: m.victims_repositioned.value(),
    }
}

/// One parent changing several streams of the same child: the four-view
/// churn at 32 viewers repositions victims whose resync moves their
/// `e2e` on up to six streams at once, and a child fed by such a viewer
/// on several of those streams is enqueued once per stream within one
/// subscription chain (viewer 13 of this seed, three to five times
/// under one parent). Its first visit re-derives its layers and the
/// rest find it settled. The counters and the child's final layers
/// were recorded before the chain skipped settled viewers.
#[test]
fn a_child_enqueued_under_several_streams_keeps_its_counters() {
    let session = four_view_churn(32, 1);
    assert_eq!(
        resync_counters(&session),
        ResyncCounters {
            subscription_messages: 644,
            resync_cap_hits: 17,
            layer_drops: 0,
            victims_repositioned: 25,
        }
    );
    let child = session.viewer(session.viewer_ids()[13]).unwrap();
    assert_eq!(child.layers().collect::<Vec<_>>(), [3, 2, 2, 3, 2, 2]);
    let parents: Vec<TreeParent> = child.subs.values().map(|s| s.parent).collect();
    assert!(
        matches!(parents[0], TreeParent::Viewer(_)) && parents.iter().all(|&p| p == parents[0]),
        "one viewer feeds every stream of the child: {parents:?}"
    );
}

/// `n` viewers churning for 50 simulated minutes with the §VI adaptation
/// loop armed, on the given delay backend. The run crosses three
/// 15-minute drift epochs, so every cached parent leg goes stale three
/// times under live subscription chains. Returns the counters and the
/// sum of the final layer snapshot.
fn churn_across_epochs(n: usize, seed: u64, delays: DelayModelChoice) -> (ResyncCounters, u64) {
    let config = SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), 6, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), 6, 2_000, 10),
        ],
        streams_per_local_view: 3,
        adaptation_period: Some(SimDuration::from_secs(60)),
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(3 * n as u64)))
    .with_prune_floor(6)
    .with_delay_model(delays)
    .with_seed(seed);
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let horizon = SimTime::from_secs(50 * 60);
    session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.1), horizon, n / 2);
    session.run_until(horizon);
    assert!(
        session.now() >= SimTime::from_secs(45 * 60),
        "three epoch boundaries crossed"
    );
    let layer_sum = session.layer_snapshot().iter().sum();
    (resync_counters(&session), layer_sum)
}

/// Exact counters across drift-epoch boundaries on both delay backends,
/// recorded before subscriptions cached their parent legs. A cache that
/// outlived its epoch would move them (82,662 messages would become
/// 70,361 on the first row).
#[test]
fn churn_across_drift_epochs_keeps_its_counters() {
    let expected = [
        (
            DelayModelChoice::Dense,
            1,
            (82_662, 7_840, 173, 1_504),
            1_464,
        ),
        (
            DelayModelChoice::Dense,
            2,
            (61_082, 4_143, 138, 1_202),
            1_633,
        ),
        (
            DelayModelChoice::Dense,
            3,
            (79_208, 8_204, 124, 1_317),
            1_297,
        ),
        (
            DelayModelChoice::Coordinate,
            1,
            (77_253, 6_492, 74, 1_521),
            1_934,
        ),
        (
            DelayModelChoice::Coordinate,
            2,
            (63_835, 4_735, 116, 1_203),
            1_048,
        ),
        (
            DelayModelChoice::Coordinate,
            3,
            (84_006, 8_951, 125, 1_270),
            2_095,
        ),
    ];
    for (delays, seed, (messages, cap_hits, drops, repositioned), layer_sum) in expected {
        assert_eq!(
            churn_across_epochs(300, seed, delays),
            (
                ResyncCounters {
                    subscription_messages: messages,
                    resync_cap_hits: cap_hits,
                    layer_drops: drops,
                    victims_repositioned: repositioned,
                },
                layer_sum
            ),
            "{delays:?} seed {seed}"
        );
    }
}

/// What a run's subscription chains end with: the chain counters and an
/// FNV-1a digest of every viewer's final `(parent, e2e, layer)` per
/// subscription, in viewer and stream order.
#[derive(Debug, PartialEq, Eq)]
struct ChainOutcome {
    subscription_messages: u64,
    resync_cap_hits: u64,
    layer_drops: u64,
    victims: u64,
    final_subs: u64,
}

fn chain_outcome(session: &TelecastSession) -> ChainOutcome {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut fold = |x: u64| {
        for byte in x.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for &id in session.viewer_ids() {
        let v = session.viewer(id).unwrap();
        fold(v.subs.len() as u64);
        for sub in v.subs.values() {
            fold(match sub.parent {
                TreeParent::Cdn => 0,
                TreeParent::Viewer(p) => p.index() as u64 + 1,
            });
            fold(sub.e2e.as_micros());
            fold(sub.layer);
        }
    }
    let m = session.metrics();
    ChainOutcome {
        subscription_messages: m.subscription_messages.value(),
        resync_cap_hits: m.resync_cap_hits.value(),
        layer_drops: m.layer_drops.value(),
        victims: m.victims.value(),
        final_subs: digest,
    }
}

/// `n` viewers churning for 20 simulated minutes with the §VI
/// adaptation loop armed and `cdn_mbps` of CDN pool per viewer.
fn adaptive_churn(n: usize, seed: u64, cdn_mbps: u64) -> TelecastSession {
    let config = SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), 6, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), 6, 2_000, 10),
        ],
        streams_per_local_view: 3,
        adaptation_period: Some(SimDuration::from_secs(60)),
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(cdn_mbps * n as u64)))
    .with_prune_floor(6)
    .with_seed(seed);
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let horizon = SimTime::from_secs(20 * 60);
    session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.1), horizon, n / 2);
    session.run_until(horizon);
    session
}

/// A departure tears its subscriptions down one stream tree at a time,
/// and recovering one tree's victims resyncs viewers that are still the
/// departing viewer's children in its other trees. Those children must
/// read Δ, as from a parent with no subscription: the teardown sends it
/// to them before the first tree is touched. Recorded before the
/// subscription chain stored its inputs.
#[test]
fn departure_teardown_sends_delta_to_children_in_other_trees() {
    assert_eq!(
        chain_outcome(&four_view_churn(32, 2)),
        ChainOutcome {
            subscription_messages: 427,
            resync_cap_hits: 0,
            layer_drops: 0,
            victims: 47,
            final_subs: 4_382_649_555_388_063_455,
        }
    );
}

/// A layer drop inside `resync_viewer` recovers victims whose nested
/// chains resync a child of a stream the same call's pass 2 just
/// changed, before the outer chain enqueues anyone: that child must
/// read the new delay, so pass 2 sends it before any drop. Recorded
/// before the subscription chain stored its inputs.
#[test]
fn a_drop_runs_nested_chains_on_pushed_delays() {
    assert_eq!(
        chain_outcome(&adaptive_churn(150, 6, 2)),
        ChainOutcome {
            subscription_messages: 7_243,
            resync_cap_hits: 1_142,
            layer_drops: 26,
            victims: 310,
            final_subs: 13_420_262_683_578_937_795,
        }
    );
}

/// A §VI CDN reroute inside a resync moves a viewer's stream to the CDN
/// at Δ, and its children in that tree must read Δ from then on.
/// Recorded before the subscription chain stored its inputs.
#[test]
fn a_cdn_reroute_pushes_delta_to_its_children() {
    assert_eq!(
        chain_outcome(&adaptive_churn(80, 1, 4)),
        ChainOutcome {
            subscription_messages: 3_783,
            resync_cap_hits: 327,
            layer_drops: 0,
            victims: 187,
            final_subs: 14_182_908_706_680_457_518,
        }
    );
}
