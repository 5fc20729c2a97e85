//! End-to-end integration: producer traces → overlay placement → viewer
//! buffers → synchronous rendering, across crates.

use std::collections::BTreeMap;

use telecast::{SessionConfig, TelecastSession, ViewerBuffer, ViewerStatus};
use telecast_baselines::random_dissemination;
use telecast_cdn::CdnConfig;
use telecast_media::{
    ChurnSpec, ProducerSite, SiteId, SyntheticTeeveTrace, TeeveStreamConfig, ViewCatalog, ViewId,
};
use telecast_net::{Bandwidth, BandwidthProfile, NodeId};
use telecast_overlay::{SessionRoutingTable, SubscriptionPoint, TreeParent};
use telecast_sim::{SimDuration, SimTime};

#[test]
fn full_session_pipeline_renders_synchronously() {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 12))
        .with_seed(17);
    let mut session = TelecastSession::builder(config).viewers(60).build();
    let ids = session.viewer_ids().to_vec();
    for (i, &v) in ids.iter().enumerate() {
        session
            .request_join(v, ViewId::new((i % 4) as u32))
            .expect("valid");
    }
    session.run_to_idle();

    // Drive frames through every connected viewer's buffer at the
    // effective delays the overlay computed; everyone must render.
    let dbuff = session.config().dbuff;
    let dcache = session.config().dcache;
    let horizon = SimTime::from_secs(4);
    let mut rendered = 0usize;
    for &v in &ids {
        let state = session.viewer(v).expect("pool viewer");
        if state.status != ViewerStatus::Connected || state.subs.is_empty() {
            continue;
        }
        let mut buffer = ViewerBuffer::new(dbuff, dcache);
        for (&sid, sub) in &state.subs {
            let mut trace = SyntheticTeeveTrace::new(sid, TeeveStreamConfig::default(), 9);
            for frame in trace.frames_until(horizon) {
                buffer.receive(frame, frame.captured_at + sub.e2e);
            }
        }
        let slowest = state.subs.values().map(|s| s.e2e).max().expect("non-empty");
        let render_at = SimTime::from_secs(2) + slowest;
        let expected: Vec<_> = state.subs.keys().copied().collect();
        let frames = buffer
            .try_render(&expected, render_at, SimDuration::from_millis(100))
            .unwrap_or_else(|| panic!("viewer {v} cannot render a synchronous 4D view"));
        assert_eq!(frames.len(), expected.len());
        rendered += 1;
    }
    assert!(rendered > 40, "most of the audience renders ({rendered})");
}

#[test]
fn overlay_parents_actually_subscribe_to_the_stream() {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::fixed_mbps(8))
        .with_seed(5);
    let mut session = TelecastSession::builder(config).viewers(50).build();
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, ViewId::new(2)).expect("valid");
    }
    session.run_to_idle();
    for &v in session.viewer_ids() {
        let state = session.viewer(v).unwrap();
        for (&sid, sub) in &state.subs {
            if let TreeParent::Viewer(p) = sub.parent {
                let parent = session.viewer(p).expect("parent in pool");
                assert!(
                    parent.subs.contains_key(&sid),
                    "parent {p} forwards {sid} without receiving it"
                );
                // Delay is strictly downstream of the parent's.
                assert!(sub.e2e > parent.subs[&sid].e2e);
            }
        }
    }
}

#[test]
fn routing_tables_reflect_tree_children() {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::fixed_mbps(10))
        .with_seed(6);
    let mut session = TelecastSession::builder(config).viewers(30).build();
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    // Every child found in a parent's subscription list appears in that
    // parent's session routing table (Table I).
    let mut forwarded_edges = 0usize;
    for &v in session.viewer_ids() {
        let state = session.viewer(v).unwrap();
        for (&sid, sub) in &state.subs {
            if let TreeParent::Viewer(p) = sub.parent {
                let has_entry = session
                    .routing_table(p)
                    .unwrap()
                    .iter()
                    .any(|((s, _), entry)| *s == sid && entry.children().any(|c| c == v));
                assert!(has_entry, "routing table of {p} misses child {v} for {sid}");
                forwarded_edges += 1;
            }
        }
    }
    assert!(forwarded_edges > 0, "some P2P forwarding exists");
}

/// A departing or failing viewer stops every forward to it: its
/// parents' Table I entries must not keep feeding a viewer that left.
#[test]
fn departed_viewers_leave_no_forward_behind() {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::fixed_mbps(10))
        .with_seed(6);
    let mut session = TelecastSession::builder(config).viewers(30).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    let forwards_to = |session: &TelecastSession, child| -> usize {
        ids.iter()
            .map(|&p| session.routing_table(p).unwrap())
            .map(|table| {
                table
                    .iter()
                    .filter(|(_, entry)| entry.children().any(|c| c == child))
                    .count()
            })
            .sum()
    };
    let (departing, failing): (Vec<_>, Vec<_>) = ids
        .iter()
        .copied()
        .filter(|&v| forwards_to(&session, v) > 0)
        .take(6)
        .partition(|v| v.index() % 2 == 0);
    assert!(
        !departing.is_empty() && !failing.is_empty(),
        "both exits are exercised on viewers with P2P parents"
    );
    for &v in &departing {
        session.request_depart(v).expect("connected");
    }
    for &v in &failing {
        session.fail_viewer(v).expect("connected");
    }
    session.run_to_idle();
    for &v in departing.iter().chain(&failing) {
        assert_eq!(session.viewer(v).unwrap().status, ViewerStatus::Idle);
        assert_eq!(
            forwards_to(&session, v),
            0,
            "a parent still forwards to {v}"
        );
        assert!(session.routing_table(v).unwrap().is_empty());
    }
}

/// Checks Table I against the subscriptions both ways and returns the
/// number of forwards: a viewer `p` forwards only streams it receives,
/// matched on its own upstream, and every forward in its table goes to a
/// connected viewer whose subscription to that stream names `p` as its
/// parent, fed from an Eq. 2 frame exactly when that subscription was
/// pushed down, and every such subscription has its forward.
fn assert_routing_matches_subscriptions(session: &TelecastSession) -> usize {
    let ids = session.viewer_ids();
    let tables: BTreeMap<NodeId, SessionRoutingTable> = ids
        .iter()
        .map(|&p| (p, session.routing_table(p).expect("pool viewer")))
        .collect();
    let mut forwards = 0usize;
    for (&p, table) in &tables {
        let parent = session.viewer(p).unwrap();
        for (&(sid, upstream), entry) in table.iter() {
            let own = parent
                .subs
                .get(&sid)
                .unwrap_or_else(|| panic!("{p} forwards {sid} without receiving it"));
            if let TreeParent::Viewer(g) = own.parent {
                assert_eq!(
                    upstream, g,
                    "{p}'s entry for {sid} matches the wrong upstream"
                );
            }
            for &(c, point) in entry.forwards() {
                let child = session.viewer(c).expect("forwards go to pool viewers");
                assert_eq!(
                    child.status,
                    ViewerStatus::Connected,
                    "{p} forwards {sid} to {c}, which is not connected"
                );
                let sub = child
                    .subs
                    .get(&sid)
                    .unwrap_or_else(|| panic!("{p} forwards {sid} to {c}, which does not take it"));
                assert_eq!(
                    sub.parent,
                    TreeParent::Viewer(p),
                    "{p} forwards {sid} to {c}, which another parent feeds"
                );
                assert_eq!(
                    matches!(point, SubscriptionPoint::Frame(_)),
                    sub.pushed_down,
                    "{c}'s subscription point on {sid}"
                );
                forwards += 1;
            }
        }
    }
    let mut edges = 0usize;
    for &c in ids {
        let child = session.viewer(c).unwrap();
        if child.status != ViewerStatus::Connected {
            continue;
        }
        for (&sid, sub) in &child.subs {
            if let TreeParent::Viewer(p) = sub.parent {
                let forwarded = tables[&p]
                    .iter()
                    .any(|(&(s, _), entry)| s == sid && entry.children().any(|x| x == c));
                assert!(forwarded, "{p} feeds {c} on {sid} without a forward");
                edges += 1;
            }
        }
    }
    assert_eq!(forwards, edges, "one forward per viewer-parent edge");
    forwards
}

/// Table I stays in step with the tree through churn: displacement,
/// victim repositioning, the §VI reroute and stream drops all move a
/// subscription's parent, and departures end it.
#[test]
fn routing_tables_follow_the_subscriptions_through_churn() {
    let n = 400;
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
    .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(4 * n as u64)))
    .with_seed(11);
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let horizon = SimTime::from_secs(30 * 60);
    session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.1), horizon, n / 2);
    session.run_until(horizon);
    assert!(
        session.metrics().victims.value() > 0,
        "churn displaced members"
    );
    let forwards = assert_routing_matches_subscriptions(&session);
    assert!(
        forwards > 100,
        "P2P forwarding carries the audience: {forwards}"
    );
}

/// The Random baseline's global trees feed Table I the same way.
#[test]
fn random_placement_routing_tables_match_the_subscriptions() {
    let config = random_dissemination(
        SessionConfig::default()
            .with_outbound(BandwidthProfile::uniform_mbps(2, 12))
            .with_seed(23),
    );
    let n = 120;
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let horizon = SimTime::from_secs(10 * 60);
    session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.2), horizon, n / 2);
    session.run_until(horizon);
    let forwards = assert_routing_matches_subscriptions(&session);
    assert!(forwards > 0, "random placement forwards over P2P");
}

#[test]
fn catalog_views_cover_both_sites_with_three_streams_each() {
    let sites = ProducerSite::teeve_pair();
    let catalog = ViewCatalog::canonical(&sites, 3);
    assert_eq!(catalog.len(), 8);
    for view in catalog.iter() {
        assert_eq!(view.streams().count(), 6);
        let ordered = view.streams_by_priority();
        // The admission-mandatory streams (η = 1) lead the order.
        assert_eq!(ordered[0].eta, 1);
        assert_eq!(ordered[1].eta, 1);
        assert_ne!(ordered[0].stream.site(), ordered[1].stream.site());
    }
}
