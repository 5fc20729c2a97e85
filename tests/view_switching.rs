//! Cross-crate view-switching guarantees: the view-storm scenario's
//! JSON export is byte-identical for equal seeds and independent of the
//! executor's thread count, and the per-view prune pass demonstrably
//! shrinks an abandoned view's overlay — folding its CDN fragments and
//! retiring the drained groups — without stranding anyone who stayed.

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_bench::{run_view_storm, ViewStormScenario};
use telecast_media::ViewId;
use telecast_net::BandwidthProfile;
use telecast_sim::parallel_map_with;

fn small_scenario(seed: u64) -> ViewStormScenario {
    ViewStormScenario {
        viewers: 250,
        minutes: 3,
        backend: DelayModelChoice::Dense,
        seed,
        ..ViewStormScenario::default()
    }
}

/// The acceptance bar of the view-storm scenario: two runs with the
/// same seed must export byte-identical JSON.
#[test]
fn view_storm_json_is_byte_identical_across_runs() {
    let a = run_view_storm(&small_scenario(3)).to_json();
    let b = run_view_storm(&small_scenario(3)).to_json();
    assert_eq!(a, b, "same-seed view storms exported diverging JSON");
    let c = run_view_storm(&small_scenario(4)).to_json();
    assert_ne!(a, c, "different seeds produced identical exports");
}

/// View-storm outcomes are a function of the scenario alone — running
/// the runs on one worker or many must produce the same JSON in the
/// same order.
#[test]
fn view_storm_outcomes_are_thread_count_independent() {
    let scenarios: Vec<ViewStormScenario> = (0..4).map(|i| small_scenario(30 + i)).collect();
    let serial = parallel_map_with(scenarios.clone(), 1, |s| run_view_storm(&s).to_json());
    let threaded = parallel_map_with(scenarios, 4, |s| run_view_storm(&s).to_json());
    assert_eq!(serial, threaded);
}

/// A session split over two views, then emptied of one: everyone on the
/// abandoned view switches away.
fn abandon_one_view(config: SessionConfig) -> TelecastSession {
    let mut session = TelecastSession::builder(config).viewers(120).build();
    let ids = session.viewer_ids().to_vec();
    let (kept, abandoned) = (ViewId::new(0), ViewId::new(1));
    for (i, &viewer) in ids.iter().enumerate() {
        let view = if i % 2 == 0 { kept } else { abandoned };
        session.request_join(viewer, view).unwrap();
    }
    session.run_to_idle();
    assert!(
        session.view_group_population(abandoned).unwrap_or(0) > 0,
        "the to-be-abandoned view never built an audience"
    );
    for &viewer in &ids {
        // Rejected joins leave some viewers disconnected; skip them.
        let _ = session.request_view_change(viewer, kept);
    }
    session.run_to_idle();
    session
}

fn two_view_config(prune_floor: Option<usize>) -> SessionConfig {
    let config = SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_delay_model(DelayModelChoice::Dense)
        .with_seed(0xAB_0D01);
    match prune_floor {
        Some(floor) => config.with_prune_floor(floor),
        None => config,
    }
}

/// With the prune pass armed, abandoning a view shrinks its overlay all
/// the way down: the drained groups are retired (no scope keeps the
/// view), fragments were folded along the way, and the viewers who
/// stayed keep their trees.
#[test]
fn prune_retires_an_abandoned_views_trees() {
    let session = abandon_one_view(two_view_config(Some(128)));
    let abandoned = ViewId::new(1);
    assert_eq!(
        session.view_group_population(abandoned),
        None,
        "drained groups of the abandoned view were not retired"
    );
    assert_eq!(session.view_tree_population(abandoned), 0);
    let m = session.metrics();
    assert!(m.groups_retired.value() > 0, "no group retirement counted");
    assert!(
        m.fragments_merged.value() > 0,
        "the shrinking view never folded a CDN fragment"
    );
    assert!(
        m.prune_reclaimed_kbps.value() > 0,
        "fragment folds returned no CDN capacity"
    );
    assert!(
        session.view_tree_population(ViewId::new(0)) > 0,
        "pruning the abandoned view stranded the kept view"
    );
    assert!(session.connected_viewers() > 0);
}

/// Without the floor (the default), the abandoned view's empty groups
/// stay in place — the pre-existing behaviour is untouched.
#[test]
fn default_config_keeps_abandoned_groups() {
    let session = abandon_one_view(two_view_config(None));
    let abandoned = ViewId::new(1);
    assert_eq!(
        session.view_group_population(abandoned),
        Some(0),
        "pruning ran despite prune_member_floor being disabled"
    );
    let m = session.metrics();
    assert_eq!(m.groups_retired.value(), 0);
    assert_eq!(m.fragments_merged.value(), 0);
}
