//! Cross-crate churn-runtime guarantees: the storm scenario's JSON
//! export is byte-identical for equal seeds, outcomes do not depend on
//! the executor's thread count, and the media-layer workload bridge
//! drives the same spec through the scripted path.

use telecast::{SessionConfig, TelecastSession};
use telecast_bench::{run_churn, ChurnPreset, ChurnScenario};
use telecast_media::ChurnSpec;
use telecast_net::BandwidthProfile;
use telecast_sim::{parallel_map_with, SimRng, SimTime};

fn small_scenario(seed: u64) -> ChurnScenario {
    ChurnScenario {
        viewers: 400,
        minutes: 3,
        churn_per_minute: 0.05,
        backend: telecast::DelayModelChoice::Dense,
        seed,
        ..ChurnScenario::preset(ChurnPreset::ChurnStorm)
    }
}

/// The acceptance bar of the churn-storm scenario: two runs with the
/// same seed must export byte-identical JSON.
#[test]
fn churn_storm_json_is_byte_identical_across_runs() {
    let a = run_churn(&small_scenario(9)).figure.to_json();
    let b = run_churn(&small_scenario(9)).figure.to_json();
    assert_eq!(a, b, "same-seed churn exports diverged");
    let c = run_churn(&small_scenario(10)).figure.to_json();
    assert_ne!(a, c, "different seeds produced identical exports");
}

/// Churn outcomes are a function of the scenario alone — running the
/// sweep on one worker or many must produce the same results in the
/// same order.
#[test]
fn churn_outcomes_are_thread_count_independent() {
    let scenarios: Vec<ChurnScenario> = (0..4).map(|i| small_scenario(20 + i)).collect();
    let serial = parallel_map_with(scenarios.clone(), 1, |s| run_churn(&s).figure.to_json());
    let parallel = parallel_map_with(scenarios, 4, |s| run_churn(&s).figure.to_json());
    assert_eq!(serial, parallel);
}

/// The media-layer bridge: the same [`ChurnSpec`] scripted into a finite
/// [`telecast_media::ViewerWorkload`] drives the session's batch path,
/// sustains an audience, and stays seed-deterministic.
#[test]
fn scripted_churn_bridge_drives_the_session() {
    let run = |seed: u64| {
        let config = SessionConfig::default()
            .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
            .with_seed(seed);
        let mut session = TelecastSession::builder(config).viewers(150).build();
        let spec = ChurnSpec::steady_state(150, 0.2);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED);
        let workload = spec.to_workload(
            150,
            session.catalog().len(),
            SimTime::from_secs(240),
            &mut rng,
        );
        assert!(
            !workload.events().is_empty(),
            "bridge scripted no events before the horizon"
        );
        session.run_workload(&workload);
        (
            session.metrics().admitted_viewers.value(),
            session.metrics().victims.value(),
            session.cdn().outbound().used().as_kbps(),
        )
    };
    let a = run(4);
    assert_eq!(a, run(4));
    assert!(a.0 > 0, "scripted churn admitted nobody");
}
