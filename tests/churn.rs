//! Cross-crate churn-runtime guarantees: the storm scenario's JSON
//! export is byte-identical for equal seeds, and outcomes do not depend
//! on the executor's thread count.

use telecast_bench::{run_churn, ChurnPreset, ChurnScenario};
use telecast_sim::parallel_map_with;

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
