//! Cross-crate guarantees of the elastic-CDN subsystem: an
//! under-provisioned pool with autoscaling beats the same pool held
//! static on the same seed, parked joins drain after scale-ups, and the
//! diurnal-wave scenario exports byte-identical JSON whose provisioned
//! capacity tracks the audience wave.

use telecast_bench::{run_churn, ChurnOutcome, ChurnPreset, ChurnScenario, RateShape};

/// An under-provisioned churn storm: 400 viewers against a 200 Mbps
/// starting pool (the historical provisioning would be 2000 Mbps).
fn tight_storm(seed: u64, autoscale: bool) -> ChurnScenario {
    ChurnScenario {
        viewers: 400,
        minutes: 6,
        churn_per_minute: 0.05,
        backend: telecast::DelayModelChoice::Dense,
        seed,
        pool_mbps: Some(200),
        autoscale,
        ..ChurnScenario::preset(ChurnPreset::ChurnStorm)
    }
}

/// Three 10-minute days over 30 minutes.
fn small_wave(seed: u64, autoscale: bool) -> ChurnScenario {
    ChurnScenario {
        viewers: 300,
        minutes: 30,
        churn_per_minute: 0.3,
        shape: RateShape::Diurnal {
            days: 3,
            amplitude: 0.9,
        },
        backend: telecast::DelayModelChoice::Dense,
        seed,
        pool_mbps: Some(150),
        autoscale,
        ..ChurnScenario::preset(ChurnPreset::DiurnalWave)
    }
}

/// The exported scalar `label`.
fn scalar(outcome: &ChurnOutcome, label: &str) -> f64 {
    outcome.figure.scalar(label).expect(label)
}

/// The exported provisioned-capacity samples (seconds, Mbps).
fn provisioned_series(outcome: &ChurnOutcome) -> &[(f64, f64)] {
    &outcome
        .figure
        .find("provisioned_mbps_over_time")
        .expect("provisioned series")
        .points
}

/// The acceptance bar of the tentpole: on the same seed, the elastic
/// pool ends with a strictly higher acceptance ratio than the static
/// pool, and the retry queue drained after the scale-ups.
#[test]
fn autoscale_beats_the_static_pool_on_the_same_seed() {
    let static_run = run_churn(&tight_storm(42, false));
    let elastic_run = run_churn(&tight_storm(42, true));

    assert_eq!(scalar(&static_run, "autoscale_ups"), 0.0);
    assert_eq!(
        static_run.final_provisioned_mbps, 200.0,
        "static pool moved without an autoscaler"
    );
    assert!(
        scalar(&elastic_run, "autoscale_ups") > 0.0,
        "the saturated pool never scaled up"
    );
    let (elastic_rho, static_rho) = (
        scalar(&elastic_run, "acceptance_ratio"),
        scalar(&static_run, "acceptance_ratio"),
    );
    assert!(
        elastic_rho > static_rho,
        "elastic {elastic_rho:.3} should beat static {static_rho:.3}"
    );
    // Parked joins were retried and the queue drained: once the pool
    // grew past the demand no rejection re-parks, so nothing lingers.
    assert!(
        scalar(&elastic_run, "join_retries") > 0.0,
        "no parked join was retried"
    );
    assert_eq!(
        elastic_run.retry_queue_len, 0,
        "retry queue still holds parked joins at the horizon"
    );
    assert!(elastic_run.final_provisioned_mbps > 200.0);
}

/// The diurnal scenario is pure in the seed: equal scenarios export
/// byte-identical JSON, different seeds do not.
#[test]
fn diurnal_wave_json_is_byte_identical_per_seed() {
    let a = run_churn(&small_wave(9, true)).figure.to_json();
    let b = run_churn(&small_wave(9, true)).figure.to_json();
    assert_eq!(a, b, "same-seed diurnal exports diverged");
    let c = run_churn(&small_wave(10, true)).figure.to_json();
    assert_ne!(a, c, "different seeds produced identical exports");
}

/// Provisioned capacity follows the wave: it climbs above the starting
/// pool for the kickoff/peaks and is released again in the troughs —
/// while a static run's provisioned line never moves.
#[test]
fn provisioned_capacity_tracks_the_diurnal_wave() {
    let elastic = run_churn(&small_wave(17, true));
    let ups = scalar(&elastic, "autoscale_ups");
    assert!(
        ups >= 2.0,
        "expected repeated scale-ups across days, got {ups}"
    );
    assert!(
        scalar(&elastic, "autoscale_downs") >= 1.0,
        "capacity was never released in a trough"
    );
    let provisioned = provisioned_series(&elastic);
    let start = provisioned.first().expect("samples").1;
    let peak = provisioned.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    assert!(
        peak > start,
        "provisioned capacity never rose above the starting pool"
    );
    // After the peak the staircase steps back down.
    let peak_at = provisioned
        .iter()
        .position(|&(_, v)| v == peak)
        .expect("peak sample exists");
    assert!(
        provisioned[peak_at..].iter().any(|&(_, v)| v < peak),
        "the staircase never came down after its peak"
    );
    assert!(scalar(&elastic, "provisioned_dollars") > 0.0);

    let static_run = run_churn(&small_wave(17, false));
    let provisioned = provisioned_series(&static_run);
    assert!(
        provisioned.iter().all(|&(_, v)| v == provisioned[0].1),
        "a static pool's provisioned line moved"
    );
    assert_eq!(
        scalar(&static_run, "autoscale_ups") + scalar(&static_run, "autoscale_downs"),
        0.0
    );
}

/// The repository's committed `results/` directory.
fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The scaled-down diurnal-wave replay reference, committed as
/// `results/replay_diurnal.json`: the CI scenario's defaults (coordinate
/// backend, 10%/min churn, 80% amplitude, a day a third of the run, the
/// tight default pool, autoscale on) at 600 viewers for 12 minutes.
fn replay_wave() -> ChurnScenario {
    ChurnScenario {
        viewers: 600,
        minutes: 12,
        autoscale: true,
        ..ChurnScenario::preset(ChurnPreset::DiurnalWave)
    }
}

#[test]
fn diurnal_wave_replays_its_committed_small_reference_byte_identically() {
    let wave = run_churn(&replay_wave()).figure.to_json();
    let committed = std::fs::read_to_string(results_dir().join("replay_diurnal.json"))
        .expect("missing results/replay_diurnal.json — run the ignored regenerate test");
    assert_eq!(
        wave, committed,
        "diurnal replay diverged from the committed reference bytes"
    );
}

/// Regenerates the small diurnal replay reference. Run after an
/// *intentional* behaviour change, then commit the file:
/// `cargo test --release -p telecast-conformance --test autoscale -- --ignored regenerate`
#[test]
#[ignore = "writes the committed replay reference"]
fn regenerate_diurnal_replay_reference() {
    std::fs::write(
        results_dir().join("replay_diurnal.json"),
        run_churn(&replay_wave()).figure.to_json(),
    )
    .unwrap();
}
