//! The benchmark's own tests, at small sizes. Run them in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use crate::trace::Tracer;
use crate::workloads::{self, Outcome, Scale};
use crate::{end_to_end, median_of, metrics, per_layer, reference, Reps};

fn small(workload: &str, seed: u64, traced: bool) -> Outcome {
    workloads::run(workload, Scale::Small, seed, &mut Tracer::new(traced))
}

/// Per-layer metrics each workload must measure; every other per-layer
/// metric prints as not exercised.
fn expected_layers(workload: &str) -> BTreeSet<&'static str> {
    let shared = [
        "core.build_s",
        "heap.setup_mb",
        "heap.setup_allocs",
        "sim.events",
        "sim.ns_per_event",
        "sim.peak_event_queue",
        "core.collect_s",
        "core.rejected_viewers",
        "core.join_delay_samples",
        "core.victims",
        "core.victims_repositioned",
        "core.reposition_ratio",
        "core.displacements",
        "core.subscription_messages",
        "core.layer_drops",
        "core.resync_cap_hits",
        "overlay.attach_probes",
        "overlay.probes_per_accepted_stream",
        "overlay.depth_shifts",
        "overlay.mean_tree_depth",
        "cdn.join_retries",
        "cdn.peak_retry_queue",
        "heap.allocs_per_event",
        "heap.bytes_per_event",
        "trace.run_s",
        "trace.unaccounted_s",
        "trace.overhead_s",
        "host.run_wall_s",
        "host.calibration_s",
    ];
    let own: &[&str] = match workload {
        "view_storm" => &[
            "media.workload_build_s",
            "media.workload_events",
            "core.requests",
            "core.request_us_mean",
            "core.phase.arrival_s",
            "core.phase.arrival_events",
            "core.phase.steady_s",
            "core.phase.steady_events",
            "core.phase.storm_s",
            "core.phase.storm_events",
            "core.phase.drain_s",
            "core.phase.drain_events",
            "core.switches",
            "core.switch_starved",
            "core.switch_latency_p99_ms",
            "core.switch_latency_samples",
            "core.wasted_mbps_hours",
            "overlay.fragments_merged",
            "overlay.groups_retired",
        ],
        "mega_churn" => &[
            "cdn.spill_requests",
            "cdn.spill_admits",
            "cdn.spill_denied",
            "core.shard.epochs",
            "core.shard.busy_s",
            "core.shard.critical_path_s",
            "core.shard.barrier_wait_s",
            "core.shard.serial_s",
            "core.shard.util_min",
            "core.shard.cross_shard_messages",
            "core.shard.max_event_share",
        ],
        "tenant_spike" => &[
            "media.workload_build_s",
            "cdn.autoscale_ups",
            "cdn.autoscale_downs",
            "cdn.forecast_error_mbps",
            "core.tenancy.epochs",
            "core.tenancy.epoch_ms_p50",
            "core.tenancy.epoch_ms_max",
            "core.tenancy.max_event_share",
        ],
        other => panic!("unknown workload {other}"),
    };
    shared.iter().chain(own).copied().collect()
}

#[test]
fn every_workload_emits_its_metrics_with_units() {
    for &w in workloads::NAMES {
        let reps = Reps {
            untraced: vec![small(w, 3, false)],
            traced: vec![small(w, 3, true)],
            tracer: Tracer::new(false),
            calibration_s: vec![crate::calibrate::REFERENCE_S; 2],
        };
        let e2e = end_to_end(&reps.untraced);
        for &(name, unit, _) in metrics::END_TO_END {
            let v = e2e[name];
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v} {unit}");
        }
        let layers = per_layer(&reps);
        let got: BTreeSet<&str> = layers.keys().copied().collect();
        assert_eq!(got, expected_layers(w), "{w}: per-layer metrics");
        assert!(layers.values().all(|v| v.is_finite()), "{w}: {layers:?}");
        for name in got {
            assert!(!metrics::unit(name).is_empty());
        }
    }
}

#[test]
fn every_input_weighs_the_same_in_a_median() {
    let o = small("tenant_spike", 3, false);
    let rep = |seed, run_s| Outcome {
        seed,
        run_s,
        ..o.clone()
    };
    // Seed 1 got three repetitions and seed 2 one; the median is over the
    // two inputs.
    let reps = [rep(1, 1.0), rep(1, 1.0), rep(1, 1.0), rep(2, 3.0)];
    assert_eq!(median_of(&reps, |o| o.run_s), 2.0);
}

#[test]
fn host_times_scale_with_the_host_speed() {
    let o = small("tenant_spike", 3, false);
    let at_reference = end_to_end(std::slice::from_ref(&o));
    // The kernel took twice the reference time: a host half as fast.
    let slow_host = end_to_end(&[Outcome {
        host_scale: 0.5,
        ..o
    }]);
    for name in ["setup_s", "run_s"] {
        let want = at_reference[name] / 2.0;
        assert!((slow_host[name] - want).abs() < 1e-12 * want, "{name}");
    }
    let want = at_reference["ops_per_s"] * 2.0;
    assert!((slow_host["ops_per_s"] - want).abs() < 1e-9 * want);
    assert_eq!(
        slow_host["acceptance_ratio"],
        at_reference["acceptance_ratio"]
    );
}

#[test]
fn same_seed_same_digest_and_traced_agrees() {
    for &w in workloads::NAMES {
        let a = small(w, 5, false);
        let b = small(w, 5, false);
        let traced = small(w, 5, true);
        assert!(a.problems.is_empty(), "{w}: {:?}", a.problems);
        assert_eq!(a.digest, b.digest, "{w}: repeat");
        assert_eq!(a.digest, traced.digest, "{w}: traced");
        assert_eq!(a.model, traced.model, "{w}: traced model");
        assert_ne!(a.digest, small(w, 6, false).digest, "{w}: seed ignored");
    }
}

#[test]
fn mega_churn_digest_is_thread_count_independent() {
    use workloads::mega_churn::{run, Params};
    let one = run(&Params::new(Scale::Small, 1), 7, &mut Tracer::new(false));
    let two = small("mega_churn", 7, true);
    assert_eq!(one.digest, two.digest);
}

#[test]
fn recorded_small_references_still_match() {
    for &w in workloads::NAMES {
        for seed in [1, 424_242] {
            let expected = reference(w, Scale::Small, seed)
                .unwrap_or_else(|| panic!("no small reference for {w} seed {seed}"));
            assert_eq!(small(w, seed, false).digest, expected, "{w} seed {seed}");
        }
    }
}

#[test]
fn spans_account_for_the_traced_run() {
    for &w in workloads::NAMES {
        let o = small(w, 2, true);
        let gap = o.layers["trace.unaccounted_s"];
        assert!(
            gap.abs() < 0.01 * o.run_s + 1e-3,
            "{w}: {gap} of {}",
            o.run_s
        );
    }
    let o = small("view_storm", 2, true);
    let phases: f64 = ["arrival", "steady", "storm", "drain"]
        .iter()
        .map(|p| o.layers[format!("core.phase.{p}_s").as_str()])
        .sum();
    let collect = o.layers["core.collect_s"];
    assert!((phases + collect - o.run_s).abs() < 1e-3 + 0.01 * o.run_s);
    let m = small("mega_churn", 2, true);
    let split = m.layers["core.shard.critical_path_s"] + m.layers["core.shard.serial_s"];
    assert!((split + m.layers["core.collect_s"] - m.run_s).abs() < 1e-3 + 0.01 * m.run_s);
    // The critical path is an estimate; it must not exceed the stepped
    // wall time it is taken out of.
    assert!(
        m.layers["core.shard.serial_s"] > -0.01 * m.run_s,
        "{:?}",
        m.layers
    );
}

#[test]
fn critical_path_packs_shards_longest_first() {
    use workloads::mega_churn::lpt_makespan;
    assert_eq!(lpt_makespan(&[3, 5, 3, 4, 3], 1), 18);
    // 5 | 4 → 5 | 7 → 8 | 7 → 8 | 10.
    assert_eq!(lpt_makespan(&[3, 5, 3, 4, 3], 2), 10);
    assert_eq!(lpt_makespan(&[1, 7, 1], 2), 7);
    assert_eq!(lpt_makespan(&[4, 4], 8), 4);
}

/// Driving the script phase by phase must simulate exactly what
/// `TelecastSession::run_workload` does in one call.
#[test]
fn phase_stepping_replays_run_workload() {
    use workloads::view_storm::{config, digest, script, Params};
    let p = Params::new(Scale::Small);
    let config = config(&p, 4);
    let catalog =
        telecast_media::ViewCatalog::canonical(&config.sites, config.streams_per_local_view);
    let mut session = telecast::TelecastSession::builder(config)
        .viewers(p.viewers)
        .build();
    session.run_workload(&script(&p, 4, catalog.len()));
    assert_eq!(small("view_storm", 4, false).digest, digest(&session));
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let spec = include_str!("../../BENCHMARK.json");
    let objects: Vec<&str> = spec.split('{').collect();
    for &(name, unit, better) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        let key = format!("\"name\": \"{name}\"");
        let entry = objects
            .iter()
            .find(|o| o.contains(&key))
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {name}"));
        assert!(
            entry.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} unit"
        );
        assert!(
            entry.contains(&format!("\"better\": \"{better}\"")),
            "{name} better"
        );
    }
    let listed = spec.matches("\"unit\":").count();
    assert_eq!(listed, metrics::END_TO_END.len() + metrics::PER_LAYER.len());
}
