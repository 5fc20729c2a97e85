//! The benchmark's metric vocabulary: every end-to-end and per-layer
//! metric it prints, with unit and direction. `BENCHMARK.json` lists the
//! same names; a test keeps the two in step.

/// `(name, unit, better)` of every end-to-end metric, printed by untraced
/// runs. Host times are in reference seconds (see `calibrate.rs`);
/// `sim_ms` values are simulated.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_heap_mb", "MB", "lower"),
    ("acceptance_ratio", "ratio", "higher"),
    ("join_delay_p50_ms", "sim_ms", "lower"),
    ("join_delay_p99_ms", "sim_ms", "lower"),
    ("cdn_mbps_hours", "Mbps.h", "lower"),
    ("provisioned_dollars", "USD", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by traced
/// runs.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("media.workload_build_s", "s", "lower"),
    ("media.workload_events", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("heap.setup_mb", "MB", "lower"),
    ("heap.setup_allocs", "count", "lower"),
    ("core.requests", "count", "lower"),
    ("core.request_us_mean", "us", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.peak_event_queue", "count", "lower"),
    ("core.phase.arrival_s", "s", "lower"),
    ("core.phase.arrival_events", "count", "lower"),
    ("core.phase.steady_s", "s", "lower"),
    ("core.phase.steady_events", "count", "lower"),
    ("core.phase.storm_s", "s", "lower"),
    ("core.phase.storm_events", "count", "lower"),
    ("core.phase.drain_s", "s", "lower"),
    ("core.phase.drain_events", "count", "lower"),
    ("core.collect_s", "s", "lower"),
    ("core.rejected_viewers", "count", "lower"),
    ("core.join_delay_samples", "count", "higher"),
    ("core.victims", "count", "lower"),
    ("core.victims_repositioned", "count", "higher"),
    ("core.reposition_ratio", "ratio", "higher"),
    ("core.displacements", "count", "lower"),
    ("core.subscription_messages", "count", "lower"),
    ("core.layer_drops", "count", "lower"),
    ("core.resync_cap_hits", "count", "lower"),
    ("core.switches", "count", "higher"),
    ("core.switch_starved", "count", "lower"),
    ("core.switch_latency_p99_ms", "sim_ms", "lower"),
    ("core.switch_latency_samples", "count", "higher"),
    ("core.wasted_mbps_hours", "Mbps.h", "lower"),
    ("overlay.attach_probes", "count", "lower"),
    ("overlay.probes_per_accepted_stream", "ratio", "lower"),
    ("overlay.depth_shifts", "count", "lower"),
    ("overlay.fragments_merged", "count", "higher"),
    ("overlay.groups_retired", "count", "higher"),
    ("overlay.mean_tree_depth", "levels", "lower"),
    ("cdn.join_retries", "count", "lower"),
    ("cdn.peak_retry_queue", "count", "lower"),
    ("cdn.autoscale_ups", "count", "lower"),
    ("cdn.autoscale_downs", "count", "lower"),
    ("cdn.forecast_error_mbps", "Mbps", "lower"),
    ("cdn.spill_requests", "count", "lower"),
    ("cdn.spill_admits", "count", "higher"),
    ("cdn.spill_denied", "count", "lower"),
    ("core.shard.epochs", "count", "lower"),
    ("core.shard.busy_s", "s", "lower"),
    ("core.shard.critical_path_s", "s", "lower"),
    ("core.shard.barrier_wait_s", "s", "lower"),
    ("core.shard.serial_s", "s", "lower"),
    ("core.shard.util_min", "ratio", "higher"),
    ("core.shard.cross_shard_messages", "count", "lower"),
    ("core.shard.max_event_share", "ratio", "lower"),
    ("core.tenancy.epochs", "count", "lower"),
    ("core.tenancy.epoch_ms_p50", "ms", "lower"),
    ("core.tenancy.epoch_ms_max", "ms", "lower"),
    ("core.tenancy.max_event_share", "ratio", "lower"),
    ("heap.allocs_per_event", "count", "lower"),
    ("heap.bytes_per_event", "B", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.run_wall_s", "s", "lower"),
    ("host.calibration_s", "s", "lower"),
];

/// The unit of a known metric.
#[cfg(test)]
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
