//! The spike-storm predictive-autoscaling scenario.
//!
//! Replayed-highlight bursts (6× and 9× the base arrival rate for a few
//! minutes each) land on a diurnal baseline while the CDN runs split
//! per-region pools. With `--predictive` each regional controller sees
//! the burst one forecast horizon ahead — through the churn rate
//! profile's phase plus an EWMA of its region's observed arrivals — and
//! pre-scales its pool before the first join is rejected; with plain
//! `--autoscale` the reactive utilisation band only reacts once the
//! burst is already rejecting.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin spike_storm -- --autoscale --predictive
//! cargo run --release -p telecast-bench --bin spike_storm -- \
//!     --viewers 20000 --minutes 30 --pool-mbps 10000 --autoscale   # reactive comparator
//! ```
//!
//! All exported metrics are deterministic for a fixed seed: two runs
//! with the same flags write byte-identical `results/spike_storm.json`.
//! Only the wall-clock line (and the gitignored `.meta.json` side file
//! the bench gate reads) varies between machines.

use std::time::Instant;

use telecast_bench::{run_spike, ScenarioArgs, SpikeScenario};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--minutes",
        "--churn-pct",
        "--backend",
        "--seed",
        "--pool-mbps",
        "--autoscale",
        "--predictive",
        "--per-region",
    ]);
    let defaults = SpikeScenario::default();
    let minutes = args.minutes.unwrap_or(defaults.minutes);
    let scenario = SpikeScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        minutes,
        churn_per_minute: args
            .churn_pct
            .map(|pct| pct / 100.0)
            .unwrap_or(defaults.churn_per_minute),
        day_minutes: minutes.clamp(4, 1_440),
        amplitude: defaults.amplitude,
        spike_multiplier: defaults.spike_multiplier,
        backend: args.backend.unwrap_or(defaults.backend),
        seed: args.seed.unwrap_or(defaults.seed),
        pool_mbps: args.pool_mbps,
        autoscale: args.autoscale,
        predictive: args.predictive,
        // Per-region pools are the scenario's point; `--per-region` is
        // accepted for symmetry with the other bins but already implied.
        per_region: true,
    };

    println!(
        "== spike storm: {} viewers, {}×/{}× bursts on {}-minute days over {} minutes \
         (per-region pools, {}) ==",
        scenario.viewers,
        scenario.spike_multiplier,
        scenario.spike_multiplier * 1.5,
        scenario.day_minutes,
        scenario.minutes,
        match (scenario.autoscale, scenario.predictive) {
            (true, true) => "predictive autoscale",
            (true, false) => "reactive autoscale",
            (false, _) => "static pools",
        },
    );
    let start = Instant::now();
    let outcome = run_spike(&scenario);
    let wall = start.elapsed().as_secs_f64();

    println!("  wall clock           : {wall:.2}s");
    println!("  final population     : {}", outcome.final_population);
    println!("  acceptance ratio ρ   : {:.3}", outcome.acceptance_ratio);
    println!(
        "  rejected + retried   : {} + {} ({} still parked)",
        outcome.rejected_joins, outcome.join_retries, outcome.retry_queue_len
    );
    println!(
        "  scale ups/downs      : {}/{}",
        outcome.autoscale_ups, outcome.autoscale_downs
    );
    println!(
        "  provisioned          : {:.0} Mbps-hours (${:.2} at the committed rate)",
        outcome.provisioned_mbps_hours, outcome.provisioned_dollars
    );
    match outcome.mean_abs_forecast_error_mbps {
        Some(err) => println!(
            "  forecast error       : {:.1} Mbps mean |forecast − realised| over {} matured forecasts",
            err, outcome.forecasts_scored
        ),
        None => println!("  forecast error       : n/a (no predictive forecasts matured)"),
    }
    telecast_bench::emit_with_wall(&outcome.figure, wall);
}
