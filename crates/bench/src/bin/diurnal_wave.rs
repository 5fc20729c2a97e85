//! The diurnal-wave elastic-CDN scale scenario.
//!
//! A flash-crowd kickoff (the full population joins at time zero) rolls
//! into several simulated days of sinusoidally-modulated churn: the
//! arrival rate waves between day and night around the steady-state
//! base, so the connected population — and with it the CDN demand —
//! rises and falls. With `--autoscale` the outbound pool tracks the wave
//! (growing per-region edges at the peaks, retiring them in the
//! troughs, billing provisioned Mbps-hours as it goes); without it the
//! starting pool is all there ever is.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin diurnal_wave -- --autoscale
//! cargo run --release -p telecast-bench --bin diurnal_wave -- \
//!     --viewers 20000 --minutes 10 --pool-mbps 5000 --autoscale
//! ```
//!
//! The compressed "day" defaults to a third of the simulated duration
//! (clamped to [4, 1440] minutes) so any `--minutes` setting covers
//! about three full cycles. All exported metrics are deterministic for a
//! fixed seed: two runs with the same flags write byte-identical
//! `results/diurnal_wave.json`. Only the wall-clock line varies between
//! machines.

use std::time::Instant;

use telecast_bench::{run_diurnal, DiurnalScenario, ScenarioArgs};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--minutes",
        "--churn-pct",
        "--backend",
        "--seed",
        "--pool-mbps",
        "--autoscale",
    ]);
    let defaults = DiurnalScenario::default();
    let minutes = args.minutes.unwrap_or(defaults.minutes);
    let scenario = DiurnalScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        minutes,
        churn_per_minute: args
            .churn_pct
            .map(|pct| pct / 100.0)
            .unwrap_or(defaults.churn_per_minute),
        day_minutes: (minutes / 3).clamp(4, 1_440),
        amplitude: defaults.amplitude,
        backend: args.backend.unwrap_or(defaults.backend),
        seed: args.seed.unwrap_or(defaults.seed),
        pool_mbps: args.pool_mbps,
        autoscale: args.autoscale,
    };

    println!(
        "== diurnal wave: {} viewers, {}-minute days over {} simulated minutes (autoscale {}) ==",
        scenario.viewers,
        scenario.day_minutes,
        scenario.minutes,
        if scenario.autoscale { "on" } else { "off" },
    );
    let start = Instant::now();
    let outcome = run_diurnal(&scenario);
    let wall = start.elapsed().as_secs_f64();

    println!("  wall clock           : {wall:.2}s");
    println!("  final population     : {}", outcome.final_population);
    println!("  acceptance ratio ρ   : {:.3}", outcome.acceptance_ratio);
    println!(
        "  scale ups/downs      : {}/{}",
        outcome.autoscale_ups, outcome.autoscale_downs
    );
    println!(
        "  join retries         : {} ({} still parked)",
        outcome.join_retries, outcome.retry_queue_len
    );
    println!(
        "  provisioned bill     : ${:.2} (Mbps-hours at the committed rate)",
        outcome.provisioned_dollars
    );
    telecast_bench::emit_with_wall(&outcome.figure, wall);
}
