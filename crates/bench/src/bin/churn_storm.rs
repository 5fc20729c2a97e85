//! The 100k-viewer continuous-churn scale scenario.
//!
//! The full population joins at time zero on the O(n) coordinate delay
//! substrate, then a steady-state churn process (Poisson arrivals,
//! lognormal dwell, 10% abrupt failures among the leavers) keeps 1% of
//! the audience per minute flowing through the overlay for a simulated
//! hour. Every join/leave/fail is an engine event interleaved with
//! victim recovery, repositioning, monitoring and adaptation — there are
//! no synchronous batches, and the per-level attach planner keeps every
//! placement free of O(n) tree traversals.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin churn_storm
//! cargo run --release -p telecast-bench --bin churn_storm -- \
//!     --viewers 20000 --minutes 5 --churn-pct 2 --backend coordinate
//! ```
//!
//! All exported metrics are deterministic for a fixed seed: two runs
//! with the same flags write byte-identical `results/churn_storm.json`.
//! Only the wall-clock lines vary between machines.

use std::time::Instant;

use telecast_bench::{run_churn, ChurnScenario, ScenarioArgs};

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
    let defaults = ChurnScenario::default();
    let scenario = ChurnScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        minutes: args.minutes.unwrap_or(defaults.minutes),
        churn_per_minute: args
            .churn_pct
            .map(|pct| pct / 100.0)
            .unwrap_or(defaults.churn_per_minute),
        backend: args.backend.unwrap_or(defaults.backend),
        seed: args.seed.unwrap_or(defaults.seed),
        pool_mbps: args.pool_mbps,
        autoscale: args.autoscale,
    };

    println!(
        "== churn storm: {} viewers, {:.1}%/min for {} simulated minutes ==",
        scenario.viewers,
        scenario.churn_per_minute * 100.0,
        scenario.minutes,
    );
    let start = Instant::now();
    let outcome = run_churn(&scenario);
    let wall = start.elapsed().as_secs_f64();

    let churn_events = outcome.arrivals + outcome.departures + outcome.failures;
    println!(
        "  wall clock         : {wall:.2}s ({:.0} membership events/sec)",
        churn_events as f64 / wall.max(1e-9)
    );
    println!("  final population   : {}", outcome.final_population);
    println!(
        "  arrivals/departs/fails : {}/{}/{}",
        outcome.arrivals, outcome.departures, outcome.failures
    );
    println!(
        "  attach probes/stream   : {:.1}",
        outcome.attach_probes as f64 / outcome.accepted_streams.max(1) as f64
    );
    if scenario.autoscale {
        println!(
            "  autoscale ups/downs    : {}/{} ({} retries, {:.0} Mbps provisioned at horizon)",
            outcome.autoscale_ups,
            outcome.autoscale_downs,
            outcome.join_retries,
            outcome.final_provisioned_mbps,
        );
    }
    telecast_bench::emit_with_wall(&outcome.figure, wall);
}
