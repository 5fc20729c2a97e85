//! The 1M-viewer sharded continuous-churn scale scenario.
//!
//! The population is split into five per-region shards, each running its
//! own event loop (churn, monitoring, adaptation, autoscaling) on a
//! worker pool; the shards advance in lock-step 10-second epochs, and
//! cross-shard effects — CDN spill into a foreign regional pool,
//! foreign-lease release on departure — merge deterministically in
//! `(time, shard, seq)` order at each barrier.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin mega_storm
//! cargo run --release -p telecast-bench --bin mega_storm -- \
//!     --viewers 100000 --minutes 10 --threads 4 --epoch-secs 10 --autoscale
//! ```
//!
//! All exported metrics are deterministic for a fixed seed, and
//! `--threads` cannot change them: runs with 1, 2, 4 or 8 threads write
//! byte-identical `results/mega_storm.json`. Only the wall-clock lines
//! (and the per-shard busy/barrier table) vary between runs.

use std::time::Instant;

use telecast_bench::{run_mega, MegaScenario, ScenarioArgs};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--minutes",
        "--churn-pct",
        "--backend",
        "--seed",
        "--pool-mbps",
        "--autoscale",
        "--threads",
        "--epoch-secs",
    ]);
    let defaults = MegaScenario::default();
    let scenario = MegaScenario {
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
        threads: args.threads.unwrap_or(defaults.threads),
        epoch_secs: args.epoch_secs.unwrap_or(defaults.epoch_secs),
    };

    println!(
        "== mega storm: {} viewers over 5 shards, {:.1}%/min for {} simulated minutes, {} threads ==",
        scenario.viewers,
        scenario.churn_per_minute * 100.0,
        scenario.minutes,
        scenario.threads,
    );
    let start = Instant::now();
    let outcome = run_mega(&scenario);
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
        "  spills req/admit/deny  : {}/{}/{} ({} cross-shard messages)",
        outcome.spill_requests,
        outcome.spill_admits,
        outcome.spill_denied,
        outcome.cross_shard_messages,
    );
    println!("  peak event queue   : {}", outcome.peak_event_queue);
    if scenario.autoscale {
        println!(
            "  autoscale ups/downs    : {}/{}",
            outcome.autoscale_ups, outcome.autoscale_downs,
        );
    }
    // Wall-clock per-shard breakdown: observability only, never exported.
    println!("  shard  region         viewers   events     xshard  busy_s  barrier_s   util");
    for (i, s) in outcome.shard_stats.iter().enumerate() {
        println!(
            "  {i:>5}  {:<13} {:>8}  {:>9}  {:>7}  {:>6.2}  {:>9.2}  {:>4.0}%",
            format!("{:?}", s.region),
            s.viewers,
            s.events_processed,
            s.cross_shard_messages,
            s.busy_ns as f64 / 1e9,
            s.barrier_wait_ns as f64 / 1e9,
            s.utilization() * 100.0,
        );
    }
    telecast_bench::emit_with_wall(&outcome.figure, wall);
}
