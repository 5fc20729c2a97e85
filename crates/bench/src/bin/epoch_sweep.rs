//! Epoch-length × thread-count sweep over the sharded mega-storm
//! workload.
//!
//! Runs the same deterministic workload at every grid point of
//! `{2, 10, 30}` simulated-second epochs × `{1, 2, 4, ...}` worker
//! threads (powers of two up to `--threads`, default 4), prints each
//! grid point's wall clock, barrier utilization and cross-shard merge
//! volume, and exports the merge-volume series to
//! `results/epoch_sweep.json`.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin epoch_sweep -- \
//!     --viewers 100000 --minutes 10 --threads 4
//! ```
//!
//! The merge-volume series are deterministic for a fixed seed (and
//! thread-count-independent — the same property the byte-identity tests
//! pin), so the exported file regenerates byte for byte. Wall clock and
//! utilization are host measurements: they go to stdout, and the total
//! wall clock to the gitignored `results/epoch_sweep.meta.json`.

use std::time::Instant;

use telecast_bench::{run_epoch_sweep, sweep_figure, ScenarioArgs, SweepScenario};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--minutes",
        "--churn-pct",
        "--backend",
        "--seed",
        "--threads",
        "--epoch-secs",
    ]);
    let defaults = SweepScenario::default();
    let thread_cap = args.threads.unwrap_or(4).max(1);
    let mut threads = vec![1];
    while threads.last().copied().unwrap_or(1) * 2 <= thread_cap {
        threads.push(threads.last().unwrap() * 2);
    }
    let scenario = SweepScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        minutes: args.minutes.unwrap_or(defaults.minutes),
        churn_per_minute: args
            .churn_pct
            .map(|pct| pct / 100.0)
            .unwrap_or(defaults.churn_per_minute),
        backend: args.backend.unwrap_or(defaults.backend),
        seed: args.seed.unwrap_or(defaults.seed),
        epochs_secs: args
            .epoch_secs
            .map(|e| vec![e])
            .unwrap_or(defaults.epochs_secs),
        threads,
    };

    println!(
        "== epoch sweep: {} viewers, {:.1}%/min churn, {} simulated minutes; epochs {:?}s x threads {:?} ==",
        scenario.viewers,
        scenario.churn_per_minute * 100.0,
        scenario.minutes,
        scenario.epochs_secs,
        scenario.threads,
    );
    let start = Instant::now();
    let cells = run_epoch_sweep(&scenario);
    let wall = start.elapsed().as_secs_f64();

    println!("  epoch_s  threads   wall_s  pool_util  min_shard_util  merge_volume");
    for c in &cells {
        println!(
            "  {:>7}  {:>7}  {:>7.2}  {:>8.0}%  {:>13.0}%  {:>12}",
            c.epoch_secs,
            c.threads,
            c.wall_seconds,
            c.barrier_utilization * 100.0,
            c.min_shard_utilization * 100.0,
            c.merge_volume,
        );
    }
    println!(
        "  total wall clock   : {wall:.2}s over {} grid points",
        cells.len()
    );

    let figure = sweep_figure(&scenario, &cells);
    telecast_bench::emit_with_wall(&figure, wall);
}
