//! The 20k-viewer view-switching-storm scenario.
//!
//! A Zipf-skewed audience spreads over the view catalog during the
//! first simulated minute, then three correlated re-focus storms each
//! pull a configurable fraction of everyone onto one target view inside
//! a five-second window. Every switch tears the viewer out of the old
//! view's trees; the per-view prune pass folds the abandoned fragments
//! back under P2P parents, returns their CDN serves to the pool, and
//! retires fully drained groups. The figure gates switch latency,
//! wasted subtree bandwidth and the acceptance ratio.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin view_storm
//! cargo run --release -p telecast-bench --bin view_storm -- \
//!     --viewers 20000 --views 8 --zipf-view 1.1 --refocus-pct 40
//! ```
//!
//! All exported metrics are deterministic for a fixed seed: two runs
//! with the same flags write byte-identical `results/view_storm.json`.
//! Only the wall-clock lines vary between machines.

use std::time::Instant;

use telecast_bench::{run_view_storm, ScenarioArgs, ViewStormScenario};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--minutes",
        "--views",
        "--zipf-view",
        "--refocus-pct",
        "--backend",
        "--seed",
        "--pool-mbps",
    ]);
    let defaults = ViewStormScenario::default();
    let scenario = ViewStormScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        minutes: args.minutes.unwrap_or(defaults.minutes),
        views: args.views.unwrap_or(defaults.views),
        zipf_view: args.zipf_view.unwrap_or(defaults.zipf_view),
        refocus_fraction: args
            .refocus_pct
            .map(|pct| pct / 100.0)
            .unwrap_or(defaults.refocus_fraction),
        backend: args.backend.unwrap_or(defaults.backend),
        seed: args.seed.unwrap_or(defaults.seed),
        pool_mbps: args.pool_mbps,
        prune_floor: defaults.prune_floor,
    };

    println!(
        "== view storm: {} viewers over {} views (Zipf {}), {:.0}% re-focus, {} simulated minutes ==",
        scenario.viewers,
        scenario.views,
        scenario.zipf_view,
        scenario.refocus_fraction * 100.0,
        scenario.minutes,
    );
    let start = Instant::now();
    let outcome = run_view_storm(&scenario);
    let wall = start.elapsed().as_secs_f64();

    println!(
        "  wall clock         : {wall:.2}s ({:.0} switches/sec)",
        outcome.switches as f64 / wall.max(1e-9)
    );
    println!("  final population   : {}", outcome.final_population);
    println!(
        "  switches (starved) : {} ({})",
        outcome.switches, outcome.switch_starved
    );
    println!("  switch p99         : {:.1} ms", outcome.switch_p99_ms);
    println!(
        "  wasted subtree bw  : {:.3} Mbps-hours",
        outcome.wasted_mbps_hours
    );
    println!(
        "  prune: merged/retired  : {}/{} ({:.0} Mbps reclaimed)",
        outcome.fragments_merged, outcome.groups_retired, outcome.reclaimed_mbps
    );
    println!(
        "  acceptance ratio   : {:.4} (peak CDN {:.0} Mbps)",
        outcome.acceptance_ratio, outcome.peak_cdn_mbps
    );
    telecast_bench::emit_with_wall(&outcome.figure, wall);
}
