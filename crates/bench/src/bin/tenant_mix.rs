//! The tenant-mix multi-tenancy scenario.
//!
//! M concurrent broadcasts share the regional CDN pools through one
//! capacity broker: Zipf-split audiences, per-tenant quota floors and
//! ceilings, shared (optionally predictive) autoscalers fed the
//! aggregate demand, and deficit-fair retry arbitration. The headline
//! tenant bursts mid-run; the figure records how far the other
//! tenants' acceptance drifts (the fairness spread) and what the
//! shared pools cost.
//!
//! ```sh
//! cargo run --release -p telecast-bench --bin tenant_mix -- --autoscale --predictive
//! cargo run --release -p telecast-bench --bin tenant_mix -- \
//!     --tenants 8 --viewers 40000 --minutes 10 --autoscale --predictive
//! ```
//!
//! All exported metrics are deterministic for a fixed seed: two runs
//! with the same flags write byte-identical `results/tenant_mix.json`.
//! Only the wall-clock line (and the gitignored `.meta.json` side file
//! the bench gate reads) varies between machines.

use std::time::Instant;

use telecast_bench::{run_tenant_mix, ScenarioArgs, TenantMixScenario};

fn main() {
    let args = ScenarioArgs::from_env(&[
        "--viewers",
        "--tenants",
        "--zipf",
        "--minutes",
        "--churn-pct",
        "--backend",
        "--seed",
        "--pool-mbps",
        "--autoscale",
        "--predictive",
    ]);
    let defaults = TenantMixScenario::default();
    let minutes = args.minutes.unwrap_or(defaults.minutes);
    let scenario = TenantMixScenario {
        viewers: args.viewers.unwrap_or(defaults.viewers),
        tenants: args.tenants.unwrap_or(defaults.tenants),
        zipf: args.zipf.unwrap_or(defaults.zipf),
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
    };

    println!(
        "== tenant mix: {} tenants over a Zipf({}) audience of {} for {} minutes \
         (shared per-region pools, {}) ==",
        scenario.tenants,
        scenario.zipf,
        scenario.viewers,
        scenario.minutes,
        match (scenario.autoscale, scenario.predictive) {
            (true, true) => "predictive autoscale",
            (true, false) => "reactive autoscale",
            (false, _) => "static pools",
        },
    );
    let start = Instant::now();
    let outcome = run_tenant_mix(&scenario);
    let wall = start.elapsed().as_secs_f64();

    println!("  wall clock           : {wall:.2}s");
    println!("  audiences (Zipf)     : {:?}", outcome.audiences);
    println!(
        "  final populations    : {:?} ({} total)",
        outcome.final_population_by_tenant,
        outcome.final_population_by_tenant.iter().sum::<usize>()
    );
    for i in 0..outcome.audiences.len() {
        println!(
            "  tenant {i:<2}           : ρ {:.3}, bad-join {:.3}, rejected {}, retried {}, \
             served {:.0} Mbps-h{}",
            outcome.acceptance_by_tenant[i],
            outcome.bad_join_rate_by_tenant[i],
            outcome.rejected_by_tenant[i],
            outcome.retries_by_tenant[i],
            outcome.served_mbps_hours_by_tenant[i],
            if i == 0 { "  (burster)" } else { "" },
        );
    }
    println!(
        "  acceptance spread    : {:.4} (max − min ρ across tenants)",
        outcome.acceptance_spread
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
