//! The scenario binaries' one shared `main` and the flags each reads.
//!
//! Every scenario bin is the one line `scenario_main("<name>")`. The
//! shared main parses the command line against the bin's flag list
//! (setting any other flag exits with status 2 and names it), runs the
//! scenario, prints the stdout-only extras — the wall clock, the
//! sharded runtime's per-shard busy/barrier table, the forecast-error
//! line, the epoch sweep's timing grid — and exports the figure with
//! [`crate::emit_with_wall`].

use std::fmt::Write as _;
use std::time::Instant;

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_cdn::PoolScope;
use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
use telecast_net::Bandwidth;
use telecast_sim::SimRng;

use crate::cli::ScenarioArgs;
use crate::scenario::{
    base_config, metric_points, run_churn, series_from, ChurnPreset, ChurnScenario, Runtime,
};
use crate::sweep::{run_epoch_sweep, sweep_figure, thread_grid, SweepScenario};
use crate::table::FigureData;
use crate::tenancy::{run_tenant_mix, TenantMixScenario};
use crate::view_storm::{run_view_storm, ViewStormScenario};

/// What a scenario bin runs: the flash crowd, [`run_churn`] on a
/// preset, [`run_epoch_sweep`], [`run_tenant_mix`] or [`run_view_storm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    FlashCrowd,
    Churn(ChurnPreset),
    EpochSweep,
    TenantMix,
    ViewStorm,
}

/// One scenario binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioBin {
    /// The bin's name: its figure id and `results/<name>.json` stem.
    pub name: &'static str,
    /// The flags it reads, space-separated.
    pub reads: &'static str,
    driver: Driver,
}

const CHURN_FLAGS: &str =
    "--viewers --minutes --churn-pct --backend --seed --pool-mbps --autoscale";

/// Every scenario bin, in CI matrix order.
pub const BINS: [ScenarioBin; 8] = [
    ScenarioBin {
        name: "flash_crowd",
        reads: "--viewers --backend --seed --pool-mbps",
        driver: Driver::FlashCrowd,
    },
    ScenarioBin {
        name: "churn_storm",
        reads: CHURN_FLAGS,
        driver: Driver::Churn(ChurnPreset::ChurnStorm),
    },
    ScenarioBin {
        name: "diurnal_wave",
        reads: CHURN_FLAGS,
        driver: Driver::Churn(ChurnPreset::DiurnalWave),
    },
    ScenarioBin {
        name: "spike_storm",
        reads: "--viewers --minutes --churn-pct --backend --seed --pool-mbps --autoscale \
                --predictive",
        driver: Driver::Churn(ChurnPreset::SpikeStorm),
    },
    ScenarioBin {
        name: "mega_storm",
        reads: "--viewers --minutes --churn-pct --backend --seed --pool-mbps --autoscale \
                --threads --epoch-secs",
        driver: Driver::Churn(ChurnPreset::MegaStorm),
    },
    ScenarioBin {
        name: "epoch_sweep",
        reads: "--viewers --minutes --churn-pct --backend --seed --threads --epoch-secs",
        driver: Driver::EpochSweep,
    },
    ScenarioBin {
        name: "tenant_mix",
        reads: "--viewers --tenants --zipf --minutes --churn-pct --backend --seed \
                --pool-mbps --autoscale --predictive",
        driver: Driver::TenantMix,
    },
    ScenarioBin {
        name: "view_storm",
        reads: "--viewers --minutes --views --zipf-view --refocus-pct --backend --seed \
                --pool-mbps",
        driver: Driver::ViewStorm,
    },
];

/// The `main` of the scenario bin `name`: parse, run, print the
/// stdout-only extras, export.
///
/// # Panics
///
/// Panics if `name` is not in [`BINS`].
pub fn scenario_main(name: &str) {
    let bin = BINS
        .iter()
        .find(|bin| bin.name == name)
        .unwrap_or_else(|| panic!("no scenario bin `{name}`"));
    let args = ScenarioArgs::from_env(&bin.reads.split(' ').collect::<Vec<_>>());
    let start = Instant::now();
    let (figure, extras) = run(bin.driver, &args);
    let wall = start.elapsed().as_secs_f64();
    println!("# wall clock: {wall:.2}s\n{extras}");
    crate::emit_with_wall(&figure, wall);
}

/// Runs `driver` under `args`: the figure plus the stdout-only lines.
fn run(driver: Driver, args: &ScenarioArgs) -> (FigureData, String) {
    let mut extras = String::new();
    let figure = match driver {
        Driver::FlashCrowd => flash_crowd(args),
        Driver::Churn(preset) => {
            let scenario = with_args(args, ChurnScenario::preset(preset));
            let outcome = run_churn(&scenario);
            if !outcome.shard_stats.is_empty() {
                extras.push_str(
                    "# shard  region         viewers   events     xshard  busy_s  barrier_s   util\n",
                );
            }
            for (i, s) in outcome.shard_stats.iter().enumerate() {
                let _ = writeln!(
                    extras,
                    "# {i:>5}  {:<13} {:>8}  {:>9}  {:>7}  {:>6.2}  {:>9.2}  {:>4.0}%",
                    format!("{:?}", s.region),
                    s.viewers,
                    s.events_processed,
                    s.cross_shard_messages,
                    s.busy_ns as f64 / 1e9,
                    s.barrier_wait_ns as f64 / 1e9,
                    s.utilization() * 100.0,
                );
            }
            if scenario.predictive {
                extras += &forecast_line(
                    outcome.mean_abs_forecast_error_mbps,
                    outcome.forecasts_scored,
                );
            }
            outcome.figure
        }
        Driver::EpochSweep => {
            let defaults = SweepScenario::default();
            let scenario = SweepScenario {
                base: with_args(args, defaults.base),
                epochs_secs: args.epoch_secs.map_or(defaults.epochs_secs, |e| vec![e]),
                threads: thread_grid(args.threads.unwrap_or(4)),
            };
            let cells = run_epoch_sweep(&scenario);
            extras
                .push_str("# epoch_s  threads   wall_s  pool_util  min_shard_util  merge_volume\n");
            for c in &cells {
                let _ = writeln!(
                    extras,
                    "# {:>7}  {:>7}  {:>7.2}  {:>8.0}%  {:>13.0}%  {:>12}",
                    c.epoch_secs,
                    c.threads,
                    c.wall_seconds,
                    c.barrier_utilization * 100.0,
                    c.min_shard_utilization * 100.0,
                    c.merge_volume,
                );
            }
            sweep_figure(&scenario, &cells)
        }
        Driver::TenantMix => {
            let d = TenantMixScenario::default();
            let scenario = TenantMixScenario {
                viewers: args.viewers.unwrap_or(d.viewers),
                tenants: args.tenants.unwrap_or(d.tenants),
                zipf: args.zipf.unwrap_or(d.zipf),
                minutes: args.minutes.unwrap_or(d.minutes),
                churn_per_minute: args.churn_pct.map_or(d.churn_per_minute, |pct| pct / 100.0),
                backend: args.backend.unwrap_or(d.backend),
                seed: args.seed.unwrap_or(d.seed),
                pool_mbps: args.pool_mbps,
                autoscale: args.autoscale,
                predictive: args.predictive,
                ..d
            };
            let outcome = run_tenant_mix(&scenario);
            if scenario.predictive {
                extras += &forecast_line(
                    outcome.mean_abs_forecast_error_mbps,
                    outcome.forecasts_scored,
                );
            }
            outcome.figure
        }
        Driver::ViewStorm => {
            let d = ViewStormScenario::default();
            run_view_storm(&ViewStormScenario {
                viewers: args.viewers.unwrap_or(d.viewers),
                minutes: args.minutes.unwrap_or(d.minutes),
                views: args.views.unwrap_or(d.views),
                zipf_view: args.zipf_view.unwrap_or(d.zipf_view),
                refocus_fraction: args
                    .refocus_pct
                    .map_or(d.refocus_fraction, |pct| pct / 100.0),
                backend: args.backend.unwrap_or(d.backend),
                seed: args.seed.unwrap_or(d.seed),
                pool_mbps: args.pool_mbps,
                ..d
            })
        }
    };
    (figure, extras)
}

/// `base` with every flag `args` sets applied on top.
fn with_args(args: &ScenarioArgs, base: ChurnScenario) -> ChurnScenario {
    ChurnScenario {
        viewers: args.viewers.unwrap_or(base.viewers),
        minutes: args.minutes.unwrap_or(base.minutes),
        churn_per_minute: args
            .churn_pct
            .map_or(base.churn_per_minute, |pct| pct / 100.0),
        backend: args.backend.unwrap_or(base.backend),
        seed: args.seed.unwrap_or(base.seed),
        pool_mbps: args.pool_mbps.or(base.pool_mbps),
        autoscale: args.autoscale || base.autoscale,
        predictive: args.predictive || base.predictive,
        runtime: match base.runtime {
            Runtime::Single => Runtime::Single,
            Runtime::Sharded {
                threads,
                epoch_secs,
            } => Runtime::Sharded {
                threads: args.threads.unwrap_or(threads),
                epoch_secs: args.epoch_secs.unwrap_or(epoch_secs),
            },
        },
        ..base
    }
}

/// The stdout line summarising a predictive run's forecast errors.
fn forecast_line(error_mbps: Option<f64>, scored: usize) -> String {
    match error_mbps {
        Some(err) => format!(
            "# forecast error: {err:.1} Mbps mean |forecast − realised| over {scored} matured \
             forecasts\n"
        ),
        None => "# forecast error: n/a (no predictive forecasts matured)\n".into(),
    }
}

/// The flash crowd: the whole audience requests the session at one
/// instant on the scripted-workload path, against a pool sized so that
/// admission reflects overlay supply. No monitoring, no churn.
fn flash_crowd(args: &ScenarioArgs) -> FigureData {
    let viewers = args.viewers.unwrap_or(10_000);
    let pool = Bandwidth::from_mbps(args.pool_mbps.unwrap_or(48_000));
    let backend = args.backend.unwrap_or(DelayModelChoice::Coordinate);
    let seed = args.seed.unwrap_or(1_000 + viewers as u64);
    let config = SessionConfig {
        monitor_period: None,
        ..base_config(pool, PoolScope::Global, backend, seed)
    };
    let mut session = TelecastSession::builder(config).viewers(viewers).build();
    let mut rng = SimRng::seed_from_u64(0xF1A5_4C20);
    let workload = ViewerWorkload::builder(viewers, session.catalog().len())
        .arrivals(ArrivalModel::Flash)
        .view_choice(ViewChoice::Zipf { s: 0.8 })
        .build(&mut rng);
    session.run_workload(&workload);

    let labels = [
        "acceptance_ratio",
        "admitted_viewers",
        "subscription_messages",
        "displacements",
        "peak_cdn_mbps",
        "join_delay_p99_ms",
    ];
    FigureData {
        id: "flash_crowd".into(),
        title: format!(
            "Flash crowd, {viewers} simultaneous joins ({} delay model)",
            session.delay_backend().kind()
        ),
        x_label: "viewers".into(),
        y_label: "per-metric value".into(),
        series: series_from(&labels, |label| {
            metric_points(session.metrics(), label, viewers as f64)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateBaseline;

    /// Every scenario the bench gate baselines is exactly one bin, the
    /// gate's recorded invocation parses against that bin's flag list,
    /// and the bin's source is the one-line call into the shared main.
    #[test]
    fn every_baselined_scenario_is_exactly_one_bin_that_reads_its_args() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let baseline = std::fs::read_to_string(format!("{root}/BENCH_baseline.json")).unwrap();
        let baseline = GateBaseline::from_json(&baseline).unwrap();
        assert_eq!(baseline.scenarios.len(), BINS.len());
        for scenario in &baseline.scenarios {
            let bins: Vec<&ScenarioBin> = BINS.iter().filter(|b| b.name == scenario.name).collect();
            assert_eq!(
                bins.len(),
                1,
                "{} maps to {} bins",
                scenario.name,
                bins.len()
            );
            let args = ScenarioArgs::parse(scenario.args.split_whitespace().map(String::from))
                .and_then(|args| args.only(&bins[0].reads.split(' ').collect::<Vec<_>>()));
            assert!(args.is_ok(), "{}: {args:?}", scenario.name);
            let source = std::fs::read_to_string(format!(
                "{root}/crates/bench/src/bin/{}.rs",
                scenario.name
            ))
            .unwrap();
            let call = format!("telecast_bench::scenario_main(\"{}\")", scenario.name);
            assert!(
                source.contains(&call),
                "{} does not call {call}",
                scenario.name
            );
        }
    }

    #[test]
    fn churn_bins_name_their_presets_figure() {
        for bin in BINS {
            if let Driver::Churn(preset) = bin.driver {
                assert_eq!(preset.id(), bin.name);
            }
        }
    }

    #[test]
    fn flags_override_the_preset_and_keep_its_runtime_kind() {
        let args = ScenarioArgs::parse(
            [
                "--viewers",
                "7",
                "--churn-pct",
                "2",
                "--threads",
                "3",
                "--predictive",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        let mega = with_args(&args, ChurnScenario::preset(ChurnPreset::MegaStorm));
        assert_eq!((mega.viewers, mega.churn_per_minute), (7, 0.02));
        assert!(mega.autoscale && mega.predictive);
        assert!(matches!(
            mega.runtime,
            Runtime::Sharded {
                threads: 3,
                epoch_secs: 10
            }
        ));
        let churn = with_args(&args, ChurnScenario::preset(ChurnPreset::ChurnStorm));
        assert_eq!(churn.runtime, Runtime::Single);
        assert_eq!(
            churn.seed,
            ChurnScenario::preset(ChurnPreset::ChurnStorm).seed
        );
    }
}
