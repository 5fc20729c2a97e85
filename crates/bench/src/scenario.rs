//! The churn-family scenarios as data: one [`ChurnScenario`] spec, four
//! named [`ChurnPreset`]s and one runner, [`run_churn`].
//!
//! Every churn-family run prefills its steady population at time zero
//! (a flash kickoff), installs a [`ChurnSpec`] steady-state churn process
//! (Poisson arrivals, lognormal dwell, a fraction of abrupt failures)
//! whose arrival rate follows the spec's [`RateShape`], and runs to the
//! horizon on one event loop or on the sharded per-region runtime. The
//! presets differ only in data: their defaults, pool sizing, gateway
//! count, pool scope, figure id, title and the ordered list of exported
//! series. Everything a figure reports is a function of the seed alone,
//! so equal specs export byte-identical JSON on any host and at any
//! thread count.
//!
//! The shared pieces the tenant mix and the view storm reuse live here
//! too: the base [`SessionConfig`], the [`PoolSizing`] rules, the
//! autoscale and predictive policies, the burst schedule and the
//! label→value lookup that builds every scalar series.

use telecast::TelecastSession;
use telecast::{DelayModelChoice, MemberStats, SessionConfig, SessionMetrics, ShardedSession};
use telecast_cdn::{AutoscalePolicy, CdnConfig, PoolScope, PredictivePolicy};
use telecast_media::{ChurnSpec, RateProfile, SpikeWindow};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimTime, TimeSeries};

use crate::table::{FigureData, Series};

/// How a starting CDN pool scales with the steady population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSizing {
    /// Mbps per steady viewer.
    pub mbps_per_viewer: u64,
    /// Floor in Mbps.
    pub min_mbps: u64,
}

impl PoolSizing {
    /// Population-scaled provisioning: the prefill front is CDN-served
    /// until the first trees grow slots (`churn_storm`, `mega_storm`,
    /// `view_storm`).
    pub const POPULATION: PoolSizing = PoolSizing {
        mbps_per_viewer: 5,
        min_mbps: 3_000,
    };
    /// Deliberately tight, so a diurnal peak exceeds it without
    /// autoscaling (`diurnal_wave`).
    pub const TIGHT: PoolSizing = PoolSizing {
        mbps_per_viewer: 1,
        min_mbps: 1_000,
    };
    /// Enough for the steady audience once the trees carry their share,
    /// far short of a burst's front (`spike_storm`, `tenant_mix`).
    pub const BURST: PoolSizing = PoolSizing {
        mbps_per_viewer: 4,
        min_mbps: 2_000,
    };

    /// The pool for `viewers`, unless `override_mbps` names one.
    pub fn pool(self, override_mbps: Option<u64>, viewers: usize) -> Bandwidth {
        Bandwidth::from_mbps(
            override_mbps.unwrap_or((viewers as u64 * self.mbps_per_viewer).max(self.min_mbps)),
        )
    }
}

/// The autoscale policy the scenarios share: min = the starting pool,
/// ceiling = `8 Mbps × gateways` (min 6000 Mbps), step = a quarter of
/// the starting pool.
pub fn autoscale_policy_for(pool: Bandwidth, gateways: usize) -> AutoscalePolicy {
    let ceiling = Bandwidth::from_mbps((gateways as u64 * 8).max(6_000));
    AutoscalePolicy::for_pool(pool, ceiling)
}

/// The predictive policy the scenarios share. It runs hotter than the
/// reactive band's high watermark: the forecast's trend and surge terms
/// replace the standing headroom a reactive controller needs, so the
/// same service is bought with less provisioned capacity.
pub const PREDICTIVE_POLICY: PredictivePolicy = PredictivePolicy {
    horizon: SimDuration::from_secs(45),
    alpha: 0.5,
    target_utilisation: 0.95,
};

/// The scenarios' base session: the paper's setup with 2–14 Mbps viewer
/// outbound, a `pool` split by `scope`, 10-second monitoring, `backend`
/// delays and `seed`.
pub fn base_config(
    pool: Bandwidth,
    scope: PoolScope,
    backend: DelayModelChoice,
    seed: u64,
) -> SessionConfig {
    SessionConfig::default()
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(
            CdnConfig::default()
                .with_outbound(pool)
                .with_pool_scope(scope),
        )
        .with_delay_model(backend)
        .with_monitor_period(SimDuration::from_secs(10))
        .with_seed(seed)
}

/// The replayed-highlight burst schedule of a `minutes`-long run: two
/// windows at 40% and 70% of the horizon, the first `multiplier`×, the
/// second half as tall again, each a tenth of the run (at least a
/// minute).
pub fn burst_windows(minutes: u64, multiplier: f64) -> Vec<SpikeWindow> {
    let horizon_secs = minutes * 60;
    let duration = SimDuration::from_secs((horizon_secs / 10).max(60));
    vec![
        SpikeWindow {
            start: SimTime::from_secs(horizon_secs * 2 / 5),
            duration,
            multiplier,
        },
        SpikeWindow {
            start: SimTime::from_secs(horizon_secs * 7 / 10),
            duration,
            multiplier: multiplier * 1.5,
        },
    ]
}

/// Length in minutes of one compressed day when `days` of them span a
/// `minutes`-long run, clamped to `[4, 1440]`.
pub fn day_minutes(minutes: u64, days: u64) -> u64 {
    (minutes / days.max(1)).clamp(4, 1_440)
}

/// How the churn arrival rate moves over the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateShape {
    /// Constant rate.
    Steady,
    /// A day/night wave starting at its trough, `days` cycles per run;
    /// the rate swings between `1 − amplitude` and `1 + amplitude` times
    /// the base.
    Diurnal {
        /// Compressed days per run.
        days: u64,
        /// Wave amplitude in `[0, 1]`.
        amplitude: f64,
    },
    /// The diurnal wave with the [`burst_windows`] schedule on top.
    Bursts {
        /// Compressed days per run.
        days: u64,
        /// Wave amplitude in `[0, 1]`.
        amplitude: f64,
        /// Rate multiplier of the first burst.
        spike_multiplier: f64,
    },
}

impl RateShape {
    /// The arrival-rate profile of a `minutes`-long run.
    pub fn profile(self, minutes: u64) -> RateProfile {
        let day = |days| SimDuration::from_secs(day_minutes(minutes, days) * 60);
        match self {
            RateShape::Steady => RateProfile::Constant,
            RateShape::Diurnal { days, amplitude } => {
                RateProfile::diurnal_with_spikes(day(days), amplitude, &[])
            }
            RateShape::Bursts {
                days,
                amplitude,
                spike_multiplier,
            } => RateProfile::diurnal_with_spikes(
                day(days),
                amplitude,
                &burst_windows(minutes, spike_multiplier),
            ),
        }
    }
}

/// Which event loop runs the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// One global event loop.
    Single,
    /// Five per-region shards ([`ShardedSession`]) advancing in
    /// lock-step epochs on a worker pool. Steady churn only.
    Sharded {
        /// Worker threads; a wall-clock knob the output never depends on.
        threads: usize,
        /// Barrier period in simulated seconds.
        epoch_secs: u64,
    },
}

/// The four named churn-family figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPreset {
    /// A sustained population under 1%/min churn on one event loop.
    ChurnStorm,
    /// A flash kickoff into compressed diurnal days on a tight pool.
    DiurnalWave,
    /// Replayed-highlight bursts on a diurnal baseline, per-region pools.
    SpikeStorm,
    /// The churn storm at a million viewers on the sharded runtime.
    MegaStorm,
}

/// A preset's fixed data.
struct PresetData {
    id: &'static str,
    x_label: &'static str,
    sizing: PoolSizing,
    /// Provisioned gateways per steady viewer: spare gateways give a
    /// burst real viewers to add instead of merely re-admitting leavers.
    gateways_per_viewer: usize,
    scope: PoolScope,
    series: &'static [&'static str],
}

const CHURN_STORM: PresetData = PresetData {
    id: "churn_storm",
    x_label: "viewers (scalars) / seconds (population)",
    sizing: PoolSizing::POPULATION,
    gateways_per_viewer: 1,
    scope: PoolScope::Global,
    series: &[
        "population_over_time",
        "acceptance_ratio",
        "final_population",
        "churn_arrivals",
        "churn_departures",
        "churn_failures",
        "victims",
        "victims_repositioned",
        "displacements",
        "peak_cdn_mbps",
        "join_delay_p99_ms",
        "attach_probes_per_accepted_stream",
        "depth_shift_ops_per_accepted_stream",
        "peak_provisioned_mbps",
        "autoscale_ups",
        "autoscale_downs",
        "join_retries",
    ],
};

const DIURNAL_WAVE: PresetData = PresetData {
    id: "diurnal_wave",
    x_label: "seconds (series) / viewers (scalars)",
    sizing: PoolSizing::TIGHT,
    gateways_per_viewer: 1,
    scope: PoolScope::Global,
    series: &[
        "population_over_time",
        "provisioned_mbps_over_time",
        "utilisation_over_time",
        "acceptance_ratio",
        "final_population",
        "churn_arrivals",
        "churn_departures",
        "peak_cdn_mbps",
        "peak_provisioned_mbps",
        "autoscale_ups",
        "autoscale_downs",
        "join_retries",
        "provisioned_dollars",
    ],
};

const SPIKE_STORM: PresetData = PresetData {
    id: "spike_storm",
    x_label: "seconds (series) / viewers (scalars)",
    sizing: PoolSizing::BURST,
    gateways_per_viewer: 2,
    scope: PoolScope::PerRegion,
    series: &[
        "population_over_time",
        "provisioned_mbps_over_time",
        "utilisation_over_time",
        "provisioned_mbps_north-america",
        "provisioned_mbps_europe",
        "provisioned_mbps_asia",
        "provisioned_mbps_south-america",
        "provisioned_mbps_oceania",
        "acceptance_ratio",
        "final_population",
        "churn_arrivals",
        "rejected_joins",
        "join_retries",
        "autoscale_ups",
        "autoscale_downs",
        "peak_cdn_mbps",
        "peak_provisioned_mbps",
        "provisioned_mbps_hours",
        "provisioned_dollars",
    ],
};

const MEGA_STORM: PresetData = PresetData {
    id: "mega_storm",
    x_label: "viewers (scalars) / seconds (population) / shard (per-shard)",
    sizing: PoolSizing::POPULATION,
    gateways_per_viewer: 1,
    scope: PoolScope::Global,
    series: &[
        "population_over_time",
        "acceptance_ratio",
        "final_population",
        "churn_arrivals",
        "churn_departures",
        "churn_failures",
        "peak_cdn_mbps",
        "peak_provisioned_mbps",
        "autoscale_ups",
        "autoscale_downs",
        "join_retries",
        "spill_requests",
        "spill_admits",
        "spill_releases",
        "spill_denied",
        "cross_shard_messages",
        "peak_event_queue",
        "peak_retry_queue",
        "viewers_by_shard",
        "events_processed_by_shard",
        "cross_shard_messages_by_shard",
        "peak_event_queue_by_shard",
    ],
};

impl ChurnPreset {
    fn data(self) -> &'static PresetData {
        match self {
            ChurnPreset::ChurnStorm => &CHURN_STORM,
            ChurnPreset::DiurnalWave => &DIURNAL_WAVE,
            ChurnPreset::SpikeStorm => &SPIKE_STORM,
            ChurnPreset::MegaStorm => &MEGA_STORM,
        }
    }

    /// The figure id (also the bin name and the `results/` file stem).
    pub fn id(self) -> &'static str {
        self.data().id
    }
}

/// One churn-family run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnScenario {
    /// The figure this run exports, and its pool sizing, gateway count
    /// and pool scope.
    pub preset: ChurnPreset,
    /// Target steady-state population (also the prefill size).
    pub viewers: usize,
    /// Simulated duration in minutes.
    pub minutes: u64,
    /// Fraction of the population leaving (and, in equilibrium,
    /// arriving) per minute at the base rate.
    pub churn_per_minute: f64,
    /// How the arrival rate moves over the run.
    pub shape: RateShape,
    /// Delay substrate; coordinate is the one that fits 100k+ nodes.
    pub backend: DelayModelChoice,
    /// Master seed.
    pub seed: u64,
    /// Starting CDN pool in Mbps; `None` applies the preset's sizing.
    pub pool_mbps: Option<u64>,
    /// Whether the elastic-CDN autoscaler runs.
    pub autoscale: bool,
    /// Whether the autoscaler forecasts ([`PREDICTIVE_POLICY`]) instead
    /// of reacting to its utilisation band.
    pub predictive: bool,
    /// The event loop(s) the session runs on.
    pub runtime: Runtime,
}

impl ChurnScenario {
    /// The preset's defaults: what its bin runs with no flags.
    pub fn preset(preset: ChurnPreset) -> Self {
        let base = ChurnScenario {
            preset,
            viewers: 100_000,
            minutes: 60,
            churn_per_minute: 0.01,
            shape: RateShape::Steady,
            backend: DelayModelChoice::Coordinate,
            seed: 0xC4_0211,
            pool_mbps: None,
            autoscale: false,
            predictive: false,
            runtime: Runtime::Single,
        };
        match preset {
            ChurnPreset::ChurnStorm => base,
            ChurnPreset::DiurnalWave => ChurnScenario {
                viewers: 20_000,
                minutes: 120,
                churn_per_minute: 0.10,
                shape: RateShape::Diurnal {
                    days: 3,
                    amplitude: 0.8,
                },
                seed: 0xD1_0423,
                ..base
            },
            ChurnPreset::SpikeStorm => ChurnScenario {
                viewers: 20_000,
                minutes: 30,
                churn_per_minute: 0.30,
                shape: RateShape::Bursts {
                    days: 1,
                    amplitude: 0.5,
                    spike_multiplier: 6.0,
                },
                seed: 0x51_1735,
                ..base
            },
            ChurnPreset::MegaStorm => ChurnScenario {
                viewers: 1_000_000,
                seed: 0x4D_0607,
                runtime: Runtime::Sharded {
                    threads: telecast_sim::default_parallelism(),
                    epoch_secs: 10,
                },
                ..base
            },
        }
    }

    /// The starting CDN pool.
    pub fn pool(&self) -> Bandwidth {
        self.preset.data().sizing.pool(self.pool_mbps, self.viewers)
    }

    fn title(&self) -> String {
        let autoscale = match (self.autoscale, self.predictive) {
            (true, true) => "predictive autoscale",
            (true, false) => "reactive autoscale",
            (false, _) => "static",
        };
        let (days, amplitude, multiplier) = match self.shape {
            RateShape::Steady => (1, 0.0, 1.0),
            RateShape::Diurnal { days, amplitude } => (days, amplitude, 1.0),
            RateShape::Bursts {
                days,
                amplitude,
                spike_multiplier,
            } => (days, amplitude, spike_multiplier),
        };
        let day = day_minutes(self.minutes, days);
        let (viewers, minutes) = (self.viewers, self.minutes);
        let churn = self.churn_per_minute * 100.0;
        match self.preset {
            ChurnPreset::ChurnStorm => format!(
                "Churn storm: {viewers} viewers, {churn:.1}%/min churn over {minutes} simulated \
                 minutes ({:?} backend)",
                self.backend
            ),
            ChurnPreset::DiurnalWave => format!(
                "Diurnal wave: {viewers} viewers, {:.0}% amplitude over {day}-minute days for \
                 {minutes} minutes ({} pool, autoscale {})",
                amplitude * 100.0,
                self.pool(),
                if self.autoscale { "on" } else { "off" },
            ),
            ChurnPreset::SpikeStorm => format!(
                "Spike storm: {viewers} viewers, {multiplier}× bursts on a {:.0}%-amplitude \
                 {day}-minute-day baseline for {minutes} minutes ({} pool, per-region, {autoscale})",
                amplitude * 100.0,
                self.pool(),
            ),
            ChurnPreset::MegaStorm => format!(
                "Mega storm: {viewers} viewers over 5 shards, {churn:.1}%/min churn, {minutes} \
                 simulated minutes ({:?} backend)",
                self.backend
            ),
        }
    }
}

/// What a churn run leaves besides its figure: only values the figure
/// does not export (read everything else off the figure).
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// The exported figure (`results/<preset id>.json`).
    pub figure: FigureData,
    /// Joins still parked for retry at the horizon (single loop only).
    pub retry_queue_len: usize,
    /// Provisioned CDN capacity at the horizon in Mbps (single loop
    /// only).
    pub final_provisioned_mbps: f64,
    /// Mean absolute error of the predictive controllers' matured
    /// forecasts in Mbps; `None` when none matured.
    pub mean_abs_forecast_error_mbps: Option<f64>,
    /// Matured forecasts scored into the error above.
    pub forecasts_scored: usize,
    /// Per-shard observability in region order (sharded runtime only).
    /// `busy_ns` and `barrier_wait_ns` are wall clock: print them, never
    /// export them.
    pub shard_stats: Vec<MemberStats>,
}

/// Runs the scenario and collapses it into its preset's figure. Pure in
/// the seed: equal scenarios export byte-identical figures regardless of
/// host, thread count or repetition.
///
/// # Panics
///
/// Panics if a sharded run asks for a non-steady [`RateShape`].
pub fn run_churn(scenario: &ChurnScenario) -> ChurnOutcome {
    let data = scenario.preset.data();
    let pool = scenario.pool();
    let gateways = scenario.viewers * data.gateways_per_viewer;
    let mut config = base_config(pool, data.scope, scenario.backend, scenario.seed);
    if scenario.autoscale {
        config = config.with_autoscale(autoscale_policy_for(pool, gateways));
    }
    if scenario.predictive {
        config = config.with_predictive(PREDICTIVE_POLICY);
    }
    let horizon = SimTime::from_secs(scenario.minutes * 60);
    let x = scenario.viewers as f64;

    let (single, sharded) = match scenario.runtime {
        Runtime::Single => {
            let mut session = TelecastSession::builder(config).viewers(gateways).build();
            let spec = ChurnSpec::steady_state(scenario.viewers, scenario.churn_per_minute)
                .with_rate_profile(scenario.shape.profile(scenario.minutes));
            session.start_churn(spec, horizon, scenario.viewers);
            session.run_until(horizon);
            (Some(session), None)
        }
        Runtime::Sharded {
            threads,
            epoch_secs,
        } => {
            assert_eq!(
                scenario.shape,
                RateShape::Steady,
                "the sharded runtime runs steady churn only"
            );
            let epoch = SimDuration::from_secs(epoch_secs);
            let mut session = ShardedSession::new(config, gateways, threads, epoch);
            session.start_churn(scenario.churn_per_minute, horizon);
            session.run_until(horizon);
            (None, Some(session))
        }
    };
    let merged;
    let (m, connected, stats): (&SessionMetrics, usize, &[MemberStats]) = match (&single, &sharded)
    {
        (Some(session), _) => (session.metrics(), session.connected_viewers(), &[]),
        (_, Some(session)) => {
            merged = session.merged_metrics();
            (&merged, session.connected_viewers(), session.stats())
        }
        (None, None) => unreachable!("one runtime ran"),
    };
    let per_stream = |total: u64| total as f64 / m.accepted_streams.value().max(1) as f64;
    let by_shard = |f: fn(&MemberStats) -> u64| -> Vec<(f64, f64)> {
        stats
            .iter()
            .enumerate()
            .map(|(i, s)| (i as f64, f(s) as f64))
            .collect()
    };
    let series = series_from(data.series, |label| {
        let scalar = match (label, &single, &sharded) {
            ("final_population", ..) => connected as f64,
            ("attach_probes_per_accepted_stream", Some(s), _) => per_stream(s.attach_probe_total()),
            ("depth_shift_ops_per_accepted_stream", Some(s), _) => {
                per_stream(s.depth_shift_total())
            }
            ("provisioned_mbps_hours", Some(s), _) => s.cdn().provisioned_mbps_hours_at(horizon),
            ("provisioned_dollars", Some(s), _) => s.cdn().provisioned_dollars_at(horizon),
            ("spill_denied", _, Some(s)) => s.spill_denied() as f64,
            ("cross_shard_messages", ..) => {
                stats.iter().map(|s| s.cross_shard_messages).sum::<u64>() as f64
            }
            ("viewers_by_shard", ..) => return Some(by_shard(|s| s.viewers as u64)),
            ("events_processed_by_shard", ..) => return Some(by_shard(|s| s.events_processed)),
            ("cross_shard_messages_by_shard", ..) => {
                return Some(by_shard(|s| s.cross_shard_messages))
            }
            ("peak_event_queue_by_shard", ..) => return Some(by_shard(|s| s.peak_event_queue)),
            // A per-region pool slot's provisioned series.
            (_, Some(s), _) if label.starts_with("provisioned_mbps_") => {
                let slot = m.provisioned_by_slot.iter().enumerate().find(|&(slot, _)| {
                    let region = s.cdn().slot_region(slot);
                    region.is_some_and(|r| label == format!("provisioned_mbps_{r}"))
                });
                return slot.map_or_else(|| metric_points(m, label, x), |(_, s)| Some(xy(s)));
            }
            _ => return metric_points(m, label, x),
        };
        Some(vec![(x, scalar)])
    });

    ChurnOutcome {
        figure: FigureData {
            id: data.id.into(),
            title: scenario.title(),
            x_label: data.x_label.into(),
            y_label: "per-metric value".into(),
            series,
        },
        retry_queue_len: single.as_ref().map_or(0, |s| s.retry_queue_len()),
        final_provisioned_mbps: single
            .as_ref()
            .map_or(0.0, |s| s.cdn().outbound().total().as_mbps_f64()),
        mean_abs_forecast_error_mbps: m.mean_abs_forecast_error_mbps(),
        forecasts_scored: m
            .forecast_error_by_slot
            .iter()
            .map(|s| s.points().len())
            .sum(),
        shard_stats: stats.to_vec(),
    }
}

/// A time series as `(seconds, value)` points.
pub fn xy(series: &TimeSeries) -> Vec<(f64, f64)> {
    series
        .points()
        .iter()
        .map(|&(at, v)| (at.as_secs_f64(), v))
        .collect()
}

/// Builds the series `labels` in order, each from `lookup`.
///
/// # Panics
///
/// Panics on a label `lookup` does not know: a misspelt label must fail
/// loudly, not drop a column from a committed figure.
pub fn series_from(
    labels: &[&str],
    lookup: impl Fn(&str) -> Option<Vec<(f64, f64)>>,
) -> Vec<Series> {
    labels
        .iter()
        .map(|&label| {
            let points = lookup(label).unwrap_or_else(|| panic!("no value for series `{label}`"));
            Series::new(label, points)
        })
        .collect()
}

/// The series `label` read off a session's metrics: a time series as
/// `(seconds, value)` points, a scalar as one point at `x`. `None` for
/// a label the metrics do not carry.
pub fn metric_points(m: &SessionMetrics, label: &str, x: f64) -> Option<Vec<(f64, f64)>> {
    let count = |c: &telecast_sim::Counter| c.value() as f64;
    let p99 = |h: &telecast_sim::Histogram| h.percentile(99.0).unwrap_or(0.0);
    let value = match label {
        "population_over_time" => return Some(xy(&m.population)),
        "provisioned_mbps_over_time" => return Some(xy(&m.provisioned_cdn_mbps)),
        "utilisation_over_time" => return Some(xy(&m.cdn_utilisation)),
        "acceptance_ratio" => m.acceptance_ratio(),
        "admitted_viewers" => count(&m.admitted_viewers),
        "rejected_joins" => count(&m.rejected_viewers),
        "churn_arrivals" => count(&m.churn_arrivals),
        "churn_departures" => count(&m.churn_departures),
        "churn_failures" => count(&m.churn_failures),
        "victims" => count(&m.victims),
        "victims_repositioned" => count(&m.victims_repositioned),
        "displacements" => count(&m.displacements),
        "subscription_messages" => count(&m.subscription_messages),
        "peak_cdn_mbps" => m.peak_cdn_mbps(),
        "peak_provisioned_mbps" => m.provisioned_cdn_mbps.peak(),
        "join_delay_p99_ms" => p99(&m.join_delays_ms),
        "autoscale_ups" => count(&m.autoscale_ups),
        "autoscale_downs" => count(&m.autoscale_downs),
        "join_retries" => count(&m.join_retries),
        "spill_requests" => count(&m.spill_requests),
        "spill_admits" => count(&m.spill_admits),
        "spill_releases" => count(&m.spill_releases),
        "peak_event_queue" => m.peak_event_queue as f64,
        "peak_retry_queue" => m.peak_retry_queue as f64,
        "view_changes" => {
            (m.switch_latency_ms.samples().len() as u64 + m.switch_starved.value()) as f64
        }
        "switch_latency_p50_ms" => m.switch_latency_ms.percentile(50.0).unwrap_or(0.0),
        "switch_latency_p99_ms" => p99(&m.switch_latency_ms),
        "switch_starved" => count(&m.switch_starved),
        "wasted_mbps_hours" => m.wasted_mbps_hours(),
        "fragments_merged" => count(&m.fragments_merged),
        "groups_retired" => count(&m.groups_retired),
        "prune_reclaimed_mbps" => m.prune_reclaimed_kbps.value() as f64 / 1_000.0,
        "view_change_delay_p99_ms" => p99(&m.view_change_delays_ms),
        _ => return None,
    };
    Some(vec![(x, value)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(outcome: &ChurnOutcome, label: &str) -> f64 {
        outcome.figure.scalar(label).expect(label)
    }

    /// Everything deterministic an outcome carries.
    fn deterministic(outcome: &ChurnOutcome) -> (String, usize, u64, Option<u64>, usize) {
        (
            outcome.figure.to_json(),
            outcome.retry_queue_len,
            outcome.final_provisioned_mbps.to_bits(),
            outcome.mean_abs_forecast_error_mbps.map(f64::to_bits),
            outcome.forecasts_scored,
        )
    }

    /// A small storm sustains a population and actually churns.
    #[test]
    fn small_storm_reaches_steady_state() {
        let outcome = run_churn(&ChurnScenario {
            viewers: 300,
            minutes: 4,
            churn_per_minute: 0.05,
            backend: DelayModelChoice::Dense,
            seed: 5,
            ..ChurnScenario::preset(ChurnPreset::ChurnStorm)
        });
        assert!(
            scalar(&outcome, "final_population") > 0.0,
            "audience collapsed"
        );
        let arrivals = scalar(&outcome, "churn_arrivals");
        assert!(arrivals >= 300.0, "prefill missing: {arrivals} arrivals");
        assert!(
            scalar(&outcome, "churn_departures") + scalar(&outcome, "churn_failures") > 0.0,
            "nobody left during 4 minutes of 5%/min churn"
        );
        // The population series was sampled by the monitor event.
        let pop = outcome.figure.find("population_over_time").unwrap();
        assert!(pop.points.len() >= 10, "monitor barely sampled");
    }

    fn small_wave() -> ChurnScenario {
        ChurnScenario {
            viewers: 300,
            minutes: 30,
            churn_per_minute: 0.3,
            shape: RateShape::Diurnal {
                days: 3,
                amplitude: 0.9,
            },
            backend: DelayModelChoice::Dense,
            seed: 17,
            pool_mbps: Some(150),
            autoscale: true,
            ..ChurnScenario::preset(ChurnPreset::DiurnalWave)
        }
    }

    #[test]
    fn wave_sustains_an_audience_and_scales_the_pool() {
        let outcome = run_churn(&small_wave());
        assert!(
            scalar(&outcome, "final_population") > 0.0,
            "audience collapsed"
        );
        assert!(
            scalar(&outcome, "autoscale_ups") > 0.0,
            "a 150 Mbps pool under a 300-viewer kickoff never scaled up"
        );
        let provisioned = outcome.figure.find("provisioned_mbps_over_time").unwrap();
        assert!(
            provisioned.points.iter().any(|&(_, v)| v > 150.0),
            "provisioned capacity never rose above the starting pool"
        );
        assert!(scalar(&outcome, "provisioned_dollars") > 0.0);
    }

    #[test]
    fn diurnal_outcome_is_seed_deterministic() {
        let a = run_churn(&small_wave());
        let b = run_churn(&small_wave());
        assert_eq!(deterministic(&a), deterministic(&b));
        let c = run_churn(&ChurnScenario {
            seed: 18,
            ..small_wave()
        });
        assert_ne!(a.figure.to_json(), c.figure.to_json());
    }

    /// Two 10-minute days over 20 minutes.
    fn small_spike(predictive: bool) -> ChurnScenario {
        ChurnScenario {
            viewers: 300,
            minutes: 20,
            churn_per_minute: 0.3,
            shape: RateShape::Bursts {
                days: 2,
                amplitude: 0.5,
                spike_multiplier: 6.0,
            },
            backend: DelayModelChoice::Dense,
            seed: 41,
            pool_mbps: Some(200),
            autoscale: true,
            predictive,
            ..ChurnScenario::preset(ChurnPreset::SpikeStorm)
        }
    }

    #[test]
    fn storm_sustains_an_audience_on_per_region_pools() {
        let outcome = run_churn(&small_spike(true));
        assert!(
            scalar(&outcome, "final_population") > 0.0,
            "audience collapsed"
        );
        assert!(
            scalar(&outcome, "autoscale_ups") > 0.0,
            "the bursts never scaled a pool"
        );
        let regions = telecast_net::Region::ALL
            .iter()
            .filter(|r| {
                outcome
                    .figure
                    .find(&format!("provisioned_mbps_{r}"))
                    .is_some()
            })
            .count();
        assert_eq!(
            regions,
            telecast_net::Region::ALL.len(),
            "expected one provisioned series per region"
        );
        assert!(scalar(&outcome, "provisioned_mbps_hours") > 0.0);
    }

    #[test]
    fn spike_outcome_is_seed_deterministic() {
        let a = run_churn(&small_spike(true));
        let b = run_churn(&small_spike(true));
        assert_eq!(deterministic(&a), deterministic(&b));
        let c = run_churn(&ChurnScenario {
            seed: 42,
            ..small_spike(true)
        });
        assert_ne!(a.figure.to_json(), c.figure.to_json());
    }

    #[test]
    fn spike_windows_sit_inside_the_horizon() {
        let s = ChurnScenario::preset(ChurnPreset::SpikeStorm);
        let RateShape::Bursts {
            spike_multiplier, ..
        } = s.shape
        else {
            panic!("the spike preset bursts");
        };
        let horizon = SimTime::from_secs(s.minutes * 60);
        for w in burst_windows(s.minutes, spike_multiplier) {
            assert!(w.start + w.duration <= horizon, "burst past the horizon");
            assert!(w.multiplier > 1.0);
        }
        assert!(s.shape.profile(s.minutes).validate().is_ok());
    }

    fn small_mega(threads: usize) -> ChurnScenario {
        ChurnScenario {
            viewers: 600,
            minutes: 2,
            churn_per_minute: 0.1,
            backend: DelayModelChoice::Dense,
            seed: 11,
            runtime: Runtime::Sharded {
                threads,
                epoch_secs: 5,
            },
            ..ChurnScenario::preset(ChurnPreset::MegaStorm)
        }
    }

    #[test]
    fn small_mega_storm_sustains_a_population() {
        let outcome = run_churn(&small_mega(2));
        assert!(
            scalar(&outcome, "final_population") > 0.0,
            "audience collapsed"
        );
        assert!(
            scalar(&outcome, "churn_arrivals") >= 600.0,
            "prefill missing"
        );
        assert!(
            scalar(&outcome, "churn_departures") + scalar(&outcome, "churn_failures") > 0.0,
            "nobody churned in 2 minutes at 10%/min"
        );
        assert_eq!(outcome.shard_stats.len(), 5);
    }

    #[test]
    fn figure_is_thread_count_independent() {
        let one = run_churn(&small_mega(1));
        for threads in [2, 8] {
            let many = run_churn(&small_mega(threads));
            assert_eq!(
                one.figure, many.figure,
                "figure diverged at {threads} threads"
            );
        }
    }
}
