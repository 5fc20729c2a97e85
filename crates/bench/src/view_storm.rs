//! The view-switching-storm scenario: a Zipf-skewed multi-view audience
//! hit by correlated re-focus events, with per-view tree prune/merge
//! shrinking the abandoned views' overlays.
//!
//! The audience arrives over the first simulated minute, picks views by
//! a Zipf popularity model, and drifts with a Poisson baseline of
//! per-viewer view changes. Three correlated re-focus storms then each
//! pull a configurable fraction of *everyone* onto one target view
//! inside a five-second window — the flash-crowd analogue of a director
//! cut. Every switch tears the viewer out of the old view's trees; the
//! prune pass folds the abandoned fragments back under P2P parents and
//! returns their CDN serves to the pool, retiring fully drained groups.
//!
//! Everything the figure reports is a function of the seed alone —
//! wall-clock numbers are returned separately so the JSON export stays
//! byte-identical across runs and machines.

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_cdn::PoolScope;
use telecast_media::{
    ArrivalModel, ProducerSite, RefocusEvent, SiteId, ViewCatalog, ViewId, ViewPopularity,
    ViewerWorkload,
};
use telecast_sim::{SimDuration, SimRng, SimTime};

use crate::scenario::{base_config, metric_points, series_from, PoolSizing};
use crate::table::FigureData;

/// Parameters of one view-storm run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewStormScenario {
    /// Audience size (every viewer arrives during the first minute).
    pub viewers: usize,
    /// Simulated duration in minutes.
    pub minutes: u64,
    /// Selectable views (camera count per producer site).
    pub views: usize,
    /// Zipf exponent of view popularity (0 = uniform).
    pub zipf_view: f64,
    /// Fraction of the audience hopping to the target view during each
    /// re-focus storm (0 disables the storms).
    pub refocus_fraction: f64,
    /// Delay substrate; coordinate is the scale-friendly default.
    pub backend: DelayModelChoice,
    /// Master seed (config and workload).
    pub seed: u64,
    /// Starting CDN outbound pool in Mbps; `None` applies
    /// [`PoolSizing::POPULATION`].
    pub pool_mbps: Option<u64>,
    /// Member floor of the per-view prune pass
    /// ([`SessionConfig::prune_member_floor`]).
    pub prune_floor: usize,
}

impl Default for ViewStormScenario {
    fn default() -> Self {
        ViewStormScenario {
            viewers: 20_000,
            minutes: 10,
            views: 8,
            zipf_view: 1.1,
            refocus_fraction: 0.4,
            backend: DelayModelChoice::Coordinate,
            seed: 0x4D_F0C5,
            pool_mbps: None,
            // Groups are scoped per (region, view): 5 regions x 8 views
            // spread 20k viewers ~500 per group, and the coldest
            // Zipf-1.1 views (~4% share) drop to a few dozen members
            // per region after a 40% storm — below this floor, so the
            // prune pass visibly fires in the committed smoke run.
            prune_floor: 64,
        }
    }
}

/// The scenario's session configuration: the paper's setup with the
/// camera ring widened to `views` views per site, the CDN pool scaled
/// to the population, and the prune pass armed at the scenario's floor.
fn storm_config(scenario: &ViewStormScenario) -> SessionConfig {
    let pool = PoolSizing::POPULATION.pool(scenario.pool_mbps, scenario.viewers);
    let cameras = u16::try_from(scenario.views).expect("--views fits a camera ring");
    SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
        ],
        streams_per_local_view: scenario.views.min(3),
        ..base_config(pool, PoolScope::Global, scenario.backend, scenario.seed)
    }
    .with_prune_floor(scenario.prune_floor)
}

/// The audience script: staggered arrivals over the first minute, Zipf
/// view choice, one baseline view change per viewer on average, and
/// three re-focus storms at 40/60/80% of the horizon targeting views
/// 1, 2 and 3 (mod the catalog) with the configured audience fraction.
fn storm_workload(scenario: &ViewStormScenario, catalog_len: usize) -> ViewerWorkload {
    let horizon_secs = scenario.minutes * 60;
    let gap = SimDuration::from_micros(60_000_000 / scenario.viewers.max(1) as u64);
    let mut popularity = ViewPopularity::zipf(scenario.zipf_view);
    if scenario.refocus_fraction > 0.0 {
        for (i, pct) in [40u64, 60, 80].into_iter().enumerate() {
            popularity = popularity.with_refocus(RefocusEvent {
                at: SimTime::from_secs(horizon_secs * pct / 100),
                window: SimDuration::from_secs(5),
                target: ViewId::new(((i + 1) % catalog_len.max(1)) as u32),
                fraction: scenario.refocus_fraction,
            });
        }
    }
    let mut rng = SimRng::seed_from_u64(scenario.seed);
    ViewerWorkload::builder(scenario.viewers, catalog_len)
        .arrivals(ArrivalModel::Staggered { gap })
        .popularity(&popularity)
        .view_changes(1.0, SimDuration::from_secs(horizon_secs * 3 / 4))
        .build(&mut rng)
}

/// Runs the scenario and collapses it into the exported figure
/// (`results/view_storm.json`). Pure in the seed: equal scenarios
/// export byte-identical JSON regardless of host, thread count or
/// repetition.
pub fn run_view_storm(scenario: &ViewStormScenario) -> FigureData {
    let config = storm_config(scenario);
    let catalog_len = ViewCatalog::canonical(&config.sites, config.streams_per_local_view).len();
    assert_eq!(
        catalog_len, scenario.views,
        "canonical catalog does not match --views"
    );
    let mut session = TelecastSession::builder(config)
        .viewers(scenario.viewers)
        .build();
    let workload = storm_workload(scenario, catalog_len);
    session.run_workload(&workload);

    let x = scenario.viewers as f64;
    let labels = [
        "population_over_time",
        "acceptance_ratio",
        "final_population",
        "view_changes",
        "switch_latency_p50_ms",
        "switch_latency_p99_ms",
        "switch_starved",
        "wasted_mbps_hours",
        "fragments_merged",
        "groups_retired",
        "prune_reclaimed_mbps",
        "victims",
        "displacements",
        "peak_cdn_mbps",
        "view_change_delay_p99_ms",
    ];
    FigureData {
        id: "view_storm".into(),
        title: format!(
            "View storm: {} viewers over {} views (Zipf {}), {:.0}% re-focus storms, \
             {} simulated minutes ({:?} backend)",
            scenario.viewers,
            scenario.views,
            scenario.zipf_view,
            scenario.refocus_fraction * 100.0,
            scenario.minutes,
            scenario.backend,
        ),
        x_label: "viewers (scalars) / seconds (population)".into(),
        y_label: "per-metric value".into(),
        series: series_from(&labels, |label| match label {
            "final_population" => Some(vec![(x, session.connected_viewers() as f64)]),
            _ => metric_points(session.metrics(), label, x),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ViewStormScenario {
        ViewStormScenario {
            viewers: 300,
            minutes: 4,
            backend: DelayModelChoice::Dense,
            seed: 7,
            refocus_fraction: 0.5,
            ..ViewStormScenario::default()
        }
    }

    /// A small storm actually switches views, measures the switches,
    /// and prunes the abandoned trees.
    #[test]
    fn small_storm_switches_and_prunes() {
        let figure = run_view_storm(&small());
        let value = |label| figure.scalar(label).unwrap();
        assert!(value("final_population") > 0.0, "audience collapsed");
        let switches = value("view_changes");
        assert!(
            switches > 300.0,
            "three 50% storms over 300 viewers produced only {switches} switches"
        );
        assert!(
            value("switch_latency_p99_ms") > 0.0 || value("switch_starved") == switches,
            "switches happened but no latency was measured"
        );
        assert!(
            value("wasted_mbps_hours") > 0.0,
            "switching away wasted no subtree bandwidth"
        );
        assert!(
            value("fragments_merged") > 0.0,
            "storms fragmented trees but nothing merged"
        );
    }

    /// Equal scenarios produce equal figures (the JSON byte-identity
    /// check lives in the conformance suite).
    #[test]
    fn outcome_is_deterministic() {
        let a = run_view_storm(&small());
        let b = run_view_storm(&small());
        assert_eq!(a, b);
    }
}
