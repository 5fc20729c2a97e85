//! Scenario plumbing: one simulated session run → one [`RunResult`],
//! with parallel sweeps for the figure generators.

use telecast::{SessionConfig, TelecastSession};
use telecast_media::{ArrivalModel, ViewCatalog, ViewChoice, ViewerWorkload};
use telecast_sim::{SimDuration, SimRng};

/// One experiment run: a configuration plus a scripted audience.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Session configuration (placement, bandwidth profiles, CDN, seed).
    pub config: SessionConfig,
    /// Number of viewers to provision and script.
    pub viewers: usize,
    /// How the audience arrives (default: 50 ms staggered ramp, which
    /// keeps joins ordered without synchronising them artificially).
    pub arrivals: ArrivalModel,
    /// How viewers pick views (default: Zipf 0.8 over the catalog — a
    /// popular-view-skewed audience).
    pub view_choice: ViewChoice,
    /// Mean number of view changes per viewer.
    pub view_changes_per_viewer: f64,
    /// Fraction of viewers that depart during the run.
    pub departure_fraction: f64,
    /// Workload seed (independent of the config seed).
    pub workload_seed: u64,
}

impl Scenario {
    /// The standard §VII audience for `viewers` viewers under `config`.
    pub fn evaluation(config: SessionConfig, viewers: usize) -> Self {
        Scenario {
            config,
            viewers,
            arrivals: ArrivalModel::Staggered {
                gap: SimDuration::from_millis(50),
            },
            view_choice: ViewChoice::Zipf { s: 0.8 },
            view_changes_per_viewer: 0.0,
            departure_fraction: 0.0,
            workload_seed: 0x7e1e_ca57,
        }
    }

    /// Adds view-change churn.
    pub fn with_view_changes(mut self, per_viewer: f64) -> Self {
        self.view_changes_per_viewer = per_viewer;
        self
    }
}

/// Everything the figures read out of one finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Acceptance ratio ρ.
    pub acceptance_ratio: f64,
    /// Fraction of served streams with a CDN upstream at steady state.
    pub cdn_fraction: f64,
    /// Peak CDN outbound usage in Mbps.
    pub peak_cdn_mbps: f64,
    /// Final CDN outbound usage in Mbps.
    pub final_cdn_mbps: f64,
    /// Max delay layer per connected viewer.
    pub layers: Vec<u64>,
    /// Streams received per viewer (0 = rejected).
    pub streams_per_viewer: Vec<usize>,
    /// Join delays in ms.
    pub join_delays_ms: Vec<f64>,
    /// View-change delays in ms.
    pub view_change_delays_ms: Vec<f64>,
    /// Effective (renderable) fraction of delivered bandwidth.
    pub effective_bandwidth: f64,
    /// Mean stream-tree depth.
    pub mean_tree_depth: f64,
    /// Count of layer-bound stream drops.
    pub layer_drops: u64,
    /// Count of subscription protocol messages.
    pub subscription_messages: u64,
    /// Count of victims produced by churn.
    pub victims: u64,
}

/// Runs one scenario to completion and snapshots its metrics.
pub fn run_scenario(scenario: &Scenario) -> RunResult {
    let config = &scenario.config;
    let catalog_len = ViewCatalog::canonical(&config.sites, config.streams_per_local_view).len();
    let mut session = TelecastSession::builder(scenario.config.clone())
        .viewers(scenario.viewers)
        .build();
    let mut rng = SimRng::seed_from_u64(scenario.workload_seed);
    let workload = ViewerWorkload::builder(scenario.viewers, catalog_len)
        .arrivals(scenario.arrivals)
        .view_choice(scenario.view_choice)
        .view_changes(scenario.view_changes_per_viewer, SimDuration::from_secs(60))
        .departures(scenario.departure_fraction, SimDuration::from_secs(120))
        .build(&mut rng);
    session.run_workload(&workload);

    let m = session.metrics();
    RunResult {
        acceptance_ratio: m.acceptance_ratio(),
        cdn_fraction: session.cdn_stream_fraction(),
        peak_cdn_mbps: m.peak_cdn_mbps(),
        final_cdn_mbps: session.cdn().outbound().used().as_mbps_f64(),
        layers: session.layer_snapshot(),
        streams_per_viewer: session.streams_per_viewer(),
        join_delays_ms: m.join_delays_ms.samples().to_vec(),
        view_change_delays_ms: m.view_change_delays_ms.samples().to_vec(),
        effective_bandwidth: session.effective_bandwidth_ratio(),
        mean_tree_depth: session.mean_tree_depth(),
        layer_drops: m.layer_drops.value(),
        subscription_messages: m.subscription_messages.value(),
        victims: m.victims.value(),
    }
}

/// Builds an empirical CDF as `(value, fraction ≤ value)` points from
/// integer-valued samples — the shape of Figures 14(a)–(c). Thin
/// adapter over the one shared implementation in `telecast_sim::stats`.
pub fn cdf_points(samples: &[f64]) -> Vec<(f64, f64)> {
    telecast_sim::empirical_cdf(samples)
        .points()
        .iter()
        .map(|p| (p.value, p.fraction))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_net::BandwidthProfile;

    #[test]
    fn scenario_runs_end_to_end() {
        let config = SessionConfig::default()
            .with_outbound(BandwidthProfile::fixed_mbps(8))
            .with_seed(1);
        let result = run_scenario(&Scenario::evaluation(config, 30));
        assert!(result.acceptance_ratio > 0.9);
        assert_eq!(result.streams_per_viewer.len(), 30);
        assert_eq!(result.join_delays_ms.len() as u64, 30);
        assert!(result.final_cdn_mbps > 0.0);
    }

    #[test]
    fn cdf_points_accumulate() {
        let pts = cdf_points(&[1.0, 1.0, 2.0, 4.0]);
        assert_eq!(pts, vec![(1.0, 0.5), (2.0, 0.75), (4.0, 1.0)]);
        assert!(cdf_points(&[]).is_empty());
    }
}
