//! One generator per figure of the paper's evaluation (§VII), plus the
//! ablations DESIGN.md promises.
//!
//! Every generator returns a [`FigureData`] whose series mirror the
//! paper's plotted curves; absolute magnitudes depend on the synthetic
//! substrates (see `EXPERIMENTS.md`), but the comparative shape — who
//! wins, by how much, where curves flatten — is the reproduction target.

use telecast::{OutboundPolicy, PlacementStrategy, SessionConfig};
use telecast_baselines::{no_layering, random_dissemination};
use telecast_cdn::CdnConfig;
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{parallel_map, SimDuration};

use crate::harness::{cdf_points, run_scenario, Scenario};
use crate::table::{FigureData, Series};

/// Experiment scale: the paper's full population or a fast smoke size
/// (used by `cargo bench` and CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced population (≤ 200 viewers) — seconds per figure.
    Smoke,
    /// The paper's population (up to 1000 viewers).
    Paper,
}

impl Scale {
    /// Reads `TELECAST_SCALE` (`paper` or `smoke`; default `paper` for
    /// the binaries).
    pub fn from_env() -> Self {
        match std::env::var("TELECAST_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Paper,
        }
    }

    /// The directory a figure export at this scale goes to. Paper-scale
    /// runs rewrite the committed `results/<id>.json`; smoke runs write
    /// `results/smoke/<id>.json` instead, so a quick check never
    /// overwrites a committed figure.
    pub fn results_dir(self) -> &'static str {
        match self {
            Scale::Smoke => "results/smoke",
            Scale::Paper => "results",
        }
    }

    /// The viewer-count sweep of Figures 13 and 15(b).
    pub fn viewer_counts(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![10, 50, 100, 150, 200],
            Scale::Paper => vec![10, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
        }
    }

    /// The largest population (Fig. 14 and 15(a) run at this size).
    pub fn max_viewers(self) -> usize {
        *self.viewer_counts().last().expect("non-empty sweep")
    }

    /// The bounded CDN pool: the paper provisions 6000 Mbps for 1000
    /// viewers; the same 6 Mbps/viewer ratio keeps the shape at smoke
    /// scale.
    pub fn cdn_cap(self) -> Bandwidth {
        Bandwidth::from_mbps(6 * self.max_viewers() as u64)
    }
}

fn base_config(seed: u64) -> SessionConfig {
    SessionConfig::default().with_seed(seed)
}

/// The outbound profiles of Fig. 13(a): three fixed, three uniform.
fn fig13a_profiles() -> Vec<BandwidthProfile> {
    vec![
        BandwidthProfile::fixed_mbps(0),
        BandwidthProfile::fixed_mbps(6),
        BandwidthProfile::fixed_mbps(10),
        BandwidthProfile::uniform_mbps(0, 12),
        BandwidthProfile::uniform_mbps(2, 10),
        BandwidthProfile::uniform_mbps(4, 14),
    ]
}

/// The wider profile set of Fig. 13(b)/(c).
fn fig13bc_profiles() -> Vec<BandwidthProfile> {
    vec![
        BandwidthProfile::fixed_mbps(0),
        BandwidthProfile::fixed_mbps(2),
        BandwidthProfile::fixed_mbps(4),
        BandwidthProfile::fixed_mbps(6),
        BandwidthProfile::fixed_mbps(8),
        BandwidthProfile::fixed_mbps(10),
        BandwidthProfile::uniform_mbps(0, 12),
        BandwidthProfile::uniform_mbps(2, 10),
        BandwidthProfile::uniform_mbps(4, 14),
    ]
}

/// **Figure 13(a)** — CDN bandwidth required to accept every request
/// (ρ = 1, unbounded pool) vs number of viewers, per outbound profile.
pub fn fig13a(scale: Scale) -> FigureData {
    let counts = scale.viewer_counts();
    let profiles = fig13a_profiles();
    let jobs: Vec<(BandwidthProfile, usize)> = profiles
        .iter()
        .flat_map(|&p| counts.iter().map(move |&n| (p, n)))
        .collect();
    let results = parallel_map(jobs.clone(), |(profile, n)| {
        let config = base_config(100 + n as u64)
            .with_outbound(profile)
            .with_cdn(CdnConfig::unbounded());
        run_scenario(&Scenario::evaluation(config, n)).peak_cdn_mbps
    });
    let series = profiles
        .iter()
        .map(|&p| {
            let points = jobs
                .iter()
                .zip(results.iter())
                .filter(|((jp, _), _)| *jp == p)
                .map(|(&(_, n), &mbps)| (n as f64, mbps))
                .collect();
            Series::new(format!("Cobw={p}"), points)
        })
        .collect();
    FigureData {
        id: "fig13a".into(),
        title: "CDN bandwidth required for acceptance ratio 1".into(),
        x_label: "viewers".into(),
        y_label: "CDN bandwidth (Mbps)".into(),
        series,
    }
}

/// **Figure 13(b)** — fraction of accepted streams served by the CDN vs
/// number of viewers, CDN pool bounded at 6 Mbps per provisioned viewer.
pub fn fig13b(scale: Scale) -> FigureData {
    fig13bc_pair(scale).0
}

/// **Figure 13(c)** — acceptance ratio ρ vs number of viewers, CDN pool
/// bounded.
pub fn fig13c(scale: Scale) -> FigureData {
    fig13bc_pair(scale).1
}

/// Figures 13(b) and 13(c) share one parameter sweep; this runs it once
/// and produces both.
pub fn fig13bc_pair(scale: Scale) -> (FigureData, FigureData) {
    let counts = scale.viewer_counts();
    let profiles = fig13bc_profiles();
    let cap = scale.cdn_cap();
    let jobs: Vec<(BandwidthProfile, usize)> = profiles
        .iter()
        .flat_map(|&p| counts.iter().map(move |&n| (p, n)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(profile, n)| {
        let config = base_config(200 + n as u64)
            .with_outbound(profile)
            .with_cdn(CdnConfig::default().with_outbound(cap));
        let r = run_scenario(&Scenario::evaluation(config, n));
        (r.cdn_fraction, r.acceptance_ratio)
    });
    let series = |acceptance: bool| {
        profiles
            .iter()
            .map(|&p| {
                let points = jobs
                    .iter()
                    .zip(results.iter())
                    .filter(|((jp, _), _)| *jp == p)
                    .map(|(&(_, n), &(frac, acc))| (n as f64, if acceptance { acc } else { frac }))
                    .collect();
                Series::new(format!("Cobw={p}"), points)
            })
            .collect()
    };
    (
        FigureData {
            id: "fig13b".into(),
            title: "Fraction of requests served by CDN (capacity bounded)".into(),
            x_label: "viewers".into(),
            y_label: "fraction served by CDN".into(),
            series: series(false),
        },
        FigureData {
            id: "fig13c".into(),
            title: "Request acceptance ratio (CDN capacity bounded)".into(),
            x_label: "viewers".into(),
            y_label: "acceptance ratio".into(),
            series: series(true),
        },
    )
}

fn fig14_scenario(scale: Scale, view_changes: f64) -> Scenario {
    let config = base_config(300)
        .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
        .with_cdn(CdnConfig::default().with_outbound(scale.cdn_cap()));
    Scenario::evaluation(config, scale.max_viewers()).with_view_changes(view_changes)
}

/// **Figure 14(a)** — distribution (CDF) of the maximum delay layer of
/// the accepted streams at each viewer; `Cobw ~ U(0, 12)` Mbps.
pub fn fig14a(scale: Scale) -> FigureData {
    let result = run_scenario(&fig14_scenario(scale, 0.0));
    let layers: Vec<f64> = result.layers.iter().map(|&l| l as f64).collect();
    FigureData {
        id: "fig14a".into(),
        title: "Distribution of delay layers of accepted streams".into(),
        x_label: "max layer".into(),
        y_label: "fraction of viewers".into(),
        series: vec![Series::new("viewers", cdf_points(&layers))],
    }
}

/// **Figure 14(b)** — CDF of the number of accepted streams per viewer
/// (0 = rejected), CDN pool bounded.
pub fn fig14b(scale: Scale) -> FigureData {
    let result = run_scenario(&fig14_scenario(scale, 0.0));
    let counts: Vec<f64> = result
        .streams_per_viewer
        .iter()
        .map(|&c| c as f64)
        .collect();
    FigureData {
        id: "fig14b".into(),
        title: "Number of streams a viewer receives".into(),
        x_label: "streams received".into(),
        y_label: "fraction of viewers".into(),
        series: vec![Series::new("viewers", cdf_points(&counts))],
    }
}

/// **Figure 14(c)** — CDFs of viewer join delay and view-change delay.
pub fn fig14c(scale: Scale) -> FigureData {
    let result = run_scenario(&fig14_scenario(scale, 0.5));
    FigureData {
        id: "fig14c".into(),
        title: "4D TeleCast overhead: join and view change delay".into(),
        x_label: "delay (ms)".into(),
        y_label: "fraction of operations".into(),
        series: vec![
            Series::new("viewer join", cdf_points(&result.join_delays_ms)),
            Series::new("view change", cdf_points(&result.view_change_delays_ms)),
        ],
    }
}

/// **Figure 15(a)** — acceptance ratio vs per-viewer outbound bandwidth
/// (0–10 Mbps), TeleCast vs Random, at the full population.
pub fn fig15a(scale: Scale) -> FigureData {
    let n = scale.max_viewers();
    let cap = scale.cdn_cap();
    let mbps_steps: Vec<u64> = (0..=10).collect();
    let jobs: Vec<(bool, u64)> = [false, true]
        .iter()
        .flat_map(|&rnd| mbps_steps.iter().map(move |&m| (rnd, m)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(random, mbps)| {
        let mut config = base_config(400 + mbps)
            .with_outbound(BandwidthProfile::fixed_mbps(mbps))
            .with_cdn(CdnConfig::default().with_outbound(cap));
        if random {
            config = random_dissemination(config);
        }
        run_scenario(&Scenario::evaluation(config, n)).acceptance_ratio
    });
    let pick = |random: bool| {
        jobs.iter()
            .zip(results.iter())
            .filter(|((r, _), _)| *r == random)
            .map(|(&(_, m), &y)| (m as f64, y))
            .collect()
    };
    FigureData {
        id: "fig15a".into(),
        title: "TeleCast vs Random: varying outbound bandwidth per viewer".into(),
        x_label: "outbound (Mbps)".into(),
        y_label: "acceptance ratio".into(),
        series: vec![
            Series::new("TeleCast", pick(false)),
            Series::new("Random", pick(true)),
        ],
    }
}

/// **Figure 15(b)** — acceptance ratio vs number of viewers with
/// `Cobw ~ U(2, 14)` Mbps, TeleCast vs Random.
pub fn fig15b(scale: Scale) -> FigureData {
    let counts: Vec<usize> = scale
        .viewer_counts()
        .into_iter()
        .filter(|&n| n >= 100 || scale == Scale::Smoke)
        .collect();
    let cap = scale.cdn_cap();
    let jobs: Vec<(bool, usize)> = [false, true]
        .iter()
        .flat_map(|&rnd| counts.iter().map(move |&n| (rnd, n)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(random, n)| {
        let mut config = base_config(500 + n as u64)
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(CdnConfig::default().with_outbound(cap));
        if random {
            config = random_dissemination(config);
        }
        run_scenario(&Scenario::evaluation(config, n)).acceptance_ratio
    });
    let pick = |random: bool| {
        jobs.iter()
            .zip(results.iter())
            .filter(|((r, _), _)| *r == random)
            .map(|(&(_, n), &y)| (n as f64, y))
            .collect()
    };
    FigureData {
        id: "fig15b".into(),
        title: "TeleCast vs Random: scaling the number of viewers".into(),
        x_label: "viewers".into(),
        y_label: "acceptance ratio".into(),
        series: vec![
            Series::new("TeleCast", pick(false)),
            Series::new("Random", pick(true)),
        ],
    }
}

/// Ablation: outbound allocation policy (Fig. 8's trade-off) — acceptance
/// ratio vs viewers under a tight CDN (4 Mbps/viewer).
pub fn ablation_outbound(scale: Scale) -> FigureData {
    let counts = scale.viewer_counts();
    let cap = Bandwidth::from_mbps(4 * scale.max_viewers() as u64);
    let policies = [
        ("round-robin", OutboundPolicy::RoundRobin),
        ("priority-first", OutboundPolicy::PriorityFirst),
        ("equal-split", OutboundPolicy::EqualSplit),
    ];
    let jobs: Vec<(usize, usize)> = (0..policies.len())
        .flat_map(|p| counts.iter().map(move |&n| (p, n)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(p, n)| {
        let mut config = base_config(600 + n as u64)
            .with_outbound(BandwidthProfile::uniform_mbps(2, 10))
            .with_cdn(CdnConfig::default().with_outbound(cap));
        config.outbound_policy = policies[p].1;
        run_scenario(&Scenario::evaluation(config, n)).acceptance_ratio
    });
    let series = policies
        .iter()
        .enumerate()
        .map(|(p, (label, _))| {
            let points = jobs
                .iter()
                .zip(results.iter())
                .filter(|((jp, _), _)| *jp == p)
                .map(|(&(_, n), &y)| (n as f64, y))
                .collect();
            Series::new(*label, points)
        })
        .collect();
    FigureData {
        id: "ablation_outbound".into(),
        title: "Outbound allocation policy vs acceptance (tight CDN)".into(),
        x_label: "viewers".into(),
        y_label: "acceptance ratio".into(),
        series,
    }
}

/// Ablation: placement strategy — acceptance under a tight CDN
/// (2 Mbps/viewer, where placement quality decides admission) plus mean
/// tree depth, push-down vs first-fit.
pub fn ablation_placement(scale: Scale) -> FigureData {
    let counts = scale.viewer_counts();
    let cap = Bandwidth::from_mbps(2 * scale.max_viewers() as u64);
    let strategies = [
        ("push-down", PlacementStrategy::PushDown),
        ("first-fit", PlacementStrategy::Fifo),
    ];
    let jobs: Vec<(usize, usize)> = (0..strategies.len())
        .flat_map(|s| counts.iter().map(move |&n| (s, n)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(s, n)| {
        let mut config = base_config(700 + n as u64)
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(CdnConfig::default().with_outbound(cap));
        config.placement = strategies[s].1;
        let r = run_scenario(&Scenario::evaluation(config, n));
        (r.acceptance_ratio, r.mean_tree_depth)
    });
    let pick = |strategy: usize, depth: bool| {
        jobs.iter()
            .zip(results.iter())
            .filter(|((js, _), _)| *js == strategy)
            .map(|(&(_, n), &(acc, d))| (n as f64, if depth { d } else { acc }))
            .collect()
    };
    FigureData {
        id: "ablation_placement".into(),
        title: "Degree push-down vs first-fit (tight CDN)".into(),
        x_label: "viewers".into(),
        y_label: "acceptance ratio / mean depth".into(),
        series: vec![
            Series::new("push-down ρ", pick(0, false)),
            Series::new("first-fit ρ", pick(1, false)),
            Series::new("push-down depth", pick(0, true)),
            Series::new("first-fit depth", pick(1, true)),
        ],
    }
}

/// Ablation: κ sweep — how the layer-width divisor trades sync slack
/// against delayed receive (mean max layer and layer drops).
pub fn ablation_kappa(scale: Scale) -> FigureData {
    let n = scale.max_viewers().min(500);
    let kappas = [2u64, 3, 4, 6, 8];
    let results = parallel_map(kappas.to_vec(), move |kappa| {
        let mut config = SessionConfig::default()
            .with_seed(800 + kappa)
            .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
            .with_cdn(CdnConfig::unbounded());
        config.kappa = kappa;
        let r = run_scenario(&Scenario::evaluation(config, n));
        let mean_layer = if r.layers.is_empty() {
            0.0
        } else {
            r.layers.iter().sum::<u64>() as f64 / r.layers.len() as f64
        };
        (mean_layer, r.layer_drops as f64, r.effective_bandwidth)
    });
    let xs: Vec<f64> = kappas.iter().map(|&k| k as f64).collect();
    FigureData {
        id: "ablation_kappa".into(),
        title: "κ sweep: layer geometry vs synchronisation outcome".into(),
        x_label: "kappa".into(),
        y_label: "mixed (see series)".into(),
        series: vec![
            Series::new(
                "mean max layer",
                xs.iter()
                    .zip(results.iter())
                    .map(|(&x, r)| (x, r.0))
                    .collect(),
            ),
            Series::new(
                "layer drops",
                xs.iter()
                    .zip(results.iter())
                    .map(|(&x, r)| (x, r.1))
                    .collect(),
            ),
            Series::new(
                "effective bw",
                xs.iter()
                    .zip(results.iter())
                    .map(|(&x, r)| (x, r.2))
                    .collect(),
            ),
        ],
    }
}

/// Ablation: layering on/off — effective bandwidth as hop processing
/// (and thus natural skew) grows.
pub fn ablation_layering(scale: Scale) -> FigureData {
    let n = scale.max_viewers().min(500);
    let hops_ms = [50u64, 100, 200, 400];
    let jobs: Vec<(bool, u64)> = [true, false]
        .iter()
        .flat_map(|&on| hops_ms.iter().map(move |&h| (on, h)))
        .collect();
    let results = parallel_map(jobs.clone(), move |(layering, hop)| {
        let mut config = SessionConfig::default()
            .with_seed(900 + hop)
            .with_outbound(BandwidthProfile::uniform_mbps(0, 12))
            .with_cdn(CdnConfig::unbounded());
        config.hop_processing = SimDuration::from_millis(hop);
        if !layering {
            config = no_layering(config);
        }
        run_scenario(&Scenario::evaluation(config, n)).effective_bandwidth
    });
    let pick = |on: bool| {
        jobs.iter()
            .zip(results.iter())
            .filter(|((o, _), _)| *o == on)
            .map(|(&(_, h), &y)| (h as f64, y))
            .collect()
    };
    FigureData {
        id: "ablation_layering".into(),
        title: "Delay layering vs effective bandwidth".into(),
        x_label: "hop processing (ms)".into(),
        y_label: "effective bandwidth fraction".into(),
        series: vec![
            Series::new("layering on", pick(true)),
            Series::new("layering off", pick(false)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_small() {
        assert_eq!(Scale::Smoke.max_viewers(), 200);
        assert_eq!(Scale::Smoke.cdn_cap(), Bandwidth::from_mbps(1_200));
        assert_eq!(Scale::Paper.max_viewers(), 1_000);
    }

    #[test]
    fn smoke_exports_stay_out_of_the_committed_figures() {
        assert_eq!(Scale::Paper.results_dir(), "results");
        assert_eq!(Scale::Smoke.results_dir(), "results/smoke");
    }

    #[test]
    fn fig13a_zero_outbound_is_linear_in_viewers() {
        let fig = fig13a(Scale::Smoke);
        let zero = fig
            .series
            .iter()
            .find(|s| s.label.contains("Cobw=0"))
            .expect("zero profile present");
        // All streams from the CDN: 12 Mbps per viewer.
        for &(n, mbps) in &zero.points {
            assert!(
                (mbps - 12.0 * n).abs() < 1e-6,
                "expected {} Mbps at {n} viewers, got {mbps}",
                12.0 * n
            );
        }
    }

    #[test]
    fn fig15a_telecast_dominates_random() {
        let fig = fig15a(Scale::Smoke);
        let telecast = &fig.series[0];
        let random = &fig.series[1];
        // At mid-range outbound the gap is the paper's headline claim.
        let t6 = telecast.y_at(6.0).unwrap();
        let r6 = random.y_at(6.0).unwrap();
        assert!(t6 > r6, "TeleCast {t6} should beat Random {r6} at 6 Mbps");
    }
}
