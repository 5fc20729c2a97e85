//! Session configuration.

use serde::{Deserialize, Serialize};
use telecast_cdn::{AutoscalePolicy, CdnConfig, PredictivePolicy};
use telecast_media::ProducerSite;
use telecast_net::BandwidthProfile;
use telecast_sim::SimDuration;

/// How a joining stream request is placed in the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// The paper's degree push-down (Algorithm 1) inside view groups.
    PushDown,
    /// The Random dissemination baseline of §VII: per stream, probe three
    /// uniformly random session members (no view grouping, no
    /// displacement); fall back to the CDN when every probe misses.
    Random,
    /// First-fit: scan group members in join order and take the first
    /// free slot (no displacement). An ablation of the push-down rule.
    Fifo,
}

/// How a viewer's outbound capacity is split across its accepted streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutboundPolicy {
    /// The paper's allocation: one out-link (slot) per stream per pass, in
    /// priority order, until capacity runs out — guarantees
    /// `abw(S_hi) ≥ abw(S_lo)`.
    RoundRobin,
    /// Give everything to the highest-priority stream first (the
    /// "more viewers, poor quality" end of Fig. 8's trade-off).
    PriorityFirst,
    /// Split capacity evenly across accepted streams (the "fewer viewers,
    /// better quality" end).
    EqualSplit,
}

/// Which inter-node delay substrate the session simulates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayModelChoice {
    /// Pick by population size: the dense synthetic matrix below
    /// `telecast_net::COORDINATE_THRESHOLD` nodes, the O(n) coordinate
    /// model at or above it. The default.
    Auto,
    /// Always the dense `SyntheticPlanetLab` matrix (O(n²) memory).
    Dense,
    /// Always the O(n) coordinate model — required for 10k+-viewer
    /// sessions, where the dense tables would need gigabytes.
    Coordinate,
}

/// Full configuration of a 4D TeleCast session.
///
/// [`SessionConfig::default`] reproduces the paper's evaluation setup
/// (§VII): 2 producers × 8 streams at 2 Mbps, 6-stream views (3 per site),
/// 12 Mbps viewer inbound, Δ = 60 s, `dmax` = 65 s, `dbuff` = 300 ms,
/// 25 s cache, κ = 2, 6000 Mbps CDN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The producer sites of the 3DTI session.
    pub sites: Vec<ProducerSite>,
    /// Streams selected per local view (3 in the evaluation).
    pub streams_per_local_view: usize,
    /// Viewer inbound capacity distribution (`C_ibw`).
    pub viewer_inbound: BandwidthProfile,
    /// Viewer outbound capacity distribution (`C_obw`).
    pub viewer_outbound: BandwidthProfile,
    /// CDN configuration (pool, Δ, pricing).
    pub cdn: CdnConfig,
    /// Maximum tolerated capture→display delay (`dmax`).
    pub dmax: SimDuration,
    /// Viewer buffer length (`dbuff`).
    pub dbuff: SimDuration,
    /// Viewer cache length (`dcache`).
    pub dcache: SimDuration,
    /// Layer-width divisor κ (`τ = dbuff / κ`, κ ≥ 2).
    pub kappa: u64,
    /// Per-hop forwarding/processing delay at a viewer gateway (δ).
    pub hop_processing: SimDuration,
    /// Control-plane processing time at the LSC per join/view-change.
    pub lsc_processing: SimDuration,
    /// Placement strategy (paper: push-down).
    pub placement: PlacementStrategy,
    /// Outbound allocation policy (paper: round-robin).
    pub outbound_policy: OutboundPolicy,
    /// Whether the delay-layer subscription machinery is active; disabling
    /// it is the "no view synchronization" ablation.
    pub layering_enabled: bool,
    /// Period of the §VI delay-layer adaptation loop (viewers re-derive
    /// their layers from the currently observed network delays and
    /// re-subscribe if the κ bound drifted). `None` disables periodic
    /// adaptation; structural changes still trigger resynchronisation.
    pub adaptation_period: Option<SimDuration>,
    /// Period of the GSC monitoring sampler (population and CDN usage
    /// recorded into the session time series as engine events). `None`
    /// disables periodic sampling; CDN usage is still sampled after
    /// every protocol event.
    pub monitor_period: Option<SimDuration>,
    /// Elastic CDN autoscaling policy. `None` (the default) keeps the
    /// paper's statically-provisioned pool; `Some` drives a periodic
    /// `AutoscaleTick` engine event that resizes the pool inside the
    /// policy's utilisation band and retries CDN-rejected joins after
    /// each scale-up.
    pub autoscale: Option<AutoscalePolicy>,
    /// Predictive extension of the autoscaler: scale on a short-horizon
    /// demand forecast (churn rate-profile phase × an EWMA of observed
    /// per-region arrival demand) instead of reacting to utilisation
    /// alone. Requires `autoscale`; `None` keeps the reactive
    /// utilisation-band controller.
    pub predictive: Option<PredictivePolicy>,
    /// Per-view tree prune/merge: when a view group's registered
    /// membership falls to this floor or below, the LSC folds the
    /// group's CDN-rooted tree fragments under P2P parents (returning
    /// the folded roots' CDN capacity to the pool) and retires the
    /// group once it is fully drained. `None` (the default) disables
    /// pruning — abandoned views keep their fragment forest, the
    /// pre-existing behaviour.
    pub prune_member_floor: Option<usize>,
    /// Delay substrate (dense matrix vs O(n) coordinates).
    pub delay_model: DelayModelChoice,
    /// Master seed for all stochastic inputs.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            sites: ProducerSite::teeve_pair().to_vec(),
            streams_per_local_view: 3,
            viewer_inbound: BandwidthProfile::fixed_mbps(12),
            viewer_outbound: BandwidthProfile::uniform_mbps(0, 12),
            cdn: CdnConfig::default(),
            dmax: SimDuration::from_secs(65),
            dbuff: SimDuration::from_millis(300),
            dcache: SimDuration::from_secs(25),
            kappa: 2,
            hop_processing: SimDuration::from_millis(100),
            lsc_processing: SimDuration::from_millis(20),
            placement: PlacementStrategy::PushDown,
            outbound_policy: OutboundPolicy::RoundRobin,
            layering_enabled: true,
            adaptation_period: None,
            monitor_period: None,
            autoscale: None,
            predictive: None,
            prune_member_floor: None,
            delay_model: DelayModelChoice::Auto,
            seed: 42,
        }
    }
}

impl SessionConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites.is_empty() {
            return Err("at least one producer site is required".into());
        }
        if self.streams_per_local_view == 0 {
            return Err("streams_per_local_view must be positive".into());
        }
        if self.kappa < 2 {
            return Err("kappa must be at least 2 (the paper requires κ ≥ 2)".into());
        }
        if self.dbuff.is_zero() {
            return Err("dbuff must be positive".into());
        }
        if self.dmax <= self.cdn.delta {
            return Err("dmax must exceed the CDN delay Δ".into());
        }
        if let Some(policy) = &self.autoscale {
            policy.validate().map_err(|e| format!("autoscale: {e}"))?;
        }
        if let Some(predictive) = &self.predictive {
            if self.autoscale.is_none() {
                return Err("predictive scaling requires an autoscale policy".into());
            }
            predictive
                .validate()
                .map_err(|e| format!("predictive: {e}"))?;
        }
        Ok(())
    }

    /// The layer width `τ = dbuff / κ`.
    pub fn tau(&self) -> SimDuration {
        self.dbuff / self.kappa
    }

    /// Convenience: the paper's Fig. 13/15 sweep variants — same config,
    /// different outbound profile.
    pub fn with_outbound(mut self, profile: BandwidthProfile) -> Self {
        self.viewer_outbound = profile;
        self
    }

    /// Convenience: replace the CDN configuration.
    pub fn with_cdn(mut self, cdn: CdnConfig) -> Self {
        self.cdn = cdn;
        self
    }

    /// Convenience: replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: force a delay-model backend.
    pub fn with_delay_model(mut self, choice: DelayModelChoice) -> Self {
        self.delay_model = choice;
        self
    }

    /// Convenience: enable periodic GSC monitoring samples.
    pub fn with_monitor_period(mut self, period: SimDuration) -> Self {
        self.monitor_period = Some(period);
        self
    }

    /// Convenience: enable elastic CDN autoscaling under `policy`.
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Convenience: make the autoscaler predictive (forecast-driven).
    pub fn with_predictive(mut self, predictive: PredictivePolicy) -> Self {
        self.predictive = Some(predictive);
        self
    }

    /// Convenience: enable per-view tree prune/merge at `floor` members.
    pub fn with_prune_floor(mut self, floor: usize) -> Self {
        self.prune_member_floor = Some(floor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_net::Bandwidth;

    #[test]
    fn default_is_the_paper_setup() {
        let c = SessionConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.sites.len(), 2);
        assert_eq!(c.sites[0].streams().len(), 8);
        assert_eq!(c.streams_per_local_view, 3);
        assert_eq!(c.dmax, SimDuration::from_secs(65));
        assert_eq!(c.tau(), SimDuration::from_millis(150));
        assert_eq!(c.cdn.outbound_capacity, Bandwidth::from_mbps(6_000));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = SessionConfig {
            kappa: 1,
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("kappa"));

        let c = SessionConfig {
            sites: Vec::new(),
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("producer site"));

        let c = SessionConfig {
            dmax: SimDuration::from_secs(10), // below Δ = 60 s
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("dmax"));

        let c = SessionConfig {
            autoscale: Some(AutoscalePolicy {
                step: Bandwidth::ZERO,
                ..AutoscalePolicy::default()
            }),
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("autoscale"));

        // Predictive scaling is an extension of the autoscaler, not a
        // standalone mode.
        let c = SessionConfig {
            predictive: Some(PredictivePolicy::default()),
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("requires an autoscale"));
        let c = SessionConfig {
            autoscale: Some(AutoscalePolicy::default()),
            predictive: Some(PredictivePolicy {
                alpha: 2.0,
                ..PredictivePolicy::default()
            }),
            ..SessionConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("predictive"));
    }

    #[test]
    fn builders_chain() {
        let c = SessionConfig::default()
            .with_outbound(BandwidthProfile::fixed_mbps(8))
            .with_seed(7);
        assert_eq!(c.viewer_outbound, BandwidthProfile::fixed_mbps(8));
        assert_eq!(c.seed, 7);
    }
}
