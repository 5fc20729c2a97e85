#![warn(missing_docs)]

//! Baseline dissemination schemes compared against 4D TeleCast.
//!
//! The paper's §VII evaluates TeleCast against the **Random routing
//! scheme** of Wu et al. (ICDCS 2008), which works well among producers
//! but poorly at viewer scale: "a joining node is randomly attached to
//! another node, which can serve the request. No clustering or
//! pre-allocation of outgoing bandwidth of the node is done."
//!
//! All baselines run on the *same* simulator as TeleCast (same latency
//! matrix, same CDN, same workload scripts), differing only in the
//! configuration knobs they disable — exactly how the paper performs the
//! comparison. This crate packages those configurations behind explicit
//! constructors and documents what each one switches off, plus the
//! single-axis ablations used by the ablation benches.
//!
//! # Example
//!
//! ```
//! use telecast_baselines::random_dissemination;
//! use telecast::SessionConfig;
//!
//! let config = random_dissemination(SessionConfig::default());
//! // Random routing has no view grouping and no outbound pre-allocation.
//! assert!(!config.layering_enabled);
//! ```

use telecast::{OutboundPolicy, PlacementStrategy, SessionConfig};

/// The Random dissemination baseline (\[19\] in the paper):
///
/// * placement: three uniformly random probes over the whole session
///   population ("a joining node is randomly attached to another node,
///   which can serve the request") — no view grouping, no displacement,
///   CDN once every probe misses;
/// * no outbound pre-allocation (parents' capacity is consumed first-come
///   first-served);
/// * no delay-layer machinery (the scheme predates it).
///
/// The probe count is fixed at 3, calibrated so the baseline lands in
/// the 80–88 % acceptance band Fig. 15(b) reports at 1000 viewers.
pub fn random_dissemination(mut config: SessionConfig) -> SessionConfig {
    config.placement = PlacementStrategy::Random;
    config.layering_enabled = false;
    config
}

/// Ablation: TeleCast with first-fit attachment instead of degree
/// push-down (keeps grouping, allocation and layering).
pub fn fifo_placement(mut config: SessionConfig) -> SessionConfig {
    config.placement = PlacementStrategy::Fifo;
    config
}

/// Ablation: TeleCast with all outbound bandwidth granted to the highest
/// priority stream (Fig. 8's "more viewers, poor quality" corner).
pub fn priority_first_outbound(mut config: SessionConfig) -> SessionConfig {
    config.outbound_policy = OutboundPolicy::PriorityFirst;
    config
}

/// Ablation: TeleCast with outbound bandwidth split evenly across
/// accepted streams (Fig. 8's "fewer viewers, better quality" corner).
pub fn equal_split_outbound(mut config: SessionConfig) -> SessionConfig {
    config.outbound_policy = OutboundPolicy::EqualSplit;
    config
}

/// Ablation: TeleCast without the delay-layer subscription machinery —
/// overlay construction unchanged, but nothing bounds inter-stream skew,
/// so delivered bandwidth can become ineffective.
pub fn no_layering(mut config: SessionConfig) -> SessionConfig {
    config.layering_enabled = false;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_disables_grouping_benefits() {
        let c = random_dissemination(SessionConfig::default());
        assert_eq!(c.placement, PlacementStrategy::Random);
        assert!(!c.layering_enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablations_change_exactly_one_axis() {
        let base = SessionConfig::default();

        let c = fifo_placement(base.clone());
        assert_eq!(c.placement, PlacementStrategy::Fifo);
        assert_eq!(c.outbound_policy, base.outbound_policy);
        assert!(c.layering_enabled);

        let c = priority_first_outbound(base.clone());
        assert_eq!(c.outbound_policy, OutboundPolicy::PriorityFirst);
        assert_eq!(c.placement, base.placement);

        let c = equal_split_outbound(base.clone());
        assert_eq!(c.outbound_policy, OutboundPolicy::EqualSplit);

        let c = no_layering(base.clone());
        assert!(!c.layering_enabled);
        assert_eq!(c.placement, base.placement);
    }
}
