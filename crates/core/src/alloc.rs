//! Viewer bandwidth allocation (paper §IV-B1).
//!
//! Inbound: streams are granted their required bandwidth in global
//! priority order while (1) inbound capacity remains and (2) some supply
//! (P2P slot or CDN headroom) exists; the first violation truncates the
//! request (lower-priority streams are dropped).
//!
//! Outbound: the accepted streams share the viewer's upload capacity.
//! The paper's **round-robin in priority order** grants one out-link
//! ("slot") per stream per pass. With uniform stream rates — the 3DTI
//! setting, where every camera encodes at the same bitrate — this
//! guarantees that a higher-priority stream never ends up with less
//! allocated outbound than a lower-priority one (`abw(S_hi) ≥
//! abw(S_lo)`), the invariant behind the Overlay Property. With
//! heterogeneous rates the guarantee degrades to slot-count fairness: a
//! cheap low-priority stream may absorb leftover capacity a costly
//! high-priority one cannot use. The alternative policies of Fig. 8's
//! trade-off are provided as ablations.

use telecast_media::{PrioritizedStream, StreamId};
use telecast_net::Bandwidth;

use crate::config::OutboundPolicy;

/// Result of the inbound allocation step. A plan is a reusable buffer:
/// [`InboundPlan::allocate`] overwrites it, so a caller that keeps one
/// allocates nothing once it has grown to the longest view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InboundPlan {
    /// Accepted streams, still in global priority order.
    pub accepted: Vec<PrioritizedStream>,
    /// Total inbound bandwidth the accepted streams consume.
    pub inbound_used: Bandwidth,
}

impl InboundPlan {
    /// Allocates the viewer's `inbound` capacity over `streams` (which
    /// must be in global priority order, most important first),
    /// replacing this plan's contents.
    ///
    /// `supply_available` reports whether the P2P layer or the CDN
    /// currently has outbound headroom for a stream — condition (2) of
    /// the paper.
    pub fn allocate(
        &mut self,
        streams: &[PrioritizedStream],
        inbound: Bandwidth,
        mut supply_available: impl FnMut(StreamId, Bandwidth) -> bool,
    ) {
        self.accepted.clear();
        self.inbound_used = Bandwidth::ZERO;
        for s in streams {
            let bw = Bandwidth::from_kbps(s.bitrate_kbps);
            if self.inbound_used + bw > inbound || !supply_available(s.stream, bw) {
                break; // first violation truncates the request
            }
            self.inbound_used += bw;
            self.accepted.push(*s);
        }
    }
}

/// Whether `accepted` covers every one of the `site_count` producer sites
/// — the admission constraint `N_accepted ≥ n` ("at least the highest
/// priority stream of each local view").
pub fn covers_all_sites(accepted: &[PrioritizedStream], site_count: usize) -> bool {
    (0..site_count).all(|site| accepted.iter().any(|s| s.stream.site().index() == site))
}

/// Result of the outbound allocation step: out-link slots per accepted
/// stream (same order as the accepted list) and the capacity consumed.
/// Reusable like [`InboundPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutboundPlan {
    /// `(stream, granted slots)` in priority order.
    pub slots: Vec<(StreamId, u32)>,
    /// Total outbound bandwidth backing those slots.
    pub outbound_used: Bandwidth,
}

impl OutboundPlan {
    /// Granted out-degree for `stream` (0 if not listed).
    pub fn out_degree(&self, stream: StreamId) -> u32 {
        self.slots
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|&(_, d)| d)
            .unwrap_or(0)
    }

    /// Allocates the viewer's `outbound` capacity across the `accepted`
    /// streams under `policy`, replacing this plan's contents.
    pub fn allocate(
        &mut self,
        accepted: &[PrioritizedStream],
        outbound: Bandwidth,
        policy: OutboundPolicy,
    ) {
        let slots = &mut self.slots;
        slots.clear();
        slots.extend(accepted.iter().map(|s| (s.stream, 0)));
        let mut remaining = outbound;
        match policy {
            OutboundPolicy::RoundRobin => loop {
                let mut granted_this_pass = false;
                for (i, s) in accepted.iter().enumerate() {
                    let bw = Bandwidth::from_kbps(s.bitrate_kbps);
                    if bw <= remaining && !bw.is_zero() {
                        slots[i].1 += 1;
                        remaining -= bw;
                        granted_this_pass = true;
                    }
                }
                if !granted_this_pass {
                    break;
                }
            },
            OutboundPolicy::PriorityFirst => {
                for (i, s) in accepted.iter().enumerate() {
                    let bw = Bandwidth::from_kbps(s.bitrate_kbps);
                    if bw.is_zero() {
                        continue;
                    }
                    let n = remaining / bw;
                    slots[i].1 = u32::try_from(n).unwrap_or(u32::MAX);
                    remaining -= bw * n;
                }
            }
            OutboundPolicy::EqualSplit => {
                if !accepted.is_empty() {
                    let share = Bandwidth::from_kbps(outbound.as_kbps() / accepted.len() as u64);
                    for (i, s) in accepted.iter().enumerate() {
                        let bw = Bandwidth::from_kbps(s.bitrate_kbps);
                        if bw.is_zero() {
                            continue;
                        }
                        let n = share / bw;
                        slots[i].1 = u32::try_from(n).unwrap_or(u32::MAX);
                        remaining -= bw * n;
                    }
                }
            }
        }
        self.outbound_used = outbound - remaining;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_media::{SiteId, StreamId};

    fn ps(site: u16, camera: u16, eta: u32, df: f64) -> PrioritizedStream {
        PrioritizedStream {
            stream: StreamId::new(SiteId::new(site), camera),
            df,
            eta,
            bitrate_kbps: 2_000,
        }
    }

    fn inbound(
        streams: &[PrioritizedStream],
        capacity: Bandwidth,
        supply: impl FnMut(StreamId, Bandwidth) -> bool,
    ) -> InboundPlan {
        let mut plan = InboundPlan::default();
        plan.allocate(streams, capacity, supply);
        plan
    }

    fn outbound(
        streams: &[PrioritizedStream],
        capacity: Bandwidth,
        policy: OutboundPolicy,
    ) -> OutboundPlan {
        let mut plan = OutboundPlan::default();
        plan.allocate(streams, capacity, policy);
        plan
    }

    /// The paper's 6-stream view: interleaved priorities across 2 sites.
    fn six_streams() -> Vec<PrioritizedStream> {
        vec![
            ps(0, 0, 1, 1.0),
            ps(1, 0, 1, 0.9),
            ps(0, 1, 2, 0.7),
            ps(1, 1, 2, 0.7),
            ps(0, 7, 3, 0.7),
            ps(1, 7, 3, 0.6),
        ]
    }

    #[test]
    fn inbound_accepts_exact_fit() {
        // 12 Mbps fits exactly six 2 Mbps streams.
        let plan = inbound(&six_streams(), Bandwidth::from_mbps(12), |_, _| true);
        assert_eq!(plan.accepted.len(), 6);
        assert_eq!(plan.inbound_used, Bandwidth::from_mbps(12));
    }

    #[test]
    fn inbound_truncates_at_capacity() {
        let plan = inbound(&six_streams(), Bandwidth::from_mbps(7), |_, _| true);
        assert_eq!(plan.accepted.len(), 3);
        assert_eq!(plan.inbound_used, Bandwidth::from_mbps(6));
        // Kept the three highest priorities.
        assert_eq!(plan.accepted[0].stream, StreamId::new(SiteId::new(0), 0));
        assert_eq!(plan.accepted[2].stream, StreamId::new(SiteId::new(0), 1));
    }

    #[test]
    fn inbound_stops_at_first_supply_gap() {
        // Third stream has no supply: everything after it is dropped too.
        let blocked = StreamId::new(SiteId::new(0), 1);
        let plan = inbound(&six_streams(), Bandwidth::from_mbps(12), |s, _| {
            s != blocked
        });
        assert_eq!(plan.accepted.len(), 2);
    }

    #[test]
    fn inbound_zero_capacity_accepts_nothing() {
        let plan = inbound(&six_streams(), Bandwidth::ZERO, |_, _| true);
        assert!(plan.accepted.is_empty());
        assert_eq!(plan.inbound_used, Bandwidth::ZERO);
    }

    #[test]
    fn site_coverage_detects_missing_site() {
        let both = six_streams();
        assert!(covers_all_sites(&both[..2], 2));
        assert!(!covers_all_sites(&both[..1], 2));
        assert!(!covers_all_sites(&[], 2));
        assert!(covers_all_sites(&[], 0));
    }

    #[test]
    fn round_robin_matches_fig9() {
        // Fig. 9: 10 Mbps over three 2 Mbps streams → oDeg 2, 2, 1.
        let streams = &six_streams()[..3];
        let plan = outbound(
            streams,
            Bandwidth::from_mbps(10),
            OutboundPolicy::RoundRobin,
        );
        let degs: Vec<u32> = plan.slots.iter().map(|&(_, d)| d).collect();
        assert_eq!(degs, vec![2, 2, 1]);
        assert_eq!(plan.outbound_used, Bandwidth::from_mbps(10));
    }

    #[test]
    fn round_robin_is_priority_monotone() {
        for mbps in 0..=14 {
            let plan = outbound(
                &six_streams(),
                Bandwidth::from_mbps(mbps),
                OutboundPolicy::RoundRobin,
            );
            let degs: Vec<u32> = plan.slots.iter().map(|&(_, d)| d).collect();
            assert!(
                degs.windows(2).all(|w| w[0] >= w[1]),
                "non-monotone degrees {degs:?} at {mbps} Mbps"
            );
            // Spread at most 1 for uniform bitrates.
            let (min, max) = (degs.iter().min().unwrap(), degs.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn priority_first_starves_the_tail() {
        let plan = outbound(
            &six_streams(),
            Bandwidth::from_mbps(6),
            OutboundPolicy::PriorityFirst,
        );
        let degs: Vec<u32> = plan.slots.iter().map(|&(_, d)| d).collect();
        assert_eq!(degs, vec![3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn equal_split_divides_capacity() {
        let plan = outbound(
            &six_streams()[..3],
            Bandwidth::from_mbps(12),
            OutboundPolicy::EqualSplit,
        );
        let degs: Vec<u32> = plan.slots.iter().map(|&(_, d)| d).collect();
        assert_eq!(degs, vec![2, 2, 2]);
    }

    #[test]
    fn equal_split_wastes_fragmented_capacity() {
        // 10 Mbps over 3 streams → 3.33 Mbps shares → 1 slot each; 4 Mbps idle.
        let plan = outbound(
            &six_streams()[..3],
            Bandwidth::from_mbps(10),
            OutboundPolicy::EqualSplit,
        );
        let degs: Vec<u32> = plan.slots.iter().map(|&(_, d)| d).collect();
        assert_eq!(degs, vec![1, 1, 1]);
        assert_eq!(plan.outbound_used, Bandwidth::from_mbps(6));
    }

    #[test]
    fn outbound_zero_capacity_grants_nothing() {
        for policy in [
            OutboundPolicy::RoundRobin,
            OutboundPolicy::PriorityFirst,
            OutboundPolicy::EqualSplit,
        ] {
            let plan = outbound(&six_streams(), Bandwidth::ZERO, policy);
            assert!(plan.slots.iter().all(|&(_, d)| d == 0));
            assert_eq!(plan.outbound_used, Bandwidth::ZERO);
        }
    }

    #[test]
    fn outbound_empty_streams() {
        let plan = outbound(&[], Bandwidth::from_mbps(10), OutboundPolicy::RoundRobin);
        assert!(plan.slots.is_empty());
        assert_eq!(plan.outbound_used, Bandwidth::ZERO);
    }

    #[test]
    fn out_degree_lookup() {
        let plan = outbound(
            &six_streams()[..3],
            Bandwidth::from_mbps(10),
            OutboundPolicy::RoundRobin,
        );
        assert_eq!(plan.out_degree(StreamId::new(SiteId::new(0), 0)), 2);
        assert_eq!(plan.out_degree(StreamId::new(SiteId::new(1), 7)), 0);
    }

    #[test]
    fn allocated_outbound_respects_priority_invariant() {
        // abw(S_hi) ≥ abw(S_lo): in allocated bandwidth, not just slots.
        let plan = outbound(
            &six_streams(),
            Bandwidth::from_mbps(9),
            OutboundPolicy::RoundRobin,
        );
        let alloc: Vec<u64> = plan
            .slots
            .iter()
            .zip(six_streams())
            .map(|(&(_, d), s)| d as u64 * s.bitrate_kbps)
            .collect();
        assert!(alloc.windows(2).all(|w| w[0] >= w[1]));
    }
}
