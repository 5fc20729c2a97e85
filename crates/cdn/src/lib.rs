#![warn(missing_docs)]

//! CDN substrate for the 4D TeleCast reproduction (paper §III-A).
//!
//! 4D TeleCast uses a commercial CDN "as a storage and first layer
//! distribution server": producers upload 3D frames to it and viewers
//! (or the P2P layer's tree roots) pull from it. The paper's evaluation
//! models the CDN as a bounded outbound pool (`C_cdn_obw = 6000 Mbps`)
//! with a constant producer→viewer first-hop delay `Δ = 60 s`; this
//! crate implements that pool, split into one or more slots
//! ([`PoolScope`]). It stores no frames: the control plane never reads
//! one, and the session's Eq. 2 frame numbers come from its GSC
//! monitor.
//!
//! On top of the paper's static pool the crate adds an *elastic* mode
//! (see [`autoscale`]): [`Cdn::apply_scale_slot`] resizes a pool slot at
//! virtual time while a [`ProvisionedMeter`] prices the provisioned
//! Mbps-hours, so over-provisioning is visible in dollars. Sessions
//! never touch the [`Cdn`] directly: a [`CapacityBroker`] owns it, issues
//! the [`CdnLease`]s and enforces each tenant's quota.
//!
//! # Example
//!
//! ```
//! use telecast_cdn::{CapacityBroker, CdnConfig};
//! use telecast_net::{Bandwidth, Region};
//!
//! let cdn = CapacityBroker::single(CdnConfig::default());
//! let lease = cdn.serve(Bandwidth::from_mbps(2), Region::Europe)?;
//! assert_eq!(cdn.used(), Bandwidth::from_mbps(2));
//! cdn.release(lease);
//! assert!(cdn.used().is_zero());
//! # Ok::<(), telecast_cdn::CdnRejectedError>(())
//! ```

pub mod autoscale;
pub mod broker;
mod cost;

pub use autoscale::{AutoscalePolicy, Autoscaler, PredictivePolicy, ScaleDecision, ScaleDirection};
pub use broker::{CapacityBroker, TenantHandle, TenantId, TenantQuota};
pub use cost::ProvisionedMeter;

use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;

use serde::{Deserialize, Serialize};
use telecast_net::{Bandwidth, CapacityAccount, Region};
use telecast_sim::{SimDuration, SimTime};

/// How the CDN's outbound capacity is pooled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PoolScope {
    /// One shared pool for every region — the paper's model and the
    /// default. A stream for any region draws from the same account.
    #[default]
    Global,
    /// One pool per [`Region`], the total split by
    /// [`Region::weight_percent`] (the viewer-population shares). A
    /// stream can only draw from its own region's pool, so a saturated
    /// region rejects even while another has headroom — the regime
    /// regional autoscaling exists to manage.
    PerRegion,
}

/// Splits `total` into per-slot capacities under `scope`: one slot
/// holding everything for [`PoolScope::Global`], one per region
/// (weighted by [`Region::weight_percent`], remainder to the first
/// region) for [`PoolScope::PerRegion`]. The slot capacities always sum
/// exactly to `total`.
pub fn split_capacity(total: Bandwidth, scope: PoolScope) -> Vec<Bandwidth> {
    match scope {
        PoolScope::Global => vec![total],
        PoolScope::PerRegion => {
            let kbps = total.as_kbps();
            let mut slots: Vec<Bandwidth> = Region::ALL
                .iter()
                .map(|r| Bandwidth::from_kbps(kbps / 100 * r.weight_percent()))
                .collect();
            let assigned: u64 = slots.iter().map(|b| b.as_kbps()).sum();
            slots[0] += Bandwidth::from_kbps(kbps - assigned);
            slots
        }
    }
}

/// Configuration of the simulated CDN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdnConfig {
    /// Total outbound capacity usable by the 3DTI session (`C_cdn_obw`).
    pub outbound_capacity: Bandwidth,
    /// Whether the outbound capacity is one global pool (the paper's
    /// model) or split into per-region pools.
    pub pool_scope: PoolScope,
    /// Producer→viewer delivery delay through the CDN (the paper's `Δ`;
    /// 60 s in the evaluation — the non-interactive viewers tolerate it).
    pub delta: SimDuration,
    /// Committed-rate price per provisioned Mbps-hour (the elastic
    /// pool's standing cost; ~$20/Mbps-month ≈ $0.03/Mbps-hour).
    pub dollars_per_mbps_hour: f64,
}

impl Default for CdnConfig {
    /// The evaluation configuration: 6000 Mbps pool, Δ = 60 s,
    /// $0.03/Mbps-hour provisioned.
    fn default() -> Self {
        CdnConfig {
            outbound_capacity: Bandwidth::from_mbps(6_000),
            pool_scope: PoolScope::Global,
            delta: SimDuration::from_secs(60),
            dollars_per_mbps_hour: 0.03,
        }
    }
}

impl CdnConfig {
    /// An effectively unbounded CDN — used to measure *required* CDN
    /// bandwidth (Fig. 13(a) provisions every request and reports the
    /// peak).
    pub fn unbounded() -> Self {
        CdnConfig {
            outbound_capacity: Bandwidth::from_kbps(u64::MAX / 2),
            ..Default::default()
        }
    }

    /// Same configuration with a different outbound pool.
    pub fn with_outbound(self, outbound: Bandwidth) -> Self {
        CdnConfig {
            outbound_capacity: outbound,
            ..self
        }
    }

    /// Same configuration with a different pool scope.
    pub fn with_pool_scope(self, scope: PoolScope) -> Self {
        CdnConfig {
            pool_scope: scope,
            ..self
        }
    }
}

/// Error returned when the CDN pool cannot admit another stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdnRejectedError {
    /// Bandwidth that was requested.
    pub requested: Bandwidth,
    /// Bandwidth that remained available.
    pub available: Bandwidth,
}

impl fmt::Display for CdnRejectedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CDN outbound pool exhausted: requested {}, available {}",
            self.requested, self.available
        )
    }
}

impl Error for CdnRejectedError {}

/// Handle to an active CDN-served stream; release it to return the
/// bandwidth to the pool. Issued by the [`CapacityBroker`] in sequence
/// from 1, one per admitted serve, and ordered by that sequence so
/// holders of many leases can walk them deterministically. Ids start at
/// 1, so `Option<CdnLease>` is as small as the lease itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CdnLease(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<CdnLease>>() == 8);

/// The simulated CDN: bounded (but elastic) outbound pool slots, each
/// with its provisioned-capacity meter.
#[derive(Debug, Clone)]
pub struct Cdn {
    config: CdnConfig,
    /// The outbound capacity accounts — one slot under
    /// [`PoolScope::Global`], one per region (in [`Region::ALL`] order)
    /// under [`PoolScope::PerRegion`].
    pools: Vec<CapacityAccount>,
    /// Provisioned-capacity meters, one per pool slot.
    provisioned: Vec<ProvisionedMeter>,
}

impl Cdn {
    /// Builds a CDN with `config`'s pool split into its slots.
    pub fn new(config: CdnConfig) -> Self {
        let slots = split_capacity(config.outbound_capacity, config.pool_scope);
        Cdn {
            config,
            pools: slots.iter().map(|&cap| CapacityAccount::new(cap)).collect(),
            provisioned: slots
                .iter()
                .map(|&cap| ProvisionedMeter::new(config.dollars_per_mbps_hour, cap))
                .collect(),
        }
    }

    /// Number of pool slots: 1 under [`PoolScope::Global`],
    /// [`Region::ALL`]`.len()` under [`PoolScope::PerRegion`].
    pub fn pool_slots(&self) -> usize {
        self.pools.len()
    }

    /// The pool slot serving `region`.
    pub fn slot_of(&self, region: Region) -> usize {
        match self.config.pool_scope {
            PoolScope::Global => 0,
            PoolScope::PerRegion => region.index(),
        }
    }

    /// The capacity account of one pool slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.pool_slots()`.
    pub fn pool(&self, slot: usize) -> &CapacityAccount {
        &self.pools[slot]
    }

    /// Mutable access to one pool slot, for the broker's reservations.
    pub(crate) fn pool_mut(&mut self, slot: usize) -> &mut CapacityAccount {
        &mut self.pools[slot]
    }

    /// The region a slot serves, or `None` for the global slot.
    pub fn slot_region(&self, slot: usize) -> Option<Region> {
        match self.config.pool_scope {
            PoolScope::Global => None,
            PoolScope::PerRegion => Some(Region::ALL[slot]),
        }
    }

    /// Resizes one pool slot to `new_total` at virtual time `now`:
    /// accrues that slot's provisioned-capacity meter for the segment
    /// ending now and resizes the slot's account (clamped so live
    /// reservations survive). Returns the slot capacity actually in
    /// effect after clamping.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.pool_slots()`.
    pub fn apply_scale_slot(
        &mut self,
        slot: usize,
        new_total: Bandwidth,
        now: SimTime,
    ) -> Bandwidth {
        let clamped = new_total.max(self.pools[slot].used());
        self.provisioned[slot].accrue(now, clamped);
        self.pools[slot].resize(clamped);
        clamped
    }

    /// The provisioned-capacity meter of one pool slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.pool_slots()`.
    pub fn provisioned_meter_of(&self, slot: usize) -> &ProvisionedMeter {
        &self.provisioned[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_region(mbps: u64) -> CdnConfig {
        CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(mbps))
            .with_pool_scope(PoolScope::PerRegion)
    }

    #[test]
    fn default_config_matches_evaluation() {
        let c = CdnConfig::default();
        assert_eq!(c.outbound_capacity, Bandwidth::from_mbps(6_000));
        assert_eq!(c.pool_scope, PoolScope::Global);
        assert_eq!(c.delta, SimDuration::from_secs(60));
        assert_eq!(c.dollars_per_mbps_hour, 0.03);
        let cdn = Cdn::new(c);
        assert_eq!(cdn.pool(0).total(), Bandwidth::from_mbps(6_000));
    }

    #[test]
    fn serve_reserves_and_release_returns() {
        let cdn = CapacityBroker::single(CdnConfig::default());
        let lease = cdn
            .serve(Bandwidth::from_mbps(2), Region::Asia)
            .expect("capacity available");
        assert_eq!(cdn.outbound().used(), Bandwidth::from_mbps(2));
        assert_eq!(cdn.active_leases(), 1);
        cdn.release(lease);
        assert_eq!(cdn.outbound().used(), Bandwidth::ZERO);
        assert_eq!(cdn.active_leases(), 0);
    }

    #[test]
    fn pool_exhaustion_rejects() {
        let cdn =
            CapacityBroker::single(CdnConfig::default().with_outbound(Bandwidth::from_mbps(3)));
        cdn.serve(Bandwidth::from_mbps(2), Region::Europe)
            .expect("first fits");
        let err = cdn
            .serve(Bandwidth::from_mbps(2), Region::Europe)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::from_mbps(1));
        assert_eq!(cdn.active_leases(), 1);
    }

    #[test]
    fn unbounded_config_admits_thousands() {
        let cdn = CapacityBroker::single(CdnConfig::unbounded());
        for _ in 0..10_000 {
            cdn.serve(Bandwidth::from_mbps(2), Region::NorthAmerica)
                .expect("unbounded");
        }
        assert_eq!(cdn.active_leases(), 10_000);
    }

    #[test]
    #[should_panic(expected = "already-released")]
    fn double_release_panics() {
        let cdn = CapacityBroker::single(CdnConfig::default());
        let lease = cdn.serve(Bandwidth::from_mbps(2), Region::Asia).unwrap();
        cdn.release(lease);
        cdn.release(lease);
    }

    #[test]
    fn apply_scale_clamps_to_live_reservations() {
        let mut cdn = Cdn::new(CdnConfig::default().with_outbound(Bandwidth::from_mbps(4)));
        cdn.pool_mut(0)
            .reserve(Bandwidth::from_mbps(3))
            .expect("fits");
        // Shrinking under the reservation clamps to the used amount.
        let actual = cdn.apply_scale_slot(0, Bandwidth::from_mbps(1), SimTime::from_secs(5));
        assert_eq!(actual, Bandwidth::from_mbps(3));
        assert_eq!(cdn.pool(0).available(), Bandwidth::ZERO);
        // Growing back is not clamped.
        let actual = cdn.apply_scale_slot(0, Bandwidth::from_mbps(8), SimTime::from_secs(6));
        assert_eq!(actual, Bandwidth::from_mbps(8));
        assert_eq!(cdn.pool(0).available(), Bandwidth::from_mbps(5));
    }

    #[test]
    fn provisioned_capacity_is_priced_over_time() {
        // 6000 Mbps for one hour at $0.03/Mbps-hour = $180.
        let after_1h = SimTime::from_secs(3_600);
        let cdn = Cdn::new(CdnConfig::default());
        assert!((cdn.provisioned_meter_of(0).dollars_at(after_1h) - 180.0).abs() < 1e-9);
        let handle = CapacityBroker::single(CdnConfig::default());
        assert!((handle.provisioned_dollars_at(after_1h) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn split_capacity_conserves_the_total() {
        for mbps in [1, 7, 1_000, 6_000, 48_000] {
            let total = Bandwidth::from_mbps(mbps);
            for scope in [PoolScope::Global, PoolScope::PerRegion] {
                let slots = split_capacity(total, scope);
                let sum: u64 = slots.iter().map(|b| b.as_kbps()).sum();
                assert_eq!(sum, total.as_kbps(), "{scope:?} split lost capacity");
            }
        }
        let slots = split_capacity(Bandwidth::from_mbps(1_000), PoolScope::PerRegion);
        assert_eq!(slots.len(), Region::ALL.len());
        assert_eq!(slots[Region::Europe.index()], Bandwidth::from_mbps(300));
        assert_eq!(slots[Region::Oceania.index()], Bandwidth::from_mbps(50));
    }

    #[test]
    fn per_region_pools_reject_locally_while_others_have_headroom() {
        let cdn = CapacityBroker::single(per_region(1_000));
        assert_eq!(cdn.pool_slots(), Region::ALL.len());
        // Oceania holds 5% = 50 Mbps; exhaust it.
        for _ in 0..25 {
            cdn.serve(Bandwidth::from_mbps(2), Region::Oceania)
                .expect("inside the regional share");
        }
        assert!(!cdn.can_serve_in(Bandwidth::from_mbps(2), Region::Oceania));
        let err = cdn
            .serve(Bandwidth::from_mbps(2), Region::Oceania)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::ZERO);
        // Europe (300 Mbps) is untouched: regional isolation, and the
        // aggregate view still reports the global headroom.
        assert!(cdn.can_serve_in(Bandwidth::from_mbps(2), Region::Europe));
        cdn.serve(Bandwidth::from_mbps(2), Region::Europe)
            .expect("other regions unaffected");
        assert_eq!(cdn.outbound().used(), Bandwidth::from_mbps(52));
        assert_eq!(cdn.outbound().total(), Bandwidth::from_mbps(1_000));
    }

    #[test]
    fn per_region_release_returns_to_the_owning_pool() {
        let cdn = CapacityBroker::single(per_region(1_000));
        let lease = cdn
            .serve(Bandwidth::from_mbps(4), Region::Asia)
            .expect("fits");
        let asia = cdn.slot_of(Region::Asia);
        assert_eq!(cdn.pool(asia).used(), Bandwidth::from_mbps(4));
        cdn.release(lease);
        assert!(cdn.pool(asia).used().is_zero());
    }

    #[test]
    fn apply_scale_slot_is_region_scoped() {
        let mut cdn = Cdn::new(per_region(7_500));
        let eu = cdn.slot_of(Region::Europe);
        let asia = cdn.slot_of(Region::Asia);
        let asia_before = cdn.pool(asia).total();
        // Grow Europe alone: 2250 → 6000 Mbps.
        let actual = cdn.apply_scale_slot(eu, Bandwidth::from_mbps(6_000), SimTime::from_secs(30));
        assert_eq!(actual, Bandwidth::from_mbps(6_000));
        assert_eq!(cdn.pool(eu).total(), Bandwidth::from_mbps(6_000));
        assert_eq!(
            cdn.pool(asia).total(),
            asia_before,
            "other region's pool moved"
        );
        // Only Europe's meter switched rate: one hour later the Asia
        // meter still bills its original share.
        let hour = SimTime::from_secs(3_600 + 30);
        let asia_hours = cdn.provisioned_meter_of(asia).mbps_hours_at(hour);
        assert!(
            (asia_hours - asia_before.as_mbps_f64() * (3_600.0 + 30.0) / 3_600.0).abs() < 1e-6,
            "asia meter drifted: {asia_hours}"
        );
        let eu_hours = cdn.provisioned_meter_of(eu).mbps_hours_at(hour);
        assert!(
            (eu_hours - (2_250.0 * 30.0 / 3_600.0 + 6_000.0)).abs() < 1e-6,
            "europe meter missed the resize: {eu_hours}"
        );
    }

    #[test]
    fn global_scope_keeps_single_slot_semantics() {
        let cdn = Cdn::new(CdnConfig::default());
        assert_eq!(cdn.pool_slots(), 1);
        for &region in &Region::ALL {
            assert_eq!(cdn.slot_of(region), 0);
        }
        assert_eq!(cdn.slot_region(0), None);
        assert_eq!(cdn.pool(0).total(), Bandwidth::from_mbps(6_000));
    }

    #[test]
    fn rejected_error_displays() {
        let err = CdnRejectedError {
            requested: Bandwidth::from_mbps(2),
            available: Bandwidth::ZERO,
        };
        assert!(err.to_string().contains("exhausted"));
    }
}
