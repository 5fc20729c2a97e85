#![warn(missing_docs)]

//! CDN substrate for the 4D TeleCast reproduction (paper §III-A).
//!
//! 4D TeleCast uses a commercial CDN "as a storage and first layer
//! distribution server": producers upload 3D frames to the distribution
//! storage, core servers replicate them to regional edge servers, and
//! viewers (or the P2P layer's tree roots) pull from the nearest edge. The
//! paper's evaluation models the CDN as a bounded outbound pool
//! (`C_cdn_obw = 6000 Mbps`) with a constant producer→viewer first-hop
//! delay `Δ = 60 s`; this crate implements that plus the storage/edge
//! plumbing and the CloudFront-style transfer cost model ($0.18/GB).
//!
//! On top of the paper's static pool the crate adds an *elastic* mode
//! (see [`autoscale`]): [`Cdn::apply_scale`] resizes the outbound pool
//! at virtual time, growing extra per-region edge servers when capacity
//! expands and retiring drained ones when it shrinks, while a
//! [`ProvisionedMeter`] prices the provisioned Mbps-hours alongside the
//! egress bytes so over-provisioning is visible in dollars.
//!
//! # Example
//!
//! ```
//! use telecast_cdn::{Cdn, CdnConfig};
//! use telecast_net::{Bandwidth, Region};
//! use telecast_media::{SiteId, StreamId};
//!
//! let mut cdn = Cdn::new(CdnConfig::default());
//! let stream = StreamId::new(SiteId::new(0), 3);
//! let lease = cdn.serve(stream, Bandwidth::from_mbps(2), Region::Europe)?;
//! assert_eq!(cdn.outbound().used(), Bandwidth::from_mbps(2));
//! cdn.release(lease);
//! assert!(cdn.outbound().used().is_zero());
//! # Ok::<(), telecast_cdn::CdnRejectedError>(())
//! ```

pub mod autoscale;
pub mod broker;
mod cost;
mod distribution;
mod server;

pub use autoscale::{AutoscalePolicy, Autoscaler, PredictivePolicy, ScaleDecision, ScaleDirection};
pub use broker::{CapacityBroker, TenantHandle, TenantId, TenantQuota};
pub use cost::{CostModel, ProvisionedMeter, TrafficMeter};
pub use distribution::{Distribution, IngestStats};
pub use server::{EdgeServer, ServerId};

use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;
use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_media::StreamId;
use telecast_net::{Bandwidth, CapacityAccount, Region};
use telecast_sim::{SimDuration, SimTime};

/// Hard cap on edge servers per region — a backstop against effectively
/// unbounded pools ([`CdnConfig::unbounded`]) materialising millions of
/// edges.
pub const MAX_EDGES_PER_REGION: u64 = 8;

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
    /// Transfer price per gigabyte (Amazon CloudFront 2012: $0.18/GB).
    pub dollars_per_gb: f64,
    /// Committed-rate price per provisioned Mbps-hour (the elastic
    /// pool's standing cost; ~$20/Mbps-month ≈ $0.03/Mbps-hour).
    pub dollars_per_mbps_hour: f64,
    /// Nominal outbound capacity per edge server; the elastic CDN grows
    /// one edge per `edge_unit` of pool share in each region (at least
    /// one per region, at most [`MAX_EDGES_PER_REGION`]).
    pub edge_unit: Bandwidth,
}

impl Default for CdnConfig {
    /// The evaluation configuration: 6000 Mbps pool, Δ = 60 s, $0.18/GB,
    /// $0.03/Mbps-hour provisioned, 1500 Mbps edge units.
    fn default() -> Self {
        CdnConfig {
            outbound_capacity: Bandwidth::from_mbps(6_000),
            pool_scope: PoolScope::Global,
            delta: SimDuration::from_secs(60),
            dollars_per_gb: 0.18,
            dollars_per_mbps_hour: 0.03,
            edge_unit: Bandwidth::from_mbps(1_500),
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
/// bandwidth to the pool. Ordered by issue sequence so holders of many
/// leases (the [`broker`]) can walk them deterministically. Ids start at
/// 1, so `Option<CdnLease>` is as small as the lease itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CdnLease(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<CdnLease>>() == 8);

/// The simulated CDN: bounded (but elastic) outbound pool(s) + per-region
/// edge servers.
#[derive(Debug, Clone)]
pub struct Cdn {
    config: CdnConfig,
    /// The outbound capacity accounts — one slot under
    /// [`PoolScope::Global`], one per region (in [`Region::ALL`] order)
    /// under [`PoolScope::PerRegion`].
    pools: Vec<CapacityAccount>,
    /// Every edge ever provisioned, indexed directly by
    /// [`ServerId::index`]; retired edges stay as drained tombstones so
    /// the id → server mapping never shifts.
    edges: Vec<EdgeServer>,
    /// Active (non-retired) edge ids per region, in [`Region::ALL`]
    /// order — the O(1) region lookup behind [`Cdn::serve`].
    region_active: Vec<Vec<ServerId>>,
    leases: FxHashMap<CdnLease, (StreamId, Bandwidth, ServerId, usize)>,
    next_lease: u64,
    meter: TrafficMeter,
    /// Provisioned-capacity meters, one per pool slot.
    provisioned: Vec<ProvisionedMeter>,
}

impl Cdn {
    /// Builds a CDN with at least one edge server per region (more when
    /// the initial pool spans several `edge_unit`s).
    pub fn new(config: CdnConfig) -> Self {
        let slots = split_capacity(config.outbound_capacity, config.pool_scope);
        let mut cdn = Cdn {
            config,
            pools: slots.iter().map(|&cap| CapacityAccount::new(cap)).collect(),
            edges: Vec::new(),
            region_active: vec![Vec::new(); Region::ALL.len()],
            leases: FxHashMap::default(),
            next_lease: 1,
            meter: TrafficMeter::new(CostModel::per_gb(config.dollars_per_gb)),
            provisioned: slots
                .iter()
                .map(|&cap| ProvisionedMeter::new(config.dollars_per_mbps_hour, cap))
                .collect(),
        };
        cdn.retarget_edges();
        cdn
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

    /// The region a slot serves, or `None` for the global slot.
    pub fn slot_region(&self, slot: usize) -> Option<Region> {
        match self.config.pool_scope {
            PoolScope::Global => None,
            PoolScope::PerRegion => Some(Region::ALL[slot]),
        }
    }

    /// How many edges `region` should hold when its pool share is
    /// `capacity`.
    fn target_edges_for_share(&self, capacity: Bandwidth) -> u64 {
        let unit = self.config.edge_unit.as_kbps().max(1);
        let share = capacity.as_kbps();
        let target = share / unit + u64::from(share % unit != 0);
        target.clamp(1, MAX_EDGES_PER_REGION)
    }

    /// The pool share backing `region`'s edges: an even split of the
    /// global pool, or the region's own pool under per-region scope.
    fn region_share(&self, region: Region) -> Bandwidth {
        match self.config.pool_scope {
            PoolScope::Global => {
                Bandwidth::from_kbps(self.pools[0].total().as_kbps() / Region::ALL.len() as u64)
            }
            PoolScope::PerRegion => self.pools[region.index()].total(),
        }
    }

    /// Grows/retires edges so each region holds the target count for the
    /// current pool(s). Growth appends fresh [`ServerId`]s; shrinking
    /// retires only *drained* edges (never the last one of a region), so
    /// every live lease keeps a valid server behind it.
    fn retarget_edges(&mut self) {
        for (idx, &region) in Region::ALL.iter().enumerate() {
            let target = self.target_edges_for_share(self.region_share(region)) as usize;
            while self.region_active[idx].len() < target {
                let id = ServerId::new(self.edges.len() as u32);
                self.edges.push(EdgeServer::new(id, region));
                self.region_active[idx].push(id);
            }
            while self.region_active[idx].len() > target.max(1) {
                // Prefer retiring a drained edge from the back; stop if
                // every candidate still carries sessions.
                let active = &self.region_active[idx];
                let victim = active
                    .iter()
                    .rposition(|&id| self.edges[id.index()].session_count() == 0);
                match victim {
                    Some(pos) => {
                        let id = self.region_active[idx].remove(pos);
                        self.edges[id.index()].retire();
                    }
                    None => break,
                }
            }
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CdnConfig {
        &self.config
    }

    /// The producer→viewer delivery delay `Δ`.
    pub fn delta(&self) -> SimDuration {
        self.config.delta
    }

    /// The outbound pool viewed as one aggregate account (total and used
    /// summed over every slot). Under [`PoolScope::Global`] this *is*
    /// the pool; under [`PoolScope::PerRegion`] it is a read-only
    /// summary — admission is decided per region (see
    /// [`Cdn::can_serve_in`]), so aggregate headroom can overstate what
    /// any single stream can draw.
    pub fn outbound(&self) -> CapacityAccount {
        let total = self.pools.iter().map(|p| p.total()).sum();
        let used = self.pools.iter().map(|p| p.used()).sum();
        let mut agg = CapacityAccount::new(total);
        agg.reserve(used)
            .expect("per-slot used never exceeds total");
        agg
    }

    /// Whether a stream of rate `bw` could currently be admitted for a
    /// viewer in `region` — the region-scoped admission check.
    pub fn can_serve_in(&self, bw: Bandwidth, region: Region) -> bool {
        self.pools[self.slot_of(region)].can_reserve(bw)
    }

    /// Admits a stream of rate `bw` towards a viewer in `region`, serving
    /// it from that region's edge server. Under
    /// [`PoolScope::PerRegion`] the reservation comes from the region's
    /// own pool; a saturated region rejects even while others have
    /// headroom.
    ///
    /// # Errors
    ///
    /// Returns [`CdnRejectedError`] if the pool lacks capacity; nothing is
    /// reserved in that case.
    pub fn serve(
        &mut self,
        stream: StreamId,
        bw: Bandwidth,
        region: Region,
    ) -> Result<CdnLease, CdnRejectedError> {
        let slot = self.slot_of(region);
        self.pools[slot].reserve(bw).map_err(|e| CdnRejectedError {
            requested: e.requested,
            available: e.available,
        })?;
        // Direct region index, then least-loaded active edge (ties break
        // on the lower id, keeping placement deterministic).
        let id = self.region_active[region.index()]
            .iter()
            .copied()
            .min_by_key(|&id| (self.edges[id.index()].load(), id))
            .expect("every region keeps at least one active edge");
        self.edges[id.index()].add_session(stream, bw);
        let lease = CdnLease(NonZeroU64::new(self.next_lease).expect("lease ids start at 1"));
        self.next_lease += 1;
        self.leases.insert(lease, (stream, bw, id, slot));
        Ok(lease)
    }

    /// Releases a lease, returning its bandwidth to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the lease was already released — double release is an
    /// accounting bug.
    pub fn release(&mut self, lease: CdnLease) {
        let (stream, bw, server, slot) = self
            .leases
            .remove(&lease)
            .expect("release of unknown or already-released CDN lease");
        self.pools[slot].release(bw);
        // ServerIds are Vec indexes: O(1), no scan over the edge list.
        self.edges[server.index()].remove_session(stream, bw);
    }

    /// Number of active leases.
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }

    /// Records `bytes` of egress for cost accounting.
    pub fn record_egress(&mut self, bytes: u64) {
        self.meter.record(bytes);
    }

    /// Accumulated egress meter.
    pub fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Resizes the first pool slot to `new_total` at virtual time `now`
    /// — the whole pool under [`PoolScope::Global`] (pre-region-split
    /// callers keep their semantics). Region-scoped controllers use
    /// [`Cdn::apply_scale_slot`]. Returns the capacity actually in
    /// effect after clamping.
    pub fn apply_scale(&mut self, new_total: Bandwidth, now: SimTime) -> Bandwidth {
        self.apply_scale_slot(0, new_total, now)
    }

    /// Resizes one pool slot to `new_total` at virtual time `now`:
    /// accrues that slot's provisioned-capacity meter for the segment
    /// ending now, resizes the slot's account (clamped so live
    /// reservations survive), and grows or retires per-region edges to
    /// match. Returns the slot capacity actually in effect after
    /// clamping.
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
        self.retarget_edges();
        clamped
    }

    /// Resizes the pool slot serving `region` (see
    /// [`Cdn::apply_scale_slot`]).
    pub fn apply_scale_region(
        &mut self,
        region: Region,
        new_total: Bandwidth,
        now: SimTime,
    ) -> Bandwidth {
        self.apply_scale_slot(self.slot_of(region), new_total, now)
    }

    /// The provisioned-capacity meter of the first pool slot (the whole
    /// pool under [`PoolScope::Global`]); per-slot meters are reached
    /// through [`Cdn::provisioned_meter_of`], the aggregate bill through
    /// [`Cdn::provisioned_mbps_hours_at`]/[`Cdn::provisioned_dollars_at`].
    pub fn provisioned_meter(&self) -> &ProvisionedMeter {
        &self.provisioned[0]
    }

    /// The provisioned-capacity meter of one pool slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.pool_slots()`.
    pub fn provisioned_meter_of(&self, slot: usize) -> &ProvisionedMeter {
        &self.provisioned[slot]
    }

    /// Provisioned Mbps-hours accrued up to `now`, summed over every
    /// pool slot.
    pub fn provisioned_mbps_hours_at(&self, now: SimTime) -> f64 {
        self.provisioned.iter().map(|m| m.mbps_hours_at(now)).sum()
    }

    /// Provisioned-capacity dollars accrued up to `now`, summed over
    /// every pool slot.
    pub fn provisioned_dollars_at(&self, now: SimTime) -> f64 {
        self.provisioned.iter().map(|m| m.dollars_at(now)).sum()
    }

    /// Total CDN dollars up to `now`: egress bytes plus provisioned
    /// Mbps-hours across every pool slot.
    pub fn total_dollars_at(&self, now: SimTime) -> f64 {
        self.meter.dollars() + self.provisioned_dollars_at(now)
    }

    /// Every edge server ever provisioned, including retired tombstones
    /// (drained, `is_retired`), indexed by [`ServerId::index`].
    pub fn edges(&self) -> &[EdgeServer] {
        &self.edges
    }

    /// Number of active (non-retired) edges in `region`.
    pub fn active_edges_in(&self, region: Region) -> usize {
        self.region_active[region.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_media::SiteId;

    fn stream(camera: u16) -> StreamId {
        StreamId::new(SiteId::new(0), camera)
    }

    #[test]
    fn default_config_matches_evaluation() {
        let c = CdnConfig::default();
        assert_eq!(c.outbound_capacity, Bandwidth::from_mbps(6_000));
        assert_eq!(c.delta, SimDuration::from_secs(60));
        assert_eq!(c.dollars_per_gb, 0.18);
        assert_eq!(c.dollars_per_mbps_hour, 0.03);
        assert_eq!(c.edge_unit, Bandwidth::from_mbps(1_500));
        // The default pool still materialises exactly one edge per
        // region, in Region::ALL order — the paper's static layout.
        let cdn = Cdn::new(c);
        assert_eq!(cdn.edges().len(), Region::ALL.len());
        for (i, edge) in cdn.edges().iter().enumerate() {
            assert_eq!(edge.region(), Region::ALL[i]);
            assert!(!edge.is_retired());
        }
    }

    #[test]
    fn serve_reserves_and_release_returns() {
        let mut cdn = Cdn::new(CdnConfig::default());
        let lease = cdn
            .serve(stream(0), Bandwidth::from_mbps(2), Region::Asia)
            .expect("capacity available");
        assert_eq!(cdn.outbound().used(), Bandwidth::from_mbps(2));
        assert_eq!(cdn.active_leases(), 1);
        cdn.release(lease);
        assert_eq!(cdn.outbound().used(), Bandwidth::ZERO);
        assert_eq!(cdn.active_leases(), 0);
    }

    #[test]
    fn pool_exhaustion_rejects() {
        let mut cdn = Cdn::new(CdnConfig::default().with_outbound(Bandwidth::from_mbps(3)));
        cdn.serve(stream(0), Bandwidth::from_mbps(2), Region::Europe)
            .expect("first fits");
        let err = cdn
            .serve(stream(1), Bandwidth::from_mbps(2), Region::Europe)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::from_mbps(1));
        assert_eq!(cdn.active_leases(), 1);
    }

    #[test]
    fn unbounded_config_admits_thousands() {
        let mut cdn = Cdn::new(CdnConfig::unbounded());
        for i in 0..10_000u16 {
            cdn.serve(stream(i % 8), Bandwidth::from_mbps(2), Region::NorthAmerica)
                .expect("unbounded");
        }
        assert_eq!(cdn.active_leases(), 10_000);
    }

    #[test]
    fn sessions_land_on_regional_edge() {
        let mut cdn = Cdn::new(CdnConfig::default());
        cdn.serve(stream(0), Bandwidth::from_mbps(2), Region::Oceania)
            .expect("fits");
        let edge = cdn
            .edges()
            .iter()
            .find(|e| e.region() == Region::Oceania)
            .unwrap();
        assert_eq!(edge.session_count(), 1);
        assert_eq!(edge.load(), Bandwidth::from_mbps(2));
        for other in cdn.edges().iter().filter(|e| e.region() != Region::Oceania) {
            assert_eq!(other.session_count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "already-released")]
    fn double_release_panics() {
        let mut cdn = Cdn::new(CdnConfig::default());
        let lease = cdn
            .serve(stream(0), Bandwidth::from_mbps(2), Region::Asia)
            .unwrap();
        cdn.release(lease);
        cdn.release(lease);
    }

    #[test]
    fn apply_scale_grows_and_retires_edges() {
        let config = CdnConfig::default().with_outbound(Bandwidth::from_mbps(6_000));
        let mut cdn = Cdn::new(config);
        assert_eq!(cdn.active_edges_in(Region::Europe), 1);
        // 30 Gbps over 5 regions at 1500 Mbps units: 4 edges per region.
        cdn.apply_scale(Bandwidth::from_mbps(30_000), SimTime::from_secs(10));
        assert_eq!(cdn.outbound().total(), Bandwidth::from_mbps(30_000));
        for &region in &Region::ALL {
            assert_eq!(cdn.active_edges_in(region), 4);
        }
        // Shrink back: drained edges retire, one per region survives.
        cdn.apply_scale(Bandwidth::from_mbps(6_000), SimTime::from_secs(20));
        for &region in &Region::ALL {
            assert_eq!(cdn.active_edges_in(region), 1);
        }
        let retired = cdn.edges().iter().filter(|e| e.is_retired()).count();
        assert_eq!(retired, Region::ALL.len() * 3);
    }

    #[test]
    fn apply_scale_clamps_to_live_reservations_and_keeps_loaded_edges() {
        let mut cdn = Cdn::new(CdnConfig::default().with_outbound(Bandwidth::from_mbps(4)));
        let lease = cdn
            .serve(stream(0), Bandwidth::from_mbps(3), Region::Asia)
            .expect("fits");
        // Shrinking under the reservation clamps to the used amount.
        let actual = cdn.apply_scale(Bandwidth::from_mbps(1), SimTime::from_secs(5));
        assert_eq!(actual, Bandwidth::from_mbps(3));
        assert_eq!(cdn.outbound().available(), Bandwidth::ZERO);
        cdn.release(lease);
        assert_eq!(cdn.outbound().used(), Bandwidth::ZERO);
    }

    #[test]
    fn scale_up_spreads_sessions_across_region_edges() {
        let mut cdn = Cdn::new(CdnConfig::default());
        cdn.apply_scale(Bandwidth::from_mbps(30_000), SimTime::ZERO);
        for i in 0..8u16 {
            cdn.serve(stream(i), Bandwidth::from_mbps(2), Region::Europe)
                .expect("fits");
        }
        // Least-loaded placement: 8 sessions over 4 active edges = 2 each.
        let counts: Vec<usize> = cdn
            .edges()
            .iter()
            .filter(|e| e.region() == Region::Europe && !e.is_retired())
            .map(|e| e.session_count())
            .collect();
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn provisioned_capacity_is_priced_over_time() {
        // 6000 Mbps for one hour at $0.03/Mbps-hour = $180.
        let cdn = Cdn::new(CdnConfig::default());
        let after_1h = SimTime::from_secs(3_600);
        assert!((cdn.provisioned_meter().dollars_at(after_1h) - 180.0).abs() < 1e-9);
        assert_eq!(cdn.total_dollars_at(after_1h), 180.0);
    }

    #[test]
    fn egress_metering_accumulates_cost() {
        let mut cdn = Cdn::new(CdnConfig::default());
        cdn.record_egress(5_000_000_000); // 5 GB
        assert!((cdn.meter().dollars() - 0.9).abs() < 1e-9);
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
        let config = CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(1_000))
            .with_pool_scope(PoolScope::PerRegion);
        let mut cdn = Cdn::new(config);
        assert_eq!(cdn.pool_slots(), Region::ALL.len());
        // Oceania holds 5% = 50 Mbps; exhaust it.
        for i in 0..25u16 {
            cdn.serve(stream(i % 8), Bandwidth::from_mbps(2), Region::Oceania)
                .expect("inside the regional share");
        }
        assert!(!cdn.can_serve_in(Bandwidth::from_mbps(2), Region::Oceania));
        let err = cdn
            .serve(stream(0), Bandwidth::from_mbps(2), Region::Oceania)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::ZERO);
        // Europe (300 Mbps) is untouched: regional isolation, and the
        // aggregate view still reports the global headroom.
        assert!(cdn.can_serve_in(Bandwidth::from_mbps(2), Region::Europe));
        cdn.serve(stream(0), Bandwidth::from_mbps(2), Region::Europe)
            .expect("other regions unaffected");
        assert_eq!(cdn.outbound().used(), Bandwidth::from_mbps(52));
        assert_eq!(cdn.outbound().total(), Bandwidth::from_mbps(1_000));
    }

    #[test]
    fn per_region_release_returns_to_the_owning_pool() {
        let config = CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(1_000))
            .with_pool_scope(PoolScope::PerRegion);
        let mut cdn = Cdn::new(config);
        let lease = cdn
            .serve(stream(0), Bandwidth::from_mbps(4), Region::Asia)
            .expect("fits");
        assert_eq!(
            cdn.pool(cdn.slot_of(Region::Asia)).used(),
            Bandwidth::from_mbps(4)
        );
        cdn.release(lease);
        assert!(cdn.pool(cdn.slot_of(Region::Asia)).used().is_zero());
    }

    #[test]
    fn apply_scale_slot_is_region_scoped() {
        let config = CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(7_500))
            .with_pool_scope(PoolScope::PerRegion);
        let mut cdn = Cdn::new(config);
        let eu = cdn.slot_of(Region::Europe);
        let asia = cdn.slot_of(Region::Asia);
        let asia_before = cdn.pool(asia).total();
        let eu_edges_before = cdn.active_edges_in(Region::Europe);
        // Grow Europe alone: 2250 → 6000 Mbps (4 × 1500 Mbps units).
        let actual = cdn.apply_scale_region(
            Region::Europe,
            Bandwidth::from_mbps(6_000),
            SimTime::from_secs(30),
        );
        assert_eq!(actual, Bandwidth::from_mbps(6_000));
        assert_eq!(cdn.pool(eu).total(), Bandwidth::from_mbps(6_000));
        assert_eq!(
            cdn.pool(asia).total(),
            asia_before,
            "other region's pool moved"
        );
        assert_eq!(cdn.active_edges_in(Region::Europe), 4);
        assert!(cdn.active_edges_in(Region::Europe) > eu_edges_before);
        // Only Europe's meter switched rate: one hour later the Asia
        // meter still bills its original share.
        let hour = SimTime::from_secs(3_600 + 30);
        let asia_hours = cdn.provisioned_meter_of(asia).mbps_hours_at(hour);
        assert!(
            (asia_hours - asia_before.as_mbps_f64() * (3_600.0 + 30.0) / 3_600.0).abs() < 1e-6,
            "asia meter drifted: {asia_hours}"
        );
        // The aggregate bill sums every slot.
        let sum: f64 = (0..cdn.pool_slots())
            .map(|s| cdn.provisioned_meter_of(s).mbps_hours_at(hour))
            .sum();
        assert!((cdn.provisioned_mbps_hours_at(hour) - sum).abs() < 1e-9);
    }

    #[test]
    fn global_scope_keeps_single_slot_semantics() {
        let cdn = Cdn::new(CdnConfig::default());
        assert_eq!(cdn.pool_slots(), 1);
        for &region in &Region::ALL {
            assert_eq!(cdn.slot_of(region), 0);
        }
        assert_eq!(cdn.slot_region(0), None);
        assert_eq!(cdn.pool(0).total(), cdn.outbound().total());
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
