//! Multi-tenant capacity broker: M concurrent broadcasts sharing the
//! regional CDN pools.
//!
//! The paper evaluates one session that owns the whole CDN outbound
//! pool. Production scale means hundreds of concurrent broadcasts
//! sharing regional capacity, so this module lifts CDN ownership out of
//! the session: a [`CapacityBroker`] owns the [`Cdn`] (its per-region
//! `CapacityAccount`s, provisioned meters and edge fleets) and each
//! tenant session holds only a [`TenantHandle`] — a cloneable,
//! internally-locked view that mirrors the `Cdn` API the session used
//! to call directly.
//!
//! Each tenant carries a [`TenantQuota`]: a guaranteed **floor** and a
//! burstable **ceiling**, both expressed as a percentage of each
//! regional pool. Admission enforces three rules per pool slot:
//!
//! 1. a tenant may never hold more than its ceiling;
//! 2. capacity below a tenant's floor is always admissible to it (as
//!    long as the pool physically has room);
//! 3. demand *above* the floor is admissible only from the burstable
//!    slack — capacity left once every active tenant's unclaimed floor
//!    is set aside.
//!
//! A single tenant with [`TenantQuota::FULL`] reduces every check to
//! the plain `CapacityAccount::can_reserve` the session used before the
//! broker existed — including the [`CdnRejectedError`] fields — so the
//! legacy single-broadcast artifacts replay byte-identically.
//!
//! When several tenants' parked joins contend for the same freed
//! capacity, [`CapacityBroker::arbitrate_retry`] splits the headroom by
//! deficit round-robin: each round credits every demanding tenant a
//! quantum proportional to its quota weight and grants up to its
//! accumulated deficit, visiting tenants in ascending [`TenantId`]
//! order — the deterministic `(round, tenant_id)` tie-break. Deficits
//! persist across arbitrations (capped at one quantum) so a tenant
//! starved this round is first in line for the next one.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use telecast_media::StreamId;
use telecast_net::{Bandwidth, CapacityAccount, Region};
use telecast_sim::{FxHashMap, SimDuration, SimTime};

use crate::{Cdn, CdnConfig, CdnLease, CdnRejectedError, ProvisionedMeter};

/// Bandwidth credited per quota-weight point per arbitration round
/// (1 Mbps). Small enough that an 8-tenant split of a regional pool
/// interleaves fairly, large enough that arbitration terminates in a
/// handful of rounds.
const DEFICIT_QUANTUM_KBPS: u64 = 1_000;

/// Identifies one tenant broadcast registered with a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// Builds a tenant id from its registration index.
    pub fn new(index: u32) -> Self {
        TenantId(index)
    }

    /// The registration index (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// A tenant's share of every regional pool: a guaranteed floor and a
/// burstable ceiling, as percentages of each slot's *current* (elastic)
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Guaranteed percentage of each regional pool: capacity below the
    /// floor is always admissible to this tenant, and other tenants can
    /// never burst into it. The sum of active tenants' floors must stay
    /// ≤ 100.
    pub floor_percent: u32,
    /// Burst limit as a percentage of each regional pool — the tenant
    /// can use idle capacity beyond its floor up to this bound.
    pub ceiling_percent: u32,
}

impl TenantQuota {
    /// The whole pool: floor = ceiling = 100%. A single tenant with
    /// this quota is exactly the legacy one-session-owns-the-`Cdn`
    /// model.
    pub const FULL: TenantQuota = TenantQuota {
        floor_percent: 100,
        ceiling_percent: 100,
    };

    /// An even split of the pool across `n` tenants with `burst`×
    /// headroom: floor `100/n`, ceiling `min(100, burst·100/n)`.
    pub fn even_split(n: u32, burst: u32) -> TenantQuota {
        let n = n.max(1);
        TenantQuota {
            floor_percent: 100 / n,
            ceiling_percent: (burst.max(1) * 100 / n).min(100),
        }
    }

    /// Panics unless `floor ≤ ceiling ≤ 100` — the invariant
    /// [`CapacityBroker::register`] enforces on admission.
    pub fn validate(self) {
        assert!(
            self.floor_percent <= self.ceiling_percent,
            "tenant floor {}% exceeds ceiling {}%",
            self.floor_percent,
            self.ceiling_percent
        );
        assert!(
            self.ceiling_percent <= 100,
            "tenant ceiling {}% exceeds the pool",
            self.ceiling_percent
        );
    }
}

/// `pct` percent of `total_kbps`, exact in u128 so `pct == 100` returns
/// `total_kbps` unchanged even for the effectively-unbounded pool
/// (`u64::MAX / 2` kbps) — the single-tenant byte-identity path.
fn pct_of(total_kbps: u64, pct: u32) -> u64 {
    (u128::from(total_kbps) * u128::from(pct) / 100) as u64
}

/// Book-keeping for one registered tenant.
#[derive(Debug, Clone)]
struct TenantState {
    quota: TenantQuota,
    /// Arbitration weight: the floor percentage (min 1 so zero-floor
    /// best-effort tenants still make progress).
    weight: u64,
    /// Whether the tenant is still registered (departed tenants keep
    /// their slot so `TenantId`s stay dense and stable).
    active: bool,
    /// Reserved bandwidth per pool slot, in kbps.
    used_kbps: Vec<u64>,
    /// Deficit-round-robin credit per pool slot, in kbps; persists
    /// across arbitrations, capped at one quantum.
    deficit_kbps: Vec<u64>,
    /// Usage integral: Σ used × time, in Mbps-hours — the per-tenant
    /// served-capacity analogue of the pool's `ProvisionedMeter`.
    served_mbps_hours: f64,
}

/// Owns the CDN on behalf of many tenant broadcasts: per-region pools,
/// meters and edge fleets live here; sessions hold [`TenantHandle`]s.
#[derive(Debug)]
pub struct CapacityBroker {
    cdn: Cdn,
    tenants: Vec<TenantState>,
    /// Which tenant holds each live lease (and in which slot, at what
    /// rate) — the map that routes releases back to the right quota
    /// account, including leases released by a foreign shard.
    lease_owner: FxHashMap<CdnLease, (usize, usize, Bandwidth)>,
    /// Virtual time up to which tenant usage integrals have accrued.
    usage_accrued_to: SimTime,
}

impl CapacityBroker {
    /// Builds a broker owning a fresh [`Cdn`] with no tenants yet.
    pub fn new(config: CdnConfig) -> Self {
        CapacityBroker {
            cdn: Cdn::new(config),
            tenants: Vec::new(),
            lease_owner: FxHashMap::default(),
            usage_accrued_to: SimTime::ZERO,
        }
    }

    /// Builds a shared (lockable) broker — the form [`TenantHandle`]s
    /// and fleets hold.
    pub fn shared(config: CdnConfig) -> Arc<Mutex<CapacityBroker>> {
        Arc::new(Mutex::new(CapacityBroker::new(config)))
    }

    /// The legacy path: one tenant owning the whole pool. Returns a
    /// handle over every slot with [`TenantQuota::FULL`]; every
    /// admission decision and error matches a bare [`Cdn`] exactly.
    pub fn single(config: CdnConfig) -> TenantHandle {
        let broker = CapacityBroker::shared(config);
        let tenant = broker
            .lock()
            .expect("fresh broker lock")
            .register(TenantQuota::FULL);
        TenantHandle::new(broker, tenant, false)
    }

    /// Registers a tenant with `quota`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the quota is malformed (floor > ceiling or ceiling >
    /// 100%) or if the active tenants' floors would sum past 100%.
    pub fn register(&mut self, quota: TenantQuota) -> TenantId {
        quota.validate();
        let committed: u32 = self
            .tenants
            .iter()
            .filter(|t| t.active)
            .map(|t| t.quota.floor_percent)
            .sum();
        assert!(
            committed + quota.floor_percent <= 100,
            "tenant floors oversubscribed: {}% committed + {}% requested",
            committed,
            quota.floor_percent
        );
        let slots = self.cdn.pool_slots();
        self.tenants.push(TenantState {
            quota,
            weight: u64::from(quota.floor_percent.max(1)),
            active: true,
            used_kbps: vec![0; slots],
            deficit_kbps: vec![0; slots],
            served_mbps_hours: 0.0,
        });
        TenantId::new((self.tenants.len() - 1) as u32)
    }

    /// Deregisters a tenant: releases every lease it still holds back
    /// to the shared pools and stops reserving its floor. Returns the
    /// number of leases released.
    pub fn depart(&mut self, tenant: TenantId) -> usize {
        let mut orphans: Vec<CdnLease> = self
            .lease_owner
            .iter()
            .filter(|(_, &(t, _, _))| t == tenant.index())
            .map(|(&lease, _)| lease)
            .collect();
        orphans.sort();
        let count = orphans.len();
        for lease in orphans {
            self.release(lease);
        }
        self.tenants[tenant.index()].active = false;
        count
    }

    /// Number of registered tenants, departed ones included.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The quota `tenant` registered with.
    pub fn quota(&self, tenant: TenantId) -> TenantQuota {
        self.tenants[tenant.index()].quota
    }

    /// Read access to the owned CDN (pools, meters, edges).
    pub fn cdn(&self) -> &Cdn {
        &self.cdn
    }

    /// Bandwidth `tenant` currently reserves in `slot`, in kbps.
    pub fn used_kbps(&self, tenant: TenantId, slot: usize) -> u64 {
        self.tenants[tenant.index()].used_kbps[slot]
    }

    /// The usage integral accrued for `tenant` so far, in Mbps-hours
    /// (see [`CapacityBroker::accrue_usage`]).
    pub fn served_mbps_hours(&self, tenant: TenantId) -> f64 {
        self.tenants[tenant.index()].served_mbps_hours
    }

    fn floor_kbps(&self, tenant: usize, slot: usize) -> u64 {
        pct_of(
            self.cdn.pool(slot).total().as_kbps(),
            self.tenants[tenant].quota.floor_percent,
        )
    }

    fn ceiling_kbps(&self, tenant: usize, slot: usize) -> u64 {
        pct_of(
            self.cdn.pool(slot).total().as_kbps(),
            self.tenants[tenant].quota.ceiling_percent,
        )
    }

    /// Bandwidth `tenant` could reserve in `slot` right now, in kbps:
    /// the tenant's unclaimed floor (always admissible) plus the
    /// *burstable* headroom — pool capacity left after every active
    /// tenant's unclaimed floor (the requester's own included, since
    /// that part is already granted through the entitlement term) is
    /// set aside — capped by the pool's physical headroom and the
    /// tenant's remaining ceiling. All of it collapses to the physical
    /// headroom for a lone [`TenantQuota::FULL`] tenant.
    pub fn tenant_available_kbps(&self, tenant: TenantId, slot: usize) -> u64 {
        let t = tenant.index();
        let avail = self.cdn.pool(slot).available().as_kbps();
        let used = self.tenants[t].used_kbps[slot];
        let ceiling_headroom = self.ceiling_kbps(t, slot).saturating_sub(used);
        let entitlement = self.floor_kbps(t, slot).saturating_sub(used);
        let reserved_floors: u64 = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(u, s)| self.floor_kbps(u, slot).saturating_sub(s.used_kbps[slot]))
            .sum();
        let burstable = avail.saturating_sub(reserved_floors);
        avail
            .min(ceiling_headroom)
            .min(entitlement.saturating_add(burstable))
    }

    /// Whether `tenant` could admit a stream of rate `bw` for a viewer
    /// in `region` under its quota.
    pub fn can_serve_in(&self, tenant: TenantId, bw: Bandwidth, region: Region) -> bool {
        let slot = self.cdn.slot_of(region);
        bw.as_kbps() <= self.tenant_available_kbps(tenant, slot)
    }

    /// Admits a stream of rate `bw` for `tenant` towards a viewer in
    /// `region`, drawing from that region's pool under the tenant's
    /// quota.
    ///
    /// # Errors
    ///
    /// Returns [`CdnRejectedError`] when the quota-constrained headroom
    /// is insufficient; `available` reports what this *tenant* could
    /// still draw (for a lone full-quota tenant, exactly the pool's
    /// headroom).
    pub fn serve(
        &mut self,
        tenant: TenantId,
        stream: StreamId,
        bw: Bandwidth,
        region: Region,
    ) -> Result<CdnLease, CdnRejectedError> {
        let slot = self.cdn.slot_of(region);
        let admissible = self.tenant_available_kbps(tenant, slot);
        if bw.as_kbps() > admissible {
            return Err(CdnRejectedError {
                requested: bw,
                available: Bandwidth::from_kbps(admissible),
            });
        }
        let lease = self.cdn.serve(stream, bw, region)?;
        self.tenants[tenant.index()].used_kbps[slot] += bw.as_kbps();
        self.lease_owner.insert(lease, (tenant.index(), slot, bw));
        Ok(lease)
    }

    /// Releases a lease, returning its bandwidth to the pool and the
    /// owning tenant's quota account — whichever tenant (or foreign
    /// shard) hands the lease back.
    ///
    /// # Panics
    ///
    /// Panics if the lease was already released.
    pub fn release(&mut self, lease: CdnLease) {
        let (tenant, slot, bw) = self
            .lease_owner
            .remove(&lease)
            .expect("release of unknown or already-released broker lease");
        self.cdn.release(lease);
        self.tenants[tenant].used_kbps[slot] -= bw.as_kbps();
    }

    /// Number of live leases held by `tenant` within `slots`.
    pub fn tenant_leases_in(&self, tenant: TenantId, slots: std::ops::Range<usize>) -> usize {
        self.lease_owner
            .values()
            .filter(|&&(t, s, _)| t == tenant.index() && slots.contains(&s))
            .count()
    }

    /// Resizes one pool slot (see [`Cdn::apply_scale_slot`]). Quota
    /// floors and ceilings are percentages of the *current* total, so
    /// they follow the elastic pool automatically.
    pub fn apply_scale_slot(
        &mut self,
        slot: usize,
        new_total: Bandwidth,
        now: SimTime,
    ) -> Bandwidth {
        self.cdn.apply_scale_slot(slot, new_total, now)
    }

    /// Accrues every tenant's usage integral up to `now`: each tenant
    /// earns `Σ_slots used` × elapsed time in Mbps-hours. Call at every
    /// fleet epoch barrier (and once at the end of a run).
    pub fn accrue_usage(&mut self, now: SimTime) {
        let dt_hours = now.saturating_since(self.usage_accrued_to).as_secs_f64() / 3_600.0;
        if dt_hours > 0.0 {
            for tenant in &mut self.tenants {
                let used_kbps: u64 = tenant.used_kbps.iter().sum();
                tenant.served_mbps_hours += used_kbps as f64 / 1_000.0 * dt_hours;
            }
        }
        self.usage_accrued_to = now;
    }

    /// Splits `slot`'s free headroom across tenants' pending retry
    /// demand by weighted deficit round-robin. `demands` pairs each
    /// tenant with its parked bandwidth (kbps); the returned budgets
    /// align with `demands` and sum to at most the slot's headroom.
    ///
    /// Deterministic: rounds visit tenants in ascending [`TenantId`]
    /// order and every quantum is integer kbps, so equal inputs always
    /// produce equal splits. Deficits persist on the tenant (capped at
    /// one quantum) so losing an arbitration raises priority in the
    /// next.
    pub fn arbitrate_retry(&mut self, slot: usize, demands: &[(TenantId, u64)]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&i| demands[i].0);

        let mut remaining = self.cdn.pool(slot).available().as_kbps();
        let mut grants = vec![0u64; demands.len()];
        // Cap each tenant's reachable demand by its quota snapshot so a
        // budget is (almost) always honoured when the session drains.
        let mut pending: Vec<u64> = demands
            .iter()
            .map(|&(t, d)| d.min(self.tenant_available_kbps(t, slot)))
            .collect();
        let mut deficit: Vec<u64> = demands
            .iter()
            .map(|&(t, _)| self.tenants[t.index()].deficit_kbps[slot])
            .collect();
        let quantum: Vec<u64> = demands
            .iter()
            .map(|&(t, _)| self.tenants[t.index()].weight * DEFICIT_QUANTUM_KBPS)
            .collect();

        while remaining > 0 && pending.iter().any(|&p| p > 0) {
            for &i in &order {
                if pending[i] == 0 {
                    continue;
                }
                deficit[i] += quantum[i];
                let give = deficit[i].min(pending[i]).min(remaining);
                deficit[i] -= give;
                pending[i] -= give;
                grants[i] += give;
                remaining -= give;
                if remaining == 0 {
                    break;
                }
            }
        }

        for (i, &(t, _)) in demands.iter().enumerate() {
            let state = &mut self.tenants[t.index()];
            // Classic DRR: a drained queue forfeits its credit; an
            // unsatisfied one carries (at most) one quantum forward.
            state.deficit_kbps[slot] = if pending[i] == 0 {
                0
            } else {
                deficit[i].min(quantum[i])
            };
        }
        grants
    }
}

/// A tenant session's view of the shared broker: mirrors the [`Cdn`]
/// API (`serve`, `release`, `pool`, `outbound`, scaling and metering
/// accessors) so `TelecastSession` calls it exactly where it used to
/// call its own `Cdn`, while every operation is admission-checked
/// against the tenant's quota.
///
/// A handle may also *window* the broker's slots (`slot_base` /
/// `slot_count`): a per-region shard of a sharded session sees only its
/// own regional slot, numbered locally from 0, which preserves the
/// single-slot semantics the shards had when each owned a private
/// global-scope `Cdn`.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    broker: Arc<Mutex<CapacityBroker>>,
    tenant: TenantId,
    slot_base: usize,
    slot_count: usize,
    fleet_managed: bool,
}

impl TenantHandle {
    /// A handle over every pool slot. `fleet_managed` marks sessions
    /// whose autoscaling and retry drain run at a fleet barrier instead
    /// of session-local autoscalers.
    pub fn new(broker: Arc<Mutex<CapacityBroker>>, tenant: TenantId, fleet_managed: bool) -> Self {
        let slot_count = broker
            .lock()
            .expect("broker lock for handle construction")
            .cdn
            .pool_slots();
        TenantHandle {
            broker,
            tenant,
            slot_base: 0,
            slot_count,
            fleet_managed,
        }
    }

    /// A single-slot window for a per-region shard: the shard sees the
    /// broker's `slot_base` pool as its local slot 0.
    pub fn window(broker: Arc<Mutex<CapacityBroker>>, tenant: TenantId, slot_base: usize) -> Self {
        TenantHandle {
            broker,
            tenant,
            slot_base,
            slot_count: 1,
            fleet_managed: false,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CapacityBroker> {
        self.broker.lock().expect("capacity broker lock poisoned")
    }

    /// The shared broker behind this handle.
    pub fn broker(&self) -> Arc<Mutex<CapacityBroker>> {
        Arc::clone(&self.broker)
    }

    /// This handle's tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Whether a fleet barrier (not session-local autoscalers) manages
    /// this tenant's scaling and retry drain.
    pub fn fleet_managed(&self) -> bool {
        self.fleet_managed
    }

    /// Number of pool slots visible through this handle.
    pub fn pool_slots(&self) -> usize {
        self.slot_count
    }

    /// The local slot serving `region`. A single-slot window maps every
    /// region to 0 — the global-scope semantics its shard session
    /// expects.
    pub fn slot_of(&self, region: Region) -> usize {
        let global = self.lock().cdn.slot_of(region);
        global
            .saturating_sub(self.slot_base)
            .min(self.slot_count - 1)
    }

    /// The region a local slot serves, or `None` for a global pool or a
    /// windowed handle (whose shard treats its slot as a global pool).
    pub fn slot_region(&self, slot: usize) -> Option<Region> {
        let broker = self.lock();
        if self.slot_count == broker.cdn.pool_slots() {
            broker.cdn.slot_region(slot)
        } else {
            None
        }
    }

    /// The capacity account of one visible pool slot, by value.
    pub fn pool(&self, slot: usize) -> CapacityAccount {
        *self.lock().cdn.pool(self.slot_base + slot)
    }

    /// The visible pool slots viewed as one aggregate account.
    pub fn outbound(&self) -> CapacityAccount {
        let broker = self.lock();
        let slots = self.slot_base..self.slot_base + self.slot_count;
        let total = slots.clone().map(|s| broker.cdn.pool(s).total()).sum();
        let used = slots.map(|s| broker.cdn.pool(s).used()).sum();
        let mut agg = CapacityAccount::new(total);
        agg.reserve(used)
            .expect("per-slot used never exceeds total");
        agg
    }

    /// Bandwidth reserved in the visible pool slots: the `used()` of
    /// [`TenantHandle::outbound`], summed in one locked pass without
    /// building the aggregate account.
    pub fn used(&self) -> Bandwidth {
        let broker = self.lock();
        (self.slot_base..self.slot_base + self.slot_count)
            .map(|s| broker.cdn.pool(s).used())
            .sum()
    }

    /// Whether this tenant could admit a stream of rate `bw` for a
    /// viewer in `region` (see [`CapacityBroker::can_serve_in`]).
    pub fn can_serve_in(&self, bw: Bandwidth, region: Region) -> bool {
        self.lock().can_serve_in(self.tenant, bw, region)
    }

    /// Admits a stream for this tenant (see [`CapacityBroker::serve`]).
    ///
    /// # Errors
    ///
    /// Returns [`CdnRejectedError`] when the tenant's quota-constrained
    /// headroom in the region's pool is insufficient.
    pub fn serve(
        &self,
        stream: StreamId,
        bw: Bandwidth,
        region: Region,
    ) -> Result<CdnLease, CdnRejectedError> {
        self.lock().serve(self.tenant, stream, bw, region)
    }

    /// Releases a lease (see [`CapacityBroker::release`]).
    pub fn release(&self, lease: CdnLease) {
        self.lock().release(lease);
    }

    /// Live leases this tenant holds in the visible slots.
    pub fn active_leases(&self) -> usize {
        self.lock().tenant_leases_in(
            self.tenant,
            self.slot_base..self.slot_base + self.slot_count,
        )
    }

    /// Resizes one visible pool slot (see [`Cdn::apply_scale_slot`]).
    pub fn apply_scale_slot(&self, slot: usize, new_total: Bandwidth, now: SimTime) -> Bandwidth {
        self.lock()
            .apply_scale_slot(self.slot_base + slot, new_total, now)
    }

    /// The provisioned meter of the first visible slot, by value.
    pub fn provisioned_meter(&self) -> ProvisionedMeter {
        *self.lock().cdn.provisioned_meter_of(self.slot_base)
    }

    /// The provisioned meter of one visible slot, by value.
    pub fn provisioned_meter_of(&self, slot: usize) -> ProvisionedMeter {
        *self.lock().cdn.provisioned_meter_of(self.slot_base + slot)
    }

    /// Provisioned Mbps-hours up to `now`, summed over visible slots.
    pub fn provisioned_mbps_hours_at(&self, now: SimTime) -> f64 {
        let broker = self.lock();
        (self.slot_base..self.slot_base + self.slot_count)
            .map(|s| broker.cdn.provisioned_meter_of(s).mbps_hours_at(now))
            .sum()
    }

    /// Provisioned dollars up to `now`, summed over visible slots.
    pub fn provisioned_dollars_at(&self, now: SimTime) -> f64 {
        let broker = self.lock();
        (self.slot_base..self.slot_base + self.slot_count)
            .map(|s| broker.cdn.provisioned_meter_of(s).dollars_at(now))
            .sum()
    }

    /// This tenant's usage integral in Mbps-hours (see
    /// [`CapacityBroker::accrue_usage`]).
    pub fn served_mbps_hours(&self) -> f64 {
        self.lock().served_mbps_hours(self.tenant)
    }

    /// The producer→viewer delivery delay `Δ`.
    pub fn delta(&self) -> SimDuration {
        self.lock().cdn.delta()
    }

    /// The broker CDN's configuration, by value.
    pub fn config(&self) -> CdnConfig {
        *self.lock().cdn.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolScope;
    use telecast_media::SiteId;

    fn stream(camera: u16) -> StreamId {
        StreamId::new(SiteId::new(0), camera)
    }

    fn per_region_config(mbps: u64) -> CdnConfig {
        CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(mbps))
            .with_pool_scope(PoolScope::PerRegion)
    }

    /// The byte-identity keystone: a lone FULL-quota tenant behaves
    /// exactly like a bare `Cdn` across serve/reject/release/scale —
    /// same admissions, same error fields, same pool arithmetic.
    #[test]
    fn single_full_tenant_matches_bare_cdn() {
        let config = per_region_config(100);
        let mut bare = Cdn::new(config);
        let handle = CapacityBroker::single(config);

        let mut bare_leases = Vec::new();
        let mut broker_leases = Vec::new();
        // Fill Oceania (5% = 5 Mbps) past the brim, then scale, release,
        // and refill — the legacy session's life cycle.
        for i in 0..4u16 {
            let bw = Bandwidth::from_mbps(2);
            let a = bare.serve(stream(i), bw, Region::Oceania);
            let b = handle.serve(stream(i), bw, Region::Oceania);
            match (a, b) {
                (Ok(la), Ok(lb)) => {
                    bare_leases.push(la);
                    broker_leases.push(lb);
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea.requested, eb.requested);
                    assert_eq!(ea.available, eb.available);
                }
                (a, b) => panic!("admission diverged: bare {a:?} vs broker {b:?}"),
            }
        }
        assert_eq!(bare.outbound().used(), handle.outbound().used());
        assert_eq!(bare.active_leases(), handle.active_leases());

        let now = SimTime::from_secs(30);
        let slot = bare.slot_of(Region::Oceania);
        let a = bare.apply_scale_slot(slot, Bandwidth::from_mbps(20), now);
        let b = handle.apply_scale_slot(slot, Bandwidth::from_mbps(20), now);
        assert_eq!(a, b);
        assert_eq!(
            bare.can_serve_in(Bandwidth::from_mbps(2), Region::Oceania),
            handle.can_serve_in(Bandwidth::from_mbps(2), Region::Oceania)
        );

        bare.release(bare_leases.pop().unwrap());
        handle.release(broker_leases.pop().unwrap());
        assert_eq!(bare.outbound().used(), handle.outbound().used());
        assert_eq!(bare.pool(slot).available(), handle.pool(slot).available());
    }

    #[test]
    fn full_quota_survives_unbounded_pool() {
        // pct_of must not overflow on the u64::MAX/2 unbounded pool.
        let handle = CapacityBroker::single(CdnConfig::unbounded());
        assert!(handle.can_serve_in(Bandwidth::from_mbps(1_000_000), Region::Asia));
        handle
            .serve(stream(0), Bandwidth::from_mbps(2), Region::Asia)
            .expect("unbounded admits");
    }

    #[test]
    fn ceiling_caps_a_tenant_even_with_free_pool() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let (a, _b) = {
            let mut guard = broker.lock().unwrap();
            (
                guard.register(TenantQuota {
                    floor_percent: 20,
                    ceiling_percent: 40,
                }),
                guard.register(TenantQuota {
                    floor_percent: 20,
                    ceiling_percent: 100,
                }),
            )
        };
        let ha = TenantHandle::new(Arc::clone(&broker), a, true);
        // Europe holds 30% of 1000 = 300 Mbps; A's ceiling is 40% = 120.
        for i in 0..6u16 {
            ha.serve(stream(i), Bandwidth::from_mbps(20), Region::Europe)
                .expect("inside ceiling");
        }
        let err = ha
            .serve(stream(6), Bandwidth::from_mbps(20), Region::Europe)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::ZERO);
        assert!(!ha.can_serve_in(Bandwidth::from_mbps(1), Region::Europe));
        // The pool itself still has 180 Mbps free.
        assert_eq!(
            broker
                .lock()
                .unwrap()
                .cdn()
                .pool(Region::Europe.index())
                .available(),
            Bandwidth::from_mbps(180)
        );
    }

    #[test]
    fn floors_are_protected_from_bursting_neighbours() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let (a, b) = {
            let mut guard = broker.lock().unwrap();
            (
                guard.register(TenantQuota {
                    floor_percent: 30,
                    ceiling_percent: 100,
                }),
                guard.register(TenantQuota {
                    floor_percent: 50,
                    ceiling_percent: 100,
                }),
            )
        };
        let ha = TenantHandle::new(Arc::clone(&broker), a, true);
        let hb = TenantHandle::new(Arc::clone(&broker), b, true);
        // Europe pool: 300 Mbps. A's floor is 90, B's floor reserves
        // 150, so the burstable slack is 60: A may take 90 + 60 = 150.
        let err = ha
            .serve(stream(0), Bandwidth::from_mbps(200), Region::Europe)
            .unwrap_err();
        assert_eq!(err.available, Bandwidth::from_mbps(150));
        ha.serve(stream(0), Bandwidth::from_mbps(150), Region::Europe)
            .expect("entitlement plus burstable slack");
        // B can still claim its whole floor.
        hb.serve(stream(1), Bandwidth::from_mbps(150), Region::Europe)
            .expect("floor is guaranteed");
        assert!(!ha.can_serve_in(Bandwidth::from_mbps(1), Region::Europe));
    }

    #[test]
    fn departure_returns_leases_to_the_pool() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let (a, b) = {
            let mut guard = broker.lock().unwrap();
            (
                guard.register(TenantQuota::even_split(2, 2)),
                guard.register(TenantQuota::even_split(2, 2)),
            )
        };
        let ha = TenantHandle::new(Arc::clone(&broker), a, true);
        let hb = TenantHandle::new(Arc::clone(&broker), b, true);
        for i in 0..5u16 {
            ha.serve(stream(i), Bandwidth::from_mbps(20), Region::Europe)
                .expect("fits");
        }
        assert_eq!(ha.active_leases(), 5);
        let released = broker.lock().unwrap().depart(a);
        assert_eq!(released, 5);
        let guard = broker.lock().unwrap();
        assert!(guard.cdn().pool(Region::Europe.index()).used().is_zero());
        assert_eq!(guard.used_kbps(a, Region::Europe.index()), 0);
        drop(guard);
        // B no longer competes with A's floor: the whole 300 Mbps pool
        // is admissible (B's ceiling is 100% of its even_split? no —
        // even_split(2,2) caps at 100/2*2 = 100%).
        assert!(hb.can_serve_in(Bandwidth::from_mbps(300), Region::Europe));
    }

    #[test]
    fn conservation_under_mixed_traffic() {
        let broker = CapacityBroker::shared(per_region_config(500));
        let tenants: Vec<TenantId> = {
            let mut guard = broker.lock().unwrap();
            (0..4)
                .map(|_| guard.register(TenantQuota::even_split(4, 3)))
                .collect()
        };
        let handles: Vec<TenantHandle> = tenants
            .iter()
            .map(|&t| TenantHandle::new(Arc::clone(&broker), t, true))
            .collect();
        let mut leases = Vec::new();
        for round in 0..20u16 {
            for (i, h) in handles.iter().enumerate() {
                let region = Region::ALL[(round as usize + i) % Region::ALL.len()];
                if let Ok(l) = h.serve(stream(round), Bandwidth::from_mbps(3), region) {
                    leases.push((i, l));
                }
            }
            if round % 3 == 0 && !leases.is_empty() {
                let (i, l) = leases.remove(0);
                handles[i].release(l);
            }
        }
        let guard = broker.lock().unwrap();
        for slot in 0..guard.cdn().pool_slots() {
            let summed: u64 = tenants.iter().map(|&t| guard.used_kbps(t, slot)).sum();
            assert_eq!(summed, guard.cdn().pool(slot).used().as_kbps());
            assert!(summed <= guard.cdn().pool(slot).total().as_kbps());
            for &t in &tenants {
                assert!(
                    guard.used_kbps(t, slot)
                        <= pct_of(
                            guard.cdn().pool(slot).total().as_kbps(),
                            guard.quota(t).ceiling_percent
                        )
                );
            }
        }
    }

    #[test]
    fn arbitration_splits_by_weight_deterministically() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let (a, b) = {
            let mut guard = broker.lock().unwrap();
            (
                guard.register(TenantQuota {
                    floor_percent: 40,
                    ceiling_percent: 100,
                }),
                guard.register(TenantQuota {
                    floor_percent: 20,
                    ceiling_percent: 100,
                }),
            )
        };
        let mut guard = broker.lock().unwrap();
        let slot = Region::Europe.index(); // 300 Mbps free
                                           // Demand far exceeding supply: grants follow the 2:1 weights.
        let grants = guard.arbitrate_retry(slot, &[(a, 400_000), (b, 400_000)]);
        assert_eq!(grants.iter().sum::<u64>(), 300_000);
        assert_eq!(grants[0], 200_000);
        assert_eq!(grants[1], 100_000);
        // Determinism: same demands on a fresh broker → same split.
        let broker2 = CapacityBroker::shared(per_region_config(1_000));
        let (a2, b2) = {
            let mut g = broker2.lock().unwrap();
            (
                g.register(TenantQuota {
                    floor_percent: 40,
                    ceiling_percent: 100,
                }),
                g.register(TenantQuota {
                    floor_percent: 20,
                    ceiling_percent: 100,
                }),
            )
        };
        let grants2 = broker2
            .lock()
            .unwrap()
            .arbitrate_retry(slot, &[(a2, 400_000), (b2, 400_000)]);
        assert_eq!(grants, grants2);
    }

    #[test]
    fn arbitration_satisfies_small_demands_exactly() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let (a, b) = {
            let mut guard = broker.lock().unwrap();
            (
                guard.register(TenantQuota::even_split(2, 2)),
                guard.register(TenantQuota::even_split(2, 2)),
            )
        };
        let mut guard = broker.lock().unwrap();
        let grants = guard.arbitrate_retry(Region::Europe.index(), &[(a, 12_000), (b, 24_000)]);
        assert_eq!(grants, vec![12_000, 24_000]);
        // No demand → no grant.
        let grants = guard.arbitrate_retry(Region::Europe.index(), &[(a, 0), (b, 0)]);
        assert_eq!(grants, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn oversubscribed_floors_are_rejected() {
        let mut broker = CapacityBroker::new(per_region_config(1_000));
        broker.register(TenantQuota {
            floor_percent: 60,
            ceiling_percent: 100,
        });
        broker.register(TenantQuota {
            floor_percent: 50,
            ceiling_percent: 100,
        });
    }

    #[test]
    fn usage_integral_accrues_per_tenant() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let a = broker.lock().unwrap().register(TenantQuota::FULL);
        let ha = TenantHandle::new(Arc::clone(&broker), a, true);
        ha.serve(stream(0), Bandwidth::from_mbps(100), Region::Europe)
            .expect("fits");
        broker
            .lock()
            .unwrap()
            .accrue_usage(SimTime::from_secs(1_800));
        // 100 Mbps for half an hour = 50 Mbps-hours.
        assert!((ha.served_mbps_hours() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_handle_sees_one_slot_as_global() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let t = broker.lock().unwrap().register(TenantQuota::FULL);
        let eu = TenantHandle::window(Arc::clone(&broker), t, Region::Europe.index());
        assert_eq!(eu.pool_slots(), 1);
        assert_eq!(eu.slot_of(Region::Europe), 0);
        assert_eq!(eu.slot_of(Region::Oceania), 0);
        assert_eq!(eu.slot_region(0), None);
        assert_eq!(eu.outbound().total(), Bandwidth::from_mbps(300));
        eu.serve(stream(0), Bandwidth::from_mbps(10), Region::Europe)
            .expect("fits");
        assert_eq!(eu.pool(0).used(), Bandwidth::from_mbps(10));
        assert_eq!(eu.active_leases(), 1);
        // A sibling window over another slot sees none of it.
        let asia = TenantHandle::window(Arc::clone(&broker), t, Region::Asia.index());
        assert_eq!(asia.active_leases(), 0);
        assert!(asia.pool(0).used().is_zero());
    }

    #[test]
    fn used_matches_the_aggregate_account() {
        let broker = CapacityBroker::shared(per_region_config(1_000));
        let half = TenantQuota {
            floor_percent: 50,
            ceiling_percent: 100,
        };
        let a = broker.lock().unwrap().register(half);
        let b = broker.lock().unwrap().register(half);
        let ha = TenantHandle::new(Arc::clone(&broker), a, true);
        let hb = TenantHandle::new(Arc::clone(&broker), b, true);
        let eu = TenantHandle::window(Arc::clone(&broker), a, Region::Europe.index());
        assert!(ha.used().is_zero());
        ha.serve(stream(0), Bandwidth::from_mbps(10), Region::Europe)
            .expect("fits");
        hb.serve(stream(1), Bandwidth::from_mbps(7), Region::Asia)
            .expect("fits");
        // Pool usage, like `outbound()`: every tenant's reservations count.
        for handle in [&ha, &hb, &eu] {
            assert_eq!(handle.used(), handle.outbound().used());
        }
        assert_eq!(ha.used(), Bandwidth::from_mbps(17));
        assert_eq!(eu.used(), Bandwidth::from_mbps(10));
    }
}
