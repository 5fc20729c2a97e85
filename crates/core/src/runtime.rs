//! The epoch runtime: N [`TelecastSession`] members over one shared
//! [`CapacityBroker`], advanced in lock-step time epochs with one
//! barrier. Two constructors build it, and nothing else tells them
//! apart: [`ShardedSession::new`](crate::ShardedSession) splits one
//! broadcast into five per-region shards on `threads` workers, and
//! [`TenantFleet::new`](crate::TenantFleet) plus `add_tenant` run M
//! tenant broadcasts on one thread.
//!
//! Every epoch each member advances its own event loop to the boundary
//! through [`WorkerPool::run_epoch`]. Then the barrier runs four steps
//! in a fixed order, each a no-op when its input is empty:
//!
//! 1. Drain every member's outbox, k-way merge the entries in
//!    `(time, member, seq)` order and apply them: CDN spill requests and
//!    foreign lease releases. Only shards emit them.
//! 2. Tick one shared [`Autoscaler`] per broker pool slot on the fresh
//!    arrival demand summed across members and their viewer-weighted
//!    phase ratio, so one bursting broadcast raises the shared forecast
//!    instead of surprising its neighbours. Only a fleet configured
//!    with autoscaling has shared controllers; shards scale their own.
//! 3. Accrue per-tenant served Mbps-hours on the broker.
//! 4. Split each pool's retry headroom over the *fleet-managed* members
//!    with parked CDN-rejected joins ([`CapacityBroker::arbitrate_retry`])
//!    and let each drain its budget. Only tenants are fleet-managed.
//!
//! Results land by member index and the barrier reads members in index
//! order, so no thread id reaches the output. Shards own disjoint pool
//! slots, so `threads` cannot change a sharded run. Tenants share every
//! slot, so their order within an epoch is part of the replay: the
//! fleet runs on one thread, where the pool runs members in ascending
//! index order. Wall-clock figures (`busy_ns`, `barrier_wait_ns`) never
//! feed back into simulation state.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use telecast_cdn::{Autoscaler, CapacityBroker, ProvisionedMeter, TenantId};
use telecast_sim::{
    merge_outboxes_into, EpochSchedule, OutboxEntry, SimDuration, SimTime, WorkerPool,
};

use crate::metrics::SessionMetrics;
use crate::session::TelecastSession;
use crate::shard::ShardMessage;

/// Per-member observability, in member order.
///
/// `viewers`, `events_processed`, `cross_shard_messages` and
/// `peak_event_queue` are deterministic per seed; `busy_ns` and
/// `barrier_wait_ns` are wall-clock and vary run to run — keep them out
/// of any byte-compared artifact.
#[derive(Debug, Clone, Default)]
pub struct MemberStats {
    /// Viewers provisioned on this member.
    pub viewers: usize,
    /// Events this member's engine has fired.
    pub events_processed: u64,
    /// Cross-member messages this member emitted.
    pub cross_shard_messages: u64,
    /// Wall-clock nanoseconds this member spent executing epochs.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds this member idled at barriers waiting for
    /// the slowest member of each epoch.
    pub barrier_wait_ns: u64,
    /// Deepest this member's event heap has ever been.
    pub peak_event_queue: u64,
}

impl MemberStats {
    /// Fraction of the runtime's epoch wall-clock this member spent
    /// executing rather than idling at barriers:
    /// `busy / (busy + barrier wait)`. Wall-clock observability only —
    /// varies run to run. `0.0` before the first epoch.
    pub fn utilization(&self) -> f64 {
        let wall = self.busy_ns + self.barrier_wait_ns;
        if wall == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// N sessions over one broker, advanced in lock-step epochs with one
/// barrier (see the module docs). `K` is a marker naming the
/// constructor side: [`crate::ShardedSession`] or [`crate::TenantFleet`].
pub struct EpochRuntime<K> {
    pub(crate) members: Vec<TelecastSession>,
    pub(crate) broker: Arc<Mutex<CapacityBroker>>,
    /// Persistent worker pool over `members`. Results land by member
    /// index, never by worker identity.
    pool: WorkerPool<TelecastSession, SimTime>,
    threads: usize,
    pub(crate) stats: Vec<MemberStats>,
    /// One shared controller per broker pool slot (empty: the members
    /// scale their own pools, or the pools are static).
    autoscalers: Vec<Autoscaler>,
    /// Matured forecast errors of the shared controllers (at,
    /// forecast − realised Mbps).
    forecast_errors: Vec<(SimTime, f64)>,
    epoch: SimDuration,
    pub(crate) now: SimTime,
    pub(crate) spill_denied: u64,
    /// Reused per-member outbox drain buffers ([`telecast_sim::Outbox::take_into`]
    /// swaps allocations, so steady-state epochs drain without
    /// allocating).
    drain_bufs: Vec<Vec<OutboxEntry<ShardMessage>>>,
    /// Reused k-way merge output buffer.
    merge_buf: Vec<OutboxEntry<ShardMessage>>,
    kind: PhantomData<K>,
}

/// The worker-pool job: advance one member to the epoch boundary.
fn advance(_: usize, member: &mut TelecastSession, end: &SimTime) {
    member.run_until(*end);
}

impl<K> EpochRuntime<K> {
    /// Assembles a runtime over `members` (possibly none yet) on
    /// `threads` workers with barrier period `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `epoch` is zero.
    pub(crate) fn assemble(
        members: Vec<TelecastSession>,
        broker: Arc<Mutex<CapacityBroker>>,
        autoscalers: Vec<Autoscaler>,
        threads: usize,
        epoch: SimDuration,
    ) -> Self {
        assert!(threads > 0, "epoch runtime needs at least one thread");
        assert!(!epoch.is_zero(), "epoch must be positive");
        let mut runtime = EpochRuntime {
            members: Vec::new(),
            broker,
            pool: WorkerPool::new(members.len(), threads, advance),
            threads,
            stats: Vec::new(),
            autoscalers,
            forecast_errors: Vec::new(),
            epoch,
            now: SimTime::ZERO,
            spill_denied: 0,
            drain_bufs: Vec::new(),
            merge_buf: Vec::new(),
            kind: PhantomData,
        };
        for member in members {
            runtime.attach(member);
        }
        runtime
    }

    /// Adds one member and rebuilds the pool over the new member count.
    pub(crate) fn push_member(&mut self, member: TelecastSession) -> usize {
        self.attach(member);
        self.pool = WorkerPool::new(self.members.len(), self.threads, advance);
        self.members.len() - 1
    }

    fn attach(&mut self, member: TelecastSession) {
        self.stats.push(MemberStats {
            viewers: member.viewer_ids().len(),
            ..MemberStats::default()
        });
        self.drain_bufs.push(Vec::new());
        self.members.push(member);
    }

    /// Advances every member to `deadline` in bounded epochs, running the
    /// barrier at every epoch boundary.
    pub fn run_until(&mut self, deadline: SimTime) {
        for epoch_end in EpochSchedule::new(self.now, deadline, self.epoch) {
            self.pool.run_epoch(&mut self.members, epoch_end);
            let busy = self.pool.last_busy_ns();
            let slowest = busy.iter().copied().max().unwrap_or(0);
            for (stats, &busy_ns) in self.stats.iter_mut().zip(busy) {
                stats.busy_ns += busy_ns;
                stats.barrier_wait_ns += slowest - busy_ns;
            }
            self.now = epoch_end;
            self.barrier(epoch_end);
        }
        self.now = self.now.max(deadline);
    }

    /// The barrier: the four steps of the module docs, in order.
    fn barrier(&mut self, now: SimTime) {
        self.apply_outboxes();
        self.tick_shared_autoscalers(now);
        self.broker.lock().expect("broker lock").accrue_usage(now);
        self.arbitrate_retries();
        for (stats, member) in self.stats.iter_mut().zip(&self.members) {
            stats.events_processed = member.events_processed();
            stats.peak_event_queue = member.metrics().peak_event_queue;
        }
    }

    /// Step 1: drain, merge in `(time, member, seq)` order and apply.
    fn apply_outboxes(&mut self) {
        for (member, buf) in self.members.iter_mut().zip(self.drain_bufs.iter_mut()) {
            member.shard_take_outbox_into(buf);
        }
        let mut merged = std::mem::take(&mut self.merge_buf);
        merge_outboxes_into(&mut self.drain_bufs, &mut merged);
        for entry in merged.drain(..) {
            self.stats[entry.from].cross_shard_messages += 1;
            self.apply(entry);
        }
        self.merge_buf = merged;
    }

    /// Applies one merged cross-member effect.
    fn apply(&mut self, entry: OutboxEntry<ShardMessage>) {
        match entry.msg {
            ShardMessage::SpillRequest {
                viewer,
                view,
                demand_kbps,
            } => {
                let from = entry.from;
                // Donor: the foreign pool with the most headroom that
                // can take the whole view; ties break on the lower
                // member index to stay deterministic.
                let donor = (0..self.members.len())
                    .filter(|&j| j != from)
                    .map(|j| (self.members[j].shard_headroom_kbps(), j))
                    .filter(|&(headroom, _)| headroom >= demand_kbps)
                    .max_by_key(|&(headroom, j)| (headroom, std::cmp::Reverse(j)))
                    .map(|(_, j)| j);
                // A grant can still fail with the headroom there (e.g.
                // per-stream packing); that counts as denied too.
                let granted =
                    donor.and_then(|d| self.members[d].shard_grant_view(view).map(|l| (d, l)));
                let Some((donor, leases)) = granted else {
                    self.spill_denied += 1;
                    self.members[from].shard_spill_denied(viewer);
                    return;
                };
                if let Err(leases) =
                    self.members[from].shard_apply_spill_grant(viewer, view, donor, leases)
                {
                    // The viewer moved on since the request (dwell
                    // expiry, re-join); hand the leases straight back.
                    self.members[donor].shard_release_leases(leases);
                }
            }
            ShardMessage::ReleaseForeign { donor, leases } => {
                self.members[donor].shard_release_leases(leases);
            }
        }
    }

    /// Step 2: one shared controller per pool slot, fed the summed fresh
    /// demand and the fleet-wide phase ratio.
    fn tick_shared_autoscalers(&mut self, now: SimTime) {
        // The viewer-weighted mean of every member's forecast ratio: a
        // large bursting broadcast moves the shared forecast more than a
        // small steady one.
        let horizon = self
            .autoscalers
            .first()
            .and_then(Autoscaler::predictive_policy)
            .map(|pred| pred.horizon);
        let (mut num, mut den) = (0.0, 0.0);
        if let Some(horizon) = horizon {
            for member in &self.members {
                if let Some(ratio) = member.phase_ratio(now, horizon, self.epoch * 2) {
                    let weight = (member.connected_viewers() as f64).max(1.0);
                    num += ratio * weight;
                    den += weight;
                }
            }
        }
        let phase_ratio = if den > 0.0 { num / den } else { 1.0 };
        let mut broker = self.broker.lock().expect("broker lock");
        for (slot, scaler) in self.autoscalers.iter_mut().enumerate() {
            let fresh_kbps = self
                .members
                .iter_mut()
                .map(|member| member.fleet_take_arrival_demand(slot))
                .sum();
            let errors = &mut self.forecast_errors;
            let decision = scaler.tick(
                now,
                broker.cdn().pool(slot),
                fresh_kbps,
                self.epoch,
                phase_ratio,
                |error| errors.push((now, error)),
            );
            if let Some(decision) = decision {
                broker.apply_scale_slot(slot, decision.to, now);
            }
        }
    }

    /// Step 4: deficit-fair retry draining over the fleet-managed
    /// members with parked joins.
    fn arbitrate_retries(&mut self) {
        // Each fleet-managed member's parked demand per slot, replaced
        // slot by slot with the budget the arbitration grants it.
        let mut budgets: Vec<(usize, Vec<u64>)> = (0..self.members.len())
            .filter(|&i| self.members[i].cdn().fleet_managed())
            .map(|i| (i, self.members[i].fleet_pending_retry_kbps()))
            .collect();
        let slots = self.broker.lock().expect("broker lock").cdn().pool_slots();
        for slot in 0..slots {
            let (cells, demands): (Vec<&mut u64>, Vec<(TenantId, u64)>) = budgets
                .iter_mut()
                .filter_map(|(i, pending)| {
                    let cell = pending.get_mut(slot)?;
                    let kbps = std::mem::take(cell);
                    (kbps > 0).then(|| (cell, (self.members[*i].cdn().tenant(), kbps)))
                })
                .unzip();
            if demands.is_empty() {
                continue;
            }
            let grants = self
                .broker
                .lock()
                .expect("broker lock")
                .arbitrate_retry(slot, &demands);
            for (cell, grant) in cells.into_iter().zip(grants) {
                *cell = grant;
            }
        }
        for (i, budget) in &budgets {
            self.members[*i].fleet_drain_retries(budget);
        }
    }

    /// Every member's metrics merged into one [`SessionMetrics`] in
    /// member order (see [`SessionMetrics::merge`]).
    pub fn merged_metrics(&self) -> SessionMetrics {
        let mut merged = SessionMetrics::new();
        for member in &self.members {
            merged.merge(member.metrics());
        }
        merged
    }

    /// Current virtual time (every member's clock equals this at a
    /// barrier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The barrier period.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// Worker threads the members are mapped onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Per-member observability, in member order.
    pub fn stats(&self) -> &[MemberStats] {
        &self.stats
    }

    /// Connected viewers across every member.
    pub fn connected_viewers(&self) -> usize {
        self.members.iter().map(|m| m.connected_viewers()).sum()
    }

    /// The shared broker.
    pub fn broker(&self) -> Arc<Mutex<CapacityBroker>> {
        Arc::clone(&self.broker)
    }

    /// Shared-controller scale-ups applied so far.
    pub fn autoscale_ups(&self) -> u64 {
        self.autoscalers.iter().map(Autoscaler::scale_ups).sum()
    }

    /// Shared-controller scale-downs applied so far.
    pub fn autoscale_downs(&self) -> u64 {
        self.autoscalers.iter().map(Autoscaler::scale_downs).sum()
    }

    /// Matured forecast errors (at, forecast − realised Mbps) of the
    /// shared predictive controllers, in maturity order. A member's own
    /// controllers score into its metrics instead.
    pub fn forecast_errors(&self) -> &[(SimTime, f64)] {
        &self.forecast_errors
    }

    /// Mean absolute error of the shared controllers' matured forecasts,
    /// in Mbps; `None` with none matured (reactive, static, or no shared
    /// controllers).
    pub fn mean_abs_forecast_error_mbps(&self) -> Option<f64> {
        if self.forecast_errors.is_empty() {
            return None;
        }
        let sum: f64 = self.forecast_errors.iter().map(|&(_, e)| e.abs()).sum();
        Some(sum / self.forecast_errors.len() as f64)
    }

    /// Provisioned Mbps-hours billed across every broker pool up to `at`
    /// (capacity is shared, so there is no per-member provisioned bill;
    /// per-tenant *served* usage is [`EpochRuntime::served_mbps_hours`]).
    pub fn provisioned_mbps_hours_at(&self, at: SimTime) -> f64 {
        self.provisioned(|meter| meter.mbps_hours_at(at))
    }

    /// The provisioned bill in dollars at the committed rate.
    pub fn provisioned_dollars_at(&self, at: SimTime) -> f64 {
        self.provisioned(|meter| meter.dollars_at(at))
    }

    fn provisioned(&self, bill: impl Fn(&ProvisionedMeter) -> f64) -> f64 {
        let broker = self.broker.lock().expect("broker lock");
        let cdn = broker.cdn();
        (0..cdn.pool_slots())
            .map(|slot| bill(cdn.provisioned_meter_of(slot)))
            .sum()
    }

    /// Mbps-hours of CDN capacity served to member `index`'s broker
    /// tenant, as accrued at the barriers (every shard bills to one
    /// tenant; each fleet tenant to its own).
    pub fn served_mbps_hours(&self, index: usize) -> f64 {
        self.broker
            .lock()
            .expect("broker lock")
            .served_mbps_hours(self.members[index].cdn().tenant())
    }
}
