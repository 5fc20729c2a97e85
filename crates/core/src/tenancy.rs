//! Multi-tenant coordination: M concurrent broadcasts sharing one
//! [`CapacityBroker`]'s regional pools.
//!
//! A [`TenantFleet`] owns the broker and one [`TelecastSession`] per
//! tenant broadcast. Each session is *fleet-managed*: it runs no
//! autoscalers of its own and never drains its retry queues
//! unilaterally — the fleet advances every tenant in lock-step epochs
//! and, at each barrier,
//!
//! 1. aggregates the fresh arrival demand every tenant accumulated per
//!    pool slot (the predictive controller's inflow signal is the
//!    *sum* across tenants — one bursting broadcast raises the shared
//!    forecast instead of surprising its neighbours),
//! 2. steps one shared [`Autoscaler`] per regional pool against the
//!    broker's pool accounts — [`Autoscaler::tick`], the control step
//!    a standalone session runs on its own `AutoscaleTick` — records
//!    the matured forecast errors and applies the resulting resizes,
//! 3. accrues per-tenant served-Mbps-hours metering, and
//! 4. splits each pool's retry headroom *fairly* across the tenants
//!    with parked CDN-rejected joins, by the broker's deficit-weighted
//!    arbitration ([`CapacityBroker::arbitrate_retry`]), then hands
//!    each session its arbitrated budget to drain against.
//!
//! Sessions advance sequentially in tenant order inside every epoch, so
//! a fleet run is a pure function of its seeds: equal configurations
//! replay identically regardless of host or repetition.

use std::sync::{Arc, Mutex};

use telecast_cdn::{Autoscaler, CapacityBroker, TenantHandle, TenantId, TenantQuota};
use telecast_sim::{EpochSchedule, SimDuration, SimTime};

use crate::config::SessionConfig;
use crate::session::TelecastSession;

/// Coordinator for M tenant broadcasts sharing one broker's pools.
pub struct TenantFleet {
    broker: Arc<Mutex<CapacityBroker>>,
    sessions: Vec<TelecastSession>,
    tenant_ids: Vec<TenantId>,
    /// One shared controller per broker pool slot (empty = static pools).
    autoscalers: Vec<Autoscaler>,
    /// Matured forecast errors (at, forecast − realised Mbps).
    forecast_errors: Vec<(SimTime, f64)>,
    epoch: SimDuration,
    now: SimTime,
}

impl TenantFleet {
    /// Builds an empty fleet. `fleet_config` supplies the shared pieces:
    /// its `cdn` becomes the broker's pool layout and its
    /// `autoscale`/`predictive` the shared per-slot controllers. The
    /// barrier runs every `epoch` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(fleet_config: &SessionConfig, epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "fleet epoch must be positive");
        let broker = CapacityBroker::shared(fleet_config.cdn);
        let pool_slots = broker.lock().expect("fresh broker").cdn().pool_slots();
        let autoscalers = Autoscaler::per_slot(
            fleet_config.autoscale,
            fleet_config.predictive,
            fleet_config.cdn.pool_scope,
            pool_slots,
        );
        TenantFleet {
            broker,
            sessions: Vec::new(),
            tenant_ids: Vec::new(),
            autoscalers,
            forecast_errors: Vec::new(),
            epoch,
            now: SimTime::ZERO,
        }
    }

    /// Registers one tenant broadcast: a quota on the shared pools and a
    /// session provisioned with `gateways` viewers. The tenant's own
    /// `autoscale`/`predictive` settings are stripped — pool scaling is
    /// the fleet's job, and a private controller would fight it.
    /// Returns the tenant's index (also its order at every barrier).
    ///
    /// # Panics
    ///
    /// Panics if the quota is invalid or would oversubscribe the
    /// registered floors, or once the fleet has started running.
    pub fn add_tenant(
        &mut self,
        config: &SessionConfig,
        quota: TenantQuota,
        gateways: usize,
    ) -> usize {
        assert!(
            self.now == SimTime::ZERO,
            "tenants must be registered before the fleet runs"
        );
        let tenant = self.broker.lock().expect("broker lock").register(quota);
        let mut config = config.clone();
        config.autoscale = None;
        config.predictive = None;
        let handle = TenantHandle::new(Arc::clone(&self.broker), tenant, true);
        let session = TelecastSession::builder(config)
            .viewers(gateways)
            .with_cdn_handle(handle)
            .build();
        self.sessions.push(session);
        self.tenant_ids.push(tenant);
        self.sessions.len() - 1
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.sessions.len()
    }

    /// Broker-level tenant id of tenant `index`.
    pub fn tenant_id(&self, index: usize) -> TenantId {
        self.tenant_ids[index]
    }

    /// Tenant `index`'s session, immutably.
    pub fn session(&self, index: usize) -> &TelecastSession {
        &self.sessions[index]
    }

    /// Tenant `index`'s session, mutably — e.g. to install its churn
    /// workload before running.
    pub fn session_mut(&mut self, index: usize) -> &mut TelecastSession {
        &mut self.sessions[index]
    }

    /// The shared broker.
    pub fn broker(&self) -> Arc<Mutex<CapacityBroker>> {
        Arc::clone(&self.broker)
    }

    /// Current fleet barrier time.
    pub fn now(&self) -> SimTime {
        self.now
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
    /// shared predictive controllers, in maturity order.
    pub fn forecast_errors(&self) -> &[(SimTime, f64)] {
        &self.forecast_errors
    }

    /// Mean absolute forecast error across every matured forecast, in
    /// Mbps; `None` with no matured forecasts (reactive or static).
    pub fn mean_abs_forecast_error_mbps(&self) -> Option<f64> {
        if self.forecast_errors.is_empty() {
            return None;
        }
        let sum: f64 = self.forecast_errors.iter().map(|&(_, e)| e.abs()).sum();
        Some(sum / self.forecast_errors.len() as f64)
    }

    /// Provisioned Mbps-hours billed across every shared pool up to
    /// `at` — the fleet's single cost figure (capacity is shared, so
    /// there is no per-tenant provisioned bill; per-tenant *served*
    /// usage is [`TenantFleet::served_mbps_hours`]).
    pub fn provisioned_mbps_hours_at(&self, at: SimTime) -> f64 {
        let broker = self.broker.lock().expect("broker lock");
        let cdn = broker.cdn();
        (0..cdn.pool_slots())
            .map(|slot| cdn.provisioned_meter_of(slot).mbps_hours_at(at))
            .sum()
    }

    /// The shared provisioned bill in dollars at the committed rate.
    pub fn provisioned_dollars_at(&self, at: SimTime) -> f64 {
        let broker = self.broker.lock().expect("broker lock");
        let cdn = broker.cdn();
        (0..cdn.pool_slots())
            .map(|slot| cdn.provisioned_meter_of(slot).dollars_at(at))
            .sum()
    }

    /// Mbps-hours of CDN capacity actually served to tenant `index`, as
    /// accrued at the barriers.
    pub fn served_mbps_hours(&self, index: usize) -> f64 {
        self.broker
            .lock()
            .expect("broker lock")
            .served_mbps_hours(self.tenant_ids[index])
    }

    /// Advances every tenant to `deadline` in lock-step epochs, running
    /// the shared-controller / metering / fair-retry barrier at every
    /// epoch boundary.
    pub fn run_until(&mut self, deadline: SimTime) {
        let schedule = EpochSchedule::new(self.now, deadline, self.epoch);
        for epoch_end in schedule {
            for session in &mut self.sessions {
                session.run_until(epoch_end);
            }
            self.now = epoch_end;
            self.barrier(epoch_end);
        }
        self.now = self.now.max(deadline);
    }

    /// One epoch barrier: shared autoscaling on aggregate demand, usage
    /// metering, and deficit-fair retry draining.
    fn barrier(&mut self, now: SimTime) {
        let slots = self.broker.lock().expect("broker lock").cdn().pool_slots();

        // 1. Aggregate fresh arrival demand across tenants, per slot.
        let mut fresh = vec![0u64; slots];
        for session in &mut self.sessions {
            for (slot, kbps) in session.fleet_take_arrival_demand().into_iter().enumerate() {
                if slot < slots {
                    fresh[slot] += kbps;
                }
            }
        }

        // 2. Shared controllers: one per pool slot, fed the aggregate.
        // Fleet-wide phase ratio: the viewer-weighted mean of every
        // tenant's forecast ratio — a large bursting broadcast moves the
        // shared forecast more than a small steady one.
        let horizon = self
            .autoscalers
            .first()
            .and_then(|scaler| scaler.predictive_policy())
            .map(|pred| pred.horizon);
        let phase_ratio = horizon.map_or(1.0, |horizon| {
            let lag = self.epoch * 2;
            let (mut num, mut den) = (0.0, 0.0);
            for session in &self.sessions {
                if let Some(ratio) = session.phase_ratio(now, horizon, lag) {
                    let weight = (session.connected_viewers() as f64).max(1.0);
                    num += ratio * weight;
                    den += weight;
                }
            }
            if den > 0.0 {
                num / den
            } else {
                1.0
            }
        });
        let mut broker = self.broker.lock().expect("broker lock");
        for (slot, (scaler, &fresh_kbps)) in self.autoscalers.iter_mut().zip(&fresh).enumerate() {
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

        // 3. Per-tenant served-usage metering.
        broker.accrue_usage(now);
        drop(broker);

        // 4. Deficit-fair retry draining: split each pool's headroom
        // over the tenants with parked joins, then hand every session
        // its arbitrated budget.
        let pendings: Vec<Vec<u64>> = self
            .sessions
            .iter()
            .map(|s| s.fleet_pending_retry_kbps())
            .collect();
        let mut budgets = vec![vec![0u64; slots]; self.sessions.len()];
        for slot in 0..slots {
            let contenders: Vec<usize> = (0..self.sessions.len())
                .filter(|&i| pendings[i].get(slot).copied().unwrap_or(0) > 0)
                .collect();
            if contenders.is_empty() {
                continue;
            }
            let demands: Vec<(TenantId, u64)> = contenders
                .iter()
                .map(|&i| (self.tenant_ids[i], pendings[i][slot]))
                .collect();
            let grants = self
                .broker
                .lock()
                .expect("broker lock")
                .arbitrate_retry(slot, &demands);
            for (&i, &grant) in contenders.iter().zip(grants.iter()) {
                budgets[i][slot] = grant;
            }
        }
        for (session, budget) in self.sessions.iter_mut().zip(budgets.iter()) {
            session.fleet_drain_retries(budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayModelChoice;
    use telecast_cdn::CdnConfig;
    use telecast_cdn::PoolScope;
    use telecast_media::ChurnSpec;
    use telecast_net::{Bandwidth, BandwidthProfile};

    fn fleet_config(pool_mbps: u64) -> SessionConfig {
        SessionConfig::default()
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(
                CdnConfig::default()
                    .with_outbound(Bandwidth::from_mbps(pool_mbps))
                    .with_pool_scope(PoolScope::PerRegion),
            )
            .with_delay_model(DelayModelChoice::Dense)
    }

    fn tenant_config(seed: u64, pool_mbps: u64) -> SessionConfig {
        fleet_config(pool_mbps).with_seed(seed)
    }

    #[test]
    fn fleet_runs_two_tenants_deterministically() {
        let run = || {
            let base = fleet_config(400);
            let mut fleet = TenantFleet::new(&base, SimDuration::from_secs(15));
            for t in 0..2u64 {
                let idx = fleet.add_tenant(
                    &tenant_config(100 + t, 400),
                    TenantQuota::even_split(2, 2),
                    400,
                );
                let horizon = SimTime::from_secs(240);
                fleet
                    .session_mut(idx)
                    .start_churn(ChurnSpec::steady_state(150, 0.5), horizon, 150);
            }
            fleet.run_until(SimTime::from_secs(240));
            (
                fleet.session(0).connected_viewers(),
                fleet.session(1).connected_viewers(),
                fleet.session(0).metrics().acceptance_ratio(),
                fleet.served_mbps_hours(0),
                fleet.provisioned_mbps_hours_at(SimTime::from_secs(240)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fleet run is not seed-deterministic");
        assert!(a.0 > 0 && a.1 > 0, "tenant audiences collapsed");
        assert!(a.3 > 0.0, "no served usage accrued");
    }

    #[test]
    fn fleet_conserves_pool_capacity_across_tenants() {
        let base = fleet_config(300);
        let mut fleet = TenantFleet::new(&base, SimDuration::from_secs(10));
        for t in 0..3u64 {
            let idx = fleet.add_tenant(
                &tenant_config(7 + t, 300),
                TenantQuota::even_split(3, 3),
                200,
            );
            let horizon = SimTime::from_secs(120);
            fleet
                .session_mut(idx)
                .start_churn(ChurnSpec::steady_state(80, 0.5), horizon, 80);
        }
        fleet.run_until(SimTime::from_secs(120));
        let broker = fleet.broker();
        let broker = broker.lock().unwrap();
        let cdn = broker.cdn();
        for slot in 0..cdn.pool_slots() {
            let by_tenant: u64 = (0..3)
                .map(|i| broker.used_kbps(fleet.tenant_id(i), slot))
                .sum();
            assert_eq!(
                by_tenant,
                cdn.pool(slot).used().as_kbps(),
                "tenant ledgers disagree with pool slot {slot}"
            );
        }
    }
}
