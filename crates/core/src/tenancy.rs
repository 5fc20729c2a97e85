//! The fleet constructor of the [`EpochRuntime`]: M concurrent
//! broadcasts sharing one [`CapacityBroker`]'s regional pools.
//!
//! Each tenant session is *fleet-managed*: it runs no autoscalers of
//! its own and never drains its retry queues unilaterally. The runtime's
//! barrier scales the shared pools on the demand summed across tenants,
//! meters each tenant's served usage and splits retry headroom fairly
//! between them. Tenants share every pool slot, so the fleet runs on one
//! thread, tenants in registration order within each epoch: a fleet run
//! is a pure function of its seeds.

use std::sync::Arc;

use telecast_cdn::{Autoscaler, CapacityBroker, TenantHandle, TenantId, TenantQuota};
use telecast_sim::{SimDuration, SimTime};

use crate::config::SessionConfig;
use crate::runtime::EpochRuntime;
use crate::session::TelecastSession;

/// Marker for the fleet side of the [`EpochRuntime`].
pub enum Tenants {}

/// Coordinator for M tenant broadcasts sharing one broker's pools.
pub type TenantFleet = EpochRuntime<Tenants>;

impl EpochRuntime<Tenants> {
    /// Builds an empty fleet. `fleet_config` supplies the shared pieces:
    /// its `cdn` becomes the broker's pool layout and its
    /// `autoscale`/`predictive` the shared per-slot controllers. The
    /// barrier runs every `epoch` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(fleet_config: &SessionConfig, epoch: SimDuration) -> Self {
        let broker = CapacityBroker::shared(fleet_config.cdn);
        let pool_slots = broker.lock().expect("fresh broker").cdn().pool_slots();
        let autoscalers = Autoscaler::per_slot(
            fleet_config.autoscale,
            fleet_config.predictive,
            fleet_config.cdn.pool_scope,
            pool_slots,
        );
        EpochRuntime::assemble(Vec::new(), broker, autoscalers, 1, epoch)
    }

    /// Registers one tenant broadcast: a quota on the shared pools and a
    /// session provisioned with `gateways` viewers. The tenant's own
    /// `autoscale`/`predictive` settings are stripped — pool scaling is
    /// the fleet's job, and a private controller would fight it.
    /// Returns the tenant's index (also its order in every epoch).
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
        self.push_member(session)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.members.len()
    }

    /// Broker-level tenant id of tenant `index`.
    pub fn tenant_id(&self, index: usize) -> TenantId {
        self.members[index].cdn().tenant()
    }

    /// Tenant `index`'s session, immutably.
    pub fn session(&self, index: usize) -> &TelecastSession {
        &self.members[index]
    }

    /// Tenant `index`'s session, mutably — e.g. to install its churn
    /// workload before running.
    pub fn session_mut(&mut self, index: usize) -> &mut TelecastSession {
        &mut self.members[index]
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
                    TenantQuota {
                        floor_percent: 50,
                        ceiling_percent: 100,
                    },
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
                TenantQuota {
                    floor_percent: 33,
                    ceiling_percent: 100,
                },
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
