//! The sharded side of the [`EpochRuntime`]: one broadcast split into
//! one [`TelecastSession`] per [`Region`] (the split the per-region CDN
//! pools use), each owning its region's slot of the shared broker.
//!
//! Two cross-shard effects travel through the shards' outboxes to the
//! runtime's barrier: **CDN spill** ([`ShardMessage::SpillRequest`]), a
//! foreground join the local pool rejected for capacity, served from the
//! foreign pool with the most headroom; and **foreign release**
//! ([`ShardMessage::ReleaseForeign`]), a departed spill-served viewer's
//! leases handed back to the donor shard.

use std::collections::BTreeMap;

use std::sync::Arc;

use telecast_cdn::{
    split_capacity, CapacityBroker, CdnLease, PoolScope, TenantHandle, TenantQuota,
};
use telecast_media::ViewId;
use telecast_net::{NodeId, Region};
use telecast_sim::{FxHashSet, Outbox, SimDuration, SimTime};

use crate::config::SessionConfig;
use crate::runtime::EpochRuntime;
use crate::session::TelecastSession;

/// Salt mixed into each shard's seed so the five shards draw independent
/// random streams from one scenario seed (odd constant, multiplied by
/// `shard_id + 1` so no two shards share a seed).
const SHARD_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A cross-shard effect, stamped into the emitting shard's outbox during
/// an epoch and applied by the runtime at the barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardMessage {
    /// A foreground join the owning shard's regional pool rejected for
    /// capacity, offered to the foreign pool with the most headroom.
    SpillRequest {
        /// The rejected viewer (still parked on its owner shard).
        viewer: NodeId,
        /// The view it asked for.
        view: ViewId,
        /// Worst-case CDN demand of that view, in Kbps.
        demand_kbps: u64,
    },
    /// Leases held on a donor shard's pool by a spill-served viewer that
    /// has since departed; the donor must release them.
    ReleaseForeign {
        /// The shard whose pool holds the leases.
        donor: usize,
        /// The leases to release, in stream order.
        leases: Vec<CdnLease>,
    },
}

/// A viewer's foreign-pool serve: which shard donated and the leases it
/// holds there (owned by the viewer's home shard, released via a
/// [`ShardMessage::ReleaseForeign`] on departure).
#[derive(Debug)]
pub(crate) struct ForeignServe {
    /// Index of the donor shard.
    pub(crate) donor: usize,
    /// The donor-pool leases serving this viewer's view.
    pub(crate) leases: Vec<CdnLease>,
}

/// Sharded-mode context carried by a [`TelecastSession`] that runs as
/// one shard of a [`ShardedSession`].
#[derive(Debug)]
pub(crate) struct ShardState {
    /// The region whose viewers this shard owns.
    pub(crate) region: Region,
    /// Cross-shard effects emitted this epoch, in emission order.
    pub(crate) outbox: Outbox<ShardMessage>,
    /// Foreign serves held by this shard's viewers.
    pub(crate) foreign: BTreeMap<NodeId, ForeignServe>,
    /// Viewers with a spill request in flight (emitted but not yet
    /// answered at a barrier) — guards against duplicate requests.
    pub(crate) spill_pending: FxHashSet<NodeId>,
}

impl ShardState {
    pub(crate) fn new(id: usize, region: Region) -> Self {
        ShardState {
            region,
            outbox: Outbox::new(id),
            foreign: BTreeMap::new(),
            spill_pending: FxHashSet::default(),
        }
    }
}

/// Marker for the sharded side of the [`EpochRuntime`].
pub enum Shards {}

/// The sharded session runtime: five per-region [`TelecastSession`]
/// event loops advancing in lock-step time epochs on a worker pool, with
/// cross-shard effects merged deterministically at each barrier.
///
/// ```
/// use telecast::{SessionConfig, ShardedSession};
/// use telecast_sim::{SimDuration, SimTime};
///
/// let mut session = ShardedSession::new(
///     SessionConfig::default(),
///     500,
///     2,
///     SimDuration::from_secs(10),
/// );
/// session.start_churn(0.05, SimTime::from_secs(60));
/// session.run_until(SimTime::from_secs(60));
/// assert!(session.merged_metrics().churn_arrivals.value() > 0);
/// ```
pub type ShardedSession = EpochRuntime<Shards>;

impl EpochRuntime<Shards> {
    /// Builds one shard per region from `config`: the global viewer
    /// population and the CDN pool are split by the region weights
    /// (remainders land on the first region, mirroring
    /// [`split_capacity`]), the autoscale policy — when present — is
    /// split the same way, and each shard's seed is forked from the
    /// scenario seed so the shards draw independent random streams.
    ///
    /// `threads` maps shards onto OS threads and **cannot change the
    /// output**; `epoch` is the barrier period (shorter epochs tighten
    /// cross-shard latency, longer ones amortise the barrier).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, `viewers` is zero, `threads` is
    /// zero, or `epoch` is zero.
    pub fn new(config: SessionConfig, viewers: usize, threads: usize, epoch: SimDuration) -> Self {
        assert!(viewers > 0, "sharded session needs viewers");

        // Integer split by weight percent, remainder to the first region
        // — the same arithmetic `split_capacity` uses, so a shard's
        // population and its pool share stay proportional.
        let mut counts: Vec<usize> = Region::ALL
            .iter()
            .map(|r| viewers * r.weight_percent() as usize / 100)
            .collect();
        let assigned: usize = counts.iter().sum();
        counts[0] += viewers - assigned;

        let pool_split = split_capacity(config.cdn.outbound_capacity, PoolScope::PerRegion);
        let policy_split = config
            .autoscale
            .as_ref()
            .map(|p| p.split(PoolScope::PerRegion));

        // One broker owns every regional pool; each shard gets a
        // single-slot window onto its own region's slot. The broker's
        // per-region split is the same weight arithmetic as
        // `pool_split`, so every shard sees exactly the pool it owned
        // when it carried a private global-scope `Cdn`.
        let broker = CapacityBroker::shared(config.cdn.with_pool_scope(PoolScope::PerRegion));
        let tenant = broker
            .lock()
            .expect("fresh broker lock")
            .register(TenantQuota::FULL);

        let shards = Region::ALL
            .iter()
            .enumerate()
            .map(|(id, &region)| {
                let mut cfg = config.clone();
                cfg.cdn = cfg
                    .cdn
                    .with_outbound(pool_split[id])
                    .with_pool_scope(PoolScope::Global);
                cfg.autoscale = policy_split.as_ref().map(|p| p[id]);
                cfg.seed = config.seed ^ SHARD_SEED_SALT.wrapping_mul(id as u64 + 1);
                let handle = TenantHandle::window(Arc::clone(&broker), tenant, id);
                let mut shard = TelecastSession::builder(cfg)
                    .viewers_in(counts[id], region)
                    .with_cdn_handle(handle)
                    .build();
                shard.enable_sharding(id, region);
                shard
            })
            .collect();
        EpochRuntime::assemble(shards, broker, Vec::new(), threads, epoch)
    }

    /// Starts a steady-state churn runtime on every shard: each shard
    /// churns its own population at `churn_per_minute` (so the global
    /// process is the sum of five independent regional processes) and
    /// prefills to its full population.
    ///
    /// # Panics
    ///
    /// Panics if `churn_per_minute` is outside `(0, 1]` or a churn
    /// runtime is already installed on a shard.
    pub fn start_churn(&mut self, churn_per_minute: f64, horizon: SimTime) {
        for (shard, stats) in self.members.iter_mut().zip(&self.stats) {
            let population = stats.viewers;
            if population == 0 {
                continue;
            }
            let spec = telecast_media::ChurnSpec::steady_state(population, churn_per_minute);
            shard.start_churn(spec, horizon, population);
        }
    }

    /// The per-region shard sessions, in [`Region::ALL`] order.
    pub fn shards(&self) -> &[TelecastSession] {
        &self.members
    }

    /// Spill requests no foreign pool could take.
    pub fn spill_denied(&self) -> u64 {
        self.spill_denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SessionMetrics;
    use crate::runtime::MemberStats;
    use telecast_cdn::{AutoscalePolicy, CdnConfig, PredictivePolicy};
    use telecast_net::Bandwidth;

    fn small_config(seed: u64) -> SessionConfig {
        SessionConfig {
            cdn: CdnConfig::default().with_outbound(telecast_net::Bandwidth::from_mbps(2_000)),
            monitor_period: Some(SimDuration::from_secs(10)),
            seed,
            ..SessionConfig::default()
        }
    }

    fn run_small(seed: u64, threads: usize) -> (SessionMetrics, Vec<MemberStats>) {
        let mut s =
            ShardedSession::new(small_config(seed), 400, threads, SimDuration::from_secs(10));
        let horizon = SimTime::from_secs(120);
        s.start_churn(0.1, horizon);
        s.run_until(horizon);
        (s.merged_metrics(), s.stats().to_vec())
    }

    #[test]
    fn population_split_mirrors_region_weights() {
        let s = ShardedSession::new(small_config(1), 1000, 1, SimDuration::from_secs(1));
        let counts: Vec<usize> = s.stats().iter().map(|st| st.viewers).collect();
        assert_eq!(counts, vec![400, 300, 170, 80, 50]);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn remainder_viewers_land_on_first_region() {
        let s = ShardedSession::new(small_config(1), 7, 1, SimDuration::from_secs(1));
        let counts: Vec<usize> = s.stats().iter().map(|st| st.viewers).collect();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        // 7×40/100=2, 7×30/100=2, 7×17/100=1, 0, 0 → remainder 2 to NA.
        assert_eq!(counts, vec![4, 2, 1, 0, 0]);
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let (one, _) = run_small(42, 1);
        for threads in [2, 4, 8] {
            let (many, _) = run_small(42, threads);
            assert_eq!(
                one.churn_arrivals.value(),
                many.churn_arrivals.value(),
                "arrivals diverged at {threads} threads"
            );
            assert_eq!(one.population.points(), many.population.points());
            assert_eq!(one.cdn_usage_mbps.points(), many.cdn_usage_mbps.points());
            assert_eq!(
                one.requested_streams.value(),
                many.requested_streams.value()
            );
        }
    }

    #[test]
    fn shards_make_progress_and_report_events() {
        let (metrics, stats) = run_small(7, 2);
        assert!(metrics.churn_arrivals.value() > 0);
        for (st, region) in stats.iter().zip(Region::ALL) {
            if st.viewers > 0 {
                assert!(st.events_processed > 0, "{region:?} shard idle");
            }
        }
    }

    #[test]
    fn spill_serves_capacity_rejected_viewers_from_foreign_pools() {
        // Starve one region: a pool too small for even one view forces
        // NA joins to spill into the other regions' (idle) pools.
        let mut config = small_config(3);
        config.cdn = CdnConfig::default().with_outbound(telecast_net::Bandwidth::from_mbps(120));
        let mut s = ShardedSession::new(config, 300, 2, SimDuration::from_secs(5));
        let horizon = SimTime::from_secs(180);
        s.start_churn(0.05, horizon);
        s.run_until(horizon);
        let m = s.merged_metrics();
        assert!(
            m.spill_requests.value() > 0,
            "starved pools should emit spills"
        );
        assert!(
            m.spill_admits.value() + s.spill_denied() > 0,
            "spills must be answered"
        );
        assert!(m.spill_admits.value() <= m.spill_requests.value());
    }

    #[test]
    fn merged_metrics_sum_shard_counters() {
        let mut s = ShardedSession::new(small_config(9), 400, 2, SimDuration::from_secs(10));
        let horizon = SimTime::from_secs(60);
        s.start_churn(0.1, horizon);
        s.run_until(horizon);
        let merged = s.merged_metrics();
        let arrivals: u64 = s
            .shards()
            .iter()
            .map(|sh| sh.metrics().churn_arrivals.value())
            .sum();
        assert_eq!(merged.churn_arrivals.value(), arrivals);
        let peak: u64 = s
            .shards()
            .iter()
            .map(|sh| sh.metrics().peak_event_queue)
            .max()
            .unwrap_or(0);
        assert_eq!(merged.peak_event_queue, peak);
    }

    #[test]
    fn merged_metrics_keep_every_shards_forecasts_and_prune_folds() {
        // Predictive shard controllers and an armed prune pass: the
        // merged view must carry what the shards scored and folded.
        let pool = Bandwidth::from_mbps(400);
        let config = small_config(5)
            .with_cdn(CdnConfig::default().with_outbound(pool))
            .with_autoscale(AutoscalePolicy::for_pool(pool, Bandwidth::from_mbps(4_000)))
            .with_predictive(PredictivePolicy {
                horizon: SimDuration::from_secs(45),
                alpha: 0.5,
                target_utilisation: 0.95,
            })
            .with_prune_floor(2);
        let mut s = ShardedSession::new(config, 500, 1, SimDuration::from_secs(10));
        let horizon = SimTime::from_secs(300);
        s.start_churn(0.2, horizon);
        s.run_until(horizon);
        let merged = s.merged_metrics();
        let sum = |f: fn(&SessionMetrics) -> u64| -> u64 {
            s.shards().iter().map(|sh| f(sh.metrics())).sum()
        };
        let forecasts = |m: &SessionMetrics| -> u64 {
            m.forecast_error_by_slot
                .iter()
                .map(|series| series.len() as u64)
                .sum()
        };
        assert!(sum(forecasts) > 0, "no shard scored a forecast");
        assert!(
            sum(|m| m.fragments_merged.value()) > 0,
            "no shard folded a fragment"
        );
        assert_eq!(forecasts(&merged), sum(forecasts));
        assert!(merged.mean_abs_forecast_error_mbps().is_some());
        assert_eq!(
            merged.fragments_merged.value(),
            sum(|m| m.fragments_merged.value())
        );
        assert_eq!(
            merged.prune_reclaimed_kbps.value(),
            sum(|m| m.prune_reclaimed_kbps.value())
        );
    }
}
