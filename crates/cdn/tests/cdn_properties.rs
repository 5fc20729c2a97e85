//! Property tests of the CDN substrate: under arbitrary serve/release
//! interleavings across tenants, every pool slot's usage equals the sum
//! of its live leases, and the broker's one lease ledger counts exactly
//! the live leases.

use std::sync::Arc;

use proptest::prelude::*;
use telecast_cdn::{CapacityBroker, CdnConfig, CdnLease, PoolScope, TenantHandle, TenantQuota};
use telecast_net::{Bandwidth, Region};

#[derive(Debug, Clone, Copy)]
enum Op {
    Serve {
        tenant: usize,
        mbps: u64,
        region: usize,
    },
    Release {
        index: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 1u64..6, 0usize..5).prop_map(|(tenant, mbps, region)| Op::Serve {
            tenant,
            mbps,
            region
        }),
        (0usize..64).prop_map(|index| Op::Release { index }),
    ]
}

proptest! {
    /// Per slot, used = Σ live leases' bandwidth and never exceeds the
    /// slot's capacity; the tenants' ledgers hold exactly the live leases.
    #[test]
    fn pool_is_conserved(
        cap_mbps in 1u64..200,
        per_region in any::<bool>(),
        tenants in 1u32..4,
        ops in proptest::collection::vec(arb_op(), 0..200),
    ) {
        let scope = if per_region { PoolScope::PerRegion } else { PoolScope::Global };
        let config = CdnConfig::default()
            .with_outbound(Bandwidth::from_mbps(cap_mbps))
            .with_pool_scope(scope);
        let broker = CapacityBroker::shared(config);
        let handles: Vec<TenantHandle> = (0..tenants)
            .map(|_| {
                // An even split with 2× burst headroom.
                let quota = TenantQuota {
                    floor_percent: 100 / tenants,
                    ceiling_percent: (200 / tenants).min(100),
                };
                let id = broker.lock().unwrap().register(quota);
                TenantHandle::new(Arc::clone(&broker), id, false)
            })
            .collect();
        // (tenant, slot, lease, rate) of every live lease.
        let mut live: Vec<(usize, usize, CdnLease, Bandwidth)> = Vec::new();
        for op in ops {
            match op {
                Op::Serve { tenant, mbps, region } => {
                    let handle = &handles[tenant % handles.len()];
                    let bw = Bandwidth::from_mbps(mbps);
                    let region = Region::ALL[region];
                    match handle.serve(bw, region) {
                        Ok(lease) => {
                            live.push((tenant % handles.len(), handle.slot_of(region), lease, bw));
                        }
                        Err(err) => {
                            prop_assert!(err.available < bw, "rejected despite headroom");
                        }
                    }
                }
                Op::Release { index } => {
                    if !live.is_empty() {
                        let (tenant, _, lease, _) = live.swap_remove(index % live.len());
                        handles[tenant].release(lease);
                    }
                }
            }
            let guard = broker.lock().unwrap();
            let cdn = guard.cdn();
            for slot in 0..cdn.pool_slots() {
                let expected: Bandwidth = live
                    .iter()
                    .filter(|l| l.1 == slot)
                    .map(|l| l.3)
                    .sum();
                prop_assert_eq!(cdn.pool(slot).used(), expected);
                prop_assert!(cdn.pool(slot).used() <= cdn.pool(slot).total());
                let ledger: usize = handles
                    .iter()
                    .map(|h| guard.tenant_leases_in(h.tenant(), slot..slot + 1))
                    .sum();
                prop_assert_eq!(ledger, live.iter().filter(|l| l.1 == slot).count());
            }
        }
    }
}
