//! Allocation budget of the event hot path.
//!
//! The join pipeline (§IV-B1 allocation, §IV-B2 placement, §V layering),
//! the tree walks and the §V-B3 subscription chain run on buffers the
//! session, its resync frames and its trees own and reuse, so a churning
//! session in steady state allocates only where persistent state grows:
//! tree nodes and level sets, lease maps. This test counts the heap
//! allocations a seeded static-pool churn session makes per dispatched
//! event after warm-up, and fails when per-event scratch comes back:
//! the session makes 1.64 per event here, and a join pipeline that
//! collects its lists into fresh `Vec`s makes about 6.8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use telecast::{SessionConfig, TelecastSession};
use telecast_cdn::CdnConfig;
use telecast_media::{ChurnSpec, ProducerSite, SiteId};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimTime};

/// Counts allocations per thread, so the test harness's other threads
/// never reach the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // The slot is gone while the thread exits; nothing is counted then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// count is a side effect on a thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations per dispatched event over the measured window:
/// 1.64 measured, with headroom for a standard library that grows its
/// collections differently.
const BUDGET_PER_EVENT: f64 = 2.1;

#[test]
fn steady_state_churn_stays_within_the_allocation_budget() {
    let n = 400;
    let config = SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), 6, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), 6, 2_000, 10),
        ],
        streams_per_local_view: 3,
        adaptation_period: Some(SimDuration::from_secs(60)),
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(4 * n as u64)))
    .with_seed(11);
    let mut session = TelecastSession::builder(config).viewers(n).build();
    let horizon = SimTime::from_secs(30 * 60);
    session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.1), horizon, n / 2);

    // Warm-up: the population fills, and every buffer grows to its
    // working size.
    session.run_until(SimTime::from_secs(10 * 60));
    let (events, allocs) = (session.events_processed(), allocations());
    session.run_until(SimTime::from_secs(25 * 60));
    let events = session.events_processed() - events;
    let allocs = allocations() - allocs;

    assert!(events > 3_000, "the window is busy: {events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BUDGET_PER_EVENT,
        "{allocs} allocations over {events} events: {per_event:.2} per event, budget {BUDGET_PER_EVENT}"
    );
}
