//! A counting global allocator: live bytes, the live-bytes high-water
//! mark, and cumulative allocation counts and bytes. It is installed in
//! every run, traced or not, so `peak_heap_mb` always comes from the same
//! instrumented allocator and costs the same.
//!
//! Counts and bytes are kept per thread and summed when read. The live
//! total and its high-water mark are shared, each on its own cache line,
//! and the mark is written only when it rises.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

/// A counter on a cache line of its own, so that threads updating
/// different counters do not move one line back and forth.
#[repr(align(128))]
struct Padded(AtomicU64);

/// Cumulative allocation count and bytes of the threads that use one
/// slot.
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// Slots for the per-thread counters; threads past this many share.
const SLOTS: usize = 16;
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

static LIVE: Padded = Padded(AtomicU64::new(0));
static PEAK: Padded = Padded(AtomicU64::new(0));

/// This thread's counter slot.
fn slot() -> &'static Slot {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTS[i]
}

fn grew(size: u64) {
    let own = slot();
    own.allocs.fetch_add(1, Relaxed);
    own.bytes.fetch_add(size, Relaxed);
    let live = LIVE.0.fetch_add(size, Relaxed) + size;
    // The high-water mark is read far more often than it rises.
    if live > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each caller's `GlobalAlloc` obligations pass straight
// through; the counters are plain atomics and touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.0.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            // A realloc counts as one allocation of the new size and a
            // free of the old one.
            LIVE.0.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        moved
    }
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Bytes live now.
    pub live: u64,
    /// Highest live bytes since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (including reallocations) so far.
    pub allocs: u64,
    /// Bytes requested by those allocations so far.
    pub bytes: u64,
}

impl Heap {
    /// Reads the counters.
    pub fn now() -> Heap {
        Heap {
            live: LIVE.0.load(Relaxed),
            peak: PEAK.0.load(Relaxed),
            allocs: COUNTS.iter().map(|c| c.allocs.load(Relaxed)).sum(),
            bytes: COUNTS.iter().map(|c| c.bytes.load(Relaxed)).sum(),
        }
    }
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.0.store(LIVE.0.load(Relaxed), Relaxed);
}

/// Bytes to megabytes (10^6).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}
