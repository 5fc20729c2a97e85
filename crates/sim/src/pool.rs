//! A persistent worker pool for lock-step sharded execution.
//!
//! [`WorkerPool`] owns a fixed set of OS threads for the lifetime of the
//! runtime that created it, replacing the per-epoch
//! `thread::scope` + channel + per-job mutex machinery of
//! [`parallel_map_with`](crate::parallel_map_with) with a reusable
//! condvar barrier: each epoch the coordinator parks the jobs into
//! pre-sized per-slot cells, wakes the workers, and sleeps until the
//! last job lands back in its slot. No thread is spawned, no channel
//! allocated, and no job vector reallocated after construction.
//!
//! # Cost-aware scheduling (LPT)
//!
//! Shard runtimes are chronically imbalanced — one region may carry 40%
//! of the population while another carries 5% — and an epoch ends only
//! when its slowest shard does. The pool therefore hands jobs out
//! **longest-predicted-first**: it keeps an EWMA of each slot's
//! measured busy time and sorts the dispatch order by that prediction,
//! so the heaviest shard starts first and light shards pack around it
//! (the classic LPT heuristic). Ties, and the first epoch (no history),
//! fall back to ascending slot order. On one thread no order can
//! shorten the epoch, so the inline path (`threads <= 1`) always runs
//! the slots in ascending order: a caller whose jobs share state can
//! rely on that order.
//!
//! # Determinism
//!
//! Scheduling affects *wall-clock only*. Any worker may run any job:
//! results land in their slot **by index**, each job's execution is
//! single-threaded, and the coordinator reads the slots back in index
//! order — so the output is byte-identical for any worker count and any
//! dispatch order, the same contract
//! [`parallel_map_with`](crate::parallel_map_with) established. The
//! EWMA feeds nothing but the dispatch order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Smoothing factor for the per-slot busy-time EWMA: heavy enough to
/// track load shifts (churn waves move work between regions) while
/// damping single-epoch noise.
const EWMA_ALPHA: f64 = 0.4;

/// The job runner: `(slot index, job, epoch context)`.
type RunFn<T, C> = dyn Fn(usize, &mut T, &C) + Send + Sync;

/// Coordinator/worker shared state, guarded by one mutex.
struct State<T> {
    /// Slot-indexed job cells; a worker `take`s its claimed slot.
    jobs: Vec<Option<T>>,
    /// Slot-indexed result cells: the job handed back plus its measured
    /// busy nanoseconds.
    results: Vec<Option<(T, u64)>>,
    /// Dispatch order for the current epoch (slot indices, LPT-sorted).
    order: Vec<usize>,
    /// Next position in `order` to claim.
    cursor: usize,
    /// Jobs dispatched but not yet returned this epoch.
    outstanding: usize,
    /// Tells the workers to exit (set by `Drop`).
    shutdown: bool,
    /// First panic payload caught this epoch, re-thrown by the
    /// coordinator once the epoch drains.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared<T, C> {
    state: Mutex<State<T>>,
    /// Epoch context for the current epoch (read-only while workers
    /// run). Kept outside `State` so workers can borrow it without
    /// holding the state lock; the coordinator only writes it while no
    /// job is outstanding.
    ctx: Mutex<Option<C>>,
    /// Wakes workers when an epoch's jobs are parked (or on shutdown).
    work_ready: Condvar,
    /// Wakes the coordinator when the last job of an epoch lands.
    epoch_done: Condvar,
    run: Box<RunFn<T, C>>,
}

/// A persistent pool of worker threads executing slot-indexed jobs in
/// lock-step epochs. See the module docs for the scheduling and
/// determinism contract.
pub struct WorkerPool<T, C> {
    shared: Arc<Shared<T, C>>,
    workers: Vec<JoinHandle<()>>,
    /// Per-slot EWMA of measured busy nanoseconds (the LPT cost model).
    ewma_ns: Vec<f64>,
    /// Per-slot busy nanoseconds of the most recent epoch.
    last_busy_ns: Vec<u64>,
    slots: usize,
}

impl<T: Send + 'static, C: Clone + Send + Sync + 'static> WorkerPool<T, C> {
    /// Creates a pool for `slots` jobs on up to `threads` OS threads
    /// (capped at `slots`; `threads <= 1` spawns none and runs epochs
    /// inline on the caller's thread, in ascending slot order). A pool
    /// of zero slots spawns nothing and runs nothing.
    pub fn new<F>(slots: usize, threads: usize, run: F) -> Self
    where
        F: Fn(usize, &mut T, &C) + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: (0..slots).map(|_| None).collect(),
                results: (0..slots).map(|_| None).collect(),
                order: Vec::with_capacity(slots),
                cursor: 0,
                outstanding: 0,
                shutdown: false,
                panic: None,
            }),
            ctx: Mutex::new(None),
            work_ready: Condvar::new(),
            epoch_done: Condvar::new(),
            run: Box::new(run),
        });
        let worker_count = if threads <= 1 { 0 } else { threads.min(slots) };
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            ewma_ns: vec![0.0; slots],
            last_busy_ns: vec![0; slots],
            slots,
        }
    }

    /// Runs one epoch: every item of `items` (which must have exactly
    /// the pool's slot count) is executed once with `ctx`, in place.
    /// Worker threads take items longest-predicted-first, the inline
    /// path in ascending slot order; either way they land back at their
    /// own index, so `items` comes back in the order it went in — the
    /// vector round-trips through the pool without reallocating.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by a job (after the epoch
    /// drains), and panics if `items.len()` differs from the pool's
    /// slot count.
    pub fn run_epoch(&mut self, items: &mut Vec<T>, ctx: C) {
        assert_eq!(items.len(), self.slots, "item count must match slots");
        if self.workers.is_empty() {
            // Inline path: no worker threads — run the jobs on the
            // caller's thread in slot order.
            for (slot, item) in items.iter_mut().enumerate() {
                let started = Instant::now();
                (self.shared.run)(slot, item, &ctx);
                self.record_busy(slot, started.elapsed().as_nanos() as u64);
            }
            return;
        }

        *lock_ignore_poison(&self.shared.ctx) = Some(ctx);
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            for (slot, item) in items.drain(..).enumerate() {
                state.jobs[slot] = Some(item);
            }
            state.order = lpt_order(&self.ewma_ns);
            state.cursor = 0;
            state.outstanding = self.slots;
            self.shared.work_ready.notify_all();
            while state.outstanding > 0 {
                state = self
                    .shared
                    .epoch_done
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            if let Some(payload) = state.panic.take() {
                std::panic::resume_unwind(payload);
            }
            for slot in 0..self.slots {
                let (item, busy_ns) = state.results[slot]
                    .take()
                    .expect("every slot produced a result");
                items.push(item);
                self.last_busy_ns[slot] = busy_ns;
            }
        }
        for slot in 0..self.slots {
            self.record_busy(slot, self.last_busy_ns[slot]);
        }
        *lock_ignore_poison(&self.shared.ctx) = None;
    }

    /// Measured busy nanoseconds per slot for the most recent epoch.
    pub fn last_busy_ns(&self) -> &[u64] {
        &self.last_busy_ns
    }

    /// Number of worker threads the pool spawned (0 = inline).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn record_busy(&mut self, slot: usize, busy_ns: u64) {
        self.last_busy_ns[slot] = busy_ns;
        let prev = self.ewma_ns[slot];
        self.ewma_ns[slot] = if prev == 0.0 {
            busy_ns as f64
        } else {
            EWMA_ALPHA * busy_ns as f64 + (1.0 - EWMA_ALPHA) * prev
        };
    }
}

impl<T, C> Drop for WorkerPool<T, C> {
    fn drop(&mut self) {
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job already surfaced its
            // payload through `run_epoch`; ignore the join error here.
            let _ = worker.join();
        }
    }
}

/// Locks `m`, recovering the guard if a panicking thread poisoned it
/// (the pool re-throws job panics through `resume_unwind` while a guard
/// is live, so later lock sites — `Drop` in particular — must not
/// treat poison as fatal).
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The LPT dispatch order: slot indices sorted by descending predicted
/// cost, ties broken by ascending slot index (stable — the first epoch,
/// with no history, dispatches in plain slot order).
fn lpt_order(ewma_ns: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ewma_ns.len()).collect();
    order.sort_by(|&a, &b| {
        ewma_ns[b]
            .partial_cmp(&ewma_ns[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

fn worker_loop<T, C>(shared: Arc<Shared<T, C>>)
where
    T: Send,
    C: Clone + Send + Sync,
{
    let mut state = lock_ignore_poison(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        if state.cursor < state.order.len() {
            let slot = state.order[state.cursor];
            state.cursor += 1;
            let mut job = state.jobs[slot].take().expect("job claimed exactly once");
            drop(state);
            // The context is only rewritten between epochs, while no
            // job is outstanding — this read never blocks dispatch.
            let ctx = lock_ignore_poison(&shared.ctx)
                .clone()
                .expect("epoch context set before dispatch");
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                (shared.run)(slot, &mut job, &ctx);
            }));
            let busy_ns = started.elapsed().as_nanos() as u64;
            state = lock_ignore_poison(&shared.state);
            match outcome {
                Ok(()) => state.results[slot] = Some((job, busy_ns)),
                Err(payload) => {
                    // Keep the first payload; the job is lost to the
                    // unwind either way.
                    state.panic.get_or_insert(payload);
                    // Park an empty-handed marker so the coordinator's
                    // drain logic stays uniform — it re-throws before
                    // reading the slots.
                }
            }
            state.outstanding -= 1;
            if state.outstanding == 0 {
                shared.epoch_done.notify_all();
            }
        } else {
            state = shared
                .work_ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_by_slot_index() {
        for threads in [1usize, 2, 4, 8] {
            let mut pool: WorkerPool<u64, u64> =
                WorkerPool::new(5, threads, |slot, job, ctx| *job += slot as u64 * 100 + ctx);
            let mut items = vec![0u64; 5];
            pool.run_epoch(&mut items, 7);
            assert_eq!(items, vec![7, 107, 207, 307, 407], "{threads} threads");
        }
    }

    #[test]
    fn epochs_reuse_the_same_threads() {
        let spawned = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let seen2 = Arc::clone(&seen);
        let spawned2 = Arc::clone(&spawned);
        let mut pool: WorkerPool<u32, ()> = WorkerPool::new(4, 2, move |_, job, ()| {
            let id = std::thread::current().id();
            if seen2.lock().unwrap().insert(format!("{id:?}")) {
                spawned2.fetch_add(1, Ordering::SeqCst);
            }
            *job += 1;
        });
        let mut items = vec![0u32; 4];
        for _ in 0..20 {
            pool.run_epoch(&mut items, ());
        }
        assert_eq!(items, vec![20; 4]);
        assert!(
            spawned.load(Ordering::SeqCst) <= pool.worker_count(),
            "jobs ran on more threads than the pool owns"
        );
    }

    #[test]
    fn item_vector_round_trips_without_reallocating() {
        let mut pool: WorkerPool<Vec<u8>, ()> =
            WorkerPool::new(3, 2, |_, job: &mut Vec<u8>, ()| job.push(1));
        let mut items: Vec<Vec<u8>> = (0..3).map(|_| Vec::with_capacity(64)).collect();
        let before = items.as_ptr();
        for _ in 0..5 {
            pool.run_epoch(&mut items, ());
        }
        assert_eq!(items.as_ptr(), before, "outer vector was reallocated");
        assert!(items.iter().all(|v| v.len() == 5 && v.capacity() >= 64));
    }

    #[test]
    fn lpt_orders_descending_with_index_ties() {
        assert_eq!(lpt_order(&[0.0, 0.0, 0.0]), vec![0, 1, 2]);
        assert_eq!(lpt_order(&[1.0, 9.0, 4.0]), vec![1, 2, 0]);
        assert_eq!(lpt_order(&[4.0, 9.0, 4.0, 9.0]), vec![1, 3, 0, 2]);
    }

    #[test]
    fn ewma_tracks_busy_history() {
        let mut pool: WorkerPool<u64, ()> = WorkerPool::new(2, 1, |slot, _, ()| {
            if slot == 1 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        });
        let mut items = vec![0u64; 2];
        for _ in 0..3 {
            pool.run_epoch(&mut items, ());
        }
        assert!(
            pool.ewma_ns[1] > pool.ewma_ns[0],
            "slower slot must predict slower"
        );
        assert_eq!(lpt_order(&pool.ewma_ns)[0], 1, "LPT starts the slow slot");
    }

    #[test]
    fn inline_path_runs_slots_in_ascending_order() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran);
        // Slot 2 is by far the costliest, so an LPT order would start it.
        let mut pool: WorkerPool<u64, ()> = WorkerPool::new(4, 1, move |slot, _, ()| {
            if slot == 2 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            log.lock().unwrap().push(slot);
        });
        let mut items = vec![0u64; 4];
        for _ in 0..4 {
            pool.run_epoch(&mut items, ());
        }
        assert_eq!(lpt_order(&pool.ewma_ns)[0], 2, "costs must be unequal");
        let expected: Vec<usize> = (0..4).flat_map(|_| 0..4).collect();
        assert_eq!(*ran.lock().unwrap(), expected);
    }

    #[test]
    fn zero_slot_pool_runs_nothing() {
        let mut pool: WorkerPool<u64, ()> = WorkerPool::new(0, 4, |_, _, ()| unreachable!());
        let mut items = Vec::new();
        pool.run_epoch(&mut items, ());
        assert_eq!(pool.worker_count(), 0);
        assert!(pool.last_busy_ns().is_empty());
    }

    #[test]
    fn busy_ns_reported_per_slot() {
        let mut pool: WorkerPool<u64, ()> = WorkerPool::new(2, 2, |_, _, ()| {});
        let mut items = vec![0u64; 2];
        pool.run_epoch(&mut items, ());
        assert_eq!(pool.last_busy_ns().len(), 2);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate_to_the_coordinator() {
        let mut pool: WorkerPool<u32, ()> = WorkerPool::new(4, 2, |slot, _, ()| {
            if slot == 2 {
                panic!("boom");
            }
        });
        let mut items = vec![0u32; 4];
        pool.run_epoch(&mut items, ());
    }

    #[test]
    fn pool_survives_many_epochs_under_contention() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(8, 8, |_, job, ctx| *job += ctx);
        let mut items = vec![0u64; 8];
        for epoch in 0..200 {
            pool.run_epoch(&mut items, epoch % 3);
        }
        let expected: u64 = (0..200u64).map(|e| e % 3).sum();
        assert!(items.iter().all(|&v| v == expected));
    }
}
