//! The host-speed calibration kernel. A shared cloud host changes speed
//! by up to a third over minutes, which no median within one run can
//! remove. So every repetition is bracketed by runs of a fixed kernel
//! that owes nothing to the simulator, and each repetition's host times
//! are scaled by [`REFERENCE_S`] over the mean of the kernel's times just
//! before and just after it: they read as seconds on a host on which the
//! kernel takes `REFERENCE_S`.
//!
//! The kernel does the kinds of work a discrete-event simulator does, on a
//! heap of similar size: it chases pointers through an 8 MB cycle, churns
//! a hash map, pushes and pops a binary heap, keeps an ordered map of
//! small boxed values, and runs a branchy integer loop. It runs on as
//! many threads as the workload keeps busy, since a host that slows one
//! of its cores slows a two-threaded run more than a single-threaded one.
//! It runs while no simulator state is alive, so a change to the
//! simulator cannot change the kernel's time.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, in seconds: about its median
/// on the 2-vCPU Xeon cloud VM of the README.
pub const REFERENCE_S: f64 = 0.4;

/// Length of the pointer-chasing cycle (4 bytes per entry, two arrays).
const CYCLE: usize = 1 << 20;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the kernel once on each of `threads` threads at the same time and
/// returns the host time until all have finished, in seconds.
pub fn kernel_s(threads: usize) -> f64 {
    let began = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    began.elapsed().as_secs_f64()
}

/// One thread's share of the kernel.
fn work() {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;

    let mut order: Vec<u32> = (0..CYCLE as u32).collect();
    for i in (1..CYCLE).rev() {
        order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; CYCLE];
    for i in 0..CYCLE {
        next[order[i] as usize] = order[(i + 1) % CYCLE];
    }
    let mut at = 0u32;
    for _ in 0..800_000 {
        at = next[at as usize];
    }
    acc ^= u64::from(at);

    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..400_000u64 {
        let key = xorshift(&mut x) % 100_000;
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            *map.entry(key).or_insert(0) += i;
        }
    }
    acc ^= map.len() as u64;

    let mut queue = BinaryHeap::new();
    let mut ordered = BTreeMap::new();
    for i in 0..200_000u64 {
        queue.push(Reverse(xorshift(&mut x) % 1_000_000));
        if i % 2 == 1 {
            if let Some(Reverse(v)) = queue.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        ordered.insert(xorshift(&mut x) % 50_000, vec![i as u8; 24]);
    }
    acc ^= (ordered.len() + queue.len()) as u64;

    for i in 0..40_000_000u64 {
        let v = xorshift(&mut x);
        if v & 3 == 0 {
            acc = acc.wrapping_add(v >> 7);
        } else {
            acc ^= i.wrapping_mul(v);
        }
    }

    black_box(acc);
}
