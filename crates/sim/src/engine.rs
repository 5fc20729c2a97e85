//! The discrete-event scheduler.
//!
//! A min-heap of `(time, sequence)` keys drives the simulation. Sequence
//! numbers make ties deterministic (FIFO among equal timestamps), which in
//! turn makes every experiment reproducible from its seed alone.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event returned by [`Engine::pop`]: the payload plus the instant it
/// fired at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<E> {
    /// The instant the event fired; equals [`Engine::now`] at pop time.
    pub at: SimTime,
    /// The scheduled payload.
    pub payload: E,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // sequence number as a deterministic FIFO tie-breaker.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event engine over payloads of type `E`.
///
/// The engine owns the virtual clock: [`Engine::pop`] advances
/// [`Engine::now`] to the timestamp of the earliest pending event and
/// returns it. Events scheduled at equal instants fire in scheduling order.
///
/// ```
/// use telecast_sim::{Engine, SimDuration, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::from_millis(10), "late");
/// engine.schedule_at(SimTime::from_millis(5), "early");
///
/// let fired = engine.pop().expect("two events pending");
/// assert_eq!(fired.payload, "early");
/// assert_eq!(engine.now(), SimTime::from_millis(5));
/// assert_eq!(engine.pending(), 1);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty engine whose event heap is pre-sized for
    /// `capacity` pending events.
    ///
    /// Million-viewer sessions keep roughly one live timer per connected
    /// viewer in the heap; pre-sizing avoids the doubling reallocations
    /// (and their O(n) copies) on the scheduling hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            popped: 0,
            peak_pending: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// Number of events scheduled but not yet fired.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Most events ever pending at once — the queue-pressure figure a
    /// capacity plan needs.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `payload` to fire at absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires
    /// immediately on the next pop); this mirrors how control messages that
    /// "already arrived" are handled.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) {
        self.schedule_at(self.now + after, payload)
    }

    /// Pops the earliest pending event, advancing the clock to its
    /// timestamp. Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time must be monotone");
        self.now = entry.at;
        self.popped += 1;
        Some(Fired {
            at: entry.at,
            payload: entry.payload,
        })
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    ///
    /// If the next event is later than `deadline`, the clock advances to
    /// `deadline` and `None` is returned — the idiom for "run the session
    /// for X seconds".
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<Fired<E>> {
        match self.heap.peek() {
            Some(entry) if entry.at <= deadline => self.pop(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(30), 3);
        engine.schedule_at(SimTime::from_millis(10), 1);
        engine.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| engine.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_timestamps_fire_fifo() {
        let mut engine = Engine::new();
        for i in 0..100 {
            engine.schedule_at(SimTime::from_millis(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| engine.pop().map(|f| f.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), ());
        engine.schedule_at(SimTime::from_millis(10), ());
        engine.schedule_at(SimTime::from_millis(25), ());
        let mut last = SimTime::ZERO;
        while let Some(fired) = engine.pop() {
            assert!(fired.at >= last);
            last = fired.at;
        }
        assert_eq!(engine.now(), SimTime::from_millis(25));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), "a");
        engine.pop();
        engine.schedule_at(SimTime::from_millis(1), "b");
        let fired = engine.pop().expect("clamped event fires");
        assert_eq!(fired.at, SimTime::from_millis(10));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), "early");
        engine.schedule_at(SimTime::from_millis(100), "late");
        assert_eq!(
            engine
                .pop_until(SimTime::from_millis(50))
                .map(|f| f.payload),
            Some("early")
        );
        assert_eq!(engine.pop_until(SimTime::from_millis(50)), None);
        // Clock parked at the deadline, not at the late event.
        assert_eq!(engine.now(), SimTime::from_millis(50));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn events_fired_counts_only_live() {
        // Only events that actually fired count; pending ones do not.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), ());
        engine.schedule_at(SimTime::from_millis(2), ());
        assert!(engine.pop_until(SimTime::from_millis(1)).is_some());
        assert_eq!(engine.events_fired(), 1);
        assert_eq!(engine.pending(), 1);
        while engine.pop().is_some() {}
        assert_eq!(engine.events_fired(), 2);
    }
}
