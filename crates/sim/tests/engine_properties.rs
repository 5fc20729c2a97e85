//! Property-based tests of the discrete-event engine: ordering, FIFO ties,
//! queue accounting, and clock monotonicity under arbitrary schedules.

use proptest::prelude::*;
use telecast_sim::{Engine, SimDuration, SimTime};

proptest! {
    /// Events always fire in non-decreasing time order, whatever the
    /// scheduling order was.
    #[test]
    fn fires_in_nondecreasing_time(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut fired = 0usize;
        while let Some(ev) = engine.pop() {
            prop_assert!(ev.at >= last);
            last = ev.at;
            fired += 1;
        }
        prop_assert_eq!(fired, times.len());
    }

    /// Among events with the same timestamp, scheduling order is preserved.
    #[test]
    fn equal_times_fifo(groups in proptest::collection::vec(0u64..16, 1..100)) {
        let mut engine = Engine::new();
        for (i, &g) in groups.iter().enumerate() {
            engine.schedule_at(SimTime::from_millis(g), i);
        }
        let mut last_seq_per_time: std::collections::HashMap<u64, usize> = Default::default();
        while let Some(ev) = engine.pop() {
            if let Some(&prev) = last_seq_per_time.get(&ev.at.as_micros()) {
                prop_assert!(ev.payload > prev, "FIFO violated at {}", ev.at);
            }
            last_seq_per_time.insert(ev.at.as_micros(), ev.payload);
        }
    }

    /// pop_until never yields an event beyond the deadline and always parks
    /// the clock at exactly the deadline when it returns None. Popped events
    /// may schedule a follow-up, so the queue grows and shrinks; after every
    /// step `pending()` is exactly the events scheduled minus those popped,
    /// `events_fired()` counts the pops, and `peak_pending()` is the running
    /// maximum of `pending()`.
    #[test]
    fn pop_until_honours_deadline(
        times in proptest::collection::vec(0u64..2_000, 0..100),
        follow_ups in proptest::collection::vec(0u64..500, 0..100),
        deadline in 0u64..2_000,
    ) {
        let mut engine = Engine::new();
        let (mut scheduled, mut popped, mut peak) = (0usize, 0usize, 0usize);
        for &t in &times {
            engine.schedule_at(SimTime::from_micros(t), t);
            scheduled += 1;
            peak = peak.max(scheduled);
            prop_assert_eq!(engine.pending(), scheduled);
            prop_assert_eq!(engine.peak_pending(), peak);
        }
        let deadline = SimTime::from_micros(deadline);
        while let Some(ev) = engine.pop_until(deadline) {
            prop_assert!(ev.at <= deadline);
            popped += 1;
            prop_assert_eq!(engine.pending(), scheduled - popped);
            prop_assert_eq!(engine.events_fired(), popped as u64);
            if let Some(&gap) = follow_ups.get(popped - 1) {
                engine.schedule_at(ev.at + SimDuration::from_micros(gap), gap);
                scheduled += 1;
                peak = peak.max(scheduled - popped);
                prop_assert_eq!(engine.pending(), scheduled - popped);
            }
            prop_assert_eq!(engine.peak_pending(), peak);
        }
        prop_assert_eq!(engine.pending(), scheduled - popped);
        prop_assert!(engine.now() >= deadline);
    }
}
