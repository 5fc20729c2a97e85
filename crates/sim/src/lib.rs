#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the 4D TeleCast
//! reproduction.
//!
//! The paper evaluates 4D TeleCast "using a discrete event simulator"
//! (Section VII). This crate is that substrate: a µs-resolution virtual
//! clock, a scheduler with deterministic FIFO tie-breaking, seeded random
//! number helpers, and the statistics toolkit (histograms, CDFs, counters)
//! the experiment harness consumes.
//!
//! # Example
//!
//! ```
//! use telecast_sim::{Engine, SimDuration};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_after(SimDuration::from_millis(5), "world");
//! engine.schedule_after(SimDuration::from_millis(1), "hello");
//!
//! let mut seen = Vec::new();
//! while let Some(fired) = engine.pop() {
//!     seen.push(fired.payload);
//! }
//! assert_eq!(seen, vec!["hello", "world"]);
//! ```

mod engine;
mod hash;
mod parallel;
mod pool;
mod rng;
mod shard;
mod stats;
mod time;

pub use engine::{Engine, Fired};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use parallel::{default_parallelism, parallel_map, parallel_map_with};
pub use pool::WorkerPool;
pub use rng::{SampleRange, SampleUniform, SimRng};
pub use shard::{merge_outboxes, merge_outboxes_into, EpochSchedule, Outbox, OutboxEntry};
pub use stats::{
    empirical_cdf, merge_step_sum, Cdf, CdfPoint, Counter, Histogram, Summary, TimeSeries,
};
pub use time::{SimDuration, SimTime};
