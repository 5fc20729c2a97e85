//! 3D frames — the transported unit of the streaming model (paper §II-E).

use std::fmt;

use serde::{Deserialize, Serialize};
use telecast_sim::SimTime;

use crate::stream::StreamId;

/// Sequence number of a frame within its stream.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FrameNumber(u64);

impl FrameNumber {
    /// First frame of a stream.
    pub const ZERO: FrameNumber = FrameNumber(0);

    /// Creates a frame number.
    pub const fn new(n: u64) -> Self {
        FrameNumber(n)
    }

    /// Raw sequence value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The following frame number.
    pub const fn next(self) -> FrameNumber {
        FrameNumber(self.0 + 1)
    }

    /// Saturating backwards offset — used by Eq. 2's `n − (Δ + (x+1)τ)·r`
    /// computation, which must not underflow at session start.
    pub fn saturating_back(self, frames: u64) -> FrameNumber {
        FrameNumber(self.0.saturating_sub(frames))
    }

    /// Forward offset.
    pub fn forward(self, frames: u64) -> FrameNumber {
        FrameNumber(self.0.saturating_add(frames))
    }
}

impl fmt::Display for FrameNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One captured 3D frame: `f_t^(i,n)` in the paper's stream model, where
/// `i` is the stream, `n` the frame number and `t` the capture timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Producing stream.
    pub stream: StreamId,
    /// Sequence number within the stream.
    pub number: FrameNumber,
    /// Capture timestamp at the producer.
    pub captured_at: SimTime,
    /// Encoded size in bytes.
    pub bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_number_arithmetic() {
        let n = FrameNumber::new(10);
        assert_eq!(n.next().value(), 11);
        assert_eq!(n.saturating_back(3).value(), 7);
        assert_eq!(n.saturating_back(100), FrameNumber::ZERO);
        assert_eq!(n.forward(5).value(), 15);
        assert_eq!(n.to_string(), "#10");
    }
}
