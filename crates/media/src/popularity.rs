//! Audience-level view popularity: Zipf weights plus **correlated
//! re-focus events** — the "everyone jumps to the replay view at once"
//! dynamic of multi-view dissemination.
//!
//! [`crate::ViewChoice`] models how *one* viewer picks views; this module
//! models the *audience*: a [`ViewPopularity`] couples the per-viewer
//! Zipf skew with a schedule of [`RefocusEvent`]s, each sending a
//! configurable fraction of the whole audience to one target view inside
//! a short window. The hops are correlated across viewers — the defining
//! stress of a view-switching storm, where thousands of `ViewChange`
//! requests land on the same target tree at once while the abandoned
//! trees drain.

use serde::{Deserialize, Serialize};
use telecast_sim::{SimDuration, SimTime};

use crate::view::ViewId;
use crate::workload::ViewChoice;

/// One correlated re-focus: at `at`, a `fraction` of the audience hops to
/// `target`, each viewer at an independent uniform instant within
/// `window`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefocusEvent {
    /// When the re-focus window opens (absolute workload time).
    pub at: SimTime,
    /// Length of the window the hops spread over; zero means all
    /// participating viewers hop exactly at `at`.
    pub window: SimDuration,
    /// The view everyone hops to (the "replay view").
    pub target: ViewId,
    /// Fraction of the audience that participates, in `[0, 1]`.
    pub fraction: f64,
}

impl RefocusEvent {
    /// Validates the event's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fraction.is_finite() || !(0.0..=1.0).contains(&self.fraction) {
            return Err(format!("refocus fraction out of [0, 1]: {}", self.fraction));
        }
        Ok(())
    }
}

/// The audience's view-popularity model: Zipf-skewed individual choice
/// plus a time-ordered schedule of correlated [`RefocusEvent`]s.
///
/// ```
/// use telecast_media::{RefocusEvent, ViewId, ViewPopularity};
/// use telecast_sim::{SimDuration, SimTime};
///
/// let pop = ViewPopularity::zipf(1.1).with_refocus(RefocusEvent {
///     at: SimTime::from_secs(120),
///     window: SimDuration::from_secs(5),
///     target: ViewId::new(7),
///     fraction: 0.6,
/// });
/// assert!(pop.validate().is_ok());
/// assert_eq!(pop.refocus_events().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewPopularity {
    zipf_s: f64,
    refocus: Vec<RefocusEvent>,
}

impl ViewPopularity {
    /// Zipf-skewed popularity with exponent `s` (0 degenerates to
    /// uniform) and no re-focus events.
    pub fn zipf(s: f64) -> Self {
        ViewPopularity {
            zipf_s: s,
            refocus: Vec::new(),
        }
    }

    /// Uniform popularity (the Zipf exponent-0 degenerate case).
    pub fn uniform() -> Self {
        Self::zipf(0.0)
    }

    /// Appends a re-focus event. Events may be appended in any order;
    /// consumers see them sorted by window-open time.
    pub fn with_refocus(mut self, event: RefocusEvent) -> Self {
        self.refocus.push(event);
        self.refocus
            .sort_by_key(|e| (e.at, e.target, e.window.as_micros()));
        self
    }

    /// The per-viewer choice model this popularity induces.
    pub fn choice(&self) -> ViewChoice {
        ViewChoice::Zipf { s: self.zipf_s }
    }

    /// The re-focus schedule, sorted by window-open time.
    pub fn refocus_events(&self) -> &[RefocusEvent] {
        &self.refocus
    }

    /// Validates the exponent and every scheduled event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.zipf_s.is_finite() || self.zipf_s < 0.0 {
            return Err(format!("zipf exponent invalid: {}", self.zipf_s));
        }
        for event in &self.refocus {
            event.validate()?;
        }
        Ok(())
    }

    /// Checks every re-focus target against a catalog of `catalog_len`
    /// views.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-catalog target.
    pub fn validate_against_catalog(&self, catalog_len: usize) -> Result<(), String> {
        for event in &self.refocus {
            if event.target.index() >= catalog_len {
                return Err(format!(
                    "refocus target {} outside catalog of {catalog_len} views",
                    event.target
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refocus_events_sort_by_open_time() {
        let pop = ViewPopularity::zipf(1.0)
            .with_refocus(RefocusEvent {
                at: SimTime::from_secs(200),
                window: SimDuration::from_secs(5),
                target: ViewId::new(1),
                fraction: 0.5,
            })
            .with_refocus(RefocusEvent {
                at: SimTime::from_secs(100),
                window: SimDuration::from_secs(5),
                target: ViewId::new(2),
                fraction: 0.5,
            });
        let opens: Vec<_> = pop.refocus_events().iter().map(|e| e.at).collect();
        assert_eq!(
            opens,
            vec![SimTime::from_secs(100), SimTime::from_secs(200)]
        );
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(ViewPopularity::zipf(f64::NAN).validate().is_err());
        assert!(ViewPopularity::zipf(-0.5).validate().is_err());
        let bad = ViewPopularity::zipf(1.0).with_refocus(RefocusEvent {
            at: SimTime::ZERO,
            window: SimDuration::ZERO,
            target: ViewId::new(0),
            fraction: 1.5,
        });
        assert!(bad.validate().is_err());
        let outside = ViewPopularity::zipf(1.0).with_refocus(RefocusEvent {
            at: SimTime::ZERO,
            window: SimDuration::ZERO,
            target: ViewId::new(9),
            fraction: 0.5,
        });
        assert!(outside.validate().is_ok());
        assert!(outside.validate_against_catalog(8).is_err());
        assert!(outside.validate_against_catalog(10).is_ok());
    }

    #[test]
    fn uniform_is_the_zero_exponent() {
        assert_eq!(
            ViewPopularity::uniform().choice(),
            ViewChoice::Zipf { s: 0.0 }
        );
    }
}
