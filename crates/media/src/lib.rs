#![warn(missing_docs)]

//! 3DTI media model for the 4D TeleCast reproduction.
//!
//! Implements Section II of the paper: producer sites hosting camera
//! streams with spatial orientations, the stream differentiation function
//! `df(S, v) = S.w · v.w`, per-site priority indexes `η`, the global
//! priority `η − df`, threshold cutoff, local and global (4D) views, the
//! view-change model, plus the synthetic TEEVE frame traces and viewer
//! workload generators the evaluation replays.
//!
//! # Audience models
//!
//! Two models describe what a simulated audience does:
//!
//! * [`ViewerWorkload::builder`] — one-shot audiences, scripted as three
//!   [`WorkloadEvent`]s (`Join { viewer, view }`, `ViewChange { viewer,
//!   view }` and `Depart { viewer }`) in one time-ordered
//!   [`ViewerWorkload`]: an [`ArrivalModel`] (flash / staggered /
//!   Poisson), a [`ViewChoice`] (single / uniform / Zipf), per-viewer
//!   Poisson view changes and a departing fraction. [`ViewPopularity`]
//!   lifts the choice model to the audience level by adding correlated
//!   [`RefocusEvent`]s — a fraction of *everyone* hops to one target
//!   view inside a short window (the view-switching storm).
//! * [`ChurnSpec`] — sustained membership: Poisson arrivals under a
//!   [`RateProfile`] (constant, or a diurnal wave with optional flash
//!   spikes), lognormal dwells and a failing fraction.
//!   `telecast::TelecastSession::start_churn` replays the spec live
//!   through the event engine; it emits joins, departures and failures,
//!   never view changes.
//!
//! Both models draw every stochastic input from the caller's
//! [`telecast_sim::SimRng`], and every off-by-default knob consumes zero
//! RNG draws when unused — so a pre-existing seed replays its event
//! script byte-identically after the vocabulary grows.
//!
//! # Example
//!
//! ```
//! use telecast_media::{ProducerSite, ViewCatalog};
//!
//! // The paper's evaluation setup: 2 sites × 8 cameras, 3 streams per
//! // local view.
//! let sites = ProducerSite::teeve_pair();
//! let catalog = ViewCatalog::canonical(&sites, 3);
//! let view = catalog.view(telecast_media::ViewId::new(0));
//! assert_eq!(view.streams().count(), 6); // 3 from each site
//! ```

mod frame;
mod popularity;
mod producer;
mod rate;
mod stream;
mod teeve;
mod view;
mod workload;

pub use frame::{Frame, FrameNumber};
pub use popularity::{RefocusEvent, ViewPopularity};
pub use producer::ProducerSite;
pub use rate::{RateProfile, SpikeWindow, MAX_SPIKE_WINDOWS};
pub use stream::{Orientation, SiteId, StreamId, StreamInfo};
pub use teeve::{SyntheticTeeveTrace, TeeveStreamConfig};
pub use view::{GlobalView, LocalView, PrioritizedStream, ViewCatalog, ViewId};
pub use workload::{ArrivalModel, ChurnSpec, ViewChoice, ViewerWorkload, WorkloadEvent};
