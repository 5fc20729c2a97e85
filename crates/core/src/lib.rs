#![warn(missing_docs)]

//! # 4D TeleCast
//!
//! A full reproduction of **"4D TeleCast: Towards Large Scale Multi-site
//! and Multi-view Dissemination of 3DTI Contents"** (Arefin, Huang,
//! Nahrstedt, Agarwal — ICDCS 2012): a hybrid CDN + P2P dissemination
//! framework that scales live multi-stream 3D tele-immersive content to
//! hundreds–thousands of passive viewers with run-time view selection.
//!
//! The crate implements the paper's three pillars:
//!
//! 1. **Multi-stream overlay construction** (§IV) — priority-driven
//!    inbound allocation, round-robin outbound allocation
//!    ([`alloc`]), and per-stream trees built with the degree push-down
//!    algorithm inside view groups;
//! 2. **View synchronization** (§V) — the delay-layer hierarchy
//!    ([`LayerScheme`]; Equations 1–2, Layer Properties 1–2), viewer
//!    buffer/cache ([`ViewerBuffer`]), and layer push-down subscription
//!    with chained propagation;
//! 3. **System adaptation** (§VI) — fast CDN-backed view changes with
//!    background joins, victim recovery, and delay-layer adaptation.
//!
//! [`TelecastSession`] is the facade: configure with [`SessionConfig`],
//! provision viewers, drive joins/view-changes/departures (directly or
//! from a scripted [`telecast_media::ViewerWorkload`]), and read the
//! metrics the paper's figures plot.
//!
//! ```
//! use telecast::{SessionConfig, TelecastSession};
//! use telecast_media::ViewId;
//!
//! let mut session = TelecastSession::builder(SessionConfig::default())
//!     .viewers(50)
//!     .build();
//! for v in session.viewer_ids().to_vec() {
//!     session.request_join(v, ViewId::new(0))?;
//! }
//! session.run_to_idle();
//! println!("ρ = {}", session.metrics().acceptance_ratio());
//! println!("CDN = {} Mbps", session.cdn().outbound().used().as_mbps_f64());
//! # Ok::<(), telecast::TelecastError>(())
//! ```

pub mod alloc;
mod buffer;
mod churn;
mod config;
mod dataplane;
mod error;
mod layers;
mod metrics;
mod monitor;
mod protocol;
mod runtime;
mod session;
mod shard;
mod tenancy;
mod viewer;

pub use buffer::ViewerBuffer;
pub use config::{DelayModelChoice, GroupScope, OutboundPolicy, PlacementStrategy, SessionConfig};
pub use dataplane::{DataPlane, RenderReport};
pub use error::{RejectReason, TelecastError};
pub use layers::LayerScheme;
pub use metrics::SessionMetrics;
pub use monitor::{GscMonitor, StreamMeta};
pub use protocol::{ControlMessage, ProtocolLog, ProtocolPhase};
pub use runtime::{EpochRuntime, MemberStats};
pub use session::{SessionBuilder, TelecastSession};
pub use shard::{ShardedSession, Shards};
pub use tenancy::{TenantFleet, Tenants};
pub use viewer::{StreamSub, VecMap, ViewerState, ViewerStatus};
