#![warn(missing_docs)]

//! P2P overlay substrate for the 4D TeleCast reproduction (paper §III-B,
//! §IV-B2).
//!
//! Inside each view group, 4D TeleCast maintains one dissemination tree per
//! accepted stream, rooted at the CDN. This crate provides:
//!
//! * [`StreamTree`] — the per-stream tree with bounded per-node out-degree
//!   and the **degree push-down** insertion of the paper's Algorithm 1
//!   (higher out-degree viewers displace weaker ones towards the root;
//!   empty child slots behave as virtual `oDeg = −1` entries),
//! * [`ViewGroup`]/[`GroupTable`] — grouping of viewers by requested view,
//!   "so that the popular view creates enough resources (or seeds) … and
//!   does not get interfered by the non-popular views",
//! * [`SessionRoutingTable`] — the viewer data plane of Table I: match
//!   field (parent, stream) → forwarding addresses and subscription
//!   points. It is a derived view: a session builds it on demand from
//!   the subscriptions that name the viewer as their parent, and stores
//!   no copy.
//!
//! # The per-view tree model and prune/merge
//!
//! Each view group owns one [`StreamTree`] per accepted stream: a forest
//! rooted at the CDN whose depth-0 members ("fragments") each hold a CDN
//! serve, with P2P children below them. Churn and view switching
//! fragment that forest — `remove` re-roots every orphaned child at
//! depth 0 pending recovery, and a view-switching storm can drain a
//! group's audience entirely while the stragglers' fragments keep their
//! CDN slots. Two operations shrink an abandoned view's overlay again:
//!
//! * **merge** — [`StreamTree::reposition_from_cdn`] folds one
//!   CDN-rooted fragment back under a P2P parent; the caller walks
//!   [`StreamTree::cdn_fragment_roots`] weakest root first (the same
//!   `(out_degree, C_obw, id)` order the attach planner probes) and
//!   releases each folded root's CDN capacity back to the pool; at
//!   least one CDN root always remains in a non-empty tree;
//! * **retire** — [`GroupTable::retire_if_drained`] removes a group
//!   whose membership and trees have fully drained; the next request
//!   for the view recreates it lazily through [`GroupTable::group_for`].
//!
//! Both are deterministic (weakest-first merge order, one view retired
//! at a time) and preserve every maintained index invariant —
//! `check_invariants` verifies symmetry, degree bounds, acyclicity and
//! reachability after each pass, and a property test asserts no
//! connected viewer is ever stranded.
//!
//! # Example
//!
//! ```
//! use telecast_overlay::{StreamTree, TreeParent};
//! use telecast_media::{SiteId, StreamId};
//! use telecast_net::Bandwidth;
//! use telecast_net::{NodeKind, NodeRegistry, Region};
//!
//! let mut nodes = NodeRegistry::new();
//! let a = nodes.add(NodeKind::Viewer, Region::Europe);
//! let b = nodes.add(NodeKind::Viewer, Region::Europe);
//!
//! let stream = StreamId::new(SiteId::new(0), 0);
//! let mut tree = StreamTree::new(stream);
//! // First viewer must come from the CDN (no peers yet).
//! assert!(tree.insert(a, 2, Bandwidth::from_mbps(4)).is_none());
//! tree.attach_to_cdn(a, 2, Bandwidth::from_mbps(4));
//! // Second viewer finds a P2P slot under the first.
//! let parent = tree.insert(b, 0, Bandwidth::ZERO).expect("slot available");
//! assert_eq!(parent, TreeParent::Viewer(a));
//! ```

mod group;
mod routing;
mod tree;

pub use group::{GroupTable, ViewGroup};
pub use routing::{RouteEntry, SessionRoutingTable, SubscriptionPoint};
pub use tree::{StreamTree, TreeMetrics, TreeParent};
