//! Per-stream dissemination trees and the degree push-down algorithm.
//!
//! Algorithm 1 of the paper, with the stated semantics:
//!
//! * a breadth-first scan from the root keeps, per level, viewers in
//!   ascending out-degree order;
//! * empty child slots are treated as virtual children of out-degree −1,
//!   so "attach to a free slot" and "displace a weaker viewer" are the same
//!   replacement rule;
//! * a displaced viewer keeps its own subtree and becomes a child of the
//!   viewer that displaced it;
//! * the CDN root itself is never displaced and its (pool-bounded) slots
//!   are *not* offered to the scan — falling back to the CDN is the
//!   caller's decision when the scan fails, matching "the algorithm first
//!   tries to provision a viewer request from the available viewers …, if
//!   failed, the request is provisioned from the CDN".
//!
//! The scan itself is **not** implemented as a traversal. Every member
//! carries its depth, and two level sets, indexed by depth, are kept in
//! step with every structural change:
//!
//! * `level_members[d]` — the members at depth `d`, ascending
//!   `(out_degree, C_obw, id)`, so the weakest (first-displaced) position
//!   of a level is its first entry;
//! * `level_free[d]` — the members at depth `d` with at least one free
//!   child slot, in the same order, so the level's first-offered free
//!   slot is its first entry.
//!
//! The attach planner walks depths shallow-to-deep probing only these
//! first entries (`O(log n)` each), reproducing the BFS decision — free
//! slots under level-`d−1` parents are offered before displacement at
//! level `d` — without ever visiting the tree. Per-attach work is
//! `O(levels · log n)` instead of `O(n)`; [`StreamTree::attach_probes`]
//! counts the level probes so scale tests can assert the bound.
//!
//! The CDN root's children are the depth-0 members, not a set of their
//! own. The one other index is the id-ordered set of free-slot holders,
//! which the first-fit baseline's parent choice and the saturated-tree
//! fast path read. A member's children are a sorted vector (there are at
//! most out-degree of them), so victims and children come out in
//! ascending id order.

use std::collections::BTreeSet;
use std::ops::Range;

use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_media::StreamId;
use telecast_net::{Bandwidth, NodeId};

/// A tree position's upstream: either the CDN root or another viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeParent {
    /// Served directly from the CDN edge.
    Cdn,
    /// Served by a peer viewer.
    Viewer(NodeId),
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct TreeNode {
    /// Granted out-degree for this stream (`oDeg`, number of child slots).
    out_degree: u32,
    /// Total outbound capacity (`C_obw`) — Algorithm 1's tie-breaker.
    outbound_capacity: Bandwidth,
    parent: TreeParent,
    /// Child ids in ascending order; never more than `out_degree`.
    children: Vec<NodeId>,
    /// Hop count from the CDN root (direct CDN children have depth 0).
    /// Maintained on every structural change; subtree moves shift every
    /// descendant.
    depth: usize,
}

impl TreeNode {
    /// This member's `(out_degree, C_obw, id)` level-set key.
    fn key(&self, id: NodeId) -> StrengthKey {
        (self.out_degree, self.outbound_capacity, id)
    }

    fn has_free_slot(&self) -> bool {
        (self.children.len() as u32) < self.out_degree
    }

    fn add_child(&mut self, child: NodeId) {
        if let Err(at) = self.children.binary_search(&child) {
            self.children.insert(at, child);
        }
    }

    fn remove_child(&mut self, child: NodeId) {
        if let Ok(at) = self.children.binary_search(&child) {
            self.children.remove(at);
        }
    }
}

/// Aggregate shape statistics of a tree (for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeMetrics {
    /// Number of member viewers.
    pub members: usize,
    /// Number of direct CDN children.
    pub cdn_children: usize,
    /// Maximum depth (direct CDN children have depth 0).
    pub max_depth: usize,
    /// Mean depth over all members.
    pub mean_depth: f64,
}

/// Index key: ascending `(out_degree, C_obw, id)` — the first entry of a
/// set ordered this way is the level's weakest position, with the id as
/// an explicit deterministic tie-breaker.
type StrengthKey = (u32, Bandwidth, NodeId);

/// Strength-ordered key sets indexed by depth. Trailing empty levels are
/// trimmed, so the last index is the deepest non-empty level; an inner
/// level may be empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Levels(Vec<BTreeSet<StrengthKey>>);

impl Levels {
    fn insert(&mut self, depth: usize, key: StrengthKey) {
        if self.0.len() <= depth {
            self.0.resize_with(depth + 1, BTreeSet::new);
        }
        self.0[depth].insert(key);
    }

    fn remove(&mut self, depth: usize, key: &StrengthKey) {
        if let Some(set) = self.0.get_mut(depth) {
            set.remove(key);
        }
        while self.0.last().is_some_and(BTreeSet::is_empty) {
            self.0.pop();
        }
    }

    /// Moves `key` from level `from` to level `to` (inserting first, so a
    /// downward move never trims and re-grows the deepest level).
    fn relocate(&mut self, from: usize, to: usize, key: StrengthKey) {
        self.insert(to, key);
        self.remove(from, &key);
    }

    /// The weakest entry at `depth`.
    fn first(&self, depth: usize) -> Option<&StrengthKey> {
        self.0.get(depth).and_then(BTreeSet::first)
    }
}

/// The planner's verdict for one attach request.
#[derive(Debug, Clone, Copy)]
enum AttachPlan {
    /// Take a free child slot under this member.
    Free {
        /// The member offering the slot.
        under: NodeId,
    },
    /// Displace this member, inheriting its position.
    Displace {
        /// The member being displaced.
        victim: NodeId,
    },
}

/// The tree's reusable buffer for subtree walks, so a walk allocates
/// nothing once the buffer has grown to the largest subtree moved. It
/// holds no tree state between calls: it compares equal to any other,
/// clones empty and is not serialised.
#[derive(Debug, Default)]
struct WalkBuf(Vec<NodeId>);

impl Clone for WalkBuf {
    fn clone(&self) -> Self {
        WalkBuf::default()
    }
}

impl PartialEq for WalkBuf {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for WalkBuf {}

/// One stream's dissemination tree inside a view group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamTree {
    stream: StreamId,
    nodes: FxHashMap<NodeId, TreeNode>,
    /// Members with at least one free forwarding slot, in id order: the
    /// first-fit baseline's parent choice, the O(1) supply check and the
    /// saturated-tree fast path.
    free_slots: BTreeSet<NodeId>,
    /// Members per depth, ascending strength — the displacement half of
    /// the attach planner. Depth 0 holds the CDN root's children.
    level_members: Levels,
    /// Free-slot holders per depth, ascending strength — the free-slot
    /// half of the attach planner.
    level_free: Levels,
    /// Cumulative level probes performed by the attach planner; scale
    /// tests assert this stays far below members × joins (i.e. no O(n)
    /// per-join traversal was reintroduced).
    attach_probes: u64,
    /// Cumulative per-node depth updates performed by subtree moves
    /// (displacement slides the victim's subtree one level down;
    /// reposition re-roots the parked subtree). Planning is O(log n),
    /// but *applying* a displacement costs O(victim subtree); this
    /// counter makes that cost observable so scale tests can bound it.
    /// The worst case — strictly ascending-strength arrivals, each
    /// displacing the root of a growing chain — is O(n) per join, the
    /// same as the replaced BFS; realistic mixes displace weak members
    /// with few descendants (a degree-0 victim has none).
    depth_shift_ops: u64,
    /// Scratch for [`Self::push_subtree`] and [`Self::shift_subtree`].
    /// Walks stack on it: each appends past what an enclosing walk
    /// holds and truncates back when done.
    #[serde(skip)]
    walk: WalkBuf,
}

impl StreamTree {
    /// Creates an empty tree for `stream`.
    pub fn new(stream: StreamId) -> Self {
        StreamTree {
            stream,
            nodes: FxHashMap::default(),
            free_slots: BTreeSet::new(),
            level_members: Levels::default(),
            level_free: Levels::default(),
            attach_probes: 0,
            depth_shift_ops: 0,
            walk: WalkBuf::default(),
        }
    }

    /// The stream this tree disseminates.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Number of member viewers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no viewers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `viewer` is a member.
    pub fn contains(&self, viewer: NodeId) -> bool {
        self.nodes.contains_key(&viewer)
    }

    /// The viewer's parent, if a member.
    pub fn parent_of(&self, viewer: NodeId) -> Option<TreeParent> {
        self.nodes.get(&viewer).map(|n| n.parent)
    }

    /// The viewer's children in ascending id order (empty if not a
    /// member).
    pub fn children_of(&self, viewer: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .get(&viewer)
            .into_iter()
            .flat_map(|n| n.children.iter().copied())
    }

    /// Direct children of the CDN root, in ascending id order.
    pub fn cdn_children(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut roots = self.cdn_fragment_roots();
        roots.sort_unstable();
        roots.into_iter()
    }

    /// The viewer's granted out-degree, if a member.
    pub fn out_degree_of(&self, viewer: NodeId) -> Option<u32> {
        self.nodes.get(&viewer).map(|n| n.out_degree)
    }

    /// The viewer's total outbound capacity (`C_obw`, Algorithm 1's
    /// tie-breaker), if a member.
    pub fn outbound_capacity_of(&self, viewer: NodeId) -> Option<Bandwidth> {
        self.nodes.get(&viewer).map(|n| n.outbound_capacity)
    }

    /// Free forwarding slots of `viewer`.
    pub fn free_slots_of(&self, viewer: NodeId) -> u32 {
        self.nodes
            .get(&viewer)
            .map(|n| n.out_degree.saturating_sub(n.children.len() as u32))
            .unwrap_or(0)
    }

    /// Hop count from the CDN (direct CDN children are depth 0), if a
    /// member. O(1) — depths are maintained, not recomputed.
    pub fn depth_of(&self, viewer: NodeId) -> Option<usize> {
        self.nodes.get(&viewer).map(|n| n.depth)
    }

    /// Cumulative level probes performed by the attach planner since the
    /// tree was created. Each probe is an O(log n) index lookup; the
    /// total bounds the planner's work and lets scale tests prove no
    /// O(n) per-join traversal happens.
    pub fn attach_probes(&self) -> u64 {
        self.attach_probes
    }

    /// Cumulative per-node depth updates from subtree moves (see the
    /// `depth_shift_ops` field docs): the *apply* cost of displacements
    /// and repositions, complementing [`StreamTree::attach_probes`]'
    /// planning cost.
    pub fn depth_shift_ops(&self) -> u64 {
        self.depth_shift_ops
    }

    /// Iterates over all member viewers (unordered).
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Adds a new member and indexes it at its depth.
    fn enter(&mut self, viewer: NodeId, node: TreeNode) {
        self.level_members.insert(node.depth, node.key(viewer));
        self.nodes.insert(viewer, node);
        self.refresh_slot(viewer);
    }

    /// Re-derives `viewer`'s free-slot entries (flat and per-level) from
    /// its current child count; call after any change to its children.
    fn refresh_slot(&mut self, viewer: NodeId) {
        let n = &self.nodes[&viewer];
        let key = n.key(viewer);
        if n.has_free_slot() {
            self.free_slots.insert(viewer);
            self.level_free.insert(n.depth, key);
        } else {
            self.free_slots.remove(&viewer);
            self.level_free.remove(n.depth, &key);
        }
    }

    /// Appends `root` plus every descendant, in BFS order, to the walk
    /// buffer; returns where they sit in it.
    fn push_subtree(&mut self, root: NodeId) -> Range<usize> {
        let walk = &mut self.walk.0;
        let start = walk.len();
        walk.push(root);
        let mut i = start;
        while let Some(&v) = walk.get(i) {
            i += 1;
            walk.extend_from_slice(&self.nodes[&v].children);
        }
        start..walk.len()
    }

    /// Shifts the depth of every member of `root`'s subtree by `delta`,
    /// moving each one's level entries. O(subtree size), one node lookup
    /// per member; a shift changes no child count, so the id-ordered
    /// free-slot set is untouched. Subtree moves (displacement, victim
    /// re-rooting) are the only places depth can change for more than
    /// one node.
    fn shift_subtree(&mut self, root: NodeId, delta: isize) {
        if delta == 0 {
            return;
        }
        let walk = &mut self.walk.0;
        let start = walk.len();
        walk.push(root);
        let mut i = start;
        while let Some(&v) = walk.get(i) {
            i += 1;
            let n = self.nodes.get_mut(&v).expect("subtree member");
            let (from, key) = (n.depth, n.key(v));
            n.depth = (from as isize + delta) as usize;
            self.level_members.relocate(from, n.depth, key);
            if n.has_free_slot() {
                self.level_free.relocate(from, n.depth, key);
            }
            walk.extend_from_slice(&n.children);
        }
        self.depth_shift_ops += (walk.len() - start) as u64;
        walk.truncate(start);
    }

    /// Takes a parked subtree (hung at depth 0, held in the walk buffer
    /// at `subtree`) out of the level sets, so the planner offers none
    /// of its members or slots, and counts one depth update per member.
    fn hide(&mut self, subtree: Range<usize>) {
        for &v in &self.walk.0[subtree.clone()] {
            let n = &self.nodes[&v];
            let key = n.key(v);
            self.level_members.remove(n.depth, &key);
            if n.has_free_slot() {
                self.level_free.remove(n.depth, &key);
            }
        }
        self.depth_shift_ops += subtree.len() as u64;
    }

    /// Puts a hidden subtree (held in the walk buffer at `subtree`) back
    /// into the level sets, hung `offset` levels below the CDN root.
    fn rehang(&mut self, subtree: Range<usize>, offset: usize) {
        for &v in &self.walk.0[subtree] {
            let n = self.nodes.get_mut(&v).expect("subtree member");
            n.depth += offset;
            let key = n.key(v);
            self.level_members.insert(n.depth, key);
            if n.has_free_slot() {
                self.level_free.insert(n.depth, key);
            }
        }
    }

    /// The depth-aware attach planner: reproduces Algorithm 1's BFS
    /// decision from the level sets alone.
    ///
    /// Walking depths shallow-to-deep, each step probes (a) the first
    /// free-slot holder one level up — the BFS offers free child slots of
    /// level-`d−1` parents before level-`d` members — and (b) the
    /// level's weakest member, displaced iff the joiner is strictly
    /// stronger in `(out_degree, C_obw)`. Ties among equal-strength
    /// candidates break on the lowest id (the BFS's stable scan order,
    /// made explicit).
    fn plan_attach(
        &mut self,
        out_degree: u32,
        outbound_capacity: Bandwidth,
        can_displace: bool,
    ) -> Option<AttachPlan> {
        let deepest = self.level_members.0.len().checked_sub(1)?;
        for d in 0..=deepest + 1 {
            self.attach_probes += 1;
            if let Some(&(_, _, under)) = d.checked_sub(1).and_then(|up| self.level_free.first(up))
            {
                return Some(AttachPlan::Free { under });
            }
            if can_displace {
                if let Some(&(wdeg, wcap, victim)) = self.level_members.first(d) {
                    if out_degree > wdeg || (out_degree == wdeg && outbound_capacity > wcap) {
                        return Some(AttachPlan::Displace { victim });
                    }
                }
            }
        }
        None
    }

    /// **Algorithm 1 (degree push-down).** Tries to place `viewer` (with
    /// per-stream out-degree `out_degree` and total outbound capacity
    /// `outbound_capacity`) among the current members.
    ///
    /// Returns the parent the viewer was attached under, or `None` if no
    /// P2P position exists (the caller then provisions from the CDN via
    /// [`StreamTree::attach_to_cdn`], or rejects the stream).
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is already a member.
    pub fn insert(
        &mut self,
        viewer: NodeId,
        out_degree: u32,
        outbound_capacity: Bandwidth,
    ) -> Option<TreeParent> {
        assert!(
            !self.contains(viewer),
            "viewer {viewer} already in tree for {}",
            self.stream
        );
        // Saturated fast path. With no free slot anywhere, every member
        // has exactly out-degree children, so the out-degrees sum to the
        // member count less the CDN children: some member has degree 0,
        // and any joiner with a slot of its own is strictly stronger.
        // Only a zero-degree joiner (which cannot displace; see below)
        // is sure to find no position, and is answered without probing.
        if out_degree == 0 && self.free_slots.is_empty() {
            return None;
        }
        // Displacement makes the victim a child of the joiner, so the
        // joiner must have a slot to serve it from — a zero-degree viewer
        // can only take free slots.
        match self.plan_attach(out_degree, outbound_capacity, out_degree > 0) {
            Some(AttachPlan::Free { under }) => {
                self.attach(
                    viewer,
                    out_degree,
                    outbound_capacity,
                    TreeParent::Viewer(under),
                );
                Some(TreeParent::Viewer(under))
            }
            Some(AttachPlan::Displace { victim }) => {
                let parent = self.nodes[&victim].parent;
                self.displace(viewer, out_degree, outbound_capacity, victim);
                Some(parent)
            }
            None => None,
        }
    }

    /// Attaches `viewer` directly under the CDN root. The caller is
    /// responsible for having reserved CDN pool bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is already a member.
    pub fn attach_to_cdn(&mut self, viewer: NodeId, out_degree: u32, outbound_capacity: Bandwidth) {
        self.attach(viewer, out_degree, outbound_capacity, TreeParent::Cdn);
    }

    /// Attaches `viewer` under an explicit member parent — the primitive
    /// behind the Random and first-fit baselines, which pick parents
    /// without the push-down rule.
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is already a member, `parent` is not, or the
    /// parent has no free slot.
    pub fn attach_under(
        &mut self,
        viewer: NodeId,
        out_degree: u32,
        outbound_capacity: Bandwidth,
        parent: NodeId,
    ) {
        assert!(self.contains(parent), "parent {parent} is not a member");
        assert!(
            self.free_slots_of(parent) > 0,
            "parent {parent} has no free slot"
        );
        self.attach(
            viewer,
            out_degree,
            outbound_capacity,
            TreeParent::Viewer(parent),
        );
    }

    /// The first member (in id order) with a free forwarding slot — the
    /// first-fit baseline's parent choice. O(log n) via the maintained
    /// free-slot index (it is ordered by id, so the first entry is the
    /// minimum).
    pub fn first_free_slot_holder(&self) -> Option<NodeId> {
        self.free_slots.first().copied()
    }

    /// Whether any member has a free forwarding slot — the P2P-supply
    /// check of the inbound allocation's condition (2). O(1) via the
    /// maintained free-slot index.
    pub fn has_free_slot(&self) -> bool {
        !self.free_slots.is_empty()
    }

    /// Re-runs degree push-down for an *existing* member (a victim parked
    /// at the CDN root): detaches it, plans a position over the remaining
    /// tree (its own subtree is hidden from the level sets during the
    /// search, so no cycle can form), and re-attaches it — keeping its
    /// children.
    ///
    /// Returns the new parent, or `None` if no position exists (the
    /// viewer is restored to the CDN root in that case).
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is not a member or not currently a CDN child.
    pub fn reposition_from_cdn(&mut self, viewer: NodeId) -> Option<TreeParent> {
        assert!(
            self.parent_of(viewer) == Some(TreeParent::Cdn),
            "reposition requires {viewer} to be parked at the CDN"
        );
        // Detach: hide the viewer's subtree from the planner so neither
        // its free slots nor its members are candidates (the viewer
        // cannot become its own descendant).
        let subtree = self.push_subtree(viewer);
        self.hide(subtree.clone());
        let n = &self.nodes[&viewer];
        // Displacement makes the victim a child of the repositioned
        // viewer, so the viewer needs a spare slot of its own (unlike a
        // fresh join, it may carry children).
        let placed = match self.plan_attach(n.out_degree, n.outbound_capacity, n.has_free_slot()) {
            None => {
                // No position: the subtree stays at the CDN root.
                self.rehang(subtree.clone(), 0);
                None
            }
            Some(AttachPlan::Free { under }) => {
                let unode = self.nodes.get_mut(&under).expect("member");
                unode.add_child(viewer);
                let new_depth = unode.depth + 1;
                self.nodes.get_mut(&viewer).expect("member").parent = TreeParent::Viewer(under);
                // The whole subtree hung at depth 0; it now hangs at
                // `new_depth`.
                self.rehang(subtree.clone(), new_depth);
                self.depth_shift_ops += subtree.len() as u64;
                self.refresh_slot(under);
                Some(TreeParent::Viewer(under))
            }
            Some(AttachPlan::Displace { victim: z }) => {
                let (z_depth, old_parent) = (self.nodes[&z].depth, self.nodes[&z].parent);
                if let TreeParent::Viewer(p) = old_parent {
                    let pnode = self.nodes.get_mut(&p).expect("member");
                    pnode.remove_child(z);
                    pnode.add_child(viewer);
                }
                self.nodes.get_mut(&z).expect("member").parent = TreeParent::Viewer(viewer);
                let vnode = self.nodes.get_mut(&viewer).expect("member");
                vnode.parent = old_parent;
                vnode.add_child(z);
                // z and its subtree slide one level down under the
                // repositioned viewer; the viewer's subtree moves from
                // the root to z's old position. z's old parent swapped z
                // for the viewer (count unchanged); the viewer gained z.
                self.shift_subtree(z, 1);
                self.rehang(subtree.clone(), z_depth);
                self.depth_shift_ops += subtree.len() as u64;
                self.refresh_slot(viewer);
                Some(old_parent)
            }
        };
        self.walk.0.truncate(subtree.start);
        placed
    }

    fn attach(
        &mut self,
        viewer: NodeId,
        out_degree: u32,
        outbound_capacity: Bandwidth,
        parent: TreeParent,
    ) {
        assert!(
            !self.contains(viewer),
            "viewer {viewer} already in tree for {}",
            self.stream
        );
        let depth = match parent {
            TreeParent::Cdn => 0,
            TreeParent::Viewer(p) => {
                let pnode = self.nodes.get_mut(&p).expect("parent is a member");
                debug_assert!(pnode.has_free_slot(), "attach exceeds parent out-degree");
                pnode.add_child(viewer);
                pnode.depth + 1
            }
        };
        self.enter(
            viewer,
            TreeNode {
                out_degree,
                outbound_capacity,
                parent,
                children: Vec::new(),
                depth,
            },
        );
        if let TreeParent::Viewer(p) = parent {
            self.refresh_slot(p);
        }
    }

    /// Replaces `z` by `viewer`: `viewer` takes `z`'s position, `z`
    /// becomes `viewer`'s child and keeps its own subtree.
    fn displace(
        &mut self,
        viewer: NodeId,
        out_degree: u32,
        outbound_capacity: Bandwidth,
        z: NodeId,
    ) {
        let zn = self.nodes.get_mut(&z).expect("z is a member");
        let (old_parent, z_depth) = (zn.parent, zn.depth);
        zn.parent = TreeParent::Viewer(viewer);
        if let TreeParent::Viewer(p) = old_parent {
            let pnode = self.nodes.get_mut(&p).expect("parent is a member");
            pnode.remove_child(z);
            pnode.add_child(viewer);
        }
        // z swapped places with the joiner, so its old parent's child
        // count (and z's own) are unchanged; only the joiner is new, and
        // z's subtree slides one level down.
        self.enter(
            viewer,
            TreeNode {
                out_degree,
                outbound_capacity,
                parent: old_parent,
                children: vec![z],
                depth: z_depth,
            },
        );
        self.shift_subtree(z, 1);
    }

    /// Removes `viewer` from the tree. Its direct children become
    /// **victims**: they are detached (each keeping its own subtree) and
    /// returned, in ascending id order, so the caller can re-provision
    /// them (paper §VI recovers them from the CDN at their current delay
    /// layer).
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is not a member.
    pub fn remove(&mut self, viewer: NodeId) -> Vec<NodeId> {
        let node = self
            .nodes
            .remove(&viewer)
            .expect("removing a viewer that is not a tree member");
        let key = node.key(viewer);
        self.level_members.remove(node.depth, &key);
        if node.has_free_slot() {
            self.level_free.remove(node.depth, &key);
        }
        self.free_slots.remove(&viewer);
        if let TreeParent::Viewer(p) = node.parent {
            self.nodes.get_mut(&p).expect("member").remove_child(viewer);
            self.refresh_slot(p);
        }
        // Victims keep their subtrees but have no parent until the caller
        // re-attaches them; mark them as CDN children so the tree stays
        // consistent (the caller's recovery either confirms the CDN serve
        // or re-runs push-down). Each victim subtree re-roots at depth 0.
        for &v in &node.children {
            let vnode = self.nodes.get_mut(&v).expect("child is a member");
            vnode.parent = TreeParent::Cdn;
            let old_depth = vnode.depth;
            self.shift_subtree(v, -(old_depth as isize));
        }
        node.children
    }

    /// Moves an existing member under the CDN (used when recovering a
    /// victim whose P2P placement failed).
    ///
    /// # Panics
    ///
    /// Panics if `viewer` is not a member.
    pub fn reparent_to_cdn(&mut self, viewer: NodeId) {
        let node = self.nodes.get_mut(&viewer).expect("viewer is a member");
        let (old_parent, old_depth) = (node.parent, node.depth);
        node.parent = TreeParent::Cdn;
        if let TreeParent::Viewer(p) = old_parent {
            self.nodes.get_mut(&p).expect("member").remove_child(viewer);
            self.refresh_slot(p);
        }
        self.shift_subtree(viewer, -(old_depth as isize));
    }

    /// The CDN-rooted fragment roots, **weakest first** (ascending
    /// `(out_degree, C_obw, id)` — the order the attach planner probes),
    /// as a snapshot the caller can iterate while mutating the tree.
    ///
    /// A churned or abandoned view leaves its tree as a forest of such
    /// fragments, each holding a CDN serve; this is the prune pass's
    /// work list.
    pub fn cdn_fragment_roots(&self) -> Vec<NodeId> {
        let roots = self.level_members.0.first().into_iter().flatten();
        roots.map(|&(_, _, id)| id).collect()
    }

    /// Shape statistics, computed from the level sets in O(levels) — no
    /// traversal.
    pub fn metrics(&self) -> TreeMetrics {
        let levels = &self.level_members.0;
        let total_depth: usize = levels
            .iter()
            .enumerate()
            .map(|(d, set)| d * set.len())
            .sum();
        let members = self.nodes.len();
        TreeMetrics {
            members,
            cdn_children: levels.first().map_or(0, BTreeSet::len),
            max_depth: levels.len().saturating_sub(1),
            mean_depth: if members == 0 {
                0.0
            } else {
                total_depth as f64 / members as f64
            },
        }
    }

    /// Verifies structural invariants; used by tests and debug assertions.
    ///
    /// Checks: parent/child symmetry, ascending child order, out-degree
    /// bounds, acyclicity, and reachability of every member from the CDN
    /// root; that the stored depths, both level sets and the free-slot
    /// set match a from-scratch recomputation; and that the CDN root's
    /// children, derived from the depth-0 level, match theirs.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut cdn_roots: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.parent == TreeParent::Cdn)
            .map(|(&id, _)| id)
            .collect();
        cdn_roots.sort_unstable();
        let mut reachable: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<(NodeId, usize)> = cdn_roots.iter().map(|&c| (c, 0)).collect();
        while let Some((v, depth)) = stack.pop() {
            if !reachable.insert(v) {
                return Err(format!("cycle detected at {v}"));
            }
            let node = &self.nodes[&v];
            if node.children.len() as u32 > node.out_degree {
                return Err(format!(
                    "{v} has {} children but out-degree {}",
                    node.children.len(),
                    node.out_degree
                ));
            }
            if !node.children.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("children of {v} are not in ascending id order"));
            }
            if node.depth != depth {
                return Err(format!(
                    "{v} stores depth {} but sits at depth {depth}",
                    node.depth
                ));
            }
            for &c in &node.children {
                let child = self
                    .nodes
                    .get(&c)
                    .ok_or_else(|| format!("child {c} of {v} unknown"))?;
                if child.parent != TreeParent::Viewer(v) {
                    return Err(format!("child {c} does not point back to {v}"));
                }
                stack.push((c, depth + 1));
            }
        }
        if reachable.len() != self.nodes.len() {
            return Err(format!(
                "{} members unreachable from the CDN root",
                self.nodes.len() - reachable.len()
            ));
        }
        // The maintained indexes must match a from-scratch recomputation.
        let mut expected_free = BTreeSet::new();
        let mut expected_levels = Levels::default();
        let mut expected_level_free = Levels::default();
        for (&id, n) in &self.nodes {
            expected_levels.insert(n.depth, n.key(id));
            if n.has_free_slot() {
                expected_free.insert(id);
                expected_level_free.insert(n.depth, n.key(id));
            }
        }
        if self.free_slots != expected_free {
            return Err(format!(
                "free-slot index out of sync: {:?} vs {expected_free:?}",
                self.free_slots
            ));
        }
        if self.level_members != expected_levels {
            return Err(format!(
                "level member sets out of sync: {:?} vs {expected_levels:?}",
                self.level_members
            ));
        }
        if self.level_free != expected_level_free {
            return Err(format!(
                "level free-slot sets out of sync: {:?} vs {expected_level_free:?}",
                self.level_free
            ));
        }
        // So must the children derived from the depth-0 level.
        let cdn: Vec<NodeId> = self.cdn_children().collect();
        if cdn != cdn_roots {
            return Err(format!(
                "CDN children out of sync: {cdn:?} vs {cdn_roots:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_media::SiteId;
    use telecast_net::{NodeKind, NodeRegistry, Region};

    fn stream() -> StreamId {
        StreamId::new(SiteId::new(0), 0)
    }

    fn viewers(n: usize) -> Vec<NodeId> {
        let mut reg = NodeRegistry::new();
        (0..n)
            .map(|_| reg.add(NodeKind::Viewer, Region::NorthAmerica))
            .collect()
    }

    fn mbps(v: u64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }

    #[test]
    fn empty_tree_has_no_position() {
        let v = viewers(1);
        let mut tree = StreamTree::new(stream());
        assert_eq!(tree.insert(v[0], 3, mbps(6)), None);
        assert!(tree.is_empty());
    }

    #[test]
    fn free_slot_attachment() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        assert_eq!(
            tree.insert(v[1], 0, mbps(0)),
            Some(TreeParent::Viewer(v[0]))
        );
        assert_eq!(
            tree.insert(v[2], 0, mbps(0)),
            Some(TreeParent::Viewer(v[0]))
        );
        assert_eq!(tree.free_slots_of(v[0]), 0);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn stronger_viewer_displaces_weaker() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 0, mbps(0)); // weak CDN child, no slots

        // v1 has degree 2 > 0: displaces v0, inheriting the CDN position.
        assert_eq!(tree.insert(v[1], 2, mbps(4)), Some(TreeParent::Cdn));
        assert_eq!(tree.parent_of(v[1]), Some(TreeParent::Cdn));
        assert_eq!(tree.parent_of(v[0]), Some(TreeParent::Viewer(v[1])));
        assert_eq!(tree.depth_of(v[0]), Some(1));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn equal_degree_ties_break_on_capacity() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        // Same degree, more capacity: displaces.
        assert_eq!(tree.insert(v[1], 1, mbps(8)), Some(TreeParent::Cdn));
        assert_eq!(tree.parent_of(v[0]), Some(TreeParent::Viewer(v[1])));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn equal_everything_attaches_to_slot_not_displaces() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        // Identical (degree, capacity): no displacement; free slot used.
        assert_eq!(
            tree.insert(v[1], 1, mbps(2)),
            Some(TreeParent::Viewer(v[0]))
        );
        assert_eq!(tree.parent_of(v[0]), Some(TreeParent::Cdn));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn displaced_viewer_keeps_its_subtree() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        tree.insert(v[1], 1, mbps(2)); // child of v0
        tree.insert(v[2], 0, mbps(0)); // child of v1 or v0

        // A strong joiner displaces v0 at the root.
        assert_eq!(tree.insert(v[3], 3, mbps(8)), Some(TreeParent::Cdn));
        assert_eq!(tree.parent_of(v[0]), Some(TreeParent::Viewer(v[3])));
        // v0 kept its children.
        let children: Vec<_> = tree.children_of(v[0]).collect();
        assert!(children.contains(&v[1]));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn no_position_when_all_slots_taken_and_no_weaker_node() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(10));
        tree.insert(v[1], 1, mbps(10)); // fills v0's only slot

        // v1 has no slots (degree 1, one used? No - v1 has 1 slot free).
        // Give v2 the weakest profile so it cannot displace anyone, but
        // v1 still has a free slot, so it lands there.
        assert_eq!(
            tree.insert(v[2], 0, mbps(0)),
            Some(TreeParent::Viewer(v[1]))
        );
        tree.check_invariants().unwrap();
    }

    #[test]
    fn saturated_tree_rejects_weak_joiner() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(10));
        tree.insert(v[1], 0, mbps(0)); // fills the only slot, no slots itself
        assert_eq!(tree.insert(v[2], 0, mbps(0)), None);
        assert!(!tree.contains(v[2]));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn push_down_keeps_higher_degrees_nearer_root() {
        let v = viewers(6);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        // Ascending strength joiners: each displaces the previous root.
        for (i, &deg) in [2u32, 3, 4, 5, 6].iter().enumerate() {
            tree.insert(v[i + 1], deg, mbps(2 * deg as u64));
        }
        // Edge invariant: every viewer parent has >= (degree, capacity).
        for m in tree.members().collect::<Vec<_>>() {
            if let Some(TreeParent::Viewer(p)) = tree.parent_of(m) {
                let (dm, dp) = (
                    tree.out_degree_of(m).unwrap(),
                    tree.out_degree_of(p).unwrap(),
                );
                assert!(dp >= dm, "parent {p} weaker than child {m}");
            }
        }
        tree.check_invariants().unwrap();
    }

    #[test]
    fn removal_returns_victims_and_preserves_subtrees() {
        let v = viewers(5);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(8));
        tree.insert(v[1], 2, mbps(4));
        tree.insert(v[2], 0, mbps(0));
        tree.insert(v[3], 0, mbps(0));
        let victims = tree.remove(v[0]);
        assert!(!tree.contains(v[0]));
        // Direct children of the departed node are the victims.
        assert!(!victims.is_empty());
        for &victim in &victims {
            assert_eq!(tree.parent_of(victim), Some(TreeParent::Cdn));
            assert_eq!(tree.depth_of(victim), Some(0));
        }
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reparent_to_cdn_moves_node() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        tree.insert(v[1], 0, mbps(0));
        assert_eq!(tree.parent_of(v[1]), Some(TreeParent::Viewer(v[0])));
        tree.reparent_to_cdn(v[1]);
        assert_eq!(tree.parent_of(v[1]), Some(TreeParent::Cdn));
        assert_eq!(tree.free_slots_of(v[0]), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn metrics_reflect_shape() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        tree.insert(v[1], 1, mbps(2));
        tree.insert(v[2], 1, mbps(2));
        tree.insert(v[3], 0, mbps(0));
        let m = tree.metrics();
        assert_eq!(m.members, 4);
        assert_eq!(m.cdn_children, 1);
        assert!(m.max_depth >= 1);
        assert!(m.mean_depth > 0.0);
    }

    #[test]
    #[should_panic(expected = "already in tree")]
    fn double_insert_panics() {
        let v = viewers(1);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        tree.attach_to_cdn(v[0], 1, mbps(2));
    }

    #[test]
    #[should_panic(expected = "not a tree member")]
    fn remove_unknown_panics() {
        let v = viewers(1);
        let mut tree = StreamTree::new(stream());
        tree.remove(v[0]);
    }

    #[test]
    fn attach_under_is_explicit() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 3, mbps(6));
        tree.attach_under(v[1], 1, mbps(2), v[0]);
        assert_eq!(tree.parent_of(v[1]), Some(TreeParent::Viewer(v[0])));
        tree.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn attach_under_full_parent_panics() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        tree.attach_under(v[1], 0, mbps(0), v[0]);
        tree.attach_under(v[2], 0, mbps(0), v[0]);
    }

    #[test]
    fn first_free_slot_holder_in_id_order() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        assert_eq!(tree.first_free_slot_holder(), None);
        tree.attach_to_cdn(v[2], 1, mbps(2));
        tree.attach_to_cdn(v[0], 1, mbps(2));
        // Both have slots; lowest id wins.
        assert_eq!(tree.first_free_slot_holder(), Some(v[0]));
        assert!(tree.has_free_slot());
    }

    #[test]
    fn reposition_finds_p2p_slot_for_victim() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        tree.insert(v[1], 1, mbps(2)); // under v0
        tree.insert(v[2], 0, mbps(0)); // under v1 or v0

        // v3 arrives as a CDN-parked victim with a subtree-less profile.
        tree.attach_to_cdn(v[3], 0, mbps(0));
        let parent = tree.reposition_from_cdn(v[3]);
        assert!(parent.is_some(), "a free slot existed");
        assert_ne!(tree.parent_of(v[3]), Some(TreeParent::Cdn));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reposition_keeps_children_and_avoids_cycles() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        // Victim v0 parked at CDN with child v1.
        tree.attach_to_cdn(v[0], 2, mbps(8));
        tree.insert(v[1], 0, mbps(0)); // child of v0

        // Other branch: weak CDN child with a slot.
        tree.attach_to_cdn(v[2], 1, mbps(2));
        let parent = tree.reposition_from_cdn(v[0]).expect("position exists");
        // v0 displaced the weaker v2 (degree 2 > 1) and kept v1.
        assert_eq!(parent, TreeParent::Cdn);
        assert_eq!(tree.parent_of(v[2]), Some(TreeParent::Viewer(v[0])));
        assert!(tree.children_of(v[0]).any(|c| c == v[1]));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reposition_without_position_restores_cdn() {
        let v = viewers(2);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 0, mbps(0));
        tree.attach_to_cdn(v[1], 0, mbps(0));
        assert_eq!(tree.reposition_from_cdn(v[1]), None);
        assert_eq!(tree.parent_of(v[1]), Some(TreeParent::Cdn));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reposition_full_viewer_cannot_displace() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        // Victim v0 with degree 1 and its slot already filled by v1.
        tree.attach_to_cdn(v[0], 1, mbps(8));
        tree.insert(v[1], 0, mbps(0));
        // A weaker CDN child exists that v0 could otherwise displace.
        tree.attach_to_cdn(v[2], 0, mbps(0));
        // v0 has no spare slot → displacement disallowed → no position
        // (v2 has no slots either).
        assert_eq!(tree.reposition_from_cdn(v[0]), None);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn depths_track_displacement_shifts() {
        let v = viewers(4);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 1, mbps(2));
        tree.insert(v[1], 0, mbps(0)); // depth 1 under v0
        assert_eq!(tree.depth_of(v[1]), Some(1));
        // v2 displaces v0 at the root; v0's subtree slides down.
        tree.insert(v[2], 2, mbps(8));
        assert_eq!(tree.depth_of(v[2]), Some(0));
        assert_eq!(tree.depth_of(v[0]), Some(1));
        assert_eq!(tree.depth_of(v[1]), Some(2));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn attach_probes_accumulate() {
        let v = viewers(3);
        let mut tree = StreamTree::new(stream());
        tree.attach_to_cdn(v[0], 2, mbps(4));
        assert_eq!(tree.attach_probes(), 0);
        tree.insert(v[1], 0, mbps(0));
        let after_one = tree.attach_probes();
        assert!(after_one > 0, "planner ran at least one probe");
        tree.insert(v[2], 0, mbps(0));
        assert!(tree.attach_probes() > after_one);
    }
}
