//! View groups: the unit of overlay sharing.
//!
//! "Topologies are formed separately for each view group, i.e., the
//! topology formation component groups the viewers depending on the view
//! request." A [`ViewGroup`] owns one [`StreamTree`] per stream of its
//! view; the [`GroupTable`] maps views to groups and viewers to the group
//! they are in.

use std::collections::BTreeSet;

use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_media::{StreamId, ViewId};
use telecast_net::NodeId;

use crate::tree::StreamTree;

/// All per-view overlay state: membership plus one tree per stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewGroup {
    view: ViewId,
    members: BTreeSet<NodeId>,
    trees: FxHashMap<StreamId, StreamTree>,
}

impl ViewGroup {
    /// Creates an empty group for `view` covering `streams`.
    pub fn new(view: ViewId, streams: impl IntoIterator<Item = StreamId>) -> Self {
        ViewGroup {
            view,
            members: BTreeSet::new(),
            trees: streams
                .into_iter()
                .map(|s| (s, StreamTree::new(s)))
                .collect(),
        }
    }

    /// The view this group serves.
    pub fn view(&self) -> ViewId {
        self.view
    }

    /// Member viewers (those admitted into the group, whether or not every
    /// stream was accepted for them).
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Number of member viewers.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Whether `viewer` belongs to this group.
    pub fn contains(&self, viewer: NodeId) -> bool {
        self.members.contains(&viewer)
    }

    /// Adds a member (idempotent).
    pub fn add_member(&mut self, viewer: NodeId) {
        self.members.insert(viewer);
    }

    /// Removes a member (idempotent). Tree removal is separate — the
    /// caller decides victim handling per stream.
    pub fn remove_member(&mut self, viewer: NodeId) {
        self.members.remove(&viewer);
    }

    /// The tree for `stream`, if this view includes it.
    pub fn tree(&self, stream: StreamId) -> Option<&StreamTree> {
        self.trees.get(&stream)
    }

    /// Mutable access to the tree for `stream`.
    pub fn tree_mut(&mut self, stream: StreamId) -> Option<&mut StreamTree> {
        self.trees.get_mut(&stream)
    }

    /// Iterates over all `(stream, tree)` pairs.
    pub fn trees(&self) -> impl Iterator<Item = (&StreamId, &StreamTree)> {
        self.trees.iter()
    }

    /// The streams covered by this group.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.trees.keys().copied()
    }

    /// Total tree members across all streams. An abandoned view's trees
    /// can outlive its registered membership (victims parked at the CDN
    /// mid-recovery), so the prune pass checks both.
    pub fn tree_population(&self) -> usize {
        self.trees.values().map(|t| t.len()).sum()
    }

    /// Whether nothing is left to serve: no registered members and every
    /// stream tree empty. A drained group is eligible for retirement
    /// (see [`GroupTable::retire_if_drained`]).
    pub fn is_drained(&self) -> bool {
        self.members.is_empty() && self.trees.values().all(|t| t.is_empty())
    }
}

/// The LSC's table of view groups.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupTable {
    groups: FxHashMap<ViewId, ViewGroup>,
    membership: FxHashMap<NodeId, ViewId>,
}

impl GroupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The group for `view`, creating it (covering `streams`) on first
    /// use.
    pub fn group_for(
        &mut self,
        view: ViewId,
        streams: impl IntoIterator<Item = StreamId>,
    ) -> &mut ViewGroup {
        self.groups
            .entry(view)
            .or_insert_with(|| ViewGroup::new(view, streams))
    }

    /// The group for `view`, if it exists.
    pub fn group(&self, view: ViewId) -> Option<&ViewGroup> {
        self.groups.get(&view)
    }

    /// Mutable access to the group for `view`.
    pub fn group_mut(&mut self, view: ViewId) -> Option<&mut ViewGroup> {
        self.groups.get_mut(&view)
    }

    /// Records that `viewer` now belongs to `view`'s group.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist yet.
    pub fn join(&mut self, viewer: NodeId, view: ViewId) {
        let group = self
            .groups
            .get_mut(&view)
            .expect("joining a group that was never created");
        group.add_member(viewer);
        self.membership.insert(viewer, view);
    }

    /// Removes `viewer` from its group, returning the view it was in.
    pub fn leave(&mut self, viewer: NodeId) -> Option<ViewId> {
        let view = self.membership.remove(&viewer)?;
        if let Some(group) = self.groups.get_mut(&view) {
            group.remove_member(viewer);
        }
        Some(view)
    }

    /// The view `viewer` currently belongs to.
    pub fn view_of(&self, viewer: NodeId) -> Option<ViewId> {
        self.membership.get(&viewer).copied()
    }

    /// Retires `view`'s group if it is fully drained (no members, every
    /// tree empty), freeing its per-stream tree state; returns whether
    /// it was removed. A later request for the view recreates the group
    /// lazily through [`GroupTable::group_for`].
    pub fn retire_if_drained(&mut self, view: ViewId) -> bool {
        match self.groups.get(&view) {
            Some(group) if group.is_drained() => {
                self.groups.remove(&view);
                true
            }
            _ => false,
        }
    }

    /// Iterates over all groups.
    pub fn iter(&self) -> impl Iterator<Item = (&ViewId, &ViewGroup)> {
        self.groups.iter()
    }

    /// Number of groups (views ever requested).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_media::SiteId;
    use telecast_net::{NodeKind, NodeRegistry, Region};

    fn streams(n: u16) -> Vec<StreamId> {
        (0..n).map(|c| StreamId::new(SiteId::new(0), c)).collect()
    }

    fn viewer(reg: &mut NodeRegistry) -> NodeId {
        reg.add(NodeKind::Viewer, Region::Europe)
    }

    #[test]
    fn group_covers_its_streams() {
        let group = ViewGroup::new(ViewId::new(0), streams(3));
        assert_eq!(group.streams().count(), 3);
        assert!(group.tree(StreamId::new(SiteId::new(0), 2)).is_some());
        assert!(group.tree(StreamId::new(SiteId::new(0), 3)).is_none());
    }

    #[test]
    fn join_and_leave_round_trip() {
        let mut reg = NodeRegistry::new();
        let v = viewer(&mut reg);
        let mut table = GroupTable::new();
        table.group_for(ViewId::new(1), streams(2));
        table.join(v, ViewId::new(1));
        assert_eq!(table.view_of(v), Some(ViewId::new(1)));
        assert!(table.group(ViewId::new(1)).unwrap().contains(v));
        assert_eq!(table.leave(v), Some(ViewId::new(1)));
        assert_eq!(table.view_of(v), None);
        assert!(!table.group(ViewId::new(1)).unwrap().contains(v));
    }

    #[test]
    fn groups_are_created_lazily_and_reused() {
        let mut table = GroupTable::new();
        table.group_for(ViewId::new(0), streams(2));
        table.group_for(ViewId::new(0), streams(5)); // ignored: exists
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.group(ViewId::new(0)).unwrap().streams().count(),
            2,
            "existing group keeps its stream set"
        );
    }

    #[test]
    fn leave_unknown_viewer_is_none() {
        let mut reg = NodeRegistry::new();
        let v = viewer(&mut reg);
        let mut table = GroupTable::new();
        assert_eq!(table.leave(v), None);
    }

    #[test]
    #[should_panic(expected = "never created")]
    fn join_without_group_panics() {
        let mut reg = NodeRegistry::new();
        let v = viewer(&mut reg);
        let mut table = GroupTable::new();
        table.join(v, ViewId::new(9));
    }

    #[test]
    fn drained_groups_retire_and_recreate_lazily() {
        let mut reg = NodeRegistry::new();
        let a = viewer(&mut reg);
        let mut table = GroupTable::new();
        table.group_for(ViewId::new(0), streams(2));
        table.group_for(ViewId::new(1), streams(2));
        table.join(a, ViewId::new(0));
        // A group with a registered member is not drained.
        assert!(!table.retire_if_drained(ViewId::new(0)));
        // A group with a tree member but no registered member is not
        // drained either (a victim parked mid-recovery still receives).
        let tree = table
            .group_mut(ViewId::new(1))
            .unwrap()
            .tree_mut(StreamId::new(SiteId::new(0), 0))
            .unwrap();
        tree.attach_to_cdn(a, 2, telecast_net::Bandwidth::from_mbps(4));
        assert!(!table.retire_if_drained(ViewId::new(1)));
        // Draining both sides retires both groups.
        table
            .group_mut(ViewId::new(1))
            .unwrap()
            .tree_mut(StreamId::new(SiteId::new(0), 0))
            .unwrap()
            .remove(a);
        table.leave(a);
        assert!(table.retire_if_drained(ViewId::new(0)));
        assert!(table.retire_if_drained(ViewId::new(1)));
        assert!(table.is_empty());
        // The next request recreates the group lazily.
        table.group_for(ViewId::new(0), streams(3));
        assert_eq!(table.group(ViewId::new(0)).unwrap().streams().count(), 3);
    }

    #[test]
    fn membership_is_exclusive_per_viewer() {
        let mut reg = NodeRegistry::new();
        let v = viewer(&mut reg);
        let mut table = GroupTable::new();
        table.group_for(ViewId::new(0), streams(1));
        table.group_for(ViewId::new(1), streams(1));
        table.join(v, ViewId::new(0));
        // A view change leaves the old group first in the real flow; the
        // table reflects the latest join.
        table.leave(v);
        table.join(v, ViewId::new(1));
        assert_eq!(table.view_of(v), Some(ViewId::new(1)));
        assert!(!table.group(ViewId::new(0)).unwrap().contains(v));
    }
}
