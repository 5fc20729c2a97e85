//! The session overlay routing table (Table I of the paper).
//!
//! Each viewer's data plane holds one entry per *forwarded* stream. The
//! match field is `(parent, stream)`; a matching inbound frame is fanned
//! out to the forwarding addresses, each with its own action and
//! subscription point (the position in the local buffer/cache from which
//! that child is fed).

use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_media::{FrameNumber, StreamId};
use telecast_net::NodeId;

/// Per-forwarding-address action. The paper fixes `forward` today and
/// reserves the others for future extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ForwardAction {
    /// Relay frames unchanged.
    #[default]
    Forward,
    /// Receive but do not relay.
    Drop,
    /// Re-encode before relaying (reserved).
    Encode,
    /// Apply rate control before relaying (reserved).
    RateControl,
}

/// Where in the parent's buffer/cache a child is fed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SubscriptionPoint {
    /// Feed from the buffer end (live position, no extra delay).
    #[default]
    Live,
    /// Feed from a specific cached frame onward — the delayed-receive
    /// position computed by Eq. 2.
    Frame(FrameNumber),
}

/// One routing table entry: the fan-out of a `(parent, stream)` match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RouteEntry {
    forwards: Vec<(NodeId, ForwardAction, SubscriptionPoint)>,
}

impl RouteEntry {
    /// The forwarding addresses with their actions and subscription
    /// points.
    pub fn forwards(&self) -> &[(NodeId, ForwardAction, SubscriptionPoint)] {
        &self.forwards
    }

    /// Children currently being forwarded to (regardless of action).
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.forwards.iter().map(|&(c, _, _)| c)
    }
}

/// A viewer's session routing table.
///
/// ```
/// use telecast_overlay::{SessionRoutingTable, SubscriptionPoint, ForwardAction};
/// use telecast_media::{FrameNumber, SiteId, StreamId};
/// use telecast_net::{NodeKind, NodeRegistry, Region};
///
/// let mut nodes = NodeRegistry::new();
/// let parent = nodes.add(NodeKind::CdnServer, Region::Europe);
/// let child = nodes.add(NodeKind::Viewer, Region::Europe);
/// let stream = StreamId::new(SiteId::new(0), 1);
///
/// let mut table = SessionRoutingTable::new();
/// table.add_forward(stream, parent, child, SubscriptionPoint::Live);
/// let entry = table.matching(stream, parent).expect("entry exists");
/// assert_eq!(entry.children().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SessionRoutingTable {
    entries: FxHashMap<(StreamId, NodeId), RouteEntry>,
}

impl SessionRoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `(stream, parent)` match entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry matching a frame of `stream` arriving from `parent`.
    pub fn matching(&self, stream: StreamId, parent: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&(stream, parent))
    }

    /// Registers a forwarding address for `(stream, parent)` with the
    /// default [`ForwardAction::Forward`].
    pub fn add_forward(
        &mut self,
        stream: StreamId,
        parent: NodeId,
        child: NodeId,
        subscription: SubscriptionPoint,
    ) {
        self.add_forward_with_action(stream, parent, child, ForwardAction::Forward, subscription);
    }

    /// Registers a forwarding address with an explicit action. Re-adding
    /// an existing child updates its action and subscription point.
    pub fn add_forward_with_action(
        &mut self,
        stream: StreamId,
        parent: NodeId,
        child: NodeId,
        action: ForwardAction,
        subscription: SubscriptionPoint,
    ) {
        let entry = self.entries.entry((stream, parent)).or_default();
        if let Some(slot) = entry.forwards.iter_mut().find(|(c, _, _)| *c == child) {
            slot.1 = action;
            slot.2 = subscription;
        } else {
            entry.forwards.push((child, action, subscription));
        }
    }

    /// Updates the subscription point of an existing forward (the
    /// Subscription-Update message of Fig. 6).
    ///
    /// Returns `false` if no such forward exists.
    pub fn update_subscription(
        &mut self,
        stream: StreamId,
        parent: NodeId,
        child: NodeId,
        subscription: SubscriptionPoint,
    ) -> bool {
        if let Some(entry) = self.entries.get_mut(&(stream, parent)) {
            if let Some(slot) = entry.forwards.iter_mut().find(|(c, _, _)| *c == child) {
                slot.2 = subscription;
                return true;
            }
        }
        false
    }

    /// Removes a forwarding address; drops the entry when its fan-out
    /// empties. Returns `false` if the forward did not exist.
    pub fn remove_forward(&mut self, stream: StreamId, parent: NodeId, child: NodeId) -> bool {
        if let Some(entry) = self.entries.get_mut(&(stream, parent)) {
            let before = entry.forwards.len();
            entry.forwards.retain(|(c, _, _)| *c != child);
            let removed = entry.forwards.len() < before;
            if entry.forwards.is_empty() {
                self.entries.remove(&(stream, parent));
            }
            return removed;
        }
        false
    }

    /// Removes the forward of `stream` to `child` under whichever
    /// upstream its entry matches — the child's Subscription-Stop, which
    /// names no upstream: an entry keeps the upstream it had when the
    /// child subscribed. Drops entries whose fan-out empties. Returns
    /// the number of forwards removed.
    pub fn remove_child(&mut self, stream: StreamId, child: NodeId) -> usize {
        let mut removed = 0;
        self.entries.retain(|&(s, _), entry| {
            if s == stream {
                let before = entry.forwards.len();
                entry.forwards.retain(|&(c, _, _)| c != child);
                removed += before - entry.forwards.len();
            }
            !entry.forwards.is_empty()
        });
        removed
    }

    /// Removes every entry of `stream` (used on view change / stream
    /// drop). Returns the number of entries removed.
    pub fn remove_stream(&mut self, stream: StreamId) -> usize {
        let keys: Vec<_> = self
            .entries
            .keys()
            .filter(|(s, _)| *s == stream)
            .copied()
            .collect();
        for k in &keys {
            self.entries.remove(k);
        }
        keys.len()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(StreamId, NodeId), &RouteEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_media::SiteId;
    use telecast_net::{NodeKind, NodeRegistry, Region};

    fn setup() -> (StreamId, NodeId, Vec<NodeId>) {
        let mut reg = NodeRegistry::new();
        let parent = reg.add(NodeKind::Viewer, Region::Asia);
        let children: Vec<_> = (0..3)
            .map(|_| reg.add(NodeKind::Viewer, Region::Asia))
            .collect();
        (StreamId::new(SiteId::new(0), 0), parent, children)
    }

    #[test]
    fn match_field_is_stream_and_parent() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        assert!(table.matching(stream, parent).is_some());
        assert!(table.matching(stream, children[0]).is_none());
        let other = StreamId::new(SiteId::new(0), 1);
        assert!(table.matching(other, parent).is_none());
    }

    #[test]
    fn fan_out_accumulates() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        for &c in &children {
            table.add_forward(stream, parent, c, SubscriptionPoint::Live);
        }
        let entry = table.matching(stream, parent).unwrap();
        assert_eq!(entry.children().count(), 3);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn re_add_updates_in_place() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        table.add_forward_with_action(
            stream,
            parent,
            children[0],
            ForwardAction::Drop,
            SubscriptionPoint::Frame(FrameNumber::new(42)),
        );
        let entry = table.matching(stream, parent).unwrap();
        assert_eq!(entry.forwards().len(), 1);
        assert_eq!(entry.forwards()[0].1, ForwardAction::Drop);
        assert_eq!(
            entry.forwards()[0].2,
            SubscriptionPoint::Frame(FrameNumber::new(42))
        );
    }

    #[test]
    fn subscription_update_protocol() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        assert!(table.update_subscription(
            stream,
            parent,
            children[0],
            SubscriptionPoint::Frame(FrameNumber::new(7))
        ));
        assert!(!table.update_subscription(stream, parent, children[1], SubscriptionPoint::Live));
    }

    #[test]
    fn remove_forward_clears_empty_entries() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        assert!(table.remove_forward(stream, parent, children[0]));
        assert!(table.is_empty());
        assert!(!table.remove_forward(stream, parent, children[0]));
    }

    #[test]
    fn remove_child_finds_the_forward_under_any_upstream() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        let other = StreamId::new(SiteId::new(0), 1);
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        table.add_forward(stream, parent, children[1], SubscriptionPoint::Live);
        table.add_forward(stream, children[2], children[0], SubscriptionPoint::Live);
        table.add_forward(other, parent, children[0], SubscriptionPoint::Live);
        assert_eq!(table.remove_child(stream, children[0]), 2);
        // The emptied entry is gone; the other child and stream stay.
        assert!(table.matching(stream, children[2]).is_none());
        let kept: Vec<NodeId> = table.matching(stream, parent).unwrap().children().collect();
        assert_eq!(kept, [children[1]]);
        assert!(table.matching(other, parent).is_some());
        assert_eq!(table.remove_child(stream, children[0]), 0);
    }

    #[test]
    fn remove_stream_clears_all_parents() {
        let (stream, parent, children) = setup();
        let mut table = SessionRoutingTable::new();
        table.add_forward(stream, parent, children[0], SubscriptionPoint::Live);
        table.add_forward(stream, children[1], children[2], SubscriptionPoint::Live);
        assert_eq!(table.remove_stream(stream), 2);
        assert!(table.is_empty());
    }
}
