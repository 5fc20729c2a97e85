//! The session overlay routing table (Table I of the paper).
//!
//! Each viewer's data plane holds one entry per *forwarded* stream. The
//! match field is `(parent, stream)`; a matching inbound frame is fanned
//! out to the forwarding addresses, each fed from its own subscription
//! point (the position in the local buffer/cache from which that child
//! is fed). Every forward is the paper's plain `forward` action.
//!
//! The table is a derived view, not stored state: a child's
//! subscription names its parent, so a session builds a viewer's table
//! on demand from its children's subscriptions, and the table cannot
//! drift from the tree as parents change under churn.

use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_media::{FrameNumber, StreamId};
use telecast_net::NodeId;

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
    forwards: Vec<(NodeId, SubscriptionPoint)>,
}

impl RouteEntry {
    /// The forwarding addresses with their subscription points.
    pub fn forwards(&self) -> &[(NodeId, SubscriptionPoint)] {
        &self.forwards
    }

    /// Children currently being forwarded to.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.forwards.iter().map(|&(c, _)| c)
    }
}

/// A viewer's session routing table.
///
/// ```
/// use telecast_overlay::{SessionRoutingTable, SubscriptionPoint};
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

    /// Registers a forwarding address for `(stream, parent)`. Re-adding
    /// an existing child updates its subscription point.
    pub fn add_forward(
        &mut self,
        stream: StreamId,
        parent: NodeId,
        child: NodeId,
        subscription: SubscriptionPoint,
    ) {
        let entry = self.entries.entry((stream, parent)).or_default();
        if let Some(slot) = entry.forwards.iter_mut().find(|(c, _)| *c == child) {
            slot.1 = subscription;
        } else {
            entry.forwards.push((child, subscription));
        }
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
        table.add_forward(
            stream,
            parent,
            children[0],
            SubscriptionPoint::Frame(FrameNumber::new(42)),
        );
        let entry = table.matching(stream, parent).unwrap();
        assert_eq!(
            entry.forwards(),
            [(children[0], SubscriptionPoint::Frame(FrameNumber::new(42)))]
        );
    }
}
