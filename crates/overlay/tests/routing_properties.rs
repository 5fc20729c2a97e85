//! Property tests of the session routing table: it behaves as a map from
//! (stream, parent) to a duplicate-free fan-out under arbitrary add
//! sequences, and re-adding a child updates its subscription point in
//! place.

use proptest::prelude::*;
use telecast_media::{FrameNumber, SiteId, StreamId};
use telecast_net::{NodeId, NodeKind, NodeRegistry, Region};
use telecast_overlay::{SessionRoutingTable, SubscriptionPoint};

#[derive(Debug, Clone)]
struct Add {
    stream: u16,
    parent: u8,
    child: u8,
    frame: Option<u64>,
}

fn arb_add() -> impl Strategy<Value = Add> {
    (0u16..4, 0u8..6, 0u8..6, proptest::option::of(0u64..1000)).prop_map(
        |(stream, parent, child, frame)| Add {
            stream,
            parent,
            child,
            frame,
        },
    )
}

fn nodes() -> Vec<NodeId> {
    let mut reg = NodeRegistry::new();
    (0..6)
        .map(|_| reg.add(NodeKind::Viewer, Region::Europe))
        .collect()
}

fn sid(stream: u16) -> StreamId {
    StreamId::new(SiteId::new(0), stream)
}

proptest! {
    /// The table agrees with a reference model (map of maps) after any
    /// add sequence, and fan-outs never contain duplicates.
    #[test]
    fn routing_table_matches_reference_model(adds in proptest::collection::vec(arb_add(), 0..200)) {
        let ids = nodes();
        let mut table = SessionRoutingTable::new();
        let mut model: std::collections::BTreeMap<(StreamId, NodeId),
            std::collections::BTreeMap<NodeId, SubscriptionPoint>> = Default::default();
        for Add { stream, parent, child, frame } in adds {
            let point = match frame {
                Some(n) => SubscriptionPoint::Frame(FrameNumber::new(n)),
                None => SubscriptionPoint::Live,
            };
            table.add_forward(sid(stream), ids[parent as usize], ids[child as usize], point);
            model
                .entry((sid(stream), ids[parent as usize]))
                .or_default()
                .insert(ids[child as usize], point);
            // Full-state comparison.
            prop_assert_eq!(table.len(), model.len());
            for (key, fanout) in &model {
                let entry = table.matching(key.0, key.1).expect("model says present");
                prop_assert_eq!(entry.forwards().len(), fanout.len(), "duplicate fan-out");
                for (child, point) in entry.forwards() {
                    prop_assert_eq!(fanout.get(child), Some(point));
                }
            }
        }
    }
}
