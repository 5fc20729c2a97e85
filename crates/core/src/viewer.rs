//! Per-viewer session state: the [`ViewerState`] record, the sorted
//! [`VecMap`] its per-stream maps use, and the dense viewer table the
//! session indexes by node id.

use std::num::NonZeroU32;
use std::ops::Index;

use telecast_cdn::CdnLease;
use telecast_media::{StreamId, ViewId};
use telecast_net::{epoch_index, NodeId, NodePorts, Region};
use telecast_overlay::TreeParent;
use telecast_sim::{SimDuration, SimTime};

/// Lifecycle of a viewer within the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewerStatus {
    /// Registered but never joined (or departed).
    Idle,
    /// Join request in flight.
    Joining,
    /// Connected and receiving streams.
    Connected,
    /// Join was rejected by admission control.
    Rejected,
}

/// One accepted stream at a viewer.
///
/// Besides the public state, a subscription keeps what its next §V-B3
/// resync reads: the cached leg from its parent and the chain inputs
/// (its tree parent and that parent's delay), which parents push and
/// tree mutations re-read, so a resync never looks up a tree or another
/// viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSub {
    /// Current upstream.
    pub parent: TreeParent,
    /// Active CDN lease when `parent` is the CDN.
    pub lease: Option<CdnLease>,
    /// End-to-end delay along the overlay path, before delayed receive.
    pub base_e2e: SimDuration,
    /// Effective end-to-end delay after layer positioning (≥ `base_e2e`).
    pub e2e: SimDuration,
    /// Delay layer index (Eq. 1, possibly raised by layer push-down).
    pub layer: u64,
    /// Whether layer push-down moved this stream off its natural layer.
    pub pushed_down: bool,
    /// The stream's bitrate in Kbps (cached for release accounting).
    pub bitrate_kbps: u64,
    /// The viewer-parent leg the last resync measured, if any.
    pub(crate) leg: Option<LegCache>,
    /// The §V-B3 chain parent pass 1 of a resync reads: the stream
    /// tree's parent while the viewer is a member, `parent` otherwise.
    /// Unlike `parent`, which moves lazily at the viewer's next resync,
    /// it is re-read at every tree mutation that re-parents the viewer.
    pub(crate) up: TreeParent,
    /// `up`'s `e2e` for this stream, or Δ while `up` holds no
    /// subscription to it (zero under the CDN). The parent pushes it on
    /// every write of its `e2e`.
    pub(crate) up_e2e: SimDuration,
}

// The leg cache rides in the padding the lease niche freed; the chain
// inputs take one more 16-byte row.
const _: () = assert!(std::mem::size_of::<Option<LegCache>>() == 12);
const _: () = assert!(std::mem::size_of::<StreamSub>() <= 80);

impl StreamSub {
    /// The cached one-way leg from `parent`, when it was measured from
    /// that parent within drift epoch `epoch` (see [`EpochKey`]).
    pub(crate) fn cached_leg(
        &self,
        parent: NodeId,
        epoch: Option<EpochKey>,
    ) -> Option<SimDuration> {
        let cache = self.leg?;
        (cache.parent == parent && Some(cache.epoch) == epoch)
            .then(|| SimDuration::from_micros(u64::from(cache.leg_us)))
    }

    /// Remembers `leg` as the one-way delay from `parent` during `epoch`.
    /// An epoch or leg past the cache's 32-bit range is simply not
    /// cached.
    pub(crate) fn cache_leg(&mut self, parent: NodeId, epoch: Option<EpochKey>, leg: SimDuration) {
        self.leg = epoch
            .zip(u32::try_from(leg.as_micros()).ok())
            .map(|(epoch, leg_us)| LegCache {
                parent,
                epoch,
                leg_us,
            });
    }
}

/// A drift epoch as the leg cache keys it: `epoch_index + 1`, nonzero
/// so that `Option<LegCache>` needs no extra tag.
pub(crate) type EpochKey = NonZeroU32;

/// The epoch key of `at`, or `None` past the 32-bit range.
pub(crate) fn epoch_key(at: SimTime) -> Option<EpochKey> {
    u32::try_from(epoch_index(at) + 1)
        .ok()
        .and_then(NonZeroU32::new)
}

/// One subscription's last viewer-parent leg, valid while the tree
/// parent and the drift epoch stay the same: delays depend on time only
/// through the epoch index (see `telecast_net::DelayModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LegCache {
    /// The parent the leg was measured from.
    pub(crate) parent: NodeId,
    /// The drift epoch it was measured in.
    pub(crate) epoch: EpochKey,
    /// The one-way delay in µs.
    pub(crate) leg_us: u32,
}

/// All session state of one viewer gateway.
#[derive(Debug, Clone)]
pub struct ViewerState {
    /// Network identity.
    pub node: NodeId,
    /// Geographic region (decides the LSC and the CDN edge).
    pub region: Region,
    /// Inbound/outbound port accounts.
    pub ports: NodePorts,
    /// Lifecycle status.
    pub status: ViewerStatus,
    /// Currently requested view, when connected.
    pub view: Option<ViewId>,
    /// Accepted stream subscriptions.
    pub subs: VecMap<StreamId, StreamSub>,
    /// Temporary direct-CDN serves installed by the fast view-change path,
    /// released once the background join lands.
    pub temp_leases: VecMap<StreamId, CdnLease>,
}

impl ViewerState {
    /// Creates an idle viewer.
    pub fn new(node: NodeId, region: Region, ports: NodePorts) -> Self {
        ViewerState {
            node,
            region,
            ports,
            status: ViewerStatus::Idle,
            view: None,
            subs: VecMap::new(),
            temp_leases: VecMap::new(),
        }
    }

    /// Number of streams currently received (excluding temporary
    /// view-change serves).
    pub fn stream_count(&self) -> usize {
        self.subs.len()
    }

    /// The layer indexes of all subscribed streams.
    pub fn layers(&self) -> impl Iterator<Item = u64> + '_ {
        self.subs.values().map(|s| s.layer)
    }

    /// The deepest (maximum) layer across subscriptions, if any.
    pub fn max_layer(&self) -> Option<u64> {
        self.layers().max()
    }

    /// Whether the viewer currently has any stream served by the CDN
    /// (including temporary view-change serves).
    pub fn uses_cdn(&self) -> bool {
        !self.temp_leases.is_empty() || self.subs.values().any(|s| s.parent == TreeParent::Cdn)
    }
}

/// A small ordered map backed by a `Vec` of `(key, value)` pairs kept
/// sorted by key.
///
/// A viewer holds a handful of streams, so a binary search over one
/// contiguous vector beats a tree of boxed nodes on lookups and on
/// allocations. The API mirrors the subset of `BTreeMap` the session
/// uses, and iteration runs in ascending key order like a `BTreeMap`'s.
#[derive(Debug, Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Makes room for exactly `additional` more entries.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes every entry, yielding them in ascending key order and
    /// keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.entries.drain(..)
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in ascending key order, mutably.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` is absent.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not in VecMap")
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// The session's viewers in one dense slab, indexed by node id.
///
/// A session creates its viewers once, at build time, right after its
/// producers, controllers and CDN edges, so their ids come from
/// `NodeRegistry::add` as one contiguous run. Slot `i` holds the viewer
/// with id `base + i`: a lookup is a subtraction and a bounds check, and
/// iterating the slab visits viewers in ascending `NodeId` order, the
/// order the determinism contract relies on.
#[derive(Debug)]
pub(crate) struct ViewerTable {
    base: usize,
    slots: Vec<ViewerState>,
}

impl ViewerTable {
    /// An empty table with room for `capacity` viewers.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ViewerTable {
            base: 0,
            slots: Vec::with_capacity(capacity),
        }
    }

    /// Appends `state`; the first push fixes the base id.
    ///
    /// # Panics
    ///
    /// Panics unless `state.node` directly follows the last viewer's id.
    pub(crate) fn push(&mut self, state: ViewerState) {
        let index = state.node.index();
        if self.slots.is_empty() {
            self.base = index;
        }
        assert_eq!(
            index,
            self.base + self.slots.len(),
            "viewer ids must be contiguous"
        );
        self.slots.push(state);
    }

    /// The viewer with id `node`, or `None` for any other node (a
    /// producer, controller or CDN edge below the base, or an id past the
    /// last viewer).
    pub(crate) fn get(&self, node: &NodeId) -> Option<&ViewerState> {
        node.index()
            .checked_sub(self.base)
            .and_then(|i| self.slots.get(i))
    }

    /// The slab slot of viewer `node`: a dense index below
    /// [`Self::len`], or `None` for any other node.
    pub(crate) fn slot(&self, node: &NodeId) -> Option<usize> {
        node.index()
            .checked_sub(self.base)
            .filter(|&i| i < self.slots.len())
    }

    /// Number of viewers.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The viewer with id `node`, mutably.
    pub(crate) fn get_mut(&mut self, node: &NodeId) -> Option<&mut ViewerState> {
        node.index()
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(i))
    }

    /// Every viewer in ascending `NodeId` order.
    pub(crate) fn values(&self) -> std::slice::Iter<'_, ViewerState> {
        self.slots.iter()
    }
}

impl Index<&NodeId> for ViewerTable {
    type Output = ViewerState;

    /// # Panics
    ///
    /// Panics if `node` is not a viewer of this table.
    fn index(&self, node: &NodeId) -> &ViewerState {
        self.get(node)
            .unwrap_or_else(|| panic!("{node} is not a viewer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_net::{Bandwidth, NodeKind, NodeRegistry};

    fn idle(id: NodeId) -> ViewerState {
        ViewerState::new(
            id,
            Region::Asia,
            NodePorts::new(Bandwidth::from_mbps(12), Bandwidth::from_mbps(6)),
        )
    }

    fn viewer() -> ViewerState {
        let mut reg = NodeRegistry::new();
        idle(reg.add(NodeKind::Viewer, Region::Asia))
    }

    #[test]
    fn viewer_table_resolves_only_its_viewers_in_id_order() {
        let mut reg = NodeRegistry::new();
        let producer = reg.add(NodeKind::Producer, Region::NorthAmerica);
        let gsc = reg.add(NodeKind::GlobalController, Region::NorthAmerica);
        let lsc = reg.add(NodeKind::LocalController, Region::Asia);
        let edge = reg.add(NodeKind::CdnServer, Region::Asia);
        let ids: Vec<NodeId> = (0..4)
            .map(|_| reg.add(NodeKind::Viewer, Region::Asia))
            .collect();
        let past_the_end = reg.add(NodeKind::Viewer, Region::Asia);
        let mut table = ViewerTable::with_capacity(ids.len());
        for &id in &ids {
            table.push(idle(id));
        }
        let order: Vec<NodeId> = table.values().map(|v| v.node).collect();
        assert_eq!(order, ids, "slab order is NodeId order");
        for id in [producer, gsc, lsc, edge, past_the_end] {
            assert!(table.get(&id).is_none(), "{id} resolved");
        }
        for &id in &ids {
            assert_eq!(table[&id].node, id);
            assert_eq!(table.get_mut(&id).map(|v| v.node), Some(id));
        }
    }

    #[test]
    #[should_panic(expected = "viewer ids must be contiguous")]
    fn viewer_table_rejects_a_non_contiguous_id() {
        let mut reg = NodeRegistry::new();
        let first = reg.add(NodeKind::Viewer, Region::Asia);
        let _skipped = reg.add(NodeKind::Viewer, Region::Asia);
        let third = reg.add(NodeKind::Viewer, Region::Asia);
        let mut table = ViewerTable::with_capacity(2);
        table.push(idle(first));
        table.push(idle(third));
    }

    #[test]
    fn vec_map_behaves_like_an_ordered_map() {
        let mut map = VecMap::new();
        for k in [5u32, 1, 3] {
            assert_eq!(map.insert(k, k * 10), None);
        }
        assert_eq!(map.insert(3, 33), Some(30));
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 3, 5]);
        assert_eq!(map.values().copied().collect::<Vec<_>>(), [10, 33, 50]);
        assert_eq!(map[&5], 50);
        assert!(map.contains_key(&1) && !map.contains_key(&2));
        *map.get_mut(&1).unwrap() += 1;
        for v in map.values_mut().rev().take(1) {
            *v += 5;
        }
        assert_eq!(map[&5], 55);
        assert_eq!(map.remove(&3), Some(33));
        assert_eq!(map.remove(&3), None);
        let pairs: Vec<(u32, u32)> = (&map).into_iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, [(1, 11), (5, 55)]);
        assert_eq!(map.into_iter().collect::<Vec<_>>(), [(1, 11), (5, 55)]);
    }

    #[test]
    fn leg_cache_hits_only_its_parent_within_its_epoch() {
        let mut reg = NodeRegistry::new();
        let a = reg.add(NodeKind::Viewer, Region::Asia);
        let b = reg.add(NodeKind::Viewer, Region::Asia);
        let mut sub = StreamSub {
            parent: TreeParent::Viewer(a),
            lease: None,
            base_e2e: SimDuration::from_secs(60),
            e2e: SimDuration::from_secs(60),
            layer: 0,
            pushed_down: false,
            bitrate_kbps: 2_000,
            leg: None,
            up: TreeParent::Viewer(a),
            up_e2e: SimDuration::ZERO,
        };
        let first = epoch_key(SimTime::ZERO);
        assert_eq!(first, epoch_key(SimTime::from_secs(15 * 60 - 1)));
        let second = epoch_key(SimTime::from_secs(15 * 60));
        assert_ne!(first, second);
        let leg = SimDuration::from_millis(40);
        assert_eq!(sub.cached_leg(a, first), None);
        sub.cache_leg(a, first, leg);
        assert_eq!(sub.cached_leg(a, first), Some(leg));
        assert_eq!(sub.cached_leg(b, first), None);
        assert_eq!(sub.cached_leg(a, second), None);
        // A leg past the 32-bit µs range is left uncached.
        sub.cache_leg(a, first, SimDuration::from_secs(5_000));
        assert_eq!(sub.cached_leg(a, first), None);
    }

    #[test]
    fn fresh_viewer_is_idle_and_empty() {
        let v = viewer();
        assert_eq!(v.status, ViewerStatus::Idle);
        assert_eq!(v.stream_count(), 0);
        assert_eq!(v.max_layer(), None);
        assert!(!v.uses_cdn());
    }

    #[test]
    fn layer_accessors_reflect_subs() {
        use telecast_media::SiteId;
        let mut v = viewer();
        for (c, layer) in [(0u16, 2u64), (1, 5)] {
            v.subs.insert(
                StreamId::new(SiteId::new(0), c),
                StreamSub {
                    parent: TreeParent::Cdn,
                    lease: None,
                    base_e2e: SimDuration::from_secs(60),
                    e2e: SimDuration::from_secs(60),
                    layer,
                    pushed_down: false,
                    bitrate_kbps: 2_000,
                    leg: None,
                    up: TreeParent::Cdn,
                    up_e2e: SimDuration::ZERO,
                },
            );
        }
        assert_eq!(v.stream_count(), 2);
        assert_eq!(v.max_layer(), Some(5));
        assert!(v.uses_cdn());
    }
}
