//! The 4D TeleCast session orchestrator.
//!
//! [`TelecastSession`] ties every substrate together and drives the
//! paper's protocols through the discrete-event engine:
//!
//! * **join** (Fig. 5): viewer → GSC → LSC legs, then bandwidth
//!   allocation (§IV-B1), topology formation per accepted stream
//!   (§IV-B2), delay-layer subscription with push-down (§V), and the
//!   subscription chain to displaced subtrees;
//! * **view change** (§VI): instant CDN serving of the new view plus a
//!   background join, with victim recovery;
//! * **departure/failure**: victim viewers are parked on the CDN at their
//!   current delay layer and repositioned via degree push-down in the
//!   background.
//!
//! All stochastic inputs derive from the configured seed; two sessions
//! with equal configuration and workload produce identical metrics.

use std::collections::{BTreeMap, VecDeque};

use telecast_sim::{FxHashMap, FxHashSet};

use telecast_cdn::{Autoscaler, CapacityBroker, CdnLease, ScaleDirection, TenantHandle};
use telecast_media::{PrioritizedStream, StreamId, ViewCatalog, ViewId};
use telecast_net::{
    Bandwidth, CoordinateDelayModel, DelayBackend, DelayModel, NodeId, NodeKind, NodePorts,
    NodeRegistry, Region, SyntheticPlanetLab,
};
use telecast_overlay::{
    GroupTable, SessionRoutingTable, StreamTree, SubscriptionPoint, TreeParent,
};
use telecast_sim::{Engine, SimDuration, SimRng, SimTime};

use crate::alloc::{covers_all_sites, InboundPlan, OutboundPlan};
use crate::config::{DelayModelChoice, PlacementStrategy, SessionConfig};
use crate::error::TelecastError;
use crate::layers::LayerScheme;
use crate::metrics::SessionMetrics;
use crate::monitor::GscMonitor;
use crate::viewer::{epoch_key, StreamSub, VecMap, ViewerState, ViewerStatus, ViewerTable};
use telecast_media::FrameNumber;

/// Damping cap for subscription-chain propagation per structural change.
const RESYNC_VISIT_CAP: u32 = 8;

/// Random session members the Random baseline probes per stream before
/// falling back to the CDN. Three lands the baseline in the 80–88 %
/// acceptance band Fig. 15(b) reports at 1000 viewers.
const RANDOM_PROBES: u32 = 3;

/// One stream's re-derived placement in [`TelecastSession::resync_viewer`].
struct ResyncEntry {
    stream: StreamId,
    parent: TreeParent,
    /// The one-way leg from a viewer parent (zero under the CDN).
    leg: SimDuration,
    /// Delay along the overlay path, before delayed receive.
    base: SimDuration,
    /// Eq. 1 layer of `base`.
    natural: u64,
    /// Layer after push-down and residual alignment.
    layer: u64,
    /// Effective delay after layer positioning.
    e2e: SimDuration,
    pushed_down: bool,
}

/// One viewer's visit record within a subscription chain, valid only in
/// the [`TelecastSession::propagate_resync`] call that stamped it.
#[derive(Clone, Copy, Default)]
struct Visit {
    /// The stamp of the call that wrote this record; a record from any
    /// other call reads as a fresh one.
    call: u64,
    /// Pops of this viewer so far, capped at [`RESYNC_VISIT_CAP`].
    count: u32,
    /// The frame's [`ResyncFrame::generation`] in which the viewer last
    /// *settled*: its resync made no §VI reroute and no drop, so a re-run
    /// would read the same inputs and change nothing. Zero (never a
    /// generation) once a parent changes one of the viewer's streams.
    settled_in: u32,
}

/// The visit records of every [`TelecastSession::propagate_resync`]
/// call: one dense array over the [`ViewerTable`] slab, each record
/// stamped with the call that wrote it, so a new call starts from zero
/// counts without clearing anything.
///
/// Calls nest, and a nested call needs counts of its own while its
/// caller is suspended. So the first time a nested call touches a
/// viewer, it saves the record it overwrites, and puts every saved
/// record back when it ends.
#[derive(Default)]
struct ResyncVisits {
    /// Per-viewer records, indexed by [`ViewerTable`] slot.
    records: Vec<Visit>,
    /// `(slot, record)` pairs that nested calls overwrote, innermost
    /// last.
    saved: Vec<(usize, Visit)>,
    /// Stamps handed out so far; every call takes a fresh one.
    calls: u64,
    /// Calls in progress.
    depth: u32,
    /// The most calls ever in progress at once: how deep drops have
    /// nested the chain (see ARCHITECTURE.md, "The event loop").
    max_depth: u32,
}

impl ResyncVisits {
    /// Starts a call over a session of `viewers` viewers; returns its
    /// stamp and the mark [`Self::end`] restores to.
    fn begin(&mut self, viewers: usize) -> (u64, usize) {
        if self.records.len() < viewers {
            self.records.resize(viewers, Visit::default());
        }
        self.calls += 1;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        (self.calls, self.saved.len())
    }

    /// Call `call`'s record of the viewer in `slot`.
    fn visit(&mut self, call: u64, slot: usize) -> &mut Visit {
        let record = self.records[slot];
        if record.call != call {
            if self.depth > 1 {
                self.saved.push((slot, record));
            }
            self.records[slot] = Visit {
                call,
                ..Visit::default()
            };
        }
        &mut self.records[slot]
    }

    /// Ends the innermost call, restoring the records it overwrote.
    fn end(&mut self, mark: usize) {
        while self.saved.len() > mark {
            let (slot, record) = self.saved.pop().expect("above the mark");
            self.records[slot] = record;
        }
        self.depth -= 1;
    }
}

/// The reusable buffers of one [`TelecastSession::propagate_resync`] call.
/// [`TelecastSession::after_reposition`] borrows a spare frame for its
/// `displaced` and `leases` lists.
#[derive(Default)]
struct ResyncFrame {
    /// Viewers still to resync, in visit order.
    queue: VecDeque<NodeId>,
    /// Starts at 1 and moves on at every drop in the call: a drop's
    /// victim recovery mutates trees, which outdates every settled mark.
    generation: u32,
    /// Per-stream results of the viewer being resynced.
    finals: Vec<ResyncEntry>,
    /// Layer scratch for the push-down pass.
    layers: Vec<u64>,
    /// Streams whose effective delay the last resync changed.
    changed: Vec<StreamId>,
    /// The children of `changed` in the group's trees, in order: the
    /// viewers the chain enqueues next.
    walked: Vec<NodeId>,
    /// Streams the last resync's pass 2 moves to the CDN (§VI reroute).
    reroutes: Vec<StreamId>,
    /// Streams the last resync gives up.
    drops: Vec<StreamId>,
    /// CDN leases a resync or a reposition no longer needs.
    leases: Vec<CdnLease>,
    /// The repositioned viewer's children in
    /// [`TelecastSession::after_reposition`].
    displaced: Vec<NodeId>,
}

/// The reusable buffers of one [`TelecastSession::process_join`] call,
/// which [`TelecastSession::teardown_subscriptions`] borrows for the
/// subscriptions it releases. Taken from the session, handed through and
/// returned cleared, like a [`ResyncFrame`]; a nested call would take a
/// fresh one.
#[derive(Default)]
struct JoinScratch {
    /// §IV-B1 inbound plan: the accepted streams, in priority order.
    inbound: InboundPlan,
    /// §IV-B1 outbound plan: the out-degree of each accepted stream.
    outbound: OutboundPlan,
    /// The streams §IV-B2 placed, in priority order, with their parents
    /// in `parents` at the same index.
    placed: Vec<PrioritizedStream>,
    parents: Vec<TreeParent>,
    /// Members the joiner displaced: the subscription chain's seeds.
    displaced: Vec<NodeId>,
    /// CDN leases acquired mid-placement, moved into [`StreamSub::lease`]
    /// at the commit or released on rollback.
    pending: VecMap<StreamId, CdnLease>,
    /// The subscriptions being layered (§V), in placement order.
    subs: Vec<(StreamId, StreamSub)>,
    /// Layer scratch for the push-down pass.
    layers: Vec<u64>,
    /// `placed` less the streams the layering gave up.
    kept: Vec<PrioritizedStream>,
    /// The joiner's committed streams, in stream order.
    streams: Vec<StreamId>,
}

impl JoinScratch {
    fn clear(&mut self) {
        self.inbound.accepted.clear();
        self.outbound.slots.clear();
        self.placed.clear();
        self.parents.clear();
        self.displaced.clear();
        debug_assert!(self.pending.is_empty(), "a join left pending leases behind");
        self.subs.clear();
        self.layers.clear();
        self.kept.clear();
        self.streams.clear();
    }
}

/// How many times one viewer's parked join may be retried before it is
/// given up on. Bounds viewers whose rejection is *not* a pool-capacity
/// signal (e.g. insufficient inbound) — without the cap they would loop
/// retry → reject → re-park on every autoscale tick forever.
const JOIN_RETRY_CAP: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEvent {
    ProcessJoin {
        viewer: NodeId,
        view: ViewId,
        requested_at: SimTime,
    },
    CompleteJoin {
        requested_at: SimTime,
    },
    ProcessViewChange {
        viewer: NodeId,
        view: ViewId,
        requested_at: SimTime,
    },
    BackgroundJoin {
        viewer: NodeId,
        view: ViewId,
    },
    ProcessDepart {
        viewer: NodeId,
    },
    RepositionVictim {
        viewer: NodeId,
        stream: StreamId,
    },
    /// §VI delay-layer adaptation tick: every connected viewer re-derives
    /// its layers from the currently observed delays.
    PeriodicAdaptation,
    /// One Poisson churn arrival: admit a pool viewer and self-schedule
    /// the next arrival while before the churn horizon.
    ChurnArrival,
    /// End of a churn-admitted viewer's dwell: depart gracefully or
    /// (`fail`) abruptly, and return the viewer to the churn pool.
    ChurnLeave {
        viewer: NodeId,
        fail: bool,
    },
    /// GSC monitoring sample: record population and CDN usage into the
    /// session time series (paper §III's continuous monitoring, as an
    /// engine event rather than an ad-hoc tick).
    MonitorSample,
    /// Elastic-CDN control tick: evaluate the autoscale policy against
    /// the outbound pool, apply any scale action, and retry parked
    /// CDN-rejected joins after a scale-up.
    AutoscaleTick,
}

/// Builder for [`TelecastSession`]; fixes the viewer population so the
/// latency matrix can cover every node.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: SessionConfig,
    viewer_count: usize,
    home_region: Option<Region>,
    cdn_handle: Option<TenantHandle>,
}

impl SessionBuilder {
    /// Attaches this session to a shared [`CapacityBroker`] through
    /// `handle` instead of letting it own a private CDN — the
    /// multi-tenant path (and the sharded runtime's, where every shard
    /// windows one slot of the same broker). Without this call the
    /// builder constructs a single-tenant broker with a full quota,
    /// which behaves exactly like the legacy owned `Cdn`.
    pub fn with_cdn_handle(mut self, handle: TenantHandle) -> Self {
        self.cdn_handle = Some(handle);
        self
    }
    /// Number of viewer gateways to provision (they start idle; joins are
    /// driven by the workload).
    pub fn viewers(mut self, count: usize) -> Self {
        self.viewer_count = count;
        self
    }

    /// Provisions `count` viewer gateways **all in `region`** instead of
    /// sampling regions from the population weights — the shard builder:
    /// a per-region shard owns exactly its region's viewers, and the
    /// coordinator splits the global population by the same weights the
    /// sampler would have used.
    pub fn viewers_in(mut self, count: usize, region: Region) -> Self {
        self.viewer_count = count;
        self.home_region = Some(region);
        self
    }

    /// Constructs the session.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SessionConfig::validate`]).
    pub fn build(self) -> TelecastSession {
        let config = self.config;
        if let Err(msg) = config.validate() {
            panic!("invalid session config: {msg}");
        }
        let catalog = ViewCatalog::canonical(&config.sites, config.streams_per_local_view);
        let scheme = LayerScheme::new(config.cdn.delta, config.dbuff, config.kappa, config.dmax);

        let mut rng = SimRng::seed_from_u64(config.seed);
        let mut topology_rng = rng.fork(1);
        let workload_rng = rng.fork(2);

        let mut registry = NodeRegistry::new();
        // Producers, GSC, per-region LSCs and CDN edges first, then the
        // viewer pool.
        for site in &config.sites {
            let _ = site; // producer gateways share the GSC's region here
            registry.add(NodeKind::Producer, Region::NorthAmerica);
        }
        let gsc_node = registry.add(NodeKind::GlobalController, Region::NorthAmerica);
        let mut lsc_nodes = BTreeMap::new();
        let mut edge_nodes = BTreeMap::new();
        for &region in &Region::ALL {
            lsc_nodes.insert(region, registry.add(NodeKind::LocalController, region));
            edge_nodes.insert(region, registry.add(NodeKind::CdnServer, region));
        }
        let mut viewer_pool = Vec::with_capacity(self.viewer_count);
        let mut viewers = ViewerTable::with_capacity(self.viewer_count);
        for _ in 0..self.viewer_count {
            let region = match self.home_region {
                Some(region) => region,
                None => sample_region(&mut topology_rng),
            };
            let node = registry.add(NodeKind::Viewer, region);
            let ports = NodePorts::new(
                config.viewer_inbound.sample(&mut topology_rng),
                config.viewer_outbound.sample(&mut topology_rng),
            );
            viewers.push(ViewerState::new(node, region, ports));
            viewer_pool.push(node);
        }

        let delay_seed = config.seed ^ 0x0D15_EA5E;
        let delays = match config.delay_model {
            DelayModelChoice::Auto => DelayBackend::auto(&registry, delay_seed),
            DelayModelChoice::Dense => {
                DelayBackend::Dense(SyntheticPlanetLab::generate(&registry, delay_seed))
            }
            DelayModelChoice::Coordinate => {
                DelayBackend::Coordinate(CoordinateDelayModel::generate(&registry, delay_seed))
            }
        };
        let mut stream_bw = FxHashMap::default();
        for site in &config.sites {
            for s in site.streams() {
                stream_bw.insert(s.id, Bandwidth::from_kbps(s.bitrate_kbps));
            }
        }

        let monitor = GscMonitor::new(&config.sites);
        let cdn = match self.cdn_handle {
            Some(handle) => handle,
            None => CapacityBroker::single(config.cdn),
        };
        let pool_slots = cdn.pool_slots();
        let autoscalers = Autoscaler::per_slot(
            config.autoscale,
            config.predictive,
            config.cdn.pool_scope,
            pool_slots,
        );
        // Pre-size the hot-path queues to the population: a churning
        // session keeps roughly one dwell timer per connected viewer in
        // the heap, so without the headroom a million-viewer prefill
        // reallocates (and copies) the heap a dozen times mid-run.
        let event_capacity = self.viewer_count + self.viewer_count / 4 + 64;
        let retry_capacity = (self.viewer_count / pool_slots.max(1) / 8).max(16);
        TelecastSession {
            cdn,
            monitor,
            catalog,
            scheme,
            registry,
            delays,
            engine: Engine::with_capacity(event_capacity),
            gsc_node,
            lsc_nodes,
            edge_nodes,
            scopes: Region::ALL.iter().map(|_| GroupTable::new()).collect(),
            random_trees: FxHashMap::default(),
            random_edge_parent: FxHashMap::default(),
            viewers,
            viewer_pool,
            stream_bw,
            metrics: SessionMetrics::new(),
            rng: workload_rng,
            adaptation_armed: false,
            monitor_armed: false,
            last_adaptation: None,
            churn: None,
            autoscalers,
            autoscale_armed: false,
            retry_queues: (0..pool_slots)
                .map(|_| VecDeque::with_capacity(retry_capacity))
                .collect(),
            arrival_demand_kbps: vec![0; pool_slots],
            retry_parked: FxHashSet::default(),
            retry_counts: FxHashMap::default(),
            connected_count: 0,
            resync_frames: Vec::new(),
            resync_visits: ResyncVisits::default(),
            join_scratch: JoinScratch::default(),
            shard: None,
            config,
        }
    }
}

fn sample_region(rng: &mut SimRng) -> Region {
    let mut target = rng.unit();
    for &region in &Region::ALL {
        target -= region.weight();
        if target <= 0.0 {
            return region;
        }
    }
    Region::Oceania
}

/// A running 4D TeleCast session.
///
/// ```
/// use telecast::{SessionConfig, TelecastSession};
/// use telecast_media::ViewId;
///
/// let mut session = TelecastSession::builder(SessionConfig::default())
///     .viewers(10)
///     .build();
/// let ids: Vec<_> = session.viewer_ids().to_vec();
/// for v in ids {
///     session.request_join(v, ViewId::new(0))?;
/// }
/// session.run_to_idle();
/// assert!(session.metrics().acceptance_ratio() > 0.9);
/// # Ok::<(), telecast::TelecastError>(())
/// ```
pub struct TelecastSession {
    config: SessionConfig,
    catalog: ViewCatalog,
    scheme: LayerScheme,
    registry: NodeRegistry,
    delays: DelayBackend,
    engine: Engine<SessionEvent>,
    cdn: TenantHandle,
    gsc_node: NodeId,
    lsc_nodes: BTreeMap<Region, NodeId>,
    edge_nodes: BTreeMap<Region, NodeId>,
    /// Group tables, one per LSC region (indexed by `Region::index`).
    scopes: Vec<GroupTable>,
    /// Global per-stream trees used by the Random baseline (no grouping).
    random_trees: FxHashMap<StreamId, StreamTree>,
    /// Per-edge outbound reservations of the Random baseline:
    /// (child, stream) → parent that holds the reservation.
    random_edge_parent: FxHashMap<(NodeId, StreamId), NodeId>,
    /// Every viewer, indexed by node id (see [`ViewerTable`]).
    viewers: ViewerTable,
    viewer_pool: Vec<NodeId>,
    stream_bw: FxHashMap<StreamId, Bandwidth>,
    metrics: SessionMetrics,
    rng: SimRng,
    adaptation_armed: bool,
    monitor_armed: bool,
    /// `(virtual time, drift epoch)` of the last adaptation pass, used to
    /// skip ticks during which no observed delay can have changed.
    last_adaptation: Option<(SimTime, u64)>,
    /// The continuous-churn runtime, when started.
    churn: Option<crate::churn::ChurnRuntime>,
    /// The elastic-CDN controllers, one per pool slot (empty when
    /// autoscaling is off). Slot 0 is the whole pool under the global
    /// scope; under per-region pools each slot is one region's
    /// controller with its own cooldown clocks.
    autoscalers: Vec<Autoscaler>,
    autoscale_armed: bool,
    /// CDN-rejected joins parked for retry after the next scale-up, in
    /// rejection order — one queue per pool slot, so a retry only
    /// competes for headroom in its own region's pool.
    retry_queues: Vec<VecDeque<(NodeId, ViewId)>>,
    /// Fresh join demand (Kbps of requested view bandwidth) observed per
    /// pool slot since the last autoscale tick — the predictive
    /// controller's inflow-EWMA input.
    arrival_demand_kbps: Vec<u64>,
    /// Members of the retry queue that are still eligible (a churn dwell
    /// expiry unparks its viewer — the pool owns it again from then on).
    retry_parked: FxHashSet<NodeId>,
    /// Retries spent per viewer since its last admission or dwell
    /// expiry; parking stops at [`JOIN_RETRY_CAP`].
    retry_counts: FxHashMap<NodeId, u32>,
    /// Maintained count of viewers in [`ViewerStatus::Connected`] — the
    /// population the monitor samples without scanning the pool.
    connected_count: usize,
    /// Spare [`ResyncFrame`]s, one per nesting level reached so far.
    resync_frames: Vec<ResyncFrame>,
    /// The subscription chain's visit records, shared by every nesting
    /// level.
    resync_visits: ResyncVisits,
    /// The join pipeline's buffers, between joins.
    join_scratch: JoinScratch,
    /// Sharded-mode context, installed when this session is one shard of
    /// a [`crate::ShardedSession`]. `None` on the legacy single-loop
    /// path, which stays behaviourally untouched.
    shard: Option<crate::shard::ShardState>,
    monitor: GscMonitor,
}

impl TelecastSession {
    /// Starts building a session.
    pub fn builder(config: SessionConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            viewer_count: 0,
            home_region: None,
            cdn_handle: None,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The canonical view catalog of this session.
    pub fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    /// The delay-layer geometry.
    pub fn scheme(&self) -> &LayerScheme {
        &self.scheme
    }

    /// The provisioned viewer gateways, in creation order.
    pub fn viewer_ids(&self) -> &[NodeId] {
        &self.viewer_pool
    }

    /// The registry of all network nodes (producers, controllers, CDN
    /// edges, viewers).
    pub fn registry(&self) -> &NodeRegistry {
        &self.registry
    }

    /// The delay substrate the session simulates on (dense matrix for
    /// small populations, O(n) coordinates at scale).
    pub fn delay_backend(&self) -> &DelayBackend {
        &self.delays
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Number of currently connected viewers (maintained, not scanned).
    pub fn connected_viewers(&self) -> usize {
        self.connected_count
    }

    /// Cumulative attach-planner level probes across every stream tree
    /// of the session (grouped scopes plus the Random baseline's global
    /// trees). Each probe is an O(log n) index lookup; scale tests bound
    /// this total to prove no O(n) per-join traversal was reintroduced.
    pub fn attach_probe_total(&self) -> u64 {
        self.tree_counter_total(StreamTree::attach_probes)
    }

    /// Cumulative per-node depth updates from subtree moves across every
    /// stream tree — the *apply* cost of displacements and repositions
    /// (planning is O(log n), but sliding a displaced subtree down a
    /// level costs O(subtree)). Scale tests bound this per placement to
    /// catch workloads that degenerate into chain-displacement storms.
    pub fn depth_shift_total(&self) -> u64 {
        self.tree_counter_total(StreamTree::depth_shift_ops)
    }

    fn tree_counter_total(&self, counter: impl Fn(&StreamTree) -> u64) -> u64 {
        let mut total = 0u64;
        for scope in &self.scopes {
            for (_, group) in scope.iter() {
                for (_, tree) in group.trees() {
                    total += counter(tree);
                }
            }
        }
        for tree in self.random_trees.values() {
            total += counter(tree);
        }
        total
    }

    /// The session's view of the CDN under simulation: a tenant handle
    /// onto the capacity broker (a lone full-quota tenant on the legacy
    /// single-broadcast path).
    pub fn cdn(&self) -> &TenantHandle {
        &self.cdn
    }

    /// A viewer's state.
    ///
    /// # Errors
    ///
    /// Returns [`TelecastError::UnknownViewer`] for ids not in the pool.
    pub fn viewer(&self, viewer: NodeId) -> Result<&ViewerState, TelecastError> {
        self.viewers
            .get(&viewer)
            .ok_or(TelecastError::UnknownViewer(viewer))
    }

    /// `viewer`'s session routing table (Table I), derived from the
    /// subscriptions: one forward per connected child whose subscription
    /// to a stream names `viewer` as its parent, matched on the stream
    /// and `viewer`'s own upstream for it (the CDN edge node when the CDN
    /// serves it). A pushed-down child is fed from its Eq. 2 frame, any
    /// other child live. The scan visits every viewer, so no event path
    /// calls it.
    ///
    /// # Errors
    ///
    /// Returns [`TelecastError::UnknownViewer`] for ids not in the pool.
    pub fn routing_table(&self, viewer: NodeId) -> Result<SessionRoutingTable, TelecastError> {
        self.viewer(viewer)?;
        let mut table = SessionRoutingTable::new();
        let connected = self
            .viewers
            .values()
            .filter(|c| c.status == ViewerStatus::Connected);
        for child in connected {
            for (&sid, sub) in &child.subs {
                if sub.parent != TreeParent::Viewer(viewer) {
                    continue;
                }
                let point = if sub.pushed_down {
                    SubscriptionPoint::Frame(self.subscription_frame_for(child.node, sid))
                } else {
                    SubscriptionPoint::Live
                };
                table.add_forward(sid, self.upstream_node_of(viewer, sid), child.node, point);
            }
        }
        Ok(table)
    }

    // ------------------------------------------------------------------
    // Public request API (schedules protocol events)
    // ------------------------------------------------------------------

    /// Requests that `viewer` join the session watching `view`, starting
    /// the Fig. 5 protocol now.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, views outside the catalog, or double joins.
    pub fn request_join(&mut self, viewer: NodeId, view: ViewId) -> Result<(), TelecastError> {
        self.request_join_at(viewer, view, self.engine.now())
    }

    /// Like [`TelecastSession::request_join`] at an explicit future time.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, views outside the catalog, or double joins.
    pub fn request_join_at(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        at: SimTime,
    ) -> Result<(), TelecastError> {
        self.request_join_inner(viewer, view, at, true)
    }

    /// The join entry point shared by fresh requests and retry drains.
    /// `fresh` gates the predictive demand observation: a retry re-bids
    /// demand the inflow EWMA already counted at first attempt, so
    /// letting it through would count one viewer up to the retry cap
    /// times — inflating the surge term during ramps and (worse) the
    /// negative trough term while a parked backlog is still draining.
    fn request_join_inner(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        at: SimTime,
        fresh: bool,
    ) -> Result<(), TelecastError> {
        self.check_view(view)?;
        let state = self
            .viewers
            .get(&viewer)
            .ok_or(TelecastError::UnknownViewer(viewer))?;
        if state.status == ViewerStatus::Connected || state.status == ViewerStatus::Joining {
            return Err(TelecastError::AlreadyJoined(viewer));
        }
        let region = state.region;
        // Fresh-demand observation for the predictive controllers: every
        // first-attempt join request bids its view's full CDN demand
        // against its region's pool slot, EWMA-smoothed at the next
        // autoscale tick.
        if fresh
            && (self
                .autoscalers
                .first()
                .map(Autoscaler::is_predictive)
                .unwrap_or(false)
                || self.cdn.fleet_managed())
        {
            let slot = self.cdn.slot_of(region);
            self.arrival_demand_kbps[slot] += self.view_demand_kbps(view);
        }
        // Four protocol legs (Fig. 5) plus LSC processing at each of the
        // three steps: bandwidth allocation, overlay construction, stream
        // subscription.
        let legs = self.leg(viewer, self.gsc_node)
            + self.leg(self.gsc_node, self.lsc_nodes[&region])
            + self.leg(self.lsc_nodes[&region], viewer)
            + self.leg(viewer, self.lsc_nodes[&region])
            + self.config.lsc_processing * 3;
        self.viewers.get_mut(&viewer).expect("checked").status = ViewerStatus::Joining;
        self.engine.schedule_at(
            at + legs,
            SessionEvent::ProcessJoin {
                viewer,
                view,
                requested_at: at,
            },
        );
        self.arm_adaptation();
        Ok(())
    }

    /// Schedules the first §VI adaptation tick and the first GSC
    /// monitoring sample once the session has any activity; subsequent
    /// ticks self-schedule while other events remain pending (so
    /// `run_to_idle` still terminates once the session quiesces).
    fn arm_adaptation(&mut self) {
        if !self.adaptation_armed {
            if let Some(period) = self.config.adaptation_period {
                self.adaptation_armed = true;
                self.engine
                    .schedule_after(period, SessionEvent::PeriodicAdaptation);
            }
        }
        if !self.monitor_armed {
            if let Some(period) = self.config.monitor_period {
                self.monitor_armed = true;
                self.engine
                    .schedule_after(period, SessionEvent::MonitorSample);
            }
        }
        if !self.autoscale_armed {
            if let Some(scaler) = self.autoscalers.first() {
                self.autoscale_armed = true;
                let period = scaler.policy().period;
                self.engine
                    .schedule_after(period, SessionEvent::AutoscaleTick);
            }
        }
    }

    /// One GSC monitoring sample (§III "continuously monitors"): the
    /// connected population and CDN outbound usage at the current virtual
    /// instant, recorded into the session time series. Re-arms itself
    /// while the session stays active.
    fn monitor_sample(&mut self) {
        let now = self.engine.now();
        let pool = self.cdn.outbound();
        let mbps = pool.used().as_mbps_f64();
        let provisioned = pool.total().as_mbps_f64();
        let utilisation = pool.utilisation();
        self.metrics
            .sample_population(now, self.connected_count as f64);
        self.metrics.sample_cdn_usage(now, mbps);
        self.metrics.sample_provisioned(now, provisioned);
        self.metrics.sample_cdn_utilisation(now, utilisation);
        for slot in 0..self.cdn.pool_slots() {
            self.metrics.sample_provisioned_slot(
                slot,
                now,
                self.cdn.pool(slot).total().as_mbps_f64(),
            );
        }
        if let Some(period) = self.config.monitor_period {
            if self.engine.peek_time().is_some() {
                self.engine
                    .schedule_after(period, SessionEvent::MonitorSample);
            } else {
                self.monitor_armed = false;
            }
        }
    }

    /// One elastic-CDN control tick: an [`Autoscaler::tick`] per pool
    /// slot on the slot's fresh arrival demand, with each matured
    /// forecast's error sampled into the metrics; then the resulting
    /// resize (accruing the slot's provisioned-capacity meter) and a
    /// retry of the joins parked on the slot's queue. Re-arms itself
    /// while the session stays active, like the monitor.
    fn autoscale_tick(&mut self) {
        let now = self.engine.now();
        let Some(first) = self.autoscalers.first() else {
            return;
        };
        let period = first.policy().period;
        // The forecast ratio is a property of the session-wide arrival
        // process, shared by every regional controller this tick.
        // The ratio is measured against the rate of ~2 ticks ago — the
        // reference the EWMA-smoothed demand observations effectively
        // reflect — so a burst's onset keeps its elevated forecast until
        // the observed demand catches up with the rate.
        let phase_ratio = first
            .predictive_policy()
            .and_then(|pred| self.phase_ratio(now, pred.horizon, period * 2))
            .unwrap_or(1.0);
        let mut scaled = false;
        for slot in 0..self.autoscalers.len() {
            let pool = self.cdn.pool(slot);
            let fresh_kbps = std::mem::replace(&mut self.arrival_demand_kbps[slot], 0);
            let metrics = &mut self.metrics;
            let decision =
                self.autoscalers[slot].tick(now, &pool, fresh_kbps, period, phase_ratio, |error| {
                    metrics.sample_forecast_error(slot, now, error)
                });
            if let Some(decision) = decision {
                let actual = self.cdn.apply_scale_slot(slot, decision.to, now);
                self.metrics
                    .sample_provisioned_slot(slot, now, actual.as_mbps_f64());
                scaled = true;
                match decision.direction {
                    ScaleDirection::Up => self.metrics.autoscale_ups.incr(),
                    ScaleDirection::Down => self.metrics.autoscale_downs.incr(),
                }
            }
        }
        // One aggregate sample per tick, after every slot has moved —
        // sampling inside the loop would emit several points with the
        // same timestamp (one per scaled region).
        if scaled {
            self.metrics
                .sample_provisioned(now, self.cdn.outbound().total().as_mbps_f64());
        }
        // Retry parked joins up to each pool's current headroom — after a
        // scale-up that immediately admits the front of the queue, and as
        // a trickle on every later tick while headroom remains (so the
        // tail keeps draining once the pool has caught up with demand).
        self.drain_retry_queues();
        if self.engine.peek_time().is_some() {
            self.engine
                .schedule_after(period, SessionEvent::AutoscaleTick);
        } else {
            self.autoscale_armed = false;
        }
    }

    /// This session's forecast phase ratio (expected arrival-rate ratio
    /// one `horizon` ahead, measured against the rate `lag` ago), or
    /// `None` when no churn runtime drives the session.
    pub(crate) fn phase_ratio(
        &self,
        now: SimTime,
        horizon: SimDuration,
        lag: SimDuration,
    ) -> Option<f64> {
        self.churn
            .as_ref()
            .map(|c| c.spec.rate_profile.forecast_ratio_lagged(now, horizon, lag))
    }

    /// Retries parked CDN-rejected joins at the current instant, FIFO
    /// per pool slot, budgeted by that pool's current headroom: each
    /// retry is charged the full CDN demand of its view, and draining
    /// stops once the headroom is spent (the rest stays parked for the
    /// next tick). Without the budget a scale-up would re-flood the pool
    /// with every parked join at once — a thundering herd whose
    /// re-rejections dwarf the admissions. A parked viewer is skipped
    /// when its state moved on since the rejection — a churn dwell
    /// expiry returned it to the pool (unparked), or a scripted re-join
    /// already changed its status.
    fn drain_retry_queues(&mut self) {
        for slot in 0..self.retry_queues.len() {
            if self.retry_queues[slot].is_empty() {
                continue;
            }
            let budget_kbps = self.cdn.pool(slot).available().as_kbps();
            self.drain_retry_slot(slot, budget_kbps);
        }
    }

    /// Drains one slot's retry queue under an explicit bandwidth budget
    /// — the session-local path hands the pool's whole headroom here; a
    /// fleet barrier hands each tenant its arbitrated share instead.
    fn drain_retry_slot(&mut self, slot: usize, mut budget_kbps: u64) {
        let now = self.engine.now();
        while let Some((viewer, view)) = self.retry_queues[slot].pop_front() {
            if !self.retry_parked.contains(&viewer) {
                continue; // unparked since; drop the stale entry
            }
            // Status check before the budget check: a no-longer-
            // Rejected entry costs nothing and must not stall the
            // queue behind it.
            let rejected = self
                .viewers
                .get(&viewer)
                .map(|v| v.status == ViewerStatus::Rejected)
                .unwrap_or(false);
            if !rejected {
                self.retry_parked.remove(&viewer);
                continue;
            }
            let demand = self.view_demand_kbps(view);
            if budget_kbps < demand {
                self.retry_queues[slot].push_front((viewer, view));
                break;
            }
            self.retry_parked.remove(&viewer);
            budget_kbps -= demand;
            *self.retry_counts.entry(viewer).or_insert(0) += 1;
            self.metrics.join_retries.incr();
            let _ = self.request_join_inner(viewer, view, now, false);
        }
    }

    /// Worst-case CDN demand of one view, in Kbps: every stream served
    /// from the pool (the conservative budget unit for retry draining —
    /// P2P slots can only make the actual cost lower).
    fn view_demand_kbps(&self, view: ViewId) -> u64 {
        self.catalog
            .view(view)
            .streams()
            .map(|sid| self.stream_bw[&sid].as_kbps())
            .sum()
    }

    /// Parks a CDN-rejected foreground join for retry after the next
    /// scale-up, on the queue of the viewer's region's pool slot. No-op
    /// without an autoscaler (unless a fleet barrier drains the queue
    /// instead), when already parked, or once the viewer exhausted its
    /// [`JOIN_RETRY_CAP`].
    fn park_rejected(&mut self, viewer: NodeId, view: ViewId) {
        if self.autoscalers.is_empty() && !self.cdn.fleet_managed() {
            return;
        }
        if self.retry_counts.get(&viewer).copied().unwrap_or(0) >= JOIN_RETRY_CAP {
            return;
        }
        if self.retry_parked.insert(viewer) {
            let slot = self.cdn.slot_of(self.viewers[&viewer].region);
            self.retry_queues[slot].push_back((viewer, view));
            self.metrics.peak_retry_queue = self
                .metrics
                .peak_retry_queue
                .max(self.retry_parked.len() as u64);
        }
    }

    /// One §VI delay-layer adaptation pass, incremental: delays only move
    /// when the trace crosses a 15-minute drift-epoch boundary, so a tick
    /// inside the same epoch as the previous pass is a no-op, and on a
    /// boundary only the viewers whose *observed* delays (the one-way
    /// legs from their viewer parents) actually changed are resynced —
    /// instead of every connected viewer on every tick. The first pass
    /// after arming still walks everyone, since joins may have computed
    /// their layers in earlier epochs.
    fn periodic_adaptation(&mut self) {
        let now = self.engine.now();
        let epoch = telecast_net::epoch_index(now);
        let prev = self.last_adaptation;
        self.last_adaptation = Some((now, epoch));
        let seeds: Vec<(NodeId, ViewId, Region)> = match prev {
            Some((_, prev_epoch)) if prev_epoch == epoch => Vec::new(),
            Some((prev_at, _)) => self
                .viewers
                .values()
                .filter(|v| v.status == ViewerStatus::Connected)
                .filter_map(|v| v.view.map(|view| (v, view)))
                .filter(|(v, _)| {
                    v.subs.values().any(|sub| match sub.parent {
                        TreeParent::Viewer(p) => {
                            self.delays.one_way(now, p, v.node)
                                != self.delays.one_way(prev_at, p, v.node)
                        }
                        TreeParent::Cdn => false,
                    })
                })
                .map(|(v, view)| (v.node, view, v.region))
                .collect(),
            None => self
                .viewers
                .values()
                .filter(|v| v.status == ViewerStatus::Connected)
                .filter_map(|v| v.view.map(|view| (v.node, view, v.region)))
                .collect(),
        };
        for (viewer, view, region) in seeds {
            let scope = region.index();
            self.propagate_resync(view, scope, [viewer]);
        }
        // Keep ticking only while the session is otherwise active.
        if let Some(period) = self.config.adaptation_period {
            if self.engine.peek_time().is_some() {
                self.engine
                    .schedule_after(period, SessionEvent::PeriodicAdaptation);
            } else {
                self.adaptation_armed = false;
            }
        }
    }

    /// Requests a view change for a connected viewer.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, views outside the catalog, or viewers that
    /// are not connected.
    pub fn request_view_change(
        &mut self,
        viewer: NodeId,
        view: ViewId,
    ) -> Result<(), TelecastError> {
        self.check_view(view)?;
        let state = self
            .viewers
            .get(&viewer)
            .ok_or(TelecastError::UnknownViewer(viewer))?;
        if state.status != ViewerStatus::Connected {
            return Err(TelecastError::NotJoined(viewer));
        }
        let now = self.engine.now();
        let legs = self.leg(viewer, self.lsc_nodes[&state.region]) + self.config.lsc_processing;
        self.engine.schedule_at(
            now + legs,
            SessionEvent::ProcessViewChange {
                viewer,
                view,
                requested_at: now,
            },
        );
        Ok(())
    }

    /// Requests a graceful departure of a connected viewer.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids or viewers that are not connected.
    pub fn request_depart(&mut self, viewer: NodeId) -> Result<(), TelecastError> {
        let state = self
            .viewers
            .get(&viewer)
            .ok_or(TelecastError::UnknownViewer(viewer))?;
        if state.status != ViewerStatus::Connected {
            return Err(TelecastError::NotJoined(viewer));
        }
        let legs = self.leg(viewer, self.lsc_nodes[&state.region]);
        self.engine
            .schedule_after(legs, SessionEvent::ProcessDepart { viewer });
        Ok(())
    }

    /// Simulates an abrupt viewer failure: no protocol legs; the overlay
    /// discovers the hole immediately and recovers victims the same way a
    /// departure does (§VI).
    ///
    /// # Errors
    ///
    /// Fails for unknown ids or viewers that are not connected.
    pub fn fail_viewer(&mut self, viewer: NodeId) -> Result<(), TelecastError> {
        let state = self
            .viewers
            .get(&viewer)
            .ok_or(TelecastError::UnknownViewer(viewer))?;
        if state.status != ViewerStatus::Connected {
            return Err(TelecastError::NotJoined(viewer));
        }
        self.process_depart(viewer);
        Ok(())
    }

    /// Starts the continuous-churn runtime: `prefill` viewers join at the
    /// current instant (each with a sampled dwell), then Poisson arrivals
    /// admit pool viewers until `horizon`. Every admitted viewer leaves
    /// at the end of its lognormal dwell — gracefully, or abruptly for
    /// the spec's fail fraction — and returns to the pool for readmission,
    /// so the session sustains the spec's steady-state population
    /// indefinitely. All draws come from a dedicated fork of the master
    /// seed; two sessions with equal config, spec and horizon replay the
    /// identical membership timeline.
    ///
    /// Use [`TelecastSession::run_until`] with the same horizon to drive
    /// the run: dwell timers beyond the horizon stay pending, so
    /// [`TelecastSession::run_to_idle`] would additionally play out the
    /// audience draining away.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or a churn runtime is already
    /// installed.
    pub fn start_churn(
        &mut self,
        spec: telecast_media::ChurnSpec,
        horizon: SimTime,
        prefill: usize,
    ) {
        if let Err(msg) = spec.validate() {
            panic!("invalid churn spec: {msg}");
        }
        assert!(self.churn.is_none(), "churn runtime already started");
        let rng = self.rng.fork(0xC0_4112); // dedicated churn stream
        let available: Vec<NodeId> = self
            .viewers
            .values()
            .filter(|v| matches!(v.status, ViewerStatus::Idle | ViewerStatus::Rejected))
            .map(|v| v.node)
            .collect();
        self.churn = Some(crate::churn::ChurnRuntime {
            spec,
            horizon,
            rng,
            available,
        });
        for _ in 0..prefill {
            if !self.churn_admit_one() {
                break;
            }
        }
        let now = self.engine.now();
        if now < horizon {
            let next = {
                let churn = self.churn.as_mut().expect("just installed");
                churn.spec.sample_next_arrival(now, horizon, &mut churn.rng)
            };
            if let Some(at) = next {
                self.engine.schedule_at(at, SessionEvent::ChurnArrival);
            }
        }
        self.arm_adaptation();
    }

    /// The viewers currently available to the churn runtime for
    /// (re)admission, when one is installed — introspection for the
    /// pool-conservation invariants (a viewer being both here and
    /// connected means its graceful departure is still in flight).
    pub fn churn_pool(&self) -> Option<&[NodeId]> {
        self.churn.as_ref().map(|c| c.available.as_slice())
    }

    /// The elastic-CDN controller of the first pool slot, when
    /// configured (the whole pool under the global scope).
    pub fn autoscaler(&self) -> Option<&Autoscaler> {
        self.autoscalers.first()
    }

    /// The elastic-CDN controllers, one per pool slot (empty when
    /// autoscaling is off).
    pub fn autoscalers(&self) -> &[Autoscaler] {
        &self.autoscalers
    }

    /// Number of CDN-rejected joins currently parked for retry after
    /// the next scale-up, across every pool slot's queue.
    pub fn retry_queue_len(&self) -> usize {
        self.retry_queues
            .iter()
            .flatten()
            .filter(|(v, _)| self.retry_parked.contains(v))
            .count()
    }

    /// Admits one churn-pool viewer at the current instant: joins it on a
    /// sampled view and schedules its leave at the end of a sampled
    /// dwell. Probes up to [`crate::churn::ARRIVAL_PROBE_CAP`] pool
    /// candidates (a candidate can be stale while its graceful departure
    /// is still in flight). Returns whether a join was issued.
    fn churn_admit_one(&mut self) -> bool {
        let now = self.engine.now();
        let catalog_len = self.catalog.len();
        for _ in 0..crate::churn::ARRIVAL_PROBE_CAP {
            let (candidate, view, dwell, fail) = {
                let churn = self.churn.as_mut().expect("churn runtime installed");
                let Some(candidate) = churn.pop_candidate() else {
                    return false;
                };
                (
                    candidate,
                    churn.spec.view_choice.sample(catalog_len, &mut churn.rng),
                    churn.spec.sample_dwell(&mut churn.rng),
                    churn.spec.sample_fail(&mut churn.rng),
                )
            };
            match self.request_join_at(candidate, view, now) {
                Ok(()) => {
                    self.metrics.churn_arrivals.incr();
                    self.engine.schedule_after(
                        dwell,
                        SessionEvent::ChurnLeave {
                            viewer: candidate,
                            fail,
                        },
                    );
                    return true;
                }
                Err(_) => {
                    // Still connected (departure in flight): back into the
                    // pool, try another candidate.
                    self.churn
                        .as_mut()
                        .expect("churn runtime installed")
                        .available
                        .push(candidate);
                }
            }
        }
        false
    }

    /// One `ChurnArrival` event: self-schedule the next arrival while
    /// before the horizon, then admit a pool viewer.
    fn churn_arrival(&mut self) {
        let now = self.engine.now();
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        if now < churn.horizon {
            let horizon = churn.horizon;
            if let Some(at) = churn.spec.sample_next_arrival(now, horizon, &mut churn.rng) {
                self.engine.schedule_at(at, SessionEvent::ChurnArrival);
            }
        }
        self.churn_admit_one();
    }

    /// One `ChurnLeave` event: the viewer's dwell ended. Connected
    /// viewers depart gracefully or fail abruptly; either way (and also
    /// for viewers whose join was rejected) the viewer returns to the
    /// pool for readmission.
    fn churn_leave(&mut self, viewer: NodeId, fail: bool) {
        // A join in flight (a drained retry, or a dwell shorter than the
        // join legs): deciding now would either depart a viewer that is
        // not connected yet or push it back to the pool while the join
        // still commits — a permanently-connected leak either way. The
        // join always resolves, so re-poll shortly after.
        if self
            .viewers
            .get(&viewer)
            .map(|v| v.status == ViewerStatus::Joining)
            .unwrap_or(false)
        {
            self.engine.schedule_after(
                SimDuration::from_secs(1),
                SessionEvent::ChurnLeave { viewer, fail },
            );
            return;
        }
        let connected = self
            .viewers
            .get(&viewer)
            .map(|v| v.status == ViewerStatus::Connected)
            .unwrap_or(false);
        if connected {
            if fail {
                self.metrics.churn_failures.incr();
                let _ = self.fail_viewer(viewer);
            } else {
                self.metrics.churn_departures.incr();
                let _ = self.request_depart(viewer);
            }
        }
        if let Some(churn) = self.churn.as_mut() {
            churn.available.push(viewer);
        }
        // The pool owns the viewer again: a pending retry would race the
        // next churn admission, so the dwell expiry unparks it (and its
        // retry budget resets with the fresh dwell).
        self.retry_parked.remove(&viewer);
        self.retry_counts.remove(&viewer);
    }

    /// Runs the protocol engine until no events remain.
    pub fn run_to_idle(&mut self) {
        while let Some(fired) = self.engine.pop() {
            self.dispatch(fired.payload);
        }
        self.sync_queue_peaks();
    }

    /// Runs the protocol engine up to (and including) `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(fired) = self.engine.pop_until(deadline) {
            self.dispatch(fired.payload);
        }
        self.sync_queue_peaks();
    }

    /// Folds the engine's high-water mark into the metrics (the retry
    /// peak is tracked at park time).
    fn sync_queue_peaks(&mut self) {
        self.metrics.peak_event_queue = self
            .metrics
            .peak_event_queue
            .max(self.engine.peak_pending() as u64);
    }

    /// Applies a scripted workload, mapping workload-local viewer indexes
    /// onto this session's pool, then runs to idle.
    ///
    /// # Panics
    ///
    /// Panics if the workload references more viewers than the pool holds.
    pub fn run_workload(&mut self, workload: &telecast_media::ViewerWorkload) {
        assert!(
            workload.viewer_count() <= self.viewer_pool.len(),
            "workload needs {} viewers but the pool has {}",
            workload.viewer_count(),
            self.viewer_pool.len()
        );
        let events: Vec<_> = workload.events().to_vec();
        for (at, ev) in events {
            // Drain everything scheduled before this workload instant so
            // request_* sees up-to-date state.
            self.run_until(at);
            match ev {
                telecast_media::WorkloadEvent::Join { viewer, view } => {
                    let id = self.viewer_pool[viewer];
                    let _ = self.request_join_at(id, view, at);
                }
                telecast_media::WorkloadEvent::ViewChange { viewer, view } => {
                    let id = self.viewer_pool[viewer];
                    let _ = self.request_view_change(id, view);
                }
                telecast_media::WorkloadEvent::Depart { viewer } => {
                    let id = self.viewer_pool[viewer];
                    let _ = self.request_depart(id);
                }
            }
        }
        self.run_to_idle();
    }

    // ------------------------------------------------------------------
    // Snapshots (figure inputs)
    // ------------------------------------------------------------------

    /// Maximum delay layer per connected viewer with at least one
    /// subscription (Fig. 14(a)).
    pub fn layer_snapshot(&self) -> Vec<u64> {
        self.viewers
            .values()
            .filter(|v| v.status == ViewerStatus::Connected)
            .filter_map(|v| v.max_layer())
            .collect()
    }

    /// Number of received streams per viewer that attempted a join,
    /// including 0 entries for rejected viewers (Fig. 14(b)).
    pub fn streams_per_viewer(&self) -> Vec<usize> {
        self.viewers
            .values()
            .filter_map(|v| match v.status {
                ViewerStatus::Connected => Some(v.stream_count() + v.temp_leases.len()),
                ViewerStatus::Rejected => Some(0),
                _ => None,
            })
            .collect()
    }

    /// Fraction of currently-served streams whose upstream is the CDN
    /// (Fig. 13(b)).
    pub fn cdn_stream_fraction(&self) -> f64 {
        let mut cdn = 0usize;
        let mut total = 0usize;
        for v in self.viewers.values() {
            if v.status != ViewerStatus::Connected {
                continue;
            }
            for sub in v.subs.values() {
                total += 1;
                if sub.parent == TreeParent::Cdn {
                    cdn += 1;
                }
            }
            cdn += v.temp_leases.len();
            total += v.temp_leases.len();
        }
        if total == 0 {
            0.0
        } else {
            cdn as f64 / total as f64
        }
    }

    /// Fraction of delivered stream bandwidth that is *effective*, i.e.
    /// renderable within the `dbuff` sync bound at its viewer (§I's
    /// "effective resource utilization"). With layering enabled this is
    /// 1.0 by construction; the no-layering ablation shows the loss.
    pub fn effective_bandwidth_ratio(&self) -> f64 {
        let mut delivered = 0u64;
        let mut effective = 0u64;
        for v in self.viewers.values() {
            if v.status != ViewerStatus::Connected || v.subs.is_empty() {
                continue;
            }
            let slowest = v
                .subs
                .values()
                .map(|s| s.e2e)
                .max()
                .expect("non-empty subs");
            for sub in v.subs.values() {
                delivered += sub.bitrate_kbps;
                // Renderable with the slowest stream: within dbuff of it.
                if slowest - sub.e2e <= self.config.dbuff {
                    effective += sub.bitrate_kbps;
                }
            }
        }
        if delivered == 0 {
            1.0
        } else {
            effective as f64 / delivered as f64
        }
    }

    /// Depths (hops below the CDN) of `viewer` in each stream tree it is
    /// subscribed to; empty for disconnected viewers. The Overlay
    /// Property says higher-outbound viewers sit closer to the root.
    pub fn viewer_tree_depths(&self, viewer: NodeId) -> Vec<usize> {
        let Some(state) = self.viewers.get(&viewer) else {
            return Vec::new();
        };
        if state.status != ViewerStatus::Connected {
            return Vec::new();
        }
        let is_random = self.config.placement == PlacementStrategy::Random;
        let scope = state.region.index();
        state
            .subs
            .keys()
            .filter_map(|&sid| {
                if is_random {
                    self.random_trees.get(&sid).and_then(|t| t.depth_of(viewer))
                } else {
                    state.view.and_then(|v| {
                        self.scopes[scope]
                            .group(v)
                            .and_then(|g| g.tree(sid))
                            .and_then(|t| t.depth_of(viewer))
                    })
                }
            })
            .collect()
    }

    /// Registered membership of `view`'s group summed over every scope,
    /// or `None` once no scope holds a group for the view any more (the
    /// prune pass retired them all). Random placement keeps no groups,
    /// so this is always `None` there.
    pub fn view_group_population(&self, view: ViewId) -> Option<usize> {
        let mut any = false;
        let mut total = 0usize;
        for scope in &self.scopes {
            if let Some(group) = scope.group(view) {
                any = true;
                total += group.member_count();
            }
        }
        any.then_some(total)
    }

    /// Occupied tree slots of `view`'s group summed over every scope
    /// (zero once the view's groups are drained or retired).
    pub fn view_tree_population(&self, view: ViewId) -> usize {
        self.scopes
            .iter()
            .filter_map(|scope| scope.group(view))
            .map(|group| group.tree_population())
            .sum()
    }

    /// Mean tree depth across all active stream trees (ablation metric).
    pub fn mean_tree_depth(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        let mut record = |tree: &StreamTree| {
            if !tree.is_empty() {
                total += tree.metrics().mean_depth;
                count += 1;
            }
        };
        for scope in &self.scopes {
            for (_, group) in scope.iter() {
                for (_, tree) in group.trees() {
                    record(tree);
                }
            }
        }
        for tree in self.random_trees.values() {
            record(tree);
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, event: SessionEvent) {
        match event {
            SessionEvent::ProcessJoin {
                viewer,
                view,
                requested_at,
            } => self.process_join(viewer, view, requested_at, false),
            SessionEvent::CompleteJoin { requested_at } => {
                let delay = self.engine.now() - requested_at;
                self.metrics
                    .join_delays_ms
                    .record(delay.as_micros() as f64 / 1_000.0);
            }
            SessionEvent::ProcessViewChange {
                viewer,
                view,
                requested_at,
            } => self.process_view_change(viewer, view, requested_at),
            SessionEvent::BackgroundJoin { viewer, view } => {
                self.process_join(viewer, view, self.engine.now(), true);
            }
            SessionEvent::ProcessDepart { viewer } => self.process_depart(viewer),
            SessionEvent::RepositionVictim { viewer, stream } => {
                self.reposition_victim(viewer, stream);
            }
            SessionEvent::PeriodicAdaptation => self.periodic_adaptation(),
            SessionEvent::ChurnArrival => self.churn_arrival(),
            SessionEvent::ChurnLeave { viewer, fail } => self.churn_leave(viewer, fail),
            SessionEvent::MonitorSample => self.monitor_sample(),
            SessionEvent::AutoscaleTick => self.autoscale_tick(),
        }
        let mbps = self.cdn.used().as_mbps_f64();
        self.metrics.sample_cdn_usage(self.engine.now(), mbps);
        #[cfg(debug_assertions)]
        self.debug_check_leases(&event);
    }

    /// Debug-build invariants: every CDN-parented subscription of a
    /// connected viewer holds a lease, inbound reservations cover
    /// exactly the subscribed bitrates, and every leg cached in the
    /// current drift epoch equals the delay model's.
    #[cfg(debug_assertions)]
    fn debug_check_leases(&self, event: &SessionEvent) {
        let now = self.engine.now();
        let epoch = epoch_key(now);
        for v in self.viewers.values() {
            let id = v.node;
            for (sid, sub) in &v.subs {
                let Some(cache) = sub.leg.filter(|c| Some(c.epoch) == epoch) else {
                    continue;
                };
                let leg = self.delays.one_way(now, cache.parent, id);
                if leg.as_micros() != u64::from(cache.leg_us) {
                    panic!(
                        "stale leg cache for viewer {id} stream {sid}: {}us cached vs {leg:?} after {event:?}",
                        cache.leg_us
                    );
                }
            }
            if v.status != ViewerStatus::Connected {
                continue;
            }
            for (sid, sub) in &v.subs {
                if sub.parent == TreeParent::Cdn && sub.lease.is_none() {
                    panic!("lease invariant broken for viewer {id} stream {sid} after {event:?}");
                }
            }
            let subscribed: u64 = v.subs.values().map(|s| s.bitrate_kbps).sum();
            if v.ports.inbound.used().as_kbps() != subscribed {
                panic!(
                    "inbound accounting broken for viewer {id}: reserved {} vs subscribed {} after {event:?}",
                    v.ports.inbound.used(),
                    Bandwidth::from_kbps(subscribed)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Join
    // ------------------------------------------------------------------

    fn process_join(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        requested_at: SimTime,
        background: bool,
    ) {
        let mut scratch = std::mem::take(&mut self.join_scratch);
        self.join_on(&mut scratch, viewer, view, requested_at, background);
        scratch.clear();
        self.join_scratch = scratch;
    }

    /// The body of [`Self::process_join`], on buffers it owns for the
    /// call.
    fn join_on(
        &mut self,
        scratch: &mut JoinScratch,
        viewer: NodeId,
        view: ViewId,
        requested_at: SimTime,
        background: bool,
    ) {
        {
            // A scripted departure may have raced this event.
            let v = &self.viewers[&viewer];
            let expected = if background {
                v.status == ViewerStatus::Connected && v.view == Some(view)
            } else {
                v.status == ViewerStatus::Joining
            };
            if !expected {
                return;
            }
        }
        let (region, inbound_total, outbound_total) = {
            let v = &self.viewers[&viewer];
            (v.region, v.ports.inbound.total(), v.ports.outbound.total())
        };
        let streams = self.catalog.view(view).streams_by_priority();
        self.metrics.requested_streams.add(streams.len() as u64);

        let scope = region.index();
        if self.config.placement != PlacementStrategy::Random {
            self.scopes[scope].group_for(view, self.catalog.view(view).streams());
        }

        // Inbound allocation (§IV-B1) with the P2P/CDN supply condition.
        {
            let group = self.scopes[scope].group(view);
            let cdn = &self.cdn;
            let placement = self.config.placement;
            scratch
                .inbound
                .allocate(streams, inbound_total, |s, bw| match placement {
                    PlacementStrategy::Random => true,
                    _ => {
                        let tree_has = group
                            .and_then(|g| g.tree(s))
                            .map(|t| t.has_free_slot())
                            .unwrap_or(false);
                        // Region-scoped supply: under per-region pools the
                        // joiner can only draw from its own region's share.
                        tree_has || cdn.can_serve_in(bw, region)
                    }
                });
        }
        let accepted = &scratch.inbound.accepted;

        if !covers_all_sites(accepted, self.config.sites.len()) {
            self.finish_rejected(viewer, view, background);
            return;
        }

        let out_plan = &mut scratch.outbound;
        out_plan.allocate(accepted, outbound_total, self.config.outbound_policy);

        // Place each accepted stream (§IV-B2). Failures drop the stream;
        // a coverage-breaking failure rolls the whole join back.
        for s in accepted {
            let bw = self.stream_bw[&s.stream];
            let deg = out_plan.out_degree(s.stream);
            if let Some((parent, disp, lease)) = self.place_stream(
                viewer,
                view,
                scope,
                region,
                s.stream,
                bw,
                deg,
                outbound_total,
            ) {
                if let Some(lease) = lease {
                    scratch.pending.insert(s.stream, lease);
                }
                if let Some(d) = disp {
                    self.metrics.displacements.incr();
                    // Displacing a direct CDN child takes over its
                    // root slot: the CDN link count is unchanged, so
                    // the lease transfers to the joiner.
                    if parent == TreeParent::Cdn {
                        let inherited = self
                            .viewers
                            .get_mut(&d)
                            .and_then(|dv| dv.subs.get_mut(&s.stream))
                            .and_then(|ds| {
                                ds.parent = TreeParent::Viewer(viewer);
                                ds.lease.take()
                            });
                        let lease = match inherited {
                            Some(lease) => Some(lease),
                            // Displaced node was mid-recovery without
                            // a lease: acquire a fresh one.
                            None => self.cdn.serve(bw, region).ok(),
                        };
                        match lease {
                            Some(lease) => {
                                scratch.pending.insert(s.stream, lease);
                            }
                            None => {
                                // No lease available at all: undo this
                                // placement; the stream is unserved.
                                scratch.displaced.push(d);
                                self.undo_placement(viewer, view, scope, s.stream, None);
                                continue;
                            }
                        }
                    }
                    scratch.displaced.push(d);
                }
                scratch.placed.push(*s);
                scratch.parents.push(parent);
            }
        }

        if !covers_all_sites(&scratch.placed, self.config.sites.len()) {
            // Roll back: remove the fresh placements (no children yet).
            for s in &scratch.placed {
                let lease = scratch.pending.remove(&s.stream);
                self.undo_placement(viewer, view, scope, s.stream, lease);
            }
            self.finish_rejected(viewer, view, background);
            return;
        }

        // Port reservations: inbound for every placed stream, outbound for
        // the granted slots.
        {
            let inbound_used: Bandwidth = scratch
                .placed
                .iter()
                .map(|s| Bandwidth::from_kbps(s.bitrate_kbps))
                .sum();
            let outbound_used = out_plan.outbound_used;
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            v.ports
                .inbound
                .reserve(inbound_used)
                .expect("inbound allocation fits by construction");
            if self.config.placement != PlacementStrategy::Random {
                v.ports
                    .outbound
                    .reserve(outbound_used)
                    .expect("outbound allocation fits by construction");
            }
        }

        // Delay layers (§V): Eq. 1 per stream, then layer push-down.
        let subs = &mut scratch.subs;
        for (s, &parent) in scratch.placed.iter().zip(&scratch.parents) {
            let base_e2e = self.path_delay(viewer, s.stream, parent);
            let layer = self.scheme.layer_of_delay(base_e2e);
            subs.push((
                s.stream,
                StreamSub {
                    parent,
                    lease: None, // CDN leases were recorded in place_stream
                    base_e2e,
                    e2e: base_e2e,
                    layer,
                    pushed_down: false,
                    bitrate_kbps: s.bitrate_kbps,
                    leg: None,
                    // Read at the commit.
                    up: parent,
                    up_e2e: SimDuration::ZERO,
                },
            ));
        }
        // Layering loop: push-down + residual alignment, re-provisioning
        // layer violators from the CDN per §VI ("if the parent is another
        // viewer, then LSC first tries to provision the stream from the
        // CDN") before giving a stream up. Each pass either stabilises or
        // removes/reroutes at least one stream, so it terminates.
        if self.config.layering_enabled {
            let layers = &mut scratch.layers;
            loop {
                // Recompute layers from the current bases.
                for (_, sub) in subs.iter_mut() {
                    sub.layer = self.scheme.layer_of_delay(sub.base_e2e);
                    sub.e2e = sub.base_e2e;
                    sub.pushed_down = false;
                }
                layers.clear();
                layers.extend(subs.iter().map(|(_, s)| s.layer));
                let changed = self.scheme.push_down(layers);
                self.metrics.subscription_messages.add(changed as u64);
                for ((_, sub), &layer) in subs.iter_mut().zip(layers.iter()) {
                    if layer != sub.layer {
                        sub.layer = layer;
                        sub.pushed_down = true;
                        sub.e2e = self.scheme.delay_at_top_of(layer);
                    }
                }
                // Residual in-layer skew: a κ layer spread bounds delays
                // by (κ+1)τ, not κτ; a final delayed receive aligns the
                // fast streams so the dbuff guarantee of Layer Property 2
                // holds exactly (§III-B's "delayed receive for the
                // streams with lower end-to-end delay").
                if let Some(deepest) = subs.iter().map(|(_, s)| s.e2e).max() {
                    for (_, sub) in subs.iter_mut() {
                        if deepest - sub.e2e > self.config.dbuff {
                            sub.e2e = deepest - self.config.dbuff;
                            sub.layer = self.scheme.layer_of_delay(sub.e2e);
                            sub.pushed_down = true;
                        }
                    }
                }
                let Some(offender) = subs
                    .iter()
                    .position(|(_, sub)| sub.layer > self.scheme.max_layer())
                else {
                    break;
                };
                let (sid, sub) = subs[offender];
                let bw = Bandwidth::from_kbps(sub.bitrate_kbps);
                let rerouted = match sub.parent {
                    TreeParent::Viewer(_) => match self.cdn.serve(bw, region) {
                        Ok(lease) => {
                            // Move to the CDN root, keeping any displaced
                            // child attached beneath us.
                            if let Some(tree) = self.scopes[scope]
                                .group_mut(view)
                                .and_then(|g| g.tree_mut(sid))
                            {
                                tree.reparent_to_cdn(viewer);
                            }
                            let entry = &mut subs[offender].1;
                            entry.parent = TreeParent::Cdn;
                            entry.base_e2e = self.scheme.delta();
                            scratch.pending.insert(sid, lease);
                            true
                        }
                        Err(_) => false,
                    },
                    TreeParent::Cdn => false,
                };
                if !rerouted {
                    self.metrics.layer_drops.incr();
                    let lease = scratch.pending.remove(&sid);
                    self.undo_placement(viewer, view, scope, sid, lease);
                    let v = self.viewers.get_mut(&viewer).expect("viewer exists");
                    v.ports.inbound.release(bw);
                    subs.remove(offender);
                }
            }
        }
        scratch.kept.extend(
            scratch
                .placed
                .iter()
                .filter(|p| subs.iter().any(|(sid, _)| *sid == p.stream))
                .copied(),
        );
        if !covers_all_sites(&scratch.kept, self.config.sites.len()) {
            for (sid, sub) in subs.iter() {
                let lease = scratch.pending.remove(sid);
                self.undo_placement(viewer, view, scope, *sid, lease);
                let v = self.viewers.get_mut(&viewer).expect("viewer exists");
                v.ports
                    .inbound
                    .release(Bandwidth::from_kbps(sub.bitrate_kbps));
            }
            // Release the outbound reservation made above (Random mode
            // never reserved; its parents' ports hold per-edge amounts).
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            if self.config.placement != PlacementStrategy::Random
                && !out_plan.outbound_used.is_zero()
            {
                v.ports.outbound.release(out_plan.outbound_used);
            }
            self.finish_rejected(viewer, view, background);
            return;
        }

        // Commit.
        self.metrics.accepted_streams.add(subs.len() as u64);
        self.metrics.admitted_viewers.incr();
        // Admitted: the retry budget resets and any parked entry becomes
        // stale (the queue drops it lazily once unparked).
        self.retry_counts.remove(&viewer);
        self.retry_parked.remove(&viewer);
        self.metrics.subscription_messages.add(subs.len() as u64); // Subscription-Start to each parent
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            if v.status != ViewerStatus::Connected {
                self.connected_count += 1;
            }
            v.status = ViewerStatus::Connected;
            v.view = Some(view);
            // A join commits all its subscriptions at once: size the map
            // for them rather than let it grow in doublings.
            v.subs.reserve_exact(subs.len());
            for (sid, mut sub) in subs.drain(..) {
                // Reattach the lease handle recorded during placement.
                if sub.parent == TreeParent::Cdn {
                    sub.lease = scratch.pending.remove(&sid);
                }
                v.subs.insert(sid, sub);
            }
            scratch.streams.extend(v.subs.keys().copied());
        }
        // The new subscriptions read their tree parents, and the members
        // the joiner displaced read its delays.
        for &sid in &scratch.streams {
            self.reread_up(viewer, sid);
        }
        self.push_up_e2e(viewer, scratch.streams.iter().copied(), None);
        // Register group membership (the group exists: created above for
        // every non-Random placement). The prune pass reads this to spot
        // abandoned views.
        if self.config.placement != PlacementStrategy::Random {
            self.scopes[scope].join(viewer, view);
        }

        // Background joins after a view change release the temporary CDN
        // serves now that the overlay carries the view. The map is freed,
        // not drained in place: it stays empty until the viewer's next
        // view change, and its capacity on every viewer that ever
        // switched would raise the peak heap.
        if background {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            for (_, lease) in std::mem::take(&mut v.temp_leases) {
                self.cdn.release(lease);
            }
        } else {
            // Join-completion timestamp: overlay info to the viewer plus
            // the slowest subscription round trip to a parent.
            let lsc = self.lsc_nodes[&region];
            let mut completion = self.leg(lsc, viewer);
            let edge = self.edge_nodes[&region];
            let mut slowest_rtt = self.leg(viewer, edge) + self.leg(edge, viewer);
            let parents = self.viewers[&viewer]
                .subs
                .values()
                .filter_map(|s| match s.parent {
                    TreeParent::Viewer(p) => Some(p),
                    TreeParent::Cdn => None,
                });
            for p in parents {
                let rtt = self.leg(viewer, p) + self.leg(p, viewer);
                if rtt > slowest_rtt {
                    slowest_rtt = rtt;
                }
            }
            completion += slowest_rtt;
            self.engine
                .schedule_after(completion, SessionEvent::CompleteJoin { requested_at });
        }

        // Subscription chains towards displaced subtrees.
        if !scratch.displaced.is_empty() {
            self.propagate_resync(view, scope, scratch.displaced.iter().copied());
        }
    }

    fn finish_rejected(&mut self, viewer: NodeId, view: ViewId, background: bool) {
        self.metrics.rejected_viewers.incr();
        if !background {
            // Under an elastic pool the rejection is (typically) a
            // capacity signal: park the join for retry after the next
            // scale-up.
            self.park_rejected(viewer, view);
        }
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            if background {
                // Keep watching via the temporary CDN serves: convert them
                // into plain CDN subscriptions.
            } else {
                v.status = ViewerStatus::Rejected;
                v.view = None;
                for (_, lease) in std::mem::take(&mut v.temp_leases) {
                    self.cdn.release(lease);
                }
            }
        }
        if !background {
            self.shard_maybe_spill(viewer, view);
        }
        if background {
            let delta = self.scheme.delta();
            let mut accepted = 0u64;
            {
                let v = self.viewers.get_mut(&viewer).expect("viewer exists");
                for (sid, lease) in std::mem::take(&mut v.temp_leases) {
                    let bw = self.stream_bw[&sid];
                    // The converted serve must hold a real inbound
                    // reservation like any other subscription.
                    if v.ports.inbound.reserve(bw).is_err() {
                        self.cdn.release(lease);
                        continue;
                    }
                    v.subs.insert(
                        sid,
                        StreamSub {
                            parent: TreeParent::Cdn,
                            lease: Some(lease),
                            base_e2e: delta,
                            e2e: delta,
                            layer: 0,
                            pushed_down: false,
                            bitrate_kbps: bw.as_kbps(),
                            leg: None,
                            // Served outside every tree.
                            up: TreeParent::Cdn,
                            up_e2e: SimDuration::ZERO,
                        },
                    );
                    accepted += 1;
                }
            }
            self.metrics.accepted_streams.add(accepted);
        }
    }

    /// Places one stream; returns `(parent, displaced_member, lease)`,
    /// with the CDN lease a fallback to the CDN took, or `None` if the
    /// stream cannot be served.
    #[allow(clippy::too_many_arguments)]
    fn place_stream(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        scope: usize,
        region: Region,
        stream: StreamId,
        bw: Bandwidth,
        out_degree: u32,
        outbound_capacity: Bandwidth,
    ) -> Option<(TreeParent, Option<NodeId>, Option<CdnLease>)> {
        match self.config.placement {
            PlacementStrategy::PushDown => {
                let tree = self.scopes[scope]
                    .group_mut(view)
                    .expect("group created")
                    .tree_mut(stream)
                    .expect("tree covers view stream");
                if let Some(parent) = tree.insert(viewer, out_degree, outbound_capacity) {
                    let displaced = tree.children_of(viewer).next();
                    if let Some(d) = displaced {
                        self.reread_up(d, stream);
                    }
                    Some((parent, displaced, None))
                } else {
                    // Fall back to the CDN.
                    match self.cdn.serve(bw, region) {
                        Ok(lease) => {
                            let tree = self.scopes[scope]
                                .group_mut(view)
                                .expect("group created")
                                .tree_mut(stream)
                                .expect("tree exists");
                            tree.attach_to_cdn(viewer, out_degree, outbound_capacity);
                            Some((TreeParent::Cdn, None, Some(lease)))
                        }
                        Err(_) => None,
                    }
                }
            }
            PlacementStrategy::Fifo => {
                let tree = self.scopes[scope]
                    .group_mut(view)
                    .expect("group created")
                    .tree_mut(stream)
                    .expect("tree covers view stream");
                if let Some(parent) = tree.first_free_slot_holder() {
                    tree.attach_under(viewer, out_degree, outbound_capacity, parent);
                    Some((TreeParent::Viewer(parent), None, None))
                } else {
                    match self.cdn.serve(bw, region) {
                        Ok(lease) => {
                            let tree = self.scopes[scope]
                                .group_mut(view)
                                .expect("group created")
                                .tree_mut(stream)
                                .expect("tree exists");
                            tree.attach_to_cdn(viewer, out_degree, outbound_capacity);
                            Some((TreeParent::Cdn, None, Some(lease)))
                        }
                        Err(_) => None,
                    }
                }
            }
            PlacementStrategy::Random => {
                // "A joining node is randomly attached to another node,
                // which can serve the request": sample uniformly from the
                // whole session (no view grouping, no directory of who
                // carries what); a probe succeeds only if the sampled
                // node receives the stream and has spare upload. No
                // pre-allocation — capacity is taken from the parent's
                // port on demand.
                let mut parent_found: Option<NodeId> = None;
                if !self.viewer_pool.is_empty() {
                    for _ in 0..RANDOM_PROBES {
                        let idx = self.rng.range(0..self.viewer_pool.len());
                        let cand = self.viewer_pool[idx];
                        if cand == viewer {
                            continue;
                        }
                        let ok = self
                            .viewers
                            .get(&cand)
                            .map(|c| {
                                c.status == ViewerStatus::Connected
                                    && c.subs.contains_key(&stream)
                                    && c.ports.outbound.can_reserve(bw)
                            })
                            .unwrap_or(false);
                        if ok {
                            parent_found = Some(cand);
                            break;
                        }
                    }
                }
                if let Some(parent) = parent_found {
                    self.viewers
                        .get_mut(&parent)
                        .expect("candidate exists")
                        .ports
                        .outbound
                        .reserve(bw)
                        .expect("checked above");
                    self.random_edge_parent.insert((viewer, stream), parent);
                    let tree = self
                        .random_trees
                        .entry(stream)
                        .or_insert_with(|| StreamTree::new(stream));
                    if !tree.contains(parent) {
                        // The parent itself is CDN-served outside any
                        // tree bookkeeping (e.g. served before the tree
                        // existed); register it as a CDN child.
                        tree.attach_to_cdn(parent, u32::MAX, outbound_capacity);
                    }
                    tree.attach_under(viewer, u32::MAX, outbound_capacity, parent);
                    Some((TreeParent::Viewer(parent), None, None))
                } else {
                    match self.cdn.serve(bw, region) {
                        Ok(lease) => {
                            let tree = self
                                .random_trees
                                .entry(stream)
                                .or_insert_with(|| StreamTree::new(stream));
                            tree.attach_to_cdn(viewer, u32::MAX, outbound_capacity);
                            Some((TreeParent::Cdn, None, Some(lease)))
                        }
                        Err(_) => None,
                    }
                }
            }
        }
    }

    /// Undoes a placement made earlier in the same join (the viewer has
    /// no children yet in that tree), releasing the CDN `lease` it held
    /// pending, if any.
    fn undo_placement(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        scope: usize,
        stream: StreamId,
        lease: Option<CdnLease>,
    ) {
        let is_random = self.config.placement == PlacementStrategy::Random;
        if is_random {
            if let Some(tree) = self.random_trees.get_mut(&stream) {
                if tree.contains(viewer) {
                    let victims = tree.remove(viewer);
                    debug_assert!(victims.is_empty(), "fresh placement has no children");
                }
            }
            if let Some(p) = self.random_edge_parent.remove(&(viewer, stream)) {
                let bw = self.stream_bw[&stream];
                self.viewers
                    .get_mut(&p)
                    .expect("parent exists")
                    .ports
                    .outbound
                    .release(bw);
            }
        } else if let Some(tree) = self.scopes[scope]
            .group_mut(view)
            .and_then(|g| g.tree_mut(stream))
        {
            if tree.contains(viewer) {
                let victims = tree.remove(viewer);
                // A push-down insert may have displaced a member under us;
                // removal re-roots it at the CDN, which needs a lease or a
                // reposition — recover it like any victim.
                if !victims.is_empty() {
                    self.reread_up_all(&victims, stream);
                    self.recover_victims(stream, view, scope, victims);
                }
            }
        }
        if let Some(lease) = lease {
            self.cdn.release(lease);
        }
    }

    // ------------------------------------------------------------------
    // View change (§VI)
    // ------------------------------------------------------------------

    fn process_view_change(&mut self, viewer: NodeId, view: ViewId, requested_at: SimTime) {
        let state = match self.viewers.get(&viewer) {
            Some(v) if v.status == ViewerStatus::Connected => v,
            _ => return,
        };
        let region = state.region;

        // Fast path: serve every stream of the new view straight from the
        // CDN (temporary leases).
        let mut temp_granted = 0usize;
        for s in self.catalog.view(view).streams_by_priority() {
            let bw = Bandwidth::from_kbps(s.bitrate_kbps);
            if let Ok(lease) = self.cdn.serve(bw, region) {
                self.viewers
                    .get_mut(&viewer)
                    .expect("viewer exists")
                    .temp_leases
                    .insert(s.stream, lease);
                temp_granted += 1;
            }
        }

        // The old view's subtree bandwidth kept flowing between the
        // switch request and this teardown — account it as waste.
        let old_kbps: u64 = self.viewers[&viewer]
            .subs
            .values()
            .map(|s| s.bitrate_kbps)
            .sum();
        let waste_window_ms = (self.engine.now() - requested_at).as_micros() / 1_000;
        self.metrics
            .wasted_subtree_kbps_ms
            .add(old_kbps * waste_window_ms);

        // Leave the old view's trees (creating victims), release old
        // resources.
        self.teardown_subscriptions(viewer);
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            v.view = Some(view);
        }

        // The view change is "satisfied" once the CDN edge starts feeding
        // the viewer: LSC→edge plus edge→viewer legs.
        let edge = self.edge_nodes[&region];
        let lsc = self.lsc_nodes[&region];
        let serve_legs = self.leg(lsc, edge) + self.leg(edge, viewer);
        let delay = (self.engine.now() + serve_legs) - requested_at;
        self.metrics
            .view_change_delays_ms
            .record(delay.as_micros() as f64 / 1_000.0);
        // Switch latency proper: old tree left now, first frame of the
        // new view lands `serve_legs` later — provided the CDN fast
        // path granted at least one temporary serve. A starved switch
        // waits for the background join instead.
        if temp_granted > 0 {
            self.metrics
                .switch_latency_ms
                .record(serve_legs.as_micros() as f64 / 1_000.0);
        } else {
            self.metrics.switch_starved.incr();
        }

        // Background: the normal join into the new group.
        let backoff = self.config.lsc_processing + self.leg(lsc, viewer);
        self.engine.schedule_after(
            serve_legs + backoff,
            SessionEvent::BackgroundJoin { viewer, view },
        );
    }

    // ------------------------------------------------------------------
    // Departure / failure
    // ------------------------------------------------------------------

    fn process_depart(&mut self, viewer: NodeId) {
        if !matches!(self.viewers.get(&viewer), Some(v) if v.status == ViewerStatus::Connected) {
            return;
        }
        self.teardown_subscriptions(viewer);
        let v = self.viewers.get_mut(&viewer).expect("viewer exists");
        if v.status == ViewerStatus::Connected {
            self.connected_count -= 1;
        }
        v.status = ViewerStatus::Idle;
        v.view = None;
        for (_, lease) in std::mem::take(&mut v.temp_leases) {
            self.cdn.release(lease);
        }
    }

    /// Releases every subscription of `viewer`: tree membership (victims
    /// recovered), CDN leases and port reservations. Releasing a
    /// subscription is its Subscription-Stop: Table I is derived from
    /// the subscriptions (see [`TelecastSession::routing_table`]), so the
    /// parents' forwards to `viewer` end with them. In
    /// sharded mode a foreign serve cannot be released here — the leases
    /// live in the donor shard's pool — so they travel back via the
    /// outbox instead.
    fn teardown_subscriptions(&mut self, viewer: NodeId) {
        let at = self.engine.now();
        if let Some(state) = &mut self.shard {
            if let Some(foreign) = state.foreign.remove(&viewer) {
                state.outbox.push(
                    at,
                    crate::shard::ShardMessage::ReleaseForeign {
                        donor: foreign.donor,
                        leases: foreign.leases,
                    },
                );
                self.metrics.spill_releases.incr();
            }
        }
        // The subscriptions move to the join scratch, so the viewer keeps
        // its map's capacity for its next join.
        let mut scratch = std::mem::take(&mut self.join_scratch);
        let subs = &mut scratch.subs;
        let (region, view) = {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            subs.extend(v.subs.drain());
            (v.region, v.view)
        };
        let scope = region.index();
        let is_random = self.config.placement == PlacementStrategy::Random;
        // Until the loop below reaches each tree, the viewer's children
        // there read Δ from a parent with no subscription.
        self.push_up_e2e(viewer, subs.iter().map(|&(sid, _)| sid), None);

        let mut inbound_release = Bandwidth::ZERO;
        for (sid, sub) in subs.drain(..) {
            inbound_release += Bandwidth::from_kbps(sub.bitrate_kbps);
            if let Some(lease) = sub.lease {
                self.cdn.release(lease);
            }
            if is_random {
                if let Some(tree) = self.random_trees.get_mut(&sid) {
                    if tree.contains(viewer) {
                        let victims = tree.remove(viewer);
                        self.reread_up_all(&victims, sid);
                        self.recover_random_victims(sid, victims);
                    }
                }
                if let Some(p) = self.random_edge_parent.remove(&(viewer, sid)) {
                    let bw = self.stream_bw[&sid];
                    if let Some(pv) = self.viewers.get_mut(&p) {
                        pv.ports.outbound.release(bw);
                    }
                }
            } else if let Some(v) = view {
                if let Some(tree) = self.scopes[scope]
                    .group_mut(v)
                    .and_then(|g| g.tree_mut(sid))
                {
                    if tree.contains(viewer) {
                        let victims = tree.remove(viewer);
                        self.reread_up_all(&victims, sid);
                        self.recover_victims(sid, v, scope, victims);
                    }
                }
            }
        }
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            if !inbound_release.is_zero() {
                v.ports.inbound.release(inbound_release);
            }
            if !is_random {
                let used = v.ports.outbound.used();
                if !used.is_zero() {
                    v.ports.outbound.release(used);
                }
            }
        }
        self.join_scratch = scratch;
        if let Some(v) = view {
            if !is_random {
                self.scopes[scope].leave(viewer);
                self.prune_view(v, scope);
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-view tree prune/merge
    // ------------------------------------------------------------------

    /// Shrinks an abandoned view's overlay after a member left it. Only
    /// active when [`SessionConfig::prune_member_floor`] is set and the
    /// group's registered membership is at or below the floor: folds
    /// CDN-rooted tree fragments under P2P parents (weakest root first,
    /// releasing the folded roots' CDN serves back to the pool) and
    /// retires the group once membership and trees have fully drained.
    /// Consumes no RNG draws, so runs are byte-identical whether the
    /// knob is merely unset or the floor is never reached.
    fn prune_view(&mut self, view: ViewId, scope: usize) {
        let Some(floor) = self.config.prune_member_floor else {
            return;
        };
        let Some(group) = self.scopes[scope].group(view) else {
            return;
        };
        if group.member_count() > floor {
            return;
        }
        let mut streams: Vec<StreamId> = group.streams().collect();
        streams.sort_unstable();
        for sid in streams {
            // One bounded sweep: snapshot the current roots and attempt
            // each at most once, weakest first. A fold the layering
            // machinery undoes (the §VI resync reroutes a too-deep
            // chain back to the CDN) is NOT retried within this call —
            // the root simply remains for a later pass. Re-attempting
            // it here would ping-pong fold/reroute forever.
            let roots = self.scopes[scope]
                .group(view)
                .and_then(|g| g.tree(sid))
                .map(|t| t.cdn_fragment_roots())
                .unwrap_or_default();
            if roots.len() <= 1 {
                continue;
            }
            for root in roots {
                self.merge_fragment_root(root, sid, view, scope);
            }
        }
        if self.scopes[scope].retire_if_drained(view) {
            self.metrics.groups_retired.incr();
        }
    }

    /// Tries to fold one CDN-rooted fragment root under a P2P parent
    /// (the prune-pass analogue of [`TelecastSession::reposition_victim`],
    /// without the background scheduling). Returns whether the root
    /// moved. Either way the fold releases one CDN serve: ours when the
    /// new parent is a viewer, the displaced child's spare when we took
    /// over its root slot.
    fn merge_fragment_root(
        &mut self,
        root: NodeId,
        stream: StreamId,
        view: ViewId,
        scope: usize,
    ) -> bool {
        let still_cdn = self
            .viewers
            .get(&root)
            .and_then(|v| v.subs.get(&stream))
            .map(|s| s.parent == TreeParent::Cdn)
            .unwrap_or(false);
        if !still_cdn {
            return false;
        }
        let repositioned = self.scopes[scope]
            .group_mut(view)
            .and_then(|g| g.tree_mut(stream))
            .filter(|t| t.parent_of(root) == Some(TreeParent::Cdn))
            .map(|t| t.reposition_from_cdn(root))
            .unwrap_or(None);
        let Some(parent) = repositioned else {
            return false;
        };
        if let TreeParent::Viewer(_) = parent {
            if let Some(lease) = self
                .viewers
                .get_mut(&root)
                .expect("root exists")
                .subs
                .get_mut(&stream)
                .and_then(|s| s.lease.take())
            {
                self.cdn.release(lease);
            }
        }
        self.metrics.fragments_merged.incr();
        self.metrics
            .prune_reclaimed_kbps
            .add(self.stream_bw[&stream].as_kbps());
        self.after_reposition(root, stream, view, scope, parent);
        true
    }

    // ------------------------------------------------------------------
    // Victim recovery (§VI)
    // ------------------------------------------------------------------

    /// Recovers victims of a removal in a grouped (push-down/FIFO) tree:
    /// each is already parked at the CDN root by `StreamTree::remove`;
    /// give it a CDN lease at its current delay layer if the pool allows,
    /// otherwise reposition immediately; failing both, drop the stream.
    fn recover_victims(
        &mut self,
        stream: StreamId,
        view: ViewId,
        scope: usize,
        victims: Vec<NodeId>,
    ) {
        let bw = self.stream_bw[&stream];
        for victim in victims {
            self.metrics.victims.incr();
            // Recovering an earlier victim of this batch can cascade
            // (CDN-less drop → subtree removal → recursive recovery) and
            // move or drop this one before the loop reaches it; only
            // viewers still parked at the CDN root need recovery.
            let still_parked = self.scopes[scope]
                .group(view)
                .and_then(|g| g.tree(stream))
                .map(|t| t.parent_of(victim) == Some(TreeParent::Cdn))
                .unwrap_or(false);
            if !still_parked {
                continue;
            }
            let region = self.viewers[&victim].region;
            match self.cdn.serve(bw, region) {
                Ok(lease) => {
                    if let Some(sub) = self
                        .viewers
                        .get_mut(&victim)
                        .expect("victim exists")
                        .subs
                        .get_mut(&stream)
                    {
                        sub.parent = TreeParent::Cdn;
                        sub.lease = Some(lease);
                        // Served "at the current delay layer": e2e/layer
                        // stay as they were (the CDN cache reaches them).
                    } else {
                        // Victim no longer subscribes (raced teardown).
                        self.cdn.release(lease);
                        continue;
                    }
                    // Background reposition through the LSC.
                    let legs =
                        self.config.lsc_processing + self.leg(self.lsc_nodes[&region], victim);
                    self.engine.schedule_after(
                        legs,
                        SessionEvent::RepositionVictim {
                            viewer: victim,
                            stream,
                        },
                    );
                }
                Err(_) => {
                    // No CDN headroom: try an immediate reposition.
                    let repositioned = self.scopes[scope]
                        .group_mut(view)
                        .and_then(|g| g.tree_mut(stream))
                        .map(|t| t.reposition_from_cdn(victim))
                        .unwrap_or(None);
                    match repositioned {
                        Some(parent) => {
                            self.metrics.victims_repositioned.incr();
                            self.after_reposition(victim, stream, view, scope, parent);
                        }
                        None => self.drop_stream(victim, stream, view, scope),
                    }
                }
            }
        }
    }

    /// Victims in the Random baseline: CDN or drop (the scheme has no
    /// reposition logic).
    fn recover_random_victims(&mut self, stream: StreamId, victims: Vec<NodeId>) {
        let bw = self.stream_bw[&stream];
        for victim in victims {
            self.metrics.victims.incr();
            let region = self.viewers[&victim].region;
            match self.cdn.serve(bw, region) {
                Ok(lease) => {
                    if let Some(sub) = self
                        .viewers
                        .get_mut(&victim)
                        .expect("victim exists")
                        .subs
                        .get_mut(&stream)
                    {
                        sub.parent = TreeParent::Cdn;
                        sub.lease = Some(lease);
                        self.reread_up(victim, stream);
                    } else {
                        self.cdn.release(lease);
                    }
                }
                Err(_) => {
                    // Drop the stream for the victim.
                    if let Some(tree) = self.random_trees.get_mut(&stream) {
                        if tree.contains(victim) {
                            let next = tree.remove(victim);
                            let v = self.viewers.get_mut(&victim).expect("victim exists");
                            if let Some(sub) = v.subs.remove(&stream) {
                                v.ports
                                    .inbound
                                    .release(Bandwidth::from_kbps(sub.bitrate_kbps));
                            }
                            self.reread_up_all(&next, stream);
                            self.recover_random_victims(stream, next);
                        }
                    }
                }
            }
        }
    }

    /// Background reposition of a CDN-parked victim (the second half of
    /// the §VI recovery).
    fn reposition_victim(&mut self, viewer: NodeId, stream: StreamId) {
        let (view, region) = match self.viewers.get(&viewer) {
            Some(v) if v.status == ViewerStatus::Connected => match v.view {
                Some(view) => (view, v.region),
                None => return,
            },
            _ => return,
        };
        // Only meaningful while still CDN-parented for this stream.
        let still_cdn = self.viewers[&viewer]
            .subs
            .get(&stream)
            .map(|s| s.parent == TreeParent::Cdn)
            .unwrap_or(false);
        if !still_cdn {
            return;
        }
        let scope = region.index();
        let repositioned = self.scopes[scope]
            .group_mut(view)
            .and_then(|g| g.tree_mut(stream))
            .filter(|t| t.parent_of(viewer) == Some(TreeParent::Cdn))
            .map(|t| t.reposition_from_cdn(viewer))
            .unwrap_or(None);
        if let Some(parent) = repositioned {
            if let TreeParent::Viewer(_) = parent {
                // Off the CDN: release the lease.
                if let Some(lease) = self
                    .viewers
                    .get_mut(&viewer)
                    .expect("viewer exists")
                    .subs
                    .get_mut(&stream)
                    .and_then(|s| s.lease.take())
                {
                    self.cdn.release(lease);
                }
            }
            self.metrics.victims_repositioned.incr();
            self.after_reposition(viewer, stream, view, scope, parent);
        }
    }

    /// Fixes state after a reposition: new delays for the moved viewer
    /// and its subtree, plus lease handling for a displaced CDN child.
    fn after_reposition(
        &mut self,
        viewer: NodeId,
        stream: StreamId,
        view: ViewId,
        scope: usize,
        parent: TreeParent,
    ) {
        // A displaced node (now our child) may have been CDN-served; its
        // lease becomes spare. Nothing below nests a chain before the
        // frame goes back.
        let mut frame = self.resync_frames.pop().unwrap_or_default();
        let displaced = &mut frame.displaced;
        if let Some(tree) = self.scopes[scope].group(view).and_then(|g| g.tree(stream)) {
            displaced.extend(tree.children_of(viewer));
        }
        self.reread_up(viewer, stream);
        self.reread_up_all(displaced, stream);
        let spare_leases = &mut frame.leases;
        for d in displaced.drain(..) {
            let lease = self
                .viewers
                .get_mut(&d)
                .and_then(|v| v.subs.get_mut(&stream))
                .and_then(|s| {
                    if s.parent == TreeParent::Cdn {
                        s.parent = TreeParent::Viewer(viewer);
                        s.lease.take()
                    } else {
                        None
                    }
                });
            spare_leases.extend(lease);
        }
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            if let Some(sub) = v.subs.get_mut(&stream) {
                sub.parent = parent;
                // Taking a CDN slot (by displacing its holder) requires a
                // lease; inherit the displaced child's.
                if parent == TreeParent::Cdn && sub.lease.is_none() {
                    sub.lease = spare_leases.pop();
                }
            }
        }
        for lease in spare_leases.drain(..) {
            self.cdn.release(lease);
        }
        self.resync_frames.push(frame);
        // The inherited lease may still be missing (displaced child was
        // itself mid-recovery): serve from the pool or give the stream up.
        let needs_lease = {
            let v = &self.viewers[&viewer];
            v.subs
                .get(&stream)
                .map(|s| s.parent == TreeParent::Cdn && s.lease.is_none())
                .unwrap_or(false)
        };
        if needs_lease {
            let bw = self.stream_bw[&stream];
            let region = self.viewers[&viewer].region;
            match self.cdn.serve(bw, region) {
                Ok(lease) => {
                    self.viewers
                        .get_mut(&viewer)
                        .expect("viewer exists")
                        .subs
                        .get_mut(&stream)
                        .expect("sub exists")
                        .lease = Some(lease);
                }
                Err(_) => {
                    self.drop_stream(viewer, stream, view, scope);
                    return;
                }
            }
        }
        self.propagate_resync(view, scope, [viewer]);
    }

    /// Drops `stream` at `viewer` entirely (layer violation or failed
    /// recovery), cascading victim recovery to its children.
    fn drop_stream(&mut self, viewer: NodeId, stream: StreamId, view: ViewId, scope: usize) {
        let victims = self.scopes[scope]
            .group_mut(view)
            .and_then(|g| g.tree_mut(stream))
            .map(|t| {
                if t.contains(viewer) {
                    t.remove(viewer)
                } else {
                    Vec::new()
                }
            })
            .unwrap_or_default();
        let lease = {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            match v.subs.remove(&stream) {
                Some(sub) => {
                    v.ports
                        .inbound
                        .release(Bandwidth::from_kbps(sub.bitrate_kbps));
                    sub.lease
                }
                None => None,
            }
        };
        if let Some(lease) = lease {
            self.cdn.release(lease);
        }
        self.metrics.layer_drops.incr();
        if !victims.is_empty() {
            self.reread_up_all(&victims, stream);
            self.recover_victims(stream, view, scope, victims);
        }
    }

    // ------------------------------------------------------------------
    // Subscription chains (§V-B3)
    // ------------------------------------------------------------------

    /// Recomputes delays and layers for the seed viewers and propagates
    /// along the affected subtrees until quiescent.
    ///
    /// Runs on a [`ResyncFrame`] taken from the session's spare stack and
    /// returned cleared, so the steady state allocates nothing. A nested
    /// call (a drop inside [`Self::resync_viewer`] recovers victims whose
    /// repositions resync again) takes a frame of its own, and its visit
    /// counts start from zero (see [`ResyncVisits`]), exactly as a fresh
    /// map per call would.
    ///
    /// A settled viewer (see [`Visit::settled_in`]) still counts its
    /// visit against [`RESYNC_VISIT_CAP`]; only the resync itself is
    /// skipped, so the counters match a run that repeats it.
    fn propagate_resync(
        &mut self,
        view: ViewId,
        scope: usize,
        seeds: impl IntoIterator<Item = NodeId>,
    ) {
        let mut frame = self.resync_frames.pop().unwrap_or_default();
        let (call, mark) = self.resync_visits.begin(self.viewers.len());
        frame.generation = 1;
        frame.queue.extend(seeds);
        while let Some(w) = frame.queue.pop_front() {
            // Only viewers sit in trees, and a resync of anything else
            // would change nothing.
            let Some(slot) = self.viewers.slot(&w) else {
                continue;
            };
            let visit = self.resync_visits.visit(call, slot);
            visit.count += 1;
            if visit.count > RESYNC_VISIT_CAP {
                self.metrics.resync_cap_hits.incr();
                continue;
            }
            if visit.settled_in == frame.generation {
                continue;
            }
            let drops = self.metrics.layer_drops.value();
            let settled = self.resync_viewer(w, view, scope, &mut frame);
            let dropped = self.metrics.layer_drops.value() != drops;
            if dropped {
                frame.generation += 1;
            } else if settled {
                self.resync_visits.visit(call, slot).settled_in = frame.generation;
            }
            if frame.changed.is_empty() {
                continue;
            }
            self.metrics
                .subscription_messages
                .add(frame.changed.len() as u64);
            // The pushes walked the changed streams' children. A drop
            // mutated the trees after that walk, so walk them again.
            if dropped {
                frame.walked.clear();
                frame
                    .walked
                    .extend(self.children_in_trees(view, scope, w, &frame.changed));
            }
            #[cfg(debug_assertions)]
            assert!(
                frame.walked.iter().copied().eq(self.children_in_trees(
                    view,
                    scope,
                    w,
                    &frame.changed
                )),
                "pushes walked other children than the trees hold"
            );
            for &child in &frame.walked {
                frame.queue.push_back(child);
                if let Some(slot) = self.viewers.slot(&child) {
                    self.resync_visits.visit(call, slot).settled_in = 0;
                }
            }
            // A change (e.g. a §VI CDN reroute) shifts this viewer's own
            // push-down baseline: revisit once more to reach a fixpoint.
            frame.queue.push_back(w);
        }
        self.resync_visits.end(mark);
        self.resync_frames.push(frame);
    }

    /// Recomputes one viewer's delay layers from its subscriptions'
    /// chain inputs (see [`StreamSub::up`]), pushes each new delay to the
    /// stream's tree children, and leaves the streams whose effective
    /// delay changed in `frame.changed` and their children in
    /// `frame.walked`. Returns whether the viewer settled: no §VI reroute
    /// and no drop, so with unchanged inputs a re-run in the same frame
    /// would change nothing.
    fn resync_viewer(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        scope: usize,
        frame: &mut ResyncFrame,
    ) -> bool {
        frame.changed.clear();
        let Some(state) = self.viewers.get(&viewer) else {
            return true;
        };
        if state.status != ViewerStatus::Connected || state.view != Some(view) {
            return true;
        }
        // Pass 1: read each subscription's pushed chain inputs (its tree
        // parent and that parent's `e2e`), recompute base delays
        // (CDN-parented streams keep their stored delay — victims stay at
        // their layer). Each entry starts at its natural layer with
        // effective delay = base; layering adjusts both below. A viewer
        // parent's leg comes from the subscription's cache while the
        // parent and the drift epoch match.
        let now = self.engine.now();
        let epoch = epoch_key(now);
        let finals = &mut frame.finals;
        finals.clear();
        for (&sid, sub) in &state.subs {
            #[cfg(debug_assertions)]
            self.debug_check_up(viewer, view, scope, sid, sub);
            let parent = sub.up;
            let (base, leg) = match parent {
                TreeParent::Cdn => (sub.base_e2e, SimDuration::ZERO),
                TreeParent::Viewer(p) => {
                    let leg = sub
                        .cached_leg(p, epoch)
                        .unwrap_or_else(|| self.delays.one_way(now, p, viewer));
                    (sub.up_e2e + leg + self.config.hop_processing, leg)
                }
            };
            let natural = self.scheme.layer_of_delay(base);
            finals.push(ResyncEntry {
                stream: sid,
                parent,
                leg,
                base,
                natural,
                layer: natural,
                e2e: base,
                pushed_down: false,
            });
        }
        // Effective delays: layer push-down plus the residual delayed
        // receive that makes the dbuff bound exact (see process_join).
        if self.config.layering_enabled {
            let layers = &mut frame.layers;
            layers.clear();
            layers.extend(finals.iter().map(|e| e.natural));
            self.scheme.push_down(layers);
            for (entry, &l) in finals.iter_mut().zip(layers.iter()) {
                entry.layer = l;
                entry.pushed_down = l > entry.natural;
                if entry.pushed_down {
                    entry.e2e = self.scheme.delay_at_top_of(l);
                }
            }
            if let Some(deepest) = finals.iter().map(|e| e.e2e).max() {
                for entry in finals.iter_mut() {
                    if deepest - entry.e2e > self.config.dbuff {
                        entry.e2e = deepest - self.config.dbuff;
                        entry.layer = self.scheme.layer_of_delay(entry.e2e);
                        entry.pushed_down = true;
                    }
                }
            }
        }

        // Pass 2: apply, walking the subscriptions in lockstep with
        // `finals` (both in stream order); collect changes, stale leases,
        // §VI CDN reroutes for over-limit streams, and drops when the
        // pool is full too.
        let changed = &mut frame.changed;
        let (reroutes, drops) = (&mut frame.reroutes, &mut frame.drops);
        let stale_leases = &mut frame.leases;
        {
            let max_layer = self.scheme.max_layer();
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            debug_assert_eq!(finals.len(), v.subs.len());
            for (entry, sub) in finals.iter().zip(v.subs.values_mut()) {
                let &ResyncEntry {
                    stream: sid,
                    parent,
                    leg,
                    base,
                    layer,
                    e2e,
                    pushed_down,
                    ..
                } = entry;
                if self.config.layering_enabled && layer > max_layer {
                    if matches!(parent, TreeParent::Viewer(_)) {
                        reroutes.push(sid);
                    } else {
                        drops.push(sid);
                    }
                    continue;
                }
                if sub.parent != parent {
                    // Displaced off the CDN root into a viewer's slot: the
                    // lease is no longer needed.
                    if let (TreeParent::Viewer(_), Some(lease)) = (parent, sub.lease.take()) {
                        stale_leases.push(lease);
                    }
                    sub.parent = parent;
                }
                if let TreeParent::Viewer(p) = parent {
                    sub.cache_leg(p, epoch, leg);
                }
                if sub.e2e != e2e || sub.layer != layer {
                    changed.push(sid);
                }
                sub.base_e2e = base;
                sub.e2e = e2e;
                sub.layer = layer;
                sub.pushed_down = pushed_down;
            }
        }
        for lease in stale_leases.drain(..) {
            self.cdn.release(lease);
        }
        // Send the new delays down before anything below can run a
        // nested chain (a drop recovers victims, which resyncs).
        frame.walked.clear();
        self.push_up_e2e(viewer, changed.iter().copied(), Some(&mut frame.walked));
        // §VI: "if the parent is another viewer, then LSC first tries to
        // provision the stream from the CDN" — only drop when the pool is
        // exhausted too.
        let settled = reroutes.is_empty() && drops.is_empty();
        for sid in reroutes.drain(..) {
            let bw = self.stream_bw[&sid];
            let region = self.viewers[&viewer].region;
            match self.cdn.serve(bw, region) {
                Ok(lease) => {
                    if let Some(tree) = self.scopes[scope]
                        .group_mut(view)
                        .and_then(|g| g.tree_mut(sid))
                    {
                        if tree.contains(viewer) {
                            tree.reparent_to_cdn(viewer);
                        }
                    }
                    let delta = self.scheme.delta();
                    let v = self.viewers.get_mut(&viewer).expect("viewer exists");
                    let sub = v.subs.get_mut(&sid).expect("sub exists");
                    sub.parent = TreeParent::Cdn;
                    sub.lease = Some(lease);
                    sub.base_e2e = delta;
                    sub.e2e = delta;
                    sub.layer = 0;
                    sub.pushed_down = false;
                    changed.push(sid);
                    self.reread_up(viewer, sid);
                    self.push_up_e2e(viewer, [sid], Some(&mut frame.walked));
                }
                Err(_) => drops.push(sid),
            }
        }
        for sid in drops.drain(..) {
            self.drop_stream(viewer, sid, view, scope);
        }
        settled
    }

    /// `viewer`'s children in the trees of `streams` in `view`'s group of
    /// `scope`, stream by stream.
    fn children_in_trees<'a>(
        &'a self,
        view: ViewId,
        scope: usize,
        viewer: NodeId,
        streams: &'a [StreamId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let group = self.scopes[scope].group(view);
        streams
            .iter()
            .filter_map(move |&sid| group.and_then(|g| g.tree(sid)))
            .flat_map(move |t| t.children_of(viewer))
    }

    /// The chain inputs pass 1 of [`Self::resync_viewer`] would pull for
    /// `viewer`'s subscription to `stream` if it read the trees: the
    /// parent in the stream's tree of `view`'s group in `scope` (or
    /// `fallback`, the subscription's own parent, when the viewer is no
    /// member), and that parent's `e2e` for the stream — Δ when it holds
    /// no subscription to it, zero under the CDN.
    fn pull_up(
        &self,
        viewer: NodeId,
        view: Option<ViewId>,
        scope: usize,
        stream: StreamId,
        fallback: TreeParent,
    ) -> (TreeParent, SimDuration) {
        let parent = view
            .and_then(|view| self.scopes[scope].group(view))
            .and_then(|g| g.tree(stream))
            .and_then(|t| t.parent_of(viewer))
            .unwrap_or(fallback);
        let e2e = match parent {
            TreeParent::Cdn => SimDuration::ZERO,
            TreeParent::Viewer(p) => self
                .viewers
                .get(&p)
                .and_then(|pv| pv.subs.get(&stream))
                .map_or(self.scheme.delta(), |ps| ps.e2e),
        };
        (parent, e2e)
    }

    /// Re-reads `viewer`'s stored chain inputs for `stream` once a tree
    /// mutation re-parented it, or its subscription was written outside
    /// a tree.
    fn reread_up(&mut self, viewer: NodeId, stream: StreamId) {
        let Some(v) = self.viewers.get(&viewer) else {
            return;
        };
        let Some(sub) = v.subs.get(&stream) else {
            return;
        };
        let (up, up_e2e) = self.pull_up(viewer, v.view, v.region.index(), stream, sub.parent);
        let sub = self
            .viewers
            .get_mut(&viewer)
            .and_then(|v| v.subs.get_mut(&stream))
            .expect("checked above");
        sub.up = up;
        sub.up_e2e = up_e2e;
    }

    /// [`Self::reread_up`] for each of `viewers`.
    fn reread_up_all(&mut self, viewers: &[NodeId], stream: StreamId) {
        for &v in viewers {
            self.reread_up(v, stream);
        }
    }

    /// Sends `viewer`'s current `e2e` on each of `streams` (Δ once it
    /// holds no subscription to it) to the children that read it: the
    /// §V-B3 Subscription message, sent when the value is written. A
    /// child takes it only while `viewer` is its chain parent. The
    /// children of the viewer's group trees are appended to `walked` in
    /// visit order, as the subscription chain enqueues them.
    fn push_up_e2e(
        &mut self,
        viewer: NodeId,
        streams: impl IntoIterator<Item = StreamId>,
        mut walked: Option<&mut Vec<NodeId>>,
    ) {
        let Some(v) = self.viewers.get(&viewer) else {
            return;
        };
        let random = self.config.placement == PlacementStrategy::Random;
        let scope = v.region.index();
        let group = v.view.and_then(|view| self.scopes[scope].group(view));
        for stream in streams {
            let e2e = self.viewers[&viewer]
                .subs
                .get(&stream)
                .map_or(self.scheme.delta(), |s| s.e2e);
            let tree = if random {
                self.random_trees.get(&stream)
            } else {
                group.and_then(|g| g.tree(stream))
            };
            let Some(tree) = tree else {
                continue;
            };
            for child in tree.children_of(viewer) {
                if !random {
                    if let Some(walked) = walked.as_deref_mut() {
                        walked.push(child);
                    }
                }
                if let Some(sub) = self
                    .viewers
                    .get_mut(&child)
                    .and_then(|c| c.subs.get_mut(&stream))
                {
                    if sub.up == TreeParent::Viewer(viewer) {
                        sub.up_e2e = e2e;
                    }
                }
            }
        }
    }

    /// Debug-build oracle for pass 1 of [`Self::resync_viewer`]: the
    /// pushed chain inputs equal what reading the trees would give.
    #[cfg(debug_assertions)]
    fn debug_check_up(
        &self,
        viewer: NodeId,
        view: ViewId,
        scope: usize,
        stream: StreamId,
        sub: &StreamSub,
    ) {
        let pulled = self.pull_up(viewer, Some(view), scope, stream, sub.parent);
        assert_eq!(
            (sub.up, sub.up_e2e),
            pulled,
            "pushed chain inputs of viewer {viewer} stream {stream} differ from the trees at {:?}",
            self.engine.now()
        );
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn check_view(&self, view: ViewId) -> Result<(), TelecastError> {
        if view.index() < self.catalog.len() {
            Ok(())
        } else {
            Err(TelecastError::UnknownView(view))
        }
    }

    fn leg(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.delays.one_way(self.engine.now(), a, b)
    }

    /// End-to-end delay of `stream` at `viewer` through `parent`.
    fn path_delay(&self, viewer: NodeId, stream: StreamId, parent: TreeParent) -> SimDuration {
        match parent {
            TreeParent::Cdn => self.scheme.delta(),
            TreeParent::Viewer(p) => {
                let pe2e = self
                    .viewers
                    .get(&p)
                    .and_then(|pv| pv.subs.get(&stream))
                    .map(|ps| ps.e2e)
                    .unwrap_or(self.scheme.delta());
                pe2e + self.leg(p, viewer) + self.config.hop_processing
            }
        }
    }

    /// The node id representing `viewer`'s upstream for `stream` in its
    /// routing table match field (the CDN edge node for CDN parents).
    fn upstream_node_of(&self, viewer: NodeId, stream: StreamId) -> NodeId {
        let state = &self.viewers[&viewer];
        match state.subs.get(&stream).map(|s| s.parent) {
            Some(TreeParent::Viewer(p)) => p,
            _ => self.edge_nodes[&state.region],
        }
    }

    /// Eq. 2 subscription point for `viewer`'s current layer on `stream`.
    fn subscription_frame_for(&self, viewer: NodeId, stream: StreamId) -> FrameNumber {
        let state = &self.viewers[&viewer];
        let sub = &state.subs[&stream];
        let fps = self
            .monitor
            .stream_meta(stream)
            .expect("subscribed streams are monitored")
            .fps;
        let latest = self
            .monitor
            .latest_frame(stream, self.engine.now())
            .expect("subscribed streams are monitored");
        let (dprop, processing) = match sub.parent {
            TreeParent::Viewer(p) => (
                self.delays.one_way(self.engine.now(), p, viewer),
                self.config.hop_processing,
            ),
            TreeParent::Cdn => (SimDuration::ZERO, SimDuration::ZERO),
        };
        self.scheme
            .subscription_frame(latest, fps, sub.layer, dprop, processing)
    }
}

// ----------------------------------------------------------------------
// Epoch-runtime hooks (see crate::runtime). The shard hooks are the
// owner/donor halves of the cross-shard spill protocol plus the outbox
// plumbing the barrier drains. The fleet hooks serve a fleet-managed
// session, which keeps no autoscalers of its own: the barrier sums
// demand across tenants, scales the shared pools and hands each tenant
// its arbitrated retry budget. All of these run either inside this
// member's own event loop or sequentially in the barrier — never
// concurrently.
// ----------------------------------------------------------------------
impl TelecastSession {
    /// Marks this session as shard `id` owning `region`'s viewers.
    ///
    /// # Panics
    ///
    /// Panics if sharding was already enabled.
    pub(crate) fn enable_sharding(&mut self, id: usize, region: Region) {
        assert!(self.shard.is_none(), "sharding already enabled");
        self.shard = Some(crate::shard::ShardState::new(id, region));
    }

    /// Events this session's engine has fired.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_fired()
    }

    /// Drains the cross-shard outbox into `buf` by swapping buffers, so
    /// the per-epoch drain reuses one allocation per shard (see
    /// [`telecast_sim::Outbox::take_into`]). No-op on the legacy path.
    pub(crate) fn shard_take_outbox_into(
        &mut self,
        buf: &mut Vec<telecast_sim::OutboxEntry<crate::shard::ShardMessage>>,
    ) {
        match &mut self.shard {
            Some(state) => state.outbox.take_into(buf),
            None => buf.clear(),
        }
    }

    /// Headroom of this shard's CDN pool, in Kbps — the figure the
    /// coordinator ranks donors by.
    pub(crate) fn shard_headroom_kbps(&self) -> u64 {
        (0..self.cdn.pool_slots())
            .map(|slot| self.cdn.pool(slot).available().as_kbps())
            .sum()
    }

    /// Emits a spill request for a capacity-rejected foreground join:
    /// the viewer just moved to [`ViewerStatus::Rejected`] and the local
    /// pool cannot cover the view, so offer it to a foreign pool at the
    /// next barrier. No-op on the legacy path, when the rejection was
    /// not a capacity one (a foreign pool cannot fix inbound
    /// allocation), or while an earlier request is still in flight.
    fn shard_maybe_spill(&mut self, viewer: NodeId, view: ViewId) {
        if self.shard.is_none() {
            return;
        }
        let demand = self.view_demand_kbps(view);
        let slot = self.cdn.slot_of(self.viewers[&viewer].region);
        if self.cdn.pool(slot).available().as_kbps() >= demand {
            return;
        }
        let at = self.engine.now();
        let state = self.shard.as_mut().expect("checked above");
        if !state.spill_pending.insert(viewer) {
            return;
        }
        state.outbox.push(
            at,
            crate::shard::ShardMessage::SpillRequest {
                viewer,
                view,
                demand_kbps: demand,
            },
        );
        self.metrics.spill_requests.incr();
    }

    /// Donor half of a spill: serve every stream of `view` from this
    /// shard's pool, all-or-nothing. Returns the leases (in the view's
    /// stream order) or `None` with nothing reserved.
    pub(crate) fn shard_grant_view(&mut self, view: ViewId) -> Option<Vec<CdnLease>> {
        let region = self.shard.as_ref().map(|s| s.region)?;
        let streams: Vec<StreamId> = self.catalog.view(view).streams().collect();
        let mut leases = Vec::with_capacity(streams.len());
        for stream in streams {
            let bw = self.stream_bw[&stream];
            match self.cdn.serve(bw, region) {
                Ok(lease) => leases.push(lease),
                Err(_) => {
                    for lease in leases {
                        self.cdn.release(lease);
                    }
                    return None;
                }
            }
        }
        Some(leases)
    }

    /// Owner half of a spill: connect `viewer` on leases held in
    /// `donor`'s pool. The viewer keeps no local subscriptions and no
    /// inbound reservation — the serve is fully foreign, and the leases
    /// ride back to the donor on departure. Returns the leases untouched
    /// if the viewer moved on since the request (dwell expiry, re-join).
    pub(crate) fn shard_apply_spill_grant(
        &mut self,
        viewer: NodeId,
        view: ViewId,
        donor: usize,
        leases: Vec<CdnLease>,
    ) -> Result<(), Vec<CdnLease>> {
        let pending = self
            .shard
            .as_mut()
            .map(|s| s.spill_pending.remove(&viewer))
            .unwrap_or(false);
        let rejected = self
            .viewers
            .get(&viewer)
            .map(|v| v.status == ViewerStatus::Rejected)
            .unwrap_or(false);
        if !pending || !rejected {
            return Err(leases);
        }
        {
            let v = self.viewers.get_mut(&viewer).expect("viewer exists");
            debug_assert!(v.subs.is_empty(), "rejected viewer kept subscriptions");
            debug_assert!(
                v.ports.inbound.used().is_zero(),
                "rejected viewer kept inbound reservations"
            );
            v.status = ViewerStatus::Connected;
            v.view = Some(view);
        }
        self.connected_count += 1;
        self.retry_parked.remove(&viewer);
        self.metrics.spill_admits.incr();
        self.shard
            .as_mut()
            .expect("pending implies sharded")
            .foreign
            .insert(viewer, crate::shard::ForeignServe { donor, leases });
        Ok(())
    }

    /// Clears a viewer's in-flight spill marker after the coordinator
    /// found no donor — the next capacity rejection may try again.
    pub(crate) fn shard_spill_denied(&mut self, viewer: NodeId) {
        if let Some(state) = &mut self.shard {
            state.spill_pending.remove(&viewer);
        }
    }

    /// Releases donor-pool leases handed back by the coordinator (a
    /// departed spill-served viewer, or a grant the owner refused).
    pub(crate) fn shard_release_leases(&mut self, leases: Vec<CdnLease>) {
        for lease in leases {
            self.cdn.release(lease);
        }
    }

    /// Takes (and zeroes) the fresh arrival demand accumulated on pool
    /// `slot` since the last barrier, in Kbps — the fleet sums these
    /// across tenants as the shared controller's inflow signal.
    pub(crate) fn fleet_take_arrival_demand(&mut self, slot: usize) -> u64 {
        self.arrival_demand_kbps
            .get_mut(slot)
            .map_or(0, std::mem::take)
    }

    /// Worst-case CDN demand parked on each slot's retry queue, in Kbps
    /// — the per-tenant pending figure the fleet's fair arbitration
    /// splits pool headroom over. Stale entries (unparked or no longer
    /// Rejected) cost nothing.
    pub(crate) fn fleet_pending_retry_kbps(&self) -> Vec<u64> {
        (0..self.retry_queues.len())
            .map(|slot| {
                self.retry_queues[slot]
                    .iter()
                    .filter(|(viewer, _)| {
                        self.retry_parked.contains(viewer)
                            && self
                                .viewers
                                .get(viewer)
                                .map(|v| v.status == ViewerStatus::Rejected)
                                .unwrap_or(false)
                    })
                    .map(|&(_, view)| self.view_demand_kbps(view))
                    .sum()
            })
            .collect()
    }

    /// Drains each slot's retry queue under the budget the fleet's
    /// arbitration granted this tenant (Kbps per slot; slots beyond the
    /// budget list get nothing).
    pub(crate) fn fleet_drain_retries(&mut self, budgets: &[u64]) {
        for slot in 0..self.retry_queues.len() {
            let budget = budgets.get(slot).copied().unwrap_or(0);
            if budget == 0 || self.retry_queues[slot].is_empty() {
                continue;
            }
            self.drain_retry_slot(slot, budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telecast_cdn::CdnConfig;
    use telecast_media::{ChurnSpec, ProducerSite, SiteId};
    use telecast_net::BandwidthProfile;

    /// `n` viewers churning for 20 simulated minutes with the §VI
    /// adaptation loop armed and `cdn_mbps` of CDN pool per viewer.
    fn adaptive_churn(n: usize, seed: u64, cdn_mbps: u64) -> TelecastSession {
        let config = SessionConfig {
            sites: vec![
                ProducerSite::ring(SiteId::new(0), 6, 2_000, 10),
                ProducerSite::ring(SiteId::new(1), 6, 2_000, 10),
            ],
            streams_per_local_view: 3,
            adaptation_period: Some(SimDuration::from_secs(60)),
            ..SessionConfig::default()
        }
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(cdn_mbps * n as u64)))
        .with_prune_floor(6)
        .with_seed(seed);
        let mut session = TelecastSession::builder(config).viewers(n).build();
        let horizon = SimTime::from_secs(20 * 60);
        session.start_churn(ChurnSpec::steady_state(2 * n / 3, 0.1), horizon, n / 2);
        session.run_until(horizon);
        session
    }

    /// A drop inside a resync recovers victims, whose repositions run a
    /// subscription chain of their own inside the caller's, and so on
    /// down (see ARCHITECTURE.md, "The event loop"). Nothing bounds the
    /// nesting but the pool: on this tight-pool churn it reaches the
    /// depth pinned here, and every call has ended once the run has.
    #[test]
    fn tight_pool_churn_nests_the_chain_to_a_pinned_depth() {
        let session = adaptive_churn(150, 6, 2);
        assert_eq!(session.metrics.layer_drops.value(), 26);
        assert_eq!(session.resync_visits.max_depth, 5);
        assert_eq!(session.resync_visits.depth, 0);
        assert!(session.resync_visits.saved.is_empty());
    }
}
