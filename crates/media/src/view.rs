//! Views, the differentiation function, and stream priorities (paper §II-B).
//!
//! A viewer's **global view** `v` selects one **local view** per producer
//! site; each local view is the site's streams ranked by
//! `df(S, v) = S.w · v.w` and truncated by a cutoff. Priorities *across*
//! sites compare `η − df`, where `η` is the 1-based rank of the stream
//! inside its own site (lower `η − df` ⇒ higher priority).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::producer::ProducerSite;
use crate::stream::{Orientation, StreamId, StreamInfo};

/// Identifier of a global view within a [`ViewCatalog`].
///
/// Two viewers requesting the same `ViewId` are in the same view group
/// (the unit of overlay sharing in §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ViewId(u32);

impl ViewId {
    /// Creates a view id from its catalog index.
    pub const fn new(index: u32) -> Self {
        ViewId(index)
    }

    /// Raw catalog index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One stream inside a view together with its priority coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrioritizedStream {
    /// The stream.
    pub stream: StreamId,
    /// `df(S, v)` — importance of the stream in this view, in `[-1, 1]`.
    pub df: f64,
    /// `η` — 1-based priority index inside the stream's own site (1 =
    /// most important).
    pub eta: u32,
    /// Required bandwidth of the stream in Kbps.
    pub bitrate_kbps: u64,
}

impl PrioritizedStream {
    /// The paper's global priority key `η − df`; **lower is more
    /// important**.
    pub fn global_key(&self) -> f64 {
        self.eta as f64 - self.df
    }
}

/// The selected streams of one site for a given view, in priority order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalView {
    site_index: usize,
    streams: Vec<PrioritizedStream>,
}

impl LocalView {
    /// Computes the local view of `site` for view orientation `v`.
    ///
    /// Streams are ranked by descending `df`, assigned `η` by rank, then
    /// truncated: a stream is kept while `df ≥ cutoff` and at most
    /// `max_streams` are kept (the run-time cutoff of §II-D). At least one
    /// stream (the top-priority one) is always kept, matching the paper's
    /// admission rule that a local view is served by at least its highest
    /// priority stream.
    ///
    /// # Panics
    ///
    /// Panics if `max_streams` is zero or the site has no cameras.
    pub fn compute(site: &ProducerSite, v: Orientation, cutoff: f64, max_streams: usize) -> Self {
        assert!(max_streams > 0, "local view must keep at least one stream");
        let mut ranked: Vec<(StreamInfo, f64)> = site
            .streams()
            .iter()
            .map(|s| (*s, s.orientation.dot(v)))
            .collect();
        assert!(!ranked.is_empty(), "site has no cameras");
        // Descending df; ties broken by camera index for determinism.
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("df is never NaN")
                .then_with(|| a.0.id.camera().cmp(&b.0.id.camera()))
        });
        let streams = ranked
            .into_iter()
            .enumerate()
            .take(max_streams)
            .take_while(|(rank, (_, df))| *rank == 0 || *df >= cutoff)
            .map(|(rank, (info, df))| PrioritizedStream {
                stream: info.id,
                df,
                eta: rank as u32 + 1,
                bitrate_kbps: info.bitrate_kbps,
            })
            .collect();
        LocalView {
            site_index: site.id().index(),
            streams,
        }
    }

    /// The site this local view selects from.
    pub fn site_index(&self) -> usize {
        self.site_index
    }

    /// Selected streams in priority order (η = 1 first).
    pub fn streams(&self) -> &[PrioritizedStream] {
        &self.streams
    }
}

/// A global view — the paper's **4D content**: one local view per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalView {
    id: ViewId,
    orientation_degrees: f64,
    locals: Vec<LocalView>,
    /// Every stream of `locals` in global priority order, sorted once
    /// here because every join and view change reads it.
    by_priority: Vec<PrioritizedStream>,
}

impl GlobalView {
    /// Assembles a global view from per-site local views.
    ///
    /// # Panics
    ///
    /// Panics if `locals` is empty.
    pub fn new(id: ViewId, orientation: Orientation, locals: Vec<LocalView>) -> Self {
        assert!(!locals.is_empty(), "a global view spans at least one site");
        let mut by_priority: Vec<PrioritizedStream> = locals
            .iter()
            .flat_map(|l| l.streams().iter().copied())
            .collect();
        by_priority.sort_by(|a, b| {
            a.global_key()
                .partial_cmp(&b.global_key())
                .expect("priority key is never NaN")
                .then_with(|| a.stream.cmp(&b.stream))
        });
        GlobalView {
            id,
            orientation_degrees: orientation.degrees(),
            locals,
            by_priority,
        }
    }

    /// The view's identifier.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The viewing orientation.
    pub fn orientation(&self) -> Orientation {
        Orientation::from_degrees(self.orientation_degrees)
    }

    /// Per-site local views.
    pub fn locals(&self) -> &[LocalView] {
        &self.locals
    }

    /// Number of producer sites (`n` in the admission constraint
    /// `N_accepted ≥ n`).
    pub fn site_count(&self) -> usize {
        self.locals.len()
    }

    /// All streams of the 4D content in **global priority order**
    /// (ascending `η − df`, i.e. most important first). Ties are broken by
    /// site then camera index for determinism.
    pub fn streams_by_priority(&self) -> &[PrioritizedStream] {
        &self.by_priority
    }

    /// Iterates over all stream ids in the view (unordered).
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.locals
            .iter()
            .flat_map(|l| l.streams().iter().map(|p| p.stream))
    }
}

/// The set of selectable global views in a session.
///
/// The evaluation uses canonical views: one per camera orientation, each
/// selecting the 3 most-aligned streams per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewCatalog {
    views: Vec<GlobalView>,
}

impl ViewCatalog {
    /// Builds the canonical catalog for `sites`: one global view per
    /// distinct camera orientation of the first site, each keeping
    /// `streams_per_site` streams per site (cutoff chosen to admit exactly
    /// the nearest cameras).
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or `streams_per_site` is zero.
    pub fn canonical(sites: &[ProducerSite], streams_per_site: usize) -> Self {
        assert!(!sites.is_empty(), "catalog needs at least one site");
        assert!(streams_per_site > 0, "views need at least one stream");
        let angles: Vec<f64> = sites[0]
            .streams()
            .iter()
            .map(|s| s.orientation.degrees())
            .collect();
        let views = angles
            .iter()
            .enumerate()
            .map(|(i, &deg)| {
                let v = Orientation::from_degrees(deg);
                let locals = sites
                    .iter()
                    // cutoff −1 admits everything; the per-site cap does
                    // the paper's "3 from each producer" truncation.
                    .map(|site| LocalView::compute(site, v, -1.0, streams_per_site))
                    .collect();
                GlobalView::new(ViewId::new(i as u32), v, locals)
            })
            .collect();
        ViewCatalog { views }
    }

    /// Number of selectable views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the catalog is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Looks up a view.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the catalog.
    pub fn view(&self, id: ViewId) -> &GlobalView {
        &self.views[id.index()]
    }

    /// Iterates over all views.
    pub fn iter(&self) -> impl Iterator<Item = &GlobalView> {
        self.views.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SiteId;

    fn teeve_sites() -> Vec<ProducerSite> {
        ProducerSite::teeve_pair().to_vec()
    }

    #[test]
    fn local_view_ranks_by_df() {
        let sites = teeve_sites();
        let v = Orientation::from_degrees(0.0);
        let local = LocalView::compute(&sites[0], v, -1.0, 3);
        assert_eq!(local.streams().len(), 3);
        // Rank 1 is the camera pointing straight at the view.
        assert!((local.streams()[0].df - 1.0).abs() < 1e-9);
        assert_eq!(local.streams()[0].eta, 1);
        // df non-increasing, η strictly increasing.
        let s = local.streams();
        for w in s.windows(2) {
            assert!(w[0].df >= w[1].df);
            assert_eq!(w[1].eta, w[0].eta + 1);
        }
    }

    #[test]
    fn cutoff_drops_low_importance_streams() {
        let sites = teeve_sites();
        let v = Orientation::from_degrees(0.0);
        // cos(45°) ≈ 0.707; cutoff 0.8 keeps only the aligned camera.
        let local = LocalView::compute(&sites[0], v, 0.8, 8);
        assert_eq!(local.streams().len(), 1);
        // cutoff 0.5 keeps the aligned camera and both 45° neighbours.
        let local = LocalView::compute(&sites[0], v, 0.5, 8);
        assert_eq!(local.streams().len(), 3);
    }

    #[test]
    fn top_stream_survives_any_cutoff() {
        let sites = teeve_sites();
        let v = Orientation::from_degrees(22.0);
        let local = LocalView::compute(&sites[0], v, 2.0, 8); // impossible cutoff
        assert_eq!(local.streams().len(), 1, "highest priority stream kept");
    }

    #[test]
    fn canonical_catalog_matches_paper_setup() {
        let sites = teeve_sites();
        let catalog = ViewCatalog::canonical(&sites, 3);
        assert_eq!(catalog.len(), 8); // one view per camera angle
        for view in catalog.iter() {
            assert_eq!(view.site_count(), 2);
            assert_eq!(view.streams().count(), 6); // 3 per site
        }
    }

    #[test]
    fn global_priority_interleaves_sites() {
        let sites = teeve_sites();
        let catalog = ViewCatalog::canonical(&sites, 3);
        let ordered = catalog.view(ViewId::new(0)).streams_by_priority();
        assert_eq!(ordered.len(), 6);
        // Keys ascend.
        for w in ordered.windows(2) {
            assert!(w[0].global_key() <= w[1].global_key());
        }
        // The two η=1 streams (one per site) come before any η=2 stream.
        let first_two: Vec<u32> = ordered[..2].iter().map(|p| p.eta).collect();
        assert_eq!(first_two, vec![1, 1]);
    }

    #[test]
    fn view_difference_follows_definition() {
        let sites = teeve_sites();
        let catalog = ViewCatalog::canonical(&sites, 3);
        let v0 = catalog.view(ViewId::new(0));
        let v1 = catalog.view(ViewId::new(1));
        // §II-C: `vi ≠ vj` iff some stream of one is missing from the
        // other. Adjacent views (45° apart) share some streams but not all.
        let set = |v: &GlobalView| v.streams().collect::<std::collections::BTreeSet<_>>();
        assert_ne!(set(v0), set(v1));
        let added = set(v1).difference(&set(v0)).count();
        assert!(added > 0);
        assert!(added < v1.streams().count());
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_max_streams_panics() {
        let sites = teeve_sites();
        LocalView::compute(&sites[0], Orientation::from_degrees(0.0), -1.0, 0);
    }

    #[test]
    fn site_ids_present_in_view() {
        let sites = teeve_sites();
        let catalog = ViewCatalog::canonical(&sites, 3);
        let view = catalog.view(ViewId::new(2));
        let site_set: std::collections::BTreeSet<_> = view.streams().map(|s| s.site()).collect();
        assert_eq!(
            site_set,
            [SiteId::new(0), SiteId::new(1)].into_iter().collect()
        );
    }
}
