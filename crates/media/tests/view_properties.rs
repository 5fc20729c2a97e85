//! Property tests of the view/priority model: df bounds, cutoff
//! monotonicity, priority-order invariants.

use proptest::prelude::*;
use telecast_media::{LocalView, Orientation, ProducerSite, SiteId, ViewCatalog, ViewId};

fn site(cameras: u16) -> ProducerSite {
    ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10)
}

proptest! {
    /// df is a cosine: always in [-1, 1], and the top-ranked stream of a
    /// local view maximises it.
    #[test]
    fn df_bounded_and_top_is_max(cameras in 1u16..24, angle in 0.0f64..360.0) {
        let s = site(cameras);
        let v = Orientation::from_degrees(angle);
        let local = LocalView::compute(&s, v, -1.0, cameras as usize);
        for p in local.streams() {
            prop_assert!(p.df >= -1.0 - 1e-12 && p.df <= 1.0 + 1e-12);
        }
        let max_df = s
            .streams()
            .iter()
            .map(|st| st.orientation.dot(v))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((local.streams()[0].df - max_df).abs() < 1e-12);
    }

    /// Raising the cutoff never adds streams (monotone truncation), and
    /// the surviving set is always a prefix of the priority order.
    #[test]
    fn cutoff_is_monotone(
        cameras in 1u16..16,
        angle in 0.0f64..360.0,
        lo in -1.0f64..0.9,
        delta in 0.0f64..0.5,
    ) {
        let s = site(cameras);
        let v = Orientation::from_degrees(angle);
        let loose = LocalView::compute(&s, v, lo, cameras as usize);
        let strict = LocalView::compute(&s, v, lo + delta, cameras as usize);
        prop_assert!(strict.streams().len() <= loose.streams().len());
        // Prefix property: strict selection is a prefix of loose.
        for (a, b) in strict.streams().iter().zip(loose.streams().iter()) {
            prop_assert_eq!(a.stream, b.stream);
        }
    }

    /// Global priority order: η−df keys ascend, and within one site the
    /// order never inverts the local (η) order.
    #[test]
    fn global_priority_preserves_local_order(
        cameras in 2u16..12,
        per_site in 1usize..6,
        view_index in 0u32..12,
    ) {
        let sites = [
            ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
        ];
        let catalog = ViewCatalog::canonical(&sites, per_site.min(cameras as usize));
        let view = catalog.view(ViewId::new(view_index % cameras as u32));
        let ordered = view.streams_by_priority();
        for w in ordered.windows(2) {
            prop_assert!(w[0].global_key() <= w[1].global_key() + 1e-12);
        }
        for site_idx in 0..2u16 {
            let etas: Vec<u32> = ordered
                .iter()
                .filter(|p| p.stream.site() == SiteId::new(site_idx))
                .map(|p| p.eta)
                .collect();
            prop_assert!(etas.windows(2).all(|w| w[0] < w[1]),
                "per-site η order inverted: {:?}", etas);
        }
    }

    /// Every canonical view contains at least one stream per site (the
    /// admissibility precondition N ≥ n).
    #[test]
    fn canonical_views_cover_all_sites(cameras in 1u16..16, per_site in 1usize..8) {
        let sites = [
            ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
        ];
        let catalog = ViewCatalog::canonical(&sites, per_site);
        for view in catalog.iter() {
            let mut seen = [false; 2];
            for s in view.streams() {
                seen[s.site().index()] = true;
            }
            prop_assert!(seen[0] && seen[1]);
        }
    }
}
