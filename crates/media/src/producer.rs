//! Producer sites: camera rigs generating 3D streams (paper §II-A).

use serde::{Deserialize, Serialize};

use crate::stream::{Orientation, SiteId, StreamId, StreamInfo};

/// A 3DTI producer site: a gateway plus a ring of 3D cameras.
///
/// ```
/// use telecast_media::{ProducerSite, SiteId};
///
/// let site = ProducerSite::ring(SiteId::new(0), 8, 2_000, 10);
/// assert_eq!(site.streams().len(), 8);
/// // Cameras are evenly spaced around the rig.
/// assert!((site.streams()[2].orientation.degrees() - 90.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProducerSite {
    id: SiteId,
    streams: Vec<StreamInfo>,
}

impl ProducerSite {
    /// Creates a site whose `cameras` cameras are evenly spaced on a ring,
    /// all producing `bitrate_kbps` at `fps`.
    ///
    /// # Panics
    ///
    /// Panics if `cameras` is zero.
    pub fn ring(id: SiteId, cameras: u16, bitrate_kbps: u64, fps: u32) -> Self {
        assert!(cameras > 0, "a producer site needs at least one camera");
        let step = 360.0 / cameras as f64;
        let streams = (0..cameras)
            .map(|c| StreamInfo {
                id: StreamId::new(id, c),
                orientation: Orientation::from_degrees(step * c as f64),
                bitrate_kbps,
                fps,
            })
            .collect();
        ProducerSite { id, streams }
    }

    /// The paper's evaluation setup: two sites with 8 cameras each,
    /// 2 Mbps per stream at 10 fps (TEEVE's typical rate).
    pub fn teeve_pair() -> [ProducerSite; 2] {
        [
            ProducerSite::ring(SiteId::new(0), 8, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), 8, 2_000, 10),
        ]
    }

    /// The site's identifier.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// All camera streams, in camera order.
    pub fn streams(&self) -> &[StreamInfo] {
        &self.streams
    }

    /// Looks up one stream by camera index.
    pub fn stream(&self, camera: u16) -> Option<&StreamInfo> {
        self.streams.iter().find(|s| s.id.camera() == camera)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_spacing_is_even() {
        let site = ProducerSite::ring(SiteId::new(0), 4, 1_000, 10);
        let degs: Vec<f64> = site
            .streams()
            .iter()
            .map(|s| s.orientation.degrees())
            .collect();
        assert_eq!(degs, vec![0.0, 90.0, 180.0, 270.0]);
    }

    #[test]
    fn teeve_pair_matches_evaluation() {
        let [a, b] = ProducerSite::teeve_pair();
        assert_eq!(a.streams().len(), 8);
        assert_eq!(b.streams().len(), 8);
        let total_kbps: u64 = a.streams().iter().map(|s| s.bitrate_kbps).sum();
        assert_eq!(total_kbps, 16_000); // 8 × 2 Mbps
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn stream_lookup() {
        let site = ProducerSite::ring(SiteId::new(2), 8, 2_000, 10);
        assert!(site.stream(7).is_some());
        assert!(site.stream(8).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn empty_ring_panics() {
        ProducerSite::ring(SiteId::new(0), 0, 2_000, 10);
    }
}
