//! Stream identities and spatial orientation.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a 3DTI producer site (Site-A, Site-B, … in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(u16);

impl SiteId {
    /// Creates a site id from its index.
    pub const fn new(index: u16) -> Self {
        SiteId(index)
    }

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Site-A, Site-B … beyond 26 sites fall back to numbers.
        if self.0 < 26 {
            write!(f, "site-{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "site-{}", self.0)
        }
    }
}

/// Identifier of a camera stream, globally unique across sites.
///
/// The paper writes `S_i^A` for stream `i` of Site-A; `StreamId` carries
/// both coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId {
    site: SiteId,
    camera: u16,
}

impl StreamId {
    /// Creates the id of camera `camera` at `site`.
    pub const fn new(site: SiteId, camera: u16) -> Self {
        StreamId { site, camera }
    }

    /// The producing site.
    pub const fn site(self) -> SiteId {
        self.site
    }

    /// Camera index within the site.
    pub const fn camera(self) -> u16 {
        self.camera
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}@{}", self.camera, self.site)
    }
}

/// A unit orientation vector in the horizontal plane.
///
/// TEEVE camera rigs arrange 3D cameras in a ring around the capture space,
/// so orientations are angles in the plane; `df` is the dot product of two
/// such unit vectors (the cosine of their angular separation).
///
/// ```
/// use telecast_media::Orientation;
///
/// let front = Orientation::from_degrees(0.0);
/// let side = Orientation::from_degrees(90.0);
/// assert!((front.dot(side)).abs() < 1e-9);
/// assert!((front.dot(front) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Orientation {
    radians: f64,
}

impl Orientation {
    /// Creates an orientation from an angle in degrees.
    pub fn from_degrees(degrees: f64) -> Self {
        Orientation {
            radians: degrees.to_radians(),
        }
    }

    /// The angle in degrees, normalised to `[0, 360)`.
    pub fn degrees(self) -> f64 {
        let d = self.radians.to_degrees() % 360.0;
        if d < 0.0 {
            d + 360.0
        } else {
            d
        }
    }

    /// Dot product of the two unit vectors — the paper's `S.w · v.w`.
    pub fn dot(self, other: Orientation) -> f64 {
        (self.radians - other.radians).cos()
    }
}

/// Static facts about one camera stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamInfo {
    /// The stream's identifier.
    pub id: StreamId,
    /// Spatial orientation of the capturing camera (`S.w`).
    pub orientation: Orientation,
    /// Nominal media bitrate in Kbps (the paper uses 2 Mbps per stream).
    pub bitrate_kbps: u64,
    /// Frame rate in frames per second.
    pub fps: u32,
}

impl StreamInfo {
    /// Mean frame size in bytes implied by bitrate and frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is zero.
    pub fn mean_frame_bytes(&self) -> u64 {
        assert!(self.fps > 0, "stream with zero frame rate");
        self.bitrate_kbps * 1_000 / 8 / self.fps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_is_lettered() {
        assert_eq!(SiteId::new(0).to_string(), "site-A");
        assert_eq!(SiteId::new(1).to_string(), "site-B");
        assert_eq!(SiteId::new(30).to_string(), "site-30");
    }

    #[test]
    fn stream_id_coordinates() {
        let id = StreamId::new(SiteId::new(1), 4);
        assert_eq!(id.site(), SiteId::new(1));
        assert_eq!(id.camera(), 4);
        assert_eq!(id.to_string(), "S4@site-B");
    }

    #[test]
    fn orientation_dot_is_cosine() {
        let a = Orientation::from_degrees(0.0);
        assert!((a.dot(Orientation::from_degrees(45.0)) - 45f64.to_radians().cos()).abs() < 1e-12);
        assert!((a.dot(Orientation::from_degrees(180.0)) + 1.0).abs() < 1e-12);
        // Symmetric.
        let b = Orientation::from_degrees(77.0);
        assert!((a.dot(b) - b.dot(a)).abs() < 1e-12);
    }

    #[test]
    fn degrees_normalised() {
        assert!((Orientation::from_degrees(-90.0).degrees() - 270.0).abs() < 1e-9);
        assert!((Orientation::from_degrees(720.0).degrees() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn mean_frame_bytes_matches_paper() {
        let info = StreamInfo {
            id: StreamId::new(SiteId::new(0), 0),
            orientation: Orientation::from_degrees(0.0),
            bitrate_kbps: 2_000,
            fps: 10,
        };
        // 2 Mbps at 10 fps → 25 KB frames.
        assert_eq!(info.mean_frame_bytes(), 25_000);
    }
}
