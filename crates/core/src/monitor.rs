//! The GSC monitoring component (paper §III).
//!
//! "The GSC also continuously monitors producers metadata (such as frame
//! rate, frame number, and frame size for each stream), stream priorities
//! of each viewer's request, and geographical location of the viewers.
//! All metadata information are available for the viewers upon query."
//!
//! [`GscMonitor`] is that registry: per-stream production metadata (the
//! `n` and `r` of Equation 2), the session's one copy of each stream's
//! frame rate.

use std::collections::HashMap;

use telecast_media::{FrameNumber, ProducerSite, StreamId};
use telecast_sim::SimTime;

/// Production metadata of one stream, as the GSC reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMeta {
    /// Frame rate `r` in frames per second.
    pub fps: u32,
    /// Nominal bitrate in Kbps.
    pub bitrate_kbps: u64,
    /// Mean encoded frame size in bytes.
    pub mean_frame_bytes: u64,
}

/// The Global Session Controller's monitoring state.
#[derive(Debug, Clone)]
pub struct GscMonitor {
    streams: HashMap<StreamId, StreamMeta>,
}

impl GscMonitor {
    /// Builds the monitor from the session's producer sites.
    pub fn new(sites: &[ProducerSite]) -> Self {
        let mut streams = HashMap::new();
        for site in sites {
            for s in site.streams() {
                streams.insert(
                    s.id,
                    StreamMeta {
                        fps: s.fps,
                        bitrate_kbps: s.bitrate_kbps,
                        mean_frame_bytes: s.mean_frame_bytes(),
                    },
                );
            }
        }
        GscMonitor { streams }
    }

    /// Metadata for `stream`, if it is produced in this session.
    pub fn stream_meta(&self, stream: StreamId) -> Option<StreamMeta> {
        self.streams.get(&stream).copied()
    }

    /// The latest captured frame number `n` of `stream` at virtual time
    /// `at` — what Eq. 2 queries ("collected from the GSC monitoring").
    /// Producers capture from time zero at their configured rate.
    pub fn latest_frame(&self, stream: StreamId, at: SimTime) -> Option<FrameNumber> {
        let meta = self.streams.get(&stream)?;
        Some(FrameNumber::new(
            at.as_micros() * meta.fps as u64 / 1_000_000,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> GscMonitor {
        GscMonitor::new(&ProducerSite::teeve_pair())
    }

    #[test]
    fn registers_every_producer_stream() {
        let m = monitor();
        let sites = ProducerSite::teeve_pair();
        let streams: Vec<_> = sites.iter().flat_map(|s| s.streams()).collect();
        assert_eq!(streams.len(), 16);
        for s in &streams {
            assert_eq!(m.stream_meta(s.id).map(|meta| meta.fps), Some(s.fps));
        }
        let any = sites[0].streams()[3].id;
        let meta = m.stream_meta(any).expect("registered");
        assert_eq!(meta.fps, 10);
        assert_eq!(meta.bitrate_kbps, 2_000);
        assert_eq!(meta.mean_frame_bytes, 25_000);
    }

    #[test]
    fn latest_frame_tracks_the_clock() {
        let m = monitor();
        let id = ProducerSite::teeve_pair()[0].streams()[0].id;
        assert_eq!(m.latest_frame(id, SimTime::ZERO), Some(FrameNumber::ZERO));
        // 10 fps → frame 600 after one minute.
        assert_eq!(
            m.latest_frame(id, SimTime::from_secs(60)),
            Some(FrameNumber::new(600))
        );
        // Sub-frame-period instants truncate.
        assert_eq!(
            m.latest_frame(id, SimTime::from_millis(99)),
            Some(FrameNumber::ZERO)
        );
    }

    #[test]
    fn unknown_stream_is_none() {
        let m = monitor();
        let foreign = StreamId::new(telecast_media::SiteId::new(9), 0);
        assert_eq!(m.stream_meta(foreign), None);
        assert_eq!(m.latest_frame(foreign, SimTime::ZERO), None);
    }
}
