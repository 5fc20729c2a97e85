//! Error types of the 4D TeleCast core.

use std::error::Error;
use std::fmt;

use telecast_media::ViewId;
use telecast_net::NodeId;

/// Errors surfaced by the public session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelecastError {
    /// The node id does not denote a viewer of this session.
    UnknownViewer(NodeId),
    /// The view id is outside the session's catalog.
    UnknownView(ViewId),
    /// The viewer is already connected (double join).
    AlreadyJoined(NodeId),
    /// The viewer is not connected (view change / departure without join).
    NotJoined(NodeId),
}

impl fmt::Display for TelecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelecastError::UnknownViewer(v) => write!(f, "unknown viewer {v}"),
            TelecastError::UnknownView(v) => write!(f, "unknown view {v}"),
            TelecastError::AlreadyJoined(v) => write!(f, "viewer {v} already joined"),
            TelecastError::NotJoined(v) => write!(f, "viewer {v} is not joined"),
        }
    }
}

impl Error for TelecastError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        assert!(TelecastError::UnknownView(ViewId::new(3))
            .to_string()
            .contains("v3"));
    }
}
