//! The route-update model used throughout the pipeline.
//!
//! A [`RouteUpdate`] is one *logical* BGP event for one prefix as observed
//! on one BGP session: an announcement carrying attributes, or a
//! withdrawal. Wire-level UPDATE messages can pack many prefixes; the
//! analysis (like the paper's) operates per prefix, so collectors and
//! parsers explode messages into per-prefix updates while preserving
//! arrival order.

use std::fmt;
use std::sync::Arc;

use crate::attrs::PathAttributes;
use crate::prefix::Prefix;

/// Announcement or withdrawal.
///
/// Announcement attributes are shared behind an [`Arc`]: a wire UPDATE
/// packs many prefixes onto one attribute set, and the classifier retains
/// one set per `(prefix, session)` stream — holding the update's own
/// handle makes that a refcount bump, which keeps the hot path
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A reachability announcement with (shared) path attributes.
    Announcement(Arc<PathAttributes>),
    /// An explicit withdrawal.
    Withdrawal,
}

impl MessageKind {
    /// True for announcements.
    pub fn is_announcement(&self) -> bool {
        matches!(self, MessageKind::Announcement(_))
    }

    /// The attributes, if this is an announcement.
    pub fn attributes(&self) -> Option<&PathAttributes> {
        match self {
            MessageKind::Announcement(a) => Some(a),
            MessageKind::Withdrawal => None,
        }
    }

    /// The shared attribute handle, if this is an announcement — a
    /// pointer copy away from retaining or forwarding the attributes.
    pub fn attributes_shared(&self) -> Option<&Arc<PathAttributes>> {
        match self {
            MessageKind::Announcement(a) => Some(a),
            MessageKind::Withdrawal => None,
        }
    }
}

/// One per-prefix update as recorded at a collector.
///
/// `time_us` is microseconds since the epoch of the observation window
/// (simulated or generated). Collectors that only record second granularity
/// are normalized by the cleaning stage, which preserves ordering and
/// spaces same-second arrivals 0.01 ms apart, exactly as the paper does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteUpdate {
    /// Microsecond timestamp.
    pub time_us: u64,
    /// The affected prefix.
    pub prefix: Prefix,
    /// Announcement (with attributes) or withdrawal.
    pub kind: MessageKind,
}

impl RouteUpdate {
    /// Creates an announcement update. Accepts owned attributes (wrapped
    /// on the spot) or an existing `Arc` handle (a pointer copy).
    pub fn announce(time_us: u64, prefix: Prefix, attrs: impl Into<Arc<PathAttributes>>) -> Self {
        RouteUpdate { time_us, prefix, kind: MessageKind::Announcement(attrs.into()) }
    }

    /// Creates a withdrawal update.
    pub fn withdraw(time_us: u64, prefix: Prefix) -> Self {
        RouteUpdate { time_us, prefix, kind: MessageKind::Withdrawal }
    }

    /// True for announcements.
    pub fn is_announcement(&self) -> bool {
        self.kind.is_announcement()
    }

    /// True for withdrawals.
    pub fn is_withdrawal(&self) -> bool {
        !self.is_announcement()
    }

    /// The attributes, if this is an announcement.
    pub fn attributes(&self) -> Option<&PathAttributes> {
        self.kind.attributes()
    }

    /// The shared attribute handle, if this is an announcement.
    pub fn attributes_shared(&self) -> Option<&Arc<PathAttributes>> {
        self.kind.attributes_shared()
    }
}

impl fmt::Display for RouteUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            MessageKind::Announcement(a) => write!(
                f,
                "{:>12}us A {} path [{}] comms [{}]",
                self.time_us, self.prefix, a.as_path, a.communities
            ),
            MessageKind::Withdrawal => {
                write!(f, "{:>12}us W {}", self.time_us, self.prefix)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Prefix {
        "84.205.64.0/24".parse().unwrap()
    }

    #[test]
    fn announce_and_withdraw_constructors() {
        let a = RouteUpdate::announce(10, p(), PathAttributes::default());
        assert!(a.is_announcement());
        assert!(!a.is_withdrawal());
        assert!(a.attributes().is_some());

        let w = RouteUpdate::withdraw(20, p());
        assert!(w.is_withdrawal());
        assert!(w.attributes().is_none());
    }

    #[test]
    fn display_shows_kind() {
        let a = RouteUpdate::announce(10, p(), PathAttributes::default());
        assert!(a.to_string().contains(" A "));
        let w = RouteUpdate::withdraw(20, p());
        assert!(w.to_string().contains(" W "));
    }
}
