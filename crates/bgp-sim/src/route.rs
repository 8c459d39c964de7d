//! Routes and update messages as they move through the simulator.
//!
//! Both the RIB entry and the in-flight message carry their attributes
//! behind `Arc<PathAttributes>`, interned through the network's
//! [`AttrStore`](kcc_bgp_types::AttrStore): propagating one announcement
//! to 75k neighbors clones a pointer, never the attribute set.

use std::sync::Arc;

use kcc_bgp_types::{PathAttributes, Prefix};
use kcc_topology::{RouteSource, RouterId};

use crate::session::SessionId;

/// The payload of one simulated update message: a single prefix
/// announcement or withdrawal. (Real UPDATEs can pack prefixes; the
/// analysis is per-prefix anyway, and collectors explode packets — see
/// `kcc_bgp_wire::UpdatePacket::into_route_updates`.)
#[derive(Debug, Clone, PartialEq)]
pub struct SimUpdate {
    /// The affected prefix.
    pub prefix: Prefix,
    /// Announcement or withdrawal.
    pub body: UpdateBody,
}

/// Announcement attributes or withdrawal marker.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateBody {
    /// Announcement with wire-visible attributes. `source_hint` is
    /// sim-internal metadata carried only on iBGP sessions (real networks
    /// encode the same fact in local-pref policy); eBGP receivers derive
    /// the source from the session relationship instead.
    Announce {
        /// The path attributes (shared, interned).
        attrs: Arc<PathAttributes>,
        /// Gao–Rexford source of the route, forwarded over iBGP.
        source_hint: Option<RouteSource>,
    },
    /// Withdrawal.
    Withdraw,
}

impl SimUpdate {
    /// An announcement without a source hint (eBGP shape).
    pub fn announce(prefix: Prefix, attrs: impl Into<Arc<PathAttributes>>) -> Self {
        SimUpdate { prefix, body: UpdateBody::Announce { attrs: attrs.into(), source_hint: None } }
    }

    /// A withdrawal.
    pub fn withdraw(prefix: Prefix) -> Self {
        SimUpdate { prefix, body: UpdateBody::Withdraw }
    }

    /// True for announcements.
    pub fn is_announcement(&self) -> bool {
        matches!(self.body, UpdateBody::Announce { .. })
    }

    /// The attributes, if an announcement.
    pub fn attrs(&self) -> Option<&PathAttributes> {
        match &self.body {
            UpdateBody::Announce { attrs, .. } => Some(attrs),
            UpdateBody::Withdraw => None,
        }
    }
}

/// One route as stored in a router's Adj-RIB-In (post-import-policy) or
/// Loc-RIB.
#[derive(Debug, Clone, PartialEq)]
pub struct RibEntry {
    /// Attributes after import policy (shared, interned).
    pub attrs: Arc<PathAttributes>,
    /// Gao–Rexford source, for valley-free export decisions.
    pub source: RouteSource,
    /// The session the route was learned on; `None` for originated routes.
    pub from_session: Option<SessionId>,
    /// The border router through which traffic would exit the AS — the
    /// IGP-cost target for hot-potato comparison. For eBGP-learned routes
    /// this is the receiving router itself; for iBGP-learned routes it is
    /// the advertising border router; for originated routes, self.
    pub egress: RouterId,
}

impl RibEntry {
    /// Effective local preference (RFC 4271 default 100 when unset).
    pub fn effective_local_pref(&self) -> u32 {
        // Originated routes win over everything learned.
        if self.source == RouteSource::Originated {
            return u32::MAX;
        }
        self.attrs.local_pref.unwrap_or(100)
    }

    /// Effective MED (missing treated as 0, the common vendor default).
    pub fn effective_med(&self) -> u32 {
        self.attrs.med.unwrap_or(0)
    }

    /// True if learned over eBGP (preferred over iBGP by the decision
    /// process). Originated routes are "internal" but never reach this
    /// comparison stage against themselves.
    pub fn is_ebgp(&self, receiving_router: RouterId) -> bool {
        self.from_session.is_some() && self.egress == receiving_router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::Asn;

    fn entry(source: RouteSource) -> RibEntry {
        RibEntry {
            attrs: Arc::new(PathAttributes::default()),
            source,
            from_session: Some(SessionId(0)),
            egress: RouterId { asn: Asn(1), index: 0 },
        }
    }

    #[test]
    fn local_pref_defaults_to_100() {
        assert_eq!(entry(RouteSource::Peer).effective_local_pref(), 100);
        let mut e = entry(RouteSource::Peer);
        e.attrs = Arc::new(PathAttributes { local_pref: Some(300), ..Default::default() });
        assert_eq!(e.effective_local_pref(), 300);
    }

    #[test]
    fn originated_beats_any_local_pref() {
        let e = entry(RouteSource::Originated);
        assert_eq!(e.effective_local_pref(), u32::MAX);
    }

    #[test]
    fn med_defaults_to_zero() {
        assert_eq!(entry(RouteSource::Peer).effective_med(), 0);
        let mut e = entry(RouteSource::Peer);
        e.attrs = Arc::new(PathAttributes { med: Some(50), ..Default::default() });
        assert_eq!(e.effective_med(), 50);
    }

    #[test]
    fn ebgp_detection_via_egress() {
        let me = RouterId { asn: Asn(1), index: 0 };
        let other = RouterId { asn: Asn(1), index: 1 };
        let mut e = entry(RouteSource::Customer);
        e.egress = me;
        assert!(e.is_ebgp(me)); // learned here: eBGP
        e.egress = other;
        assert!(!e.is_ebgp(me)); // exit elsewhere: iBGP-learned
    }

    #[test]
    fn update_constructors() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(SimUpdate::announce(p, PathAttributes::default()).is_announcement());
        assert!(!SimUpdate::withdraw(p).is_announcement());
        assert!(SimUpdate::withdraw(p).attrs().is_none());
    }
}
