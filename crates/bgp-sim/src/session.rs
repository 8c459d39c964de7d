//! BGP sessions between simulated routers.

use kcc_topology::{RouteSource, RouterId};

use crate::policy::{ExportPolicy, ImportPolicy};
use crate::time::SimDuration;

/// Index of a session within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub usize);

/// eBGP (inter-AS) or iBGP (intra-AS full mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// External BGP between two ASes.
    Ebgp,
    /// Internal BGP within one AS.
    Ibgp,
}

/// One BGP session. `a` and `b` are the two endpoints; per-direction
/// policies are named from each endpoint's perspective (`a_import` is what
/// `a` applies to routes arriving from `b`).
#[derive(Debug, Clone)]
pub struct Session {
    /// Network-wide session index.
    pub id: SessionId,
    /// eBGP or iBGP.
    pub kind: SessionKind,
    /// First endpoint.
    pub a: RouterId,
    /// Second endpoint.
    pub b: RouterId,
    /// Policy `a` applies to routes received from `b`.
    pub a_import: ImportPolicy,
    /// Policy `a` applies to routes sent toward `b`.
    pub a_export: ExportPolicy,
    /// Policy `b` applies to routes received from `a`.
    pub b_import: ImportPolicy,
    /// Policy `b` applies to routes sent toward `a`.
    pub b_export: ExportPolicy,
    /// What `b` is to `a` (customer/peer/provider); `None` on iBGP.
    pub a_view_of_b: Option<RouteSource>,
    /// What `a` is to `b`.
    pub b_view_of_a: Option<RouteSource>,
    /// One-way message delay.
    pub delay: SimDuration,
    /// Session liveness; down sessions deliver nothing.
    pub up: bool,
}

impl Session {
    /// The other endpoint.
    pub fn other(&self, me: RouterId) -> RouterId {
        if me == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// The import policy `me` applies to routes from the other side.
    pub fn import_for(&self, me: RouterId) -> &ImportPolicy {
        if me == self.a {
            &self.a_import
        } else {
            &self.b_import
        }
    }

    /// The export policy `me` applies toward the other side.
    pub fn export_for(&self, me: RouterId) -> &ExportPolicy {
        if me == self.a {
            &self.a_export
        } else {
            &self.b_export
        }
    }

    /// The neighbor kind from `me`'s perspective (`None` on iBGP).
    pub fn neighbor_kind_for(&self, me: RouterId) -> Option<RouteSource> {
        if me == self.a {
            self.a_view_of_b
        } else {
            self.b_view_of_a
        }
    }

    /// True for eBGP sessions.
    pub fn is_ebgp(&self) -> bool {
        self.kind == SessionKind::Ebgp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::Asn;

    fn rid(asn: u32, idx: u16) -> RouterId {
        RouterId { asn: Asn(asn), index: idx }
    }

    fn session() -> Session {
        Session {
            id: SessionId(0),
            kind: SessionKind::Ebgp,
            a: rid(1, 0),
            b: rid(2, 0),
            a_import: ImportPolicy { local_pref: Some(300), ..Default::default() },
            a_export: ExportPolicy::default(),
            b_import: ImportPolicy { local_pref: Some(100), ..Default::default() },
            b_export: ExportPolicy::default(),
            a_view_of_b: Some(RouteSource::Customer),
            b_view_of_a: Some(RouteSource::Provider),
            delay: SimDuration::from_millis(2),
            up: true,
        }
    }

    #[test]
    fn endpoint_resolution() {
        let s = session();
        assert_eq!(s.other(rid(1, 0)), rid(2, 0));
        assert_eq!(s.other(rid(2, 0)), rid(1, 0));
    }

    #[test]
    fn per_direction_policies() {
        let s = session();
        assert_eq!(s.import_for(rid(1, 0)).local_pref, Some(300));
        assert_eq!(s.import_for(rid(2, 0)).local_pref, Some(100));
        assert_eq!(s.neighbor_kind_for(rid(1, 0)), Some(RouteSource::Customer));
        assert_eq!(s.neighbor_kind_for(rid(2, 0)), Some(RouteSource::Provider));
    }
}
