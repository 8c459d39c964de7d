//! Gao–Rexford business relationships and the valley-free export rule.

use std::fmt;

/// The business relationship on an AS-level edge, read from the edge's
/// canonical direction: in a [`Relationship::CustomerProvider`] edge
/// `(a, b)`, `a` is the customer and `b` the provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `a` buys transit from `b`.
    CustomerProvider,
    /// Settlement-free peering.
    PeerPeer,
}

impl fmt::Display for Relationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relationship::CustomerProvider => "c2p",
            Relationship::PeerPeer => "p2p",
        })
    }
}

/// Where a route came from, as seen by the AS applying export policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteSource {
    /// The AS originates the prefix itself.
    Originated,
    /// Learned from a customer.
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// Relationship of the neighbor a route would be exported *to*.
pub(crate) type NeighborKind = RouteSource; // Customer/Peer/Provider reused

impl RouteSource {
    /// Local preference conventionally assigned per Gao–Rexford:
    /// customer routes are most profitable, providers least.
    pub fn conventional_local_pref(self) -> u32 {
        match self {
            RouteSource::Originated => 400,
            RouteSource::Customer => 300,
            RouteSource::Peer => 200,
            RouteSource::Provider => 100,
        }
    }
}

/// The valley-free export rule: routes learned from customers (or
/// originated locally) are exported to everyone; routes learned from peers
/// or providers are exported only to customers.
pub fn may_export(source: RouteSource, to: NeighborKind) -> bool {
    match source {
        RouteSource::Originated | RouteSource::Customer => true,
        RouteSource::Peer | RouteSource::Provider => to == RouteSource::Customer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_routes_export_everywhere() {
        for to in [RouteSource::Customer, RouteSource::Peer, RouteSource::Provider] {
            assert!(may_export(RouteSource::Customer, to));
            assert!(may_export(RouteSource::Originated, to));
        }
    }

    #[test]
    fn peer_and_provider_routes_only_to_customers() {
        for src in [RouteSource::Peer, RouteSource::Provider] {
            assert!(may_export(src, RouteSource::Customer));
            assert!(!may_export(src, RouteSource::Peer));
            assert!(!may_export(src, RouteSource::Provider));
        }
    }

    #[test]
    fn local_pref_ordering() {
        assert!(
            RouteSource::Originated.conventional_local_pref()
                > RouteSource::Customer.conventional_local_pref()
        );
        assert!(
            RouteSource::Customer.conventional_local_pref()
                > RouteSource::Peer.conventional_local_pref()
        );
        assert!(
            RouteSource::Peer.conventional_local_pref()
                > RouteSource::Provider.conventional_local_pref()
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Relationship::CustomerProvider.to_string(), "c2p");
        assert_eq!(Relationship::PeerPeer.to_string(), "p2p");
    }
}
