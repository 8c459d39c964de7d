//! BGP path attributes.
//!
//! [`PathAttributes`] bundles the attributes the paper's analysis and the
//! simulator's decision process care about. It derives `PartialEq`, so
//! "anything changed?" is `!=`; the classifier refines that into the paper's
//! per-attribute questions (path? communities? MED?).

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

use crate::as_path::AsPath;
use crate::asn::Asn;
use crate::community_set::CommunitySet;

// Every retained announcement is one of these behind an `Arc`.
const _: () = assert!(std::mem::size_of::<PathAttributes>() <= 96);

/// The ORIGIN attribute (RFC 4271 §4.3 / §5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Origin {
    /// Learned from an IGP — preferred by the decision process.
    #[default]
    Igp,
    /// Learned from EGP (historic).
    Egp,
    /// Unknown provenance.
    Incomplete,
}

impl Origin {
    /// Wire value (0/1/2).
    pub const fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// From wire value.
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        })
    }
}

/// The AGGREGATOR attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aggregator {
    /// The aggregating AS.
    pub asn: Asn,
    /// The aggregating router's id.
    pub router_id: Ipv4Addr,
}

/// The set of path attributes carried by an announcement.
///
/// `local_pref` is only meaningful on iBGP sessions and is excluded from
/// eBGP wire encoding; `med` is optional and, per the paper, a possible
/// cause of `nn` announcements that must be checked before blaming
/// communities.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// ORIGIN (mandatory).
    pub origin: Origin,
    /// AS_PATH (mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP (mandatory for IPv4 unicast).
    pub next_hop: IpAddr,
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub med: Option<u32>,
    /// LOCAL_PREF (iBGP only).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE flag.
    pub atomic_aggregate: bool,
    /// AGGREGATOR.
    pub aggregator: Option<Aggregator>,
    /// The community attribute (all three families).
    pub communities: CommunitySet,
}

impl Default for PathAttributes {
    fn default() -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: CommunitySet::new(),
        }
    }
}

impl PathAttributes {
    /// Attributes for a route as announced by its origin AS.
    pub fn originated(next_hop: IpAddr) -> Self {
        PathAttributes { next_hop, ..Default::default() }
    }

    /// Resident bytes of one owned attribute set: the struct itself plus
    /// every heap allocation it holds — the AS path's and the classic
    /// communities' exact-size allocations, and the box of extended and
    /// large communities when either family is present. The honest input
    /// to the pipeline's constant-memory accounting.
    pub fn deep_footprint(&self) -> usize {
        std::mem::size_of::<Self>() + self.as_path.heap_bytes() + self.communities.heap_bytes()
    }

    /// True if the attributes differ *only* in MED — the paper acknowledges
    /// MED changes as an alternative `nn` explanation at the wire level
    /// (MED is non-transitive and may be stripped before the collector).
    pub fn differs_only_in_med(&self, other: &PathAttributes) -> bool {
        self.med != other.med
            && self.origin == other.origin
            && self.as_path == other.as_path
            && self.next_hop == other.next_hop
            && self.local_pref == other.local_pref
            && self.atomic_aggregate == other.atomic_aggregate
            && self.aggregator == other.aggregator
            && self.communities == other.communities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::Community;

    fn base() -> PathAttributes {
        PathAttributes {
            as_path: "20205 3356 174 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        }
    }

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn origin_ordering_prefers_igp() {
        // Decision process: lower origin code wins.
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn med_only_difference() {
        let a = base();
        let mut b = base();
        b.med = Some(50);
        assert!(a.differs_only_in_med(&b));
        b.communities.insert(Community::from_parts(1, 1));
        assert!(!a.differs_only_in_med(&b));
    }

    #[test]
    fn default_is_empty_route() {
        let d = PathAttributes::default();
        assert!(d.as_path.is_empty());
        assert!(d.communities.is_empty());
        assert_eq!(d.origin, Origin::Igp);
    }
}
