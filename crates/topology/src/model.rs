//! The topology data model: ASes, routers, edges.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use kcc_bgp_types::{Asn, GeoTag, Prefix};

use crate::behavior::CommunityBehavior;
use crate::igp::IgpMap;
use crate::relationship::{Relationship, RouteSource};

/// The hierarchy tier of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Settlement-free core (full clique among themselves).
    Tier1,
    /// Regional/national transit.
    Transit,
    /// Edge network with no customers.
    Stub,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Tier1 => "tier1",
            Tier::Transit => "transit",
            Tier::Stub => "stub",
        })
    }
}

/// Globally unique router identity: AS plus router index within the AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId {
    /// Owning AS.
    pub asn: Asn,
    /// Index within the AS (0-based).
    pub index: u16,
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}r{}", self.asn, self.index)
    }
}

/// One router of an AS.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSpec {
    /// Index within the AS.
    pub index: u16,
    /// Physical location (drives geo-tagging on routes entering here).
    pub location: GeoTag,
}

/// One AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy tier.
    pub tier: Tier,
    /// The AS's routers (border + internal). iBGP is full mesh.
    pub routers: Vec<RouterSpec>,
    /// Community handling behavior.
    pub behavior: CommunityBehavior,
    /// Prefixes this AS originates.
    pub prefixes: Vec<Prefix>,
    /// Intra-AS IGP costs between routers.
    pub igp: IgpMap,
    /// True for IXP route-server ASes, which do not insert their own ASN
    /// into announcements (the data-cleaning stage re-inserts it).
    pub route_server: bool,
}

impl AsNode {
    /// A single-router stub-style node; callers adjust fields as needed.
    pub fn simple(asn: Asn, tier: Tier, location: GeoTag) -> Self {
        AsNode {
            asn,
            tier,
            routers: vec![RouterSpec { index: 0, location }],
            behavior: CommunityBehavior::default(),
            prefixes: Vec::new(),
            igp: IgpMap::ring(1),
            route_server: false,
        }
    }

    /// IGP cost between two of this AS's routers.
    pub fn igp_cost(&self, i: u16, j: u16) -> u32 {
        self.igp.cost(i, j)
    }

    /// A deterministic, unique loopback/identifier address for a router.
    ///
    /// 16-bit ASNs map into `10.0.0.0/8`; 32-bit ASNs map into the
    /// class-E `240.0.0.0/4` plane, which the low mapping can never
    /// produce, so the two schemes are collision-free against each other.
    /// The high plane packs `(asn - 65536) * 32 + index` into 28 bits:
    /// unique for up to ~8.4M 32-bit ASNs with up to 32 routers each,
    /// far beyond what the internet-scale generator allocates.
    pub fn router_ip(&self, index: u16) -> Ipv4Addr {
        let a = self.asn.value();
        if a < 0x1_0000 {
            Ipv4Addr::new(
                10,
                ((a >> 8) & 0xFF) as u8,
                (a & 0xFF) as u8,
                (index as u8).wrapping_add(1),
            )
        } else {
            let flat = (a - 0x1_0000) * 32 + u32::from(index % 32);
            Ipv4Addr::new(
                240 + ((flat >> 24) & 0x0F) as u8,
                ((flat >> 16) & 0xFF) as u8,
                ((flat >> 8) & 0xFF) as u8,
                (flat & 0xFF) as u8,
            )
        }
    }

    /// The [`RouterId`] of router `index`.
    pub fn router_id(&self, index: u16) -> RouterId {
        RouterId { asn: self.asn, index }
    }
}

/// One inter-AS link. `a`/`b` order is canonical for the relationship:
/// in a customer-provider edge, `a` is the customer.
///
/// Each edge attaches to a specific router on both sides, so two ASes can
/// interconnect at several cities — the paper's update streams let an
/// observer *count* those interconnections, which is exactly the
/// information-leak implication §7 discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsEdge {
    /// First endpoint (the customer in c2p edges).
    pub a: Asn,
    /// Second endpoint (the provider in c2p edges).
    pub b: Asn,
    /// Business relationship.
    pub rel: Relationship,
    /// Attachment router on side `a`.
    pub a_router: u16,
    /// Attachment router on side `b`.
    pub b_router: u16,
}

impl AsEdge {
    /// The kind of neighbor `other` is *from `asn`'s point of view* on
    /// this edge, or `None` if `asn` is not an endpoint.
    pub fn neighbor_kind(&self, asn: Asn) -> Option<RouteSource> {
        match self.rel {
            Relationship::PeerPeer => {
                if asn == self.a || asn == self.b {
                    Some(RouteSource::Peer)
                } else {
                    None
                }
            }
            Relationship::CustomerProvider => {
                if asn == self.a {
                    Some(RouteSource::Provider) // a's neighbor is its provider
                } else if asn == self.b {
                    Some(RouteSource::Customer) // b's neighbor is its customer
                } else {
                    None
                }
            }
        }
    }

    /// The other endpoint, or `None` if `asn` is not an endpoint.
    pub fn other(&self, asn: Asn) -> Option<Asn> {
        if asn == self.a {
            Some(self.b)
        } else if asn == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A complete AS-level topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: BTreeMap<Asn, AsNode>,
    edges: Vec<AsEdge>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an AS. Replaces any previous node with the same ASN.
    pub fn add_node(&mut self, node: AsNode) {
        self.nodes.insert(node.asn, node);
    }

    /// Adds an edge. Panics if either endpoint AS or attachment router is
    /// missing — topology construction bugs should fail fast.
    pub fn add_edge(&mut self, edge: AsEdge) {
        let a = self.nodes.get(&edge.a).expect("edge endpoint a must exist");
        let b = self.nodes.get(&edge.b).expect("edge endpoint b must exist");
        assert!((edge.a_router as usize) < a.routers.len(), "attachment router on a out of range");
        assert!((edge.b_router as usize) < b.routers.len(), "attachment router on b out of range");
        self.edges.push(edge);
    }

    /// The node for `asn`.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.nodes.get(&asn)
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, asn: Asn) -> Option<&mut AsNode> {
        self.nodes.get_mut(&asn)
    }

    /// All nodes in ASN order.
    pub fn nodes(&self) -> impl Iterator<Item = &AsNode> {
        self.nodes.values()
    }

    /// Number of ASes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[AsEdge] {
        &self.edges
    }

    /// Edges incident to `asn`.
    pub fn edges_of(&self, asn: Asn) -> impl Iterator<Item = &AsEdge> {
        self.edges.iter().filter(move |e| e.a == asn || e.b == asn)
    }

    /// Distinct neighbor ASes of `asn`.
    pub fn neighbors(&self, asn: Asn) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.edges_of(asn).filter_map(|e| e.other(asn)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of parallel interconnections between two ASes.
    pub fn interconnection_count(&self, a: Asn, b: Asn) -> usize {
        self.edges.iter().filter(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a)).count()
    }

    /// The relationship of `neighbor` from `asn`'s point of view (first
    /// matching edge; parallel edges share one relationship by
    /// construction).
    pub fn neighbor_kind(&self, asn: Asn, neighbor: Asn) -> Option<RouteSource> {
        self.edges_of(asn)
            .find(|e| e.other(asn) == Some(neighbor))
            .and_then(|e| e.neighbor_kind(asn))
    }

    /// Every prefix originated anywhere, with its origin.
    pub fn all_prefixes(&self) -> Vec<(Asn, Prefix)> {
        let mut v = Vec::new();
        for n in self.nodes.values() {
            for p in &n.prefixes {
                v.push((n.asn, *p));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> GeoTag {
        GeoTag::new(4, 1, 1)
    }

    fn small_topology() -> Topology {
        let mut t = Topology::new();
        let mut transit = AsNode::simple(Asn(3356), Tier::Transit, tag());
        transit.routers.push(RouterSpec { index: 1, location: GeoTag::new(5, 2, 2) });
        transit.igp = IgpMap::ring(2);
        t.add_node(transit);
        let mut stub = AsNode::simple(Asn(12654), Tier::Stub, tag());
        stub.prefixes.push("84.205.64.0/24".parse().unwrap());
        t.add_node(stub);
        t.add_node(AsNode::simple(Asn(20205), Tier::Transit, tag()));
        // 12654 is customer of 3356 (two parallel links), 20205 peers with 3356.
        t.add_edge(AsEdge {
            a: Asn(12_654),
            b: Asn(3356),
            rel: Relationship::CustomerProvider,
            a_router: 0,
            b_router: 0,
        });
        t.add_edge(AsEdge {
            a: Asn(12_654),
            b: Asn(3356),
            rel: Relationship::CustomerProvider,
            a_router: 0,
            b_router: 1,
        });
        t.add_edge(AsEdge {
            a: Asn(20_205),
            b: Asn(3356),
            rel: Relationship::PeerPeer,
            a_router: 0,
            b_router: 0,
        });
        t
    }

    #[test]
    fn neighbor_kinds_from_both_sides() {
        let t = small_topology();
        assert_eq!(t.neighbor_kind(Asn(12_654), Asn(3356)), Some(RouteSource::Provider));
        assert_eq!(t.neighbor_kind(Asn(3356), Asn(12_654)), Some(RouteSource::Customer));
        assert_eq!(t.neighbor_kind(Asn(20_205), Asn(3356)), Some(RouteSource::Peer));
        assert_eq!(t.neighbor_kind(Asn(3356), Asn(20_205)), Some(RouteSource::Peer));
        assert_eq!(t.neighbor_kind(Asn(3356), Asn(999)), None);
    }

    #[test]
    fn interconnection_counting() {
        let t = small_topology();
        assert_eq!(t.interconnection_count(Asn(12_654), Asn(3356)), 2);
        assert_eq!(t.interconnection_count(Asn(3356), Asn(12_654)), 2);
        assert_eq!(t.interconnection_count(Asn(20_205), Asn(12_654)), 0);
    }

    #[test]
    fn neighbors_deduped() {
        let t = small_topology();
        assert_eq!(t.neighbors(Asn(3356)), vec![Asn(12_654), Asn(20_205)]);
    }

    #[test]
    fn all_prefixes_lists_origins() {
        let t = small_topology();
        let all = t.all_prefixes();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, Asn(12_654));
    }

    #[test]
    fn router_ip_unique_per_router() {
        let t = small_topology();
        let n = t.node(Asn(3356)).unwrap();
        assert_ne!(n.router_ip(0), n.router_ip(1));
        let m = t.node(Asn(12_654)).unwrap();
        assert_ne!(n.router_ip(0), m.router_ip(0));
    }

    #[test]
    fn router_ip_32bit_plane_disjoint_and_unique() {
        // 32-bit ASNs land in 240/4, which the 16-bit mapping (10/8)
        // never produces; neighbors in the dense allocation don't collide.
        let mut seen = std::collections::BTreeSet::new();
        for asn in [131_072u32, 131_073, 131_074, 200_000, 206_071] {
            let node = AsNode::simple(Asn(asn), Tier::Stub, tag());
            for index in [0u16, 1, 31] {
                let ip = node.router_ip(index);
                assert!(ip.octets()[0] >= 240, "AS{asn} must map into 240/4, got {ip}");
                assert!(seen.insert(ip), "collision at AS{asn} router {index}: {ip}");
            }
        }
        // And the low plane stays where it was.
        let low = AsNode::simple(Asn(65_535), Tier::Stub, tag());
        assert_eq!(low.router_ip(0).octets()[0], 10);
    }

    #[test]
    #[should_panic(expected = "edge endpoint a must exist")]
    fn edge_to_missing_node_panics() {
        let mut t = Topology::new();
        t.add_node(AsNode::simple(Asn(1), Tier::Stub, tag()));
        t.add_edge(AsEdge {
            a: Asn(99),
            b: Asn(1),
            rel: Relationship::PeerPeer,
            a_router: 0,
            b_router: 0,
        });
    }

    #[test]
    #[should_panic(expected = "attachment router on a out of range")]
    fn edge_to_missing_router_panics() {
        let mut t = Topology::new();
        t.add_node(AsNode::simple(Asn(1), Tier::Stub, tag()));
        t.add_node(AsNode::simple(Asn(2), Tier::Stub, tag()));
        t.add_edge(AsEdge {
            a: Asn(1),
            b: Asn(2),
            rel: Relationship::PeerPeer,
            a_router: 5,
            b_router: 0,
        });
    }
}
