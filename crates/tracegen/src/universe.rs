//! The generated measurement universe: collectors, peers, transits,
//! origins, prefixes.

use std::net::{IpAddr, Ipv4Addr};

use kcc_bgp_types::{Asn, Prefix};
use kcc_collector::SessionKey;
use rand::prelude::*;
use rand::rngs::StdRng;

/// One collector peer with its sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerSpec {
    /// The peer's ASN.
    pub asn: Asn,
    /// Sessions this peer maintains (possibly at several collectors).
    pub sessions: Vec<SessionKey>,
    /// True if the peer strips all communities before exporting to the
    /// collector (the class-B behavior behind `nn` streams).
    pub cleans_egress: bool,
    /// True for IXP route servers that omit their own ASN from paths.
    pub route_server: bool,
}

/// One transit AS that may geo-tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitSpec {
    /// The transit's ASN (16-bit by construction).
    pub asn: Asn,
    /// True if it tags ingress geolocation communities.
    pub tags_geo: bool,
    /// The pool of city ids its border routers sit in.
    pub cities: Vec<u16>,
}

/// One origin prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSpec {
    /// The prefix.
    pub prefix: Prefix,
    /// The originating AS.
    pub origin: Asn,
}

/// The whole universe.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    /// Collector names (`rrc00`…, `route-views…`).
    pub collectors: Vec<String>,
    /// Peers with their sessions.
    pub peers: Vec<PeerSpec>,
    /// Transit ASes.
    pub transits: Vec<TransitSpec>,
    /// Origin ASes (distinct from transits).
    pub origins: Vec<Asn>,
    /// Prefixes.
    pub prefixes: Vec<PrefixSpec>,
}

/// Universe shape parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct UniverseConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of collectors.
    pub n_collectors: usize,
    /// Number of distinct peer ASes.
    pub n_peers: usize,
    /// Target number of sessions (≥ peers; extras are additional sessions
    /// of randomly chosen peers, as in the real collector systems).
    pub n_sessions: usize,
    /// Number of transit ASes.
    pub n_transits: usize,
    /// Number of origin ASes.
    pub n_origins: usize,
    /// Number of IPv4 prefixes.
    pub n_prefixes_v4: usize,
    /// Number of IPv6 prefixes.
    pub n_prefixes_v6: usize,
    /// Probability a collector records second-granularity timestamps.
    pub second_granularity_prob: f64,
    /// Cities per tagging transit.
    pub cities_per_transit: (u16, u16),
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 42,
            n_collectors: 8,
            n_peers: 58,
            n_sessions: 150,
            n_transits: 40,
            n_origins: 300,
            n_prefixes_v4: 2_000,
            n_prefixes_v6: 200,
            second_granularity_prob: 0.25,
            cities_per_transit: (4, 24),
        }
    }
}

/// Probability a transit geo-tags.
const TRANSIT_TAGS_PROB: f64 = 0.55;
/// Probability a peer cleans communities on egress. The ledger's fig2
/// cause (`crates/bench/src/artifacts.rs`) quotes this value as
/// `peer_cleans_prob` 0.18.
const PEER_CLEANS_PROB: f64 = 0.18;
/// Probability a peer is a route server.
const ROUTE_SERVER_PROB: f64 = 0.08;

/// Which collectors record second-granularity timestamps (index-aligned
/// with `Universe::collectors`).
#[derive(Debug, Clone, Default)]
pub struct CollectorTraits {
    /// Per-collector second-granularity flag.
    pub second_granularity: Vec<bool>,
}

/// Builds a universe and the per-collector traits.
pub fn build_universe(cfg: &UniverseConfig) -> (Universe, CollectorTraits) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut u = Universe::default();

    for i in 0..cfg.n_collectors {
        u.collectors.push(if i < 16 {
            format!("rrc{i:02}")
        } else {
            format!("route-views{}", i - 15)
        });
    }
    let traits = CollectorTraits {
        second_granularity: (0..cfg.n_collectors)
            .map(|_| rng.gen_bool(cfg.second_granularity_prob))
            .collect(),
    };

    // Transit ASes: 16-bit, from the "famous transit" range upward.
    for i in 0..cfg.n_transits {
        let asn = Asn(2_000 + i as u32 * 7 % 30_000);
        let tags_geo = rng.gen_bool(TRANSIT_TAGS_PROB);
        let n_cities = rng.gen_range(
            cfg.cities_per_transit.0..=cfg.cities_per_transit.1.max(cfg.cities_per_transit.0),
        );
        let cities = (0..n_cities).map(|_| rng.gen_range(0..3_500)).collect();
        u.transits.push(TransitSpec { asn, tags_geo, cities });
    }

    // Peers: distinct ASNs, then distribute sessions.
    for i in 0..cfg.n_peers {
        u.peers.push(PeerSpec {
            asn: Asn(20_100 + i as u32),
            sessions: Vec::new(),
            cleans_egress: rng.gen_bool(PEER_CLEANS_PROB),
            route_server: rng.gen_bool(ROUTE_SERVER_PROB),
        });
    }
    for s in 0..cfg.n_sessions {
        let peer_idx = if s < cfg.n_peers { s } else { rng.gen_range(0..cfg.n_peers) };
        let collector = u.collectors[rng.gen_range(0..u.collectors.len())].clone();
        // The session ordinal keys a unique address per session.
        let serial = s as u32;
        let ip = IpAddr::V4(Ipv4Addr::new(
            192,
            ((serial >> 8) & 0xFF) as u8,
            (serial & 0xFF) as u8,
            (peer_idx % 250) as u8 + 1,
        ));
        let asn = u.peers[peer_idx].asn;
        u.peers[peer_idx].sessions.push(SessionKey::new(&collector, asn, ip));
    }

    // Origins and prefixes.
    for i in 0..cfg.n_origins {
        u.origins.push(Asn(50_000 + i as u32 % 14_000));
    }
    for i in 0..cfg.n_prefixes_v4 {
        let origin = u.origins[i % u.origins.len()];
        let a = (i / 65_536) as u8 + 1;
        let b = ((i / 256) % 256) as u8;
        let c = (i % 256) as u8;
        u.prefixes.push(PrefixSpec { prefix: Prefix::v4_unchecked(a, b, c, 0, 24), origin });
    }
    for i in 0..cfg.n_prefixes_v6 {
        let origin = u.origins[(i * 7) % u.origins.len()];
        let prefix: Prefix =
            format!("2001:db8:{:x}::/48", i & 0xFFFF).parse().expect("generated v6 prefix");
        u.prefixes.push(PrefixSpec { prefix, origin });
    }

    (u, traits)
}

impl Universe {
    /// The position of collector `name` in the universe's list.
    pub fn collector_index(&self, name: &str) -> Option<usize> {
        self.collectors.iter().position(|c| c == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = UniverseConfig::default();
        let (a, ta) = build_universe(&cfg);
        let (b, tb) = build_universe(&cfg);
        assert_eq!(a.peers, b.peers);
        assert_eq!(a.prefixes, b.prefixes);
        assert_eq!(ta.second_granularity, tb.second_granularity);
    }

    #[test]
    fn session_and_peer_counts() {
        let cfg = UniverseConfig::default();
        let (u, _) = build_universe(&cfg);
        assert_eq!(u.peers.len(), cfg.n_peers);
        let total_sessions: usize = u.peers.iter().map(|p| p.sessions.len()).sum();
        assert_eq!(total_sessions, cfg.n_sessions);
        // Every peer has at least one session.
        assert!(u.peers.iter().all(|p| !p.sessions.is_empty()));
    }

    #[test]
    fn session_keys_unique() {
        let (u, _) = build_universe(&UniverseConfig::default());
        let mut keys: Vec<&SessionKey> = u.peers.iter().flat_map(|p| &p.sessions).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn prefix_counts_and_families() {
        let cfg = UniverseConfig::default();
        let (u, _) = build_universe(&cfg);
        let v4 = u.prefixes.iter().filter(|p| p.prefix.is_ipv4()).count();
        let v6 = u.prefixes.iter().filter(|p| p.prefix.is_ipv6()).count();
        assert_eq!(v4, cfg.n_prefixes_v4);
        assert_eq!(v6, cfg.n_prefixes_v6);
    }

    #[test]
    fn some_transits_tag() {
        let (u, _) = build_universe(&UniverseConfig::default());
        let taggers = u.transits.iter().filter(|t| t.tags_geo).count();
        assert!(taggers > 0 && taggers < u.transits.len());
        for t in u.transits.iter().filter(|t| t.tags_geo) {
            assert!(!t.cities.is_empty());
        }
    }

    #[test]
    fn behavior_mix_present() {
        let (u, _) = build_universe(&UniverseConfig::default());
        assert!(u.peers.iter().any(|p| p.cleans_egress));
        assert!(u.peers.iter().any(|p| !p.cleans_egress));
    }
}
