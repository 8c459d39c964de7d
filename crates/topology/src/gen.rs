//! Seeded hierarchical topology generation.
//!
//! The generator builds a three-tier Internet: a tier-1 clique, transit
//! ASes that buy from tier-1s (and peer among themselves), and stub ASes
//! that buy from transits. Multi-homing and *parallel* interconnections at
//! different cities are generated deliberately — they are what gives
//! community exploration room to happen.

use std::ops::RangeInclusive;

use kcc_bgp_types::{Asn, GeoTag, Prefix};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::behavior::{BehaviorMix, CommunityBehavior};
use crate::igp::IgpMap;
use crate::model::{AsEdge, AsNode, RouterSpec, Tier, Topology};
use crate::relationship::Relationship;

/// The RIPE RIS beacon origin AS, reserved for beacon-hosting topologies.
pub const BEACON_ORIGIN_ASN: Asn = Asn(12_654);

/// Famous tier-1 ASNs used for the first few generated tier-1 nodes, so
/// simulated paths read like the paper's examples (`3356 174 ...`).
const TIER1_POOL: [u32; 8] = [3356, 174, 1299, 2914, 6939, 3257, 6453, 701];

/// Generator configuration. All fields have sensible defaults; ranges are
/// inclusive `(lo, hi)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// RNG seed; equal seeds give equal topologies.
    pub seed: u64,
    /// Number of tier-1 ASes (full P2P clique).
    pub n_tier1: usize,
    /// Number of transit ASes.
    pub n_transit: usize,
    /// Number of stub ASes.
    pub n_stub: usize,
    /// Router count range for transit ASes.
    pub routers_transit: (u16, u16),
    /// Probability that two transit ASes peer.
    pub transit_peering_prob: f64,
    /// Probability that a customer-provider pair gets a second, parallel
    /// link at a different city.
    pub parallel_link_prob: f64,
    /// Fraction of stub prefixes that are IPv6.
    pub ipv6_share: f64,
    /// Community behavior mix.
    pub behavior_mix: BehaviorMix,
    /// If true, adds the beacon origin AS12654 (customer of two transits)
    /// hosting the RIPE-style beacon prefixes supplied by the caller.
    pub with_beacon_origin: bool,
    /// Beacon prefixes to originate from AS12654.
    pub beacon_prefixes: Vec<Prefix>,
}

impl TopologyConfig {
    /// A configuration scaled to approximately `n_ases` total ASes,
    /// keeping the default tier ratios (roughly 1 tier-1 : 4 transit :
    /// 15 stub). Sweeps use this to turn "topology size" into a single
    /// scalar dimension; at least two transits are always generated so a
    /// collector and the beacon origin have distinct attachment points.
    pub fn sized(n_ases: usize, seed: u64) -> Self {
        let n_tier1 = (n_ases / 20).clamp(2, 8);
        let n_transit = (n_ases / 5).max(2);
        let n_stub = n_ases.saturating_sub(n_tier1 + n_transit).max(1);
        TopologyConfig { seed, n_tier1, n_transit, n_stub, ..Default::default() }
    }

    /// Replaces the community behavior mix (builder style).
    pub fn with_behavior_mix(mut self, mix: BehaviorMix) -> Self {
        self.behavior_mix = mix;
        self
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 42,
            n_tier1: 4,
            n_transit: 16,
            n_stub: 60,
            routers_transit: (2, 4),
            transit_peering_prob: 0.25,
            parallel_link_prob: 0.35,
            ipv6_share: 0.12,
            behavior_mix: BehaviorMix::default(),
            with_beacon_origin: true,
            beacon_prefixes: vec!["84.205.64.0/24".parse().expect("literal prefix")],
        }
    }
}

/// Router count range for [`generate`]'s tier-1 ASes.
const ROUTERS_TIER1: (u16, u16) = (3, 6);
/// Providers per transit AS in [`generate`].
const PROVIDERS_PER_TRANSIT: RangeInclusive<usize> = 1..=2;
/// Providers per stub AS in [`generate`].
const PROVIDERS_PER_STUB: RangeInclusive<usize> = 1..=3;
/// Prefixes originated per stub in [`generate`].
const PREFIXES_PER_STUB: RangeInclusive<usize> = 1..=3;

fn range_sample(rng: &mut StdRng, (lo, hi): (u16, u16)) -> u16 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Continents weighted toward EU (4) and NA (5), matching where collector
/// peers concentrate.
fn random_continent(rng: &mut StdRng) -> u8 {
    const WEIGHTED: [u8; 10] = [4, 4, 4, 5, 5, 5, 3, 2, 6, 7];
    WEIGHTED[rng.gen_range(0..WEIGHTED.len())]
}

fn random_location(rng: &mut StdRng, continent: u8) -> GeoTag {
    // Countries are blocked per continent (50 ids each); cities per country.
    let country = (continent as u16 - 1) * 50 + rng.gen_range(0u16..50);
    let city = country * 8 + rng.gen_range(0u16..8);
    GeoTag::new(continent, country, city)
}

fn make_routers(rng: &mut StdRng, n: u16, home: u8, spread: bool) -> Vec<RouterSpec> {
    (0..n)
        .map(|index| {
            let continent =
                if spread && index > 0 && rng.gen_bool(0.5) { random_continent(rng) } else { home };
            RouterSpec { index, location: random_location(rng, continent) }
        })
        .collect()
}

fn assign_behavior(rng: &mut StdRng, tier: Tier, mix: &BehaviorMix) -> CommunityBehavior {
    let tags_geo = match tier {
        Tier::Tier1 | Tier::Transit => rng.gen_bool(mix.transit_tags_geo),
        Tier::Stub => false,
    };
    // Cleaning direction is exclusive: an AS that cleans picks one place.
    // Both bools are always drawn so that RNG consumption (and therefore
    // the rest of the generated topology) is independent of the mix —
    // ablations can vary the mix without confounding the comparison.
    let ingress_roll = rng.gen_bool(mix.cleans_ingress);
    let egress_roll = rng.gen_bool(mix.cleans_egress);
    let cleans_ingress = ingress_roll;
    let cleans_egress = !ingress_roll && egress_roll;
    CommunityBehavior { tags_geo, cleans_egress, cleans_ingress }
}

/// Allocates the `i`-th stub's `k`-th prefix deterministically.
fn stub_prefix(i: usize, k: usize, v6: bool) -> Prefix {
    if v6 {
        let site = (i as u32) * 8 + k as u32;
        format!("2001:db8:{:x}::/48", site & 0xFFFF).parse().expect("generated v6 prefix")
    } else {
        // Each stub owns 1.(i).0.0/16 carved into /24s; i stays < 256 by
        // construction (the generator caps n_stub accordingly).
        let hi = 1 + (i / 250) as u8;
        let mid = (i % 250) as u8;
        Prefix::v4_unchecked(hi, mid, k as u8, 0, 24)
    }
}

/// Picks a provider by preferential attachment over current degree.
fn pick_preferential(rng: &mut StdRng, candidates: &[Asn], degree: impl Fn(Asn) -> usize) -> Asn {
    let weights: Vec<usize> = candidates.iter().map(|&a| degree(a) + 1).collect();
    let total: usize = weights.iter().sum();
    let mut pick = rng.gen_range(0..total);
    for (asn, w) in candidates.iter().zip(weights) {
        if pick < w {
            return *asn;
        }
        pick -= w;
    }
    *candidates.last().expect("non-empty candidates")
}

/// Generates a topology from the configuration.
pub fn generate(cfg: &TopologyConfig) -> Topology {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut topo = Topology::new();
    let mut tier1_asns = Vec::with_capacity(cfg.n_tier1);
    let mut transit_asns = Vec::with_capacity(cfg.n_transit);

    // Tier-1 clique.
    for i in 0..cfg.n_tier1 {
        let asn = Asn(*TIER1_POOL.get(i).unwrap_or(&(100 + i as u32)));
        let home = random_continent(&mut rng);
        let n_routers = range_sample(&mut rng, ROUTERS_TIER1);
        let routers = make_routers(&mut rng, n_routers, home, true);
        topo.add_node(AsNode {
            asn,
            tier: Tier::Tier1,
            igp: IgpMap::ring(routers.len() as u16),
            routers,
            behavior: assign_behavior(&mut rng, Tier::Tier1, &cfg.behavior_mix),
            prefixes: Vec::new(),
            route_server: false,
        });
        tier1_asns.push(asn);
    }
    for i in 0..tier1_asns.len() {
        for j in i + 1..tier1_asns.len() {
            let (a, b) = (tier1_asns[i], tier1_asns[j]);
            let ar = rng.gen_range(0..topo.node(a).expect("node").routers.len() as u16);
            let br = rng.gen_range(0..topo.node(b).expect("node").routers.len() as u16);
            topo.add_edge(AsEdge { a, b, rel: Relationship::PeerPeer, a_router: ar, b_router: br });
        }
    }

    // Transit ASes.
    for i in 0..cfg.n_transit {
        let asn = Asn(20_000 + i as u32);
        let home = random_continent(&mut rng);
        let n_routers = range_sample(&mut rng, cfg.routers_transit);
        let routers = make_routers(&mut rng, n_routers, home, true);
        topo.add_node(AsNode {
            asn,
            tier: Tier::Transit,
            igp: IgpMap::ring(routers.len() as u16),
            routers,
            behavior: assign_behavior(&mut rng, Tier::Transit, &cfg.behavior_mix),
            prefixes: vec![Prefix::v4_unchecked(60, i as u8, 0, 0, 24)],
            route_server: false,
        });
        transit_asns.push(asn);

        let n_providers = rng.gen_range(PROVIDERS_PER_TRANSIT);
        let mut chosen: Vec<Asn> = Vec::new();
        for _ in 0..n_providers.min(tier1_asns.len()) {
            let degree = |a: Asn| topo.edges_of(a).count();
            let p = pick_preferential(&mut rng, &tier1_asns, degree);
            if chosen.contains(&p) {
                continue;
            }
            chosen.push(p);
            add_cp_links(&mut rng, &mut topo, asn, p, cfg.parallel_link_prob);
        }
    }

    // Transit-transit peering.
    for i in 0..transit_asns.len() {
        for j in i + 1..transit_asns.len() {
            if rng.gen_bool(cfg.transit_peering_prob) {
                let (a, b) = (transit_asns[i], transit_asns[j]);
                let ar = rng.gen_range(0..topo.node(a).expect("node").routers.len() as u16);
                let br = rng.gen_range(0..topo.node(b).expect("node").routers.len() as u16);
                topo.add_edge(AsEdge {
                    a,
                    b,
                    rel: Relationship::PeerPeer,
                    a_router: ar,
                    b_router: br,
                });
            }
        }
    }

    // Stubs.
    for i in 0..cfg.n_stub {
        let asn = Asn(40_000 + i as u32);
        let home = random_continent(&mut rng);
        let n_prefixes = rng.gen_range(PREFIXES_PER_STUB);
        let prefixes =
            (0..n_prefixes).map(|k| stub_prefix(i, k, rng.gen_bool(cfg.ipv6_share))).collect();
        topo.add_node(AsNode {
            asn,
            tier: Tier::Stub,
            routers: vec![RouterSpec { index: 0, location: random_location(&mut rng, home) }],
            igp: IgpMap::ring(1),
            behavior: assign_behavior(&mut rng, Tier::Stub, &cfg.behavior_mix),
            prefixes,
            route_server: false,
        });

        let n_providers = rng.gen_range(PROVIDERS_PER_STUB);
        let mut chosen: Vec<Asn> = Vec::new();
        for _ in 0..n_providers.min(transit_asns.len()) {
            let degree = |a: Asn| topo.edges_of(a).count();
            let p = pick_preferential(&mut rng, &transit_asns, degree);
            if chosen.contains(&p) {
                continue;
            }
            chosen.push(p);
            add_cp_links(&mut rng, &mut topo, asn, p, cfg.parallel_link_prob);
        }
    }

    // Beacon origin: AS12654 with the RIS beacon prefixes, dual-homed to
    // two transits so withdrawals trigger path exploration.
    if cfg.with_beacon_origin && !transit_asns.is_empty() {
        let home = 4; // Europe, like the real RIS beacons
        topo.add_node(AsNode {
            asn: BEACON_ORIGIN_ASN,
            tier: Tier::Stub,
            routers: vec![RouterSpec { index: 0, location: random_location(&mut rng, home) }],
            igp: IgpMap::ring(1),
            behavior: CommunityBehavior::BLIND_PROPAGATOR,
            prefixes: cfg.beacon_prefixes.clone(),
            route_server: false,
        });
        let first = transit_asns[0];
        add_cp_links(&mut rng, &mut topo, BEACON_ORIGIN_ASN, first, 1.0);
        if transit_asns.len() > 1 {
            let second = transit_asns[1];
            add_cp_links(&mut rng, &mut topo, BEACON_ORIGIN_ASN, second, 0.0);
        }
    }

    topo
}

/// Internet-scale generator configuration (see [`generate_internet`]).
///
/// Unlike [`TopologyConfig`]'s dense three-tier lab, this builds a sparse
/// power-law AS graph: a tier-1 clique at the core, a transit hierarchy
/// grown by preferential attachment (rich ISPs attract more customers), a
/// degree-weighted peering mesh among transits, and single-router stub
/// leaves numbered from the 32-bit ASN space. Every edge carries a
/// [`Relationship`] annotation, from which `Network::from_topology`
/// derives Gao–Rexford import local-prefs and valley-free export filters.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetConfig {
    /// RNG seed; equal seeds give equal topologies.
    pub seed: u64,
    /// Total AS count (tier-1 + transit + stub). The beacon origin is
    /// added on top when `with_beacon_origin` is set.
    pub n_ases: usize,
    /// Community behavior mix.
    pub behavior_mix: BehaviorMix,
    /// If true, adds beacon origin AS12654 dual-homed to two transits.
    pub with_beacon_origin: bool,
    /// Beacon prefixes originated from AS12654.
    pub beacon_prefixes: Vec<Prefix>,
}

impl InternetConfig {
    /// A configuration targeting approximately `n_ases` total ASes with
    /// the default shape parameters.
    pub fn sized(n_ases: usize, seed: u64) -> Self {
        InternetConfig { seed, n_ases, ..Default::default() }
    }
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            seed: 42,
            n_ases: 10_000,
            behavior_mix: BehaviorMix::default(),
            with_beacon_origin: true,
            beacon_prefixes: vec!["84.205.64.0/24".parse().expect("literal prefix")],
        }
    }
}

/// [`generate_internet`]'s tier-1 clique size.
const INTERNET_TIER1: usize = 8;
/// Fraction of [`generate_internet`]'s ASes that provide transit.
const TRANSIT_SHARE: f64 = 0.15;
/// Multi-homing cap: each internet customer AS buys from
/// 1..=`MAX_PROVIDERS` upstreams.
const MAX_PROVIDERS: usize = 3;
/// Expected peering links per internet transit AS.
const PEERING_PER_TRANSIT: f64 = 1.5;

/// O(1) preferential attachment. A provider occupies one baseline slot
/// plus one slot per customer edge it has attracted, so sampling a
/// uniform slot implements "probability proportional to degree + 1"
/// without the O(edges) weight scan of [`pick_preferential`] — the
/// difference between milliseconds and hours at 75k ASes.
struct AttachmentList {
    slots: Vec<u32>,
}

impl AttachmentList {
    fn new() -> Self {
        AttachmentList { slots: Vec::new() }
    }

    /// Registers candidate `idx` with its baseline slot.
    fn add_candidate(&mut self, idx: u32) {
        self.slots.push(idx);
    }

    /// Records that candidate `idx` attracted one more edge.
    fn record(&mut self, idx: u32) {
        self.slots.push(idx);
    }

    fn pick(&self, rng: &mut StdRng) -> u32 {
        self.slots[rng.gen_range(0..self.slots.len())]
    }
}

/// Allocates the `i`-th internet stub's /24 deterministically: the stub
/// index packed into the middle octets starting at 2.0.0.0/24, disjoint
/// from the lab generator's 1.x.y.0/24 pool.
fn internet_stub_prefix(i: usize) -> Prefix {
    let hi = 2 + (i >> 16) as u8;
    Prefix::v4_unchecked(hi, ((i >> 8) & 0xFF) as u8, (i & 0xFF) as u8, 0, 24)
}

/// First ASN of the 32-bit stub plane (the first real-world 4-byte RIR
/// allocation), exercising the high [`AsNode::router_ip`] address plane.
pub(crate) const INTERNET_STUB_BASE_ASN: u32 = 131_072;

/// Generates an internet-like topology: power-law customer trees under a
/// tier-1 clique, a peering mesh among transits, and an optional beacon
/// origin. Runs in O(ASes + edges); 75k ASes generate in well under a
/// second.
pub fn generate_internet(cfg: &InternetConfig) -> Topology {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut topo = Topology::new();

    let n_transit = (((cfg.n_ases as f64) * TRANSIT_SHARE) as usize).max(2);
    let n_stub = cfg.n_ases.saturating_sub(INTERNET_TIER1 + n_transit);

    // Transit-capable providers in creation order; `upstream` samples
    // over their indexes preferentially.
    let mut providers: Vec<Asn> = Vec::with_capacity(INTERNET_TIER1 + n_transit);
    let mut upstream = AttachmentList::new();

    // Tier-1 clique.
    for i in 0..INTERNET_TIER1 {
        let asn = Asn(*TIER1_POOL.get(i).unwrap_or(&(100 + i as u32)));
        let home = random_continent(&mut rng);
        let routers = make_routers(&mut rng, 3, home, true);
        topo.add_node(AsNode {
            asn,
            tier: Tier::Tier1,
            igp: IgpMap::ring(routers.len() as u16),
            routers,
            behavior: assign_behavior(&mut rng, Tier::Tier1, &cfg.behavior_mix),
            prefixes: Vec::new(),
            route_server: false,
        });
        upstream.add_candidate(providers.len() as u32);
        providers.push(asn);
    }
    for i in 0..INTERNET_TIER1 {
        for j in i + 1..INTERNET_TIER1 {
            let (a, b) = (providers[i], providers[j]);
            let ar = rng.gen_range(0..topo.node(a).expect("node").routers.len() as u16);
            let br = rng.gen_range(0..topo.node(b).expect("node").routers.len() as u16);
            topo.add_edge(AsEdge { a, b, rel: Relationship::PeerPeer, a_router: ar, b_router: br });
        }
    }

    // Transit hierarchy. Each transit buys from ASes created before it
    // (tier-1s and earlier transits), so customer-provider edges form a
    // DAG and preferential attachment yields a power-law degree
    // distribution with hierarchy depth.
    let mut transit_asns: Vec<Asn> = Vec::with_capacity(n_transit);
    let mut peer_slots = AttachmentList::new();
    for i in 0..n_transit {
        // Skip AS_TRANS (23456), which is reserved.
        let v = 20_000 + i as u32;
        let asn = Asn(if v >= 23_456 { v + 1 } else { v });
        let home = random_continent(&mut rng);
        let n_routers = if rng.gen_bool(0.3) { 2 } else { 1 };
        let routers = make_routers(&mut rng, n_routers, home, true);
        topo.add_node(AsNode {
            asn,
            tier: Tier::Transit,
            igp: IgpMap::ring(n_routers),
            routers,
            behavior: assign_behavior(&mut rng, Tier::Transit, &cfg.behavior_mix),
            prefixes: Vec::new(),
            route_server: false,
        });
        attach_customer(&mut rng, &mut topo, asn, &providers, &mut upstream);
        upstream.add_candidate(providers.len() as u32);
        providers.push(asn);
        peer_slots.add_candidate(i as u32);
        transit_asns.push(asn);
    }

    // Degree-weighted peering mesh among transits (IXP-style: the more
    // peers a transit already has, the likelier it attracts another).
    let target_links = ((n_transit as f64) * PEERING_PER_TRANSIT / 2.0).round() as usize;
    let mut linked: std::collections::BTreeSet<(Asn, Asn)> = std::collections::BTreeSet::new();
    let mut made = 0usize;
    let mut attempts = 0usize;
    while made < target_links && attempts < target_links.saturating_mul(10) {
        attempts += 1;
        let ai = peer_slots.pick(&mut rng) as usize;
        let bi = peer_slots.pick(&mut rng) as usize;
        if ai == bi {
            continue;
        }
        let (a, b) = (transit_asns[ai], transit_asns[bi]);
        let pair = (a.min(b), a.max(b));
        if !linked.insert(pair) {
            continue;
        }
        let ar = rng.gen_range(0..topo.node(a).expect("node").routers.len() as u16);
        let br = rng.gen_range(0..topo.node(b).expect("node").routers.len() as u16);
        topo.add_edge(AsEdge { a, b, rel: Relationship::PeerPeer, a_router: ar, b_router: br });
        peer_slots.record(ai as u32);
        peer_slots.record(bi as u32);
        made += 1;
    }

    // Stub leaves, numbered from the 32-bit ASN plane.
    for i in 0..n_stub {
        let asn = Asn(INTERNET_STUB_BASE_ASN + i as u32);
        let home = random_continent(&mut rng);
        topo.add_node(AsNode {
            asn,
            tier: Tier::Stub,
            routers: vec![RouterSpec { index: 0, location: random_location(&mut rng, home) }],
            igp: IgpMap::ring(1),
            behavior: assign_behavior(&mut rng, Tier::Stub, &cfg.behavior_mix),
            prefixes: vec![internet_stub_prefix(i)],
            route_server: false,
        });
        attach_customer(&mut rng, &mut topo, asn, &providers, &mut upstream);
    }

    // Beacon origin: AS12654 dual-homed to two transits so withdrawals
    // trigger path exploration, exactly like the lab generator.
    if cfg.with_beacon_origin && transit_asns.len() >= 2 {
        topo.add_node(AsNode {
            asn: BEACON_ORIGIN_ASN,
            tier: Tier::Stub,
            routers: vec![RouterSpec { index: 0, location: random_location(&mut rng, 4) }],
            igp: IgpMap::ring(1),
            behavior: CommunityBehavior::BLIND_PROPAGATOR,
            prefixes: cfg.beacon_prefixes.clone(),
            route_server: false,
        });
        for &p in &transit_asns[..2] {
            let pr = rng.gen_range(0..topo.node(p).expect("node").routers.len() as u16);
            topo.add_edge(AsEdge {
                a: BEACON_ORIGIN_ASN,
                b: p,
                rel: Relationship::CustomerProvider,
                a_router: 0,
                b_router: pr,
            });
        }
    }

    topo
}

/// Buys transit for `customer` from 1..=[`MAX_PROVIDERS`] distinct
/// upstreams picked preferentially from `upstream` (candidates are all
/// created before `customer`, so the customer cone stays acyclic).
fn attach_customer(
    rng: &mut StdRng,
    topo: &mut Topology,
    customer: Asn,
    providers: &[Asn],
    upstream: &mut AttachmentList,
) {
    let want = (1 + rng.gen_range(0..MAX_PROVIDERS)).min(providers.len());
    let c_routers = topo.node(customer).expect("customer node").routers.len() as u16;
    let mut chosen: Vec<u32> = Vec::with_capacity(want);
    let mut attempts = 0;
    while chosen.len() < want && attempts < want * 8 {
        attempts += 1;
        let slot = upstream.pick(rng);
        if chosen.contains(&slot) {
            continue;
        }
        chosen.push(slot);
        let p = providers[slot as usize];
        let pr = rng.gen_range(0..topo.node(p).expect("provider node").routers.len() as u16);
        let cr = if c_routers > 1 { rng.gen_range(0..c_routers) } else { 0 };
        topo.add_edge(AsEdge {
            a: customer,
            b: p,
            rel: Relationship::CustomerProvider,
            a_router: cr,
            b_router: pr,
        });
        upstream.record(slot);
    }
}

/// Adds a customer-provider link (customer `c`, provider `p`), possibly
/// with a parallel second link at a different provider router.
fn add_cp_links(rng: &mut StdRng, topo: &mut Topology, c: Asn, p: Asn, parallel_prob: f64) {
    let c_routers = topo.node(c).expect("customer node").routers.len() as u16;
    let p_routers = topo.node(p).expect("provider node").routers.len() as u16;
    let cr = rng.gen_range(0..c_routers);
    let pr = rng.gen_range(0..p_routers);
    topo.add_edge(AsEdge {
        a: c,
        b: p,
        rel: Relationship::CustomerProvider,
        a_router: cr,
        b_router: pr,
    });
    if p_routers > 1 && rng.gen_bool(parallel_prob) {
        let pr2 = (pr + 1 + rng.gen_range(0..p_routers - 1)) % p_routers;
        let cr2 = if c_routers > 1 { rng.gen_range(0..c_routers) } else { cr };
        topo.add_edge(AsEdge {
            a: c,
            b: p,
            rel: Relationship::CustomerProvider,
            a_router: cr2,
            b_router: pr2,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::RouteSource;

    #[test]
    fn deterministic_generation() {
        let cfg = TopologyConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyConfig::default());
        let b = generate(&TopologyConfig { seed: 7, ..Default::default() });
        // Edge sets should differ with overwhelming probability.
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn expected_node_count() {
        let cfg = TopologyConfig::default();
        let t = generate(&cfg);
        // tier1 + transit + stub + beacon origin
        assert_eq!(t.node_count(), cfg.n_tier1 + cfg.n_transit + cfg.n_stub + 1);
    }

    #[test]
    fn tier1_forms_clique() {
        let cfg = TopologyConfig::default();
        let t = generate(&cfg);
        let tier1: Vec<Asn> = t.nodes().filter(|n| n.tier == Tier::Tier1).map(|n| n.asn).collect();
        assert_eq!(tier1.len(), cfg.n_tier1);
        for (i, &a) in tier1.iter().enumerate() {
            for &b in &tier1[i + 1..] {
                assert!(t.interconnection_count(a, b) >= 1, "tier1 {a} and {b} must interconnect");
                assert_eq!(t.neighbor_kind(a, b), Some(RouteSource::Peer));
            }
        }
    }

    #[test]
    fn every_transit_has_tier1_provider() {
        let t = generate(&TopologyConfig::default());
        for n in t.nodes().filter(|n| n.tier == Tier::Transit) {
            let has_provider = t
                .neighbors(n.asn)
                .iter()
                .any(|&nb| t.neighbor_kind(n.asn, nb) == Some(RouteSource::Provider));
            assert!(has_provider, "transit {} lacks a provider", n.asn);
        }
    }

    #[test]
    fn every_stub_has_provider_and_prefix() {
        let t = generate(&TopologyConfig::default());
        for n in t.nodes().filter(|n| n.tier == Tier::Stub) {
            let has_provider = t
                .neighbors(n.asn)
                .iter()
                .any(|&nb| t.neighbor_kind(n.asn, nb) == Some(RouteSource::Provider));
            assert!(has_provider, "stub {} lacks a provider", n.asn);
            assert!(!n.prefixes.is_empty(), "stub {} lacks prefixes", n.asn);
        }
    }

    #[test]
    fn beacon_origin_present_and_dual_homed() {
        let t = generate(&TopologyConfig::default());
        let b = t.node(BEACON_ORIGIN_ASN).expect("beacon origin");
        assert_eq!(b.prefixes[0].to_string(), "84.205.64.0/24");
        assert!(t.neighbors(BEACON_ORIGIN_ASN).len() >= 2, "beacon origin must be dual-homed");
    }

    #[test]
    fn stubs_never_geo_tag() {
        let t = generate(&TopologyConfig::default());
        for n in t.nodes().filter(|n| n.tier == Tier::Stub) {
            assert!(!n.behavior.tags_geo);
        }
    }

    #[test]
    fn some_transits_geo_tag_with_default_mix() {
        let t = generate(&TopologyConfig::default());
        let taggers = t.nodes().filter(|n| n.tier != Tier::Stub && n.behavior.tags_geo).count();
        assert!(taggers > 0, "default mix should produce geo-taggers");
    }

    #[test]
    fn cleaning_directions_exclusive() {
        let t = generate(&TopologyConfig::default());
        for n in t.nodes() {
            assert!(
                !(n.behavior.cleans_egress && n.behavior.cleans_ingress),
                "AS {} cleans both directions",
                n.asn
            );
        }
    }

    #[test]
    fn v6_prefixes_generated() {
        let cfg = TopologyConfig { ipv6_share: 1.0, ..Default::default() };
        let t = generate(&cfg);
        let v6 = t
            .nodes()
            .filter(|n| n.tier == Tier::Stub)
            .flat_map(|n| &n.prefixes)
            .filter(|p| p.is_ipv6())
            .count();
        assert!(v6 > 0);
    }

    #[test]
    fn sized_configs_scale_and_generate() {
        for (n, seed) in [(20usize, 1u64), (60, 2), (200, 3)] {
            let cfg = TopologyConfig::sized(n, seed);
            assert_eq!(cfg.seed, seed);
            assert!(cfg.n_transit >= 2, "collector needs two transit attachment points");
            let total = cfg.n_tier1 + cfg.n_transit + cfg.n_stub;
            assert!(total >= n.min(5) && total <= n + 5, "sized({n}) produced {total} ASes");
            let t = generate(&cfg);
            assert_eq!(t.node_count(), total + 1); // + beacon origin
        }
        // Larger sizes produce strictly larger topologies.
        assert!(
            TopologyConfig::sized(200, 0).n_stub > TopologyConfig::sized(40, 0).n_stub,
            "stub count must grow with requested size"
        );
    }

    #[test]
    fn builder_helpers_replace_fields() {
        let mix = BehaviorMix { transit_tags_geo: 1.0, cleans_egress: 0.0, cleans_ingress: 0.0 };
        let cfg = TopologyConfig::sized(30, 11).with_behavior_mix(mix);
        assert!((cfg.behavior_mix.transit_tags_geo - 1.0).abs() < f64::EPSILON);
        // The mix reaches the generated ASes: every non-stub tags geo.
        let t = generate(&cfg);
        let non_stub_taggers =
            t.nodes().filter(|n| n.tier != Tier::Stub && n.behavior.tags_geo).count();
        let non_stub = t.nodes().filter(|n| n.tier != Tier::Stub).count();
        assert_eq!(non_stub_taggers, non_stub);
    }

    #[test]
    fn generated_asns_allocatable() {
        let t = generate(&TopologyConfig::default());
        for n in t.nodes() {
            assert!(n.asn.is_allocatable(), "AS {} not allocatable", n.asn);
        }
    }

    #[test]
    fn internet_deterministic_and_sized() {
        let cfg = InternetConfig::sized(500, 7);
        let a = generate_internet(&cfg);
        let b = generate_internet(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges(), b.edges());
        // tier-1 + transit + stub + beacon origin
        assert_eq!(a.node_count(), 500 + 1);
    }

    #[test]
    fn internet_every_non_tier1_has_provider() {
        let t = generate_internet(&InternetConfig::sized(400, 3));
        for n in t.nodes().filter(|n| n.tier != Tier::Tier1) {
            let has_provider = t
                .neighbors(n.asn)
                .iter()
                .any(|&nb| t.neighbor_kind(n.asn, nb) == Some(RouteSource::Provider));
            assert!(has_provider, "{:?} {} lacks a provider", n.tier, n.asn);
        }
    }

    #[test]
    fn internet_degree_distribution_is_skewed() {
        // Preferential attachment must concentrate customers: the busiest
        // provider ends up with many times the median provider's degree.
        let t = generate_internet(&InternetConfig::sized(1_000, 11));
        let mut degrees: Vec<usize> =
            t.nodes().filter(|n| n.tier != Tier::Stub).map(|n| t.edges_of(n.asn).count()).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        assert!(max >= median * 4, "no power-law skew: median {median}, max {max}");
    }

    #[test]
    fn internet_stubs_use_32bit_asn_plane() {
        let t = generate_internet(&InternetConfig::sized(300, 5));
        let stubs: Vec<_> =
            t.nodes().filter(|n| n.tier == Tier::Stub && n.asn != BEACON_ORIGIN_ASN).collect();
        assert!(!stubs.is_empty());
        for s in &stubs {
            assert!(s.asn.value() >= INTERNET_STUB_BASE_ASN, "stub {} below 32-bit plane", s.asn);
            assert!(s.asn.is_allocatable(), "stub {} not allocatable", s.asn);
            // The high router_ip plane keeps loopbacks collision-free.
            assert!(s.router_ip(0).octets()[0] >= 240);
            assert_eq!(s.prefixes.len(), 1);
        }
    }

    #[test]
    fn internet_beacon_dual_homed() {
        let t = generate_internet(&InternetConfig::sized(200, 1));
        let b = t.node(BEACON_ORIGIN_ASN).expect("beacon origin");
        assert_eq!(b.prefixes[0].to_string(), "84.205.64.0/24");
        let providers = t
            .neighbors(BEACON_ORIGIN_ASN)
            .iter()
            .filter(|&&nb| t.neighbor_kind(BEACON_ORIGIN_ASN, nb) == Some(RouteSource::Provider))
            .count();
        assert_eq!(providers, 2, "beacon origin must be dual-homed");
    }

    #[test]
    fn internet_peering_mesh_present() {
        let t = generate_internet(&InternetConfig::sized(600, 9));
        let transit_peerings = t
            .edges()
            .iter()
            .filter(|e| {
                e.rel == Relationship::PeerPeer
                    && t.node(e.a).is_some_and(|n| n.tier == Tier::Transit)
            })
            .count();
        assert!(transit_peerings > 0, "expected transit-transit peerings");
    }

    #[test]
    fn internet_10k_generates_quickly() {
        // O(ASes + edges): a 10k-AS graph must come out in well under a
        // second even on slow CI (the old O(edges)-per-pick generator
        // would take minutes here).
        let start = std::time::Instant::now();
        let t = generate_internet(&InternetConfig::sized(10_000, 42));
        assert_eq!(t.node_count(), 10_001);
        assert!(t.edges().len() > 10_000, "graph too sparse: {} edges", t.edges().len());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "generation took {:?}",
            start.elapsed()
        );
    }
}
