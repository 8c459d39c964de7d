//! One digest over everything the simulator observably does on a
//! generated internet, pinned as a literal.
//!
//! A 2,000-AS `generate_internet` runs the beacon protocol (converge →
//! flap → heal → reflap) under the blind, ingress- and egress-cleaning
//! placements, once per router configuration: BIRD (no MRAI, no
//! duplicate suppression), a Cisco IOS / Junos mix (MRAI pacing and
//! duplicate suppression), and BIRD with route-flap dampening. Every
//! session is monitored. A few eBGP sessions get export policies of their
//! own (egress cleaning toggled, an added community, an extra prepend),
//! so one router exports through several distinct policies.
//!
//! The digest is FNV-64 over the `Debug` text of every monitored message,
//! the `NetStats` and every router's `RouterCounters`, phase by phase. An
//! optimisation of the event loop, the export path or the attribute store
//! must leave it unchanged; a behaviour change moves it.
//!
//! A second test checks the store's refcounts: once every route is gone,
//! nothing is interned.

use std::fmt::Write as _;

use keep_communities_clean::sim::network::NetStats;
use keep_communities_clean::sim::scenario::{self, CollectorDecl, ScenarioSpec, TopologyTemplate};
use keep_communities_clean::sim::{
    DampeningConfig, Network, SimConfig, SimDuration, SimTime, VendorProfile,
};
use keep_communities_clean::topology::gen::BEACON_ORIGIN_ASN;
use keep_communities_clean::topology::{generate_internet, BehaviorMix, InternetConfig, RouterId};
use keep_communities_clean::types::{Asn, Community};

const N_ASES: usize = 2_000;
const PRIMARY_TRANSIT: Asn = Asn(20_000);
const COLLECTOR_ASN: Asn = Asn(3333);
const PHASE_GAP: SimDuration = SimDuration::from_secs(10);
/// `(egress-cleaning share, ingress-cleaning share)`: blind, ingress, egress.
const PLACEMENTS: [(f64, f64); 3] = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)];

/// The digest of every configuration and placement, taken on the
/// simulator before the single-advertisement export path, the
/// address-keyed attribute store and the compact event heap.
const PINNED: u64 = 0xb4a1_8b79_6729_b9fb;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn spec(sim: SimConfig, cleans_egress: f64, cleans_ingress: f64) -> ScenarioSpec {
    let mut config = InternetConfig::sized(N_ASES, 42);
    config.behavior_mix = BehaviorMix { transit_tags_geo: 0.5, cleans_egress, cleans_ingress };
    let peers = (0..16).map(|i| RouterId { asn: Asn(PRIMARY_TRANSIT.value() + i), index: 0 });
    ScenarioSpec {
        name: "sim-digest".to_owned(),
        sim,
        topology: TopologyTemplate::GeneratedInternet {
            config,
            collector: Some(CollectorDecl { asn: COLLECTOR_ASN, peers: peers.collect() }),
        },
        monitors: vec![],
        watch: vec![],
        phases: vec![],
        expectations: vec![],
    }
}

/// Gives every 5th eBGP session's `a` side the opposite egress cleaning,
/// every 9th an added community and every 13th an extra prepend — before
/// anything is announced, so the policies shape the whole run.
fn vary_export_policies(net: &mut Network) {
    let mut changes = Vec::new();
    for (i, s) in net.sessions().iter().enumerate().filter(|(_, s)| s.is_ebgp()) {
        let mut policy = s.a_export.clone();
        if i % 5 == 0 {
            policy.clean_communities = !policy.clean_communities;
        }
        if i % 9 == 0 {
            policy.add_communities.push(Community::from_parts(64_512, i as u16));
        }
        if i % 13 == 0 {
            policy.extra_prepends = 1;
        }
        if policy != s.a_export {
            changes.push((s.a, s.b, policy));
        }
    }
    for (a, b, policy) in changes {
        net.schedule_export_policy(net.now(), a, b, policy);
    }
}

fn digest_phase(hash: &mut u64, net: &Network) {
    let mut text = String::new();
    for sid in net.sessions().iter().map(|s| s.id) {
        for entry in net.monitored(sid).map(|c| c.entries()).unwrap_or_default() {
            text.clear();
            write!(text, "{entry:?}").unwrap();
            *hash = fnv1a(*hash, text.as_bytes());
        }
    }
    let stats: NetStats = net.stats;
    *hash = fnv1a(*hash, format!("{stats:?}").as_bytes());
    for r in net.routers() {
        *hash = fnv1a(*hash, format!("{} {:?}", r.id, r.counters).as_bytes());
    }
}

/// Runs converge → flap → heal → reflap on one placement and folds each
/// phase into `hash`.
fn run(hash: &mut u64, sim: SimConfig, cleans_egress: f64, cleans_ingress: f64) -> u64 {
    let mut net = scenario::build(&spec(sim, cleans_egress, cleans_ingress)).net;
    for sid in 0..net.sessions().len() {
        net.monitor_session(net.sessions()[sid].id);
    }
    vary_export_policies(&mut net);
    let beacon = RouterId { asn: BEACON_ORIGIN_ASN, index: 0 };
    let prefix = InternetConfig::default().beacon_prefixes[0];
    let links = net.find_ebgp_sessions(BEACON_ORIGIN_ASN, PRIMARY_TRANSIT);
    assert!(!links.is_empty(), "the beacon origin buys transit from the primary transit");
    for phase in 0..4 {
        match phase {
            0 => net.schedule_announce(net.now(), beacon, prefix),
            1 | 3 => links.iter().for_each(|&l| net.schedule_link_down(net.now() + PHASE_GAP, l)),
            _ => links.iter().for_each(|&l| net.schedule_link_up(net.now() + PHASE_GAP, l)),
        }
        net.run_until_quiet();
        digest_phase(hash, &net);
        net.clear_captures();
    }
    net.routers().map(|r| r.counters.dampened).sum()
}

#[test]
fn simulated_behaviour_is_pinned() {
    let bird = SimConfig { seed: 42, default_vendor: VendorProfile::BIRD_2, ..Default::default() };
    let mixed = SimConfig {
        vendor_mix: vec![(VendorProfile::CISCO_IOS, 0.5), (VendorProfile::JUNOS, 0.5)],
        ..bird.clone()
    };
    let damped = SimConfig { dampening: Some(DampeningConfig::default()), ..bird.clone() };

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut dampened = 0;
    for (name, sim) in [("bird", bird), ("mixed", mixed), ("damped", damped)] {
        for &(egress, ingress) in &PLACEMENTS {
            let d = run(&mut hash, sim.clone(), egress, ingress);
            if name == "damped" {
                dampened += d;
            }
        }
    }
    assert!(dampened > 0, "the dampening configuration suppresses some route");
    assert_eq!(hash, PINNED, "simulated behaviour changed: digest {hash:#018x}");
}

/// Once every origin withdraws and every session goes down, no RIB slot
/// holds an attribute set, so the store is empty. One origin prefix in 50
/// is announced, to keep the debug-profile run short.
#[test]
fn attr_store_drains_to_zero() {
    let topo = generate_internet(&InternetConfig::sized(1_000, 7));
    let mut net = Network::from_topology(&topo, SimConfig::default());
    net.attach_collector(COLLECTOR_ASN, &[RouterId { asn: PRIMARY_TRANSIT, index: 0 }]);
    let origins: Vec<_> = topo.all_prefixes().into_iter().step_by(50).collect();
    for &(asn, prefix) in &origins {
        net.schedule_announce(SimTime::ZERO, RouterId { asn, index: 0 }, prefix);
    }
    net.run_until_quiet();
    assert!(net.attr_store().len() > origins.len());

    let at = net.now() + PHASE_GAP;
    for &(asn, prefix) in &origins {
        net.schedule_withdraw(at, RouterId { asn, index: 0 }, prefix);
    }
    net.run_until_quiet();
    let at = net.now() + PHASE_GAP;
    for sid in 0..net.sessions().len() {
        net.schedule_link_down(at, net.sessions()[sid].id);
    }
    net.run_until_quiet();
    assert_eq!(net.attr_store().len(), 0);
    assert_eq!(net.attr_store().bytes(), 0);
}
