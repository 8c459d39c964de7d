//! The simulated beacon day: a mid-scale Internet, one RIS-style beacon,
//! 24 hours of announce/withdraw cycles, captured at a collector.
//!
//! This is the substrate for Figs. 3–5: path exploration and community
//! exploration *emerge* from the simulator's mechanics (multi-router
//! transit ASes geo-tagging at ingress, parallel interconnections at
//! different cities, vendors that forward duplicates).

use kcc_bgp_sim::{Network, SimConfig, SimDuration, SimTime, VendorProfile};
use kcc_bgp_types::{Asn, Prefix};
use kcc_collector::beacon::{self, BeaconEvent};
use kcc_collector::UpdateArchive;
use kcc_topology::{generate, RouterId, Tier, Topology, TopologyConfig};
use keep_communities_clean::adapter::capture_to_archive;

use crate::Args;

/// Configuration of the simulated beacon day.
#[derive(Debug, Clone)]
pub struct BeaconDayConfig {
    /// Seed for topology and simulator.
    pub seed: u64,
    /// Tier-1 count.
    pub n_tier1: usize,
    /// Transit count.
    pub n_transit: usize,
    /// Stub count.
    pub n_stub: usize,
    /// How many stub peers (besides all transits) peer with the collector.
    pub stub_peers: usize,
    /// Vendor mix across ASes.
    pub vendor_mix: Vec<(VendorProfile, f64)>,
    /// Optional route-flap dampening applied network-wide.
    pub dampening: Option<kcc_bgp_sim::DampeningConfig>,
}

impl Default for BeaconDayConfig {
    fn default() -> Self {
        BeaconDayConfig {
            seed: 42,
            n_tier1: 4,
            n_transit: 16,
            n_stub: 40,
            stub_peers: 8,
            vendor_mix: vec![
                (VendorProfile::CISCO_IOS, 0.35),
                (VendorProfile::CISCO_IOS_XR, 0.15),
                (VendorProfile::JUNOS, 0.25),
                (VendorProfile::BIRD_2, 0.25),
            ],
            dampening: None,
        }
    }
}

impl BeaconDayConfig {
    /// The day the artifacts run for `args`: its seed, and under
    /// `--quick` a topology small enough for a smoke run.
    pub fn for_args(args: &Args) -> Self {
        let quick =
            BeaconDayConfig { n_transit: 8, n_stub: 12, stub_peers: 4, ..Default::default() };
        BeaconDayConfig { seed: args.seed, ..if args.quick { quick } else { Default::default() } }
    }
}

/// What the beacon day produced.
#[derive(Debug)]
pub struct BeaconDayOutput {
    /// The collector archive, times rebased to day start.
    pub archive: UpdateArchive,
    /// The beacon prefix.
    pub beacon_prefix: Prefix,
    /// The collector router.
    pub collector: RouterId,
    /// The network after the run (for counters/inspection).
    pub net: Network,
    /// The topology.
    pub topo: Topology,
}

/// Runs a full simulated beacon day and returns the rebased archive.
pub fn run_beacon_day(cfg: &BeaconDayConfig) -> BeaconDayOutput {
    let beacon_prefix: Prefix = "84.205.64.0/24".parse().expect("literal prefix");
    let topo = generate(&TopologyConfig {
        seed: cfg.seed,
        n_tier1: cfg.n_tier1,
        n_transit: cfg.n_transit,
        n_stub: cfg.n_stub,
        with_beacon_origin: true,
        beacon_prefixes: vec![beacon_prefix],
        // Denser multi-city interconnection than the global default: the
        // beacon study needs room for ingress shifts (community
        // exploration) to unfold.
        routers_transit: (3, 5),
        parallel_link_prob: 0.55,
        transit_peering_prob: 0.4,
        ..Default::default()
    });
    // The paper's Fig. 5 deliberately selects a peer that removes all
    // communities; guarantee such peers exist regardless of the random
    // behavior mix by converting every fifth transit into an egress
    // cleaner.
    let mut topo = topo;
    let cleaner_asns: Vec<_> =
        topo.nodes().filter(|n| n.tier == Tier::Transit).map(|n| n.asn).step_by(5).collect();
    for asn in cleaner_asns {
        if let Some(node) = topo.node_mut(asn) {
            node.behavior.cleans_egress = true;
            node.behavior.cleans_ingress = false;
        }
    }
    let mut net = Network::from_topology(
        &topo,
        SimConfig {
            seed: cfg.seed,
            vendor_mix: cfg.vendor_mix.clone(),
            dampening: cfg.dampening,
            // Wide per-session delay stagger desynchronizes propagation,
            // letting exploration pass through more transient states (as
            // heterogeneous real-world pacing does).
            delay_spread: kcc_bgp_sim::SimDuration::from_millis(40),
            ..Default::default()
        },
    );

    // Collector peers: every transit's router 0 plus some stubs.
    let mut peers: Vec<RouterId> =
        topo.nodes().filter(|n| n.tier == Tier::Transit).map(|n| n.router_id(0)).collect();
    peers.extend(
        topo.nodes().filter(|n| n.tier == Tier::Stub).take(cfg.stub_peers).map(|n| n.router_id(0)),
    );
    let (collector, _) = net.attach_collector(Asn(3333), &peers);

    let day_start = run_beacon_schedule(&mut net, &topo, beacon_prefix);

    // Rebase capture times to the day origin.
    let capture = net.capture(collector).expect("collector capture").clone();
    let mut archive = capture_to_archive(&net, "rrc00", &capture, 1_584_230_400);
    for (_, rec) in archive.sessions_mut() {
        for u in &mut rec.updates {
            u.time_us = u.time_us.saturating_sub(day_start.0);
        }
    }

    BeaconDayOutput { archive, beacon_prefix, collector, net, topo }
}

/// Converges `topo`'s whole table, then plays one day of the RIS beacon
/// schedule for `beacon_prefix` from AS12654 and runs the network quiet.
/// Captures hold the day only; returns the time it started at.
pub(crate) fn run_beacon_schedule(
    net: &mut Network,
    topo: &Topology,
    beacon_prefix: Prefix,
) -> SimTime {
    // Converge the whole table, then withdraw the beacon (its state at
    // 00:00 of a real day: withdrawn since 22:00 the previous evening).
    let beacon_router = RouterId { asn: Asn(12_654), index: 0 };
    net.announce_all_origins(topo, SimTime::ZERO);
    net.run_until_quiet();
    let t_wd = net.now() + SimDuration::from_secs(10);
    net.schedule_withdraw(t_wd, beacon_router, beacon_prefix);
    net.run_until_quiet();
    net.clear_captures();

    // The simulated day starts on a fresh minute boundary.
    let day_start = SimTime(((net.now().0 / 60_000_000) + 2) * 60_000_000);
    for (offset, event) in beacon::day_events() {
        let at = SimTime(day_start.0 + offset);
        match event {
            BeaconEvent::Announce => net.schedule_announce(at, beacon_router, beacon_prefix),
            BeaconEvent::Withdraw => net.schedule_withdraw(at, beacon_router, beacon_prefix),
        }
    }
    net.run_until_quiet();
    day_start
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_core::{classify_archive, AnnouncementType};

    fn quick_config() -> BeaconDayConfig {
        BeaconDayConfig {
            n_tier1: 3,
            n_transit: 8,
            n_stub: 12,
            stub_peers: 4,
            ..Default::default()
        }
    }

    #[test]
    fn beacon_day_produces_phased_traffic() {
        let out = run_beacon_day(&quick_config());
        assert!(out.archive.update_count() > 0, "collector saw nothing");
        // Withdrawals arrive in (or near) withdrawal phases.
        let mut in_withdraw_phase = 0usize;
        let mut withdrawals = 0usize;
        for (_, rec) in out.archive.sessions() {
            for u in &rec.updates {
                if u.is_withdrawal() {
                    withdrawals += 1;
                    if beacon::phase_of(u.time_us).is_withdrawal() {
                        in_withdraw_phase += 1;
                    }
                }
            }
        }
        assert!(withdrawals >= 6, "expected ≥6 withdrawals, saw {withdrawals}");
        assert!(
            in_withdraw_phase * 10 >= withdrawals * 9,
            "withdrawals should arrive in their phases ({in_withdraw_phase}/{withdrawals})"
        );
    }

    #[test]
    fn community_exploration_emerges() {
        // The headline emergent behavior: nc announcements (community-only
        // changes) appear at the collector during the beacon day.
        let out = run_beacon_day(&quick_config());
        let counts = classify_archive(&out.archive);
        assert!(
            counts.get(AnnouncementType::Nc) > 0,
            "no community exploration emerged: {counts:?}"
        );
    }
}
