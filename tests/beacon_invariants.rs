//! Invariants of the simulated beacon day (the Figs. 3–5 substrate).

use keep_communities_clean::adapter::capture_to_archive;
use keep_communities_clean::analysis::beacon_phase::{PhaseCountSink, PhaseCounts};
use keep_communities_clean::analysis::exploration::detect;
use keep_communities_clean::analysis::revealed::revealed_attributes;
use keep_communities_clean::analysis::{classify_archive, PipelineBuilder};
use keep_communities_clean::collector::beacon::{self, BeaconEvent};
use keep_communities_clean::collector::ArchiveSource;
use keep_communities_clean::sim::{Network, SimConfig, SimDuration, SimTime};
use keep_communities_clean::topology::{generate, RouterId, Tier, TopologyConfig};
use keep_communities_clean::types::{Asn, Prefix};

struct BeaconDay {
    archive: keep_communities_clean::collector::UpdateArchive,
    beacon: Prefix,
}

fn run_beacon_day(seed: u64) -> BeaconDay {
    let beacon: Prefix = "84.205.64.0/24".parse().unwrap();
    let beacon_router = RouterId { asn: Asn(12_654), index: 0 };
    let topo = generate(&TopologyConfig {
        seed,
        n_tier1: 3,
        n_transit: 8,
        n_stub: 10,
        routers_transit: (3, 4),
        parallel_link_prob: 0.5,
        with_beacon_origin: true,
        beacon_prefixes: vec![beacon],
        ..Default::default()
    });
    let mut net = Network::from_topology(&topo, SimConfig { seed, ..Default::default() });
    let peers: Vec<RouterId> =
        topo.nodes().filter(|n| n.tier == Tier::Transit).map(|n| n.router_id(0)).collect();
    let (collector, _) = net.attach_collector(Asn(3333), &peers);
    net.announce_all_origins(&topo, SimTime::ZERO);
    net.run_until_quiet();
    net.schedule_withdraw(net.now() + SimDuration::from_secs(10), beacon_router, beacon);
    net.run_until_quiet();
    net.clear_captures();
    let day_start = SimTime(((net.now().0 / 60_000_000) + 2) * 60_000_000);
    for (offset, event) in beacon::day_events() {
        let at = SimTime(day_start.0 + offset);
        match event {
            BeaconEvent::Announce => net.schedule_announce(at, beacon_router, beacon),
            BeaconEvent::Withdraw => net.schedule_withdraw(at, beacon_router, beacon),
        }
    }
    net.run_until_quiet();
    let capture = net.capture(collector).expect("capture").clone();
    let mut archive = capture_to_archive(&net, "rrc00", &capture, 0);
    for (_, rec) in archive.sessions_mut() {
        for u in &mut rec.updates {
            u.time_us = u.time_us.saturating_sub(day_start.0);
        }
    }
    BeaconDay { archive, beacon }
}

fn count_phases(day: &BeaconDay) -> PhaseCounts {
    PipelineBuilder::new(ArchiveSource::new(&day.archive))
        .sink(PhaseCountSink::new(&[day.beacon]))
        .run()
        .expect("archive sources cannot fail")
        .sink
        .finish()
}

#[test]
fn all_traffic_falls_inside_phases() {
    let day = run_beacon_day(42);
    let counts = count_phases(&day);
    // Convergence after a scheduled event completes within the 15-minute
    // windows; nothing may appear outside them.
    assert_eq!(counts.outside, 0, "updates escaped the phase windows: {counts:?}");
    assert!(counts.in_announcement > 0);
    assert!(counts.in_withdrawal > 0, "path exploration must show in withdrawal phases");
}

#[test]
fn withdrawal_phases_dominate_update_volume() {
    // The paper's key observation: withdrawal phases carry the bursts
    // (path + community exploration), announcement phases converge fast.
    let day = run_beacon_day(42);
    let counts = count_phases(&day);
    assert!(
        counts.in_withdrawal >= counts.in_announcement,
        "withdrawal-phase announcements ({}) should dominate announce-phase ones ({})",
        counts.in_withdrawal,
        counts.in_announcement
    );
}

#[test]
fn exploration_reveals_multiple_locations() {
    let day = run_beacon_day(42);
    let episodes = detect(&day.archive, &[day.beacon]);
    assert!(!episodes.is_empty(), "no withdrawal-phase episodes detected");
    let multi = episodes.iter().filter(|e| e.locations.len() > 1).count();
    assert!(multi > 0, "no episode revealed multiple geo locations");
}

#[test]
fn majority_of_attributes_revealed_in_withdrawal_phases() {
    // The Fig. 6 shape: most unique community attributes appear only
    // during withdrawal phases (paper: ~60%, stable over a decade).
    let day = run_beacon_day(42);
    let revealed = revealed_attributes(&day.archive, &[day.beacon]);
    assert!(revealed.total > 0, "no community attributes revealed at all");
    let ratio = revealed.withdrawal_ratio();
    assert!(ratio >= 0.3, "withdrawal-exclusive ratio {ratio:.2} too low (paper: ~0.6)");
}

#[test]
fn beacon_day_deterministic() {
    let a = run_beacon_day(7);
    let b = run_beacon_day(7);
    assert_eq!(a.archive.update_count(), b.archive.update_count());
    let ca = classify_archive(&a.archive);
    let cb = classify_archive(&b.archive);
    assert_eq!(ca, cb);
}
