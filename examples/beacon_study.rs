//! A full simulated beacon study (the paper's §6 methodology).
//!
//! Simulates a mid-scale Internet for one RIS beacon day, then runs the
//! complete analysis pipeline on the collector's capture: announcement
//! classification, per-session distributions, community-exploration
//! detection with geo decoding, and revealed-information statistics.
//!
//! Run with `cargo run --release --example beacon_study`.

use keep_communities_clean::adapter::capture_to_archive;
use keep_communities_clean::analysis::exploration::{detect, summarize};
use keep_communities_clean::analysis::revealed::revealed_attributes;
use keep_communities_clean::analysis::sessions::{render_distribution, session_type_distribution};
use keep_communities_clean::analysis::{classify_archive, AnnouncementType};
use keep_communities_clean::collector::{BeaconEvent, BeaconSchedule};
use keep_communities_clean::sim::{Network, SimConfig, SimDuration, SimTime};
use keep_communities_clean::topology::{generate, RouterId, Tier, TopologyConfig};
use keep_communities_clean::types::{Asn, Prefix};

fn main() {
    let beacon: Prefix = "84.205.64.0/24".parse().unwrap();
    let beacon_router = RouterId { asn: Asn(12_654), index: 0 };

    // A 30-AS Internet with multi-router transits and a dual-homed beacon
    // origin.
    let topo = generate(&TopologyConfig {
        n_tier1: 3,
        n_transit: 10,
        n_stub: 16,
        routers_transit: (3, 5),
        parallel_link_prob: 0.5,
        with_beacon_origin: true,
        beacon_prefixes: vec![beacon],
        ..Default::default()
    });
    let mut net = Network::from_topology(&topo, SimConfig::default());
    let peers: Vec<RouterId> =
        topo.nodes().filter(|n| n.tier == Tier::Transit).map(|n| n.router_id(0)).collect();
    let (collector, _) = net.attach_collector(Asn(3333), &peers);

    // Converge, park the beacon in withdrawn state, then play one day of
    // the RIS schedule (announce 00:00 +4h, withdraw 02:00 +4h).
    net.announce_all_origins(&topo, SimTime::ZERO);
    net.run_until_quiet();
    net.schedule_withdraw(net.now() + SimDuration::from_secs(10), beacon_router, beacon);
    net.run_until_quiet();
    net.clear_captures();
    let day_start = SimTime(((net.now().0 / 60_000_000) + 2) * 60_000_000);
    let schedule = BeaconSchedule::default();
    for (offset, event) in schedule.day_events() {
        let at = SimTime(day_start.0 + offset);
        match event {
            BeaconEvent::Announce => net.schedule_announce(at, beacon_router, beacon),
            BeaconEvent::Withdraw => net.schedule_withdraw(at, beacon_router, beacon),
        }
    }
    net.run_until_quiet();
    println!(
        "simulated one beacon day: {} events, {} messages delivered\n",
        net.stats.events_processed, net.stats.messages_delivered
    );

    // Analysis pipeline on the capture, rebased to the day origin.
    let capture = net.capture(collector).expect("capture").clone();
    let mut archive = capture_to_archive(&net, "rrc00", &capture, 1_584_230_400);
    for (_, rec) in archive.sessions_mut() {
        for u in &mut rec.updates {
            u.time_us = u.time_us.saturating_sub(day_start.0);
        }
    }

    let counts = classify_archive(&archive);
    println!(
        "collector saw {} announcements / {} withdrawals over {} sessions",
        counts.announcement_total(),
        counts.withdrawals,
        archive.session_count()
    );
    for t in AnnouncementType::ALL {
        println!("  {t}: {:>5}  ({:.1}%)", counts.get(t), counts.share(t));
    }

    println!("\nper-session distribution for {beacon}:");
    let rows = session_type_distribution(&archive, &beacon, Some("rrc00"));
    println!("{}", render_distribution(&rows[..rows.len().min(10)]));

    let episodes = detect(&archive, &schedule, &[beacon]);
    let summary = summarize(&episodes);
    println!(
        "community exploration: {} withdrawal-phase episodes, {} with multiple revealed locations, {} nc updates",
        summary.episodes, summary.exploration_episodes, summary.total_nc
    );
    if let Some(e) = episodes.iter().max_by_key(|e| e.locations.len()) {
        println!(
            "  richest episode: session {} phase {} revealed {} locations: {:?}",
            e.session,
            e.phase,
            e.locations.len(),
            e.locations.iter().take(6).collect::<Vec<_>>()
        );
    }

    let revealed = revealed_attributes(&archive, &schedule, &[beacon]);
    println!(
        "\nrevealed community attributes: {} unique, {} exclusively during withdrawals ({:.0}%)",
        revealed.total,
        revealed.withdrawal_only,
        revealed.withdrawal_ratio() * 100.0
    );
    println!("(the paper reports ~60% across ten years of RIS beacons)");
}
