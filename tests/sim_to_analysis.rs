//! Simulator output through the analysis pipeline: the lab experiments'
//! collector captures must classify exactly as the paper describes.

use keep_communities_clean::adapter::capture_to_archive;
use keep_communities_clean::analysis::classify_archive;
use keep_communities_clean::sim::lab::{build_lab, lab_prefix, LabExperiment, LabNetwork};
use keep_communities_clean::sim::{SimDuration, SimTime, VendorProfile};

/// Runs a lab experiment with *two* link flaps so the collector stream
/// has enough history for the classifier (first flap establishes the
/// predecessor announcement, second one is classified).
fn archive_for(
    exp: LabExperiment,
    vendor: VendorProfile,
) -> keep_communities_clean::collector::UpdateArchive {
    let LabNetwork { mut net, ids } = build_lab(exp, vendor);
    net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
    net.run_until_quiet();
    // Flap down, up, and down again: the collector sees the Y:400 state,
    // the Y:300 state, and the Y:400 state again.
    let t1 = net.now() + SimDuration::from_secs(60);
    net.schedule_link_down(t1, ids.y1_y2);
    net.run_until_quiet();
    let t2 = net.now() + SimDuration::from_secs(60);
    net.schedule_link_up(t2, ids.y1_y2);
    net.run_until_quiet();
    let t3 = net.now() + SimDuration::from_secs(60);
    net.schedule_link_down(t3, ids.y1_y2);
    net.run_until_quiet();
    let capture = net.capture(ids.c1).expect("collector capture").clone();
    capture_to_archive(&net, "rrc00", &capture, 0)
}

#[test]
fn exp2_collector_stream_is_nc() {
    // Every post-initial announcement at the collector changes only the
    // community attribute: the paper's community-only (`nc`) type.
    let archive = archive_for(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
    let counts = classify_archive(&archive);
    assert!(counts.nc >= 2, "expected nc stream, got {counts:?}");
    assert_eq!(counts.pc, 0);
    assert_eq!(counts.pn, 0);
}

#[test]
fn exp3_collector_stream_is_nn() {
    // With egress cleaning at X1, the same flaps produce pure duplicates.
    let archive = archive_for(LabExperiment::Exp3, VendorProfile::CISCO_IOS);
    let counts = classify_archive(&archive);
    assert!(counts.nn >= 2, "expected nn stream, got {counts:?}");
    assert_eq!(counts.nc, 0, "no community may survive egress cleaning");
    // And none of the duplicates is explained by MED.
    assert_eq!(counts.nn_med_only, 0);
}

#[test]
fn exp3_junos_collector_stream_is_empty_after_initial() {
    let archive = archive_for(LabExperiment::Exp3, VendorProfile::JUNOS);
    let counts = classify_archive(&archive);
    assert_eq!(counts.classified_total(), 0, "Junos must suppress every duplicate: {:?}", counts);
}

#[test]
fn exp4_collector_silent_for_all_vendors() {
    for vendor in VendorProfile::ALL {
        let archive = archive_for(LabExperiment::Exp4, vendor);
        let counts = classify_archive(&archive);
        assert_eq!(
            counts.classified_total(),
            0,
            "{vendor}: ingress cleaning must silence the collector"
        );
    }
}

#[test]
fn exp1_vendor_split_in_message_counts() {
    // Exp1 produces no collector traffic anywhere; the vendor difference
    // is on the monitored X1–Y1 link, visible in router counters.
    let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp1, VendorProfile::CISCO_IOS);
    net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
    net.run_until_quiet();
    net.schedule_link_down(net.now() + SimDuration::from_secs(60), ids.y1_y2);
    net.run_until_quiet();
    let y1 = net.router(ids.y1).expect("Y1");
    assert!(y1.counters.duplicates_sent >= 1, "IOS Y1 must transmit the duplicate");

    let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp1, VendorProfile::JUNOS);
    net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
    net.run_until_quiet();
    net.schedule_link_down(net.now() + SimDuration::from_secs(60), ids.y1_y2);
    net.run_until_quiet();
    let y1 = net.router(ids.y1).expect("Y1");
    assert!(y1.counters.duplicates_suppressed >= 1, "Junos Y1 must suppress");
    assert_eq!(y1.counters.duplicates_sent, 0);
}

#[test]
fn flap_cycle_returns_to_initial_state() {
    // After down→up the collector must hold the original Y:300 route
    // again: the nc updates carry real routing state, not noise.
    let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp2, VendorProfile::BIRD_2);
    net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
    net.run_until_quiet();
    let before = net
        .router(ids.c1)
        .and_then(|r| r.best_route(&lab_prefix()))
        .expect("converged route")
        .attrs
        .clone();
    net.schedule_link_down(net.now() + SimDuration::from_secs(60), ids.y1_y2);
    net.run_until_quiet();
    net.schedule_link_up(net.now() + SimDuration::from_secs(60), ids.y1_y2);
    net.run_until_quiet();
    let after = net
        .router(ids.c1)
        .and_then(|r| r.best_route(&lab_prefix()))
        .expect("recovered route")
        .attrs
        .clone();
    assert_eq!(before, after, "flap must fully heal the collector's view");
}
