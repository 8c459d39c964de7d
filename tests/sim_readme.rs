//! Enforces the README's "Internet-scale simulation" section the same
//! way `tests/performance_readme.rs` enforces the Performance section:
//! the README example (a doctest at the documented 10,000 ASes) also
//! converges at a size a debug-profile test can afford, and the section
//! names the workload and the memory cap CI actually runs — so changing
//! either without updating the README fails here first.

use std::fs;

use keep_communities_clean::sim::{Network, SimConfig, SimTime};
use keep_communities_clean::topology::gen::BEACON_ORIGIN_ASN;
use keep_communities_clean::topology::{generate_internet, InternetConfig, RouterId};
use keep_communities_clean::types::Asn;

/// The README example, compiled and run at a size small enough for a
/// debug-profile test (the API is identical; only `sized`'s argument
/// differs from the documented 10,000).
#[test]
fn readme_internet_example_runs_and_converges() {
    let topo = generate_internet(&InternetConfig::sized(600, 42));
    let mut net = Network::from_topology(&topo, SimConfig::default());

    let (collector, _) = net.attach_collector(
        Asn(3333),
        &[RouterId { asn: Asn(20_000), index: 0 }, RouterId { asn: Asn(20_001), index: 0 }],
    );

    let origin = RouterId { asn: BEACON_ORIGIN_ASN, index: 0 };
    net.schedule_announce(SimTime::ZERO, origin, "84.205.64.0/24".parse().unwrap());
    let quiet_at = net.run_until_quiet();

    assert!(quiet_at > SimTime::ZERO, "convergence takes simulated time");
    assert!(net.stats.events_processed > 0);
    let capture = net.capture(collector).expect("collector records");
    assert!(!capture.entries().is_empty(), "beacon announcement reaches the collector");
    assert!(net.attr_store().bytes() > 0, "converged RIBs hold interned attributes");
}

fn section() -> String {
    let readme = fs::read_to_string("README.md").unwrap();
    readme
        .split("## Internet-scale simulation")
        .nth(1)
        .expect("README has an Internet-scale simulation section")
        .split("\n## ")
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn readme_reproduction_commands_match_ci() {
    let section = section();
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The simulator's speed is benchmark/'s sim-internet workload, and
    // the documented memory ceiling is the one sim-scale enforces on it.
    assert!(section.contains("sim-internet"), "README names the sim-internet workload");
    assert!(section.contains("ci/bench-pair.sh"), "README points at the paired gate");
    assert!(section.contains("1 GiB"), "README states the sim-scale memory ceiling");
    assert!(
        ci.contains("sim-scale")
            && ci.contains("ulimit -v 1048576")
            && ci.contains("kcc_benchmark run --workload sim-internet --seed 42"),
        "CI has a sim-scale job running sim-internet under a 1 GiB address-space cap"
    );
    // The section names the tests that pin the refactor.
    for t in ["sim_invariance", "golden_lab"] {
        assert!(section.contains(t), "README names tests/{t}.rs");
        assert!(fs::metadata(format!("tests/{t}.rs")).is_ok(), "tests/{t}.rs exists");
    }
}
