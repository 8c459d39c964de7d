//! Enforces the README's "Internet-scale simulation" section the same
//! way `tests/performance_readme.rs` enforces the Performance tables:
//! the README example (a doctest at the documented 10,000 ASes) also
//! converges at a size a debug-profile test can afford, the scaling
//! table must equal the committed `BENCH_sim.json`, and the documented
//! reproduction commands must name the binaries and gate CI actually
//! runs — so re-pinning the baseline without updating the README fails
//! here first.

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

fn with_thousands_separators(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
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

/// Pulls `(n_ases, routers, sessions, events, updates_per_sec)` out of
/// the committed baseline, in file order. The baseline is
/// machine-written single-line JSON; a tiny scan suffices (the
/// structural parser lives in `bench_gate`, which CI runs on this file).
fn committed_sim_rows(json: &str) -> Vec<[u64; 5]> {
    let mut rows = Vec::new();
    for chunk in json.split("{\"n_ases\":").skip(1) {
        let field = |key: &str| -> u64 {
            let tail = chunk.split(key).nth(1).unwrap_or_else(|| panic!("baseline has {key}"));
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("numeric field")
        };
        let n_ases: String = chunk.chars().take_while(char::is_ascii_digit).collect();
        rows.push([
            n_ases.parse().expect("n_ases"),
            field("\"routers\":"),
            field("\"sessions\":"),
            field("\"events\":"),
            field("\"updates_per_sec\":"),
        ]);
    }
    rows
}

#[test]
fn readme_scaling_table_matches_committed_baseline() {
    let section = section();
    let baseline = fs::read_to_string("BENCH_sim.json").unwrap();
    let rows = committed_sim_rows(&baseline);
    assert_eq!(rows.len(), 3, "baseline pins three internet sizes");
    assert_eq!(rows.last().map(|r| r[0]), Some(75_000), "sweep tops out at 75k ASes");
    for [n_ases, routers, sessions, events, rate] in rows {
        let row = format!(
            "| {} | {} | {} | {} | {} ev/s |",
            with_thousands_separators(n_ases),
            with_thousands_separators(routers),
            with_thousands_separators(sessions),
            with_thousands_separators(events),
            with_thousands_separators(rate),
        );
        assert!(
            section.contains(&row),
            "README internet scaling table is stale: missing \"{row}\" \
             from the committed BENCH_sim.json"
        );
    }
}

#[test]
fn readme_reproduction_commands_match_ci() {
    let section = section();
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The README documents the exact gate CI enforces, over the same
    // sizes as the committed baseline (bench_gate treats a missing
    // baseline key as a hard failure, so the sizes must agree).
    assert!(section.contains("--tolerance 0.25"), "README must state the gate tolerance");
    assert!(section.contains("--sizes 10000,25000,75000"), "README names the baseline sizes");
    assert!(
        ci.contains("bench_sim -- --sizes 10000,25000,75000"),
        "CI bench-smoke must measure the documented sizes"
    );
    assert!(
        ci.contains("for b in pipeline live corpus sim"),
        "CI bench-smoke must gate the sim baseline"
    );
    // The documented memory ceiling is the one sim-scale enforces.
    assert!(section.contains("1 GiB"), "README states the sim-scale memory ceiling");
    assert!(
        ci.contains("sim-scale") && ci.contains("ulimit -v 1048576"),
        "CI has a sim-scale job with a 1 GiB address-space cap"
    );
    // And the commands name binaries that exist in the bench crate.
    for bin in ["bench_sim", "bench_gate"] {
        assert!(section.contains(bin), "README reproduction commands mention {bin}");
        assert!(
            fs::metadata(format!("crates/bench/src/bin/{bin}.rs")).is_ok(),
            "{bin} binary exists"
        );
    }
    // The section names the tests that pin the refactor.
    for t in ["sim_invariance", "golden_lab"] {
        assert!(section.contains(t), "README names tests/{t}.rs");
        assert!(fs::metadata(format!("tests/{t}.rs")).is_ok(), "tests/{t}.rs exists");
    }
}
