//! Enforces the README's "Performance" section the same way
//! `tests/pipeline_readme.rs` enforces the streaming snippet: the
//! trajectory table's "now" column must equal the committed
//! `BENCH_pipeline.json` streaming figures, and the documented
//! reproduction commands must name the tolerance the `bench-smoke` CI
//! job actually gates on — so re-pinning the baseline without updating
//! the README (or vice versa) fails here first.

use std::fs;

/// Pulls every `"updates_per_sec":<digits>` value out of the streaming
/// objects of the committed baseline, in file order. The baseline is
/// machine-written single-line JSON; a tiny scan is enough here (the
/// structural parser lives in `bench_gate`, which CI runs against the
/// same file).
fn committed_streaming_rates(json: &str) -> Vec<u64> {
    let mut rates = Vec::new();
    for chunk in json.split("\"streaming\":").skip(1) {
        let tail = chunk.split("\"updates_per_sec\":").nth(1).expect("streaming rate");
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        rates.push(digits.parse().expect("numeric rate"));
    }
    rates
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

#[test]
fn readme_performance_table_matches_committed_baseline() {
    let readme = fs::read_to_string("README.md").unwrap();
    let section = readme
        .split("## Performance")
        .nth(1)
        .expect("README has a Performance section")
        .split("\n## ")
        .next()
        .unwrap();

    let baseline = fs::read_to_string("BENCH_pipeline.json").unwrap();
    let rates = committed_streaming_rates(&baseline);
    assert_eq!(rates.len(), 2, "baseline pins two day sizes");
    for rate in rates {
        let figure = format!("{} upd/s", with_thousands_separators(rate));
        assert!(
            section.contains(&figure),
            "README Performance table is stale: missing \"{figure}\" \
             from the committed BENCH_pipeline.json"
        );
    }
}

/// Pulls `(peers, updates_per_sec)` pairs out of the committed live
/// scaling baseline, in sweep order.
fn committed_live_points(json: &str) -> Vec<(u64, u64)> {
    let mut points = Vec::new();
    for chunk in json.split("{\"peers\":").skip(1) {
        let peers: String = chunk.chars().take_while(char::is_ascii_digit).collect();
        let tail = chunk.split("\"updates_per_sec\":").nth(1).expect("live rate");
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        points.push((peers.parse().expect("peer count"), digits.parse().expect("numeric rate")));
    }
    points
}

#[test]
fn readme_live_scaling_table_matches_committed_baseline() {
    let readme = fs::read_to_string("README.md").unwrap();
    let section = readme
        .split("## Performance")
        .nth(1)
        .expect("README has a Performance section")
        .split("\n## ")
        .next()
        .unwrap();

    let baseline = fs::read_to_string("BENCH_live.json").unwrap();
    let points = committed_live_points(&baseline);
    assert_eq!(points.len(), 4, "baseline pins four sweep points");
    assert_eq!(points.last().map(|&(p, _)| p), Some(5_000), "sweep tops out at 5k sessions");
    for (peers, rate) in points {
        let row = format!(
            "| {} | {} upd/s |",
            with_thousands_separators(peers),
            with_thousands_separators(rate)
        );
        assert!(
            section.contains(&row),
            "README live scaling table is stale: missing \"{row}\" \
             from the committed BENCH_live.json"
        );
    }
}

#[test]
fn readme_reproduction_commands_match_ci_gate() {
    let readme = fs::read_to_string("README.md").unwrap();
    let section = readme.split("## Performance").nth(1).unwrap();
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The README documents the exact gate CI enforces.
    assert!(section.contains("--tolerance 0.25"), "README must state the gate tolerance");
    assert!(
        section.contains("--overhead-cap 2"),
        "README must state the absolute instrumentation-overhead cap"
    );
    assert!(
        ci.contains("--tolerance 0.25 --overhead-cap 2 --summary"),
        "CI bench-smoke must gate at the documented tolerance and overhead cap \
         and publish delta tables"
    );
    assert!(
        ci.contains("for b in pipeline live corpus sim"),
        "CI bench-smoke must gate all four committed baselines"
    );
    // And the commands name binaries that exist in the bench crate.
    for bin in ["bench_pipeline", "bench_gate"] {
        assert!(section.contains(bin), "README reproduction commands mention {bin}");
        assert!(
            fs::metadata(format!("crates/bench/src/bin/{bin}.rs")).is_ok(),
            "{bin} binary exists"
        );
    }
}
