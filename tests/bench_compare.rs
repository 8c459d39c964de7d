//! Runs `ci/bench-compare.jq`, the verdict of `ci/bench-pair.sh`, over
//! the committed fixture result sets in `ci/bench-pair-fixtures/`, with
//! the real bounds and directions of `BENCHMARK.json`: a set within the
//! bounds passes, and each broken set fails by the verdict it names —
//! never by a broken comparator, and a missing result line is never a
//! skip. The script runs the same self-check before it builds anything.

use std::process::Command;

/// The comparator's exit status and its stdout (the markdown table and
/// the verdict line) on one fixture.
fn compare(fixture: &str) -> (bool, String) {
    let out = Command::new("jq")
        .args(["-r", "-s", "--slurpfile", "spec", "BENCHMARK.json", "-f", "ci/bench-compare.jq"])
        .arg(format!("ci/bench-pair-fixtures/{fixture}.jsonl"))
        .output()
        .expect("jq runs the comparator");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 table"))
}

/// A fixture the comparator must fail, by its own verdict line rather
/// than by a jq error before the table is printed.
fn fails(fixture: &str) -> String {
    let (ok, table) = compare(fixture);
    assert!(!ok, "{fixture}: the comparator passed a set it must fail:\n{table}");
    assert!(table.contains("verdict: FAIL"), "{fixture}: no FAIL verdict:\n{table}");
    table
}

#[test]
fn comparator_passes_a_change_within_every_bound() {
    let (ok, table) = compare("pass-within-bounds");
    assert!(ok, "pass-within-bounds failed:\n{table}");
    assert!(table.contains("verdict: pass"), "no pass verdict:\n{table}");
    assert!(!table.contains("WORSE") && !table.contains("MISSING"), "{table}");
    // The set covers every workload BENCHMARK.json names, on both sides,
    // so a passing fixture cannot pass by leaving a workload out.
    let names = Command::new("jq")
        .args(["-r", ".workloads[].name", "BENCHMARK.json"])
        .output()
        .expect("jq lists the workloads");
    let names = String::from_utf8(names.stdout).unwrap();
    assert_eq!(names.lines().count(), 5, "BENCHMARK.json names five workloads");
    let fixture =
        std::fs::read_to_string("ci/bench-pair-fixtures/pass-within-bounds.jsonl").unwrap();
    for name in names.lines() {
        for side in ["parent", "change"] {
            let tag = format!("\"workload\":\"{name}\",\"side\":\"{side}\"");
            assert!(fixture.contains(&tag), "pass-within-bounds has no {side} run of {name}");
        }
    }
}

#[test]
fn comparator_fails_a_higher_is_better_metric_30pct_worse() {
    let table = fails("fail-higher-30pct-worse");
    assert!(table.contains("| offline-day | updates_per_s |"), "{table}");
    assert!(table.contains("| +30% | 25% | WORSE |"), "{table}");
}

#[test]
fn comparator_fails_a_lower_is_better_metric_30pct_worse() {
    let table = fails("fail-lower-30pct-worse");
    assert!(table.contains("| watch-day | peak_rss_bytes |"), "{table}");
    assert!(table.contains("| +30% | 25% | WORSE |"), "{table}");
}

#[test]
fn comparator_fails_a_run_with_a_failed_operation() {
    let table = fails("fail-failed-run");
    assert!(table.contains("failed run: live-flood change pair 0:"), "{table}");
    assert!(table.contains("failed 1"), "{table}");
}

#[test]
fn comparator_fails_a_workload_without_a_result_line() {
    let table = fails("fail-missing-result-line");
    assert!(table.contains("failed run: sim-internet change: no runs"), "{table}");
    assert!(
        table.contains("| sim-internet | updates_per_s | - | - | - | 25% | MISSING |"),
        "{table}"
    );
}
