//! Enforces the README's "Performance" section: the commands it documents
//! are the ones the `bench-pair` CI job runs, and the files they name
//! exist — so the gate cannot change without the README (or vice versa)
//! failing here first.

use std::fs;

#[test]
fn readme_reproduction_commands_match_ci_gate() {
    let readme = fs::read_to_string("README.md").unwrap();
    let section = readme
        .split("## Performance")
        .nth(1)
        .expect("README has a Performance section")
        .split("\n## ")
        .next()
        .unwrap();
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The paired gate: the README names the script CI calls.
    assert!(section.contains("ci/bench-pair.sh HEAD~1"), "README shows how to run the gate");
    assert!(
        ci.contains("bench-pair:") && ci.contains("run: ci/bench-pair.sh"),
        "CI has a bench-pair job that calls ci/bench-pair.sh"
    );
    assert!(ci.contains("fetch-depth: 0"), "the bench-pair job can check the parent out");
    for path in ["ci/bench-pair.sh", "ci/bench-compare.jq", "BENCHMARK.json"] {
        assert!(section.contains(path), "README Performance section names {path}");
        assert!(fs::metadata(path).is_ok(), "{path} exists");
    }
    let fixtures: Vec<String> = fs::read_dir("ci/bench-pair-fixtures")
        .expect("comparator fixtures")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(fixtures.iter().any(|f| f.starts_with("pass-")), "a fixture the comparator passes");
    assert!(fixtures.iter().any(|f| f.starts_with("fail-")), "a fixture the comparator fails");

    // The profiling cost cap: the README's command is CI's.
    let command = "cargo test --release -p kcc_bench --test profile_overhead -- --ignored";
    assert!(section.contains(command), "README shows the profile-overhead command");
    assert!(ci.contains(command), "CI runs the profile-overhead test optimised");
    assert!(fs::metadata("crates/bench/tests/profile_overhead.rs").is_ok());
}
