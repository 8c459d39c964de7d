//! Package-local checks: inputs are a function of the seed, the build
//! settings are the repository's, the catalogue and `BENCHMARK.json`
//! agree, the harness leans on nothing the roadmap wants deleted, and
//! every workload runs end to end in quick mode.

use std::path::{Path, PathBuf};

use kcc_benchmark::inputs::{day_config, Day};
use kcc_benchmark::json::Json;
use kcc_benchmark::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use kcc_benchmark::workloads::{self, RunOpts, RUN_SECONDS};
use kcc_topology::{generate_internet, InternetConfig};

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn same_seed_gives_same_inputs_and_another_seed_differs() {
    let day = |seed| Day::generate(&day_config(seed, 5_000), 0);
    let (a, b, c) = (day(7), day(7), day(8));
    assert_eq!((a.digest(), a.updates), (b.digest(), b.updates));
    assert_ne!(a.digest(), c.digest());

    let edges = |seed| generate_internet(&InternetConfig::sized(600, seed)).edges().len();
    assert_eq!(edges(7), edges(7));
    assert_ne!(edges(7), edges(8));
}

/// The `[profile.release]` table of a manifest: its non-blank,
/// non-comment lines up to the next table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_owned())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let ours = release_profile(&read(&package_dir().join("Cargo.toml")));
    let roots = release_profile(&read(&package_dir().join("../Cargo.toml")));
    assert!(!roots.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(ours, roots);
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// ROADMAP item 3 wants these gone; a benchmark that called them would
/// freeze them in place.
#[test]
fn harness_names_no_deletion_candidate() {
    const CANDIDATES: [&str; 12] = [
        "run_pipeline",
        "run_live",
        "run_sharded",
        "run_corpus",
        "classify_archive",
        "classify_session",
        "feed_classified",
        "ArchiveSource",
        "AnomalySink",
        "MessageReader",
        "PollPoller",
        "kcc_bench",
    ];
    let mut files = vec![package_dir().join("Cargo.toml")];
    rust_sources(&package_dir().join("src"), &mut files);
    assert!(files.len() > 10, "sources not found");
    for file in files {
        let text = read(&file);
        for name in CANDIDATES {
            // Whole identifiers only: `kcc_benchmark` is this package.
            let hit = text.match_indices(name).any(|(at, _)| {
                let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
                !text[..at].chars().next_back().is_some_and(ident)
                    && !text[at + name.len()..].chars().next().is_some_and(ident)
            });
            assert!(!hit, "{} names {name}", file.display());
        }
    }
}

fn metric_rows(list: &Json, bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            let Json::Obj(members) = m else { panic!("metric is not an object") };
            assert_eq!(members.len(), if bounded { 4 } else { 3 }, "keys of {}", text("name"));
            (text("name"), text("unit"), text("better"), m.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

fn catalogue_rows(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.word().to_owned(), d.bound))
        .collect()
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let json = Json::parse(&read(&package_dir().join("../BENCHMARK.json"))).expect("valid JSON");
    let Json::Obj(top) = &json else { panic!("not an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);

    assert_eq!(metric_rows(&top["end_to_end"], true), catalogue_rows(END_TO_END));
    assert_eq!(metric_rows(&top["per_layer"], false), catalogue_rows(PER_LAYER));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(END_TO_END[0].bound, Some(widest), "setup_s carries the widest bound");

    let listed: Vec<(&str, &str)> = top["workloads"]
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap(),
                w.get("why").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    assert!(ours.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    assert_eq!(top["run_seconds"].as_f64(), Some(RUN_SECONDS));
    assert_eq!(top["paths"], Json::Arr(vec![Json::Str("benchmark".to_owned())]));
    let command: Vec<&str> =
        top["command"].as_arr().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(
        command,
        [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run"
        ]
    );
}

/// All five workloads, quick and traced, in this process: nothing
/// fails, every gated metric is positive, both result lines parse.
#[test]
fn quick_smoke_of_every_workload() {
    let opts = RunOpts { seed: 42, seconds: 1.0, traced: true, quick: true };
    for workload in workloads::ALL {
        let outcome = (workload.run)(&opts);
        let report = outcome.render(workload.name);
        assert!(outcome.attempted > 0, "{report}");
        assert_eq!(outcome.failed, 0, "{report}");
        for def in END_TO_END {
            assert!(outcome.get(def.name) > 0.0, "{} is not positive\n{report}", def.name);
        }
        for traced in [false, true] {
            let line = Json::parse(&outcome.result_line(traced)).expect("result line parses");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{report}");
        }
    }
}
