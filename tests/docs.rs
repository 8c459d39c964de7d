//! The documentation's repo-wide claims that are not code, checked
//! against the files they describe: every path the README cites exists,
//! the Crate map counts the targets on disk, and `benchmark/README.md`
//! names everything `BENCHMARK.json` measures. (The README's Rust blocks
//! run as doctests of the umbrella crate; a section's own tables and
//! commands are checked by its `tests/*_readme.rs` suite.)

use std::fs;
use std::path::{Path, PathBuf};

const README: &str = "README.md";

/// (phrase after a count in the Crate map, where the counted `*.rs`
/// files live).
const TARGET_COUNTS: &[(&str, &[&str])] = &[
    (" binary target", &["crates/*/src/bin"]),
    (" integration-test suites", &["tests", "crates/*/tests"]),
    (" at the root", &["tests"]),
    (" examples", &["examples", "crates/*/examples"]),
];

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The body of one `## ` section, up to the next one.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let body = doc
        .split(&format!("\n## {heading}\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("no \"## {heading}\" section"));
    body.split("\n## ").next().unwrap()
}

/// Whether `name` matches `pattern`, where one `*` stands for any run.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
        None => pattern == name,
    }
}

/// The paths matching `pattern`, whose components may each hold one `*`.
fn expand(pattern: &str) -> Vec<PathBuf> {
    let mut paths = vec![PathBuf::new()];
    for part in pattern.split('/').filter(|p| !p.is_empty()) {
        paths = paths
            .into_iter()
            .flat_map(|dir| {
                if !part.contains('*') {
                    return vec![dir.join(part)];
                }
                let listing =
                    fs::read_dir(if dir.as_os_str().is_empty() { Path::new(".") } else { &dir });
                listing
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter(|e| glob_match(part, &e.file_name().to_string_lossy()))
                    .map(|e| dir.join(e.file_name()))
                    .collect()
            })
            .filter(|p| p.exists())
            .collect();
    }
    paths
}

/// Backticked spans outside fenced code blocks (a span may wrap lines).
fn inline_code(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let mut prose = String::new();
    for line in doc.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose.split('`').skip(1).step_by(2).map(str::to_owned).collect()
}

/// The number written just before the first `phrase` in `text`.
fn count_before(text: &str, phrase: &str) -> usize {
    let head = &text[..text.find(phrase).unwrap_or_else(|| panic!("no {phrase:?}"))];
    let digits = &head[head.trim_end_matches(|c: char| c.is_ascii_digit()).len()..];
    digits.parse().unwrap_or_else(|_| panic!("no count before {phrase:?}"))
}

#[test]
fn readme_cites_only_paths_that_exist() {
    let readme = read(README);
    let roots: Vec<String> = fs::read_dir(".")
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let mut cited = 0;
    for span in &inline_code(&readme) {
        let file_like =
            [".md", ".json", ".toml", ".yml", ".rs", ".lock"].iter().any(|x| span.ends_with(x));
        let is_path = !span.contains(char::is_whitespace)
            && match span.split_once('/') {
                Some((root, _)) => roots.iter().any(|r| r == root),
                None => file_like,
            };
        if is_path {
            cited += 1;
            assert!(!expand(span).is_empty(), "README cites `{span}`, which does not exist");
        }
    }
    assert!(cited > 20, "only {cited} repo paths found: is the scan broken?");
}

#[test]
fn crate_map_counts_match_the_tree() {
    let readme = read(README);
    let text = section(&readme, "Crate map");
    // This harness counts itself only in a tree whose README cites it, so
    // the file can be tried as is on a tree that predates it.
    let this = Path::new("tests/docs.rs");
    let cited = readme.contains("`tests/docs.rs`");
    for &(phrase, dirs) in TARGET_COUNTS {
        let on_disk = dirs
            .iter()
            .flat_map(|dir| expand(&format!("{dir}/*.rs")))
            .filter(|path| cited || path != this)
            .count();
        assert_eq!(count_before(text, phrase), on_disk, "Crate map count of{phrase}");
    }
}

#[test]
fn benchmark_readme_names_every_workload_and_metric() {
    let spec = read("BENCHMARK.json");
    let doc = read("benchmark/README.md");
    let globs: Vec<String> = inline_code(&doc)
        .into_iter()
        .filter_map(|s| s.strip_suffix('*').filter(|g| g.ends_with('_')).map(str::to_owned))
        .collect();
    let names: Vec<&str> =
        spec.split("\"name\": \"").skip(1).map(|rest| &rest[..rest.find('"').unwrap()]).collect();
    assert!(names.len() > 50, "only {} names in BENCHMARK.json", names.len());
    for name in names {
        assert!(
            doc.contains(name) || globs.iter().any(|g| name.starts_with(g)),
            "benchmark/README.md never names {name}"
        );
    }
}
