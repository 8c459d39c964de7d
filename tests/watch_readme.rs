//! Enforces the README's "CommunityWatch" example, the same way
//! `tests/live_readme.rs` enforces the live snippet: the code below
//! mirrors the README block verbatim (printing replaced by assertions),
//! so a watch-API rename that would rot the documentation fails here
//! first — and the fault the snippet injects must surface as exactly
//! the typed alert the README promises, nothing more.

use keep_communities_clean::analysis::{PipelineBuilder, WatchConfig, WatchSink};
use keep_communities_clean::collector::{ArchiveSource, SessionKey, UpdateArchive};
use keep_communities_clean::types::{Asn, PathAttributes, Prefix, RouteUpdate};

#[test]
fn readme_watch_example_detects_exactly_the_injected_hijack() {
    // A collector day where AS12654 originates a beacon prefix all day…
    let cfg = WatchConfig::default(); // 15-minute windows, 2 learning windows
    let mut day = UpdateArchive::new(0);
    let key = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
    let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
    for w in 0..8u64 {
        // …except window 5, where AS64496 suddenly claims it (the fault).
        let origin = if w == 5 { 64_496 } else { 12_654 };
        let attrs = PathAttributes {
            as_path: format!("100 3356 {origin}").parse().unwrap(),
            ..Default::default()
        };
        day.record(&key, RouteUpdate::announce(w * cfg.window_us, prefix, attrs));
    }

    // The always-on service is just another sink on the one-pass
    // pipeline.
    let report = PipelineBuilder::new(ArchiveSource::new(&day))
        .sink(WatchSink::new(cfg))
        .run()
        .unwrap()
        .sink
        .finish();
    assert_eq!(report.kind_counts(), vec![("prefix-hijack", 1)]);

    // What the README prints: the stable serialized line carries the
    // window time, the severity, the offending origin and the learned
    // expectation.
    let line = report.alerts[0].to_line();
    assert!(line.starts_with(&format!("time_us={} ", 5 * cfg.window_us)), "{line}");
    assert!(line.contains("severity=critical"), "{line}");
    assert!(line.contains("kind=prefix-hijack"), "{line}");
    assert!(line.contains("prefix=84.205.64.0/24"), "{line}");
    assert!(line.contains("AS64496"), "{line}");
    assert!(line.contains("expected AS12654"), "{line}");

    // Determinism: the same day replayed yields byte-identical lines.
    let again = PipelineBuilder::new(ArchiveSource::new(&day))
        .sink(WatchSink::new(cfg))
        .run()
        .unwrap()
        .sink
        .finish();
    let lines: Vec<String> = report.alerts.iter().map(|a| a.to_line()).collect();
    let again_lines: Vec<String> = again.alerts.iter().map(|a| a.to_line()).collect();
    assert_eq!(lines, again_lines);
}
