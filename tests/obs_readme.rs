//! Holds the README's "Observability" section to what it claims. The
//! README block itself runs as a doctest of the umbrella crate; this
//! test replays it and checks the exposition lines of all three metric
//! kinds and the byte-identity the prose promises, and the section's
//! scrape surfaces are checked against the tree.

use keep_communities_clean::obs::Registry;

#[test]
fn readme_observability_example_renders_exactly_as_documented() {
    // Register once up front; the handles are Arc-shared atomics.
    let registry = Registry::new();
    let ingested = registry.counter("kcc_ingest_updates_total");
    let depth = registry.gauge("kcc_reactor_write_queue_peak_bytes");
    let stage = registry.histogram("kcc_pipeline_stage_nanos");
    let alerts = registry.counter_with("kcc_watch_alerts_total", &[("kind", "prefix-hijack")]);

    // Hot path: no locks, no allocation.
    ingested.add(3);
    depth.set_max(512);
    stage.observe(1_250);
    alerts.inc();

    // Prometheus text exposition — deterministically name- and
    // label-sorted, so equal data always renders byte-identically.
    let text = registry.render();
    assert!(text.contains("# TYPE kcc_ingest_updates_total counter"), "{text}");
    assert!(text.contains("kcc_ingest_updates_total 3"), "{text}");
    assert!(text.contains("kcc_watch_alerts_total{kind=\"prefix-hijack\"} 1"), "{text}");

    // Beyond the snippet: the other two kinds render too, and the
    // documented byte-identity holds for a second registry fed the
    // same data in a different order.
    assert!(text.contains("# TYPE kcc_reactor_write_queue_peak_bytes gauge"), "{text}");
    assert!(text.contains("kcc_reactor_write_queue_peak_bytes 512"), "{text}");
    assert!(text.contains("# TYPE kcc_pipeline_stage_nanos histogram"), "{text}");

    let again = Registry::new();
    again.counter_with("kcc_watch_alerts_total", &[("kind", "prefix-hijack")]).inc();
    again.histogram("kcc_pipeline_stage_nanos").observe(1_250);
    again.gauge("kcc_reactor_write_queue_peak_bytes").set_max(512);
    again.counter("kcc_ingest_updates_total").add(3);
    assert_eq!(again.render(), text);
}

/// The README names the real scrape surfaces; hold it to that.
#[test]
fn readme_observability_section_names_real_surfaces() {
    let readme = std::fs::read_to_string("README.md").unwrap();
    let section = readme
        .split("## Observability")
        .nth(1)
        .expect("README has an Observability section")
        .split("\n## ")
        .next()
        .unwrap();

    for needle in
        ["`metrics` command", "--profile-every", "--metrics-out", "daemon-soak", "bench-pair"]
    {
        assert!(section.contains(needle), "Observability section lost {needle:?}");
    }
    // The determinism tests it cites exist.
    for path in ["crates/obs/tests/render_props.rs", "tests/obs_determinism.rs"] {
        assert!(section.contains(path), "Observability section must cite {path}");
        assert!(std::fs::metadata(path).is_ok(), "{path} exists");
    }
}
