//! Enforces the README's "Live collection" example, the same way
//! `tests/pipeline_readme.rs` enforces the streaming snippet: the code
//! below mirrors the README block verbatim (printing replaced by
//! assertions), so a live-API rename that would rot the documentation
//! fails here first — and the snippet's live results are checked against
//! the offline path they claim to equal.

use keep_communities_clean::analysis::pipeline::PipelineBuilder;
use keep_communities_clean::analysis::table::{OverviewSink, TypeShares};
use keep_communities_clean::analysis::CountsSink;
use keep_communities_clean::collector::ArchiveSource;
use keep_communities_clean::peer::{
    offline_reference, Collector, CollectorConfig, FloodOptions, FloodPlan, FloodRig, StampMode,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::Asn;

#[test]
fn readme_live_example_runs_and_matches_offline() {
    // A live collector daemon on a loopback socket. `Logical` stamping
    // makes replays deterministic; a real deployment uses
    // `StampMode::Arrival`.
    let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let source = collector.take_source();
    let stop = source.shutdown_flag();

    // Replayed peers: every session of a small generated collector day
    // dials in, all at once, and speaks real BGP — OPEN, capability
    // negotiation, KEEPALIVEs, UPDATEs, Cease.
    let mut gen = Mar20Config { target_announcements: 2_000, ..Default::default() };
    gen.universe.n_sessions = 24;
    gen.universe.n_prefixes_v4 = 200;
    let day = generate_mar20(&gen);
    let plan = FloodPlan::from_archive(&day.archive, 90);
    let rig = FloodRig::connect(collector.local_addr(), plan, FloodOptions::default()).unwrap();
    rig.stream().unwrap();
    collector.shutdown();
    let stats = collector.join();
    assert_eq!(stats.updates, day.archive.update_count() as u64);

    // The live feed drives the same one-pass pipeline as any offline
    // source; `.shutdown(&stop)` makes the run drain-and-finish on
    // trigger.
    let out = PipelineBuilder::new(source)
        .sink((CountsSink::default(), OverviewSink::default()))
        .shutdown(&stop)
        .run()
        .unwrap();
    let (counts, overview) = out.sink;
    let counts = counts.finish();
    let overview = overview.finish();
    assert!(!overview.render("Table 1 — live").is_empty());
    assert!(!TypeShares::new(vec![("live".into(), counts)]).render().is_empty());

    // What the README asserts in prose: the live results equal the
    // offline ArchiveSource analysis of the same update set (under the
    // daemon's stamping/metadata rules, which `offline_reference`
    // computes).
    let reference = offline_reference(&day.archive, &cfg);
    let offline = PipelineBuilder::new(ArchiveSource::new(&reference))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .unwrap();
    let (off_counts, off_overview) = offline.sink;
    assert_eq!(counts, off_counts.finish(), "README's live counts != offline");
    assert_eq!(overview, off_overview.finish(), "README's live overview != offline");
}
