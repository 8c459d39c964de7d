//! Holds the README's "Streaming pipeline" example to what its prose
//! claims. The README block itself runs as a doctest of the umbrella
//! crate; this test replays the same setup (printing replaced by
//! assertions) and checks the results against the batch wrappers they
//! claim to generalize.

use keep_communities_clean::analysis::pipeline::PipelineBuilder;
use keep_communities_clean::analysis::table::{overview, OverviewSink, TypeShares};
use keep_communities_clean::analysis::{
    classify_archive, CleaningConfig, CleaningStage, CountsSink, MrtSource,
};
use keep_communities_clean::collector::UpdateArchive;
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};

#[test]
fn readme_streaming_example_runs_and_matches_batch() {
    // Any update source works; here: raw MRT bytes, streamed
    // record-at-a-time.
    let cfg = Mar20Config { target_announcements: 20_000, ..Default::default() };
    let day = generate_mar20(&cfg);
    let mut bytes = Vec::new();
    day.archive.write_mrt(&mut bytes).unwrap();

    // One pass on the calling thread: §4 cleaning runs as a stage, and
    // both sinks see every surviving update.
    let out = PipelineBuilder::new(MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds))
        .stages(CleaningStage::new(&day.registry, CleaningConfig::default()))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .unwrap();
    let (counts, overview_sink) = out.sink;
    let counts = counts.finish();
    let stats = overview_sink.finish();
    assert!(!stats.render("Table 1").is_empty());
    assert!(!TypeShares::new(vec![("d_mar20".into(), counts)]).render().is_empty());
    assert!(out.stats.peak_state_bytes > 0);
    assert!(out.stats.streams > 0);

    // The streamed single-pass results equal the batch path over the
    // same bytes (read whole archive → clean in place → classify). Both
    // sides see the same MRT-visible metadata (MRT cannot carry the
    // route-server flag; `MrtSource::with_route_servers` restores it
    // when peer lists are available).
    let mut archive = UpdateArchive::read_mrt(&bytes[..], "rrc00", cfg.epoch_seconds).unwrap();
    keep_communities_clean::analysis::clean_archive(
        &mut archive,
        &day.registry,
        &CleaningConfig::default(),
    );
    assert_eq!(classify_archive(&archive).counts, counts, "streaming != batch");
    assert_eq!(overview(&archive), stats, "streaming overview != batch overview");
}
