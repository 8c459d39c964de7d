//! Holds the README's "Multi-collector corpus" example to what its prose
//! claims. The README block itself runs as a doctest of the umbrella
//! crate; this test replays the same setup (printing replaced by
//! assertions) and checks the combined result against the
//! single-pipeline pass it claims to generalize.

use keep_communities_clean::analysis::corpus::{corpus_sink, run_corpus_report};
use keep_communities_clean::analysis::{CleaningConfig, CleaningStage, PipelineBuilder};
use keep_communities_clean::tracegen::{
    multi_vantage_corpus, Mar20Config, Mar20Source, MultiVantageConfig,
};

#[test]
fn readme_corpus_example_runs_and_matches_single_pipeline() {
    // The same generated day observed from K collectors: each vantage
    // gets its own session subset, and any collector can be forced to
    // second-granularity timestamps (RIS's mixed-granularity fleet).
    let cfg = MultiVantageConfig {
        base: Mar20Config { target_announcements: 20_000, ..Default::default() },
        force_second_granularity: vec!["rrc00".into()],
    };
    let (corpus, registry) = multi_vantage_corpus(&cfg).unwrap();

    // One full pipeline per collector (§4 cleaning applied per
    // collector), 4 worker threads, merged in name order.
    let report = run_corpus_report(corpus, 4, &registry, CleaningConfig::default()).unwrap();
    assert!(!report.render().is_empty());
    let (total, unanimous, disputed) = report.agreement_summary();
    assert!(total > 0, "the generated day must carry communities");
    assert!(unanimous <= total && disputed <= total);
    assert_eq!(report.collector_count(), cfg.base.universe.n_collectors);
    let forced = report.collectors.iter().find(|c| c.name == "rrc00").unwrap();
    assert!(
        forced.cleaning.sessions_normalized > 0,
        "the forced second-granularity vantage must hit the normalization stage"
    );

    // The combined all-vantage result equals one pipeline over the
    // unsplit day when no vantage re-truncates timestamps — the corpus
    // is a true partition of the generated flood.
    let untruncated =
        MultiVantageConfig { base: cfg.base.clone(), force_second_granularity: Vec::new() };
    let (corpus, registry) = multi_vantage_corpus(&untruncated).unwrap();
    let combined = run_corpus_report(corpus, 4, &registry, CleaningConfig::default()).unwrap();
    let single = PipelineBuilder::new(Mar20Source::new(&untruncated.base))
        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
        .sink(corpus_sink())
        .run()
        .unwrap();
    let (overview, counts, communities) = single.sink;
    assert_eq!(combined.combined_overview, overview.finish(), "corpus != single pipeline");
    assert_eq!(combined.combined_counts, counts.finish());
    let all: std::collections::BTreeSet<_> =
        combined.collectors.iter().flat_map(|c| c.communities.iter().copied()).collect();
    assert_eq!(all, communities.finish());
}
