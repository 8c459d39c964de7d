//! Multi-collector corpus engine: determinism, equivalence with the
//! single pipeline, and the pinned cross-collector report.
//!
//! The engine's contract is that a corpus run is a *pure function of
//! the member set*: collector insertion order and worker thread count
//! must not change one byte of any per-collector or combined result.
//! These tests pin that contract three ways — a property test over
//! shuffled member orders and thread counts, a byte-identity check of a
//! single-member corpus against one plain pipeline, and a golden fixture of
//! the full rendered cross-collector report for the generated mar20
//! multi-vantage day (`GOLDEN_REGEN=1 cargo test --test corpus` to
//! regenerate after an intentional change).

use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::analysis::corpus::{corpus_sink, run_corpus_report, CorpusSink};
use keep_communities_clean::analysis::table::OverviewSink;
use keep_communities_clean::analysis::{
    CleaningConfig, CleaningStage, Corpus, CountsSink, Merge, PipelineBuilder, PipelineOutput,
};
use keep_communities_clean::collector::{ArchiveSource, SessionKey, UpdateArchive};
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{
    vantage_names, Mar20Config, Mar20Source, MultiVantageConfig, VantageSource,
};
use keep_communities_clean::types::{
    Asn, Community, CommunitySet, PathAttributes, Prefix, RouteUpdate,
};

/// A small deterministic per-collector archive: `variant` perturbs
/// paths/communities so collectors genuinely disagree.
fn collector_archive(collector: &str, variant: u64) -> UpdateArchive {
    let mut a = UpdateArchive::new(0);
    let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
    let other: Prefix = "84.205.65.0/24".parse().unwrap();
    for peer in 0..4u32 {
        let key = SessionKey::new(
            collector,
            Asn(100 + peer),
            format!("10.9.{}.{}", variant % 200, peer + 1).parse().unwrap(),
        );
        for i in 0..12u64 {
            let attrs = PathAttributes {
                as_path: format!("{} 3356 12654", 100 + peer).parse().unwrap(),
                communities: CommunitySet::from_classic([Community::from_parts(
                    3356,
                    ((i + variant) % 5) as u16,
                )]),
                ..Default::default()
            };
            a.record(&key, RouteUpdate::announce(i, prefix, attrs));
        }
        a.record(&key, RouteUpdate::withdraw(50 + variant, other));
    }
    a
}

type Sinks = (OverviewSink, CountsSink);

fn sinks() -> Sinks {
    (OverviewSink::default(), CountsSink::default())
}

fn finish(s: Sinks) -> (String, String) {
    let (overview, counts) = s;
    (
        overview.finish().render("Table 1"),
        keep_communities_clean::analysis::TypeShares::new(vec![("d".into(), counts.finish())])
            .render(),
    )
}

proptest! {
    /// A corpus run over K shuffled collectors equals the serial
    /// per-collector runs merged in name order, for any insertion order
    /// and thread count.
    #[test]
    fn corpus_equals_serial_merge_under_shuffle(
        rotation in 0usize..6,
        swap in any::<bool>(),
        threads in 1usize..6,
        variants in vec(0u64..40, 4..5),
    ) {
        let names = ["rrc10", "rrc04", "route-views3", "rrc21"];
        let archives: Vec<UpdateArchive> = names
            .iter()
            .zip(&variants)
            .map(|(n, &v)| collector_archive(n, v))
            .collect();

        // Serial reference: one plain pipeline per collector, merged in
        // sorted-name order.
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by_key(|&i| names[i]);
        let mut serial_combined: Option<Sinks> = None;
        let mut serial_per: Vec<(String, PipelineOutput<(), Sinks>)> = Vec::new();
        for &i in &order {
            let out =
                PipelineBuilder::new(ArchiveSource::new(&archives[i])).sink(sinks()).run().unwrap();
            match &mut serial_combined {
                None => serial_combined = Some(out.sink.clone()),
                Some(c) => c.merge(out.sink.clone()),
            }
            serial_per.push((names[i].to_string(), out));
        }
        let serial_combined = serial_combined.unwrap();

        // Shuffled corpus run.
        let mut insertion: Vec<usize> = (0..names.len()).collect();
        insertion.rotate_left(rotation % names.len());
        if swap {
            insertion.swap(0, names.len() - 1);
        }
        let mut corpus = Corpus::new();
        for &i in &insertion {
            corpus.push(names[i], ArchiveSource::new(&archives[i])).unwrap();
        }
        let out = PipelineBuilder::collectors(corpus)
            .threads(threads)
            .sinks_for(|_: &str| sinks())
            .run()
            .unwrap();

        prop_assert_eq!(finish(out.combined), finish(serial_combined));
        prop_assert_eq!(out.per_collector.len(), serial_per.len());
        for ((name, got), (ref_name, reference)) in
            out.per_collector.into_iter().zip(serial_per)
        {
            prop_assert_eq!(&name, &ref_name);
            prop_assert_eq!(got.stats, reference.stats);
            prop_assert_eq!(finish(got.sink), finish(reference.sink));
        }
    }

    /// A single-collector corpus is byte-identical to `Pipeline::run`
    /// over that source — same rendered tables, same stats.
    #[test]
    fn single_collector_corpus_is_byte_identical_to_run(variant in 0u64..200) {
        let a = collector_archive("rrc00", variant);
        let direct = PipelineBuilder::new(ArchiveSource::new(&a)).sink(sinks()).run().unwrap();
        let corpus = Corpus::new().with("rrc00", ArchiveSource::new(&a)).unwrap();
        let out = PipelineBuilder::collectors(corpus)
            .threads(3)
            .sinks_for(|_: &str| sinks())
            .run()
            .unwrap();
        prop_assert_eq!(out.stats, direct.stats);
        let (direct_t1, direct_t2) = finish(direct.sink);
        let (combined_t1, combined_t2) = finish(out.combined);
        prop_assert_eq!(&combined_t1, &direct_t1);
        prop_assert_eq!(&combined_t2, &direct_t2);
        let (_, only) = out.per_collector.into_iter().next().unwrap();
        let (per_t1, per_t2) = finish(only.sink);
        prop_assert_eq!(&per_t1, &direct_t1);
        prop_assert_eq!(&per_t2, &direct_t2);
    }
}

/// The generated mar20 day, as a 3-vantage corpus with one collector
/// forced to second granularity — the fixture workload.
fn mar20_corpus_cfg() -> MultiVantageConfig {
    let base = Mar20Config {
        target_announcements: 6_000,
        universe: UniverseConfig {
            n_collectors: 3,
            n_peers: 9,
            n_sessions: 18,
            n_prefixes_v4: 150,
            n_prefixes_v6: 15,
            ..Default::default()
        },
        ..Default::default()
    };
    let names = vantage_names(&base);
    MultiVantageConfig { base, force_second_granularity: vec![names[0].clone()] }
}

fn mar20_report() -> keep_communities_clean::analysis::CorpusReport {
    let cfg = mar20_corpus_cfg();
    let mut corpus = Corpus::new();
    let mut registry = None;
    for name in vantage_names(&cfg.base) {
        let v = VantageSource::new(&cfg, &name);
        if registry.is_none() {
            registry = Some(v.registry().clone());
        }
        corpus.push(&name, v).unwrap();
    }
    run_corpus_report(corpus, 2, &registry.unwrap(), CleaningConfig::default()).unwrap()
}

/// The cross-collector report for the generated mar20 day, pinned.
#[test]
fn mar20_corpus_report_matches_committed_fixture() {
    let rendered = mar20_report().render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_corpus.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with GOLDEN_REGEN=1 cargo test --test corpus",
            path.display()
        )
    });
    if committed != rendered {
        let first_diff = committed
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first differing line {}:\n  -{a}\n  +{b}", i + 1))
            .unwrap_or_else(|| "one report is a prefix of the other".into());
        panic!("corpus report drifted from the committed fixture\n{first_diff}");
    }
}

/// The same report is byte-identical for any thread count and member
/// insertion order — the tentpole's determinism acceptance, on the real
/// generated workload.
#[test]
fn mar20_corpus_report_is_order_and_thread_independent() {
    let reference = mar20_report().render();
    let cfg = mar20_corpus_cfg();
    let mut names = vantage_names(&cfg.base);
    names.reverse();
    for threads in [1, 5] {
        let mut corpus = Corpus::new();
        let mut registry = None;
        for name in &names {
            let v = VantageSource::new(&cfg, name);
            if registry.is_none() {
                registry = Some(v.registry().clone());
            }
            corpus.push(name, v).unwrap();
        }
        let report =
            run_corpus_report(corpus, threads, &registry.unwrap(), CleaningConfig::default())
                .unwrap();
        assert_eq!(report.render(), reference, "threads={threads} reversed order diverged");
    }
}

/// The combined all-vantage corpus result equals one pipeline over the
/// unsplit day: the vantages are a true partition.
#[test]
fn mar20_corpus_combined_equals_unsplit_day() {
    let mut cfg = mar20_corpus_cfg();
    cfg.force_second_granularity.clear(); // identical data on both paths
    let (corpus, registry) = keep_communities_clean::tracegen::multi_vantage_corpus(&cfg).unwrap();
    let corpus_out = PipelineBuilder::collectors(corpus)
        .threads(3)
        .stages_for(|_: &str| CleaningStage::new(&registry, CleaningConfig::default()))
        .sinks_for(|_: &str| corpus_sink())
        .run()
        .unwrap();

    let single = PipelineBuilder::new(Mar20Source::new(&cfg.base))
        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
        .sink(corpus_sink())
        .run()
        .unwrap();

    let (c_overview, c_counts, c_comms) = corpus_out.combined;
    let (s_overview, s_counts, s_comms): CorpusSink = single.sink;
    assert_eq!(c_overview.finish(), s_overview.finish());
    assert_eq!(c_counts.finish(), s_counts.finish());
    assert_eq!(c_comms.finish(), s_comms.finish());
    assert_eq!(corpus_out.stats.updates, single.stats.updates);
    assert_eq!(corpus_out.stats.sessions, single.stats.sessions);
    assert_eq!(corpus_out.stats.streams, single.stats.streams);
}

/// Forced second-granularity vantages exercise the cleaning stage's
/// same-second disambiguation: the truncated collector reports
/// normalized sessions, the others don't (beyond what the universe
/// rolled), and every update survives.
#[test]
fn forced_truncation_reaches_the_cleaning_stage() {
    let report = mar20_report();
    let cfg = mar20_corpus_cfg();
    let forced = &cfg.force_second_granularity[0];
    let forced_col =
        report.collectors.iter().find(|c| &c.name == forced).expect("forced collector present");
    assert!(
        forced_col.cleaning.sessions_normalized > 0,
        "forced vantage must trigger timestamp normalization"
    );
    assert!(forced_col.stats.updates > 0);
}
