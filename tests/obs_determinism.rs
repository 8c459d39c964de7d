//! Metrics exported from parallel analysis runs are deterministic.
//!
//! The corpus engine's contract — a run is a pure function of the
//! member set — extends to its metrics export: the Prometheus text a
//! [`CorpusReport`] or [`WatchReport`] writes must be byte-identical no
//! matter the collector insertion order or worker thread count. Only
//! counter/gauge figures carry that guarantee (wall-time profile
//! histograms are genuinely nondeterministic and are exported
//! separately); these tests pin it on the generated multi-vantage day
//! and on a per-collector watch run.

use keep_communities_clean::analysis::corpus::run_corpus_report;
use keep_communities_clean::analysis::pipeline::PipelineBuilder;
use keep_communities_clean::analysis::{
    CleaningConfig, Corpus, CorpusReport, WatchConfig, WatchSink,
};
use keep_communities_clean::collector::{ArchiveSource, SessionKey, UpdateArchive};
use keep_communities_clean::obs::Registry;
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{
    vantage_names, Mar20Config, MultiVantageConfig, VantageSource,
};
use keep_communities_clean::types::{
    Asn, Community, CommunitySet, PathAttributes, Prefix, RouteUpdate,
};

fn mar20_cfg() -> MultiVantageConfig {
    let base = Mar20Config {
        target_announcements: 4_000,
        universe: UniverseConfig {
            n_collectors: 3,
            n_peers: 9,
            n_sessions: 18,
            n_prefixes_v4: 120,
            n_prefixes_v6: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    MultiVantageConfig { base, force_second_granularity: Vec::new() }
}

fn mar20_report(names: &[String], threads: usize) -> CorpusReport {
    let cfg = mar20_cfg();
    let mut corpus = Corpus::new();
    let mut registry = None;
    for name in names {
        let v = VantageSource::new(&cfg, name);
        if registry.is_none() {
            registry = Some(v.registry().clone());
        }
        corpus.push(name, v).unwrap();
    }
    run_corpus_report(corpus, threads, &registry.unwrap(), CleaningConfig::default()).unwrap()
}

/// `CorpusReport::export_metrics` renders byte-identically for every
/// collector insertion order and worker thread count.
#[test]
fn corpus_metrics_export_is_order_and_thread_independent() {
    let cfg = mar20_cfg();
    let names = vantage_names(&cfg.base);

    let reference = Registry::new();
    mar20_report(&names, 1).export_metrics(&reference);
    let reference = reference.render();
    assert!(reference.contains("kcc_corpus_updates_total"), "export writes corpus counters");

    let mut reversed = names.clone();
    reversed.reverse();
    for (order, threads) in [(&names, 4), (&reversed, 1), (&reversed, 5)] {
        let registry = Registry::new();
        mar20_report(order, threads).export_metrics(&registry);
        assert_eq!(
            registry.render(),
            reference,
            "corpus metrics diverged (threads={threads}, reversed={})",
            std::ptr::eq(order, &reversed),
        );
    }
}

/// The collectors [`watch_archive`] spreads its sessions over.
const WATCH_COLLECTORS: [&str; 3] = ["rrc00", "rrc01", "rrc02"];

/// A small deterministic archive with enough repetition to open
/// streams and windows in a watch run. `collector` keeps only that
/// collector's sessions; `None` is the union.
fn watch_archive(collector: Option<&str>) -> UpdateArchive {
    let mut a = UpdateArchive::new(0);
    let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
    for peer in 0..6u32 {
        let name = WATCH_COLLECTORS[peer as usize % WATCH_COLLECTORS.len()];
        if collector.is_some_and(|c| c != name) {
            continue;
        }
        let key =
            SessionKey::new(name, Asn(100 + peer), format!("10.7.0.{}", peer + 1).parse().unwrap());
        for i in 0..40u64 {
            let attrs = PathAttributes {
                as_path: format!("{} 3356 12654", 100 + peer).parse().unwrap(),
                communities: CommunitySet::from_classic([Community::from_parts(
                    3356,
                    (i % 7) as u16,
                )]),
                ..Default::default()
            };
            a.record(&key, RouteUpdate::announce(i * 60, prefix, attrs));
        }
    }
    a
}

/// `WatchReport::export_metrics` renders byte-identically whether the
/// run was one serial pass over the union archive or a per-collector
/// corpus run merged from any number of worker threads.
#[test]
fn watch_metrics_export_is_shard_count_independent() {
    let cfg = WatchConfig::default();

    let union = watch_archive(None);
    let serial = PipelineBuilder::new(ArchiveSource::new(&union))
        .sink(WatchSink::new(cfg))
        .run()
        .expect("archive sources cannot fail")
        .sink
        .finish();
    let reference = Registry::new();
    serial.export_metrics(&reference);
    let reference = reference.render();
    assert!(reference.contains("kcc_watch_updates_total"), "export writes watch counters");

    let members = WATCH_COLLECTORS.map(|name| watch_archive(Some(name)));
    for threads in [1usize, 3, 5] {
        let mut corpus = Corpus::new();
        for (name, archive) in WATCH_COLLECTORS.iter().zip(&members) {
            corpus.push(name, ArchiveSource::new(archive)).unwrap();
        }
        let merged = PipelineBuilder::collectors(corpus)
            .threads(threads)
            .sinks_for(move |_: &str| WatchSink::new(cfg))
            .run()
            .expect("archive sources cannot fail")
            .combined
            .finish();
        let registry = Registry::new();
        merged.export_metrics(&registry);
        assert_eq!(registry.render(), reference, "watch metrics diverged at {threads} threads");
    }
}
