//! CommunityWatch determinism properties and pinned output.
//!
//! **Partition independence** — a corpus watch run is a pure function
//! of the member set: insertion order and thread count must not change
//! one byte of the combined alert list, and merging the per-collector
//! sinks yields exactly the report of one serial `WatchSink` over the
//! union of the members. (`tests/watch_oracle.rs` holds the sink, in
//! its windowed and whole-day shapes, to a naive oracle.)

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::analysis::pipeline::PipelineBuilder;
use keep_communities_clean::analysis::{
    CommunityProfiler, Corpus, WatchConfig, WatchReport, WatchSink,
};
use keep_communities_clean::collector::archive::write_mrt_from;
use keep_communities_clean::collector::{ArchiveSource, MrtSource, SessionKey, UpdateArchive};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config, Mar20Source};
use keep_communities_clean::types::community::well_known::BLACKHOLE;
use keep_communities_clean::types::{
    Asn, Community, CommunitySet, MessageKind, PathAttributes, Prefix, RouteUpdate,
};

fn alert_lines(report: &WatchReport) -> Vec<String> {
    report.alerts.iter().map(|a| a.to_line()).collect()
}

/// The alert count and the FNV-1a digest of the `to_line()` lines
/// joined by `\n`.
fn digest(report: &WatchReport) -> (usize, u64) {
    let digest = alert_lines(report)
        .join("\n")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    (report.alerts.len(), digest)
}

/// A deterministic per-collector day that *provokes* watch alerts: a
/// stable origin for the first windows, then a variant-chosen hijacker
/// origin — so the order-independence property is tested on non-empty
/// alert lists.
fn watch_collector_archive(collector: &str, variant: u64) -> UpdateArchive {
    let window_us = WatchConfig::default().window_us;
    let mut a = UpdateArchive::new(0);
    let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
    for peer in 0..3u32 {
        let key = SessionKey::new(
            collector,
            Asn(100 + peer),
            format!("10.9.{}.{}", variant % 200, peer + 1).parse().unwrap(),
        );
        for w in 0..8u64 {
            let origin = if w == 5 { 64_496 + (variant % 100) as u32 } else { 12_654 };
            let attrs = PathAttributes {
                as_path: format!("{} 3356 {origin}", 100 + peer).parse().unwrap(),
                communities: CommunitySet::from_classic([Community::from_parts(
                    3356,
                    ((w + variant) % 5) as u16,
                )]),
                ..Default::default()
            };
            a.record(&key, RouteUpdate::announce(w * window_us + peer as u64, prefix, attrs));
        }
    }
    a
}

// ---------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------

proptest! {
    /// A corpus watch run is a pure function of the member set: any
    /// collector insertion order and worker thread count produce the
    /// byte-identical combined alert list — and `Merge` is insensitive to
    /// how sessions were partitioned, so that list (and every counter)
    /// is the one a single serial `WatchSink` reports over the union of
    /// the members.
    #[test]
    fn corpus_watch_is_collector_order_independent(
        rotation in 0usize..6,
        swap in any::<bool>(),
        threads in 1usize..6,
        variants in vec(0u64..40, 4..5),
    ) {
        let names = ["rrc10", "rrc04", "route-views3", "rrc21"];
        let archives: Vec<UpdateArchive> = names
            .iter()
            .zip(&variants)
            .map(|(n, &v)| watch_collector_archive(n, v))
            .collect();
        let cfg = WatchConfig::default();

        let run = |insertion: &[usize], threads: usize| -> WatchReport {
            let mut corpus = Corpus::new();
            for &i in insertion {
                corpus.push(names[i], ArchiveSource::new(&archives[i])).unwrap();
            }
            PipelineBuilder::collectors(corpus)
                .threads(threads)
                .stages_for(|_: &str| ())
                .sinks_for(move |_: &str| WatchSink::new(cfg))
                .run()
                .expect("archive sources cannot fail")
                .combined
                .finish()
        };

        // Reference: sorted-name insertion, one worker.
        let mut reference_order: Vec<usize> = (0..names.len()).collect();
        reference_order.sort_by_key(|&i| names[i]);
        let reference = run(&reference_order, 1);
        // The provoked hijacks must actually be there, or this property
        // only ever checks the empty list.
        prop_assert!(!reference.alerts.is_empty());

        let mut insertion: Vec<usize> = (0..names.len()).collect();
        insertion.rotate_left(rotation % names.len());
        if swap {
            insertion.swap(0, names.len() - 1);
        }
        let shuffled = run(&insertion, threads);
        prop_assert_eq!(alert_lines(&shuffled), alert_lines(&reference));
        prop_assert_eq!(shuffled.windows, reference.windows);
        prop_assert_eq!(shuffled.updates, reference.updates);
        prop_assert_eq!(shuffled.agreement_summary(), reference.agreement_summary());

        let mut union = UpdateArchive::new(0);
        for archive in &archives {
            for (key, rec) in archive.sessions() {
                for update in &rec.updates {
                    union.record(key, update.clone());
                }
            }
        }
        let serial = PipelineBuilder::new(ArchiveSource::new(&union))
            .sink(WatchSink::new(cfg))
            .run()
            .expect("archive sources cannot fail")
            .sink
            .finish();
        prop_assert_eq!(alert_lines(&shuffled), alert_lines(&serial));
        prop_assert_eq!(shuffled.updates, serial.updates);
        prop_assert_eq!(shuffled.streams, serial.streams);
        prop_assert_eq!(shuffled.windows, serial.windows);
        prop_assert_eq!(shuffled.agreement_summary(), serial.agreement_summary());
        prop_assert_eq!(shuffled.kind_counts(), serial.kind_counts());
    }
}

// ---------------------------------------------------------------------
// pinned output (recorded on the pre-rewrite sink)
// ---------------------------------------------------------------------

/// `benchmark/`'s `watch-day` recipe: the seed-42 Mar'20 day streamed to
/// MRT, read back as `rrc00`, the profiler trained on the day itself,
/// one default-config `WatchSink` pass. Returns its [`digest`] — the
/// pair the harness prints but only compares across passes.
fn generated_day_digest(target_announcements: u64) -> (usize, u64) {
    let cfg = Mar20Config { seed: 42, target_announcements, ..Default::default() };
    let mut source = Mar20Source::new(&cfg);
    let route_servers = source.route_server_peers();
    let mut bytes = Vec::new();
    write_mrt_from(&mut source, cfg.epoch_seconds, &mut bytes)
        .expect("generated sources and in-memory writes cannot fail");
    let open = || {
        MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds)
            .with_route_servers(route_servers.iter().copied())
    };

    let archive = UpdateArchive::from_source(&mut open(), cfg.epoch_seconds)
        .expect("in-memory MRT cannot fail");
    let mut profiler = CommunityProfiler::new();
    profiler.train(&archive);
    drop(archive);

    let report = PipelineBuilder::new(open())
        .sink(WatchSink::new(WatchConfig::default()).with_profile(Arc::new(profiler)))
        .run()
        .expect("in-memory MRT cannot fail")
        .sink
        .finish();
    digest(&report)
}

#[test]
fn generated_day_alerts_are_pinned() {
    assert_eq!(generated_day_digest(10_000), (1_203, 0x1762_c61f_38e6_65cb));
}

/// The full-size twin: exactly what `benchmark/`'s `watch-day` prints at
/// seed 42. CI runs it in release (`--ignored`).
#[test]
#[ignore = "full-size day: run in release"]
fn generated_day_alerts_are_pinned_full_size() {
    assert_eq!(generated_day_digest(80_000), (8_128, 0x05dc_1750_1f0a_3a75));
}

/// The §7 detector's whole-day shape: profiles trained on the seed-1
/// Mar'20 day, then the seed-2 day with BLACKHOLE and `2007:9999` added
/// to the first announcement of its first three sessions, judged by one
/// default-config, profiled `WatchSink` with the day as its one window.
/// The literal is also what the batch `CommunityProfiler::detect`, which
/// this shape replaced, reported for the same day.
#[test]
fn perturbed_day_alerts_are_pinned() {
    let day = |seed| {
        generate_mar20(&Mar20Config { seed, target_announcements: 20_000, ..Default::default() })
            .archive
    };
    let mut profiler = CommunityProfiler::new();
    profiler.train(&day(1));
    let mut test = day(2);
    for (_, rec) in test.sessions_mut().take(3) {
        let first = rec.updates.iter_mut().find_map(|u| match &mut u.kind {
            MessageKind::Announcement(attrs) => Some(attrs),
            MessageKind::Withdrawal => None,
        });
        let communities = &mut Arc::make_mut(first.expect("a session announces")).communities;
        communities.insert(BLACKHOLE);
        communities.insert(Community::from_parts(2007, 9_999));
    }
    let whole_day = WatchConfig { window_us: u64::MAX, ..Default::default() };
    let report = PipelineBuilder::new(ArchiveSource::new(&test))
        .sink(WatchSink::new(whole_day).with_profile(Arc::new(profiler)))
        .run()
        .expect("archive sources cannot fail")
        .sink
        .finish();
    assert_eq!(digest(&report), (1_599, 0x6890_9ab4_f202_853a));
}
