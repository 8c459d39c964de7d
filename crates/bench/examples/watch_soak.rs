//! Watch soak — CommunityWatch end to end on a generated corpus with two
//! injected faults.
//!
//! ```sh
//! cargo run --release -p kcc_bench --example watch_soak [ANNOUNCEMENTS]   # default 90000
//! ```
//!
//! Generates an ANNOUNCEMENTS-announcement 3-vantage day, injects a
//! prefix hijack into one vantage and silences another for the tail of
//! the day, writes every vantage to an MRT file, replays the corpus
//! through one `WatchSink` pipeline per collector, and exits non-zero
//! unless exactly those two alert kinds fire (`collector-outage`,
//! `prefix-hijack`). An ANNOUNCEMENTS that does not parse exits 2. CI
//! runs it under a 512 MiB address-space cap.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::process::ExitCode;
use std::sync::Arc;

use kcc_bench::args;
use kcc_bgp_types::{AsPath, Asn, MessageKind, PathAttributes, Prefix, RouteUpdate};
use kcc_collector::UpdateArchive;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::{Corpus, WatchConfig, WatchSink};
use kcc_tracegen::universe::UniverseConfig;
use kcc_tracegen::{vantage_names, Mar20Config, MultiVantageConfig, VantageSource};

/// One vantage of the generated day, materialized for fault injection.
fn vantage(cfg: &MultiVantageConfig, name: &str) -> UpdateArchive {
    let mut src = VantageSource::new(cfg, name);
    UpdateArchive::from_source(&mut src, cfg.base.epoch_seconds)
        .expect("generated sources cannot fail")
}

/// Makes the generated background day path-stable so the injected
/// faults are the *only* path-level deviations: pins every
/// `(session, prefix)` stream to its first announcement's AS path (the
/// raw generator explores alternate transits all day, which a
/// path-novelty detector rightly flags), then replays that announcement
/// into the first `learn_windows` detection windows so every origin and
/// on-path AS is learned before detection starts.
fn stabilize(archive: &mut UpdateArchive, window_us: u64, learn_windows: u64) {
    for (_, rec) in archive.sessions_mut() {
        let mut first: BTreeMap<Prefix, Arc<PathAttributes>> = BTreeMap::new();
        for u in &mut rec.updates {
            if let MessageKind::Announcement(attrs) = &mut u.kind {
                let path = &first.entry(u.prefix).or_insert_with(|| attrs.clone()).as_path;
                if attrs.as_path != *path {
                    Arc::make_mut(attrs).as_path = path.clone();
                }
            }
        }
        for (prefix, attrs) in first {
            for w in 0..learn_windows {
                rec.updates.push(RouteUpdate::announce(w * window_us, prefix, attrs.clone()));
            }
        }
        rec.updates.sort_by_key(|u| u.time_us);
    }
}

/// Picks the busiest announcement stream of the first half of the day —
/// the stable baseline the injected hijack deviates from.
fn busiest_stream(archive: &UpdateArchive, half_us: u64) -> Option<(usize, Prefix, usize)> {
    let mut best: Option<(usize, Prefix, usize)> = None;
    for (i, (_, rec)) in archive.sessions().enumerate() {
        let mut counts: HashMap<Prefix, usize> = HashMap::new();
        for u in &rec.updates {
            if u.time_us <= half_us && matches!(u.kind, MessageKind::Announcement(_)) {
                *counts.entry(u.prefix).or_insert(0) += 1;
            }
        }
        for (prefix, n) in counts {
            if best.as_ref().is_none_or(|&(_, _, bn)| n > bn) {
                best = Some((i, prefix, n));
            }
        }
    }
    best
}

/// All origin ASes announcing `prefix` anywhere in the corpus.
fn origins_of(archives: &[(String, UpdateArchive)], prefix: Prefix) -> BTreeSet<Asn> {
    let updates = archives.iter().flat_map(|(_, a)| a.all_updates());
    let attrs = updates.filter(|(_, u)| u.prefix == prefix).filter_map(|(_, u)| match u.kind {
        MessageKind::Announcement(attrs) => Some(attrs),
        _ => None,
    });
    attrs.flat_map(|a| a.as_path.origin()).collect()
}

fn main() -> ExitCode {
    let target: u64 = match std::env::args().nth(1) {
        None => 90_000,
        Some(text) => match args::value("ANNOUNCEMENTS", &text) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("watch_soak: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let cfg = MultiVantageConfig {
        base: Mar20Config {
            target_announcements: target,
            universe: UniverseConfig {
                n_collectors: 3,
                n_peers: 9,
                n_sessions: 12,
                n_transits: 8,
                n_origins: 40,
                n_prefixes_v4: 200,
                n_prefixes_v6: 20,
                ..Default::default()
            },
            ..Default::default()
        },
        force_second_granularity: Vec::new(),
    };
    let epoch = cfg.base.epoch_seconds;
    let watch_cfg = WatchConfig::default();
    let names = vantage_names(&cfg.base);
    assert!(names.len() >= 3, "soak needs at least 3 vantages");
    println!("soak: generating {} vantages (~{target} announcements)...", names.len());
    let mut archives: Vec<(String, UpdateArchive)> =
        names.iter().map(|n| (n.clone(), vantage(&cfg, n))).collect();
    for (_, archive) in &mut archives {
        stabilize(archive, watch_cfg.window_us, watch_cfg.learn_windows);
    }

    let day_end = archives
        .iter()
        .flat_map(|(_, a)| a.all_updates())
        .map(|(_, u)| u.time_us)
        .max()
        .unwrap_or(0);
    let hijack_at = day_end / 4 * 3;
    let outage_from = day_end / 5 * 3;

    // Fault 1: a prefix hijack on vantage 0's busiest stream, by an
    // origin no vantage has seen announce the prefix.
    let (session_idx, prefix, baseline_count) =
        busiest_stream(&archives[0].1, day_end / 2).expect("generated day has announcements");
    let taken = origins_of(&archives, prefix);
    let bogus = (64_000..65_000).map(Asn).find(|a| !taken.contains(a)).expect("free private ASN");
    let archive = &mut archives[0].1;
    let (key, rec) = archive.sessions().nth(session_idx).expect("session index valid");
    let template = rec.updates.iter().rev().find_map(|u| match &u.kind {
        MessageKind::Announcement(attrs) if u.prefix == prefix => Some(attrs.clone()),
        _ => None,
    });
    let (key, template) = (key.clone(), template.expect("stream has announcements"));
    let mut asns: Vec<Asn> = template.as_path.asns().collect();
    *asns.last_mut().expect("non-empty path") = bogus;
    let attrs = PathAttributes { as_path: AsPath::from_asns(asns), ..(*template).clone() };
    archive.record(&key, RouteUpdate::announce(hijack_at, prefix, attrs));
    for (_, rec) in archive.sessions_mut() {
        rec.updates.sort_by_key(|u| u.time_us);
    }
    println!(
        "soak: injected hijack of {prefix} (origin {bogus}, \
         baseline {baseline_count} announcements) at 75% of day"
    );

    // Fault 2: the last vantage goes dark at 60% of the day.
    let (name, archive) = archives.last_mut().expect("at least 3 vantages");
    let mut dropped = 0usize;
    for (_, rec) in archive.sessions_mut() {
        let before = rec.updates.len();
        rec.updates.retain(|u| u.time_us <= outage_from);
        dropped += before - rec.updates.len();
    }
    println!("soak: silenced {name} after 60% of day ({dropped} updates dropped)");

    // Round-trip through real MRT files: the corpus path `kcc watch` reads.
    let dir = std::env::temp_dir().join(format!("kcc_watch_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create soak dir");
    let mut corpus = Corpus::new();
    for (name, archive) in &archives {
        let path = dir.join(format!("{name}.mrt"));
        let mut bytes = Vec::new();
        archive.write_mrt(&mut bytes).expect("in-memory write cannot fail");
        std::fs::write(&path, bytes).expect("write soak dump");
        corpus.push_mrt_file_with(&path, epoch, &Default::default()).expect("open soak dump");
    }
    drop(archives);

    let out = PipelineBuilder::collectors(corpus)
        .threads(3)
        .stages_for(|_: &str| ())
        .sinks_for(|_: &str| WatchSink::new(watch_cfg))
        .run();
    let _ = std::fs::remove_dir_all(&dir);
    let report = out.expect("the soak's MRT files read back").combined.finish();
    for alert in &report.alerts {
        println!("{}", alert.to_line());
    }
    println!("\nwatch: {} updates, {} alerts", report.updates, report.alerts.len());

    let detected: Vec<&'static str> = report.kind_counts().iter().map(|&(k, _)| k).collect();
    let expected = ["collector-outage", "prefix-hijack"];
    if detected == expected {
        println!("soak: PASS — both injected faults detected, zero false alert kinds");
        ExitCode::SUCCESS
    } else {
        eprintln!("soak: FAIL — expected kinds {expected:?}, detected {detected:?}");
        ExitCode::FAILURE
    }
}
