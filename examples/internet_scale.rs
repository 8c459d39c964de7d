//! Internet-scale pipeline: generate → MRT bytes → stream → analyze.
//!
//! Exercises the full measurement pipeline the paper applies to
//! RouteViews/RIS data, at a configurable scale — **without ever holding
//! the day in memory**. The trace generator streams one session at a
//! time into an MRT file (what a real collector publishes); the analysis
//! then streams those bytes record-at-a-time through the §4 cleaning
//! stage and the §5 classifier into the Table 1 / Table 2 sinks in one
//! pass. Peak resident analysis state is one `PathAttributes` per
//! `(prefix, session)` stream, and the run prints that number next to
//! the tables.
//!
//! Run with `cargo run --release --example internet_scale [-- <announcements> [--batch]]`.
//!
//! `--batch` runs the pre-redesign path instead (read the whole archive
//! into memory, clean in place, classify) — useful for comparing memory
//! footprints: under a fixed address-space cap (see the `stream-scale`
//! CI job) the streaming path completes where the batch path cannot.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use keep_communities_clean::analysis::table::{OverviewSink, TypeShares};
use keep_communities_clean::analysis::{
    clean_archive, CleaningConfig, CleaningStage, CountsSink, MrtSource, PipelineBuilder,
};
use keep_communities_clean::collector::archive::write_mrt_from;
use keep_communities_clean::collector::UpdateArchive;
use keep_communities_clean::tracegen::{Mar20Config, Mar20Source};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target: u64 = args.iter().find_map(|a| a.parse().ok()).unwrap_or(100_000);
    let batch = args.iter().any(|a| a == "--batch");

    let cfg = Mar20Config { target_announcements: target, ..Default::default() };
    let mrt_path = std::env::temp_dir().join(format!("kcc_internet_scale_{target}.mrt"));

    // Phase 1: stream the synthetic collector day to MRT bytes, one
    // session resident at a time.
    println!(
        "generating a synthetic collector day (~{target} announcements) to {}…",
        mrt_path.display()
    );
    let mut gen = Mar20Source::new(&cfg);
    let registry = gen.registry().clone();
    let route_servers = gen.route_server_peers();
    let file = BufWriter::new(File::create(&mrt_path).expect("create MRT file"));
    let generated = write_mrt_from(&mut gen, cfg.epoch_seconds, file).expect("write MRT file");
    let mrt_bytes = std::fs::metadata(&mrt_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "MRT archive: {generated} records, {:.1} MiB on disk",
        mrt_bytes as f64 / (1024.0 * 1024.0)
    );

    // Phase 2: one streaming pass over the bytes — cleaning, classifier,
    // Table 1 + Table 2 sinks together.
    let open_source = || {
        let file = BufReader::new(File::open(&mrt_path).expect("open MRT file"));
        MrtSource::new(file, "rrc00", cfg.epoch_seconds).with_route_servers(route_servers.clone())
    };

    let (report, overview, counts, stats) = if batch {
        // The pre-redesign path: materialize, clean in place, classify.
        let mut archive =
            UpdateArchive::from_source(&mut open_source(), cfg.epoch_seconds).expect("MRT import");
        let report = clean_archive(&mut archive, &registry, &CleaningConfig::default());
        let overview = keep_communities_clean::analysis::table::overview(&archive);
        let counts = keep_communities_clean::analysis::classify_archive(&archive);
        (report, overview, counts, None)
    } else {
        let stage = CleaningStage::new(&registry, CleaningConfig::default());
        let out = PipelineBuilder::new(open_source())
            .stages(stage)
            .sink((OverviewSink::default(), CountsSink::default()))
            .run()
            .expect("MRT stream");
        let (overview_sink, counts_sink) = out.sink;
        (out.stages.report(), overview_sink.finish(), counts_sink.finish(), Some(out.stats))
    };

    println!(
        "cleaning: -{} unallocated-ASN, -{} unallocated-prefix, {} RS insertions, {} sessions normalized",
        report.removed_unallocated_asn,
        report.removed_unallocated_prefix,
        report.route_server_insertions,
        report.sessions_normalized
    );

    println!("\n{}", overview.render("Table 1 — overview (synthetic scale model)"));
    let shares = TypeShares::new(vec![("d_mar20".into(), counts)]);
    println!("{}", shares.render());
    println!(
        "no-path-change announcements: {:.1}% (the paper reports ~50%)",
        counts.share(keep_communities_clean::analysis::AnnouncementType::Nc)
            + counts.share(keep_communities_clean::analysis::AnnouncementType::Nn)
    );

    match stats {
        Some(stats) => println!(
            "\nstreaming state: {} sessions, {} (prefix, session) streams, \
             peak resident stream state ≈ {:.1} MiB ({} updates in one pass, mode=streaming)",
            stats.sessions,
            stats.streams,
            stats.peak_state_bytes as f64 / (1024.0 * 1024.0),
            stats.updates,
        ),
        None => println!("\nmode=batch: whole archive materialized (no streaming state bound)"),
    }

    let _ = std::fs::remove_file(&mrt_path);
}
