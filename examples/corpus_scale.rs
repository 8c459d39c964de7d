//! Corpus-scale pipeline: K synthetic vantages → K MRT files → one
//! parallel cross-collector analysis, in constant memory.
//!
//! The multi-collector analogue of `internet_scale`: the same generated
//! day is observed from K collectors (each vantage streamed straight to
//! its own MRT file, never materialized), then `run_corpus_report`
//! pulls all K files through per-collector cleaning and the corpus sink
//! stack in parallel and prints the cross-collector comparison report.
//! Peak resident analysis state is one `PathAttributes` per
//! `(prefix, session)` stream *summed over the collectors* — the number
//! printed at the end, and the one the `corpus-scale` CI job caps with
//! `ulimit -v`. Last, the same day unsplit goes to one MRT file and
//! through one pipeline, and the corpus's combined Table 1 and Table 2
//! must equal it: splitting a day across collectors changes nothing the
//! analysis counts.
//!
//! Run with
//! `cargo run --release --example corpus_scale [-- <announcements> [<collectors> [<threads>]]]`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};

use keep_communities_clean::analysis::corpus::run_corpus_report;
use keep_communities_clean::analysis::table::OverviewSink;
use keep_communities_clean::analysis::{
    CleaningConfig, CleaningStage, Corpus, CountsSink, MrtFileOptions, MrtSource, PipelineBuilder,
};
use keep_communities_clean::collector::archive::write_mrt_from;
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{
    vantage_names, write_vantage_mrt, Mar20Config, Mar20Source, MultiVantageConfig, VantageSource,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nums: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let target: u64 = nums.first().copied().unwrap_or(200_000);
    let collectors: usize = nums.get(1).copied().unwrap_or(6) as usize;
    let threads: usize = nums.get(2).copied().unwrap_or(3) as usize;

    let cfg = MultiVantageConfig {
        base: Mar20Config {
            target_announcements: target,
            universe: UniverseConfig {
                n_collectors: collectors,
                n_sessions: (collectors * 24).max(96),
                n_peers: (collectors * 10).max(40),
                ..Default::default()
            },
            ..Default::default()
        },
        force_second_granularity: Vec::new(),
    };

    // Phase 1: stream each vantage of the shared day to its own MRT
    // file — one session resident at a time, K files on disk.
    let dir = std::env::temp_dir().join(format!("kcc_corpus_scale_{target}_{collectors}"));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let names = vantage_names(&cfg.base);
    println!(
        "generating a ~{target}-announcement day as {} vantages into {}…",
        names.len(),
        dir.display()
    );
    let registry = VantageSource::new(&cfg, &names[0]).registry().clone();
    let mut total_updates = 0u64;
    let mut vantage_files = Vec::new();
    for name in &names {
        let path = dir.join(format!("{name}.mrt"));
        let writer = BufWriter::new(File::create(&path).expect("create MRT file"));
        let (updates, route_servers) =
            write_vantage_mrt(&cfg, name, writer).expect("write vantage MRT");
        println!("   {name}: {updates} updates");
        total_updates += updates;
        vantage_files.push((path, route_servers));
    }

    // Phase 2: the corpus run — every file streamed record-at-a-time
    // through its own cleaning stage and sink stack, in parallel. The
    // per-vantage route-server lists ride along (session metadata MRT
    // cannot carry), so the §4 route-server insertion stage really runs.
    let mut corpus = Corpus::new();
    for (path, route_servers) in vantage_files {
        let options = MrtFileOptions { route_servers, ..Default::default() };
        corpus.push_mrt_file_with(&path, cfg.base.epoch_seconds, &options).expect("corpus member");
    }
    let report = run_corpus_report(corpus, threads, &registry, CleaningConfig::default())
        .expect("corpus run");

    print!("{}", report.render());
    println!(
        "\npipeline: {} updates over {} sessions, {} streams, peak state {} bytes ({:.1} MiB)",
        report.stats.updates,
        report.stats.sessions,
        report.stats.streams,
        report.stats.peak_state_bytes,
        report.stats.peak_state_bytes as f64 / (1024.0 * 1024.0),
    );
    assert_eq!(report.stats.updates, total_updates, "every generated update analyzed");

    // Phase 3: the same day unsplit — one MRT file, one pipeline. The
    // corpus's combined tables must equal it.
    let day_path = dir.join("unsplit.mrt");
    let mut day = Mar20Source::new(&cfg.base);
    let day_route_servers = day.route_server_peers();
    let file = BufWriter::new(File::create(&day_path).expect("create MRT file"));
    write_mrt_from(&mut day, cfg.base.epoch_seconds, file).expect("write unsplit MRT");
    let file = BufReader::new(File::open(&day_path).expect("open unsplit MRT"));
    let unsplit = PipelineBuilder::new(
        MrtSource::new(file, "all", cfg.base.epoch_seconds).with_route_servers(day_route_servers),
    )
    .stages(CleaningStage::new(&registry, CleaningConfig::default()))
    .sink((OverviewSink::default(), CountsSink::default()))
    .run()
    .expect("unsplit day");
    let (overview, counts) = unsplit.sink;
    assert_eq!(report.combined_counts, counts.finish(), "corpus Table 2 != the unsplit day's");
    assert_eq!(report.combined_overview, overview.finish(), "corpus Table 1 != the unsplit day's");
    println!(
        "corpus ≡ unsplit day: {} updates, Table 1 and Table 2 identical",
        unsplit.stats.updates
    );
    let _ = std::io::stdout().flush();
    if std::env::var_os("KCC_KEEP_CORPUS").is_some() {
        println!("keeping {} (KCC_KEEP_CORPUS set)", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
