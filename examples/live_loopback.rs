//! End-to-end live collection over loopback TCP — the CI-pinned proof
//! that the live subsystem reproduces the offline analysis exactly.
//!
//! generated internet → real BGP over TCP → session FSM → live pipeline
//!
//! A generated collector day is replayed by `FloodRig` — one concurrent
//! session per archive session, each speaking real BGP (OPEN/capability
//! negotiation, KEEPALIVEs, UPDATEs, Cease) — into an in-process
//! `kcc daemon`-style daemon that also rotates MRT dumps of the feed. The run then verifies, and refuses to exit 0 otherwise:
//!
//! 1. the live pipeline's Table 1 / Table 2 are **byte-identical** to
//!    the offline `ArchiveSource` analysis of the same update set, and
//! 2. re-analyzing the rotated MRT dumps through `MrtSource` yields the
//!    same tables again.
//!
//! Run with `cargo run --release --example live_loopback [-- <announcements>]`.

use keep_communities_clean::analysis::table::{OverviewSink, TypeShares};
use keep_communities_clean::analysis::{CountsSink, MrtSource, PipelineBuilder};
use keep_communities_clean::collector::ArchiveSource;
use keep_communities_clean::peer::rotate::concat_dumps;
use keep_communities_clean::peer::{
    offline_reference, Collector, CollectorConfig, FloodOptions, FloodPlan, FloodRig, RotateConfig,
    StampMode,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::Asn;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target: u64 = args.iter().find_map(|a| a.parse().ok()).unwrap_or(20_000);

    // Phase 1: a generated internet's collector day.
    let mut gen = Mar20Config { target_announcements: target, ..Default::default() };
    gen.universe.n_sessions = 48;
    let day = generate_mar20(&gen);
    let input = day.archive;
    let route_servers: Vec<_> = input
        .sessions()
        .filter(|(_, rec)| rec.meta.route_server)
        .map(|(k, _)| (k.peer_asn, k.peer_ip))
        .collect();
    println!(
        "generated day: {} updates over {} sessions ({} route-server)",
        input.update_count(),
        input.session_count(),
        route_servers.len()
    );

    // Phase 2: live collection. Logical stamping keeps the comparison
    // deterministic; MRT dumps rotate every 5 000 records.
    let dump_dir = std::env::temp_dir().join(format!("kcc_live_loopback_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_route_servers(route_servers.clone())
        .with_mrt(RotateConfig::new(&dump_dir, 5_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    let addr = collector.local_addr();
    let source = collector.take_source();
    let stop = source.shutdown_flag();
    println!("daemon listening on {addr}; replaying over real BGP sessions…");

    // The pipeline drains the feed while the peers replay: the daemon
    // hands updates over through a bounded ring, so a consumer that
    // waited for the replay to finish would hold the replay back.
    let start = std::time::Instant::now();
    let plan = FloodPlan::from_archive(&input, 90);
    let replay = std::thread::spawn(move || {
        let report = FloodRig::connect(addr, plan, FloodOptions::default())
            .and_then(FloodRig::stream)
            .expect("replay");
        collector.shutdown();
        (report, collector.join())
    });
    let live = PipelineBuilder::new(source)
        .sink((CountsSink::default(), OverviewSink::default()))
        .shutdown(&stop)
        .run()
        .expect("live run");
    let (report, stats) = replay.join().expect("replay thread");
    assert_eq!(report.updates_sent, input.update_count() as u64, "the rig sent everything");
    assert_eq!(stats.updates, report.updates_sent, "daemon ingested everything");
    println!(
        "ingested {} updates from {} sessions in {:.2} s ({} MRT records over {} dumps)",
        stats.updates,
        stats.sessions,
        start.elapsed().as_secs_f64(),
        stats.mrt_records,
        stats.mrt_files.len()
    );

    let (live_counts, live_overview) = live.sink;
    let live_counts = live_counts.finish();
    let live_overview = live_overview.finish();

    // Phase 3: the offline analysis of the same update set.
    let reference = offline_reference(&input, &cfg);
    let offline = PipelineBuilder::new(ArchiveSource::new(&reference))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .expect("offline run");
    let (off_counts, off_overview) = offline.sink;
    let off_counts = off_counts.finish();
    let off_overview = off_overview.finish();
    assert_eq!(live_counts, off_counts, "live Table 2 != offline");
    assert_eq!(live_overview, off_overview, "live Table 1 != offline");
    // Byte-for-byte on the rendered paper tables.
    let table1_live = live_overview.render("Table 1 — live capture");
    assert_eq!(table1_live, off_overview.render("Table 1 — live capture"));
    assert_eq!(
        TypeShares::new(vec![("live".into(), live_counts)]).render(),
        TypeShares::new(vec![("live".into(), off_counts)]).render()
    );
    println!("\n{}", table1_live);
    println!("\n{}", TypeShares::new(vec![("live".into(), live_counts)]).render());
    println!("\nlive == offline: OK");

    // Phase 4: the rotated dumps re-analyze to the same tables.
    let bytes = concat_dumps(&stats.mrt_files).expect("read dumps");
    let mrt = PipelineBuilder::new(
        MrtSource::new(&bytes[..], "rrc00", 0).with_route_servers(route_servers),
    )
    .sink((CountsSink::default(), OverviewSink::default()))
    .run()
    .expect("mrt reanalysis");
    let (mrt_counts, mrt_overview) = mrt.sink;
    assert_eq!(mrt_counts.finish(), live_counts, "MRT round-trip Table 2 != live");
    assert_eq!(mrt_overview.finish(), live_overview, "MRT round-trip Table 1 != live");
    println!("rotated MRT dumps re-analyze identically: OK");

    let _ = std::fs::remove_dir_all(&dump_dir);
    println!("\nPASS: live TCP BGP collection == offline analysis ({target} announcements)");
}
