//! Daemon soak — the CI-pinned proof that a single `kcc daemon` holds
//! **thousands of concurrent BGP sessions** on a bounded worker pool
//! and still reproduces the offline analysis byte-for-byte.
//!
//! flood rig (N nonblocking speakers) → reactor daemon → live pipeline
//!
//! Phases, each a hard assertion:
//!
//! 1. **Concurrency.** N sessions (default 5 000) handshake and are
//!    held simultaneously Established — the daemon's own gauge must
//!    read N while its reactor runs a handful of shard threads.
//! 2. **Observability.** While the flood streams, the control socket's
//!    `metrics` command is scraped from outside; the rendered registry
//!    must corroborate the soak (every session counted established,
//!    ingestion underway, zero write-queue overflows, and the peak of
//!    items in flight to the pipeline within the live ring's bound). With
//!    `--metrics-out FILE` the scrape is kept — CI uploads it as an
//!    artifact.
//! 3. **Integrity.** Every session streams its share of a generated
//!    day; the live Table 1 / Table 2 must be byte-identical to the
//!    offline `ArchiveSource` analysis of the same update set.
//!
//! CI runs this under `ulimit -v`, so the memory to hold N sessions is
//! bounded too. Run with
//! `cargo run --release --example daemon_soak [-- <sessions> [updates] [--metrics-out FILE]]`.

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use keep_communities_clean::analysis::table::{OverviewSink, TypeShares};
use keep_communities_clean::analysis::{CountsSink, PipelineBuilder};
use keep_communities_clean::collector::{
    ArchiveSource, SessionKey, UpdateArchive, LIVE_RING_ITEMS,
};
use keep_communities_clean::peer::{
    offline_reference, sys, Collector, CollectorConfig, ControlServer, FloodOptions, FloodPlan,
    FloodRig, StampMode,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::Asn;

/// Value of an unlabeled series in a Prometheus text scrape.
fn scraped_value(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(|v| v.trim().parse().expect("numeric metric value"))
        })
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
}

/// Dials the control socket, issues `metrics`, returns the response up
/// to (excluding) the terminal `ok` line.
fn scrape_metrics(addr: SocketAddr) -> String {
    let stream = TcpStream::connect(addr).expect("dial control socket");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut writer = stream.try_clone().expect("clone control stream");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "metrics").expect("send metrics command");
    let mut scrape = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "control socket closed mid-scrape");
        if line.starts_with("ok") {
            return scrape;
        }
        assert!(!line.starts_with("err"), "metrics command failed: {line}");
        scrape.push_str(&line);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut nums = Vec::new();
    let mut metrics_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--metrics-out" {
            metrics_out = it.next().map(PathBuf::from);
        } else if let Ok(n) = a.parse::<u64>() {
            nums.push(n);
        }
    }
    let sessions = nums.first().copied().unwrap_or(5_000) as usize;
    let total_updates = nums.get(1).copied().unwrap_or(25_000);
    let want_fds = sessions as u64 * 2 + 512;
    if let Err(e) = sys::raise_nofile_limit(want_fds) {
        eprintln!("daemon_soak: cannot raise fd limit to {want_fds}: {e}");
    }

    // A generated day's updates, dealt round-robin over `sessions`
    // session keys so every speaker carries a realistic mix.
    let day = generate_mar20(&Mar20Config {
        target_announcements: total_updates + total_updates / 4,
        ..Default::default()
    });
    let mut workload = UpdateArchive::new(0);
    let mut dealt = 0u64;
    for (i, (_, update)) in day.archive.all_updates().iter().enumerate() {
        let p = i % sessions;
        let key = SessionKey::new(
            "soak",
            Asn(64_512 + p as u32),
            IpAddr::V4(Ipv4Addr::new(10, 99, (p >> 8) as u8, (p & 0xFF) as u8)),
        );
        workload.record(&key, update.clone());
        dealt += 1;
        if dealt >= total_updates {
            break;
        }
    }
    println!("soak: {} updates over {sessions} sessions", workload.update_count());

    let cfg = CollectorConfig::new("soak", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    let addr = collector.local_addr();
    let source = collector.take_source();
    let stop = source.shutdown_flag();
    let gauges = collector.gauges();

    // Phase 1: all sessions concurrently Established, zero UPDATEs sent.
    let start = std::time::Instant::now();
    let plan = FloodPlan::from_archive(&workload, 90);
    assert_eq!(plan.session_count(), sessions);
    let rig = FloodRig::connect(addr, plan, FloodOptions::default()).expect("establish sessions");
    assert_eq!(rig.established_count(), sessions, "rig holds every session");
    // The rig counts a session Established when *its* FSM goes Up —
    // half a round-trip before the daemon processes the closing
    // KEEPALIVE — so the concurrency proof waits on the daemon's gauge.
    assert!(
        gauges.wait_for_established(sessions as u64, std::time::Duration::from_secs(30)),
        "daemon never reported {sessions} concurrent sessions"
    );
    println!(
        "soak: {sessions} sessions concurrently Established in {:.2} s \
         (daemon workers: {})",
        start.elapsed().as_secs_f64(),
        cfg.reactor.workers
    );

    // Phase 2 (observability): a live control socket, scraped from a
    // side thread once ingestion is underway — a real mid-soak scrape,
    // not a post-mortem read.
    let control =
        ControlServer::bind("127.0.0.1:0", collector.config_store(), collector.shutdown_handle())
            .expect("bind control socket");
    let control_addr = control.local_addr();
    let registry = collector.metrics();
    // The coordinator holds shutdown until the scrape lands, so the
    // daemon (and its control socket) are guaranteed alive mid-scrape
    // even when a small flood drains in milliseconds.
    let (scrape_done, scrape_gate) = std::sync::mpsc::channel::<()>();
    let scraper = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while registry.counter_value("kcc_ingest_updates_total", &[]) == 0 {
            assert!(std::time::Instant::now() < deadline, "soak never started ingesting");
            std::thread::sleep(Duration::from_millis(5));
        }
        let scrape = scrape_metrics(control_addr);
        let established = scraped_value(&scrape, "kcc_reactor_sessions_established_total");
        let ingested = scraped_value(&scrape, "kcc_ingest_updates_total");
        let overflows = scraped_value(&scrape, "kcc_reactor_write_queue_overflows_total");
        let ring_peak = scraped_value(&scrape, "kcc_live_ring_items");
        let ring_full = scraped_value(&scrape, "kcc_live_ring_full_total");
        assert_eq!(established, sessions as u64, "scrape disagrees with the soak's peer count");
        assert!(ingested > 0, "scraped mid-stream, ingest counter must be moving");
        assert_eq!(overflows, 0, "write queues must never overflow during the soak");
        assert!(
            ring_peak <= LIVE_RING_ITEMS as u64,
            "{ring_peak} items in flight to the pipeline, over the {LIVE_RING_ITEMS}-item bound"
        );
        if let Some(path) = metrics_out {
            std::fs::write(&path, &scrape).expect("write metrics scrape");
            println!("soak: metrics scrape written to {}", path.display());
        }
        println!(
            "soak: mid-soak scrape ok ({established} sessions established, \
             {ingested} updates ingested so far, 0 write-queue overflows, \
             live ring peak {ring_peak} of {LIVE_RING_ITEMS} items, found full {ring_full}×)"
        );
        drop(scrape_done);
    });

    // Phase 3: stream, drain, compare tables byte-for-byte.
    let stream_start = std::time::Instant::now();
    let coordinator = std::thread::spawn(move || {
        let report = rig.stream().expect("flood stream");
        // Wait for the mid-soak scrape (Err means the scraper panicked;
        // proceed — the join below surfaces it) before tearing down.
        let _ = scrape_gate.recv_timeout(Duration::from_secs(90));
        collector.shutdown();
        (report, collector.join())
    });
    let live = PipelineBuilder::new(source)
        .sink((CountsSink::default(), OverviewSink::default()))
        .shutdown(&stop)
        .run()
        .expect("live run");
    let (report, stats) = coordinator.join().expect("coordinator thread");
    scraper.join().expect("metrics scraper thread");
    control.join();
    assert_eq!(report.updates_sent, workload.update_count() as u64, "rig sent everything");
    assert_eq!(stats.updates, report.updates_sent, "daemon ingested everything");
    assert_eq!(stats.peak_established, sessions as u64, "peak gauge saw full concurrency");
    println!(
        "soak: streamed + drained {} updates in {:.2} s",
        stats.updates,
        stream_start.elapsed().as_secs_f64()
    );

    let (live_counts, live_overview) = live.sink;
    let live_counts = live_counts.finish();
    let live_overview = live_overview.finish();
    let reference = offline_reference(&workload, &cfg);
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
    let table1 = live_overview.render("Table 1 — soak capture");
    assert_eq!(table1, off_overview.render("Table 1 — soak capture"));
    let table2 = TypeShares::new(vec![("soak".into(), live_counts)]).render();
    assert_eq!(table2, TypeShares::new(vec![("soak".into(), off_counts)]).render());
    println!("\n{table1}");
    println!("\n{table2}");
    println!("\nPASS: {sessions} concurrent sessions, tables identical to offline analysis");
}
