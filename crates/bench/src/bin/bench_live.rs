//! Live-ingest scaling: loopback TCP BGP → reactor → pipeline, as a
//! sessions × throughput matrix, with machine-readable output
//! (`BENCH_live.json`) — the perf anchor for the event-driven session
//! engine, next to `BENCH_pipeline.json`'s offline numbers.
//!
//! For each point of `--peers`, spawns an in-process collector daemon on
//! a loopback socket, drives that many **concurrent** nonblocking BGP
//! sessions through the flood rig (all of them Established before the
//! first UPDATE), streams `--updates` total UPDATE messages across them,
//! and measures wall time from stream start to the pipeline having
//! drained the feed. Each point is the best of `--repeat` runs
//! (default 3) and asserts the live classification equals the offline
//! reference before its rate is trusted.
//!
//! ```sh
//! cargo run --release -p kcc_bench --bin bench_live -- \
//!     --peers 4,64,1000,5000 --updates 100000 --out BENCH_live.json
//! ```

use std::fmt::Write as _;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use kcc_bgp_types::Asn;
use kcc_collector::{SessionKey, UpdateArchive};
use kcc_core::{CountsSink, PipelineBuilder};
use kcc_peer::{
    offline_reference, sys, Collector, CollectorConfig, FloodOptions, FloodPlan, FloodRig,
    StampMode,
};
use kcc_tracegen::{generate_mar20, Mar20Config};

struct Point {
    peers: usize,
    updates: u64,
    seconds: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut peer_points = vec![4usize, 64, 1_000, 5_000];
    let mut total_updates = 100_000u64;
    let mut repeat = 3u32;
    let mut out_path = String::from("BENCH_live.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--peers" => {
                if let Some(v) = it.next() {
                    peer_points = v.split(',').filter_map(|s| s.parse().ok()).collect();
                }
            }
            "--updates" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    total_updates = v;
                }
            }
            "--repeat" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    repeat = v;
                }
            }
            "--out" => {
                if let Some(v) = it.next() {
                    out_path = v.clone();
                }
            }
            _ => {}
        }
    }
    assert!(repeat >= 1, "--repeat wants at least 1");
    assert!(!peer_points.is_empty(), "need at least one --peers point");
    // 2 fds per session (client + daemon side) plus headroom.
    let want_fds = peer_points.iter().max().unwrap() * 2 + 512;
    if let Err(e) = sys::raise_nofile_limit(want_fds as u64) {
        eprintln!("bench_live: cannot raise fd limit to {want_fds}: {e}");
    }

    // Workload: one generated day's updates, re-dealt onto each point's
    // session count so every speaker has a realistic mix of
    // announcements, withdrawals and community churn.
    let day = generate_mar20(&Mar20Config {
        target_announcements: total_updates + total_updates / 4,
        ..Default::default()
    });
    let all = day.archive.all_updates();

    // Each point is the best of `repeat` runs: the daemon shares the
    // machine with the rig and the pipeline, so single runs carry
    // scheduler noise the minimum filters out.
    let mut points = Vec::new();
    for &peers in &peer_points {
        let workload = deal(&all, peers, total_updates);
        let mut best = run_point(peers, &workload);
        for _ in 1..repeat {
            let p = run_point(peers, &workload);
            if p.seconds < best.seconds {
                best = p;
            }
        }
        points.push(best);
    }

    let mut json = String::from("{\"bench\":\"live\",\"results\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let rate = p.updates as f64 / p.seconds;
        let _ = write!(
            json,
            "{{\"peers\":{},\"updates\":{},\"seconds\":{:.6},\"updates_per_sec\":{:.0}}}",
            p.peers, p.updates, p.seconds, rate
        );
    }
    json.push_str("]}\n");
    std::fs::write(&out_path, &json).expect("write json");
    println!("{json}");
}

/// Deals `total` updates of the generated day round-robin onto `peers`
/// sessions.
fn deal(
    all: &[(SessionKey, kcc_bgp_types::RouteUpdate)],
    peers: usize,
    total: u64,
) -> UpdateArchive {
    let mut workload = UpdateArchive::new(0);
    let mut dealt = 0u64;
    for (i, (_, update)) in all.iter().enumerate() {
        let p = i % peers;
        let key = SessionKey::new(
            "bench",
            Asn(64_512 + p as u32),
            IpAddr::V4(Ipv4Addr::new(10, 99, (p >> 8) as u8, (p & 0xFF) as u8)),
        );
        workload.record(&key, update.clone());
        dealt += 1;
        if dealt >= total {
            break;
        }
    }
    workload
}

/// One matrix point: `peers` concurrent sessions streaming `workload`.
fn run_point(peers: usize, workload: &UpdateArchive) -> Point {
    let dealt_updates = workload.update_count() as u64;
    let cfg = CollectorConfig::new("bench", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    let addr = collector.local_addr();
    let source = collector.take_source();
    let stop = source.shutdown_flag();

    let plan = FloodPlan::from_archive(workload, 90);
    eprintln!("bench_live: {peers} sessions × {dealt_updates} total updates → {addr}");
    let rig =
        FloodRig::connect(addr, plan, FloodOptions::default()).expect("establish flood sessions");
    assert_eq!(rig.established_count(), peers, "every session concurrently Established");
    // The rig counts a session when *its* FSM goes Up — half a round-trip
    // before the daemon's side. Wait for the daemon's own gauge before
    // streaming, so the peak-concurrency assertion below is
    // deterministic even when the first sessions finish quickly.
    assert!(
        collector.gauges().wait_for_established(peers as u64, std::time::Duration::from_secs(60)),
        "daemon never reported {peers} concurrent sessions"
    );

    // The measured stretch: all sessions stream, the daemon ingests, the
    // pipeline drains. Handshake cost is excluded — this is the
    // steady-state rate a long-lived daemon sustains.
    let start = Instant::now();
    let coordinator = std::thread::spawn(move || {
        let report = rig.stream().expect("flood stream");
        collector.shutdown();
        (report, collector.join())
    });
    let out = PipelineBuilder::new(source)
        .sink(CountsSink::default())
        .shutdown(&stop)
        .run()
        .expect("live run");
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let (report, stats) = coordinator.join().expect("coordinator thread");

    // Sanity: everything sent was ingested and classified identically to
    // the offline path, and the daemon really held `peers` sessions at
    // once on a bounded worker pool.
    assert_eq!(report.updates_sent, dealt_updates, "rig sent the whole workload");
    assert_eq!(stats.updates, dealt_updates, "daemon ingested everything");
    assert_eq!(stats.peak_established, peers as u64, "daemon held all sessions concurrently");
    let reference = offline_reference(workload, &cfg);
    let offline = kcc_core::classify_archive(&reference);
    assert_eq!(out.sink.finish(), offline, "live classification != offline");

    let rate = dealt_updates as f64 / seconds;
    eprintln!(
        "bench_live: {peers} sessions: {dealt_updates} updates in {seconds:.3} s → {rate:.0} upd/s"
    );
    Point { peers, updates: dealt_updates, seconds }
}
