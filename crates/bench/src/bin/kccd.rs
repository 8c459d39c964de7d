//! `kccd` — the live BGP collector daemon.
//!
//! Accepts BGP sessions from any number of peers, runs the RFC 4271 FSM
//! per session, streams every received UPDATE through the one-pass
//! analysis pipeline (Table 1 overview + Table 2 type shares), and
//! optionally tees the feed into rotating MRT dumps so the capture
//! re-analyzes offline.
//!
//! ```sh
//! kccd --listen 127.0.0.1:1790 --collector rrc00 --asn 3333 \
//!      --mrt-dir ./dumps --mrt-rotate 100000 --duration 60
//! ```
//!
//! `--duration 0` (default) runs until the process is killed; with a
//! positive duration the daemon shuts down gracefully after that many
//! seconds — Cease to every peer, feed drained, tables printed.
//!
//! `--watch` adds the CommunityWatch detection sink to the live
//! pipeline; the shutdown summary then ends with the typed alert list
//! (path, rate and outage checks over the whole capture).
//!
//! Sessions run on the event-driven epoll reactor: `--workers N` sets
//! the shard-thread count (a handful of workers carries thousands of
//! sessions).
//! `--control ADDR` opens the line-protocol control socket — peers,
//! listeners, stamping, MRT rotation and trace levels are then
//! hot-reloadable (`echo "set stamp arrival" | nc ...; echo commit | …`).
//! `--trace TARGET=LEVEL` (repeatable) and `--trace-default LEVEL` seed
//! the runtime trace filter.
//!
//! The daemon keeps one `kcc_obs::Registry` of Prometheus-style metrics
//! (reactor session/frame counters, ingest throughput, watch alerts).
//! Scrape it live with the control command `metrics`; the shutdown
//! summary ends with the same rendered snapshot. `--profile-every N`
//! additionally wall-clocks every N-th update through each pipeline
//! phase and folds the histograms into the registry.

use std::net::IpAddr;
use std::time::Duration;

use kcc_bgp_types::Asn;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::table::{OverviewSink, TypeShares};
use kcc_core::{CountsSink, WatchConfig, WatchReport, WatchSink};
use kcc_peer::{Collector, CollectorConfig, ControlServer, RotateConfig, StampMode, TraceLevel};

struct Options {
    listen: String,
    cfg: CollectorConfig,
    duration_secs: u64,
    watch: bool,
    control: Option<String>,
    trace_default: Option<TraceLevel>,
    trace_targets: Vec<(String, TraceLevel)>,
    profile_every: Option<u64>,
}

fn parse_args() -> Options {
    let mut listen = String::from("127.0.0.1:1790");
    let mut cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap());
    let mut duration_secs = 0u64;
    let mut mrt_dir: Option<String> = None;
    let mut mrt_rotate = 100_000u64;
    let mut watch = false;
    let mut control: Option<String> = None;
    let mut trace_default: Option<TraceLevel> = None;
    let mut trace_targets: Vec<(String, TraceLevel)> = Vec::new();
    let mut profile_every: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned().unwrap_or(listen),
            "--collector" => {
                if let Some(v) = it.next() {
                    cfg.collector = v.clone();
                }
            }
            "--asn" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.local_asn = Asn(v);
                }
            }
            "--bgp-id" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.bgp_id = v;
                }
            }
            "--hold" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.hold_time = v;
                }
            }
            "--epoch" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.epoch_seconds = v;
                }
            }
            "--stamp" => match it.next().map(String::as_str) {
                Some("arrival") => cfg.stamp = StampMode::Arrival,
                Some(s) if s.starts_with("logical") => {
                    let spacing =
                        s.split_once(':').and_then(|(_, v)| v.parse().ok()).unwrap_or(1_000);
                    cfg.stamp = StampMode::logical(spacing);
                }
                other => {
                    eprintln!(
                        "kccd: --stamp wants 'arrival' or 'logical[:SPACING_US]', got {other:?}"
                    );
                    std::process::exit(2);
                }
            },
            "--route-server" => {
                // ASN@IP, repeatable.
                if let Some((asn, ip)) = it.next().and_then(|v| v.split_once('@')) {
                    if let (Ok(asn), Ok(ip)) = (asn.parse::<u32>(), ip.parse::<IpAddr>()) {
                        cfg.route_servers.push((Asn(asn), ip));
                    }
                }
            }
            "--mrt-dir" => mrt_dir = it.next().cloned(),
            "--mrt-rotate" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    mrt_rotate = v;
                }
            }
            "--duration" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    duration_secs = v;
                }
            }
            "--watch" => watch = true,
            "--workers" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    cfg.reactor.workers = v;
                }
            }
            "--control" => control = it.next().cloned(),
            "--profile-every" => {
                profile_every = it.next().and_then(|s| s.parse().ok());
                if profile_every.is_none() {
                    eprintln!("kccd: --profile-every wants a positive sample interval");
                    std::process::exit(2);
                }
            }
            "--trace-default" => {
                trace_default = it.next().and_then(|s| TraceLevel::parse(s));
                if trace_default.is_none() {
                    eprintln!("kccd: --trace-default wants off|error|info|debug|trace");
                    std::process::exit(2);
                }
            }
            "--trace" => {
                // TARGET=LEVEL, repeatable.
                let parsed =
                    it.next().and_then(|v| v.split_once('=')).and_then(|(target, level)| {
                        TraceLevel::parse(level).map(|l| (target.to_owned(), l))
                    });
                match parsed {
                    Some(pair) => trace_targets.push(pair),
                    None => {
                        eprintln!(
                            "kccd: --trace wants TARGET=LEVEL (level: off|error|info|debug|trace)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("kccd: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = mrt_dir {
        cfg.mrt = Some(RotateConfig::new(dir, mrt_rotate));
    }
    Options {
        listen,
        cfg,
        duration_secs,
        watch,
        control,
        trace_default,
        trace_targets,
        profile_every,
    }
}

fn main() {
    let opts = parse_args();
    let mut collector = match Collector::bind(&opts.listen, opts.cfg.clone()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kccd: cannot bind {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    let source = collector.take_source();
    let stop = source.shutdown_flag();
    println!(
        "kccd: collector {} (AS{}) listening on {}",
        opts.cfg.collector,
        opts.cfg.local_asn,
        collector.local_addr()
    );

    // Seed the runtime trace filter from the CLI (one commit before any
    // peer dials in).
    let store = collector.config_store();
    if opts.trace_default.is_some() || !opts.trace_targets.is_empty() {
        store.edit(|c| {
            if let Some(level) = opts.trace_default {
                c.trace.default = level;
            }
            for (target, level) in &opts.trace_targets {
                c.trace.targets.insert(target.clone(), *level);
            }
        });
        store.commit();
    }

    // The control socket shares the daemon's shutdown flag, so it exits
    // with the collector.
    let control = opts.control.as_ref().map(|addr| {
        let server =
            ControlServer::bind(addr, store, collector.shutdown_handle()).unwrap_or_else(|e| {
                eprintln!("kccd: cannot bind control socket {addr}: {e}");
                std::process::exit(1);
            });
        println!("kccd: control socket on {}", server.local_addr());
        server
    });

    if opts.duration_secs > 0 {
        // Trigger the *daemon* shutdown, not the source flag: sessions
        // then drain what they already received, Cease, and the feed
        // closes — so the pipeline run below finishes with every in-flight
        // update ingested instead of cutting the pipeline off early.
        let handle = collector.shutdown_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(opts.duration_secs));
            handle.trigger();
        });
        println!("kccd: will shut down after {} s", opts.duration_secs);
    }

    // The pipeline runs on the main thread until shutdown; the daemon's
    // reactor shards stamp updates and feed it directly through the
    // bounded live ring. Everything records into the one daemon registry
    // the control `metrics` command renders.
    let metrics = collector.metrics();
    let (counts, overview, watch_report, pipe_stats, profile) = if opts.watch {
        let mut builder = PipelineBuilder::new(source)
            .sink((
                CountsSink::default(),
                OverviewSink::default(),
                WatchSink::new(WatchConfig::default())
                    .with_metrics(std::sync::Arc::clone(&metrics)),
            ))
            .shutdown(&stop);
        if let Some(every) = opts.profile_every {
            builder = builder.profile(every);
        }
        let out = builder.run().expect("live sources do not fail");
        let (counts, overview, watch) = out.sink;
        (counts, overview, Some(watch.finish()), out.stats, out.profile)
    } else {
        let mut builder = PipelineBuilder::new(source)
            .sink((CountsSink::default(), OverviewSink::default()))
            .shutdown(&stop);
        if let Some(every) = opts.profile_every {
            builder = builder.profile(every);
        }
        let out = builder.run().expect("live sources do not fail");
        let (counts, overview) = out.sink;
        (counts, overview, None, out.stats, out.profile)
    };
    if let Some(profile) = &profile {
        profile.export(&metrics, &[]);
    }

    // Shutdown: Cease every session, join every thread, then report.
    collector.shutdown();
    let stats = collector.join();
    if let Some(server) = control {
        server.join();
    }

    println!();
    println!("{}", overview.finish().render("Table 1 — live capture"));
    println!();
    println!("{}", TypeShares::new(vec![("live".into(), counts.finish())]).render());
    println!();
    println!(
        "sessions: {} accepted, {} established ({} peak concurrent), {} distinct, {} closed",
        stats.accepted, stats.established, stats.peak_established, stats.sessions, stats.closed
    );
    println!(
        "updates: {} ingested ({} kept by pipeline, {} streams, peak state {} B)",
        stats.updates, pipe_stats.kept, pipe_stats.streams, pipe_stats.peak_state_bytes
    );
    if !stats.mrt_files.is_empty() {
        println!("mrt: {} records over {} dump file(s)", stats.mrt_records, stats.mrt_files.len());
        for f in &stats.mrt_files {
            println!("  {}", f.display());
        }
    }
    if let Some(report) = watch_report {
        println!();
        print_watch(&report);
    }

    // Final metrics snapshot, rendered by the same code path as the
    // control socket's `metrics` command — what a scrape would have seen
    // at the instant the daemon exited.
    println!();
    println!("metrics:");
    print!("{}", metrics.render());
}

/// The CommunityWatch section of the shutdown summary: every typed
/// alert on its stable serialized line, then the per-kind totals.
fn print_watch(report: &WatchReport) {
    for alert in &report.alerts {
        println!("{}", alert.to_line());
    }
    if report.alerts.is_empty() {
        println!("watch: no alerts over {} windows", report.windows);
    } else {
        let kinds: Vec<String> =
            report.kind_counts().iter().map(|(k, n)| format!("{k} x{n}")).collect();
        println!(
            "watch: {} alerts over {} windows ({})",
            report.alerts.len(),
            report.windows,
            kinds.join(", ")
        );
    }
}
