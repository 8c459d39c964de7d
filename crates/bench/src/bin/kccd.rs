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
//! the runtime trace filter before the daemon binds. A flag whose value
//! is missing or does not parse exits 2, naming the flag.
//!
//! The daemon keeps one `kcc_obs::Registry` of Prometheus-style metrics
//! (reactor session/frame counters, ingest throughput, watch alerts).
//! Scrape it live with the control command `metrics`; the shutdown
//! summary ends with the same rendered snapshot. `--profile-every N`
//! additionally wall-clocks every N-th update through each pipeline
//! phase and folds the histograms into the registry.

use std::net::IpAddr;
use std::time::Duration;

use kcc_bench::args::value;
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
    profile_every: Option<u64>,
}

/// Parses the command line. A missing or unparsable value is an error
/// naming its flag.
fn parse_args() -> Result<Options, String> {
    let mut listen = String::from("127.0.0.1:1790");
    let mut cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap());
    let mut duration_secs = 0u64;
    let mut mrt_dir: Option<String> = None;
    let mut mrt_rotate = 100_000u64;
    let mut watch = false;
    let mut control: Option<String> = None;
    let mut profile_every: Option<u64> = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = value(&a, it.next())?,
            "--collector" => cfg.collector = value(&a, it.next())?,
            "--asn" => cfg.local_asn = Asn(value(&a, it.next())?),
            "--bgp-id" => cfg.bgp_id = value(&a, it.next())?,
            "--hold" => cfg.hold_time = value(&a, it.next())?,
            "--epoch" => cfg.epoch_seconds = value(&a, it.next())?,
            "--stamp" => {
                let v: String = value(&a, it.next())?;
                cfg.daemon.stamp = match v.split_once(':') {
                    None if v == "arrival" => StampMode::Arrival,
                    None if v == "logical" => StampMode::logical(1_000),
                    Some(("logical", spacing)) => {
                        StampMode::logical(value(&a, Some(spacing.to_owned()))?)
                    }
                    _ => return Err(format!("`{a}` cannot take `{v}` (arrival or logical[:US])")),
                };
            }
            "--route-server" => {
                // ASN@IP, repeatable.
                let v: String = value(&a, it.next())?;
                let bad = || format!("`{a}` cannot take `{v}` (ASN@IP)");
                let (asn, ip) = v.split_once('@').ok_or_else(bad)?;
                let asn: u32 = asn.parse().map_err(|_| bad())?;
                let ip: IpAddr = ip.parse().map_err(|_| bad())?;
                cfg.daemon.route_servers.push((Asn(asn), ip));
            }
            "--mrt-dir" => mrt_dir = Some(value(&a, it.next())?),
            "--mrt-rotate" => mrt_rotate = value(&a, it.next())?,
            "--duration" => duration_secs = value(&a, it.next())?,
            "--watch" => watch = true,
            "--workers" => cfg.reactor.workers = value(&a, it.next())?,
            "--control" => control = Some(value(&a, it.next())?),
            "--profile-every" => profile_every = Some(value(&a, it.next())?),
            "--trace-default" => {
                let v: String = value(&a, it.next())?;
                cfg.daemon.trace.default = TraceLevel::parse(&v)
                    .ok_or_else(|| format!("`{a}` wants off|error|info|debug|trace"))?;
            }
            "--trace" => {
                // TARGET=LEVEL, repeatable.
                let v: String = value(&a, it.next())?;
                let (target, level) = v
                    .split_once('=')
                    .and_then(|(target, level)| TraceLevel::parse(level).map(|l| (target, l)))
                    .ok_or_else(|| {
                        format!("`{a}` wants TARGET=LEVEL (level: off|error|info|debug|trace)")
                    })?;
                cfg.daemon.trace.targets.insert(target.to_owned(), level);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(dir) = mrt_dir {
        cfg.daemon.mrt = Some(RotateConfig::new(dir, mrt_rotate));
    }
    Ok(Options { listen, cfg, duration_secs, watch, control, profile_every })
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| {
        eprintln!("kccd: {e}");
        std::process::exit(2);
    });
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

    // The control socket shares the daemon's shutdown flag, so it exits
    // with the collector.
    let control = opts.control.as_ref().map(|addr| {
        let server =
            ControlServer::bind(addr, collector.config_store(), collector.shutdown_handle())
                .unwrap_or_else(|e| {
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
