//! `kcc` — the project's one command line: the live collector daemon,
//! the MRT report and watch tools, and every paper artifact.
//!
//! ```sh
//! kcc daemon --listen 127.0.0.1:1790 --mrt-dir dumps --duration 60   # live collector
//! kcc report rrc00.mrt rrc01.mrt dumps                               # cross-collector report
//! kcc watch --train yesterday --follow 30 dumps                      # CommunityWatch alerts
//! kcc figures all                                                    # the reproduction ledger
//! ```
//!
//! Every flag is one row of [`kcc_bench::args::FLAGS`]; `kcc <command>
//! --help` lists a command's. A flag the command does not take, or a
//! missing or unparsable value, exits 2 naming it before anything is
//! bound or opened; a run that fails exits 1. `report` and `watch` read
//! each input as one collector: a file named by its stem, or a directory
//! as one rotated feed (the layout `daemon --mrt-dir` writes) named after
//! itself.

use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcc_bench::args::{self, Matches};
use kcc_bench::{ledger, Args, ARTIFACTS};
use kcc_bgp_types::Asn;
use kcc_collector::{first_record_day, ShutdownFlag, UpdateArchive};
use kcc_core::corpus::run_corpus_report;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::table::{OverviewSink, TypeShares};
use kcc_core::{
    AllocationRegistry, CleaningConfig, CommunityProfiler, Corpus, CountsSink, MrtDirSource,
    MrtFileOptions, SourceError, WatchConfig, WatchReport, WatchSink,
};
use kcc_mrt::MrtError;
use kcc_obs::{Registry, TraceLevel};
use kcc_peer::{Collector, CollectorConfig, ControlServer, RotateConfig, StampMode};

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let command = words.next().unwrap_or_default();
    if command == "--help" || command == "-h" {
        print!("{}", args::usage(None));
        return ExitCode::SUCCESS;
    }
    let Some(&(command, _, _)) = args::COMMANDS.iter().find(|c| c.0 == command) else {
        eprint!("{}", args::usage(None));
        return ExitCode::from(2);
    };
    let run = match command {
        "daemon" => daemon,
        "report" => report,
        "watch" => watch,
        _ => figures,
    };
    match args::parse(command, words) {
        Ok(None) => print!("{}", args::usage(Some(command))),
        Ok(Some(m)) => run(&m).unwrap_or_else(|e| refuse(command, &e)),
        Err(e) => refuse(command, &e),
    }
    ExitCode::SUCCESS
}

/// A command line `command` cannot run: the reason and the usage on
/// stderr, exit 2.
fn refuse(command: &str, why: &str) -> ! {
    eprint!("kcc {command}: {why}\n\n{}", args::usage(Some(command)));
    std::process::exit(2)
}

/// A run that started and failed: the reason on stderr, exit 1.
fn fail(command: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("kcc {command}: {why}");
    std::process::exit(1)
}

fn figures(m: &Matches) -> Result<(), String> {
    let args = Args::from_matches(m)?;
    let name = m.operands.first().ok_or("name an artifact, or all")?;
    match ARTIFACTS.iter().find(|(n, _, _)| n == name) {
        Some((_, _, run)) => print!("{}", run(&args).render()),
        None if name == "all" => print!("{}", ledger(&args)),
        None => return Err(format!("no artifact `{name}`")),
    }
    Ok(())
}

/// `--stamp`: `arrival`, `logical` or `logical:US`.
fn stamp_mode(text: &str) -> Result<StampMode, String> {
    match text.split_once(':') {
        None if text == "arrival" => Ok(StampMode::Arrival),
        None if text == "logical" => Ok(StampMode::logical(1_000)),
        Some(("logical", spacing)) => Ok(StampMode::logical(args::value("--stamp", spacing)?)),
        _ => Err(format!("`--stamp` cannot take `{text}` (arrival or logical[:US])")),
    }
}

/// `--route-server`: `ASN@IP`.
fn route_server(text: &str) -> Result<(Asn, IpAddr), String> {
    let bad = || format!("`--route-server` cannot take `{text}` (ASN@IP)");
    let (asn, ip) = text.split_once('@').ok_or_else(bad)?;
    Ok((Asn(asn.parse().map_err(|_| bad())?), ip.parse().map_err(|_| bad())?))
}

const LEVELS: &str = "off|error|info|debug|trace";

fn daemon(m: &Matches) -> Result<(), String> {
    let mut cfg = CollectorConfig::new("rrc00", Asn(3333), Ipv4Addr::new(198, 51, 100, 1));
    m.set("--collector", &mut cfg.collector)?;
    cfg.local_asn = Asn(m.value("--asn")?.unwrap_or(cfg.local_asn.0));
    m.set("--bgp-id", &mut cfg.bgp_id)?;
    m.set("--hold", &mut cfg.hold_time)?;
    m.set("--epoch", &mut cfg.epoch_seconds)?;
    m.set("--workers", &mut cfg.reactor.workers)?;
    if let Some(text) = m.raw("--stamp").last() {
        cfg.daemon.stamp = stamp_mode(text)?;
    }
    for text in m.raw("--route-server") {
        cfg.daemon.route_servers.push(route_server(text)?);
    }
    if let Some(text) = m.raw("--trace-default").last() {
        cfg.daemon.trace.default =
            TraceLevel::parse(text).ok_or_else(|| format!("`--trace-default` wants {LEVELS}"))?;
    }
    for text in m.raw("--trace") {
        let (target, level) = text
            .split_once('=')
            .and_then(|(target, level)| Some((target, TraceLevel::parse(level)?)))
            .ok_or_else(|| format!("`--trace` wants TARGET=LEVEL (level: {LEVELS})"))?;
        cfg.daemon.trace.targets.insert(target.to_owned(), level);
    }
    let rotate = m.value("--mrt-rotate")?.unwrap_or(100_000);
    cfg.daemon.mrt = m.value::<String>("--mrt-dir")?.map(|dir| RotateConfig::new(dir, rotate));
    let listen = m.value("--listen")?.unwrap_or_else(|| String::from("127.0.0.1:1790"));
    let duration_secs: u64 = m.value("--duration")?.unwrap_or(0);
    let control: Option<String> = m.value("--control")?;
    let profile_every: Option<u64> = m.value("--profile-every")?;

    let mut collector = Collector::bind(&listen, cfg.clone())
        .unwrap_or_else(|e| fail("daemon", format!("cannot bind {listen}: {e}")));
    let source = collector.take_source();
    let (name, asn, addr) = (&cfg.collector, cfg.local_asn, collector.local_addr());
    println!("kcc daemon: collector {name} (AS{asn}) listening on {addr}");

    // The control socket shares the daemon's shutdown flag, so it exits
    // with the collector.
    let control = control.map(|addr| {
        let server =
            ControlServer::bind(&addr, collector.config_store(), collector.shutdown_handle())
                .unwrap_or_else(|e| {
                    fail("daemon", format!("cannot bind control socket {addr}: {e}"))
                });
        println!("kcc daemon: control socket on {}", server.local_addr());
        server
    });

    if duration_secs > 0 {
        // Trigger the *daemon* shutdown, not the source flag: sessions
        // then drain what they already received, Cease, and the feed
        // closes — so the pipeline run below finishes with every in-flight
        // update ingested instead of cutting the pipeline off early.
        let handle = collector.shutdown_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(duration_secs));
            handle.trigger();
        });
        println!("kcc daemon: will shut down after {duration_secs} s");
    }

    // The pipeline runs on the main thread until shutdown; the daemon's
    // reactor shards stamp updates and feed it directly through the
    // bounded live ring. Everything records into the one daemon registry
    // the control `metrics` command renders.
    let metrics = collector.metrics();
    let (counts, overview, watch_report, pipe_stats, profile) = if m.switch("--watch") {
        let watch = WatchSink::new(WatchConfig::default()).with_metrics(Arc::clone(&metrics));
        let b = PipelineBuilder::new(source).sink((
            CountsSink::default(),
            OverviewSink::default(),
            watch,
        ));
        let b = if let Some(every) = profile_every { b.profile(every) } else { b };
        let out = b.run().expect("live sources do not fail");
        let (counts, overview, watch) = out.sink;
        (counts, overview, Some(watch.finish()), out.stats, out.profile)
    } else {
        let b = PipelineBuilder::new(source).sink((CountsSink::default(), OverviewSink::default()));
        let b = if let Some(every) = profile_every { b.profile(every) } else { b };
        let out = b.run().expect("live sources do not fail");
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

    println!("\n{}\n", overview.finish().render("Table 1 — live capture"));
    println!("{}\n", TypeShares::new(vec![("live".into(), counts.finish())]).render());
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
        print_alerts(&report, "", &format!(" over {} windows", report.windows));
    }
    // Final metrics snapshot, rendered by the same code path as the
    // control socket's `metrics` command — what a scrape would have seen
    // at the instant the daemon exited.
    print!("\nmetrics:\n{}", metrics.render());
    Ok(())
}

/// What `report` and `watch` share: the inputs, one collector each, and
/// how to read them.
struct Inputs {
    command: &'static str,
    paths: Vec<PathBuf>,
    epoch: Option<u32>,
    options: MrtFileOptions,
    threads: usize,
    metrics_out: Option<PathBuf>,
}

impl Inputs {
    fn new(command: &'static str, m: &Matches) -> Result<Self, String> {
        Ok(Inputs {
            command,
            paths: m.operands.iter().map(PathBuf::from).collect(),
            epoch: m.value("--epoch")?,
            options: MrtFileOptions { clamp_pre_epoch: m.switch("--clamp"), ..Default::default() },
            threads: m.value("--threads")?.unwrap_or(4),
            metrics_out: m.value("--metrics-out")?,
        })
    }

    /// `--epoch`, or the earliest first record across the inputs and
    /// `more`, floored to midnight UTC.
    fn epoch(&self, more: &[PathBuf]) -> u32 {
        if self.paths.is_empty() {
            fail(self.command, "no inputs (see --help)");
        }
        self.epoch.or_else(|| first_record_day(self.paths.iter().chain(more))).unwrap_or_else(
            || fail(self.command, "could not derive an epoch (empty inputs?); pass --epoch"),
        )
    }

    /// The corpus, one collector per input. A directory is named after
    /// itself and, when `follow`, tailed until its flag (returned) is
    /// triggered.
    fn corpus(&self, epoch: u32, follow: bool) -> (Corpus<'static>, Vec<ShutdownFlag>) {
        let mut corpus = Corpus::new();
        let mut stops = Vec::new();
        for path in &self.paths {
            let pushed = if path.is_dir() {
                let name = path.file_name().and_then(|s| s.to_str()).unwrap_or_else(|| {
                    fail(self.command, format!("unnameable feed directory: {}", path.display()))
                });
                let mut feed = self.feed(path, name, epoch);
                if follow {
                    feed = feed.follow(Duration::from_millis(200));
                    stops.push(feed.shutdown_flag());
                }
                corpus.push(name, feed)
            } else {
                corpus.push_mrt_file_with(path, epoch, &self.options)
            };
            pushed.unwrap_or_else(|e| self.failed(e));
        }
        (corpus, stops)
    }

    /// Directory `path` as collector `name`'s rotated feed.
    fn feed(&self, path: &Path, name: &str, epoch: u32) -> MrtDirSource {
        MrtDirSource::new(path, name, epoch).with_options(self.options.clone())
    }

    /// A failed run; a record before the epoch gets the `--clamp` hint.
    fn failed(&self, e: SourceError) -> ! {
        let cause = match &e {
            SourceError::Collector(_, cause) => cause,
            e => e,
        };
        if !self.options.clamp_pre_epoch
            && matches!(cause, SourceError::Mrt(MrtError::PreEpochRecord { .. }))
        {
            eprintln!("kcc {}: {e}", self.command);
            fail(
                self.command,
                "(records before the epoch fail the run by default; \
                 re-run with --clamp to accept and count them, or pass an earlier --epoch)",
            );
        }
        fail(self.command, e)
    }

    /// Writes `metrics` to `--metrics-out`, if given, and says so.
    fn write_metrics(&self, metrics: impl FnOnce(&Registry)) {
        let Some(path) = &self.metrics_out else { return };
        let registry = Registry::new();
        metrics(&registry);
        std::fs::write(path, registry.render()).unwrap_or_else(|e| {
            fail(self.command, format!("cannot write {}: {e}", path.display()))
        });
        println!("metrics written to {}", path.display());
    }
}

fn report(m: &Matches) -> Result<(), String> {
    let inputs = Inputs::new("report", m)?;
    let epoch = inputs.epoch(&[]);
    let (corpus, _) = inputs.corpus(epoch, false);
    let threads = inputs.threads.clamp(1, corpus.len().max(1));
    println!("corpus: {} collectors, epoch {epoch} ({threads} threads)\n", corpus.len());

    // MRT carries no allocation data: run the granularity normalization
    // only, against an empty registry.
    let registry = AllocationRegistry::new();
    let cleaning = CleaningConfig {
        filter_unallocated: false,
        insert_route_server_asn: false,
        normalize_timestamps: true,
    };
    let started = Instant::now();
    let report = run_corpus_report(corpus, inputs.threads, &registry, cleaning)
        .unwrap_or_else(|e| inputs.failed(e));
    let secs = started.elapsed().as_secs_f64();
    inputs.write_metrics(|metrics| {
        report.export_metrics(metrics);
        if secs > 0.0 {
            let rate = (report.stats.updates as f64 / secs) as i64;
            metrics.gauge("kcc_corpus_updates_per_sec").set(rate);
        }
    });
    if inputs.metrics_out.is_some() {
        println!();
    }
    print!("{}", report.render());
    let stats = &report.stats;
    let (sessions, streams, peak) = (stats.sessions, stats.streams, stats.peak_state_bytes);
    println!("\npipeline: {sessions} sessions, {streams} streams, peak state {peak} bytes");
    Ok(())
}

fn watch(m: &Matches) -> Result<(), String> {
    let inputs = Inputs::new("watch", m)?;
    let train: Vec<PathBuf> = m.raw("--train").map(PathBuf::from).collect();
    let follow: Option<u64> = m.value("--follow")?;
    let mut cfg = WatchConfig::default();
    m.set("--window-us", &mut cfg.window_us)?;
    m.set("--learn", &mut cfg.learn_windows)?;
    m.set("--rate-min", &mut cfg.rate_min)?;
    m.set("--outage-windows", &mut cfg.outage_windows)?;

    let epoch = inputs.epoch(&train);
    let (corpus, stops) = inputs.corpus(epoch, follow.is_some());
    // A training input is read by the same rule, as collector `train`.
    let profiler = (!train.is_empty()).then(|| {
        let mut profiler = CommunityProfiler::new();
        for path in &train {
            let day = if path.is_dir() {
                UpdateArchive::from_source(&mut inputs.feed(path, "train", epoch), epoch)
            } else {
                inputs
                    .options
                    .open(path, "train", epoch)
                    .and_then(|mut file| UpdateArchive::from_source(&mut file, epoch))
            };
            profiler.train(&day.unwrap_or_else(|e| inputs.failed(e)));
        }
        Arc::new(profiler)
    });

    // Follow mode ends by the clock.
    let timer = follow.filter(|_| !stops.is_empty()).map(|secs| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(secs));
            stops.iter().for_each(ShutdownFlag::trigger);
        })
    });
    let out = PipelineBuilder::collectors(corpus)
        .threads(inputs.threads)
        .stages_for(|_: &str| ())
        .sinks_for(move |_: &str| match &profiler {
            Some(p) => WatchSink::new(cfg).with_profile(Arc::clone(p)),
            None => WatchSink::new(cfg),
        })
        .run()
        .unwrap_or_else(|e| inputs.failed(e));
    if let Some(timer) = timer {
        let _ = timer.join();
    }
    let report = out.combined.finish();

    inputs.write_metrics(|metrics| report.export_metrics(metrics));
    let (communities, unanimous, disputed) = report.agreement_summary();
    let totals = format!(
        "\nwatch: {} updates, {} streams, {} active windows; \
         {communities} communities across collectors ({unanimous} unanimous, {disputed} disputed)",
        report.updates, report.streams, report.windows
    );
    print_alerts(&report, &totals, "");
    Ok(())
}

/// Every alert on its stable line, then `totals` (if any), then the
/// per-kind count: `watch: N alerts{scope} (kind xN, …)`, or
/// `watch: no alerts{scope}`.
fn print_alerts(report: &WatchReport, totals: &str, scope: &str) {
    for alert in &report.alerts {
        println!("{}", alert.to_line());
    }
    if !totals.is_empty() {
        println!("{totals}");
    }
    if report.alerts.is_empty() {
        println!("watch: no alerts{scope}");
    } else {
        let kinds: Vec<String> =
            report.kind_counts().iter().map(|(k, n)| format!("{k} x{n}")).collect();
        println!("watch: {} alerts{scope} ({})", report.alerts.len(), kinds.join(", "));
    }
}
