//! `kcc-watch` — the CommunityWatch anomaly service over MRT corpora
//! and rotated dump directories, plus its eval and soak harnesses.
//!
//! Inputs: `*.mrt` files (each one collector, named by file stem) and/or
//! directories (each one *rotated collector feed* — every `*.mrt` inside
//! streamed in name order under the directory's name, the layout a
//! `kccd --dump-dir` daemon writes). Every vantage runs through its own
//! [`WatchSink`] pipeline; the merged report's alerts print one per
//! line in the canonical deterministic order.
//!
//! ```sh
//! kcc-watch rrc00.mrt rrc01.mrt                 # corpus of dumps
//! kcc-watch --follow 30 /var/kccd/dumps         # tail a daemon feed
//! kcc-watch --train yesterday/ today.mrt        # + §7 profile checks
//! kcc-watch --eval                              # labeled fault library
//! kcc-watch --soak 90000                        # self-contained soak
//! ```
//!
//! `--eval` replays the four labeled fault scenarios
//! (`kcc_bgp_sim::fault_library`) through the detector and fails unless
//! every scenario raises exactly its labeled alert kind. `--soak N`
//! generates an N-announcement multi-vantage day, injects a prefix
//! hijack into one vantage and silences another for the tail of the
//! day, replays the whole corpus through the watch pipeline, and fails
//! unless exactly those two alert kinds fire — the end-to-end gate CI
//! runs under a memory ceiling.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use kcc_bench::args::value;
use kcc_bench::watch_eval::{alert_lines, eval_library};
use kcc_bgp_types::{AsPath, Asn, MessageKind, PathAttributes, Prefix, RouteUpdate};
use kcc_collector::{first_record_day, UpdateArchive};
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::{
    CommunityProfiler, Corpus, MrtDirSource, MrtFileOptions, WatchConfig, WatchReport, WatchSink,
};
use kcc_tracegen::{vantage_names, MultiVantageConfig, VantageSource};

struct Options {
    inputs: Vec<PathBuf>,
    train: Vec<PathBuf>,
    epoch: Option<u32>,
    clamp: bool,
    threads: usize,
    follow_secs: Option<u64>,
    cfg: WatchConfig,
    metrics_out: Option<PathBuf>,
}

fn usage() {
    println!(
        "usage: kcc-watch [--epoch SECONDS] [--clamp] [--threads N] [--follow SECS]\n\
         \x20                [--window-us N] [--learn N] [--rate-min N] [--outage-windows N]\n\
         \x20                [--metrics-out FILE]\n\
         \x20                [--train <file.mrt|dir>]... <file.mrt | dir>...\n\
         \x20      kcc-watch --eval\n\
         \x20      kcc-watch --soak [ANNOUNCEMENTS]\n\
         \n\
         Files are collectors named by stem; a directory is one rotated\n\
         collector feed (kccd dump layout). --follow tails directories for\n\
         SECS seconds before draining. --train enables the community\n\
         profile checks (novel values, blackhole injection, bursts)."
    );
}

/// Loads one training input (file or directory-as-one-feed) into an
/// archive and folds it into the profiler.
fn train_profiler(
    profiler: &mut CommunityProfiler,
    path: &Path,
    epoch: u32,
    options: &MrtFileOptions,
) -> Result<(), String> {
    let archive = if path.is_dir() {
        let mut src = MrtDirSource::new(path, "train", epoch).with_options(options.clone());
        UpdateArchive::from_source(&mut src, epoch).map_err(|e| e.to_string())?
    } else {
        let mut src = options.open(path, "train", epoch).map_err(|e| e.to_string())?;
        UpdateArchive::from_source(&mut src, epoch).map_err(|e| e.to_string())?
    };
    profiler.train(&archive);
    Ok(())
}

/// Collector name for a directory feed: the directory's file name.
fn dir_collector_name(dir: &Path) -> Result<String, String> {
    dir.file_name()
        .and_then(|s| s.to_str())
        .map(str::to_owned)
        .ok_or_else(|| format!("unnameable feed directory: {}", dir.display()))
}

/// Builds the corpus and runs the watch pipelines; returns the merged
/// report.
fn run_watch(opts: &Options, epoch: u32) -> Result<WatchReport, String> {
    let options = MrtFileOptions { clamp_pre_epoch: opts.clamp, ..Default::default() };
    let mut corpus = Corpus::new();
    let mut stop_flags = Vec::new();
    for input in &opts.inputs {
        if input.is_dir() {
            let name = dir_collector_name(input)?;
            let mut src = MrtDirSource::new(input, &name, epoch).with_options(options.clone());
            if let Some(secs) = opts.follow_secs {
                src = src.follow(Duration::from_millis(200));
                stop_flags.push((src.shutdown_flag(), secs));
            }
            corpus.push(&name, src).map_err(|e| e.to_string())?;
        } else {
            corpus.push_mrt_file_with(input, epoch, &options).map_err(|e| e.to_string())?;
        }
    }

    let profiler = if opts.train.is_empty() {
        None
    } else {
        let mut p = CommunityProfiler::new();
        for path in &opts.train {
            train_profiler(&mut p, path, epoch, &options)?;
        }
        Some(Arc::new(p))
    };

    // Follow mode ends by the clock: one timer thread per followed feed.
    let timers: Vec<_> = stop_flags
        .into_iter()
        .map(|(flag, secs)| {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_secs(secs));
                flag.trigger();
            })
        })
        .collect();

    let cfg = opts.cfg;
    let make_profiler = profiler.clone();
    let out = PipelineBuilder::collectors(corpus)
        .threads(opts.threads)
        .stages_for(|_: &str| ())
        .sinks_for(move |_: &str| {
            let sink = WatchSink::new(cfg);
            match &make_profiler {
                Some(p) => sink.with_profile(Arc::clone(p)),
                None => sink,
            }
        })
        .run()
        .map_err(|e| e.to_string())?;
    for t in timers {
        let _ = t.join();
    }
    Ok(out.combined.finish())
}

fn print_report(report: &WatchReport) {
    for alert in &report.alerts {
        println!("{}", alert.to_line());
    }
    let (communities, unanimous, disputed) = report.agreement_summary();
    println!(
        "\nwatch: {} updates, {} streams, {} active windows; \
         {} communities across collectors ({unanimous} unanimous, {disputed} disputed)",
        report.updates, report.streams, report.windows, communities
    );
    if report.alerts.is_empty() {
        println!("watch: no alerts");
    } else {
        let kinds: Vec<String> =
            report.kind_counts().iter().map(|(k, n)| format!("{k} x{n}")).collect();
        println!("watch: {} alerts ({})", report.alerts.len(), kinds.join(", "));
    }
}

fn run_eval() -> ExitCode {
    let results = eval_library();
    let mut ok = true;
    for r in &results {
        println!("{}", r.to_line());
        for line in alert_lines(&r.report) {
            println!("  {line}");
        }
        ok &= r.pass;
    }
    if ok {
        println!("eval: all {} labeled faults detected, no false alert kinds", results.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("eval: FAILED");
        ExitCode::FAILURE
    }
}

/// One vantage of the generated soak day, materialized for fault
/// injection.
fn soak_vantage(cfg: &MultiVantageConfig, name: &str) -> UpdateArchive {
    let mut src = VantageSource::new(cfg, name);
    UpdateArchive::from_source(&mut src, cfg.base.epoch_seconds)
        .expect("generated sources cannot fail")
}

/// Makes the generated background day path-stable so the injected
/// faults are the *only* path-level deviations: pins every
/// `(session, prefix)` stream to its first-seen AS path (the raw
/// generator explores alternate transits all day, which a path-novelty
/// detector rightly flags), then replays each stream's canonical
/// announcement into the first `learn_windows` detection windows so
/// every origin and on-path AS is learned before detection starts.
fn stabilize(archive: &mut UpdateArchive, window_us: u64, learn_windows: u64) {
    for (_, rec) in archive.sessions_mut() {
        let mut canonical: BTreeMap<Prefix, AsPath> = BTreeMap::new();
        for u in &mut rec.updates {
            if let MessageKind::Announcement(attrs) = &mut u.kind {
                let path = canonical.entry(u.prefix).or_insert_with(|| attrs.as_path.clone());
                if attrs.as_path != *path {
                    std::sync::Arc::make_mut(attrs).as_path = path.clone();
                }
            }
        }
        let mut first_attrs: BTreeMap<Prefix, std::sync::Arc<PathAttributes>> = BTreeMap::new();
        for u in &rec.updates {
            if let MessageKind::Announcement(attrs) = &u.kind {
                first_attrs.entry(u.prefix).or_insert_with(|| attrs.clone());
            }
        }
        for (prefix, attrs) in first_attrs {
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
        let mut counts: std::collections::HashMap<Prefix, usize> = std::collections::HashMap::new();
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
    let mut origins = BTreeSet::new();
    for (_, a) in archives {
        for (_, rec) in a.sessions() {
            for u in &rec.updates {
                if u.prefix == prefix {
                    if let MessageKind::Announcement(attrs) = &u.kind {
                        origins.extend(attrs.as_path.origin());
                    }
                }
            }
        }
    }
    origins
}

fn run_soak(target: u64) -> ExitCode {
    let cfg = MultiVantageConfig {
        base: kcc_tracegen::Mar20Config {
            target_announcements: target,
            universe: kcc_tracegen::universe::UniverseConfig {
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
    let watch_cfg = WatchConfig::default();
    let names = vantage_names(&cfg.base);
    assert!(names.len() >= 3, "soak needs at least 3 vantages");
    println!("soak: generating {} vantages (~{target} announcements)...", names.len());
    let mut archives: Vec<(String, UpdateArchive)> =
        names.iter().map(|n| (n.clone(), soak_vantage(&cfg, n))).collect();
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

    // Fault 1: a prefix hijack on vantage 0's busiest stream. The bogus
    // origin must be novel for the prefix across the whole corpus.
    let (session_idx, prefix, baseline_count) =
        busiest_stream(&archives[0].1, day_end / 2).expect("generated day has announcements");
    let taken = origins_of(&archives, prefix);
    let bogus = (64_000..65_000).map(Asn).find(|a| !taken.contains(a)).expect("free private ASN");
    {
        let archive = &mut archives[0].1;
        let (key, template) = {
            let (key, rec) = archive.sessions().nth(session_idx).expect("session index valid");
            let attrs = rec
                .updates
                .iter()
                .rev()
                .find_map(|u| match (&u.kind, u.prefix == prefix) {
                    (MessageKind::Announcement(attrs), true) => Some(attrs.clone()),
                    _ => None,
                })
                .expect("stream has announcements");
            (key.clone(), attrs)
        };
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
    }

    // Fault 2: the last vantage goes dark at 60% of the day.
    {
        let (name, archive) = archives.last_mut().expect("at least 3 vantages");
        let mut dropped = 0usize;
        for (_, rec) in archive.sessions_mut() {
            let before = rec.updates.len();
            rec.updates.retain(|u| u.time_us <= outage_from);
            dropped += before - rec.updates.len();
        }
        println!("soak: silenced {name} after 60% of day ({dropped} updates dropped)");
    }

    // Round-trip through real MRT files: the corpus path CI exercises.
    let dir = std::env::temp_dir().join(format!("kcc_watch_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create soak dir");
    let mut inputs = Vec::new();
    for (name, archive) in &archives {
        let path = dir.join(format!("{name}.mrt"));
        let mut bytes = Vec::new();
        archive.write_mrt(&mut bytes).expect("in-memory write cannot fail");
        std::fs::write(&path, bytes).expect("write soak dump");
        inputs.push(path);
    }
    drop(archives);

    let opts = Options {
        inputs,
        train: Vec::new(),
        epoch: Some(cfg.base.epoch_seconds),
        clamp: false,
        threads: 3,
        follow_secs: None,
        cfg: watch_cfg,
        metrics_out: None,
    };
    let report = match run_watch(&opts, cfg.base.epoch_seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kcc-watch: soak run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&report);
    let _ = std::fs::remove_dir_all(&dir);

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

/// Exits 2 on a flag whose value is missing or does not parse.
fn bad_flag<T>(e: String) -> T {
    eprintln!("kcc-watch: {e}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        inputs: Vec::new(),
        train: Vec::new(),
        epoch: None,
        clamp: false,
        threads: 4,
        follow_secs: None,
        cfg: WatchConfig::default(),
        metrics_out: None,
    };
    let mut eval = false;
    let mut soak: Option<u64> = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--eval" => eval = true,
            "--soak" => {
                soak = Some(
                    it.peek()
                        .and_then(|s| s.parse().ok())
                        .inspect(|_| {
                            it.next();
                        })
                        .unwrap_or(90_000),
                );
            }
            "--epoch" => opts.epoch = Some(value(&a, it.next()).unwrap_or_else(bad_flag)),
            "--clamp" => opts.clamp = true,
            "--threads" => opts.threads = value(&a, it.next()).unwrap_or_else(bad_flag),
            "--follow" => opts.follow_secs = Some(value(&a, it.next()).unwrap_or_else(bad_flag)),
            "--metrics-out" => {
                opts.metrics_out = Some(value(&a, it.next()).unwrap_or_else(bad_flag));
            }
            "--window-us" => opts.cfg.window_us = value(&a, it.next()).unwrap_or_else(bad_flag),
            "--learn" => opts.cfg.learn_windows = value(&a, it.next()).unwrap_or_else(bad_flag),
            "--rate-min" => opts.cfg.rate_min = value(&a, it.next()).unwrap_or_else(bad_flag),
            "--outage-windows" => {
                opts.cfg.outage_windows = value(&a, it.next()).unwrap_or_else(bad_flag);
            }
            "--train" => opts.train.push(value(&a, it.next()).unwrap_or_else(bad_flag)),
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => opts.inputs.push(PathBuf::from(other)),
        }
    }

    if eval {
        return run_eval();
    }
    if let Some(target) = soak {
        return run_soak(target);
    }
    if opts.inputs.is_empty() {
        eprintln!("kcc-watch: no inputs (see --help)");
        return ExitCode::FAILURE;
    }

    let epoch = opts.epoch.or_else(|| first_record_day(opts.inputs.iter().chain(&opts.train)));
    let Some(epoch) = epoch else {
        eprintln!("kcc-watch: could not derive an epoch (empty inputs?); pass --epoch");
        return ExitCode::FAILURE;
    };

    match run_watch(&opts, epoch) {
        Ok(report) => {
            if let Some(path) = &opts.metrics_out {
                let metrics = kcc_obs::Registry::new();
                report.export_metrics(&metrics);
                if let Err(e) = std::fs::write(path, metrics.render()) {
                    eprintln!("kcc-watch: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("metrics written to {}", path.display());
            }
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kcc-watch: {e}");
            ExitCode::FAILURE
        }
    }
}
