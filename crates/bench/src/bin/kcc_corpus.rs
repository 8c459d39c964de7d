//! `kcc-corpus` — cross-collector analysis of a set of MRT inputs.
//!
//! Point it at MRT files and/or directories of `*.mrt` files; every file
//! becomes one collector (named by its file stem) and the whole set is
//! analyzed as a multi-vantage corpus: per-collector §4 cleaning, one
//! full pipeline per collector fanned across threads, and the
//! cross-collector comparison report (Table 1 + Table 2 side by side,
//! community presence/agreement matrix, disagreement list) on stdout.
//!
//! ```sh
//! kcc-corpus rrc00.mrt rrc01.mrt dumps/      # files and directories mix
//! kcc-corpus --threads 8 --epoch 1584230400 dumps/
//! ```
//!
//! `kcc-corpus` only reports; `kcc-watch` runs CommunityWatch over the
//! same inputs.
//!
//! Without `--epoch`, the day anchor is the earliest *first-record*
//! timestamp across the inputs, floored to midnight UTC. Records
//! timestamped before the epoch fail the run by default (they would
//! silently collapse onto the epoch and fabricate same-instant runs);
//! pass `--clamp` to accept and count them instead — useful when a dump
//! carries a few out-of-order records from the previous day.
//! Unallocated-ASN/prefix filtering needs an external allocation
//! registry the MRT bytes cannot carry, so only the
//! timestamp-normalization cleaning stage runs here; library users with
//! registry data use `run_corpus_report` directly.

use std::path::PathBuf;
use std::process::ExitCode;

use kcc_bench::args::value;
use kcc_collector::{first_record_day, mrt_files_in};
use kcc_core::corpus::run_corpus_report;
use kcc_core::{AllocationRegistry, CleaningConfig, Corpus, MrtFileOptions};

fn mrt_paths(inputs: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let found = mrt_files_in(input).map_err(|e| e.to_string())?;
            if found.is_empty() {
                return Err(format!("no *.mrt files in {}", input.display()));
            }
            paths.extend(found);
        } else {
            paths.push(input.clone());
        }
    }
    Ok(paths)
}

/// Exits 2 on a flag whose value is missing or does not parse.
fn bad_flag<T>(e: String) -> T {
    eprintln!("kcc-corpus: {e}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut epoch: Option<u32> = None;
    let mut threads = 4usize;
    let mut clamp = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--epoch" => epoch = Some(value(&a, it.next()).unwrap_or_else(bad_flag)),
            "--clamp" => clamp = true,
            "--metrics-out" => metrics_out = Some(value(&a, it.next()).unwrap_or_else(bad_flag)),
            "--threads" => threads = value(&a, it.next()).unwrap_or_else(bad_flag),
            "--help" | "-h" => {
                println!(
                    "usage: kcc-corpus [--epoch SECONDS] [--threads N] [--clamp] \
                     [--metrics-out FILE] <file.mrt | dir>..."
                );
                return ExitCode::SUCCESS;
            }
            other => inputs.push(PathBuf::from(other)),
        }
    }
    if inputs.is_empty() {
        eprintln!("kcc-corpus: no inputs (see --help)");
        return ExitCode::FAILURE;
    }

    let paths = match mrt_paths(&inputs) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kcc-corpus: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Some(epoch) = epoch.or_else(|| first_record_day(&paths)) else {
        eprintln!("kcc-corpus: could not derive an epoch (empty inputs?); pass --epoch");
        return ExitCode::FAILURE;
    };

    let mut corpus = Corpus::new();
    let options = MrtFileOptions { clamp_pre_epoch: clamp, ..Default::default() };
    for path in &paths {
        if let Err(e) = corpus.push_mrt_file_with(path, epoch, &options) {
            eprintln!("kcc-corpus: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "corpus: {} collectors, epoch {epoch} ({} threads)\n",
        corpus.len(),
        threads.clamp(1, corpus.len().max(1))
    );

    // MRT carries no allocation data: run the granularity normalization
    // only, against an empty registry.
    let registry = AllocationRegistry::new();
    let cleaning = CleaningConfig {
        filter_unallocated: false,
        insert_route_server_asn: false,
        normalize_timestamps: true,
    };
    let started = std::time::Instant::now();
    let result = run_corpus_report(corpus, threads, &registry, cleaning);
    let elapsed = started.elapsed();
    match result {
        Ok(report) => {
            if let Some(path) = &metrics_out {
                let metrics = kcc_obs::Registry::new();
                report.export_metrics(&metrics);
                let secs = elapsed.as_secs_f64();
                if secs > 0.0 {
                    metrics
                        .gauge("kcc_corpus_updates_per_sec")
                        .set((report.stats.updates as f64 / secs) as i64);
                }
                if let Err(e) = std::fs::write(path, metrics.render()) {
                    eprintln!("kcc-corpus: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("metrics written to {}\n", path.display());
            }
            print!("{}", report.render());
            println!(
                "\npipeline: {} sessions, {} streams, peak state {} bytes",
                report.stats.sessions, report.stats.streams, report.stats.peak_state_bytes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kcc-corpus: {e}");
            if !clamp && e.to_string().contains("precedes the stream epoch") {
                eprintln!(
                    "kcc-corpus: (records before the epoch fail the run by default; \
                     re-run with --clamp to accept and count them, or pass an earlier --epoch)"
                );
            }
            ExitCode::FAILURE
        }
    }
}
