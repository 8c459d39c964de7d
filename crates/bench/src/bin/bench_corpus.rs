//! Corpus-engine throughput measurement with machine-readable output —
//! the perf-trajectory anchor for the multi-collector scale step.
//!
//! For each requested collector count K, the same synthetic day is
//! split into K vantage MRT byte streams (what each collector would
//! publish) and run through `PipelineBuilder::collectors`: one full
//! per-collector pipeline (cleaning + Table 1/2 + community-presence
//! sinks) per vantage, fanned across worker threads, merged in name
//! order. The
//! binary asserts — in-binary, every run — that the combined corpus
//! result equals a single-pipeline pass over the unsplit day, then
//! emits `BENCH_corpus.json` with updates/s and peak pipeline state vs
//! collector count.
//!
//! ```sh
//! cargo run --release -p kcc_bench --bin bench_corpus -- \
//!     --collectors 1,2,4 --target 40000 --threads 4 --out BENCH_corpus.json
//! ```

use std::time::Instant;

use kcc_bench::mrtgen::{generate_mrt_day, generate_vantage_mrt, MrtDay};
use kcc_core::corpus::run_corpus_report;
use kcc_core::table::OverviewSink;
use kcc_core::{CleaningConfig, CleaningStage, Corpus, CountsSink, MrtSource, PipelineBuilder};
use kcc_tracegen::universe::UniverseConfig;
use kcc_tracegen::{vantage_names, Mar20Config, MultiVantageConfig};

fn vantage_cfg(collectors: usize, target: u64) -> MultiVantageConfig {
    MultiVantageConfig {
        base: Mar20Config {
            target_announcements: target,
            universe: UniverseConfig {
                n_collectors: collectors,
                // Sessions scale with the vantage count so every
                // collector stays populated.
                n_sessions: (collectors * 24).max(48),
                n_peers: (collectors * 10).max(24),
                ..Default::default()
            },
            ..Default::default()
        },
        force_second_granularity: Vec::new(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut collector_counts: Vec<usize> = vec![1, 2, 4];
    let mut target = 40_000u64;
    let mut threads = 4usize;
    let mut out_path = String::from("BENCH_corpus.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--collectors" => {
                if let Some(v) = it.next() {
                    collector_counts = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
                }
            }
            "--target" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    target = v;
                }
            }
            "--threads" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    threads = v;
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

    let mut rows = Vec::new();
    for &k in &collector_counts {
        let cfg = vantage_cfg(k, target);
        println!("== {k} collectors, ~{target} announcements ==");

        // Split the day into per-vantage MRT bytes (generation cost is
        // not part of the measured corpus run).
        let names = vantage_names(&cfg.base);
        let vantages: Vec<_> = names
            .iter()
            .map(|name| {
                let (bytes, updates, route_servers) = generate_vantage_mrt(&cfg, name);
                (name.clone(), bytes, updates, route_servers)
            })
            .collect();
        let total_updates: u64 = vantages.iter().map(|(_, _, n, _)| n).sum();
        let total_bytes: usize = vantages.iter().map(|(_, b, _, _)| b.len()).sum();
        println!(
            "   {total_updates} updates over {} vantages, {:.1} MiB MRT",
            vantages.len(),
            total_bytes as f64 / (1024.0 * 1024.0)
        );

        // The reference: one pipeline over the unsplit day's MRT bytes
        // (the same medium the vantages go through).
        let MrtDay { bytes: day_bytes, registry, route_servers: day_rs, .. } =
            generate_mrt_day(&cfg.base);
        let reference = PipelineBuilder::new(
            MrtSource::new(&day_bytes[..], "all", cfg.base.epoch_seconds)
                .with_route_servers(day_rs),
        )
        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
        .sink((OverviewSink::default(), CountsSink::default()))
        .run()
        .expect("in-memory MRT cannot fail");

        // The measured corpus run.
        let start = Instant::now();
        let mut corpus = Corpus::new();
        for (name, bytes, _, route_servers) in &vantages {
            corpus
                .push(
                    name,
                    MrtSource::new(&bytes[..], name, cfg.base.epoch_seconds)
                        .with_route_servers(route_servers.clone()),
                )
                .expect("vantage names are unique");
        }
        let report = run_corpus_report(corpus, threads, &registry, CleaningConfig::default())
            .expect("in-memory corpus cannot fail");
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        let updates_per_sec = report.stats.updates as f64 / seconds;

        // Combined corpus result == single-pipeline reference, asserted
        // in-binary like bench_live does for live==offline.
        let (ref_overview, ref_counts) = reference.sink;
        assert_eq!(
            report.combined_counts,
            ref_counts.finish(),
            "{k}-collector corpus diverged from the single-pipeline day"
        );
        assert_eq!(report.combined_overview, ref_overview.finish());

        // A second run with a different thread count must be identical.
        let mut corpus2 = Corpus::new();
        for (name, bytes, _, route_servers) in vantages.iter().rev() {
            corpus2
                .push(
                    name,
                    MrtSource::new(&bytes[..], name, cfg.base.epoch_seconds)
                        .with_route_servers(route_servers.clone()),
                )
                .expect("vantage names are unique");
        }
        let report2 = run_corpus_report(corpus2, threads + 3, &registry, CleaningConfig::default())
            .expect("in-memory corpus cannot fail");
        assert_eq!(report.render(), report2.render(), "corpus run must be order-independent");

        println!(
            "   corpus×{threads}: {seconds:.3}s  ({updates_per_sec:.0} updates/s, peak state {} bytes)",
            report.stats.peak_state_bytes
        );
        rows.push(format!(
            "{{\"collectors\":{k},\"updates\":{},\"mrt_bytes\":{total_bytes},\
             \"threads\":{threads},\"seconds\":{seconds:.6},\
             \"updates_per_sec\":{updates_per_sec:.0},\"peak_state_bytes\":{}}}",
            report.stats.updates, report.stats.peak_state_bytes
        ));
    }

    let json = format!("{{\"bench\":\"corpus\",\"results\":[{}]}}\n", rows.join(","));
    std::fs::write(&out_path, &json).expect("write BENCH_corpus.json");
    println!("wrote {out_path}");
}
