//! Pipeline throughput measurement with machine-readable output — the
//! perf-trajectory anchor for the streaming redesign.
//!
//! Measures, per workload size: streaming one-pass analysis (cleaning +
//! classification + Table 1/2 sinks) over MRT bytes and the batch path
//! (materialize → clean → classify) for comparison.
//! Emits `BENCH_pipeline.json` (or `--out <path>`) so CI can archive the
//! numbers run over run.
//!
//! ```sh
//! cargo run --release -p kcc_bench --bin bench_pipeline -- \
//!     --sizes 10000,100000 --out BENCH_pipeline.json
//! ```
//!
//! Batch runs are skipped above `--batch-cap` updates (default 200k):
//! materializing the day at 1M+ is exactly what the streaming path
//! exists to avoid.

use std::fmt::Write as _;
use std::time::Instant;

use kcc_bench::mrtgen::{generate_mrt_day, MrtDay};
use kcc_collector::UpdateArchive;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::table::{overview, OverviewSink};
use kcc_core::{
    classify_archive, clean_archive, CleaningConfig, CleaningStage, CountsSink, MrtSource,
};
use kcc_tracegen::Mar20Config;

/// Sampling interval for the instrumented run: every N-th update is
/// wall-clocked through each pipeline phase (the `--profile-every`
/// default the daemon also uses).
const PROFILE_EVERY: u64 = 64;
/// Interleaved plain/instrumented pass pairs for the overhead figure.
/// Adjacent-in-time passes see the most similar machine conditions, so
/// each pair's on-CPU ratio is one (noisy) estimate of the true cost.
/// The pairs split into [`OVERHEAD_BLOCKS`] time-separated blocks; each
/// block yields an interquartile-trimmed mean, and the figure is the
/// *minimum* block estimate: ambient load spikes pollute whole blocks
/// (the noise is correlated over seconds, so averaging across a spike
/// cannot remove it) and only ever inflate them, while a real
/// instrumentation regression inflates every block. The minimum is the
/// least-polluted look at the true cost — biased slightly low, which is
/// the right tradeoff for a gate meant to catch cost *regressions*.
const OVERHEAD_REPEATS: usize = 48;
/// Time-separated estimate blocks for the overhead figure (see
/// [`OVERHEAD_REPEATS`]).
const OVERHEAD_BLOCKS: usize = 3;

/// One measured mode.
struct Measurement {
    seconds: f64,
    updates_per_sec: f64,
}

fn measure<F: FnOnce() -> u64>(f: F) -> Measurement {
    let start = Instant::now();
    let updates = f();
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    Measurement { seconds, updates_per_sec: updates as f64 / seconds }
}

fn json_measurement(m: &Measurement) -> String {
    format!("{{\"seconds\":{:.6},\"updates_per_sec\":{:.0}}}", m.seconds, m.updates_per_sec)
}

/// Nanoseconds the calling thread has spent on-CPU (field 1 of
/// `/proc/thread-self/schedstat`). On a contended machine wall time
/// includes run-queue waits the workload never executed through, which
/// drowns a sub-2% comparison; on-CPU time excludes preemption noise
/// entirely. The streaming pipeline runs single-threaded on the calling
/// thread, so this captures exactly the measured work. Returns `None`
/// where the file is unavailable (non-Linux); callers fall back to wall
/// time.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .ok()?;
    s.split_whitespace().next()?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<u64> = vec![10_000, 100_000];
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut batch_cap = 200_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sizes" => {
                if let Some(v) = it.next() {
                    sizes = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
                }
            }
            "--out" => {
                if let Some(v) = it.next() {
                    out_path = v.clone();
                }
            }
            "--batch-cap" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    batch_cap = v;
                }
            }
            _ => {}
        }
    }

    let mut rows = Vec::new();
    for &target in &sizes {
        let cfg = Mar20Config { target_announcements: target, ..Default::default() };
        println!("== generating ~{target} announcements to MRT bytes ==");
        let MrtDay { bytes, updates, registry, route_servers } = generate_mrt_day(&cfg);
        println!("   {} updates, {:.1} MiB", updates, bytes.len() as f64 / (1024.0 * 1024.0));
        let open = || {
            MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds)
                .with_route_servers(route_servers.clone())
        };

        let streaming = measure(|| {
            let stage = CleaningStage::new(&registry, CleaningConfig::default());
            let out = PipelineBuilder::new(open())
                .stages(stage)
                .sink((OverviewSink::default(), CountsSink::default()))
                .run()
                .expect("in-memory MRT cannot fail");
            out.stats.updates
        });
        println!(
            "   streaming: {:.3}s  ({:.0} updates/s)",
            streaming.seconds, streaming.updates_per_sec
        );

        // Metrics overhead: the identical builder chain with and without
        // sampled per-phase profiling. Both halves of a pair run
        // back-to-back (the most similar machine conditions available)
        // and are compared on on-CPU time, so each pair's ratio is one
        // noisy estimate of the true cost; the trimmed mean over all
        // pairs is the gated figure. Measured on the largest size only —
        // the cost is a property of the instrumentation, and sub-50ms
        // runs cannot resolve the sub-2% difference CI gates on.
        let measure_overhead = Some(target) == sizes.iter().copied().max();
        let overhead = measure_overhead.then(|| {
            let mut instrumented = None;
            let mut best_instr = f64::MAX;
            let mut ratios = Vec::with_capacity(OVERHEAD_REPEATS);
            let run_plain = || {
                measure(|| {
                    let out = PipelineBuilder::new(open())
                        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
                        .sink((OverviewSink::default(), CountsSink::default()))
                        .run()
                        .expect("in-memory MRT cannot fail");
                    out.stats.updates
                })
            };
            let run_instr = || {
                measure(|| {
                    let out = PipelineBuilder::new(open())
                        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
                        .sink((OverviewSink::default(), CountsSink::default()))
                        .profile(PROFILE_EVERY)
                        .run()
                        .expect("in-memory MRT cannot fail");
                    assert!(out.profile.is_some(), "profiling was enabled");
                    out.stats.updates
                })
            };
            // Compare on-CPU time where available (see [`thread_cpu_ns`]);
            // wall time otherwise.
            let timed = |run: &dyn Fn() -> Measurement| -> (Measurement, f64) {
                let before = thread_cpu_ns();
                let m = run();
                let after = thread_cpu_ns();
                let cpu = match (before, after) {
                    (Some(b), Some(a)) if a > b => (a - b) as f64 * 1e-9,
                    _ => m.seconds,
                };
                (m, cpu)
            };
            for i in 0..OVERHEAD_REPEATS {
                // Shift the heap layout between pairs: allocation-address
                // luck (page/cache-set collisions in the classifier maps)
                // can bias either variant by several percent for an
                // entire process lifetime. Holding a varying-size pad
                // during the pair moves subsequent allocations, turning
                // that per-process bias into per-pair noise the trimmed
                // mean cancels.
                let pad_len = (i % 61) * 4096 + (i % 13) * 64 + 1;
                let mut pad = vec![0u8; pad_len];
                for b in pad.iter_mut().step_by(4096) {
                    *b = 1;
                }
                std::hint::black_box(&mut pad);
                // Alternate which variant goes first so that any load
                // ramping across the measurement window biases half the
                // pairs one way and half the other.
                let (plain, instr) = if i % 2 == 0 {
                    let p = timed(&run_plain);
                    (p, timed(&run_instr))
                } else {
                    let q = timed(&run_instr);
                    (timed(&run_plain), q)
                };
                ratios.push(instr.1 / plain.1);
                if instr.1 < best_instr {
                    best_instr = instr.1;
                    instrumented = Some(instr.0);
                }
            }
            let instrumented = instrumented.expect("at least one repeat");
            // Per block: drop the top and bottom quarter of pair ratios
            // (where noise hit only one half), average the rest. Figure:
            // minimum across blocks (see OVERHEAD_REPEATS).
            let block_estimate = |block: &[f64]| {
                let mut sorted = block.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let trim = sorted.len() / 4;
                let kept = &sorted[trim..sorted.len() - trim];
                kept.iter().sum::<f64>() / kept.len() as f64
            };
            let overhead_percent = (ratios
                .chunks(OVERHEAD_REPEATS / OVERHEAD_BLOCKS)
                .map(block_estimate)
                .fold(f64::MAX, f64::min)
                - 1.0)
                * 100.0;
            println!(
                "   instrumented (1/{PROFILE_EVERY} sampling): {:.3}s  ({:.0} updates/s, \
             {overhead_percent:+.2}% overhead)",
                instrumented.seconds, instrumented.updates_per_sec
            );
            (instrumented, overhead_percent)
        });

        let batch = if updates <= batch_cap {
            let m = measure(|| {
                let mut archive = UpdateArchive::from_source(&mut open(), cfg.epoch_seconds)
                    .expect("in-memory MRT cannot fail");
                clean_archive(&mut archive, &registry, &CleaningConfig::default());
                let _ = overview(&archive);
                let _ = classify_archive(&archive);
                archive.update_count() as u64
            });
            println!("   batch:     {:.3}s  ({:.0} updates/s)", m.seconds, m.updates_per_sec);
            Some(m)
        } else {
            println!("   batch:     skipped (> {batch_cap} updates; see --batch-cap)");
            None
        };

        let mut row = format!(
            "{{\"target_announcements\":{target},\"updates\":{updates},\"mrt_bytes\":{},\
             \"streaming\":{}",
            bytes.len(),
            json_measurement(&streaming),
        );
        if let Some((instrumented, overhead_percent)) = &overhead {
            let _ = write!(
                row,
                ",\"instrumented\":{{\"profile_every\":{PROFILE_EVERY},\"result\":{},\
                 \"overhead_percent\":{overhead_percent:.2}}}",
                json_measurement(instrumented),
            );
        }
        match &batch {
            Some(m) => {
                let _ = write!(row, ",\"batch\":{}}}", json_measurement(m));
            }
            None => row.push_str(",\"batch\":null}"),
        }
        rows.push(row);
    }

    let json = format!("{{\"bench\":\"pipeline\",\"results\":[{}]}}\n", rows.join(","));
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out_path}");
}
