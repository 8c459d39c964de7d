//! CommunityWatch throughput measurement with machine-readable output —
//! the perf anchor for the always-on detection service.
//!
//! Measures, per workload size: streaming a generated MRT day through a
//! [`WatchSink`] (path + rate + outage checks), and the same with a
//! trained [`CommunityProfiler`] attached (adds the §7 point checks and
//! per-stream burst windows). Also times one pass over the labeled
//! fault-library eval. Emits `BENCH_watch.json` (or `--out <path>`) so
//! CI can gate updates/s run over run.
//!
//! ```sh
//! cargo run --release -p kcc_bench --bin bench_watch -- \
//!     --sizes 10000,100000 --out BENCH_watch.json
//! ```

use std::time::Instant;

use kcc_bench::eval_library;
use kcc_bench::mrtgen::{generate_mrt_day, MrtDay};
use kcc_collector::UpdateArchive;
use kcc_core::{CommunityProfiler, MrtSource, PipelineBuilder, WatchConfig, WatchSink};
use kcc_tracegen::Mar20Config;
use std::sync::Arc;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<u64> = vec![10_000, 100_000];
    let mut out_path = String::from("BENCH_watch.json");
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
            _ => {}
        }
    }

    let mut rows = Vec::new();
    for &target in &sizes {
        let cfg = Mar20Config { target_announcements: target, ..Default::default() };
        println!("== generating ~{target} announcements to MRT bytes ==");
        let MrtDay { bytes, updates, route_servers, .. } = generate_mrt_day(&cfg);
        println!("   {} updates, {:.1} MiB", updates, bytes.len() as f64 / (1024.0 * 1024.0));
        let open = || {
            MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds)
                .with_route_servers(route_servers.clone())
        };

        let watch = measure(|| {
            let out = PipelineBuilder::new(open())
                .sink(WatchSink::new(WatchConfig::default()))
                .run()
                .expect("in-memory MRT cannot fail");
            let report = out.sink.finish();
            println!("   ({} alerts over the raw generated day)", report.alerts.len());
            out.stats.updates
        });
        println!(
            "   watch:          {:.3}s  ({:.0} updates/s)",
            watch.seconds, watch.updates_per_sec
        );

        // Train on the day itself — worst-case profile size for the
        // point checks, which is what we want to measure.
        let archive = UpdateArchive::from_source(&mut open(), cfg.epoch_seconds)
            .expect("in-memory MRT cannot fail");
        let mut profiler = CommunityProfiler::new();
        profiler.train(&archive);
        drop(archive);
        let profiler = Arc::new(profiler);

        let profiled = measure(|| {
            let sink = WatchSink::new(WatchConfig::default()).with_profile(Arc::clone(&profiler));
            let out =
                PipelineBuilder::new(open()).sink(sink).run().expect("in-memory MRT cannot fail");
            let _ = out.sink.finish();
            out.stats.updates
        });
        println!(
            "   watch+profile:  {:.3}s  ({:.0} updates/s)",
            profiled.seconds, profiled.updates_per_sec
        );

        rows.push(format!(
            "{{\"target_announcements\":{target},\"updates\":{updates},\"mrt_bytes\":{},\
             \"watch\":{},\"watch_profiled\":{}}}",
            bytes.len(),
            json_measurement(&watch),
            json_measurement(&profiled),
        ));
    }

    // One pass over the labeled fault library: simulate + train + detect
    // ×4 — the eval gate's wall-clock cost.
    let start = Instant::now();
    let results = eval_library();
    let eval_seconds = start.elapsed().as_secs_f64();
    let passed = results.iter().filter(|r| r.pass).count();
    println!("eval library: {passed}/{} in {eval_seconds:.3}s", results.len());
    rows.push(format!(
        "{{\"eval\":{{\"seconds\":{eval_seconds:.6},\"scenarios\":{},\"passed\":{passed}}}}}",
        results.len(),
    ));

    let json = format!("{{\"bench\":\"watch\",\"results\":[{}]}}\n", rows.join(","));
    std::fs::write(&out_path, &json).expect("write BENCH_watch.json");
    println!("wrote {out_path}");
}
