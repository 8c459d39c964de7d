//! What `PipelineBuilder::profile(64)` costs: under 2% of the unprofiled
//! pipeline's on-CPU time on a ~100k-announcement MRT day (cleaning,
//! classification and the Table 1/2 sinks, one thread).
//!
//! `#[ignore]`d: the figure means something only in an optimised build.
//! CI's bench-pair job runs it as
//!
//! ```sh
//! cargo test --release -p kcc_bench --test profile_overhead -- --ignored
//! ```

use kcc_collector::archive::write_mrt_from;
use kcc_core::table::OverviewSink;
use kcc_core::{CleaningConfig, CleaningStage, CountsSink, MrtSource, PipelineBuilder};
use kcc_tracegen::{Mar20Config, Mar20Source};

/// Sampling interval under test: every N-th update is wall-clocked
/// through each pipeline phase (the `--profile-every` default the daemon
/// also uses).
const PROFILE_EVERY: u64 = 64;
/// The cap on the instrumented run's extra on-CPU time, in percent.
const OVERHEAD_CAP_PERCENT: f64 = 2.0;
/// Interleaved plain/instrumented pass pairs. Adjacent-in-time passes
/// see the most similar machine conditions, so each pair's on-CPU ratio
/// is one (noisy) estimate of the true cost. The pairs split into
/// [`OVERHEAD_BLOCKS`] time-separated blocks; each block yields an
/// interquartile-trimmed mean, and the figure is the *minimum* block
/// estimate: ambient load spikes pollute whole blocks (the noise is
/// correlated over seconds, so averaging across a spike cannot remove
/// it) and only ever inflate them, while a real instrumentation
/// regression inflates every block. The minimum is the least-polluted
/// look at the true cost — biased slightly low, which is the right
/// tradeoff for a cap meant to catch cost *regressions*.
const OVERHEAD_REPEATS: usize = 48;
/// Time-separated estimate blocks (see [`OVERHEAD_REPEATS`]).
const OVERHEAD_BLOCKS: usize = 3;

/// Nanoseconds the calling thread has spent on-CPU (field 1 of
/// `/proc/thread-self/schedstat`). On a contended machine wall time
/// includes run-queue waits the workload never executed through, which
/// drowns a sub-2% comparison; on-CPU time excludes preemption noise
/// entirely. The pipeline runs single-threaded on the calling thread, so
/// this captures exactly the measured work. `None` where the file is
/// unavailable (non-Linux); the caller falls back to wall time.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Seconds of on-CPU time (wall time where unavailable) one run takes.
fn timed(run: impl FnOnce()) -> f64 {
    let before = thread_cpu_ns();
    let start = std::time::Instant::now();
    run();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    match (before, thread_cpu_ns()) {
        (Some(b), Some(a)) if a > b => (a - b) as f64 * 1e-9,
        _ => wall,
    }
}

/// Per block: drops the top and bottom quarter of pair ratios (where
/// noise hit only one half) and averages the rest.
fn block_estimate(block: &[f64]) -> f64 {
    let mut sorted = block.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let trim = sorted.len() / 4;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[test]
#[ignore = "a cost figure: run optimised, `--release -- --ignored`"]
fn profile_64_costs_under_two_percent() {
    let cfg = Mar20Config { target_announcements: 100_000, ..Default::default() };
    // The day as the MRT bytes a collector would publish, plus the
    // side-band metadata the cleaning stage needs and MRT cannot carry.
    let mut source = Mar20Source::new(&cfg);
    let (registry, route_servers) = (source.registry().clone(), source.route_server_peers());
    let mut bytes = Vec::new();
    write_mrt_from(&mut source, cfg.epoch_seconds, &mut bytes).expect("in-memory MRT write");
    let run = |profile: bool| {
        let builder = PipelineBuilder::new(
            MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds)
                .with_route_servers(route_servers.clone()),
        )
        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
        .sink((OverviewSink::default(), CountsSink::default()));
        let builder = if profile { builder.profile(PROFILE_EVERY) } else { builder };
        let out = builder.run().expect("in-memory MRT cannot fail");
        assert_eq!(out.profile.is_some(), profile);
        std::hint::black_box(out.stats.updates);
    };

    let mut ratios = Vec::with_capacity(OVERHEAD_REPEATS);
    for i in 0..OVERHEAD_REPEATS {
        // Shift the heap layout between pairs: allocation-address luck
        // (page/cache-set collisions in the classifier maps) can bias
        // either variant by several percent for an entire process
        // lifetime. Holding a varying-size pad during the pair moves
        // subsequent allocations, turning that per-process bias into
        // per-pair noise the trimmed mean cancels.
        let pad_len = (i % 61) * 4096 + (i % 13) * 64 + 1;
        let mut pad = vec![0u8; pad_len];
        for b in pad.iter_mut().step_by(4096) {
            *b = 1;
        }
        std::hint::black_box(&mut pad);
        // Alternate which variant goes first so that any load ramping
        // across the measurement window biases half the pairs one way
        // and half the other.
        let (plain, instrumented) = if i % 2 == 0 {
            let plain = timed(|| run(false));
            (plain, timed(|| run(true)))
        } else {
            let instrumented = timed(|| run(true));
            (timed(|| run(false)), instrumented)
        };
        ratios.push(instrumented / plain);
    }
    let overhead_percent = (ratios
        .chunks(OVERHEAD_REPEATS / OVERHEAD_BLOCKS)
        .map(block_estimate)
        .fold(f64::MAX, f64::min)
        - 1.0)
        * 100.0;
    println!("profile({PROFILE_EVERY}) overhead: {overhead_percent:+.2}% on-CPU time");
    assert!(
        overhead_percent < OVERHEAD_CAP_PERCENT,
        "profile({PROFILE_EVERY}) costs {overhead_percent:+.2}%, over the {OVERHEAD_CAP_PERCENT}% cap"
    );
}
