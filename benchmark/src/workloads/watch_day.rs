//! `watch-day`: the same pipeline with CommunityWatch attached — the
//! sink, not decode, does most of the work.

use std::sync::Arc;
use std::time::Instant;

use kcc_collector::{SourceItem, UpdateArchive, UpdateSource};
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::{CommunityProfiler, CountsSink, WatchConfig, WatchReport, WatchSink};

use super::offline_day::{by_hand, replay_classify, set_generation_metrics, Decoded};
use super::{record_memory, repeat_setup, timed_passes, write_trace, RunOpts};
use crate::inputs::{day_config, fnv1a, Day};
use crate::report::Outcome;
use crate::trace::{Recorder, TimedSink, TimedSource, SAMPLE_EVERY};

/// Why the workload exists.
pub const WHY: &str =
    "same pipeline, other bottleneck: CommunityWatch's windows and sketches cost \
    several times decode+classify, so a sink change shows here and a decode change on offline-day";

/// Announcements the generator aims for. A watched update costs ~7× a
/// plain one, so the day is smaller than `offline-day`'s to keep a pass
/// under a second.
pub const TARGET_ANNOUNCEMENTS: u64 = 80_000;

/// The day and the profiler trained on it (training on the measured day
/// gives the largest profile the point checks can meet).
struct Input {
    day: Day,
    profiler: Arc<CommunityProfiler>,
}

fn train(day: &Day) -> CommunityProfiler {
    let mut archive = UpdateArchive::new(day.epoch_seconds);
    let mut source = day.open();
    while let Some(item) = source.next_item().expect("in-memory MRT cannot fail") {
        match item {
            SourceItem::Session(meta) => archive.add_session((*meta).clone()),
            SourceItem::Update(meta, update) => archive.record(&meta.key, update),
        }
    }
    let mut profiler = CommunityProfiler::new();
    profiler.train(&archive);
    profiler
}

fn watch_sink(profiler: &Arc<CommunityProfiler>) -> WatchSink {
    WatchSink::new(WatchConfig::default()).with_profile(Arc::clone(profiler))
}

/// Alert count and a digest of the alert lines: equal reports give
/// equal digests.
fn digest(report: &WatchReport) -> (usize, u64) {
    let lines: Vec<String> = report.alerts.iter().map(kcc_core::Alert::to_line).collect();
    (report.alerts.len(), fnv1a(lines.join("\n").as_bytes()))
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let cfg = day_config(opts.seed, opts.sized(TARGET_ANNOUNCEMENTS));
    let every = if opts.traced { SAMPLE_EVERY } else { 0 };
    let Input { day, profiler } = repeat_setup(opts, &mut out, || {
        let day = Day::generate(&cfg, every);
        let profiler = Arc::new(train(&day));
        Input { day, profiler }
    });
    out.note(format!(
        "input: seed {}, target {} announcements → {} updates, {:.1} MiB of MRT; profiler trained \
         on the day ({} namespaces)",
        opts.seed,
        cfg.target_announcements,
        day.updates,
        day.bytes.len() as f64 / (1024.0 * 1024.0),
        profiler.namespace_count()
    ));
    out.note(
        "loop: closed batch job, one thread; sink = (WatchSink + profile, CountsSink)".to_owned(),
    );

    let decoded = by_hand(&day, false, opts.traced);
    let reference = decoded.reference;

    let mut peak_state = 0u64;
    let mut streams = 0u64;
    let mut digests = Vec::new();
    let mut failures = Vec::new();
    let mut pass = || {
        let start = Instant::now();
        let result = PipelineBuilder::new(day.open())
            .sink((watch_sink(&profiler), CountsSink::default()))
            .run();
        let report = result.map(|run| {
            peak_state = run.stats.peak_state_bytes;
            streams = run.stats.streams;
            failures.push(run.sink.1.finish() != reference || run.stats.updates != day.updates);
            run.sink.0.finish()
        });
        let seconds = start.elapsed().as_secs_f64();
        match report {
            Ok(report) => digests.push(digest(&report)),
            Err(_) => failures.push(true),
        }
        seconds
    };
    let median = timed_passes(opts, &mut out, &mut pass);
    let bad = failures.iter().filter(|f| **f).count() as u64;
    out.check(failures.len() as u64, bad, "pass counts differ from the naive reference");
    let first = digests.first().copied().unwrap_or_default();
    let differing = digests.iter().filter(|d| **d != first).count() as u64;
    out.check(digests.len() as u64, differing, "alert digest differs between passes");
    out.note(format!("alerts: {} per pass, digest {:016x} on every pass", first.0, first.1));
    out.set("updates_per_s", day.updates as f64 / median);
    record_memory(&mut out, peak_state);

    if opts.traced {
        out.set("core.streams", streams as f64);
        out.set("core.state_bytes_per_stream", peak_state as f64 / streams.max(1) as f64);
        out.set("core.watch_alerts", first.0 as f64);
        trace(&day, &profiler, &decoded, median, &mut out);
    }
    out
}

/// The traced passes and replay loops.
fn trace(
    day: &Day,
    profiler: &Arc<CommunityProfiler>,
    decoded: &Decoded,
    untraced_s: f64,
    out: &mut Outcome,
) {
    let mut rec = Recorder::default();
    let n = day.updates as f64;
    set_generation_metrics(day, &rec, out);

    const TRACED_PASSES: u32 = 2;
    let (mut wall, mut source, mut watch, mut counts, mut finish) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for pass in 0..TRACED_PASSES {
        let start_ns = rec.now_ns();
        let mut timed_source = TimedSource::new(day.open(), SAMPLE_EVERY);
        let run = PipelineBuilder::new(&mut timed_source)
            .sink((
                TimedSink::new(watch_sink(profiler), SAMPLE_EVERY),
                TimedSink::new(CountsSink::default(), SAMPLE_EVERY),
            ))
            .run();
        let fed = (start_ns, rec.now_ns());
        let Ok(run) = run else {
            out.check(1, 1, "traced pass failed to decode");
            continue;
        };
        let (watch_timing, counts_timing) = (run.sink.0.callbacks, run.sink.1.callbacks);
        let (finish_ns, report) =
            rec.replay("WatchSink::finish", "core", pass, Some("pass"), || {
                (1, run.sink.0.inner.finish())
            });
        std::hint::black_box(report);
        let window = (start_ns, rec.now_ns());
        wall += rec.pass(pass, window, day.updates);
        finish += finish_ns;
        source +=
            rec.sampled("MrtSource::next_item", "collector", pass, "pass", fed, &timed_source.next);
        watch += rec.sampled("WatchSink", "core", pass, "pass", fed, &watch_timing);
        counts += rec.sampled("CountsSink", "core", pass, "pass", fed, &counts_timing);
    }
    let passes = f64::from(TRACED_PASSES);
    let (wall, source, watch, counts, finish) =
        (wall / passes, source / passes, watch / passes, counts / passes, finish / passes);

    let classify_ns = replay_classify(&mut rec, decoded, TRACED_PASSES - 1);

    out.set("mrt.bytes_per_update", day.bytes.len() as f64 / n);
    out.set("collector.source_ns_per_update", source / n);
    out.set("core.classify_ns_per_update", classify_ns / n);
    out.set("core.sink_watch_ns_per_update", watch / n);
    out.set("core.sink_counts_ns_per_update", counts / n);
    out.set("core.sink_watch_finish_ms", finish * 1e-6);
    out.set("core.pipeline_self_ns_per_update", (wall - source - watch - counts - finish) / n);
    out.set("trace.overhead_pct", (wall * 1e-9 / untraced_s - 1.0) * 100.0);
    let attributed = source + classify_ns + watch + counts + finish;
    out.set("trace.residual_pct", (wall - attributed).abs() / wall * 100.0);
    out.note(format!(
        "traced pass {:.0} ns/update = source {:.0} + classify {:.0} + watch sink {:.0} + counts {:.0} \
         + watch finish {:.0} + unattributed {:.0}",
        wall / n,
        source / n,
        classify_ns / n,
        watch / n,
        counts / n,
        finish / n,
        (wall - attributed) / n
    ));
    write_trace("watch-day", &rec, out);
}
