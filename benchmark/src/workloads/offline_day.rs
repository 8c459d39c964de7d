//! `offline-day`: a collector day through the paper's own analysis, on
//! one thread — the baseline every other workload is compared with.

use std::collections::HashMap;
use std::time::Instant;

use kcc_bgp_types::{AttrStore, RouteUpdate};
use kcc_collector::{SessionKey, SourceItem, UpdateSource};
use kcc_core::pipeline::{PipelineBuilder, Stage};
use kcc_core::{
    CleaningConfig, CleaningStage, CountsSink, OverviewSink, StreamClassifier, TypeCounts,
};
use kcc_mrt::{MrtReader, UpdateStream};

use super::{record_memory, repeat_setup, timed_passes, write_trace, RunOpts};
use crate::inputs::{day_config, Day};
use crate::reference::NaiveClassifier;
use crate::report::Outcome;
use crate::trace::{Recorder, TimedSink, TimedSource, TimedStage, SAMPLE_EVERY};

/// Why the workload exists.
pub const WHY: &str = "the paper's own job: one collector day (MRT bytes) cleaned, classified and \
    tabulated on one thread, at a state size well past cache; the baseline for the other workloads";

/// Announcements the generator aims for (the day has about as many
/// updates). Sized so that a pass stays under a second and ten seconds
/// hold the nine passes a median needs.
pub const TARGET_ANNOUNCEMENTS: u64 = 400_000;

/// What driving the day's source (and, if asked, the cleaning stage) by
/// hand — no pipeline, no `StreamClassifier` — gives: the reference counts, and —
/// only when the replay loops will need it — the cleaned day itself.
pub struct Decoded {
    /// What the naive classifier counts over the kept updates.
    pub reference: TypeCounts,
    /// `(session index, update)` in source order; empty unless kept.
    pub updates: Vec<(usize, RouteUpdate)>,
    /// Sessions seen.
    pub sessions: usize,
    /// Updates the stage kept.
    pub kept: u64,
}

/// Decodes (and cleans) the day by hand and classifies it naively, update at a time,
/// so an untraced run never holds the decoded day (its peak RSS is the
/// program's, not the reference's).
pub fn by_hand(day: &Day, clean: bool, keep_updates: bool) -> Decoded {
    let mut source = day.open();
    let mut stage = clean.then(|| CleaningStage::new(&day.registry, CleaningConfig::default()));
    let mut ids: HashMap<SessionKey, usize> = HashMap::new();
    let mut naive = NaiveClassifier::default();
    let (mut updates, mut kept) = (Vec::new(), 0);
    while let Some(item) = source.next_item().expect("in-memory MRT cannot fail") {
        let (meta, update) = match item {
            SourceItem::Session(meta) => (meta, None),
            SourceItem::Update(meta, update) => (meta, Some(update)),
        };
        let next = ids.len();
        let id = *ids.entry(meta.key.clone()).or_insert_with(|| {
            if let Some(stage) = &mut stage {
                stage.on_session(&meta);
            }
            next
        });
        let kept_update = match &mut stage {
            Some(stage) => update.and_then(|u| stage.process(&meta, u)),
            None => update,
        };
        if let Some(update) = kept_update {
            naive.observe(id, &update);
            kept += 1;
            if keep_updates {
                updates.push((id, update));
            }
        }
    }
    Decoded { reference: naive.counts, updates, sessions: ids.len(), kept }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let cfg = day_config(opts.seed, opts.sized(TARGET_ANNOUNCEMENTS));
    let every = if opts.traced { SAMPLE_EVERY } else { 0 };
    let day = repeat_setup(opts, &mut out, || Day::generate(&cfg, every));
    out.note(format!(
        "input: seed {}, target {} announcements → {} updates, {:.1} MiB of MRT, digest {:016x}",
        opts.seed,
        cfg.target_announcements,
        day.updates,
        day.bytes.len() as f64 / (1024.0 * 1024.0),
        day.digest()
    ));
    out.note("loop: closed batch job, one thread".to_owned());

    let cleaned = by_hand(&day, true, opts.traced);
    let reference = cleaned.reference;

    let mut peak_state = 0u64;
    let mut streams = 0u64;
    let mut failures = Vec::new();
    let mut pass = || {
        let start = Instant::now();
        let result = PipelineBuilder::new(day.open())
            .stages(CleaningStage::new(&day.registry, CleaningConfig::default()))
            .sink((OverviewSink::default(), CountsSink::default()))
            .run();
        let seconds = start.elapsed().as_secs_f64();
        match result {
            Ok(run) => {
                peak_state = run.stats.peak_state_bytes;
                streams = run.stats.streams;
                let counts = run.sink.1.finish();
                failures.push(counts != reference || run.stats.updates != day.updates);
            }
            Err(_) => failures.push(true),
        }
        seconds
    };
    let median = timed_passes(opts, &mut out, &mut pass);
    let bad = failures.iter().filter(|f| **f).count() as u64;
    out.check(failures.len() as u64, bad, "pass counts differ from the naive reference");
    out.set("updates_per_s", day.updates as f64 / median);
    record_memory(&mut out, peak_state);
    out.note(format!(
        "reference: pc={} pn={} nc={} nn={} xc={} xn={} initial={} withdrawals={}",
        reference.pc,
        reference.pn,
        reference.nc,
        reference.nn,
        reference.xc,
        reference.xn,
        reference.initial,
        reference.withdrawals
    ));

    if opts.traced {
        out.set("core.streams", streams as f64);
        out.set("core.state_bytes_per_stream", peak_state as f64 / streams.max(1) as f64);
        trace(&day, &cleaned, median, &reference, &mut out);
    }
    out
}

/// The traced passes and replay loops.
fn trace(day: &Day, cleaned: &Decoded, untraced_s: f64, reference: &TypeCounts, out: &mut Outcome) {
    let mut rec = Recorder::default();
    let n = day.updates as f64;
    set_generation_metrics(day, &rec, out);

    const TRACED_PASSES: u32 = 2;
    let (mut wall, mut source, mut clean, mut overview, mut counts) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut dropped = 0;
    for pass in 0..TRACED_PASSES {
        let start_ns = rec.now_ns();
        let mut timed_source = TimedSource::new(day.open(), SAMPLE_EVERY);
        let run = PipelineBuilder::new(&mut timed_source)
            .stages(TimedStage::new(
                CleaningStage::new(&day.registry, CleaningConfig::default()),
                SAMPLE_EVERY,
            ))
            .sink((
                TimedSink::new(OverviewSink::default(), SAMPLE_EVERY),
                TimedSink::new(CountsSink::default(), SAMPLE_EVERY),
            ))
            .run();
        let window = (start_ns, rec.now_ns());
        let Ok(run) = run else {
            out.check(1, 1, "traced pass failed to decode");
            continue;
        };
        out.check(1, u64::from(run.sink.1.inner.finish() != *reference), "traced pass counts");
        wall += rec.pass(pass, window, day.updates);
        // The wrapper cannot see inside `PipelineBuilder::run`, so the
        // source's span includes MRT framing and decode (replayed below).
        source += rec.sampled(
            "MrtSource::next_item",
            "collector",
            pass,
            "pass",
            window,
            &timed_source.next,
        );
        clean += rec.sampled(
            "CleaningStage::process",
            "core",
            pass,
            "pass",
            window,
            &run.stages.process,
        );
        overview +=
            rec.sampled("OverviewSink", "core", pass, "pass", window, &run.sink.0.callbacks);
        counts += rec.sampled("CountsSink", "core", pass, "pass", window, &run.sink.1.callbacks);
        dropped = run.stages.dropped;
    }
    let passes = f64::from(TRACED_PASSES);
    let (wall, source, clean, overview, counts) =
        (wall / passes, source / passes, clean / passes, overview / passes, counts / passes);

    let last = TRACED_PASSES - 1;
    let (frame_ns, records) =
        rec.replay("MrtReader::next_record", "mrt", last, Some("MrtSource::next_item"), || {
            let mut reader = MrtReader::new(&day.bytes[..]);
            let mut records = 0u64;
            while let Some(record) = reader.next_record().expect("in-memory MRT cannot fail") {
                std::hint::black_box(&record);
                records += 1;
            }
            (records, records)
        });
    let (stream_ns, _) =
        rec.replay("UpdateStream::next_update", "mrt", last, Some("MrtSource::next_item"), || {
            let mut stream = UpdateStream::new(&day.bytes[..], day.epoch_seconds);
            let mut updates = 0u64;
            while let Some(update) = stream.next_update().expect("in-memory MRT cannot fail") {
                std::hint::black_box(&update);
                updates += 1;
            }
            (updates, ())
        });
    let classify_ns = replay_classify(&mut rec, cleaned, last);
    let announced: Vec<_> =
        cleaned.updates.iter().filter_map(|(_, u)| u.attributes_shared()).collect();
    let (intern_ns, distinct) = rec.replay(
        "AttrStore::acquire",
        "bgp-types",
        last,
        Some("StreamClassifier::classify"),
        || {
            let mut store = AttrStore::new();
            for attrs in &announced {
                std::hint::black_box(store.acquire(attrs));
            }
            (announced.len() as u64, store.len())
        },
    );

    let kept = cleaned.kept as f64;
    out.set("mrt.frame_ns_per_record", frame_ns / records as f64);
    out.set("mrt.decode_ns_per_update", (stream_ns - frame_ns).max(0.0) / n);
    out.set("mrt.bytes_per_update", day.bytes.len() as f64 / n);
    out.set("collector.source_ns_per_update", source / n);
    out.set("core.clean_ns_per_update", clean / n);
    out.set("core.clean_drop_share", dropped as f64 / n);
    out.set("core.classify_ns_per_update", classify_ns / kept);
    out.set("core.sink_overview_ns_per_update", overview / kept);
    out.set("core.sink_counts_ns_per_update", counts / kept);
    out.set("core.pipeline_self_ns_per_update", (wall - source - clean - overview - counts) / n);
    out.set("bgp-types.intern_ns_per_acquire", intern_ns / announced.len().max(1) as f64);
    out.set("bgp-types.intern_hit_ratio", 1.0 - distinct as f64 / announced.len().max(1) as f64);
    out.set("trace.overhead_pct", (wall * 1e-9 / untraced_s - 1.0) * 100.0);
    let attributed = source + clean + classify_ns + overview + counts;
    out.set("trace.residual_pct", (wall - attributed).abs() / wall * 100.0);
    out.note(format!(
        "traced pass {:.0} ns/update = source {:.0} (of which MRT frame {:.0}, explode {:.0}) + clean {:.0} \
         + classify {:.0} + overview {:.0} + counts {:.0} + unattributed {:.0}",
        wall / n,
        source / n,
        frame_ns / n,
        (stream_ns - frame_ns).max(0.0) / n,
        clean / n,
        classify_ns / n,
        overview / n,
        counts / n,
        (wall - attributed) / n
    ));
    write_trace("offline-day", &rec, out);
}

/// Replays the kept updates through fresh per-session classifiers:
/// what `StreamClassifier::classify` costs with nothing around it.
pub fn replay_classify(rec: &mut Recorder, decoded: &Decoded, pass: u32) -> f64 {
    let (classify_ns, ()) =
        rec.replay("StreamClassifier::classify", "core", pass, Some("pass"), || {
            let mut classifiers: Vec<StreamClassifier> =
                (0..decoded.sessions).map(|_| StreamClassifier::new()).collect();
            for (session, update) in &decoded.updates {
                std::hint::black_box(classifiers[*session].classify(update));
            }
            (decoded.updates.len() as u64, ())
        });
    classify_ns
}

/// `tracegen.*` and `mrt.write_*` from the sampled set-up.
pub fn set_generation_metrics(day: &Day, rec: &Recorder, out: &mut Outcome) {
    out.set("tracegen.updates", day.updates as f64);
    out.set("tracegen.gen_ns_per_update", day.gen.busy_ns(rec.clock_ns) / day.updates as f64);
    out.set("mrt.write_ns_per_record", day.write.busy_ns(rec.clock_ns) / day.updates as f64);
}
