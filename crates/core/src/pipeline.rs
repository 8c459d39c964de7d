//! The one-pass streaming analysis pipeline.
//!
//! The paper's measurement covers ~126 collector-days and >3.8 billion
//! updates — a scale at which "load the day, then run each analysis over
//! it" cannot work. This module turns the analysis surface inside out:
//!
//! * an [`UpdateSource`] (materialized archive, MRT bytes, simulator
//!   capture, trace generator) is pulled **once**,
//! * a chain of [`Stage`]s applies the §4 cleaning transforms
//!   incrementally ([`crate::clean::CleaningStage`]),
//! * the pipeline keeps exactly one [`PathAttributes`] per active
//!   `(session, prefix)` stream — the §5 classifier state, constant per
//!   stream — and fans every surviving update plus its
//!   [`ClassifiedEvent`] out to all registered [`AnalysisSink`]s.
//!
//! Every analysis in this crate (type counts, overview, phase counts,
//! exploration, revealed information, per-session distributions,
//! timelines, anomaly detection, tomography, interconnections,
//! longitudinal day points) exists only as an [`AnalysisSink`], so one
//! pass drives them all. No analysis keeps the classified events: a sink
//! folds each one into its own aggregate as it arrives. The helpers that
//! take a materialized `&UpdateArchive` (`classify_archive`, `overview`,
//! …) run their sink through this same pipeline.
//!
//! There is one way to run a pipeline — [`PipelineBuilder`] — and one way
//! to fan out: [`PipelineBuilder::collectors`] gives every member of a
//! corpus its own pipeline on a `std::thread::scope` worker and [`Merge`]s
//! the per-collector sinks in name order on finish.
//!
//! [`PathAttributes`]: kcc_bgp_types::PathAttributes

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kcc_obs::{HistogramSnapshot, Registry};

use kcc_bgp_types::{FastHashMap, RouteUpdate};
use kcc_collector::{
    ArchiveSource, Corpus, PeerMeta, SessionKey, ShutdownFlag, SourceError, SourceItem,
    UpdateArchive, UpdateSource,
};

use crate::stream::{ClassifiedEvent, StreamClassifier};

/// An incremental per-update transform (the §4 cleaning steps). Stages
/// see each session's updates in arrival order and may drop or rewrite
/// them; per-session state is the only state a stage should keep.
pub trait Stage {
    /// A session became known (always before its first update).
    fn on_session(&mut self, _meta: &PeerMeta) {}

    /// Transforms one update; `None` drops it.
    fn process(&mut self, meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate>;
}

/// The identity stage.
impl Stage for () {
    fn process(&mut self, _meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate> {
        Some(update)
    }
}

impl<A: Stage, B: Stage> Stage for (A, B) {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.0.on_session(meta);
        self.1.on_session(meta);
    }

    fn process(&mut self, meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate> {
        self.1.process(meta, self.0.process(meta, update)?)
    }
}

impl<A: Stage, B: Stage, C: Stage> Stage for (A, B, C) {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.0.on_session(meta);
        self.1.on_session(meta);
        self.2.on_session(meta);
    }

    fn process(&mut self, meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate> {
        self.2.process(meta, self.1.process(meta, self.0.process(meta, update)?)?)
    }
}

/// An incremental analysis consumer. Implementations accumulate whatever
/// aggregate their analysis needs; the pipeline feeds them raw updates
/// (post-cleaning) and classified events in one pass.
pub trait AnalysisSink {
    /// A session became known (always before its first update).
    fn on_session(&mut self, _meta: &PeerMeta) {}

    /// One update survived the stage chain.
    fn on_update(&mut self, _session: &SessionKey, _update: &RouteUpdate) {}

    /// The update's §5 classification against its stream predecessor.
    fn on_event(&mut self, _session: &SessionKey, _event: &ClassifiedEvent) {}

    /// Whether this sink consumes [`AnalysisSink::on_event`]. Sinks that
    /// only need raw updates return `false`, letting the pipeline skip
    /// the classifier (and its per-stream state) entirely.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Combine two partial results of the same shape — what
/// [`CorpusBuilder::run`] does to per-collector sinks on finish. Merging
/// must be insensitive to how sessions were partitioned: counts add, sets
/// union, per-session maps (disjoint across collectors) extend.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for crate::classify::TypeCounts {
    fn merge(&mut self, other: Self) {
        crate::classify::TypeCounts::merge(self, &other);
    }
}

macro_rules! impl_sink_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: AnalysisSink),+> AnalysisSink for ($($name,)+) {
            fn on_session(&mut self, meta: &PeerMeta) {
                $(self.$idx.on_session(meta);)+
            }
            fn on_update(&mut self, session: &SessionKey, update: &RouteUpdate) {
                $(self.$idx.on_update(session, update);)+
            }
            fn on_event(&mut self, session: &SessionKey, event: &ClassifiedEvent) {
                $(self.$idx.on_event(session, event);)+
            }
            fn wants_events(&self) -> bool {
                $(self.$idx.wants_events())||+
            }
        }
        impl<$($name: Merge),+> Merge for ($($name,)+) {
            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }
        }
    };
}

impl_sink_tuple!(A: 0, B: 1);
impl_sink_tuple!(A: 0, B: 1, C: 2);
impl_sink_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_sink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_sink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// What one pipeline run processed and how much state it held.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Sessions seen.
    pub sessions: u64,
    /// Updates pulled from the source.
    pub updates: u64,
    /// Updates surviving the stage chain.
    pub kept: u64,
    /// Distinct `(session, prefix)` streams with classifier state.
    pub streams: u64,
    /// Estimated bytes of resident classifier state (one set of path
    /// attributes per stream) at finish.
    pub state_bytes: u64,
    /// Peak of `state_bytes` over the run — the "constant memory per
    /// stream" number the streaming redesign exists for. A corpus run
    /// sums the per-collector peaks; members run on at most `threads`
    /// workers, so the sum is an upper bound on what was resident at
    /// once, exact only when `threads` ≥ the member count.
    pub peak_state_bytes: u64,
}

impl Merge for PipelineStats {
    fn merge(&mut self, other: Self) {
        self.sessions += other.sessions;
        self.updates += other.updates;
        self.kept += other.kept;
        self.streams += other.streams;
        self.state_bytes += other.state_bytes;
        self.peak_state_bytes += other.peak_state_bytes;
    }
}

/// Sampled wall-time profile of a pipeline run, split by phase of the
/// per-update path (stage chain → sink update → classify → sink event)
/// plus one `finish` observation per pipeline instance.
///
/// Kept separate from [`PipelineStats`] on purpose: stats are exact,
/// `Copy`, and deterministic (tests compare them with `assert_eq!`);
/// timing is sampled and machine-dependent. The sampling knob
/// ([`PipelineBuilder::profile`]) bounds the overhead — only every N-th
/// update pays for `Instant::now` calls, everything else pays one
/// decrement-and-branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineProfile {
    /// Updates that were fully timed (1-in-N of all updates).
    pub sampled: u64,
    /// Stage-chain (`Stage::process`) wall time, nanoseconds.
    pub stage_nanos: HistogramSnapshot,
    /// Classifier (`StreamClassifier::classify`) wall time, nanoseconds.
    pub classify_nanos: HistogramSnapshot,
    /// Sink `on_update` wall time, nanoseconds.
    pub sink_update_nanos: HistogramSnapshot,
    /// Sink `on_event` wall time, nanoseconds.
    pub sink_event_nanos: HistogramSnapshot,
    /// Per-sink-instance finish/teardown wall time, nanoseconds (one
    /// observation per pipeline, i.e. per collector).
    pub finish_nanos: HistogramSnapshot,
}

impl PipelineProfile {
    /// Registers this profile's histograms (labeled `phase="stage"`,
    /// `"classify"`, `"sink_update"`, `"sink_event"`, `"finish"`) and
    /// the sample counter in `registry`, folding the recorded values in.
    /// Extra labels (e.g. `collector="rrc00"`) apply to every series.
    pub fn export(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let phases = [
            ("stage", &self.stage_nanos),
            ("classify", &self.classify_nanos),
            ("sink_update", &self.sink_update_nanos),
            ("sink_event", &self.sink_event_nanos),
            ("finish", &self.finish_nanos),
        ];
        for (phase, hist) in phases {
            let mut all = labels.to_vec();
            all.push(("phase", phase));
            registry.histogram_with("kcc_pipeline_phase_nanos", &all).record(hist);
        }
        registry.counter_with("kcc_pipeline_profile_samples_total", labels).add(self.sampled);
    }
}

/// Live profiling state: the sampling countdown plus the accumulating
/// profile.
#[derive(Debug)]
struct ProfileState {
    every: u64,
    countdown: u64,
    profile: PipelineProfile,
}

impl ProfileState {
    fn new(every: u64) -> Self {
        let every = every.max(1);
        ProfileState { every, countdown: every, profile: PipelineProfile::default() }
    }

    /// Whether this update is sampled (true once every `every` calls).
    #[inline]
    fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.every;
            self.profile.sampled += 1;
            true
        } else {
            false
        }
    }
}

/// Everything a pipeline run returns: the stage chain and sink, plus run
/// statistics.
#[derive(Debug)]
pub struct PipelineOutput<St, S> {
    /// The stage chain with its accumulated state (e.g. the cleaning
    /// report).
    pub stages: St,
    /// The sink(s) with their accumulated analysis results.
    pub sink: S,
    /// Run statistics.
    pub stats: PipelineStats,
    /// Sampled per-phase timing, when profiling was enabled
    /// ([`PipelineBuilder::profile`]).
    pub profile: Option<PipelineProfile>,
}

/// The single-pass loop behind [`PipelineBuilder::run`]: source →
/// stages → classifier → sinks.
#[derive(Debug)]
struct Pipeline<St, S> {
    stages: St,
    sink: S,
    classify: bool,
    // Classifiers live in a flat Vec; the String-keyed map is consulted
    // only when the session changes. Sources deliver long same-session
    // runs (MRT records explode to many updates on one session), so the
    // `Arc::ptr_eq` cache below turns the per-update session lookup into
    // a pointer compare.
    classifier_ids: FastHashMap<SessionKey, usize>,
    classifiers: Vec<StreamClassifier>,
    current: Option<(std::sync::Arc<PeerMeta>, usize)>,
    stats: PipelineStats,
    profile: Option<ProfileState>,
}

impl<St: Stage, S: AnalysisSink> Pipeline<St, S> {
    /// A pipeline over the given stage chain and sink (tuples of sinks
    /// fan out). With `profile_every`, every `every`-th update has each
    /// phase of its trip wall-clocked into [`PipelineOutput::profile`]
    /// (`every` is clamped to ≥ 1).
    fn new(stages: St, sink: S, profile_every: Option<u64>) -> Self {
        let classify = sink.wants_events();
        Pipeline {
            stages,
            sink,
            classify,
            classifier_ids: FastHashMap::default(),
            classifiers: Vec::new(),
            current: None,
            stats: PipelineStats::default(),
            profile: profile_every.map(ProfileState::new),
        }
    }

    /// Feeds one source item through stages, classifier and sinks.
    fn feed(&mut self, item: SourceItem) {
        match item {
            SourceItem::Session(meta) => {
                self.register(&meta);
            }
            SourceItem::Update(meta, update) => {
                let slot = self.register(&meta);
                self.stats.updates += 1;
                // One decrement-and-branch per update when profiling is
                // on. The sampled (1-in-N) trip is monomorphized
                // separately so the common path carries no timing code
                // at all — the measured streaming overhead of enabled
                // profiling stays within the CI-gated budget.
                let sampled = match &mut self.profile {
                    None => false,
                    Some(p) => p.tick(),
                };
                if sampled {
                    self.feed_update::<true>(&meta, update, slot);
                } else {
                    self.feed_update::<false>(&meta, update, slot);
                }
            }
        }
    }

    /// One update's trip through stages, classifier and sinks. With
    /// `PROFILED` each phase is wall-clocked into the profile; the
    /// `false` instantiation compiles the timing away.
    fn feed_update<const PROFILED: bool>(
        &mut self,
        meta: &std::sync::Arc<PeerMeta>,
        update: RouteUpdate,
        slot: usize,
    ) {
        let timer = PROFILED.then(Instant::now);
        let processed = self.stages.process(meta, update);
        if PROFILED {
            if let (Some(t), Some(p)) = (timer, &mut self.profile) {
                p.profile.stage_nanos.observe(t.elapsed().as_nanos() as u64);
            }
        }
        let Some(update) = processed else {
            return;
        };
        self.stats.kept += 1;
        let timer = PROFILED.then(Instant::now);
        self.sink.on_update(&meta.key, &update);
        if PROFILED {
            if let (Some(t), Some(p)) = (timer, &mut self.profile) {
                p.profile.sink_update_nanos.observe(t.elapsed().as_nanos() as u64);
            }
        }
        if self.classify {
            let classifier = &mut self.classifiers[slot];
            let streams_before = classifier.stream_count() as u64;
            let bytes_before = classifier.state_bytes() as u64;
            let timer = PROFILED.then(Instant::now);
            let event = classifier.classify(&update);
            if PROFILED {
                if let (Some(t), Some(p)) = (timer, &mut self.profile) {
                    p.profile.classify_nanos.observe(t.elapsed().as_nanos() as u64);
                }
            }
            self.stats.streams += classifier.stream_count() as u64 - streams_before;
            self.stats.state_bytes =
                self.stats.state_bytes + classifier.state_bytes() as u64 - bytes_before;
            self.stats.peak_state_bytes = self.stats.peak_state_bytes.max(self.stats.state_bytes);
            let timer = PROFILED.then(Instant::now);
            self.sink.on_event(&meta.key, &event);
            if PROFILED {
                if let (Some(t), Some(p)) = (timer, &mut self.profile) {
                    p.profile.sink_event_nanos.observe(t.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    fn register(&mut self, meta: &std::sync::Arc<PeerMeta>) -> usize {
        // Fast path: same `PeerMeta` handle as the previous item — no
        // hashing at all.
        if let Some((cached, slot)) = &self.current {
            if std::sync::Arc::ptr_eq(cached, meta) {
                return *slot;
            }
        }
        // Sessions double as the seen-set even when the sink skips
        // classification — an empty classifier costs nothing.
        let slot = match self.classifier_ids.get(&meta.key) {
            Some(&slot) => slot,
            None => {
                let slot = self.classifiers.len();
                self.classifiers.push(StreamClassifier::new());
                self.classifier_ids.insert(meta.key.clone(), slot);
                self.stats.sessions += 1;
                self.stages.on_session(meta);
                self.sink.on_session(meta);
                slot
            }
        };
        self.current = Some((std::sync::Arc::clone(meta), slot));
        slot
    }

    /// Pulls a source dry through this pipeline.
    fn run<Src: UpdateSource>(&mut self, mut source: Src) -> Result<(), SourceError> {
        while let Some(item) = source.next_item()? {
            self.feed(item);
        }
        Ok(())
    }

    /// Dismantles the pipeline into its results. With profiling on, the
    /// classifier-state teardown is timed as this instance's `finish`
    /// observation (one per pipeline, i.e. per collector).
    fn finish(self) -> PipelineOutput<St, S> {
        let Pipeline { stages, sink, classifier_ids, classifiers, stats, profile, .. } = self;
        let profile = profile.map(|mut state| {
            let start = Instant::now();
            drop(classifiers);
            drop(classifier_ids);
            state.profile.finish_nanos.observe(start.elapsed().as_nanos() as u64);
            state.profile
        });
        PipelineOutput { stages, sink, stats, profile }
    }
}

/// The placeholder sink of a [`PipelineBuilder`] before
/// [`sink`](PipelineBuilder::sink) is called. Deliberately **not** an
/// [`AnalysisSink`]: a builder without a sink does not type-check at
/// `.run()`, so forgetting the sink is a compile error rather than a
/// silent no-op run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSink;

/// The entry point to both pipeline shapes: `.stages(st).sink(s).run()`
/// pulls one source dry on the calling thread, and
/// [`PipelineBuilder::collectors`] runs one such pipeline per corpus
/// member.
///
/// ```
/// # use kcc_core::pipeline::PipelineBuilder;
/// # use kcc_core::stream::CountsSink;
/// # use kcc_collector::{ArchiveSource, UpdateArchive};
/// # let archive = UpdateArchive::new(0);
/// let out = PipelineBuilder::new(ArchiveSource::new(&archive))
///     .sink(CountsSink::default())
///     .run()
///     .unwrap();
/// # let _ = out.sink.finish();
/// ```
#[derive(Debug)]
pub struct PipelineBuilder<Src, St = (), S = NoSink> {
    source: Src,
    stages: St,
    sink: S,
    profile_every: Option<u64>,
}

impl<Src> PipelineBuilder<Src> {
    /// A builder over one source, with the identity stage chain and no
    /// sink yet.
    pub fn new(source: Src) -> Self {
        PipelineBuilder { source, stages: (), sink: NoSink, profile_every: None }
    }
}

impl<Src, St, S> PipelineBuilder<Src, St, S> {
    /// Sets the stage chain (tuples chain in order).
    pub fn stages<St2>(self, stages: St2) -> PipelineBuilder<Src, St2, S> {
        PipelineBuilder {
            source: self.source,
            stages,
            sink: self.sink,
            profile_every: self.profile_every,
        }
    }

    /// Sets the sink (tuples of sinks fan out).
    pub fn sink<S2>(self, sink: S2) -> PipelineBuilder<Src, St, S2> {
        PipelineBuilder {
            source: self.source,
            stages: self.stages,
            sink,
            profile_every: self.profile_every,
        }
    }

    /// Enables sampled per-phase timing: every `every`-th update has
    /// each phase wall-clocked into [`PipelineOutput::profile`]. The
    /// sampling interval bounds the overhead: at `profile(64)`,
    /// `crates/bench/tests/profile_overhead.rs` holds it under 2% of
    /// on-CPU time in CI's bench-pair job.
    pub fn profile(mut self, every: u64) -> Self {
        self.profile_every = Some(every);
        self
    }

    /// Names the [`ShutdownFlag`] that bounds a live run. The flag acts in
    /// the *source*, not here — this call changes nothing about the run:
    /// a `kcc_collector::LiveSource` whose `shutdown_flag` is triggered
    /// unblocks any pending `next_item` call, drains what it already
    /// buffered, and then reports end-of-stream, which is the only thing
    /// that ever ends [`run`](PipelineBuilder::run). Every received update
    /// is accounted for; a source ending on its own finishes the run the
    /// same way.
    pub fn shutdown(self, _stop: &ShutdownFlag) -> Self {
        self
    }

    /// Pulls the source dry on the calling thread and returns the
    /// stages, sink and statistics.
    pub fn run(self) -> Result<PipelineOutput<St, S>, SourceError>
    where
        Src: UpdateSource,
        St: Stage,
        S: AnalysisSink,
    {
        let mut pipeline = Pipeline::new(self.stages, self.sink, self.profile_every);
        pipeline.run(self.source)?;
        Ok(pipeline.finish())
    }
}

/// The unconfigured corpus builder [`PipelineBuilder::collectors`]
/// returns: identity stages and no sink for every member until
/// [`CorpusBuilder::stages_for`] / [`CorpusBuilder::sinks_for`] replace
/// the factories.
pub type DefaultCorpusBuilder<'s> = CorpusBuilder<'s, fn(&str), fn(&str) -> NoSink>;

impl<'s> PipelineBuilder<Corpus<'s>> {
    /// A per-collector builder over a corpus — every member runs its own
    /// full pipeline. Configure with
    /// [`CorpusBuilder::stages_for`] / [`CorpusBuilder::sinks_for`] /
    /// [`CorpusBuilder::threads`], then [`CorpusBuilder::run`].
    pub fn collectors(corpus: Corpus<'s>) -> DefaultCorpusBuilder<'s> {
        CorpusBuilder { corpus, threads: 4, make_stages: |_| (), make_sink: |_| NoSink }
    }
}

/// A per-collector corpus run being configured
/// ([`PipelineBuilder::collectors`]): each member gets its own stages and
/// sink from the factories (built from the collector name), members fan
/// out across up to `threads` workers, and outputs merge in collector
/// name order.
#[derive(Debug)]
pub struct CorpusBuilder<'s, FSt, FS> {
    corpus: Corpus<'s>,
    threads: usize,
    make_stages: FSt,
    make_sink: FS,
}

impl<'s, FSt, FS> CorpusBuilder<'s, FSt, FS> {
    /// Sets the worker-thread cap (default 4; clamped to the member
    /// count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-collector stage factory (called with each collector
    /// name).
    pub fn stages_for<F2>(self, make_stages: F2) -> CorpusBuilder<'s, F2, FS> {
        CorpusBuilder {
            corpus: self.corpus,
            threads: self.threads,
            make_stages,
            make_sink: self.make_sink,
        }
    }

    /// Sets the per-collector sink factory (called with each collector
    /// name).
    pub fn sinks_for<F2>(self, make_sink: F2) -> CorpusBuilder<'s, FSt, F2> {
        CorpusBuilder {
            corpus: self.corpus,
            threads: self.threads,
            make_stages: self.make_stages,
            make_sink,
        }
    }

    /// Runs every member through its **own** full pipeline — per-collector
    /// stages (the §4 cleaning is applied per collector, as in the paper)
    /// and per-collector sinks, built by the factories from the collector
    /// name — fanning the members across up to `threads` workers with
    /// `std::thread::scope`. On finish, per-collector outputs are sorted
    /// by name and the sinks/stats additionally merged (in that same name
    /// order) into the combined all-vantage [`CorpusOutput`].
    ///
    /// Results are **collector-order- and thread-count-independent**:
    /// each member is a fully independent pipeline (sessions carry their
    /// collector, so no state is shared), workers only affect *which*
    /// thread runs a member, and every merge folds in sorted name order
    /// through partition-insensitive, integer-counter [`Merge`] impls. A
    /// failing member surfaces the error of the smallest collector name
    /// so even the failure mode is deterministic.
    pub fn run<St, S>(self) -> Result<CorpusOutput<St, S>, SourceError>
    where
        St: Stage + Send,
        S: AnalysisSink + Merge + Clone + Send,
        FSt: Fn(&str) -> St + Sync,
        FS: Fn(&str) -> S + Sync,
    {
        type Slot<St, S> = Option<(String, Result<PipelineOutput<St, S>, SourceError>)>;
        let CorpusBuilder { corpus, threads, make_stages, make_sink } = self;
        let members = corpus.into_members();
        let n = members.len();
        let slots: Mutex<Vec<Slot<St, S>>> = Mutex::new((0..n).map(|_| None).collect());
        let queue = AtomicUsize::new(0);
        let members: Vec<Mutex<Option<kcc_collector::NamedSource<'s>>>> =
            members.into_iter().map(|m| Mutex::new(Some(m))).collect();

        std::thread::scope(|scope| {
            let workers = threads.clamp(1, n.max(1));
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let queue = &queue;
                let slots = &slots;
                let members = &members;
                let make_stages = &make_stages;
                let make_sink = &make_sink;
                handles.push(scope.spawn(move || loop {
                    let idx = queue.fetch_add(1, Ordering::Relaxed);
                    if idx >= members.len() {
                        return;
                    }
                    let member = members[idx]
                        .lock()
                        .expect("member mutex poisoned")
                        .take()
                        .expect("each member claimed exactly once");
                    let name = member.name.clone();
                    let result = PipelineBuilder::new(member.source)
                        .stages(make_stages(&name))
                        .sink(make_sink(&name))
                        .run();
                    slots.lock().expect("slot mutex poisoned")[idx] = Some((name, result));
                }));
            }
            for h in handles {
                h.join().expect("corpus worker panicked");
            }
        });

        let mut outputs: Vec<(String, PipelineOutput<St, S>)> = Vec::with_capacity(n);
        let mut failures: Vec<(String, SourceError)> = Vec::new();
        for slot in slots.into_inner().expect("slot mutex poisoned") {
            let (name, result) = slot.expect("every member ran");
            match result {
                Ok(out) => outputs.push((name, out)),
                Err(e) => failures.push((name, e)),
            }
        }
        if !failures.is_empty() {
            failures.sort_by(|a, b| a.0.cmp(&b.0));
            let (name, error) = failures.remove(0);
            return Err(SourceError::Collector(name, Box::new(error)));
        }
        outputs.sort_by(|a, b| a.0.cmp(&b.0));

        let mut combined: Option<S> = None;
        let mut stats = PipelineStats::default();
        for (_, out) in &outputs {
            match &mut combined {
                None => combined = Some(out.sink.clone()),
                Some(c) => c.merge(out.sink.clone()),
            }
            stats.merge(out.stats);
        }
        let combined =
            combined.ok_or_else(|| SourceError::Other("corpus has no members".into()))?;
        Ok(CorpusOutput { per_collector: outputs, combined, stats })
    }
}

/// Runs `sink` over a materialized archive and returns it — the one body
/// behind this crate's `&UpdateArchive` helpers ([`classify_archive`],
/// [`overview`], …).
///
/// [`classify_archive`]: crate::stream::classify_archive
/// [`overview`]: crate::table::overview
pub(crate) fn drain_archive<S: AnalysisSink>(archive: &UpdateArchive, sink: S) -> S {
    PipelineBuilder::new(ArchiveSource::new(archive))
        .sink(sink)
        .run()
        .expect("archive sources cannot fail")
        .sink
}

/// Everything a corpus run returns.
#[derive(Debug)]
pub struct CorpusOutput<St, S> {
    /// One full pipeline output per collector, **sorted by collector
    /// name** — the order every merge below used, so results are
    /// insensitive to member insertion order and thread count.
    pub per_collector: Vec<(String, PipelineOutput<St, S>)>,
    /// All per-collector sinks merged in name order — the combined
    /// all-vantage result.
    pub combined: S,
    /// All per-collector stats merged in name order. `peak_state_bytes`
    /// is the sum of the members' peaks — an upper bound on concurrent
    /// residency, exact only when `threads` ≥ the member count (see
    /// [`PipelineStats::peak_state_bytes`]).
    pub stats: PipelineStats,
}

impl<St, S> CorpusOutput<St, S> {
    /// One collector's output by name.
    pub fn collector(&self, name: &str) -> Option<&PipelineOutput<St, S>> {
        self.per_collector.iter().find(|(n, _)| n == name).map(|(_, out)| out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::TypeCounts;
    use crate::stream::{classify_archive, CountsSink};
    use crate::table::{overview, OverviewSink};
    use kcc_bgp_types::{Asn, Community, CommunitySet, PathAttributes, Prefix};

    fn attrs(path: &str, comm: u16) -> PathAttributes {
        PathAttributes {
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic([Community::from_parts(3356, comm)]),
            ..Default::default()
        }
    }

    fn archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let other: Prefix = "84.205.65.0/24".parse().unwrap();
        for peer in 0..6u32 {
            let key = SessionKey::new(
                "rrc00",
                Asn(100 + peer),
                format!("10.0.0.{}", peer + 1).parse().unwrap(),
            );
            for i in 0..10u64 {
                a.record(&key, RouteUpdate::announce(i, prefix, attrs("1 2 3", i as u16 % 3)));
                a.record(&key, RouteUpdate::announce(i, other, attrs("1 9 3", 7)));
            }
            a.record(&key, RouteUpdate::withdraw(100, prefix));
        }
        a
    }

    #[test]
    fn one_pass_drives_multiple_sinks() {
        let a = archive();
        let out = PipelineBuilder::new(ArchiveSource::new(&a))
            .sink((CountsSink::default(), OverviewSink::default()))
            .run()
            .unwrap();
        let (counts, overview_sink) = out.sink;
        assert_eq!(counts.finish(), classify_archive(&a));
        assert_eq!(overview_sink.finish(), overview(&a));
        assert_eq!(out.stats.sessions, 6);
        assert_eq!(out.stats.updates, a.update_count() as u64);
        assert_eq!(out.stats.streams, 12, "2 prefixes × 6 sessions");
        assert!(out.stats.peak_state_bytes > 0);
    }

    #[test]
    fn update_only_sinks_skip_classifier_state() {
        let a = archive();
        let out = PipelineBuilder::new(ArchiveSource::new(&a))
            .sink(OverviewSink::default())
            .run()
            .unwrap();
        assert_eq!(out.stats.streams, 0, "no classifier state for update-only sinks");
        assert_eq!(out.sink.finish(), overview(&a));
    }

    fn collector_archive(collector: &str, peers: std::ops::Range<u32>) -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        for peer in peers {
            let key = SessionKey::new(
                collector,
                Asn(100 + peer),
                format!("10.0.{}.{}", peer / 250, peer % 250 + 1).parse().unwrap(),
            );
            for i in 0..8u64 {
                a.record(&key, RouteUpdate::announce(i, prefix, attrs("1 2 3", i as u16 % 4)));
            }
        }
        a
    }

    #[test]
    fn corpus_is_order_and_thread_count_independent() {
        let a = collector_archive("rrc00", 0..4);
        let b = collector_archive("rrc01", 2..8);
        let c = collector_archive("route-views2", 5..6);
        let build = |order: &[usize]| {
            let archives = [&a, &b, &c];
            let names = ["rrc00", "rrc01", "route-views2"];
            let mut corpus = Corpus::new();
            for &i in order {
                corpus.push(names[i], ArchiveSource::new(archives[i])).unwrap();
            }
            corpus
        };
        let run = |order: &[usize], threads| {
            PipelineBuilder::collectors(build(order))
                .threads(threads)
                .sinks_for(|_: &str| CountsSink::default())
                .run()
                .unwrap()
        };
        let reference = run(&[0, 1, 2], 1);
        for order in [[2, 1, 0], [1, 0, 2]] {
            for threads in [1, 2, 7] {
                let out = run(&order, threads);
                let names: Vec<&String> = out.per_collector.iter().map(|(n, _)| n).collect();
                assert_eq!(names, vec!["route-views2", "rrc00", "rrc01"], "name-sorted");
                assert_eq!(out.combined.finish(), reference.combined.finish());
                assert_eq!(out.stats, reference.stats);
                for ((n1, o1), (n2, o2)) in out.per_collector.iter().zip(&reference.per_collector) {
                    assert_eq!(n1, n2);
                    assert_eq!(o1.sink.finish(), o2.sink.finish());
                    assert_eq!(o1.stats, o2.stats);
                }
            }
        }
    }

    #[test]
    fn single_member_corpus_equals_plain_pipeline() {
        let a = collector_archive("rrc00", 0..5);
        let direct =
            PipelineBuilder::new(ArchiveSource::new(&a)).sink(CountsSink::default()).run().unwrap();
        let corpus = Corpus::new().with("rrc00", ArchiveSource::new(&a)).unwrap();
        let out = PipelineBuilder::collectors(corpus)
            .sinks_for(|_: &str| CountsSink::default())
            .run()
            .unwrap();
        assert_eq!(out.per_collector.len(), 1);
        assert_eq!(out.combined.finish(), direct.sink.finish());
        assert_eq!(out.stats, direct.stats);
        assert_eq!(out.collector("rrc00").unwrap().stats, direct.stats);
    }

    #[test]
    fn corpus_combined_merges_in_name_order() {
        // Overview distinct-count merges must union across collectors.
        let a = collector_archive("rrc00", 0..3);
        let b = collector_archive("rrc01", 0..3);
        let corpus = Corpus::new()
            .with("rrc00", ArchiveSource::new(&a))
            .unwrap()
            .with("rrc01", ArchiveSource::new(&b))
            .unwrap();
        let out = PipelineBuilder::collectors(corpus)
            .threads(2)
            .sinks_for(|_: &str| OverviewSink::default())
            .run()
            .unwrap();
        let merged = out.combined.finish();
        assert_eq!(merged.sessions, 6, "3 sessions per collector, keys disjoint");
        assert_eq!(merged.peers, 3, "same peer ASes union across collectors");
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let empty = PipelineBuilder::collectors(Corpus::new());
        assert!(empty.sinks_for(|_: &str| CountsSink::default()).run().is_err());
    }

    #[test]
    fn failing_member_reports_smallest_name() {
        struct Failing;
        impl UpdateSource for Failing {
            fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
                Err(SourceError::Other("boom".into()))
            }
        }
        let corpus = Corpus::new().with("rrc07", Failing).unwrap().with("rrc03", Failing).unwrap();
        let err = PipelineBuilder::collectors(corpus)
            .threads(2)
            .sinks_for(|_: &str| CountsSink::default())
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("rrc03"), "deterministic failure: {err}");
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = PipelineStats {
            sessions: 1,
            updates: 10,
            kept: 9,
            streams: 2,
            state_bytes: 100,
            peak_state_bytes: 120,
        };
        a.merge(PipelineStats {
            sessions: 2,
            updates: 5,
            kept: 5,
            streams: 1,
            state_bytes: 50,
            peak_state_bytes: 60,
        });
        assert_eq!(a.sessions, 3);
        assert_eq!(a.updates, 15);
        assert_eq!(a.peak_state_bytes, 180);
    }

    #[test]
    fn builder_shutdown_drains_bounded_sources() {
        // A triggered flag never ends a run by itself — only the source's
        // end-of-stream does — so every item must still be consumed.
        let a = archive();
        let stop = ShutdownFlag::new();
        stop.trigger();
        let out = PipelineBuilder::new(ArchiveSource::new(&a))
            .sink(CountsSink::default())
            .shutdown(&stop)
            .run()
            .unwrap();
        assert_eq!(out.stats.updates, a.update_count() as u64);
        assert_eq!(out.sink.finish(), classify_archive(&a));
    }

    #[test]
    fn counts_merge_is_typecounts_merge() {
        let mut a = TypeCounts { pc: 1, ..Default::default() };
        Merge::merge(&mut a, TypeCounts { pc: 2, nn: 3, ..Default::default() });
        assert_eq!(a.pc, 3);
        assert_eq!(a.nn, 3);
    }
}
