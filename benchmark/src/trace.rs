//! Tracing from outside: spans around the calls into each layer.
//!
//! The program under test is not edited, so every span is taken by a
//! benchmark-owned wrapper that implements one of the program's public
//! traits ([`UpdateSource`], [`Stage`], [`AnalysisSink`]) around the
//! real object, or by a stage-replay loop in a workload. Wrappers time
//! one call in [`SAMPLE_EVERY`] and scale, so a traced pass stays close
//! to an untraced one (`trace.overhead_pct` says how close). Spans stay
//! in memory and are written once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use kcc_bgp_types::RouteUpdate;
use kcc_collector::{PeerMeta, SessionKey, SourceError, SourceItem, UpdateSource};
use kcc_core::pipeline::{AnalysisSink, Stage};
use kcc_core::ClassifiedEvent;

use crate::json::quote;

/// Wrappers time one call in this many.
pub const SAMPLE_EVERY: u32 = 16;

/// Sampled timing of one call site: about one call in `every` is
/// clocked, the rest only counted. `every == 0` counts and never clocks.
///
/// The gap between samples is drawn uniformly from `1..2*every`, not
/// fixed: call sequences are periodic (a sink sees `on_update`,
/// `on_event`, `on_update`, …), and a fixed even stride would clock the
/// same phase of the period every time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    every: u32,
    until_sample: u32,
    rng: u32,
    /// Calls seen.
    pub calls: u64,
    /// Calls clocked.
    pub sampled: u64,
    /// Nanoseconds across the clocked calls, clock cost included.
    pub raw_ns: u64,
}

impl Sampled {
    /// Clocks about one call in `every` (0 = never).
    pub fn every(every: u32) -> Self {
        Sampled { every, until_sample: every, rng: 0x9E37_79B9, ..Default::default() }
    }

    /// Runs `f`, clocking it if this call is a sample.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if self.every == 0 {
            return f();
        }
        self.until_sample -= 1;
        if self.until_sample > 0 {
            return f();
        }
        // xorshift32: cheap, and only stepped once per sample.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        self.until_sample = 1 + self.rng % (2 * self.every - 1);
        let start = Instant::now();
        let out = f();
        self.raw_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        out
    }

    /// Estimated nanoseconds across *all* calls: the sampled mean less
    /// the clock's own cost, times the call count.
    pub fn busy_ns(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = (self.raw_ns as f64 / self.sampled as f64 - clock_ns).max(0.0);
        per_call * self.calls as f64
    }
}

/// What one `Instant::now()` + `elapsed()` pair costs, in nanoseconds:
/// the median of many empty measurements. Subtracted from every sampled
/// call so that cheap calls (a counting sink is ~10 ns) are not
/// reported as the cost of reading the clock.
pub fn clock_cost_ns() -> f64 {
    let mut costs: Vec<f64> = (0..2_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

/// [`UpdateSource`] wrapper: spans `next_item`.
#[derive(Debug)]
pub struct TimedSource<S> {
    /// The wrapped source.
    pub inner: S,
    /// Timing of `next_item`.
    pub next: Sampled,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, sampling one call in `every`.
    pub fn new(inner: S, every: u32) -> Self {
        TimedSource { inner, next: Sampled::every(every) }
    }
}

impl<S: UpdateSource> UpdateSource for TimedSource<S> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        let inner = &mut self.inner;
        self.next.time(|| inner.next_item())
    }
}

/// [`Stage`] wrapper: spans `process` and counts what it drops.
#[derive(Debug)]
pub struct TimedStage<St> {
    /// The wrapped stage.
    pub inner: St,
    /// Timing of `process`.
    pub process: Sampled,
    /// Updates the stage dropped.
    pub dropped: u64,
}

impl<St> TimedStage<St> {
    /// Wraps `inner`, sampling one call in `every`.
    pub fn new(inner: St, every: u32) -> Self {
        TimedStage { inner, process: Sampled::every(every), dropped: 0 }
    }
}

impl<St: Stage> Stage for TimedStage<St> {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.inner.on_session(meta);
    }

    fn process(&mut self, meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate> {
        let inner = &mut self.inner;
        let out = self.process.time(|| inner.process(meta, update));
        self.dropped += u64::from(out.is_none());
        out
    }
}

/// [`AnalysisSink`] wrapper: spans `on_update` and `on_event` under one
/// timer (a sink's cost per update is the sum of its callbacks).
#[derive(Debug)]
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Timing of both callbacks.
    pub callbacks: Sampled,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`, sampling one call in `every`.
    pub fn new(inner: S, every: u32) -> Self {
        TimedSink { inner, callbacks: Sampled::every(every) }
    }
}

impl<S: AnalysisSink> AnalysisSink for TimedSink<S> {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.inner.on_session(meta);
    }

    fn on_update(&mut self, session: &SessionKey, update: &RouteUpdate) {
        let inner = &mut self.inner;
        self.callbacks.time(|| inner.on_update(session, update));
    }

    fn on_event(&mut self, session: &SessionKey, event: &ClassifiedEvent) {
        let inner = &mut self.inner;
        self.callbacks.time(|| inner.on_event(session, event));
    }

    fn wants_events(&self) -> bool {
        self.inner.wants_events()
    }
}

/// One recorded span. `busy_ns` is the time inside the span's own calls
/// (for a sampled wrapper: the scaled estimate; for a replay loop: the
/// whole interval), `count` the units of work it covered.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was spanned, e.g. `MrtSource::next_item`.
    pub name: &'static str,
    /// The layer (crate) the time belongs to.
    pub layer: &'static str,
    /// Traced pass number (0-based); replays after the passes use the
    /// last pass's number.
    pub pass: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Name of the span this one ran inside (`None` for a root).
    pub parent: Option<&'static str>,
    /// Nanoseconds inside the spanned calls.
    pub busy_ns: f64,
    /// Units of work (updates, records, events, items) covered.
    pub count: u64,
}

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Cost of one clock read pair, subtracted from sampled calls.
    pub clock_ns: f64,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), clock_ns: clock_cost_ns(), spans: Vec::new() }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stores a finished span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Stores the root span of traced pass `pass` over `count` units.
    pub fn pass(&mut self, pass: u32, window: (u64, u64), count: u64) -> f64 {
        let busy_ns = (window.1 - window.0) as f64;
        self.push(Span {
            name: "pass",
            layer: "harness",
            pass,
            start_ns: window.0,
            end_ns: window.1,
            parent: None,
            busy_ns,
            count,
        });
        busy_ns
    }

    /// Times `f` whole as one span over `count` units (known only after
    /// `f` ran, so `f` returns it beside its value).
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        pass: u32,
        parent: Option<&'static str>,
        f: impl FnOnce() -> (u64, T),
    ) -> (f64, T) {
        let start_ns = self.now_ns();
        let (count, out) = f();
        let end_ns = self.now_ns();
        let busy_ns = (end_ns - start_ns) as f64;
        self.push(Span { name, layer, pass, start_ns, end_ns, parent, busy_ns, count });
        (busy_ns, out)
    }

    /// Stores the aggregate span of a sampled wrapper that was live over
    /// `[start_ns, end_ns]`.
    pub fn sampled(
        &mut self,
        name: &'static str,
        layer: &'static str,
        pass: u32,
        parent: &'static str,
        window: (u64, u64),
        timing: &Sampled,
    ) -> f64 {
        let busy_ns = timing.busy_ns(self.clock_ns);
        self.push(Span {
            name,
            layer,
            pass,
            start_ns: window.0,
            end_ns: window.1,
            parent: Some(parent),
            busy_ns,
            count: timing.calls,
        });
        busy_ns
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_owned(), quote);
            let _ = writeln!(
                out,
                "{{\"name\":{},\"layer\":{},\"pass\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"busy_ns\":{:.0},\"count\":{}}}",
                quote(s.name),
                quote(s.layer),
                s.pass,
                s.start_ns,
                s.end_ns,
                parent,
                s.busy_ns,
                s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_clocks_one_call_in_n_and_scales() {
        let mut s = Sampled::every(4);
        for _ in 0..16_000 {
            s.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(s.calls, 16_000);
        assert!((3_600..=4_400).contains(&s.sampled), "{} samples", s.sampled);
        // 4 samples of 100 ns with a 20 ns clock → 80 ns × 16 calls.
        (s.calls, s.sampled, s.raw_ns) = (16, 4, 400);
        assert_eq!(s.busy_ns(20.0), 1_280.0);
        let mut off = Sampled::every(0);
        off.time(|| ());
        assert_eq!((off.calls, off.sampled, off.busy_ns(20.0)), (1, 0, 0.0));
    }

    /// A sink's callbacks alternate; a fixed stride of 16 would only ever
    /// clock one of the two.
    #[test]
    fn sampling_does_not_lock_onto_a_period_of_two() {
        let mut s = Sampled::every(16);
        let (mut even, mut odd) = (0u32, 0u32);
        for call in 0..100_000u32 {
            let before = s.sampled;
            s.time(|| ());
            if s.sampled > before {
                *(if call % 2 == 0 { &mut even } else { &mut odd }) += 1;
            }
        }
        assert!(even > 2_000 && odd > 2_000, "even {even}, odd {odd}");
    }

    #[test]
    fn spans_serialise_as_json_lines() {
        let mut rec = Recorder::default();
        let (_, out) = rec.replay("loop", "bgp-wire", 1, Some("pass"), || (3, "x"));
        assert_eq!(out, "x");
        let text = rec.to_jsonl();
        let line = crate::json::Json::parse(text.trim()).unwrap();
        assert_eq!(line.get("layer").and_then(crate::json::Json::as_str), Some("bgp-wire"));
        assert_eq!(line.get("count").and_then(crate::json::Json::as_f64), Some(3.0));
        assert_eq!(line.get("parent").and_then(crate::json::Json::as_str), Some("pass"));
    }
}
