//! CommunityWatch — the always-on detection service over any update
//! source (ROADMAP item 2; the generalization of §7 the CommunityWatch
//! line of related work proposes).
//!
//! [`WatchSink`] is an ordinary [`AnalysisSink`], so the same sink runs
//! over a live daemon feed (`PipelineBuilder … .run()` on a
//! `LiveSource`), a corpus replay, or a one-archive batch pass.
//! It maintains **sliding-window baselines** — per-community
//! announce/withdraw rates and session fan-out, per-prefix origin and
//! on-path presence, per-collector activity, and the incremental
//! cross-collector [`AgreementMatrix`] (per-window deltas, no whole-run
//! recompute) — scores deviations online, and emits typed [`Alert`]s:
//!
//! * [`AlertKind::PrefixHijack`] — a prefix announced by an origin AS
//!   outside its learned origin set,
//! * [`AlertKind::RouteLeak`] — a new transit AS on a vantage's path
//!   while the origin is unchanged,
//! * [`AlertKind::BlackholeInjection`] / [`AlertKind::NovelCommunity`] —
//!   the §7 profile checks, when a trained
//!   [`CommunityProfiler`] is attached,
//! * [`AlertKind::BaselineShift`] — windowed announce-rate / fan-out /
//!   distinct-attribute deviations,
//! * [`AlertKind::CollectorOutage`] — a collector silent for consecutive
//!   windows while other collectors stay active.
//!
//! Every observation is accumulated in mergeable, order-insensitive
//! structures, all window-replay detection happens at
//! [`finish`](WatchSink::finish), and [`sort_alerts`] is a total order,
//! so the alert list is **identical for any thread count or collector
//! order**. The §7 batch question — "which of today's communities break
//! yesterday's profile?" — is this same sink with a trained profiler and
//! `window_us: u64::MAX`, the whole day as one window;
//! `tests/watch_oracle.rs` holds the sink, in that shape too, to a
//! naive restatement of all of the above.
//!
//! # State
//!
//! The per-update path touches integers only; names and keys are cloned
//! into an emitted [`Alert`] and nowhere else.
//!
//! 1. **Id tables.** A session key becomes a dense session id on first
//!    sight (the sink interns for itself: `on_update` may arrive without
//!    `on_session`), each distinct community attribute gets an id by
//!    value (equal ids iff equal sets, never a bare hash), and
//!    everything a session owns sits under its id: its collector's id,
//!    its streams, and the `(community, window)`s it announced in.
//!    Updates come in runs of one session, so that is the part of the
//!    state that stays in cache.
//! 2. **One stream slot** per prefix of a session: the last announcement
//!    as an `Arc` (a withdrawal carries no attributes and counts against
//!    its communities) and the open distinct-attribute window —
//!    attribute ids plus the stream's training profile, read from the
//!    profiler once.
//! 3. **Three flat window maps**, each onto a window-sorted `Vec` whose
//!    last-touched slot is tried first: per collector, the windows it
//!    was active in; per community, its agreement row (first window per
//!    collector id) and per-window announce/withdraw counts and fan-out
//!    (a count — the sessions behind it are the sets of 1.); per prefix,
//!    each window's origins and, per `(collector id, AS)` packed into an
//!    integer, the *first* window that showed the AS on a path — the
//!    only one the leak replay ever judges.
//!
//! An announcement with *c* classic communities and *p* path ASes costs
//! 4 + 2*c* hash probes — session, stream, attribute, prefix; per
//! community its state and the session's fan-out set — plus *c* probes
//! of the profiler's value set, *p* binary searches among the prefix's
//! on-path cells and *c* + 2 window-slot lookups. A withdrawal costs the
//! session and stream probes and, per community of the stream's last
//! announcement, one probe and one slot.
//!
//! # Why no window is retired before `finish`
//!
//! Closing windows as the clock advances would bound the three window
//! maps, but there is no clock to trust: an archive or MRT replay feeds
//! session after session, so time runs backwards once per session, and
//! the merge contract (any collector order, any thread count, the same
//! bytes) lets a later sink bring *earlier* windows. A window dropped
//! early would change what its successors are judged against. Bounded
//! state for a daemon that never finishes needs the source to promise a
//! low-water mark below which no update can arrive; no `UpdateSource`
//! does today.

use std::collections::BTreeMap;
use std::sync::Arc;

use kcc_bgp_types::{
    Asn, Community, FastHashMap, FastHashSet, MessageKind, PathAttributes, Prefix, RouteUpdate,
};
use kcc_collector::{PeerMeta, SessionKey};
use kcc_obs::{Counter, Gauge, Registry};

use crate::alert::{sort_alerts, Alert, AlertKind, ShiftMetric};
use crate::anomaly::{
    burst_check, point_checks, AnomalyConfig, AttrInterner, CommunityProfiler, SessionTable,
    StreamProfile,
};
use crate::corpus::AgreementMatrix;
use crate::pipeline::{AnalysisSink, Merge};

/// Detection-service tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchConfig {
    /// Detection window length in µs (default 15 minutes — the paper's
    /// beacon phase length). `u64::MAX` makes the whole run one window.
    pub window_us: u64,
    /// Windows a baseline must observe before deviations are scored
    /// (per prefix for path checks, per community for rate checks).
    pub learn_windows: u64,
    /// The §7 profile-check tuning (used when a trained profiler is
    /// attached with [`WatchSink::with_profile`]).
    pub anomaly: AnomalyConfig,
    /// Rate/fan-out shift factor: observed × windows > factor × sum.
    pub rate_factor: u64,
    /// Minimum observed rate (or fan-out) before a shift can fire.
    pub rate_min: u64,
    /// Consecutive silent windows (while others are active) before a
    /// collector outage fires.
    pub outage_windows: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            window_us: 900_000_000,
            learn_windows: 2,
            anomaly: AnomalyConfig::default(),
            rate_factor: 8,
            rate_min: 16,
            outage_windows: 2,
        }
    }
}

/// The earliest sighting of something in a window.
#[derive(Debug, Clone, Copy)]
struct Sighting {
    time_us: u64,
    session: u32,
}

impl Sighting {
    /// Strictly earlier than `other`. Ties on time break on the real
    /// session keys — ids only record a sink's arrival order — so merges
    /// are order-insensitive.
    fn before(self, other: Sighting, sessions: &SessionTable) -> bool {
        self.time_us < other.time_us
            || (self.time_us == other.time_us
                && self.session != other.session
                && sessions.key(self.session) < sessions.key(other.session))
    }
}

/// One key's windows, ascending by window id. A session's updates are
/// time-ordered, so the slot touched last is tried first; anything else
/// (the next window, another session starting over, a merge) is a
/// binary search and, for a new window, an insert.
#[derive(Debug, Clone)]
struct Windows<W> {
    slots: Vec<(u64, W)>,
    last: u32,
}

impl<W> Default for Windows<W> {
    fn default() -> Self {
        Windows { slots: Vec::new(), last: 0 }
    }
}

impl<W: Default> Windows<W> {
    fn at(&mut self, window: u64) -> &mut W {
        let last = self.last as usize;
        let i = match self.slots.get(last) {
            Some(&(w, _)) if w == window => last,
            _ => match self.slots.binary_search_by_key(&window, |slot| slot.0) {
                Ok(i) => i,
                Err(i) => {
                    self.slots.insert(i, (window, W::default()));
                    i
                }
            },
        };
        self.last = i as u32;
        &mut self.slots[i].1
    }
}

/// One stream's slot.
#[derive(Debug, Clone, Default)]
struct StreamState {
    /// The last announcement: a withdrawal carries no attributes and
    /// counts against these communities.
    last: Option<Arc<PathAttributes>>,
    /// The open distinct-attribute window, kept while a profiler is
    /// attached.
    open: Option<OpenWindow>,
}

#[derive(Debug, Clone)]
struct OpenWindow {
    window: u64,
    first_us: u64,
    /// The stream's training profile, read once at its first sight.
    trained: StreamProfile,
    /// [`AttrInterner`] ids of the distinct attributes seen, ascending
    /// (a new attribute has the highest id yet, so it lands at the end).
    attrs: Vec<u32>,
}

/// The origins announced for a prefix in one window, with the earliest
/// sighting of each. Nearly always exactly one, which stays inline.
#[derive(Debug, Clone, Default)]
struct Origins {
    first: Option<(Asn, Sighting)>,
    more: Vec<(Asn, Sighting)>,
}

impl Origins {
    fn see(&mut self, origin: Asn, seen: Sighting, sessions: &SessionTable) {
        let known = self.first.iter_mut().chain(&mut self.more).find(|o| o.0 == origin);
        if let Some(known) = known {
            if seen.before(known.1, sessions) {
                known.1 = seen;
            }
        } else if self.first.is_none() {
            self.first = Some((origin, seen));
        } else {
            self.more.push((origin, seen));
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(Asn, Sighting)> {
        self.first.iter().chain(&self.more)
    }
}

/// An AS on the path of a prefix as one collector vantage sees it. The
/// replay only ever judges a vantage's on-path AS in the first window
/// that shows it (from then on it is learned), so that is all that is
/// kept: the first window, the earliest sighting inside it and the
/// origin announced at that sighting.
#[derive(Debug, Clone, Copy)]
struct OnPath {
    /// `(collector id, AS)`, see [`vantage_cell`].
    cell: u64,
    window: u64,
    seen: Sighting,
    origin: Asn,
}

/// `(collector id, on-path AS)` as one integer.
fn vantage_cell(collector: u32, asn: Asn) -> u64 {
    u64::from(collector) << 32 | u64::from(asn.value())
}

/// The `(collector id, on-path AS)` behind a [`vantage_cell`].
fn cell_vantage(cell: u64) -> (u32, Asn) {
    ((cell >> 32) as u32, Asn(cell as u32))
}

/// Everything kept per prefix.
#[derive(Debug, Clone, Default)]
struct PrefixState {
    /// The windows that announced it, with each window's origins.
    windows: Windows<Origins>,
    /// Ascending by cell.
    onpath: Vec<OnPath>,
}

impl PrefixState {
    /// Keeps the earlier of `new` and what is known for its cell:
    /// earlier window first, then earlier sighting.
    fn see_onpath(&mut self, new: OnPath, sessions: &SessionTable) {
        match self.onpath.binary_search_by_key(&new.cell, |known| known.cell) {
            Ok(i) => {
                let known = &mut self.onpath[i];
                if new.window < known.window
                    || (new.window == known.window && new.seen.before(known.seen, sessions))
                {
                    *known = new;
                }
            }
            Err(i) => self.onpath.insert(i, new),
        }
    }
}

/// One community's counters in one window.
#[derive(Debug, Clone, Default)]
struct CommunityWindow {
    announces: u64,
    withdraws: u64,
    /// Distinct sessions that announced it: the members are in
    /// [`SessionState::announced`], this is their count.
    fanout: u64,
}

/// Everything kept per community.
#[derive(Debug, Clone, Default)]
struct CommunityState {
    /// Its [`AgreementMatrix`] row: per collector id that saw it, the
    /// first window in which it did.
    first_seen: Vec<(u32, u64)>,
    /// Per-window counters for the rate checks.
    windows: Windows<CommunityWindow>,
}

impl CommunityState {
    fn see_at(&mut self, collector: u32, window: u64) {
        match self.first_seen.iter_mut().find(|(c, _)| *c == collector) {
            Some((_, first)) => *first = (*first).min(window),
            None => self.first_seen.push((collector, window)),
        }
    }
}

/// Everything kept per session, under its dense id.
#[derive(Debug, Clone)]
struct SessionState {
    /// Its collector's index in [`WatchSink::collectors`].
    collector: u32,
    /// Its streams, by prefix.
    streams: FastHashMap<Prefix, StreamState>,
    /// The `(community, window)`s it announced in — the members behind
    /// every [`CommunityWindow::fanout`] count, in one table per session
    /// instead of a set per community window.
    announced: FastHashSet<(Community, u64)>,
}

/// One collector vantage.
#[derive(Debug, Clone)]
struct Collector {
    name: String,
    /// The windows in which it fed any update.
    active: Windows<()>,
}

/// What a watch run concluded.
#[derive(Debug, Clone)]
pub struct WatchReport {
    /// Every alert, in the canonical [`Alert::sort_key`] order.
    pub alerts: Vec<Alert>,
    /// Updates observed.
    pub updates: u64,
    /// Distinct `(session, prefix)` streams with profile state.
    pub streams: u64,
    /// Distinct detection windows that saw any activity.
    pub windows: u64,
    /// The incremental cross-collector presence/agreement matrix at end
    /// of run ([`AgreementMatrix::window_delta`] reads per-window
    /// changes back out).
    pub matrix: AgreementMatrix,
}

impl WatchReport {
    /// `(distinct communities, unanimous, disputed)` across collectors.
    pub fn agreement_summary(&self) -> (usize, usize, usize) {
        self.matrix.summary()
    }

    /// Alert counts per kind label, in label order.
    pub fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for a in &self.alerts {
            *counts.entry(a.kind.label()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Registers this report's figures in `registry`: alerts by
    /// kind/severity (`kcc_watch_alerts_total`), plus updates, streams
    /// and windows. Deterministic: the same report always adds the same
    /// counts, regardless of how the run was split across collectors.
    pub fn export_metrics(&self, registry: &Registry) {
        let mut counts: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
        for a in &self.alerts {
            *counts.entry((a.kind.label(), a.severity.label())).or_insert(0) += 1;
        }
        for ((kind, severity), n) in counts {
            registry
                .counter_with("kcc_watch_alerts_total", &[("kind", kind), ("severity", severity)])
                .add(n);
        }
        registry.counter("kcc_watch_updates_total").add(self.updates);
        registry.gauge("kcc_watch_streams").set(self.streams as i64);
        registry.gauge("kcc_watch_windows").set(self.windows as i64);
    }
}

/// Live metric handles a [`WatchSink`] updates as it observes
/// ([`WatchSink::with_metrics`]). Registration happens once up front;
/// the per-update cost is a few relaxed atomic ops.
#[derive(Debug, Clone)]
struct WatchMetrics {
    registry: Arc<Registry>,
    updates: Arc<Counter>,
    point_alerts: Arc<Counter>,
    window_lag: Arc<Gauge>,
    baselines: Arc<Gauge>,
}

/// The always-on detection sink (see the module docs). Feed it through
/// any pipeline shape; call [`finish`](WatchSink::finish) for the
/// [`WatchReport`], or [`poll_new`](WatchSink::poll_new) between updates
/// when driving the sink by hand, to stream point alerts as they fire.
#[derive(Debug, Clone)]
pub struct WatchSink {
    cfg: WatchConfig,
    profiler: Option<Arc<CommunityProfiler>>,
    alerts: Vec<Alert>,
    polled: usize,
    sessions: SessionTable,
    /// By session id.
    session_state: Vec<SessionState>,
    collectors: Vec<Collector>,
    attrs: AttrInterner,
    prefixes: FastHashMap<Prefix, PrefixState>,
    communities: FastHashMap<Community, CommunityState>,
    updates: u64,
    metrics: Option<WatchMetrics>,
}

impl WatchSink {
    /// A watch sink without profile checks (attach a trained profiler
    /// with [`with_profile`](WatchSink::with_profile) to enable them).
    pub fn new(cfg: WatchConfig) -> Self {
        WatchSink {
            cfg,
            profiler: None,
            alerts: Vec::new(),
            polled: 0,
            sessions: SessionTable::default(),
            session_state: Vec::new(),
            collectors: Vec::new(),
            attrs: AttrInterner::default(),
            prefixes: FastHashMap::default(),
            communities: FastHashMap::default(),
            updates: 0,
            metrics: None,
        }
    }

    /// Attaches live metrics: per-update counters, streaming point
    /// alerts, the window-lag gauge (µs into the current detection
    /// window) and the learned-baseline count, all registered in
    /// `registry`. [`finish`](WatchSink::finish) additionally exports
    /// the final report via [`WatchReport::export_metrics`].
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(WatchMetrics {
            updates: registry.counter("kcc_watch_updates_seen_total"),
            point_alerts: registry.counter("kcc_watch_point_alerts_total"),
            window_lag: registry.gauge("kcc_watch_window_lag_us"),
            baselines: registry.gauge("kcc_watch_baselines"),
            registry,
        });
        self
    }

    /// Attaches a trained [`CommunityProfiler`], enabling the §7 point
    /// checks and per-window distinct-attribute bursts.
    ///
    /// # Panics
    /// If the profiler was never trained.
    pub fn with_profile(mut self, profiler: Arc<CommunityProfiler>) -> Self {
        assert!(profiler.is_trained(), "profiler must be trained before detection");
        self.profiler = Some(profiler);
        self
    }

    fn window_of(&self, time_us: u64) -> u64 {
        time_us / self.cfg.window_us.max(1)
    }

    /// The alerts that streamed since the previous `poll_new` call —
    /// point alerts fire inline; window-replay alerts (hijack, leak,
    /// rate, outage) only appear in [`finish`](WatchSink::finish).
    pub fn poll_new(&mut self) -> &[Alert] {
        let start = self.polled.min(self.alerts.len());
        self.polled = self.alerts.len();
        &self.alerts[start..]
    }

    /// The id of a collector, registering it on first sight.
    fn collector(&mut self, name: &str) -> u32 {
        let known = self.collectors.iter().position(|c| c.name == name);
        known.unwrap_or_else(|| {
            self.collectors.push(Collector { name: name.to_owned(), active: Windows::default() });
            self.collectors.len() - 1
        }) as u32
    }

    /// The id of a session, registering it (and its collector) on first
    /// sight — `on_update` may arrive without a prior `on_session`.
    fn session(&mut self, key: &SessionKey) -> u32 {
        let id = self.sessions.intern(key);
        if id as usize == self.session_state.len() {
            let collector = self.collector(&key.collector);
            self.session_state.push(SessionState {
                collector,
                streams: FastHashMap::default(),
                announced: FastHashSet::default(),
            });
        }
        id
    }

    /// Per-prefix hijack / route-leak detection: replay the prefix's
    /// windows in ascending order, learning for
    /// [`learn_windows`](WatchConfig::learn_windows) observed windows,
    /// then flag novel origins (hijack) and novel per-vantage on-path
    /// ASes whose announced origin was already learned (leak). Each
    /// window's observations count as learned afterwards, so a
    /// deviation alerts once — in the first window that shows it.
    fn path_alerts(&self, alerts: &mut Vec<Alert>) {
        // Per prefix: each origin with the first window announcing it,
        // ascending by AS.
        let mut learned: Vec<(Asn, u64)> = Vec::new();
        for (prefix, state) in &self.prefixes {
            learned.clear();
            let windows = &state.windows.slots;
            let learning = |observed: usize| (observed as u64) < self.cfg.learn_windows;
            for (observed, (w, origins)) in windows.iter().enumerate() {
                // Judge the whole window against the windows before it,
                // then learn it.
                let before = learned.len();
                for (origin, s) in origins.iter() {
                    if learned[..before].binary_search_by_key(origin, |l| l.0).is_ok() {
                        continue;
                    }
                    learned.push((*origin, *w));
                    if !learning(observed) {
                        alerts.push(Alert::new(
                            s.time_us,
                            Some(self.sessions.key(s.session).clone()),
                            Some(*prefix),
                            AlertKind::PrefixHijack {
                                origin: *origin,
                                expected: learned[..before].iter().map(|l| l.0).collect(),
                            },
                        ));
                    }
                }
                if learned.len() > before {
                    learned.sort_unstable();
                }
            }
            for on in &state.onpath {
                let (_, asn) = cell_vantage(on.cell);
                let observed = windows
                    .binary_search_by_key(&on.window, |slot| slot.0)
                    .expect("an on-path sighting marks its window");
                let origin_learned = learned
                    .binary_search_by_key(&on.origin, |l| l.0)
                    .is_ok_and(|i| learned[i].1 < on.window);
                if !learning(observed)
                    && origin_learned
                    && !windows[observed].1.iter().any(|o| o.0 == asn)
                {
                    alerts.push(Alert::new(
                        on.seen.time_us,
                        Some(self.sessions.key(on.seen.session).clone()),
                        Some(*prefix),
                        AlertKind::RouteLeak { via: asn, origin: on.origin },
                    ));
                }
            }
        }
    }

    /// Per-community announce-rate and session-fan-out shifts against
    /// the running mean of previously observed windows.
    fn rate_alerts(&self, alerts: &mut Vec<Alert>) {
        for (community, state) in &self.communities {
            let mut sum_announces = 0u64;
            let mut sum_fanout = 0u64;
            for (n, (w, cw)) in state.windows.slots.iter().enumerate() {
                let n = n as u64;
                let fanout = cw.fanout;
                if n >= self.cfg.learn_windows {
                    let at = w.saturating_mul(self.cfg.window_us);
                    let mut shift = |metric, observed, sum| {
                        alerts.push(Alert::new(
                            at,
                            None,
                            None,
                            AlertKind::BaselineShift {
                                metric,
                                community: Some(*community),
                                observed,
                                baseline: sum / n,
                            },
                        ));
                    };
                    if cw.announces >= self.cfg.rate_min
                        && cw.announces * n > self.cfg.rate_factor * sum_announces
                    {
                        shift(ShiftMetric::AnnounceRate, cw.announces, sum_announces);
                    }
                    if fanout >= self.cfg.rate_min && fanout * n > self.cfg.rate_factor * sum_fanout
                    {
                        shift(ShiftMetric::SessionFanout, fanout, sum_fanout);
                    }
                }
                sum_announces += cw.announces;
                sum_fanout += fanout;
            }
        }
    }

    /// Per-collector outage runs: consecutive *globally active* windows
    /// (`active`, ascending; from the collector's first active window
    /// on) in which this collector was silent while some other
    /// collector was not.
    fn outage_alerts(&self, active: &[u64], alerts: &mut Vec<Alert>) {
        for collector in &self.collectors {
            let mut own = collector.active.slots.iter().map(|slot| slot.0).peekable();
            let Some(&first) = own.peek() else { continue };
            let mut run: Option<(u64, u64)> = None;
            let mut flush = |run: Option<(u64, u64)>| {
                if let Some((start, len)) = run.filter(|r| r.1 >= self.cfg.outage_windows) {
                    alerts.push(Alert::new(
                        start.saturating_mul(self.cfg.window_us),
                        None,
                        None,
                        AlertKind::CollectorOutage {
                            collector: collector.name.clone(),
                            silent_windows: len,
                        },
                    ));
                }
            };
            for &w in &active[active.partition_point(|&w| w < first)..] {
                if own.next_if_eq(&w).is_some() {
                    flush(run.take());
                } else {
                    run.get_or_insert((w, 0)).1 += 1;
                }
            }
            flush(run);
        }
    }

    /// The public matrix, built once: collector ids become columns in
    /// name order.
    fn matrix(&self) -> AgreementMatrix {
        let mut by_name: Vec<u32> = (0..self.collectors.len() as u32).collect();
        by_name.sort_unstable_by_key(|&id| &self.collectors[id as usize].name);
        let mut column = vec![0u32; by_name.len()];
        for (col, &id) in by_name.iter().enumerate() {
            column[id as usize] = col as u32;
        }
        let mut rows: Vec<(Community, Vec<(u32, u64)>)> = self
            .communities
            .iter()
            .map(|(community, state)| {
                let mut row: Vec<(u32, u64)> =
                    state.first_seen.iter().map(|&(id, w)| (column[id as usize], w)).collect();
                row.sort_unstable();
                (*community, row)
            })
            .collect();
        rows.sort_unstable_by_key(|row| row.0);
        let names = by_name.iter().map(|&id| self.collectors[id as usize].name.clone()).collect();
        AgreementMatrix::from_rows(names, rows)
    }

    /// Closes open windows, runs the window-replay detections, and
    /// returns the sorted report. The detectors walk hash maps, so they
    /// emit in no particular order; [`sort_alerts`] is a total order and
    /// the report shows only that.
    pub fn finish(mut self) -> WatchReport {
        let metrics = self.metrics.take();
        let mut alerts = std::mem::take(&mut self.alerts);
        let mut streams = 0u64;
        let judged = self.profiler.is_some();
        for (key, state) in self.sessions.keys().zip(&self.session_state) {
            for (prefix, stream) in &state.streams {
                let Some(open) = &stream.open else { continue };
                streams += 1;
                if judged {
                    alerts.extend(burst_check(
                        &self.cfg.anomaly,
                        open.trained,
                        key,
                        *prefix,
                        open.attrs.len(),
                        open.first_us,
                    ));
                }
            }
        }
        self.path_alerts(&mut alerts);
        self.rate_alerts(&mut alerts);
        let mut active: Vec<u64> =
            self.collectors.iter().flat_map(|c| c.active.slots.iter().map(|slot| slot.0)).collect();
        active.sort_unstable();
        active.dedup();
        self.outage_alerts(&active, &mut alerts);
        sort_alerts(&mut alerts);
        let report = WatchReport {
            alerts,
            updates: self.updates,
            streams,
            windows: active.len() as u64,
            matrix: self.matrix(),
        };
        if let Some(m) = &metrics {
            report.export_metrics(&m.registry);
        }
        report
    }
}

impl AnalysisSink for WatchSink {
    fn on_session(&mut self, meta: &PeerMeta) {
        // Register the collector column even before (or without) any
        // update: agreement and outage are judged against every known
        // vantage.
        self.session(&meta.key);
    }

    fn on_update(&mut self, key: &SessionKey, u: &RouteUpdate) {
        self.updates += 1;
        let w = self.window_of(u.time_us);
        let alerts_before = self.alerts.len();
        if let Some(m) = &self.metrics {
            m.updates.inc();
            m.window_lag.set(u.time_us.saturating_sub(w.saturating_mul(self.cfg.window_us)) as i64);
        }
        let session = self.session(key);
        let state = &mut self.session_state[session as usize];
        let collector = state.collector;
        self.collectors[collector as usize].active.at(w);

        let MessageKind::Announcement(attrs) = &u.kind else {
            // Withdrawals: attribute to the communities last announced
            // on this stream (withdrawals carry no attributes).
            let last = state.streams.get(&u.prefix).and_then(|s| s.last.as_ref());
            for c in last.into_iter().flat_map(|a| a.communities.iter_classic()) {
                self.communities.entry(*c).or_default().windows.at(w).withdraws += 1;
            }
            return;
        };

        // §7 profile checks (point alerts stream; bursts close per
        // stream window) and the announcement withdrawals count against.
        let stream = state.streams.entry(u.prefix).or_default();
        if let Some(profiler) = self.profiler.as_deref() {
            let open = stream.open.get_or_insert_with(|| OpenWindow {
                window: w,
                first_us: u.time_us,
                trained: profiler.stream(key, u.prefix),
                attrs: Vec::new(),
            });
            let anomaly = &self.cfg.anomaly;
            point_checks(
                profiler,
                anomaly,
                open.trained,
                key,
                u,
                &attrs.communities,
                &mut self.alerts,
            );
            if open.window != w {
                self.alerts.extend(burst_check(
                    anomaly,
                    open.trained,
                    key,
                    u.prefix,
                    open.attrs.len(),
                    open.first_us,
                ));
                open.window = w;
                open.first_us = u.time_us;
                open.attrs.clear();
            }
            let attr = self.attrs.intern(&attrs.communities);
            if let Err(i) = open.attrs.binary_search(&attr) {
                open.attrs.insert(i, attr);
            }
        }
        stream.last = Some(Arc::clone(attrs));

        // Per-prefix origin / on-path presence.
        if let Some(origin) = attrs.as_path.origin() {
            let seen = Sighting { time_us: u.time_us, session };
            let path = self.prefixes.entry(u.prefix).or_default();
            path.windows.at(w).see(origin, seen, &self.sessions);
            for asn in attrs.as_path.asns() {
                let cell = vantage_cell(collector, asn);
                path.see_onpath(OnPath { cell, window: w, seen, origin }, &self.sessions);
            }
        }

        // Per-community agreement row, rates and fan-out.
        for c in attrs.communities.iter_classic() {
            let community = self.communities.entry(*c).or_default();
            community.see_at(collector, w);
            let cw = community.windows.at(w);
            cw.announces += 1;
            cw.fanout += u64::from(state.announced.insert((*c, w)));
        }
        if let Some(m) = &self.metrics {
            let fired = self.alerts.len() - alerts_before;
            if fired > 0 {
                m.point_alerts.add(fired as u64);
            }
            m.baselines.set((self.prefixes.len() + self.communities.len()) as i64);
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for WatchSink {
    /// Folds `other` in, translating its collector, session and
    /// attribute ids through its tables into this sink's.
    fn merge(&mut self, mut other: Self) {
        self.alerts.append(&mut other.alerts);
        let sessions: Vec<u32> = other.sessions.keys().map(|key| self.session(key)).collect();
        let attrs = self.attrs.absorb(other.attrs);
        let mut collectors = Vec::with_capacity(other.collectors.len());
        for theirs in other.collectors {
            let id = self.collector(&theirs.name);
            collectors.push(id);
            for (w, ()) in theirs.active.slots {
                self.collectors[id as usize].active.at(w);
            }
        }
        let theirs = |s: Sighting| Sighting { session: sessions[s.session as usize], ..s };

        for (prefix, state) in other.prefixes {
            let mine = self.prefixes.entry(prefix).or_default();
            for (w, origins) in state.windows.slots {
                let m = mine.windows.at(w);
                for &(origin, s) in origins.iter() {
                    m.see(origin, theirs(s), &self.sessions);
                }
            }
            for on in state.onpath {
                let (collector, asn) = cell_vantage(on.cell);
                let cell = vantage_cell(collectors[collector as usize], asn);
                mine.see_onpath(OnPath { cell, seen: theirs(on.seen), ..on }, &self.sessions);
            }
        }
        for (community, state) in other.communities {
            let mine = self.communities.entry(community).or_default();
            for (collector, w) in state.first_seen {
                mine.see_at(collectors[collector as usize], w);
            }
            for (w, cw) in state.windows.slots {
                let m = mine.windows.at(w);
                m.announces += cw.announces;
                m.withdraws += cw.withdraws;
            }
        }
        // Streams are keyed by session: disjoint across collectors.
        for (session, state) in sessions.iter().zip(other.session_state) {
            let mine = &mut self.session_state[*session as usize];
            for (prefix, mut stream) in state.streams {
                if let Some(open) = &mut stream.open {
                    for id in &mut open.attrs {
                        *id = attrs[*id as usize];
                    }
                    open.attrs.sort_unstable();
                }
                let known = mine.streams.entry(prefix).or_default();
                known.last = stream.last.or(known.last.take());
                known.open = stream.open.or(known.open.take());
            }
            for (community, w) in state.announced {
                if mine.announced.insert((community, w)) {
                    // Its window was folded in just above.
                    self.communities.entry(community).or_default().windows.at(w).fanout += 1;
                }
            }
        }
        self.updates += other.updates;
        if self.metrics.is_none() {
            self.metrics = other.metrics;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use kcc_bgp_types::community::well_known::BLACKHOLE;
    use kcc_bgp_types::{CommunitySet, PathAttributes};
    use kcc_collector::{ArchiveSource, UpdateArchive};

    fn key_n(collector: &str, n: u32) -> SessionKey {
        SessionKey::new(collector, Asn(100 + n), format!("10.0.0.{}", n + 1).parse().unwrap())
    }

    fn prefix() -> Prefix {
        "84.205.64.0/24".parse().unwrap()
    }

    fn announce(t: u64, path: &str, comms: &[(u16, u16)]) -> RouteUpdate {
        let attrs = PathAttributes {
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        };
        RouteUpdate::announce(t, prefix(), attrs)
    }

    /// Window length used by the windowed tests (1 ms).
    const W: u64 = 1_000;

    fn cfg() -> WatchConfig {
        WatchConfig { window_us: W, learn_windows: 1, ..Default::default() }
    }

    fn run(archive: &UpdateArchive, cfg: WatchConfig) -> WatchReport {
        PipelineBuilder::new(ArchiveSource::new(archive))
            .sink(WatchSink::new(cfg))
            .run()
            .unwrap()
            .sink
            .finish()
    }

    #[test]
    fn windows_stay_ascending_for_any_touch_order() {
        let mut windows: Windows<u64> = Windows::default();
        // In order, a repeat, the next, a restart from the front (another
        // session's turn), a gap, and a window before every other.
        for w in [5, 5, 6, 7, 5, 6, 9, 8, 2, 2, 3] {
            *windows.at(w) += 1;
        }
        assert_eq!(windows.slots, [(2, 2), (3, 1), (5, 3), (6, 2), (7, 1), (8, 1), (9, 1)]);
    }

    #[test]
    fn equal_time_sightings_tie_break_on_the_session_key_not_on_arrival() {
        // Both sessions show the hijacker in the same microsecond. The
        // alert names the session with the smaller key whichever came
        // first (ids are handed out in arrival order).
        let (small, large) = (key_n("rrc00", 0), key_n("rrc00", 1));
        for arrival in [[&small, &large], [&large, &small]] {
            let mut sink = WatchSink::new(cfg());
            for k in arrival {
                sink.on_update(k, &announce(10, "100 200 900", &[]));
            }
            for k in arrival {
                sink.on_update(k, &announce(W + 10, "100 200 999", &[]));
            }
            let report = sink.finish();
            assert_eq!(report.alerts.len(), 1, "{:?}", report.alerts);
            assert_eq!(report.alerts[0].session.as_ref(), Some(&small));
        }
    }

    #[test]
    fn hijack_flagged_after_learning() {
        let mut a = UpdateArchive::new(0);
        let k = key_n("rrc00", 0);
        a.record(&k, announce(10, "100 200 900", &[]));
        a.record(&k, announce(W + 10, "100 200 900", &[])); // same origin: clean
        a.record(&k, announce(2 * W + 10, "100 200 999", &[])); // novel origin
        let report = run(&a, cfg());
        assert_eq!(report.alerts.len(), 1, "{:?}", report.alerts);
        let alert = &report.alerts[0];
        assert_eq!(
            alert.kind,
            AlertKind::PrefixHijack { origin: Asn(999), expected: vec![Asn(900)] }
        );
        assert_eq!(alert.time_us, 2 * W + 10);
        assert_eq!(alert.session.as_ref(), Some(&k));
    }

    #[test]
    fn hijack_alerts_once_then_folds_into_baseline() {
        let mut a = UpdateArchive::new(0);
        let k = key_n("rrc00", 0);
        a.record(&k, announce(10, "100 200 900", &[]));
        a.record(&k, announce(W + 10, "100 200 999", &[]));
        a.record(&k, announce(2 * W + 10, "100 200 999", &[])); // repeat: learned now
        let report = run(&a, cfg());
        assert_eq!(report.alerts.len(), 1);
    }

    #[test]
    fn route_leak_flagged_for_new_transit_with_learned_origin() {
        let mut a = UpdateArchive::new(0);
        let k = key_n("rrc00", 0);
        a.record(&k, announce(10, "100 200 900", &[]));
        a.record(&k, announce(W + 10, "100 777 900", &[])); // new transit, same origin
        let report = run(&a, cfg());
        assert_eq!(report.alerts.len(), 1, "{:?}", report.alerts);
        assert_eq!(report.alerts[0].kind, AlertKind::RouteLeak { via: Asn(777), origin: Asn(900) });
    }

    #[test]
    fn leak_is_per_vantage() {
        // rrc01 always saw 777 on path; rrc00 seeing it for the first
        // time is still a leak at rrc00's vantage.
        let mut a = UpdateArchive::new(0);
        a.record(&key_n("rrc01", 1), announce(10, "100 777 900", &[]));
        a.record(&key_n("rrc00", 0), announce(20, "100 200 900", &[]));
        a.record(&key_n("rrc01", 1), announce(W + 10, "100 777 900", &[]));
        a.record(&key_n("rrc00", 0), announce(W + 20, "100 777 900", &[]));
        let report = run(&a, cfg());
        let leaks: Vec<_> = report
            .alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::RouteLeak { .. }))
            .collect();
        assert_eq!(leaks.len(), 1, "{:?}", report.alerts);
        assert_eq!(leaks[0].session.as_ref().unwrap().collector, "rrc00");
    }

    #[test]
    fn announce_rate_shift_flagged() {
        let mut a = UpdateArchive::new(0);
        let k = key_n("rrc00", 0);
        for w in 0..2u64 {
            for i in 0..2u64 {
                a.record(&k, announce(w * W + i, "100 200 900", &[(3356, 1)]));
            }
        }
        for i in 0..40u64 {
            a.record(&k, announce(2 * W + i, "100 200 900", &[(3356, 1)]));
        }
        let c = WatchConfig { learn_windows: 2, ..cfg() };
        let report = run(&a, c);
        let shifts: Vec<_> = report
            .alerts
            .iter()
            .filter(|a| {
                matches!(a.kind, AlertKind::BaselineShift { metric: ShiftMetric::AnnounceRate, .. })
            })
            .collect();
        assert_eq!(shifts.len(), 1, "{:?}", report.alerts);
        assert_eq!(
            shifts[0].kind,
            AlertKind::BaselineShift {
                metric: ShiftMetric::AnnounceRate,
                community: Some(Community::from_parts(3356, 1)),
                observed: 40,
                baseline: 2,
            }
        );
        assert_eq!(shifts[0].time_us, 2 * W);
    }

    #[test]
    fn collector_outage_flagged_against_active_peers() {
        let mut a = UpdateArchive::new(0);
        for w in 0..6u64 {
            a.record(&key_n("rrc00", 0), announce(w * W, "100 200 900", &[]));
            if w < 3 {
                a.record(&key_n("rrc01", 1), announce(w * W + 1, "100 200 900", &[]));
            }
        }
        let report = run(&a, cfg());
        let outages: Vec<_> = report
            .alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::CollectorOutage { .. }))
            .collect();
        assert_eq!(outages.len(), 1, "{:?}", report.alerts);
        assert_eq!(
            outages[0].kind,
            AlertKind::CollectorOutage { collector: "rrc01".into(), silent_windows: 3 }
        );
        assert_eq!(outages[0].time_us, 3 * W);
        assert_eq!(outages[0].collector(), Some("rrc01"));
    }

    #[test]
    fn single_collector_never_outages() {
        let mut a = UpdateArchive::new(0);
        a.record(&key_n("rrc00", 0), announce(0, "100 200 900", &[]));
        a.record(&key_n("rrc00", 0), announce(9 * W, "100 200 900", &[]));
        let report = run(&a, cfg());
        assert!(report.alerts.is_empty(), "{:?}", report.alerts);
    }

    fn profile_day() -> (UpdateArchive, UpdateArchive) {
        let k = key_n("rrc00", 0);
        let mut train = UpdateArchive::new(0);
        for v in 0..6u16 {
            train.record(&k, announce(v as u64, "100 200 900", &[(200, 2500 + v)]));
        }
        let mut test = UpdateArchive::new(0);
        test.record(&k, announce(100, "100 200 900", &[(200, 7777)])); // novel value
        test.record(
            &k,
            announce(101, "100 200 900", &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]),
        );
        (train, test)
    }

    #[test]
    fn point_alerts_stream_via_poll() {
        let (train, test) = profile_day();
        let mut profiler = CommunityProfiler::new();
        profiler.train(&train);
        let whole_day = WatchConfig { window_us: u64::MAX, ..Default::default() };
        let mut sink = WatchSink::new(whole_day).with_profile(Arc::new(profiler));
        assert!(sink.poll_new().is_empty());
        for (key, rec) in test.sessions() {
            for u in &rec.updates {
                sink.on_update(key, u);
            }
        }
        assert_eq!(sink.poll_new().len(), 2);
        assert!(sink.poll_new().is_empty(), "cursor advanced");
        assert_eq!(sink.finish().alerts.len(), 2, "finish still reports everything");
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn untrained_profile_panics() {
        let _ =
            WatchSink::new(WatchConfig::default()).with_profile(Arc::new(CommunityProfiler::new()));
    }

    fn eventful_archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        for n in 0..4u32 {
            let collector = if n % 2 == 0 { "rrc00" } else { "rrc01" };
            let k = key_n(collector, n);
            for w in 0..4u64 {
                a.record(&k, announce(w * W + n as u64, "100 200 900", &[(3356, w as u16)]));
            }
        }
        a.record(&key_n("rrc00", 0), announce(4 * W, "100 200 999", &[(3356, 9)]));
        a
    }

    #[test]
    fn merge_is_collector_order_independent() {
        let a = eventful_archive();
        let per_collector = |name: &str| {
            let mut sink = WatchSink::new(cfg());
            for (key, rec) in a.sessions().filter(|(k, _)| k.collector == name) {
                for u in &rec.updates {
                    sink.on_update(key, u);
                }
            }
            sink
        };
        let mut fwd = per_collector("rrc00");
        fwd.merge(per_collector("rrc01"));
        let mut rev = per_collector("rrc01");
        rev.merge(per_collector("rrc00"));
        assert_eq!(fwd.finish().alerts, rev.finish().alerts);
    }

    #[test]
    fn matrix_deltas_accumulate_per_window() {
        let a = eventful_archive();
        let report = run(&a, cfg());
        assert_eq!(report.windows, 5);
        // Window 0's delta: community 3356:0 first seen at both vantages.
        let d0 = report.matrix.window_delta(0);
        assert!(d0.contains(&(Community::from_parts(3356, 0), "rrc00")));
        assert!(d0.contains(&(Community::from_parts(3356, 0), "rrc01")));
        assert_eq!(report.matrix.window_delta(4), vec![(Community::from_parts(3356, 9), "rrc00")]);
    }
}
