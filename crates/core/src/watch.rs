//! CommunityWatch — the always-on detection service over any update
//! source (ROADMAP item 3; the generalization of §7 the CommunityWatch
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
//! structures and all window-replay detection happens at
//! [`finish`](WatchSink::finish) in deterministic map order, so the
//! alert list is **identical for any thread count or collector order**.
//! With a whole-day window ([`WatchConfig::whole_day`]) and an attached
//! profiler, the online result is byte-equal to the batch
//! [`CommunityProfiler::detect`] — the equivalence the property tests
//! pin.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use kcc_bgp_types::{Asn, Community, MessageKind, Prefix, RouteUpdate};
use kcc_collector::{PeerMeta, SessionKey};
use kcc_obs::{Counter, Gauge, Registry};

use crate::alert::{sort_alerts, Alert, AlertKind, ShiftMetric};
use crate::anomaly::{burst_check, point_checks, AnomalyConfig, CommunityProfiler};
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
    /// Run per-prefix origin / on-path checks (hijack, leak).
    pub path_checks: bool,
    /// Run per-community announce-rate and session-fan-out checks.
    pub rate_checks: bool,
    /// Run per-collector outage checks.
    pub outage_checks: bool,
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
            path_checks: true,
            rate_checks: true,
            outage_checks: true,
        }
    }
}

impl WatchConfig {
    /// One window covering the whole run. Window-replay checks
    /// structurally stay in their learning phase, so (with an attached
    /// profiler) the output equals the batch detector's.
    pub fn whole_day() -> Self {
        WatchConfig { window_us: u64::MAX, ..Default::default() }
    }

    /// Only the §7 profile checks (novel community, blackhole
    /// injection, distinct-attribute bursts).
    pub fn profile_only() -> Self {
        WatchConfig {
            path_checks: false,
            rate_checks: false,
            outage_checks: false,
            ..Default::default()
        }
    }
}

/// The earliest sighting of something in a window — ties on time break
/// on the session key, so merges are order-insensitive.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Sighting {
    time_us: u64,
    session: SessionKey,
}

/// One stream's open distinct-attribute window.
#[derive(Debug, Clone)]
struct StreamWindow {
    window: u64,
    first_us: u64,
    attrs: HashSet<String>,
}

impl StreamWindow {
    fn open(window: u64, first_us: u64) -> Self {
        StreamWindow { window, first_us, attrs: HashSet::new() }
    }
}

/// One prefix's observations in one window.
#[derive(Debug, Clone, Default)]
struct PrefixWindow {
    /// Origin ASes seen, with the earliest sighting of each.
    origins: BTreeMap<Asn, Sighting>,
    /// On-path ASes per collector vantage, with the earliest sighting
    /// and the announced origin at that sighting.
    onpath: BTreeMap<(String, Asn), (Sighting, Asn)>,
}

/// One community's counters in one window.
#[derive(Debug, Clone, Default)]
struct CommunityWindow {
    announces: u64,
    withdraws: u64,
    /// Deterministic per-session hashes — fan-out is their count.
    fanout: BTreeSet<u64>,
}

fn session_hash(key: &SessionKey) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn min_sighting<K: Ord>(map: &mut BTreeMap<K, Sighting>, k: K, s: Sighting) {
    match map.get_mut(&k) {
        Some(cur) => {
            if s < *cur {
                *cur = s;
            }
        }
        None => {
            map.insert(k, s);
        }
    }
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
    stream_windows: HashMap<(SessionKey, Prefix), StreamWindow>,
    last_comms: HashMap<(SessionKey, Prefix), Vec<Community>>,
    prefixes: BTreeMap<Prefix, BTreeMap<u64, PrefixWindow>>,
    communities: BTreeMap<Community, BTreeMap<u64, CommunityWindow>>,
    collectors: BTreeMap<String, BTreeMap<u64, u64>>,
    matrix: AgreementMatrix,
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
            stream_windows: HashMap::new(),
            last_comms: HashMap::new(),
            prefixes: BTreeMap::new(),
            communities: BTreeMap::new(),
            collectors: BTreeMap::new(),
            matrix: AgreementMatrix::new(),
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

    /// Per-prefix hijack / route-leak detection: replay the prefix's
    /// windows in ascending order, learning for
    /// [`learn_windows`](WatchConfig::learn_windows) observed windows,
    /// then flag novel origins (hijack) and novel per-vantage on-path
    /// ASes whose announced origin was already learned (leak). Each
    /// window's observations fold into the learned sets afterwards, so
    /// a deviation alerts once.
    fn path_alerts(&self, alerts: &mut Vec<Alert>) {
        for (prefix, windows) in &self.prefixes {
            let mut learned_origins: BTreeSet<Asn> = BTreeSet::new();
            let mut learned_onpath: BTreeSet<(&str, Asn)> = BTreeSet::new();
            for (observed, pw) in windows.values().enumerate() {
                if observed as u64 >= self.cfg.learn_windows {
                    for (origin, s) in &pw.origins {
                        if !learned_origins.contains(origin) {
                            alerts.push(Alert::new(
                                s.time_us,
                                Some(s.session.clone()),
                                Some(*prefix),
                                AlertKind::PrefixHijack {
                                    origin: *origin,
                                    expected: learned_origins.iter().copied().collect(),
                                },
                            ));
                        }
                    }
                    for ((collector, asn), (s, origin_at)) in &pw.onpath {
                        if !learned_onpath.contains(&(collector.as_str(), *asn))
                            && learned_origins.contains(origin_at)
                            && !pw.origins.contains_key(asn)
                        {
                            alerts.push(Alert::new(
                                s.time_us,
                                Some(s.session.clone()),
                                Some(*prefix),
                                AlertKind::RouteLeak { via: *asn, origin: *origin_at },
                            ));
                        }
                    }
                }
                learned_origins.extend(pw.origins.keys().copied());
                learned_onpath.extend(pw.onpath.keys().map(|(c, asn)| (c.as_str(), *asn)));
            }
        }
    }

    /// Per-community announce-rate and session-fan-out shifts against
    /// the running mean of previously observed windows.
    fn rate_alerts(&self, alerts: &mut Vec<Alert>) {
        for (community, windows) in &self.communities {
            let mut sum_announces = 0u64;
            let mut sum_fanout = 0u64;
            for (n, (w, cw)) in windows.iter().enumerate() {
                let n = n as u64;
                let fanout = cw.fanout.len() as u64;
                if n >= self.cfg.learn_windows {
                    let at = w.saturating_mul(self.cfg.window_us);
                    if cw.announces >= self.cfg.rate_min
                        && cw.announces * n > self.cfg.rate_factor * sum_announces
                    {
                        alerts.push(Alert::new(
                            at,
                            None,
                            None,
                            AlertKind::BaselineShift {
                                metric: ShiftMetric::AnnounceRate,
                                community: Some(*community),
                                observed: cw.announces,
                                baseline: sum_announces / n,
                            },
                        ));
                    }
                    if fanout >= self.cfg.rate_min && fanout * n > self.cfg.rate_factor * sum_fanout
                    {
                        alerts.push(Alert::new(
                            at,
                            None,
                            None,
                            AlertKind::BaselineShift {
                                metric: ShiftMetric::SessionFanout,
                                community: Some(*community),
                                observed: fanout,
                                baseline: sum_fanout / n,
                            },
                        ));
                    }
                }
                sum_announces += cw.announces;
                sum_fanout += fanout;
            }
        }
    }

    /// Per-collector outage runs: consecutive *globally active* windows
    /// (from the collector's first active window on) in which this
    /// collector was silent while some other collector was not.
    fn outage_alerts(&self, alerts: &mut Vec<Alert>) {
        let active: BTreeSet<u64> =
            self.collectors.values().flat_map(|m| m.keys().copied()).collect();
        for (name, act) in &self.collectors {
            let Some(&first) = act.keys().next() else { continue };
            let mut run_start: Option<u64> = None;
            let mut run_len = 0u64;
            let flush = |start: Option<u64>, len: u64, alerts: &mut Vec<Alert>| {
                if let Some(start) = start {
                    if len >= self.cfg.outage_windows {
                        alerts.push(Alert::new(
                            start.saturating_mul(self.cfg.window_us),
                            None,
                            None,
                            AlertKind::CollectorOutage {
                                collector: name.clone(),
                                silent_windows: len,
                            },
                        ));
                    }
                }
            };
            for &w in active.iter().filter(|&&w| w >= first) {
                if act.contains_key(&w) {
                    flush(run_start.take(), run_len, alerts);
                    run_len = 0;
                } else {
                    run_start.get_or_insert(w);
                    run_len += 1;
                }
            }
            flush(run_start, run_len, alerts);
        }
    }

    /// Closes open windows, runs the window-replay detections in
    /// deterministic order, and returns the sorted report.
    pub fn finish(mut self) -> WatchReport {
        let metrics = self.metrics.take();
        let mut alerts = std::mem::take(&mut self.alerts);
        if let Some(profiler) = &self.profiler {
            for (stream, sw) in &self.stream_windows {
                alerts.extend(burst_check(
                    profiler,
                    &self.cfg.anomaly,
                    stream,
                    sw.attrs.len(),
                    sw.first_us,
                ));
            }
        }
        if self.cfg.path_checks {
            self.path_alerts(&mut alerts);
        }
        if self.cfg.rate_checks {
            self.rate_alerts(&mut alerts);
        }
        if self.cfg.outage_checks {
            self.outage_alerts(&mut alerts);
        }
        sort_alerts(&mut alerts);
        let windows: BTreeSet<u64> =
            self.collectors.values().flat_map(|m| m.keys().copied()).collect();
        let report = WatchReport {
            alerts,
            updates: self.updates,
            streams: self.stream_windows.len() as u64,
            windows: windows.len() as u64,
            matrix: self.matrix,
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
        self.collectors.entry(meta.key.collector.clone()).or_default();
        self.matrix.add_collector(&meta.key.collector);
    }

    fn on_update(&mut self, key: &SessionKey, u: &RouteUpdate) {
        self.updates += 1;
        let w = self.window_of(u.time_us);
        let alerts_before = self.alerts.len();
        if let Some(m) = &self.metrics {
            m.updates.inc();
            m.window_lag.set(u.time_us.saturating_sub(w.saturating_mul(self.cfg.window_us)) as i64);
        }
        *self.collectors.entry(key.collector.clone()).or_default().entry(w).or_insert(0) += 1;

        let MessageKind::Announcement(attrs) = &u.kind else {
            // Withdrawals: attribute to the communities last announced
            // on this stream (withdrawals carry no attributes).
            if self.cfg.rate_checks {
                if let Some(comms) = self.last_comms.get(&(key.clone(), u.prefix)) {
                    for c in comms {
                        self.communities.entry(*c).or_default().entry(w).or_default().withdraws +=
                            1;
                    }
                }
            }
            return;
        };

        // §7 profile checks (point alerts stream; bursts close per
        // stream window).
        if let Some(profiler) = self.profiler.clone() {
            point_checks(&profiler, &self.cfg.anomaly, key, u, &mut self.alerts);
            let stream = (key.clone(), u.prefix);
            let sw = self
                .stream_windows
                .entry(stream.clone())
                .or_insert_with(|| StreamWindow::open(w, u.time_us));
            if sw.window != w {
                let closed = std::mem::replace(sw, StreamWindow::open(w, u.time_us));
                self.alerts.extend(burst_check(
                    &profiler,
                    &self.cfg.anomaly,
                    &stream,
                    closed.attrs.len(),
                    closed.first_us,
                ));
            }
            sw.attrs.insert(attrs.communities.canonical_key());
        }

        // Per-prefix origin / on-path presence.
        if self.cfg.path_checks {
            if let Some(origin) = attrs.as_path.origin() {
                let sighting = Sighting { time_us: u.time_us, session: key.clone() };
                let pw = self.prefixes.entry(u.prefix).or_default().entry(w).or_default();
                min_sighting(&mut pw.origins, origin, sighting.clone());
                for asn in attrs.as_path.asns() {
                    let k = (key.collector.clone(), asn);
                    match pw.onpath.get_mut(&k) {
                        Some((cur, cur_origin)) => {
                            if sighting < *cur {
                                *cur = sighting.clone();
                                *cur_origin = origin;
                            }
                        }
                        None => {
                            pw.onpath.insert(k, (sighting.clone(), origin));
                        }
                    }
                }
            }
        }

        // Per-community rates, fan-out and the agreement matrix.
        for c in attrs.communities.iter_classic() {
            self.matrix.observe(&key.collector, *c, w);
            if self.cfg.rate_checks {
                let cw = self.communities.entry(*c).or_default().entry(w).or_default();
                cw.announces += 1;
                cw.fanout.insert(session_hash(key));
            }
        }
        if self.cfg.rate_checks {
            self.last_comms.insert(
                (key.clone(), u.prefix),
                attrs.communities.iter_classic().copied().collect(),
            );
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
    fn merge(&mut self, mut other: Self) {
        self.alerts.append(&mut other.alerts);
        // Streams are keyed by session: disjoint across collectors.
        self.stream_windows.extend(other.stream_windows);
        self.last_comms.extend(other.last_comms);
        for (prefix, windows) in other.prefixes {
            let mine = self.prefixes.entry(prefix).or_default();
            for (w, pw) in windows {
                let m = mine.entry(w).or_default();
                for (origin, s) in pw.origins {
                    min_sighting(&mut m.origins, origin, s);
                }
                for (k, (s, origin_at)) in pw.onpath {
                    match m.onpath.get_mut(&k) {
                        Some((cur, cur_origin)) => {
                            if s < *cur {
                                *cur = s;
                                *cur_origin = origin_at;
                            }
                        }
                        None => {
                            m.onpath.insert(k, (s, origin_at));
                        }
                    }
                }
            }
        }
        for (community, windows) in other.communities {
            let mine = self.communities.entry(community).or_default();
            for (w, cw) in windows {
                let m = mine.entry(w).or_default();
                m.announces += cw.announces;
                m.withdraws += cw.withdraws;
                m.fanout.extend(cw.fanout);
            }
        }
        for (name, act) in other.collectors {
            let mine = self.collectors.entry(name).or_default();
            for (w, n) in act {
                *mine.entry(w).or_insert(0) += n;
            }
        }
        self.matrix.merge(other.matrix);
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
    fn whole_day_online_equals_batch_detect() {
        let (train, test) = profile_day();
        let mut profiler = CommunityProfiler::new();
        profiler.train(&train);
        let batch = profiler.detect(&test, &AnomalyConfig::default());
        let sink = WatchSink::new(WatchConfig::whole_day()).with_profile(Arc::new(profiler));
        let report =
            PipelineBuilder::new(ArchiveSource::new(&test)).sink(sink).run().unwrap().sink.finish();
        assert_eq!(report.alerts, batch);
        assert_eq!(report.alerts.len(), 2);
    }

    #[test]
    fn point_alerts_stream_via_poll() {
        let (train, test) = profile_day();
        let mut profiler = CommunityProfiler::new();
        profiler.train(&train);
        let mut sink = WatchSink::new(WatchConfig::whole_day()).with_profile(Arc::new(profiler));
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
