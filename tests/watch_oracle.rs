//! `WatchSink` against a naive oracle.
//!
//! The sink keeps its state on interned ids in flat tables; the oracle
//! below restates what it must compute with owned keys in `BTreeMap`s,
//! window by window, with none of the sink's shortcuts. The property
//! feeds both arbitrary multi-collector archives — sessions in shuffled
//! order, and split across two sinks merged both ways — and wants the
//! same report from all of them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::analysis::pipeline::{AnalysisSink, Merge};
use keep_communities_clean::analysis::{
    sort_alerts, Alert, AlertKind, AnomalyConfig, CommunityProfiler, ShiftMetric, WatchConfig,
    WatchReport, WatchSink,
};
use keep_communities_clean::collector::{PeerMeta, SessionKey, UpdateArchive};
use keep_communities_clean::types::community::well_known::BLACKHOLE;
use keep_communities_clean::types::{
    AsPath, Asn, Community, CommunitySet, MessageKind, PathAttributes, Prefix, RouteUpdate,
};

// ---------------------------------------------------------------------
// the profiler, restated
// ---------------------------------------------------------------------

type Stream = (SessionKey, Prefix);

/// What `CommunityProfiler::train` learns.
#[derive(Default)]
struct Profile {
    values: BTreeMap<u16, BTreeSet<u16>>,
    action: BTreeSet<Stream>,
    attrs: BTreeMap<Stream, BTreeSet<String>>,
}

fn train(archive: &UpdateArchive) -> Profile {
    let mut p = Profile::default();
    for (key, u) in archive.sessions().flat_map(|(k, rec)| rec.updates.iter().map(move |u| (k, u)))
    {
        let MessageKind::Announcement(a) = &u.kind else { continue };
        for c in a.communities.iter_classic() {
            p.values.entry(c.asn_part()).or_default().insert(c.value_part());
            if c.well_known_name().is_some() {
                p.action.insert((key.clone(), u.prefix));
            }
        }
        p.attrs.entry((key.clone(), u.prefix)).or_default().insert(a.communities.canonical_key());
    }
    p
}

/// The point checks on one announcement: injected action communities
/// and values new to a namespace training saw enough of.
fn point(cfg: &AnomalyConfig, p: &Profile, s: &Stream, u: &RouteUpdate) -> Vec<Alert> {
    let here = |kind| Alert::new(u.time_us, Some(s.0.clone()), Some(u.prefix), kind);
    let mut alerts = Vec::new();
    for c in u.kind.attributes().into_iter().flat_map(|a| a.communities.iter_classic()) {
        if let Some(name) = c.well_known_name() {
            if !p.action.contains(s) {
                alerts.push(here(AlertKind::BlackholeInjection { community: *c, name }));
            }
        } else if p
            .values
            .get(&c.asn_part())
            .is_some_and(|v| v.len() >= cfg.min_namespace_size && !v.contains(&c.value_part()))
        {
            alerts.push(here(AlertKind::NovelCommunity { community: *c }));
        }
    }
    alerts
}

/// The exploration-burst check on one closed stream window.
fn burst(cfg: &AnomalyConfig, p: &Profile, s: &Stream, first_us: u64, n: usize) -> Option<Alert> {
    let baseline = p.attrs.get(s).map_or(1, |a| a.len()).max(1);
    let (observed, baseline) = (n as u64, baseline as u64);
    let metric = ShiftMetric::DistinctAttrs;
    let kind = AlertKind::BaselineShift { metric, community: None, observed, baseline };
    (n >= cfg.burst_min_observed && observed > cfg.burst_factor as u64 * baseline)
        .then(|| Alert::new(first_us, Some(s.0.clone()), Some(s.1), kind))
}

// ---------------------------------------------------------------------
// the oracle (≤ 150 lines)
// ---------------------------------------------------------------------

type Seen = (u64, SessionKey);

/// One prefix in one window: `.0` origins and `.1` per-vantage on-path
/// ASes, each with its earliest sighting (and the origin announced at it).
type PathWindow = (BTreeMap<Asn, Seen>, BTreeMap<(String, Asn), (Seen, Asn)>);

/// What one watch run must report, computed the slow way.
struct Expected {
    lines: Vec<String>,
    updates: u64,
    streams: u64,
    windows: BTreeSet<u64>,
    collectors: BTreeSet<String>,
    /// `(community, collector)` → first window.
    first_seen: BTreeMap<(Community, String), u64>,
}

fn oracle(archive: &UpdateArchive, cfg: &WatchConfig, profile: Option<&Profile>) -> Expected {
    let (mut alerts, mut updates) = (Vec::new(), 0);
    let mut open: BTreeMap<Stream, (u64, u64, BTreeSet<String>)> = BTreeMap::new();
    let mut last: BTreeMap<Stream, Vec<Community>> = BTreeMap::new();
    let mut paths: BTreeMap<Prefix, BTreeMap<u64, PathWindow>> = BTreeMap::new();
    let mut rates: BTreeMap<Community, BTreeMap<u64, (u64, BTreeSet<SessionKey>)>> =
        BTreeMap::new();
    let mut active: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut first_seen: BTreeMap<(Community, String), u64> = BTreeMap::new();
    for (key, rec) in archive.sessions() {
        let own = active.entry(key.collector.clone()).or_default();
        for u in &rec.updates {
            updates += 1;
            let w = u.time_us / cfg.window_us.max(1);
            own.insert(w);
            let stream = (key.clone(), u.prefix);
            let MessageKind::Announcement(attrs) = &u.kind else {
                for c in last.get(&stream).into_iter().flatten() {
                    rates.entry(*c).or_default().entry(w).or_default();
                }
                continue;
            };
            if let Some(p) = profile {
                alerts.extend(point(&cfg.anomaly, p, &stream, u));
                let fresh = || (w, u.time_us, BTreeSet::new());
                let sw = open.entry(stream.clone()).or_insert_with(fresh);
                if sw.0 != w {
                    let closed = std::mem::replace(sw, fresh());
                    alerts.extend(burst(&cfg.anomaly, p, &stream, closed.1, closed.2.len()));
                }
                sw.2.insert(attrs.communities.canonical_key());
            }
            if let Some(origin) = attrs.as_path.origin() {
                let seen = (u.time_us, key.clone());
                let pw = paths.entry(u.prefix).or_default().entry(w).or_default();
                let first = pw.0.entry(origin).or_insert_with(|| seen.clone());
                *first = seen.clone().min(first.clone());
                for asn in attrs.as_path.asns() {
                    let cell = (key.collector.clone(), asn);
                    let first = pw.1.entry(cell).or_insert_with(|| (seen.clone(), origin));
                    if seen < first.0 {
                        *first = (seen.clone(), origin);
                    }
                }
            }
            for c in attrs.communities.iter_classic() {
                let first = first_seen.entry((*c, key.collector.clone())).or_insert(w);
                *first = w.min(*first);
                let cell = rates.entry(*c).or_default().entry(w).or_default();
                cell.0 += 1;
                cell.1.insert(key.clone());
            }
            last.insert(stream, attrs.communities.classic().to_vec());
        }
    }

    for (p, (s, sw)) in profile.iter().flat_map(|p| open.iter().map(move |o| (p, o))) {
        alerts.extend(burst(&cfg.anomaly, p, s, sw.1, sw.2.len()));
    }
    for (prefix, windows) in &paths {
        let mut known_origins: BTreeSet<Asn> = BTreeSet::new();
        let mut known_onpath: BTreeSet<(String, Asn)> = BTreeSet::new();
        for (n, pw) in windows.values().enumerate() {
            let judged = n as u64 >= cfg.learn_windows;
            for (origin, (t, s)) in pw.0.iter().filter(|_| judged) {
                if !known_origins.contains(origin) {
                    let expected = known_origins.iter().copied().collect();
                    let kind = AlertKind::PrefixHijack { origin: *origin, expected };
                    alerts.push(Alert::new(*t, Some(s.clone()), Some(*prefix), kind));
                }
            }
            for (cell, ((t, s), origin)) in pw.1.iter().filter(|_| judged) {
                if !known_onpath.contains(cell)
                    && known_origins.contains(origin)
                    && !pw.0.contains_key(&cell.1)
                {
                    let kind = AlertKind::RouteLeak { via: cell.1, origin: *origin };
                    alerts.push(Alert::new(*t, Some(s.clone()), Some(*prefix), kind));
                }
            }
            known_origins.extend(pw.0.keys());
            known_onpath.extend(pw.1.keys().cloned());
        }
    }
    for (community, windows) in &rates {
        let mut sums = [0, 0];
        for (n, (w, (rate, sessions))) in windows.iter().enumerate() {
            let observed = [*rate, sessions.len() as u64];
            for (i, metric) in
                [ShiftMetric::AnnounceRate, ShiftMetric::SessionFanout].iter().enumerate()
            {
                let (n, observed, sum) = (n as u64, observed[i], sums[i]);
                if n >= cfg.learn_windows
                    && observed >= cfg.rate_min
                    && observed * n > cfg.rate_factor * sum
                {
                    let (metric, community, baseline) = (*metric, Some(*community), sum / n);
                    let kind = AlertKind::BaselineShift { metric, community, observed, baseline };
                    alerts.push(Alert::new(w.saturating_mul(cfg.window_us), None, None, kind));
                }
                sums[i] += observed;
            }
        }
    }
    let windows: BTreeSet<u64> = active.values().flatten().copied().collect();
    for (collector, own) in &active {
        // Runs of equally silent-or-not windows, over the globally active
        // windows from the collector's own first one on.
        let since: Vec<u64> =
            windows.iter().copied().skip_while(|w| Some(w) != own.first()).collect();
        for run in since.chunk_by(|a, b| own.contains(a) == own.contains(b)) {
            let (start, silent_windows) = (run[0], run.len() as u64);
            if !own.contains(&start) && silent_windows >= cfg.outage_windows {
                let collector = collector.clone();
                let kind = AlertKind::CollectorOutage { collector, silent_windows };
                alerts.push(Alert::new(start.saturating_mul(cfg.window_us), None, None, kind));
            }
        }
    }
    sort_alerts(&mut alerts);
    let lines = alerts.iter().map(Alert::to_line).collect();
    let (streams, collectors) = (open.len() as u64, active.into_keys().collect());
    Expected { lines, updates, streams, windows, collectors, first_seen }
}

// ---------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------

/// Window length of the generated days (1 ms); times span eight windows.
const W: u64 = 1_000;

/// Small pools, so origins, transits and communities recur and churn:
/// every detector fires on a fair share of the cases.
fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    let community = prop_oneof![
        (0u16..3, 0u16..6).prop_map(|(a, v)| Community::from_parts(3356 + a, v)),
        Just(BLACKHOLE),
    ];
    (vec(1u32..9, 0..4), vec(community, 0..4)).prop_map(|(asns, communities)| PathAttributes {
        as_path: AsPath::from_asns(asns.into_iter().map(Asn)),
        communities: CommunitySet::from_classic(communities),
        ..Default::default()
    })
}

/// Up to six sessions over three collectors (so some share one) and
/// three prefixes; a session's updates are in time order, a fifth of
/// them withdrawals. Sessions may be empty: known but silent.
fn arb_archive() -> impl Strategy<Value = UpdateArchive> {
    let prefixes = ["84.205.64.0/24", "84.205.65.0/24", "2001:7fb:fe00::/48"];
    let update = (0usize..3, 0u64..8 * W, 0u8..5, arb_attrs());
    vec(vec(update, 0..30), 2..7).prop_map(move |sessions| {
        let mut archive = UpdateArchive::new(0);
        for (s, mut updates) in sessions.into_iter().enumerate() {
            let key = SessionKey::new(
                ["rrc00", "rrc01", "route-views2"][s % 3],
                Asn(20_000 + s as u32 / 2),
                format!("192.0.2.{}", s + 1).parse().unwrap(),
            );
            archive.add_session(PeerMeta::normal(key.clone()));
            updates.sort_by_key(|(_, t, _, _)| *t);
            for (p, t, kind, attrs) in updates {
                let prefix: Prefix = prefixes[p].parse().unwrap();
                archive.record(
                    &key,
                    if kind == 0 {
                        RouteUpdate::withdraw(t, prefix)
                    } else {
                        RouteUpdate::announce(t, prefix, attrs)
                    },
                );
            }
        }
        archive
    })
}

/// Thresholds low enough for eight-window days to cross them. One case
/// in four is the §7 batch shape instead — the whole day as one window,
/// judged against a profile (the property attaches one to it).
fn arb_config() -> impl Strategy<Value = WatchConfig> {
    (0u64..3, 1u64..3, 1u64..4, 1u64..3, 0u8..4).prop_map(
        |(learn_windows, rate_factor, rate_min, outage_windows, shape)| WatchConfig {
            window_us: if shape == 0 { u64::MAX } else { W },
            learn_windows,
            anomaly: AnomalyConfig {
                min_namespace_size: 2,
                burst_factor: 1,
                burst_min_observed: 2,
            },
            rate_factor,
            rate_min,
            outage_windows,
        },
    )
}

// ---------------------------------------------------------------------
// the property
// ---------------------------------------------------------------------

/// Feeds `sessions` (indices into the archive's key order) by hand, in
/// the order given.
fn feed(sink: &mut WatchSink, archive: &UpdateArchive, sessions: impl Iterator<Item = usize>) {
    let all: Vec<_> = archive.sessions().collect();
    for i in sessions {
        let (key, rec) = all[i];
        sink.on_session(&rec.meta);
        for u in &rec.updates {
            sink.on_update(key, u);
        }
    }
}

fn check(got: WatchReport, want: &Expected, how: &str) -> Result<(), TestCaseError> {
    let lines: Vec<String> = got.alerts.iter().map(Alert::to_line).collect();
    prop_assert_eq!(&lines, &want.lines, "alert lines, {}", how);
    prop_assert_eq!(got.updates, want.updates, "updates, {}", how);
    prop_assert_eq!(got.streams, want.streams, "streams, {}", how);
    prop_assert_eq!(got.windows, want.windows.len() as u64, "windows, {}", how);
    let columns: Vec<&str> = want.collectors.iter().map(String::as_str).collect();
    prop_assert_eq!(got.matrix.collector_names().collect::<Vec<_>>(), columns.clone());
    let communities: BTreeSet<Community> = want.first_seen.keys().map(|k| k.0).collect();
    let presence: Vec<(Community, Vec<bool>)> = communities
        .iter()
        .map(|c| {
            let saw = |name: &&str| want.first_seen.contains_key(&(*c, (*name).to_owned()));
            (*c, columns.iter().map(saw).collect())
        })
        .collect();
    prop_assert_eq!(got.matrix.presence(), presence, "presence, {}", how);
    for w in &want.windows {
        let delta: Vec<(Community, &str)> = want
            .first_seen
            .iter()
            .filter(|(_, first)| *first == w)
            .map(|((c, name), _)| (*c, name.as_str()))
            .collect();
        prop_assert_eq!(got.matrix.window_delta(*w), delta, "delta of window {}, {}", w, how);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any feed order and any two-way split of the sessions report what
    /// the oracle computes from the archive in key order.
    #[test]
    fn watch_sink_matches_the_naive_oracle(
        day in arb_archive(),
        yesterday in arb_archive(),
        cfg in arb_config(),
        profiled in any::<bool>(),
        order in vec(any::<u32>(), 6..7),
        side in vec(any::<bool>(), 6..7),
    ) {
        let profiled = profiled || cfg.window_us == u64::MAX;
        let profile = profiled.then(|| train(&yesterday));
        let want = oracle(&day, &cfg, profile.as_ref());
        let profiler = profiled.then(|| {
            let mut p = CommunityProfiler::new();
            p.train(&yesterday);
            Arc::new(p)
        });
        let sink = || match &profiler {
            Some(p) => WatchSink::new(cfg).with_profile(Arc::clone(p)),
            None => WatchSink::new(cfg),
        };

        let n = day.sessions().count();
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffled.sort_by_key(|&i| order[i]);
        let mut whole = sink();
        feed(&mut whole, &day, shuffled.iter().copied());
        check(whole.finish(), &want, "one sink, shuffled sessions")?;

        let half = |which: bool| {
            let mut part = sink();
            feed(&mut part, &day, shuffled.iter().copied().filter(|&i| side[i] == which));
            part
        };
        let mut forward = half(true);
        forward.merge(half(false));
        check(forward.finish(), &want, "two sinks merged")?;
        let mut backward = half(false);
        backward.merge(half(true));
        check(backward.finish(), &want, "two sinks merged the other way")?;
    }
}
