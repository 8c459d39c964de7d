//! Anomalous-community detection (the paper's §7 closing direction).
//!
//! "We believe that communities can enrich our understanding of anomalous
//! behavior in the routing system beyond existing approaches. By
//! characterizing the way individual ASes observe and process
//! communities, our work provides a first step toward predicting
//! anomalous communities."
//!
//! The detector learns a per-AS *community profile* from a training
//! window — which values each 16-bit namespace uses, how many distinct
//! attributes a stream shows — then flags deviations in a detection
//! window as typed [`Alert`]s:
//!
//! * [`AlertKind::NovelCommunity`]: a community value never seen in a
//!   namespace that was otherwise stable (fat-fingered or injected tags;
//!   the attack vector of Streibelt et al.),
//! * [`AlertKind::BlackholeInjection`]: a well-known action community
//!   (BLACKHOLE, GRACEFUL_SHUTDOWN …) appearing on a stream that never
//!   carried one,
//! * [`AlertKind::BaselineShift`] over
//!   [`ShiftMetric::DistinctAttrs`]:
//!   a stream revealing many more distinct community attributes per phase
//!   than its training baseline (an exploration burst).
//!
//! The checks run inside the online service in [`watch`](crate::watch):
//! attach the trained profiler to a [`WatchSink`](crate::watch::WatchSink)
//! with `with_profile`. With `window_us: u64::MAX` the whole day is its
//! one window — the batch "train on yesterday, judge today" shape.

use std::collections::hash_map::Entry;
use std::hash::BuildHasher;
use std::net::IpAddr;
use std::sync::Arc;

use kcc_bgp_types::{
    Asn, Community, CommunitySet, ExtendedCommunity, FastBuildHasher, FastHashMap, FastHashSet,
    LargeCommunity, MessageKind, Prefix, RouteUpdate,
};
use kcc_collector::{SessionKey, UpdateArchive};

use crate::alert::{Alert, AlertKind, ShiftMetric};

/// Dense ids for the sessions a detector has met, so per-stream state
/// keys on `(u32, Prefix)` and a [`SessionKey`] is cloned only into an
/// emitted [`Alert`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionTable {
    ids: FastHashMap<Arc<SessionKey>, u32>,
    keys: Vec<Arc<SessionKey>>,
}

impl SessionTable {
    /// The id of a known session.
    #[inline]
    pub(crate) fn get(&self, key: &SessionKey) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The id of `key`; first sight assigns the next dense one.
    pub(crate) fn intern(&mut self, key: &SessionKey) -> u32 {
        if let Some(id) = self.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        let key = Arc::new(key.clone());
        self.ids.insert(Arc::clone(&key), id);
        self.keys.push(key);
        id
    }

    /// The session behind an id this table handed out.
    pub(crate) fn key(&self, id: u32) -> &SessionKey {
        &self.keys[id as usize]
    }

    /// Every session, in id order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &SessionKey> {
        self.keys.iter().map(|k| &**k)
    }
}

/// Dense ids for community attributes, interned **by value**: two
/// announcements get the same id iff their [`CommunitySet`]s are equal
/// — the exact "distinct attribute" the paper counts, at the price of
/// one hash of the set per announcement instead of rendering it.
///
/// Each distinct set is stored once, appended to three per-family
/// arenas, so there is no allocation per attribute and a handful of
/// tables to free. The index maps a hash to an id and where the set
/// sits; a candidate is compared element for element before it is
/// trusted, and a set whose hash is taken by a different set steps to
/// the next free hash, so a collision costs a retry and never yields a
/// wrong id.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrInterner {
    index: FastHashMap<u64, (u32, Span)>,
    classic: Vec<Community>,
    extended: Vec<ExtendedCommunity>,
    large: Vec<LargeCommunity>,
}

/// `(start, length)` of one set's members in each family arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    classic: (u32, u32),
    extended: (u32, u32),
    large: (u32, u32),
}

fn members<T>(arena: &[T], (start, len): (u32, u32)) -> &[T] {
    &arena[start as usize..][..len as usize]
}

fn append<T: Copy>(arena: &mut Vec<T>, part: &[T]) -> (u32, u32) {
    let start = u32::try_from(arena.len()).expect("attribute arena outgrew u32 offsets");
    arena.extend_from_slice(part);
    (start, part.len() as u32)
}

impl AttrInterner {
    /// The id of `set`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, set: &CommunitySet) -> u32 {
        self.intern_members(set.classic(), set.extended(), set.large())
    }

    fn intern_members(
        &mut self,
        classic: &[Community],
        extended: &[ExtendedCommunity],
        large: &[LargeCommunity],
    ) -> u32 {
        let hash = FastBuildHasher::default().hash_one((classic, extended, large));
        self.intern_hashed(hash, classic, extended, large)
    }

    /// [`intern_members`](Self::intern_members) with the hash handed in
    /// (tests hand in colliding ones).
    fn intern_hashed(
        &mut self,
        mut hash: u64,
        classic: &[Community],
        extended: &[ExtendedCommunity],
        large: &[LargeCommunity],
    ) -> u32 {
        let next = self.index.len() as u32;
        loop {
            match self.index.entry(hash) {
                Entry::Vacant(slot) => {
                    let span = Span {
                        classic: append(&mut self.classic, classic),
                        extended: append(&mut self.extended, extended),
                        large: append(&mut self.large, large),
                    };
                    slot.insert((next, span));
                    return next;
                }
                Entry::Occupied(slot) => {
                    let (id, span) = *slot.get();
                    if members(&self.classic, span.classic) == classic
                        && members(&self.extended, span.extended) == extended
                        && members(&self.large, span.large) == large
                    {
                        return id;
                    }
                    hash = hash.wrapping_add(1);
                }
            }
        }
    }

    /// Folds `other`'s sets in; the result maps each of `other`'s ids
    /// to the id the same set has here.
    pub(crate) fn absorb(&mut self, other: AttrInterner) -> Vec<u32> {
        let mut map = vec![0; other.index.len()];
        for &(id, span) in other.index.values() {
            map[id as usize] = self.intern_members(
                members(&other.classic, span.classic),
                members(&other.extended, span.extended),
                members(&other.large, span.large),
            );
        }
        map
    }
}

/// What training learned about one `(peer, prefix)` stream.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamProfile {
    /// Whether any well-known action community was seen.
    pub(crate) has_action: bool,
    /// Distinct community attributes seen.
    attr_count: usize,
}

impl StreamProfile {
    /// The distinct-attribute baseline (≥ 1: unseen streams get the
    /// most conservative baseline).
    pub(crate) fn baseline(&self) -> usize {
        self.attr_count.max(1)
    }
}

/// Learned profiles.
#[derive(Debug, Clone, Default)]
pub struct CommunityProfiler {
    /// Every community seen in training.
    values: FastHashSet<Community>,
    /// Per 16-bit namespace: how many distinct values training saw.
    namespace_sizes: FastHashMap<u16, usize>,
    /// Dense ids for the peers (AS and session address) seen in training;
    /// streams key on them and not on the collector, so a peer trained
    /// under one collector name is recognised under another.
    peers: FastHashMap<(Asn, IpAddr), u32>,
    streams: FastHashMap<(u32, Prefix), StreamProfile>,
    trained: bool,
}

/// Detection tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Only flag novel values in namespaces with at least this many
    /// trained values (tiny namespaces produce false alarms).
    pub min_namespace_size: usize,
    /// Exploration burst factor: observed > factor × baseline.
    pub burst_factor: usize,
    /// Minimum observed distinct attributes before a burst can fire.
    pub burst_min_observed: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig { min_namespace_size: 4, burst_factor: 4, burst_min_observed: 8 }
    }
}

impl CommunityProfiler {
    /// A fresh, untrained profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once `train` has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Number of learned namespaces.
    pub fn namespace_count(&self) -> usize {
        self.namespace_sizes.len()
    }

    /// What training learned about the peer of `key` on `prefix` (the
    /// default for streams it never saw). Two probes: detectors ask once,
    /// at a stream's first sight, and keep the answer.
    pub(crate) fn stream(&self, key: &SessionKey, prefix: Prefix) -> StreamProfile {
        let peer = self.peers.get(&(key.peer_asn, key.peer_ip));
        let known = peer.and_then(|&p| self.streams.get(&(p, prefix)));
        known.copied().unwrap_or_default()
    }

    /// Learns profiles from a training archive (e.g. yesterday's data).
    /// A stream's profile is the union of what the peer's sessions at
    /// every collector of the archive showed; a later archive raises
    /// the baseline to the larger of the two.
    pub fn train(&mut self, archive: &UpdateArchive) {
        let peer = |(key, _): &(&SessionKey, _)| (key.peer_asn, key.peer_ip);
        let mut sessions: Vec<_> = archive.sessions().collect();
        sessions.sort_by_key(peer);
        let mut attrs = AttrInterner::default();
        for group in sessions.chunk_by(|a, b| peer(a) == peer(b)) {
            // Per prefix of this peer: action seen, distinct attributes.
            let mut seen: FastHashMap<Prefix, (bool, FastHashSet<u32>)> = FastHashMap::default();
            for u in group.iter().flat_map(|(_, rec)| &rec.updates) {
                let MessageKind::Announcement(a) = &u.kind else { continue };
                let (has_action, distinct) = seen.entry(u.prefix).or_default();
                for c in a.communities.iter_classic() {
                    if self.values.insert(*c) {
                        *self.namespace_sizes.entry(c.asn_part()).or_insert(0) += 1;
                    }
                    *has_action |= c.well_known_name().is_some();
                }
                distinct.insert(attrs.intern(&a.communities));
            }
            let next = self.peers.len() as u32;
            let id = *self.peers.entry(peer(&group[0])).or_insert(next);
            for (prefix, (has_action, distinct)) in seen {
                let stream = self.streams.entry((id, prefix)).or_default();
                stream.has_action |= has_action;
                stream.attr_count = stream.attr_count.max(distinct.len());
            }
        }
        self.trained = true;
    }
}

/// The point checks: novel namespace values and injected action
/// communities on one announcement of a stream whose training profile
/// is `trained`. Appends any alerts to `out`.
pub(crate) fn point_checks(
    profiler: &CommunityProfiler,
    cfg: &AnomalyConfig,
    trained: StreamProfile,
    key: &SessionKey,
    u: &RouteUpdate,
    communities: &CommunitySet,
    out: &mut Vec<Alert>,
) {
    for c in communities.iter_classic() {
        let kind = if let Some(name) = c.well_known_name() {
            if trained.has_action {
                continue;
            }
            AlertKind::BlackholeInjection { community: *c, name }
        } else {
            // The common case first: a trained value is one probe.
            if profiler.values.contains(c) {
                continue;
            }
            match profiler.namespace_sizes.get(&c.asn_part()) {
                Some(&known) if known >= cfg.min_namespace_size => {
                    AlertKind::NovelCommunity { community: *c }
                }
                _ => continue,
            }
        };
        out.push(Alert::new(u.time_us, Some(key.clone()), Some(u.prefix), kind));
    }
}

/// The exploration-burst check: a stream's distinct-attribute count
/// in one window against its training baseline. Returns the alert if
/// the burst fires.
pub(crate) fn burst_check(
    cfg: &AnomalyConfig,
    trained: StreamProfile,
    key: &SessionKey,
    prefix: Prefix,
    observed: usize,
    first_seen_us: u64,
) -> Option<Alert> {
    let baseline = trained.baseline();
    (observed >= cfg.burst_min_observed && observed > cfg.burst_factor * baseline).then(|| {
        Alert::new(
            first_seen_us,
            Some(key.clone()),
            Some(prefix),
            AlertKind::BaselineShift {
                metric: ShiftMetric::DistinctAttrs,
                community: None,
                observed: observed as u64,
                baseline: baseline as u64,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::drain_archive;
    use crate::watch::{WatchConfig, WatchSink};
    use kcc_bgp_types::community::well_known::BLACKHOLE;
    use kcc_bgp_types::{Community, CommunitySet, PathAttributes};

    fn key() -> SessionKey {
        SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap())
    }

    fn prefix() -> Prefix {
        "84.205.64.0/24".parse().unwrap()
    }

    fn announce(t: u64, comms: &[(u16, u16)]) -> kcc_bgp_types::RouteUpdate {
        let attrs = PathAttributes {
            as_path: "100 200 900".parse().unwrap(),
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        };
        kcc_bgp_types::RouteUpdate::announce(t, prefix(), attrs)
    }

    fn training_archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        for v in 0..6u16 {
            a.record(&key(), announce(v as u64, &[(200, 2500 + v)]));
        }
        a
    }

    /// The stream every test day runs on, as [`Alert::to_line`] names it.
    const STREAM: &str = "session=rrc00:AS100@10.0.0.1 prefix=84.205.64.0/24";

    /// What one whole-day, profiled [`WatchSink`] pass over `test`
    /// reports, as the pinned serialization (recorded from the
    /// pre-`WatchSink` batch sink).
    fn detect(trained: CommunityProfiler, test: &UpdateArchive, cfg: AnomalyConfig) -> Vec<String> {
        let whole_day = WatchConfig { anomaly: cfg, window_us: u64::MAX, ..Default::default() };
        let sink = WatchSink::new(whole_day).with_profile(Arc::new(trained));
        drain_archive(test, sink).finish().alerts.iter().map(Alert::to_line).collect()
    }

    fn set(comms: &[(u16, u16)]) -> CommunitySet {
        CommunitySet::from_classic(comms.iter().map(|&(a, v)| Community::from_parts(a, v)))
    }

    #[test]
    fn attr_ids_are_equal_iff_sets_are() {
        let mut attrs = AttrInterner::default();
        let mut with_large = set(&[(200, 1)]);
        with_large.insert_large(LargeCommunity::new(200, 1, 0));
        let sets = [set(&[]), set(&[(200, 1)]), set(&[(200, 1), (200, 2)]), with_large];
        let ids: Vec<u32> = sets.iter().map(|s| attrs.intern(s)).collect();
        assert_eq!(ids, [0, 1, 2, 3], "dense, in first-sight order");
        let again: Vec<u32> = sets.iter().rev().map(|s| attrs.intern(s)).collect();
        assert_eq!(again, [3, 2, 1, 0], "a known set keeps its id");
    }

    #[test]
    fn attr_ids_survive_hash_collisions() {
        // Three different sets forced onto one hash: each is compared by
        // value, steps past the others, and is found again.
        let mut attrs = AttrInterner::default();
        let sets = [set(&[(200, 1)]), set(&[(200, 2)]), set(&[(300, 1), (300, 2)])];
        let mut intern = |s: &CommunitySet| attrs.intern_hashed(7, s.classic(), &[], &[]);
        let ids: Vec<u32> = sets.iter().map(&mut intern).collect();
        assert_eq!(ids, [0, 1, 2]);
        let again: Vec<u32> = sets.iter().rev().map(&mut intern).collect();
        assert_eq!(again, [2, 1, 0]);
    }

    #[test]
    fn absorbed_attr_ids_map_by_value() {
        let (mut ours, mut theirs) = (AttrInterner::default(), AttrInterner::default());
        ours.intern(&set(&[(200, 1)]));
        ours.intern(&set(&[(200, 2)]));
        theirs.intern(&set(&[(200, 3)]));
        theirs.intern(&set(&[(200, 1)]));
        assert_eq!(ours.absorb(theirs), [2, 0], "a new set appends, a shared one maps onto ours");
        assert_eq!(ours.intern(&set(&[(200, 3)])), 2);
    }

    #[test]
    fn novel_value_flagged() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(200, 2505)])); // trained value
        test.record(&key(), announce(101, &[(200, 7777)])); // novel
        let found = detect(p, &test, AnomalyConfig::default());
        assert_eq!(
            found,
            [format!(
                "time_us=101 severity=info kind=novel-community {STREAM} novel-community 200:7777"
            )]
        );
    }

    #[test]
    fn small_namespaces_not_flagged() {
        // Namespace 300 has only 1 trained value: too small to judge.
        let mut a = training_archive();
        a.record(&key(), announce(50, &[(300, 1)]));
        let mut p = CommunityProfiler::new();
        p.train(&a);
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(300, 99)]));
        assert!(detect(p, &test, AnomalyConfig::default()).is_empty());
    }

    #[test]
    fn blackhole_on_clean_stream_flagged() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]));
        let found = detect(p, &test, AnomalyConfig::default());
        assert_eq!(found, [format!("time_us=100 severity=critical kind=blackhole-injection {STREAM} blackhole-injection 65535:666 (BLACKHOLE)")]);
    }

    #[test]
    fn trained_action_stream_not_flagged() {
        // A stream that already used blackholing in training is normal.
        let mut a = training_archive();
        a.record(&key(), announce(10, &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]));
        let mut p = CommunityProfiler::new();
        p.train(&a);
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]));
        assert!(detect(p, &test, AnomalyConfig::default()).is_empty());
    }

    #[test]
    fn exploration_burst_flagged() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive()); // baseline: 6 distinct attrs
        let mut test = UpdateArchive::new(0);
        for v in 0..30u16 {
            test.record(&key(), announce(v as u64, &[(200, 2500 + v)]));
        }
        let cfg = AnomalyConfig { burst_factor: 4, burst_min_observed: 8, ..Default::default() };
        // One burst alert, stamped with the stream's first sight, then the
        // 24 of the 30 values training never saw.
        let mut want = vec![format!("time_us=0 severity=warning kind=baseline-shift {STREAM} baseline-shift distinct-attrs 30 vs baseline 6")];
        want.extend((6..30).map(|v| {
            format!(
                "time_us={v} severity=info kind=novel-community {STREAM} novel-community 200:{}",
                2500 + v
            )
        }));
        assert_eq!(detect(p, &test, cfg), want);
    }

    #[test]
    fn profile_follows_the_peer_across_collectors() {
        // Trained under the name `train`, judged under `rrc00`: the same
        // peer's stream finds its profile, so the trained blackhole is normal.
        let trained_as = SessionKey { collector: "train".into(), ..key() };
        let mut a = UpdateArchive::new(0);
        a.record(&trained_as, announce(10, &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]));
        let mut p = CommunityProfiler::new();
        p.train(&a);
        assert!(p.stream(&key(), prefix()).has_action);
        let other_peer = SessionKey::new("rrc00", Asn(100), "10.0.0.2".parse().unwrap());
        assert!(!p.stream(&other_peer, prefix()).has_action);
    }

    #[test]
    fn quiet_day_produces_no_anomalies() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let found = detect(p, &training_archive(), AnomalyConfig::default());
        assert!(found.is_empty(), "training data itself must be clean: {found:?}");
    }
}
