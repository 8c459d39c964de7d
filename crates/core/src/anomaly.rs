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
//!   [`ShiftMetric::DistinctAttrs`](crate::alert::ShiftMetric::DistinctAttrs):
//!   a stream revealing many more distinct community attributes per phase
//!   than its training baseline (an exploration burst).
//!
//! The online service in [`watch`](crate::watch) runs the same checks
//! over sliding windows; with a whole-day window its output is
//! byte-equal to [`CommunityProfiler::detect`].

use std::collections::{BTreeMap, HashMap, HashSet};

#[cfg(test)]
use kcc_bgp_types::Asn;
use kcc_bgp_types::{MessageKind, Prefix, RouteUpdate};
use kcc_collector::{ArchiveSource, SessionKey, UpdateArchive};

use crate::alert::{sort_alerts, Alert, AlertKind, ShiftMetric};
use crate::pipeline::{AnalysisSink, Merge, PipelineBuilder};

/// Learned profiles.
#[derive(Debug, Clone, Default)]
pub struct CommunityProfiler {
    /// Per 16-bit namespace: the set of values seen in training.
    namespace_values: BTreeMap<u16, HashSet<u16>>,
    /// Per stream: whether any well-known action community was seen.
    stream_has_action: HashMap<(SessionKey, Prefix), bool>,
    /// Per stream: distinct community attributes seen in training.
    stream_attr_count: HashMap<(SessionKey, Prefix), usize>,
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
        self.namespace_values.len()
    }

    /// The trained value set for a 16-bit namespace, if any.
    pub(crate) fn namespace(&self, asn_part: u16) -> Option<&HashSet<u16>> {
        self.namespace_values.get(&asn_part)
    }

    /// Whether a stream carried a well-known action community in training.
    pub(crate) fn stream_trained_action(&self, stream: &(SessionKey, Prefix)) -> bool {
        self.stream_has_action.get(stream).copied().unwrap_or(false)
    }

    /// A stream's distinct-attribute training baseline (≥ 1: unseen
    /// streams get the most conservative baseline).
    pub(crate) fn stream_baseline(&self, stream: &(SessionKey, Prefix)) -> usize {
        self.stream_attr_count.get(stream).copied().unwrap_or(1).max(1)
    }

    /// Learns profiles from a training archive (e.g. yesterday's data).
    pub fn train(&mut self, archive: &UpdateArchive) {
        for (key, rec) in archive.sessions() {
            let mut per_stream_attrs: HashMap<Prefix, HashSet<String>> = HashMap::new();
            for u in &rec.updates {
                let MessageKind::Announcement(attrs) = &u.kind else { continue };
                let stream = (key.clone(), u.prefix);
                for c in attrs.communities.iter_classic() {
                    self.namespace_values.entry(c.asn_part()).or_default().insert(c.value_part());
                    if c.well_known_name().is_some() {
                        self.stream_has_action.insert(stream.clone(), true);
                    }
                }
                self.stream_has_action.entry(stream).or_insert(false);
                per_stream_attrs
                    .entry(u.prefix)
                    .or_default()
                    .insert(attrs.communities.canonical_key());
            }
            for (prefix, attrs) in per_stream_attrs {
                let e = self.stream_attr_count.entry((key.clone(), prefix)).or_insert(0);
                *e = (*e).max(attrs.len());
            }
        }
        self.trained = true;
    }

    /// Flags anomalies in a detection archive against the trained
    /// profiles — the batch wrapper over [`AnomalySink`].
    pub fn detect(&self, archive: &UpdateArchive, cfg: &AnomalyConfig) -> Vec<Alert> {
        PipelineBuilder::new(ArchiveSource::new(archive))
            .sink(AnomalySink::new(self, *cfg))
            .run()
            .expect("archive sources cannot fail")
            .sink
            .finish()
    }
}

/// The point checks shared by the batch sink and the online watch
/// service: novel namespace values and injected action communities on
/// one announcement. Appends any alerts to `out`.
pub(crate) fn point_checks(
    profiler: &CommunityProfiler,
    cfg: &AnomalyConfig,
    key: &SessionKey,
    u: &RouteUpdate,
    out: &mut Vec<Alert>,
) {
    let MessageKind::Announcement(attrs) = &u.kind else { return };
    let stream = (key.clone(), u.prefix);
    for c in attrs.communities.iter_classic() {
        if let Some(name) = c.well_known_name() {
            if !profiler.stream_trained_action(&stream) {
                out.push(Alert::new(
                    u.time_us,
                    Some(key.clone()),
                    Some(u.prefix),
                    AlertKind::BlackholeInjection { community: *c, name },
                ));
            }
            continue;
        }
        if let Some(values) = profiler.namespace(c.asn_part()) {
            if values.len() >= cfg.min_namespace_size && !values.contains(&c.value_part()) {
                out.push(Alert::new(
                    u.time_us,
                    Some(key.clone()),
                    Some(u.prefix),
                    AlertKind::NovelCommunity { community: *c },
                ));
            }
        }
    }
}

/// The exploration-burst check shared by the batch sink and the online
/// watch service: a stream's distinct-attribute count against its
/// training baseline. Returns the alert if the burst fires.
pub(crate) fn burst_check(
    profiler: &CommunityProfiler,
    cfg: &AnomalyConfig,
    stream: &(SessionKey, Prefix),
    observed: usize,
    first_seen_us: u64,
) -> Option<Alert> {
    let baseline = profiler.stream_baseline(stream);
    if observed >= cfg.burst_min_observed && observed > cfg.burst_factor * baseline {
        Some(Alert::new(
            first_seen_us,
            Some(stream.0.clone()),
            Some(stream.1),
            AlertKind::BaselineShift {
                metric: ShiftMetric::DistinctAttrs,
                community: None,
                observed: observed as u64,
                baseline: baseline as u64,
            },
        ))
    } else {
        None
    }
}

/// Streaming anomaly detection against a trained profiler. Per-stream
/// state is the set of distinct community attributes seen (for the burst
/// check) — bounded by attribute diversity, not update volume.
#[derive(Debug)]
pub struct AnomalySink<'a> {
    profiler: &'a CommunityProfiler,
    cfg: AnomalyConfig,
    alerts: Vec<Alert>,
    per_stream_attrs: HashMap<(SessionKey, Prefix), HashSet<String>>,
    first_seen: HashMap<(SessionKey, Prefix), u64>,
}

impl<'a> AnomalySink<'a> {
    /// A detection sink over a trained profiler.
    ///
    /// # Panics
    /// If the profiler was never trained.
    pub fn new(profiler: &'a CommunityProfiler, cfg: AnomalyConfig) -> Self {
        assert!(profiler.trained, "profiler must be trained before detection");
        AnomalySink {
            profiler,
            cfg,
            alerts: Vec::new(),
            per_stream_attrs: HashMap::new(),
            first_seen: HashMap::new(),
        }
    }

    /// All alerts (point anomalies plus exploration bursts), in the
    /// canonical order.
    pub fn finish(self) -> Vec<Alert> {
        let mut alerts = self.alerts;
        for (stream, attrs) in &self.per_stream_attrs {
            let first = self.first_seen.get(stream).copied().unwrap_or(0);
            alerts.extend(burst_check(self.profiler, &self.cfg, stream, attrs.len(), first));
        }
        sort_alerts(&mut alerts);
        alerts
    }
}

impl AnalysisSink for AnomalySink<'_> {
    fn on_update(&mut self, key: &SessionKey, u: &RouteUpdate) {
        let MessageKind::Announcement(attrs) = &u.kind else { return };
        point_checks(self.profiler, &self.cfg, key, u, &mut self.alerts);
        let stream = (key.clone(), u.prefix);
        self.per_stream_attrs
            .entry(stream.clone())
            .or_default()
            .insert(attrs.communities.canonical_key());
        self.first_seen.entry(stream).or_insert(u.time_us);
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for AnomalySink<'_> {
    fn merge(&mut self, mut other: Self) {
        self.alerts.append(&mut other.alerts);
        // Streams are keyed by session: disjoint across collectors.
        self.per_stream_attrs.extend(other.per_stream_attrs);
        self.first_seen.extend(other.first_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn novel_value_flagged() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(200, 2505)])); // trained value
        test.record(&key(), announce(101, &[(200, 7777)])); // novel
        let found = p.detect(&test, &AnomalyConfig::default());
        assert_eq!(found.len(), 1);
        assert_eq!(
            found[0].kind,
            AlertKind::NovelCommunity { community: Community::from_parts(200, 7777) }
        );
        assert_eq!(found[0].session.as_ref(), Some(&key()));
        assert_eq!(found[0].prefix, Some(prefix()));
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
        assert!(p.detect(&test, &AnomalyConfig::default()).is_empty());
    }

    #[test]
    fn blackhole_on_clean_stream_flagged() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let mut test = UpdateArchive::new(0);
        test.record(&key(), announce(100, &[(BLACKHOLE.asn_part(), BLACKHOLE.value_part())]));
        let found = p.detect(&test, &AnomalyConfig::default());
        assert_eq!(found.len(), 1);
        assert!(matches!(found[0].kind, AlertKind::BlackholeInjection { name: "BLACKHOLE", .. }));
        assert_eq!(found[0].severity, crate::alert::Severity::Critical);
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
        assert!(p.detect(&test, &AnomalyConfig::default()).is_empty());
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
        let found = p.detect(&test, &cfg);
        // 24 of the 30 values are novel + one burst alert.
        let bursts: Vec<_> =
            found.iter().filter(|a| matches!(a.kind, AlertKind::BaselineShift { .. })).collect();
        assert_eq!(bursts.len(), 1);
        if let AlertKind::BaselineShift { metric, observed, baseline, community } = &bursts[0].kind
        {
            assert_eq!(*metric, ShiftMetric::DistinctAttrs);
            assert_eq!(*observed, 30);
            assert_eq!(*baseline, 6);
            assert_eq!(*community, None);
        }
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn detect_before_train_panics() {
        let p = CommunityProfiler::new();
        p.detect(&UpdateArchive::new(0), &AnomalyConfig::default());
    }

    #[test]
    fn quiet_day_produces_no_anomalies() {
        let mut p = CommunityProfiler::new();
        p.train(&training_archive());
        let found = p.detect(&training_archive(), &AnomalyConfig::default());
        assert!(found.is_empty(), "training data itself must be clean: {found:?}");
    }
}
