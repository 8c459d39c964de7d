//! The March-2020-style snapshot generator (*d_mar20*).
//!
//! Produces a full collector-day: background streams for thousands of
//! prefixes plus beacon streams on a subset of sessions, with bogon
//! injection (so the cleaning stage has real work), route-server peers,
//! and second-granularity collectors. Scale is set by
//! [`Mar20Config::target_announcements`]; the paper's day has ~1.008 B
//! announcements, the default here is 300 k (a ~1/3400 scale model with
//! the same per-stream statistics). Those statistics — events per
//! stream, the stray class-B share, the bogon rate — are constants here;
//! [`Mar20Config`] holds only what callers vary.

use kcc_bgp_types::{AsPath, Asn, PathAttributes, Prefix, RouteUpdate};
use kcc_collector::beacon::ripe_beacon_prefixes;
use kcc_collector::{BeaconSchedule, PeerMeta, UpdateArchive};
use kcc_core::AllocationRegistry;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::beacons::generate_beacon_stream;
use crate::streams::{generate_stream, sample_event_count, StreamClass, StreamTemplate};
use crate::universe::{build_universe, Universe, UniverseConfig};

/// Microseconds per day.
pub const DAY_US: u64 = 24 * 3600 * 1_000_000;
/// 2020-03-15 00:00:00 UTC.
pub(crate) const MAR15_2020_EPOCH: u32 = 1_584_230_400;

/// Snapshot generator configuration.
#[derive(Debug, Clone)]
pub struct Mar20Config {
    /// Seed for the whole generation.
    pub seed: u64,
    /// Universe shape.
    pub universe: UniverseConfig,
    /// Approximate number of background announcements to generate.
    pub target_announcements: u64,
    /// Probability a stream of a *non-cleaning* peer is class A (tagged,
    /// visible). Streams of egress-cleaning peers are always class B, so
    /// the overall visible share is `(1 - PEER_CLEANS_PROB) ×` this.
    pub class_tagged_visible: f64,
    /// Beacon prefixes (origin AS12654).
    pub beacon_prefixes: Vec<Prefix>,
    /// Fraction of sessions that carry the beacons (paper: 577/1504).
    pub beacon_session_fraction: f64,
    /// Archive epoch.
    pub epoch_seconds: u32,
}

impl Default for Mar20Config {
    fn default() -> Self {
        Mar20Config {
            seed: 42,
            universe: UniverseConfig::default(),
            target_announcements: 300_000,
            class_tagged_visible: 0.88,
            beacon_prefixes: ripe_beacon_prefixes(),
            beacon_session_fraction: 0.4,
            epoch_seconds: MAR15_2020_EPOCH,
        }
    }
}

/// Mean events per active stream (heavy-tailed).
const MEAN_EVENTS_PER_STREAM: f64 = 6.0;
/// Probability a non-cleaning peer's stream is class B anyway (an
/// upstream cleaned it).
const CLASS_TAGGED_CLEANED: f64 = 0.02;
/// Rate of bogon announcements (unallocated ASN or prefix) per session,
/// relative to its background stream count.
const BOGON_RATE: f64 = 0.002;

/// Everything the generator produces.
#[derive(Debug)]
pub struct GenOutput {
    /// The collector-day archive (all collectors merged; sessions carry
    /// their collector name).
    pub archive: UpdateArchive,
    /// The allocation registry covering the universe (bogons excluded).
    pub registry: AllocationRegistry,
    /// The generated universe.
    pub universe: Universe,
    /// The beacon prefixes in play.
    pub beacon_prefixes: Vec<Prefix>,
}

/// The beacon origin AS (RIPE RIS).
pub const BEACON_ORIGIN: Asn = Asn(12_654);

fn roll_class(rng: &mut StdRng, cfg: &Mar20Config, peer_cleans: bool) -> StreamClass {
    if peer_cleans {
        return StreamClass::TaggedCleaned;
    }
    let r: f64 = rng.gen();
    if r < cfg.class_tagged_visible {
        StreamClass::TaggedVisible
    } else if r < cfg.class_tagged_visible + CLASS_TAGGED_CLEANED {
        StreamClass::TaggedCleaned
    } else {
        StreamClass::Untagged
    }
}

/// Streams the snapshot session by session — the constant-memory form of
/// [`generate_mar20`]. At any moment the source holds the universe, the
/// registry and **one** session's updates; a 1-billion-announcement day
/// never exists in memory at once.
///
/// The RNG consumption order is identical to the batch generator's (which
/// is implemented as a collector over this source), so both produce
/// byte-identical archives for the same [`Mar20Config`].
#[derive(Debug)]
pub struct Mar20Source {
    cfg: Mar20Config,
    universe: Universe,
    traits: crate::universe::CollectorTraits,
    registry: AllocationRegistry,
    schedule: BeaconSchedule,
    rng: StdRng,
    streams_per_session: usize,
    peer_idx: usize,
    session_idx: usize,
    pending: std::collections::VecDeque<kcc_collector::SourceItem>,
}

impl Mar20Source {
    /// Builds the universe and registry and positions the stream at the
    /// first session.
    pub fn new(cfg: &Mar20Config) -> Self {
        let (universe, traits) = build_universe(&cfg.universe);
        let rng = StdRng::seed_from_u64(cfg.seed);

        // Allocation registry: the legitimate universe, allocated from
        // day 0.
        let mut registry = AllocationRegistry::new();
        for p in &universe.peers {
            registry.register_asn(p.asn, 0);
        }
        for t in &universe.transits {
            registry.register_asn(t.asn, 0);
        }
        for &o in &universe.origins {
            registry.register_asn(o, 0);
        }
        registry.register_asn(BEACON_ORIGIN, 0);
        for spec in &universe.prefixes {
            registry.register_block(spec.prefix, 0);
        }
        for bp in &cfg.beacon_prefixes {
            registry.register_block(*bp, 0);
        }

        let total_sessions: usize = universe.peers.iter().map(|p| p.sessions.len()).sum();
        let streams_per_session = ((cfg.target_announcements as f64
            / total_sessions.max(1) as f64
            / (MEAN_EVENTS_PER_STREAM + 1.0))
            .ceil() as usize)
            .max(1);

        Mar20Source {
            cfg: cfg.clone(),
            universe,
            traits,
            registry,
            schedule: BeaconSchedule::default(),
            rng,
            streams_per_session,
            peer_idx: 0,
            session_idx: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// The allocation registry covering the universe (bogons excluded) —
    /// available before or during streaming, for the cleaning stage.
    pub fn registry(&self) -> &AllocationRegistry {
        &self.registry
    }

    /// The generated universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The `(ASN, IP)` endpoints of route-server peers — session
    /// metadata MRT cannot carry, needed to rebuild `PeerMeta` when the
    /// generated stream goes through MRT bytes.
    pub fn route_server_peers(&self) -> Vec<(Asn, std::net::IpAddr)> {
        self.universe
            .peers
            .iter()
            .filter(|p| p.route_server)
            .flat_map(|p| p.sessions.iter().map(|k| (k.peer_asn, k.peer_ip)))
            .collect()
    }

    /// Generates one session's day and queues it.
    fn generate_next_session(&mut self) {
        while self.peer_idx < self.universe.peers.len() {
            let peer = &self.universe.peers[self.peer_idx];
            if self.session_idx >= peer.sessions.len() {
                self.peer_idx += 1;
                self.session_idx = 0;
                continue;
            }
            let key = &peer.sessions[self.session_idx];
            self.session_idx += 1;

            let second_granularity = self
                .universe
                .collector_index(&key.collector)
                .map(|i| self.traits.second_granularity[i])
                .unwrap_or(false);
            let meta = std::sync::Arc::new(PeerMeta {
                key: key.clone(),
                route_server: peer.route_server,
                second_granularity,
            });

            let mut session_updates: Vec<RouteUpdate> = Vec::new();
            let rng = &mut self.rng;

            // Background streams.
            for _ in 0..self.streams_per_session {
                let spec = &self.universe.prefixes[rng.gen_range(0..self.universe.prefixes.len())];
                let class = roll_class(rng, &self.cfg, peer.cleans_egress);
                let template = StreamTemplate::build(
                    rng,
                    peer,
                    spec,
                    &self.universe.transits,
                    class,
                    key.peer_ip,
                );
                let n_events = sample_event_count(rng, MEAN_EVENTS_PER_STREAM, 200);
                generate_stream(
                    rng,
                    &template,
                    spec.prefix,
                    n_events,
                    DAY_US,
                    &mut session_updates,
                );
            }

            // Bogons: unallocated ASN in the path or unallocated prefix.
            let n_bogons = (self.streams_per_session as f64 * BOGON_RATE * 10.0).round() as usize;
            for _ in 0..n_bogons {
                let t = rng.gen_range(0..DAY_US);
                if rng.gen_bool(0.5) {
                    // Unallocated (documentation-range) ASN in the path.
                    let attrs = PathAttributes {
                        as_path: AsPath::from_asns([peer.asn, Asn(64_499), BEACON_ORIGIN]),
                        next_hop: key.peer_ip,
                        ..Default::default()
                    };
                    let spec =
                        &self.universe.prefixes[rng.gen_range(0..self.universe.prefixes.len())];
                    session_updates.push(RouteUpdate::announce(t, spec.prefix, attrs));
                } else {
                    // Unallocated prefix (TEST-NET-3 is never registered).
                    let attrs = PathAttributes {
                        as_path: AsPath::from_asns([peer.asn, self.universe.origins[0]]),
                        next_hop: key.peer_ip,
                        ..Default::default()
                    };
                    let bogon: Prefix = "203.0.113.0/24".parse().expect("literal prefix");
                    session_updates.push(RouteUpdate::announce(t, bogon, attrs));
                }
            }

            // Beacon streams on a subset of sessions.
            if rng.gen_bool(self.cfg.beacon_session_fraction) {
                for bp in &self.cfg.beacon_prefixes {
                    let spec = crate::universe::PrefixSpec { prefix: *bp, origin: BEACON_ORIGIN };
                    let class = if peer.cleans_egress {
                        StreamClass::TaggedCleaned
                    } else if rng.gen_bool(0.65) {
                        StreamClass::TaggedVisible
                    } else {
                        StreamClass::Untagged
                    };
                    let template = StreamTemplate::build(
                        rng,
                        peer,
                        &spec,
                        &self.universe.transits,
                        class,
                        key.peer_ip,
                    );
                    generate_beacon_stream(
                        rng,
                        &template,
                        &self.schedule,
                        *bp,
                        0,
                        &mut session_updates,
                    );
                }
            }

            session_updates.sort_by_key(|u| u.time_us);
            if second_granularity {
                kcc_collector::timestamps::truncate_to_seconds(&mut session_updates);
            }
            self.pending
                .push_back(kcc_collector::SourceItem::Session(std::sync::Arc::clone(&meta)));
            self.pending.extend(
                session_updates
                    .into_iter()
                    .map(|u| kcc_collector::SourceItem::Update(std::sync::Arc::clone(&meta), u)),
            );
            return;
        }
    }
}

impl kcc_collector::UpdateSource for Mar20Source {
    fn next_item(
        &mut self,
    ) -> Result<Option<kcc_collector::SourceItem>, kcc_collector::SourceError> {
        while self.pending.is_empty() && self.peer_idx < self.universe.peers.len() {
            self.generate_next_session();
        }
        Ok(self.pending.pop_front())
    }
}

/// Generates the snapshot — the batch wrapper that drains a
/// [`Mar20Source`] into an archive.
pub fn generate_mar20(cfg: &Mar20Config) -> GenOutput {
    let mut source = Mar20Source::new(cfg);
    let archive = UpdateArchive::from_source(&mut source, cfg.epoch_seconds)
        .expect("generated sources cannot fail");
    GenOutput {
        archive,
        registry: source.registry,
        universe: source.universe,
        beacon_prefixes: cfg.beacon_prefixes.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_core::{classify_archive, clean_archive, AnnouncementType, CleaningConfig};

    fn small_config() -> Mar20Config {
        Mar20Config {
            target_announcements: 20_000,
            universe: UniverseConfig {
                n_collectors: 4,
                n_peers: 20,
                n_sessions: 40,
                n_prefixes_v4: 400,
                n_prefixes_v6: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn generates_roughly_target_volume() {
        let out = generate_mar20(&small_config());
        let n = out.archive.announcement_count() as f64;
        assert!(n > 10_000.0, "too few announcements: {n}");
        assert!(n < 80_000.0, "too many announcements: {n}");
    }

    #[test]
    fn deterministic() {
        let cfg = small_config();
        let a = generate_mar20(&cfg);
        let b = generate_mar20(&cfg);
        assert_eq!(a.archive.update_count(), b.archive.update_count());
        assert_eq!(a.archive.announcement_count(), b.archive.announcement_count());
    }

    #[test]
    fn cleaning_removes_bogons_only() {
        let out = generate_mar20(&small_config());
        let mut archive = out.archive.clone();
        let before = archive.update_count() as u64;
        let report = clean_archive(&mut archive, &out.registry, &CleaningConfig::default());
        assert!(report.removed_unallocated_asn > 0, "no ASN bogons generated");
        assert!(report.removed_unallocated_prefix > 0, "no prefix bogons generated");
        let removed = report.removed_unallocated_asn + report.removed_unallocated_prefix;
        assert!(
            (removed as f64) < before as f64 * 0.02,
            "bogons should be rare: {removed}/{before}"
        );
        assert_eq!(report.kept + removed, before);
    }

    #[test]
    fn type_mix_matches_paper_shape() {
        // The headline reproduction: ~half of announcements show no path
        // change, and half of those change only the community attribute.
        let out = generate_mar20(&small_config());
        let mut archive = out.archive.clone();
        clean_archive(&mut archive, &out.registry, &CleaningConfig::default());
        let c = classify_archive(&archive);
        let pc = c.share(AnnouncementType::Pc);
        let pn = c.share(AnnouncementType::Pn);
        let nc = c.share(AnnouncementType::Nc);
        let nn = c.share(AnnouncementType::Nn);
        let x = c.share(AnnouncementType::Xc) + c.share(AnnouncementType::Xn);
        assert!((28.0..42.0).contains(&pc), "pc {pc:.1}% out of band");
        assert!((10.0..22.0).contains(&pn), "pn {pn:.1}% out of band");
        assert!((18.0..32.0).contains(&nc), "nc {nc:.1}% out of band");
        assert!((18.0..33.0).contains(&nn), "nn {nn:.1}% out of band");
        assert!(x < 3.0, "x types should be ~1%: {x:.1}%");
        // nc + nn ≈ half of all announcements (paper: 50.2%).
        assert!((40.0..62.0).contains(&(nc + nn)), "no-path-change {:.1}%", nc + nn);
    }

    #[test]
    fn beacon_subset_present() {
        let out = generate_mar20(&small_config());
        let beacon_updates: usize = out
            .archive
            .sessions()
            .flat_map(|(_, rec)| &rec.updates)
            .filter(|u| out.beacon_prefixes.contains(&u.prefix))
            .count();
        assert!(beacon_updates > 0, "no beacon traffic generated");
    }

    #[test]
    fn second_granularity_collectors_truncate() {
        let mut cfg = small_config();
        cfg.universe.second_granularity_prob = 1.0;
        let out = generate_mar20(&cfg);
        let mut found = false;
        for (_, rec) in out.archive.sessions() {
            if rec.meta.second_granularity && !rec.updates.is_empty() {
                found = true;
                assert!(rec.updates.iter().all(|u| u.time_us % 1_000_000 == 0));
            }
        }
        assert!(found, "no second-granularity session generated");
    }
}
