//! Community exploration detection (paper §6, Fig. 4).
//!
//! "Analogously to path exploration, we refer to this behavior as
//! *community exploration*: instead of multiple paths being announced,
//! multiple communities for a single path are announced." The detector
//! finds, per `(session, prefix)` stream and per withdrawal phase, the
//! bursts of `nc` announcements and decodes the geo locations their
//! changing communities reveal.

use std::collections::BTreeMap;

use kcc_bgp_types::geo::{decode_geo, GeoScope};
use kcc_bgp_types::Prefix;
use kcc_collector::beacon::{self, DAY_US};
use kcc_collector::{BeaconPhase, SessionKey, UpdateArchive};

use crate::classify::AnnouncementType;
use crate::pipeline::{drain_archive, AnalysisSink, Merge};
use crate::stream::{ClassifiedEvent, EventKind};

/// One detected community-exploration episode: a withdrawal phase of one
/// `(session, prefix)` stream containing `nc` traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationEvent {
    /// The session.
    pub session: SessionKey,
    /// The beacon prefix.
    pub prefix: Prefix,
    /// Day index (0-based) and withdrawal phase index within the day.
    pub day: u32,
    /// Withdrawal phase index (0–5 for the RIS schedule).
    pub phase: u8,
    /// Announcements of each type inside the phase.
    pub pc_count: u32,
    /// `nc` announcements inside the phase.
    pub nc_count: u32,
    /// `nn` announcements inside the phase.
    pub nn_count: u32,
    /// Distinct geo locations decoded from the phase's community
    /// attributes, as `(tagging ASN high half, scope, id)`.
    pub locations: Vec<(u16, GeoScope, u16)>,
}

impl ExplorationEvent {
    /// True if this phase shows community exploration (more than one
    /// distinct location revealed, with nc traffic).
    pub(crate) fn is_exploration(&self) -> bool {
        self.nc_count > 0 && self.locations.len() > 1
    }
}

/// Detects community-exploration episodes incrementally from classified
/// events. State is one counter set per *active episode* — bounded by
/// beacon streams × phases, not by update volume.
#[derive(Debug, Clone)]
pub(crate) struct ExplorationSink {
    beacon_prefixes: Vec<Prefix>,
    episodes: BTreeMap<(SessionKey, Prefix, u32, u8), ExplorationEvent>,
}

impl ExplorationSink {
    /// A detector on the RIS timetable for the given beacon prefixes.
    pub fn new(beacon_prefixes: &[Prefix]) -> Self {
        ExplorationSink { beacon_prefixes: beacon_prefixes.to_vec(), episodes: BTreeMap::new() }
    }

    /// The detected episodes, in canonical (session, prefix, day, phase)
    /// order.
    pub fn finish(self) -> Vec<ExplorationEvent> {
        self.episodes.into_values().collect()
    }
}

impl AnalysisSink for ExplorationSink {
    fn on_event(&mut self, key: &SessionKey, e: &ClassifiedEvent) {
        if !self.beacon_prefixes.contains(&e.prefix) {
            return;
        }
        let day = (e.time_us / DAY_US) as u32;
        let BeaconPhase::Withdrawal(phase) = beacon::phase_of(e.time_us) else {
            return;
        };
        let EventKind::Classified { atype, .. } = &e.kind else {
            return;
        };
        let episode =
            self.episodes.entry((key.clone(), e.prefix, day, phase)).or_insert_with(|| {
                ExplorationEvent {
                    session: key.clone(),
                    prefix: e.prefix,
                    day,
                    phase,
                    pc_count: 0,
                    nc_count: 0,
                    nn_count: 0,
                    locations: Vec::new(),
                }
            });
        match atype {
            AnnouncementType::Pc | AnnouncementType::Xc => episode.pc_count += 1,
            AnnouncementType::Nc => episode.nc_count += 1,
            AnnouncementType::Nn => episode.nn_count += 1,
            _ => {}
        }
        if let Some(attrs) = &e.attrs {
            for c in attrs.communities.iter_classic() {
                if let Some((scope, id)) = decode_geo(*c) {
                    let loc = (c.asn_part(), scope, id);
                    if !episode.locations.contains(&loc) {
                        episode.locations.push(loc);
                    }
                }
            }
        }
    }
}

impl Merge for ExplorationSink {
    fn merge(&mut self, other: Self) {
        // Episode keys start with the session, and sessions are disjoint
        // across collectors.
        self.episodes.extend(other.episodes);
    }
}

/// The exploration episodes of an archive on the given beacon prefixes —
/// `ExplorationSink` run over it.
pub fn detect(archive: &UpdateArchive, beacon_prefixes: &[Prefix]) -> Vec<ExplorationEvent> {
    drain_archive(archive, ExplorationSink::new(beacon_prefixes)).finish()
}

/// Summary over all episodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExplorationSummary {
    /// Episodes with any classified announcement in a withdrawal phase.
    pub episodes: u64,
    /// Episodes qualifying as community exploration.
    pub exploration_episodes: u64,
    /// Total `nc` announcements inside withdrawal phases.
    pub total_nc: u64,
    /// Total distinct locations revealed (summed per episode).
    pub total_locations: u64,
}

/// Summarizes detected episodes.
pub fn summarize(events: &[ExplorationEvent]) -> ExplorationSummary {
    let mut s = ExplorationSummary { episodes: events.len() as u64, ..Default::default() };
    for e in events {
        if e.is_exploration() {
            s.exploration_episodes += 1;
        }
        s.total_nc += e.nc_count as u64;
        s.total_locations += e.locations.len() as u64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, GeoTag, PathAttributes, RouteUpdate};

    const HOUR_US: u64 = 3600 * 1_000_000;

    /// Builds the Fig. 4 situation: during the 02:00 withdrawal phase, a
    /// pc announcement followed by nc announcements with rotating geo
    /// communities from AS3356.
    fn fig4_archive() -> (UpdateArchive, Prefix) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let k = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let mut a = UpdateArchive::new(0);

        let base = |city: u16| {
            let mut attrs = PathAttributes {
                as_path: "20205 3356 174 12654".parse().unwrap(),
                ..Default::default()
            };
            GeoTag::new(4, 10, city).tag(3356, &mut attrs.communities);
            attrs
        };
        // Steady state at 01:00 via the all-time best path.
        let best = PathAttributes {
            as_path: "20205 6939 50304 12654".parse().unwrap(),
            ..Default::default()
        };
        a.record(&k, RouteUpdate::announce(HOUR_US, prefix, best));
        // Withdrawal phase 02:00–02:15: path exploration reveals the
        // alternative path with three different ingress cities.
        let t0 = 2 * HOUR_US;
        a.record(&k, RouteUpdate::announce(t0 + 60_000_000, prefix, base(100))); // pc
        a.record(&k, RouteUpdate::announce(t0 + 120_000_000, prefix, base(101))); // nc
        a.record(&k, RouteUpdate::announce(t0 + 180_000_000, prefix, base(102))); // nc
        a.record(&k, RouteUpdate::withdraw(t0 + 240_000_000, prefix));
        (a, prefix)
    }

    #[test]
    fn detects_fig4_exploration() {
        let (a, prefix) = fig4_archive();
        let episodes = detect(&a, &[prefix]);
        assert_eq!(episodes.len(), 1);
        let e = &episodes[0];
        assert_eq!(e.phase, 0);
        assert_eq!(e.pc_count, 1);
        assert_eq!(e.nc_count, 2);
        assert!(e.is_exploration());
        // 3 cities + 1 country + 1 continent from AS3356.
        let cities: Vec<_> = e.locations.iter().filter(|(_, s, _)| *s == GeoScope::City).collect();
        assert_eq!(cities.len(), 3);
        assert!(e.locations.iter().all(|(asn, _, _)| *asn == 3356));
    }

    #[test]
    fn quiet_streams_produce_no_episodes() {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let k = SessionKey::new("rrc00", Asn(1), "10.0.0.1".parse().unwrap());
        let mut a = UpdateArchive::new(0);
        // Single announcement at 01:00, outside any withdrawal phase.
        a.record(&k, RouteUpdate::announce(HOUR_US, prefix, PathAttributes::default()));
        let episodes = detect(&a, &[prefix]);
        assert!(episodes.is_empty());
    }

    #[test]
    fn summary_aggregates() {
        let (a, prefix) = fig4_archive();
        let episodes = detect(&a, &[prefix]);
        let s = summarize(&episodes);
        assert_eq!(s.episodes, 1);
        assert_eq!(s.exploration_episodes, 1);
        assert_eq!(s.total_nc, 2);
        assert_eq!(s.total_locations, 5);
    }
}
