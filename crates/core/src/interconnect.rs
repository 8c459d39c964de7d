//! Interconnection inference (the paper's §7 information-leak finding).
//!
//! "The updates we observe often allow us to remotely infer the number of
//! interconnections between two ASes and the location where they peer."
//!
//! Mechanism: when AS `T` geo-tags at ingress, a route `… X T …` carries
//! the city where `X`'s traffic enters `T`. Observing several distinct
//! `T`-owned city tags on `X T`-adjacent routes over time reveals that
//! `X` and `T` interconnect at (at least) that many places — and names
//! them.

use std::collections::{BTreeMap, BTreeSet};

use kcc_bgp_types::geo::{decode_geo, GeoScope};
use kcc_bgp_types::{Asn, MessageKind, RouteUpdate};
use kcc_collector::{SessionKey, UpdateArchive};

use crate::pipeline::{drain_archive, AnalysisSink, Merge};

/// What was learned about one ordered AS adjacency `(customer side,
/// tagger side)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterconnectEstimate {
    /// Distinct city ids revealed by the tagger's communities.
    pub cities: BTreeSet<u16>,
    /// Distinct country ids revealed.
    pub countries: BTreeSet<u16>,
    /// Announcements contributing evidence.
    pub samples: u64,
}

impl InterconnectEstimate {
    /// The inferred lower bound on interconnection count: distinct
    /// ingress cities observed.
    pub fn min_interconnections(&self) -> usize {
        self.cities.len().max(usize::from(self.samples > 0))
    }
}

/// Collects revealed interconnection locations incrementally. State is
/// one estimate per observed `(neighbor, tagger)` adjacency — bounded by
/// the AS graph, not update volume.
#[derive(Debug, Clone, Default)]
pub struct InterconnectSink {
    out: BTreeMap<(Asn, Asn), InterconnectEstimate>,
}

impl InterconnectSink {
    /// The accumulated estimates.
    pub fn finish(self) -> BTreeMap<(Asn, Asn), InterconnectEstimate> {
        self.out
    }
}

impl AnalysisSink for InterconnectSink {
    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        let MessageKind::Announcement(attrs) = &u.kind else { return };
        let path: Vec<Asn> = attrs.as_path.asns().collect();
        for w in path.windows(2) {
            let (neighbor, tagger) = (w[0], w[1]);
            if neighbor == tagger || !tagger.is_16bit() {
                continue;
            }
            let tagger16 = tagger.value() as u16;
            let mut touched = false;
            let mut entry_cities: Vec<u16> = Vec::new();
            let mut entry_countries: Vec<u16> = Vec::new();
            for c in attrs.communities.iter_classic() {
                if c.asn_part() != tagger16 {
                    continue;
                }
                match decode_geo(*c) {
                    Some((GeoScope::City, id)) => {
                        entry_cities.push(id);
                        touched = true;
                    }
                    Some((GeoScope::Country, id)) => {
                        entry_countries.push(id);
                        touched = true;
                    }
                    _ => {}
                }
            }
            if touched {
                let e = self.out.entry((neighbor, tagger)).or_default();
                e.cities.extend(entry_cities);
                e.countries.extend(entry_countries);
                e.samples += 1;
            }
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for InterconnectSink {
    fn merge(&mut self, other: Self) {
        for (pair, est) in other.out {
            let e = self.out.entry(pair).or_default();
            e.cities.extend(est.cities);
            e.countries.extend(est.countries);
            e.samples += est.samples;
        }
    }
}

/// Scans an archive for tagger adjacencies and collects the locations
/// revealed per `(neighbor, tagger)` pair — [`InterconnectSink`] run
/// over it.
pub fn infer_interconnections(
    archive: &UpdateArchive,
) -> BTreeMap<(Asn, Asn), InterconnectEstimate> {
    drain_archive(archive, InterconnectSink::default()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{GeoTag, PathAttributes, Prefix, RouteUpdate};
    use kcc_collector::SessionKey;

    fn announce(path: &str, tagger: u16, city: u16) -> RouteUpdate {
        let mut attrs = PathAttributes { as_path: path.parse().unwrap(), ..Default::default() };
        GeoTag::new(4, (city / 8) % 400, city).tag(tagger, &mut attrs.communities);
        RouteUpdate::announce(1, "84.205.64.0/24".parse::<Prefix>().unwrap(), attrs)
    }

    #[test]
    fn distinct_cities_reveal_parallel_links() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        // AS100 enters AS3356 at three different cities over the day.
        for city in [80u16, 160, 240] {
            a.record(&k, announce("100 3356 900", 3356, city));
        }
        // And a second sample of one of them.
        a.record(&k, announce("100 3356 900", 3356, 80));
        let inferred = infer_interconnections(&a);
        let e = &inferred[&(Asn(100), Asn(3356))];
        assert_eq!(e.min_interconnections(), 3);
        assert_eq!(e.samples, 4);
        assert!(e.cities.contains(&80) && e.cities.contains(&240));
    }

    #[test]
    fn adjacency_is_directional_and_specific() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        a.record(&k, announce("100 3356 900", 3356, 80));
        let inferred = infer_interconnections(&a);
        // (100, 3356) is known; (3356, 900) carries no 900-owned tags.
        assert!(inferred.contains_key(&(Asn(100), Asn(3356))));
        assert!(!inferred.contains_key(&(Asn(3356), Asn(900))));
        assert!(!inferred.contains_key(&(Asn(3356), Asn(100))));
    }

    #[test]
    fn non_geo_communities_reveal_nothing() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        let mut attrs =
            PathAttributes { as_path: "100 3356 900".parse().unwrap(), ..Default::default() };
        attrs.communities.insert(kcc_bgp_types::Community::from_parts(3356, 70)); // not geo
        a.record(&k, RouteUpdate::announce(1, "84.205.64.0/24".parse::<Prefix>().unwrap(), attrs));
        assert!(infer_interconnections(&a).is_empty());
    }

    #[test]
    fn prepended_paths_do_not_self_pair() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        a.record(&k, announce("100 100 3356 900", 3356, 80));
        let inferred = infer_interconnections(&a);
        assert!(!inferred.contains_key(&(Asn(100), Asn(100))));
        assert!(inferred.contains_key(&(Asn(100), Asn(3356))));
    }
}
