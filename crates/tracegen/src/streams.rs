//! Per-stream event processes.
//!
//! Each `(session, prefix)` stream has a template: a small set of
//! candidate routes (paths through transits, each with the geo-tagging
//! transits' ingress-city pools) and a behavior class. Events mutate the
//! stream state and emit announcements whose classifier label *emerges*
//! from what changed:
//!
//! | event        | tagged stream | cleaned/untagged stream |
//! |--------------|---------------|-------------------------|
//! | path change  | `pc`          | `pn`                    |
//! | comm churn   | `nc`          | `nn`                    |
//! | duplicate    | `nn`          | `nn`                    |
//! | prepend      | `xn`/`xc`     | `xn`                    |
//!
//! The event weights and conditional probabilities are constants,
//! calibrated so the emergent type mix lands near the paper's Table 2.

use kcc_bgp_types::{AsPath, Asn, Community, CommunitySet, GeoTag, PathAttributes, RouteUpdate};
use rand::prelude::*;
use rand::rngs::StdRng;

#[cfg(test)]
use crate::universe::Universe;
use crate::universe::{PeerSpec, PrefixSpec, TransitSpec};

/// Maps a city id to its full geo tag (continent/country derived
/// deterministically, consistent with the topology generator's blocking).
pub(crate) fn city_geo(city: u16) -> GeoTag {
    let country = (city / 8) % 400;
    let continent = (country / 50 + 1).min(7) as u8;
    GeoTag::new(continent, country, city)
}

/// One candidate route of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PathVariant {
    /// Full AS path from the peer to the origin.
    pub as_path: AsPath,
    /// Geo-tagging transits on the path: `(asn16, city pool)`.
    pub taggers: Vec<(u16, Vec<u16>)>,
}

/// Behavior class of a stream (drives which label its events produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Communities visible at the collector (class A).
    TaggedVisible,
    /// Tagged upstream but stripped by the peer on egress (class B).
    TaggedCleaned,
    /// No communities anywhere on the path (class C).
    Untagged,
}

/// A stream's static description.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTemplate {
    /// Candidate routes (index 0 is the primary).
    pub paths: Vec<PathVariant>,
    /// Behavior class.
    pub class: StreamClass,
    /// Static non-geo communities (relation tags etc.) present on tagged
    /// streams.
    pub base_communities: CommunitySet,
    /// True if the peer omits its own ASN (route server).
    pub route_server_peer: bool,
    /// The peer's ASN (first hop of every path).
    pub peer_asn: Asn,
    /// Next hop presented to the collector.
    pub next_hop: std::net::IpAddr,
}

/// Mutable state of a stream as events unfold.
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Current candidate route index.
    pub path_idx: usize,
    /// Current city choice per tagger of the current path.
    pub cities: Vec<u16>,
    /// Current prepend toggle.
    pub prepended: bool,
    /// Current MED.
    pub med: Option<u32>,
}

/// Event process weights (must sum to ~1; normalized on use).
#[derive(Debug, Clone, Copy, PartialEq)]
struct EventWeights {
    /// Path-change events.
    path: f64,
    /// Community-churn events.
    comm: f64,
    /// Duplicate events.
    dup: f64,
    /// Prepend toggles.
    prepend: f64,
}

/// Event weights on tagged (A/B) streams.
const WEIGHTS_TAGGED: EventWeights =
    EventWeights { path: 0.48, comm: 0.35, dup: 0.16, prepend: 0.01 };
/// Event weights on untagged (C) streams.
const WEIGHTS_UNTAGGED: EventWeights =
    EventWeights { path: 0.48, comm: 0.0, dup: 0.51, prepend: 0.01 };
/// Probability a path change is preceded by an explicit withdrawal
/// (origin flap rather than silent reroute).
const WITHDRAW_GIVEN_PATH: f64 = 0.08;
/// Probability a duplicate wiggles the MED (visible `nn_med_only`).
const MED_WIGGLE_PROB: f64 = 0.3;
/// Probability a prepend toggle also rotates a community (`xc`).
const XC_GIVEN_PREPEND: f64 = 0.3;

impl StreamTemplate {
    /// Builds a template for `(peer, prefix)` given the universe's transit
    /// pool. `class_roll` decides the behavior class.
    pub fn build(
        rng: &mut StdRng,
        peer: &PeerSpec,
        prefix_spec: &PrefixSpec,
        transits: &[TransitSpec],
        class: StreamClass,
        next_hop: std::net::IpAddr,
    ) -> StreamTemplate {
        let n_paths = rng.gen_range(2..=3);
        let mut paths = Vec::with_capacity(n_paths);
        let tagging: Vec<&TransitSpec> = transits.iter().filter(|t| t.tags_geo).collect();
        let plain: Vec<&TransitSpec> = transits.iter().filter(|t| !t.tags_geo).collect();
        for _ in 0..n_paths {
            let hops = rng.gen_range(1..=2);
            let mut asns = vec![peer.asn];
            let mut taggers = Vec::new();
            for _ in 0..hops {
                let use_tagger = class != StreamClass::Untagged && !tagging.is_empty();
                let t = if use_tagger {
                    tagging[rng.gen_range(0..tagging.len())]
                } else if !plain.is_empty() {
                    plain[rng.gen_range(0..plain.len())]
                } else {
                    tagging[rng.gen_range(0..tagging.len())]
                };
                if asns.contains(&t.asn) {
                    continue;
                }
                asns.push(t.asn);
                if use_tagger && t.tags_geo {
                    taggers.push((t.asn.value() as u16, t.cities.clone()));
                }
            }
            asns.push(prefix_spec.origin);
            paths.push(PathVariant { as_path: AsPath::from_asns(asns), taggers });
        }
        let mut base_communities = CommunitySet::new();
        if class != StreamClass::Untagged {
            // A static relation tag from the first transit.
            if let Some(first) = paths[0].as_path.asns().nth(1) {
                base_communities.insert(Community::from_parts(
                    first.value() as u16,
                    100 + (peer.asn.value() % 50) as u16,
                ));
            }
        }
        StreamTemplate {
            paths,
            class,
            base_communities,
            route_server_peer: peer.route_server,
            peer_asn: peer.asn,
            next_hop,
        }
    }

    /// Fresh state with randomized city choices.
    pub fn initial_state(&self, rng: &mut StdRng) -> StreamState {
        let cities = self.paths[0]
            .taggers
            .iter()
            .map(|(_, pool)| pool[rng.gen_range(0..pool.len())])
            .collect();
        StreamState { path_idx: 0, cities, prepended: false, med: None }
    }

    /// Renders the current state into wire-visible attributes, applying
    /// route-server omission and peer egress cleaning.
    pub fn attrs(&self, state: &StreamState) -> PathAttributes {
        let variant = &self.paths[state.path_idx];
        let mut as_path = variant.as_path.clone();
        if state.prepended {
            if let Some(first) = as_path.first() {
                as_path = as_path.prepend(first, 2);
            }
        }
        if self.route_server_peer {
            // Route server: drop the peer's own ASN from the front.
            let rest: Vec<Asn> = as_path.asns().skip(1).collect();
            as_path = AsPath::from_asns(rest);
        }
        let mut communities = self.base_communities.clone();
        for ((asn16, _pool), city) in variant.taggers.iter().zip(&state.cities) {
            city_geo(*city).tag(*asn16, &mut communities);
        }
        if self.class == StreamClass::TaggedCleaned {
            communities.clear();
        }
        PathAttributes {
            as_path,
            next_hop: self.next_hop,
            med: state.med,
            communities,
            ..Default::default()
        }
    }

    /// Applies a path-change event.
    pub fn advance_path(&self, rng: &mut StdRng, state: &mut StreamState) {
        state.path_idx = (state.path_idx + 1) % self.paths.len();
        state.cities = self.paths[state.path_idx]
            .taggers
            .iter()
            .map(|(_, pool)| pool[rng.gen_range(0..pool.len())])
            .collect();
    }

    /// Applies a community-churn event: rotate one tagger's city. Returns
    /// false when the current path has no taggers (nothing to churn).
    pub fn churn_community(&self, rng: &mut StdRng, state: &mut StreamState) -> bool {
        if state.cities.is_empty() {
            return false;
        }
        let i = rng.gen_range(0..state.cities.len());
        let pool = &self.paths[state.path_idx].taggers[i].1;
        if pool.len() < 2 {
            return false;
        }
        let current = state.cities[i];
        let mut next = pool[rng.gen_range(0..pool.len())];
        let mut guard = 0;
        while next == current && guard < 8 {
            next = pool[rng.gen_range(0..pool.len())];
            guard += 1;
        }
        if next == current {
            return false;
        }
        state.cities[i] = next;
        true
    }
}

/// Samples a heavy-tailed per-stream event count with the given mean
/// (exponential, capped).
pub fn sample_event_count(rng: &mut StdRng, mean: f64, cap: usize) -> usize {
    let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
    ((-mean * (1.0 - u).ln()) as usize).min(cap)
}

/// Generates one stream's day of updates into `out`.
pub fn generate_stream(
    rng: &mut StdRng,
    template: &StreamTemplate,
    prefix: kcc_bgp_types::Prefix,
    n_events: usize,
    day_us: u64,
    out: &mut Vec<RouteUpdate>,
) {
    let mut state = template.initial_state(rng);
    // Stream-initial announcement near day start.
    let t0 = rng.gen_range(0..60_000_000u64);
    out.push(RouteUpdate::announce(t0, prefix, template.attrs(&state)));

    let mut times: Vec<u64> = (0..n_events).map(|_| rng.gen_range(60_000_000..day_us)).collect();
    times.sort_unstable();

    let weights = match template.class {
        StreamClass::Untagged => WEIGHTS_UNTAGGED,
        _ => WEIGHTS_TAGGED,
    };
    let total = weights.path + weights.comm + weights.dup + weights.prepend;

    for t in times {
        let roll: f64 = rng.gen_range(0.0..total);
        if roll < weights.path {
            // Path change, possibly with an explicit withdraw first.
            if rng.gen_bool(WITHDRAW_GIVEN_PATH) {
                out.push(RouteUpdate::withdraw(t, prefix));
                template.advance_path(rng, &mut state);
                out.push(RouteUpdate::announce(
                    t + rng.gen_range(1_000_000u64..5_000_000),
                    prefix,
                    template.attrs(&state),
                ));
            } else {
                template.advance_path(rng, &mut state);
                out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
            }
        } else if roll < weights.path + weights.comm {
            if template.churn_community(rng, &mut state) {
                out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
            } else {
                // Nothing to churn: degenerate to a duplicate.
                out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
            }
        } else if roll < weights.path + weights.comm + weights.dup {
            if rng.gen_bool(MED_WIGGLE_PROB) {
                state.med = Some(rng.gen_range(0..100));
            }
            out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
        } else {
            state.prepended = !state.prepended;
            if template.class == StreamClass::TaggedVisible && rng.gen_bool(XC_GIVEN_PREPEND) {
                template.churn_community(rng, &mut state);
            }
            out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
        }
    }
    // Withdraw/re-announce pairs extend past the next event time; restore
    // global arrival order (stable, so same-time emission order holds).
    out.sort_by_key(|u| u.time_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{build_universe, UniverseConfig};
    use kcc_bgp_types::Prefix;

    fn setup() -> (StdRng, Universe) {
        let (u, _) = build_universe(&UniverseConfig::default());
        (StdRng::seed_from_u64(7), u)
    }

    fn template(class: StreamClass) -> (StdRng, StreamTemplate, Prefix) {
        let (mut rng, u) = setup();
        let peer = &u.peers[0];
        let spec = &u.prefixes[0];
        let t = StreamTemplate::build(
            &mut rng,
            peer,
            spec,
            &u.transits,
            class,
            "192.0.2.1".parse().unwrap(),
        );
        (rng, t, spec.prefix)
    }

    #[test]
    fn tagged_attrs_carry_geo_communities() {
        let (mut rng, t, _) = template(StreamClass::TaggedVisible);
        let state = t.initial_state(&mut rng);
        let attrs = t.attrs(&state);
        if !t.paths[0].taggers.is_empty() {
            assert!(!attrs.communities.is_empty());
        }
        assert_eq!(attrs.as_path.first(), Some(t.peer_asn));
    }

    #[test]
    fn cleaned_streams_have_no_visible_communities() {
        let (mut rng, t, _) = template(StreamClass::TaggedCleaned);
        let state = t.initial_state(&mut rng);
        assert!(t.attrs(&state).communities.is_empty());
    }

    #[test]
    fn path_change_changes_path() {
        let (mut rng, t, _) = template(StreamClass::TaggedVisible);
        let mut state = t.initial_state(&mut rng);
        let before = t.attrs(&state).as_path;
        t.advance_path(&mut rng, &mut state);
        let after = t.attrs(&state).as_path;
        assert_ne!(before, after, "candidate paths must differ");
    }

    #[test]
    fn comm_churn_changes_only_communities() {
        let (mut rng, t, _) = template(StreamClass::TaggedVisible);
        let mut state = t.initial_state(&mut rng);
        if t.paths[0].taggers.iter().all(|(_, pool)| pool.len() < 2) {
            return; // degenerate template; other seeds cover this
        }
        let before = t.attrs(&state);
        if t.churn_community(&mut rng, &mut state) {
            let after = t.attrs(&state);
            assert_eq!(before.as_path, after.as_path);
            assert_ne!(before.communities, after.communities);
        }
    }

    #[test]
    fn prepend_keeps_as_set() {
        let (mut rng, t, _) = template(StreamClass::Untagged);
        let mut state = t.initial_state(&mut rng);
        let before = t.attrs(&state).as_path;
        state.prepended = true;
        let after = t.attrs(&state).as_path;
        assert_ne!(before, after);
        assert!(before.same_as_set(&after));
    }

    #[test]
    fn route_server_omits_peer_asn() {
        let (mut rng, u) = setup();
        let mut peer = u.peers[0].clone();
        peer.route_server = true;
        let spec = &u.prefixes[0];
        let t = StreamTemplate::build(
            &mut rng,
            &peer,
            spec,
            &u.transits,
            StreamClass::TaggedVisible,
            "192.0.2.1".parse().unwrap(),
        );
        let state = t.initial_state(&mut rng);
        assert_ne!(t.attrs(&state).as_path.first(), Some(peer.asn));
    }

    #[test]
    fn stream_generation_is_ordered_and_sized() {
        let (mut rng, t, prefix) = template(StreamClass::TaggedVisible);
        let mut out = Vec::new();
        generate_stream(&mut rng, &t, prefix, 50, kcc_collector::beacon::DAY_US, &mut out);
        assert!(out.len() >= 51); // initial + events (+ withdraw pairs)
        for w in out.windows(2) {
            assert!(w[0].time_us <= w[1].time_us, "updates must be time-ordered");
        }
        assert!(out[0].is_announcement());
    }

    #[test]
    fn event_count_sampling_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sample_event_count(&mut rng, 3.0, 50) <= 50);
        }
        // Mean roughly respected.
        let total: usize = (0..5000).map(|_| sample_event_count(&mut rng, 3.0, 1000)).sum();
        let mean = total as f64 / 5000.0;
        assert!(mean > 2.0 && mean < 4.0, "mean {mean} out of band");
    }
}
