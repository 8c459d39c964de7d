//! Per-AS community behavior inference (the paper's §7 future work).
//!
//! "From observing updates and lack of updates at multiple points in the
//! network, we can make rough guesses as to the way different ASes handle
//! communities. Using more sophisticated network tomography techniques,
//! we plan to classify per-AS community behavior, for instance those that
//! tag, filter, and ignore."
//!
//! This module implements that classification from nothing but observed
//! update streams:
//!
//! * **Taggers** announce many distinct community values under their own
//!   16-bit namespace on routes that traverse them, mostly geo-decodable
//!   and varying over time.
//! * **Filters (cleaners)** sit between a known tagger and the collector
//!   on paths whose announcements are missing the tagger's communities.
//!   Since any AS between the tagger and the collector could have
//!   cleaned, blame is apportioned fractionally (noisy-OR style) and
//!   accumulated over many streams; an AS consistently on community-less
//!   tagged paths converges to a high filter score.
//! * **Propagators (ignore)** appear between a tagger and the collector
//!   on paths where the tagger's communities *are* present — direct
//!   evidence of pass-through.

use std::collections::{BTreeMap, HashSet};

use kcc_bgp_types::geo::decode_geo;
use kcc_bgp_types::{Asn, Community, MessageKind, RouteUpdate};
use kcc_collector::{SessionKey, UpdateArchive};

use crate::pipeline::{drain_archive, AnalysisSink, Merge};

/// Accumulated per-AS evidence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BehaviorEvidence {
    /// Distinct community values seen under this AS's namespace.
    pub own_values: HashSet<u16>,
    /// How many of those are geo-decodable.
    pub own_geo_values: u64,
    /// Announcements where an upstream tagger's communities passed
    /// through this AS.
    pub passed: f64,
    /// Fractional blame for announcements where an upstream tagger's
    /// communities were missing.
    pub cleaned_blame: f64,
    /// Announcements in which this AS sat between a tagger and the
    /// collector (the denominator for both scores).
    pub samples: f64,
}

/// The three classes the paper names, plus the undecidable remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferredClass {
    /// Adds (geo) communities under its own namespace.
    Tagger,
    /// Removes communities in transit.
    Filter,
    /// Passes communities through untouched.
    Propagator,
    /// Not enough evidence.
    Unknown,
}

/// Inference result for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredBehavior {
    /// The AS.
    pub asn: Asn,
    /// Raw evidence.
    pub evidence: BehaviorEvidence,
    /// Classification.
    pub class: InferredClass,
    /// Filter score in `[0, 1]`: blame per traversal sample.
    pub filter_score: f64,
    /// Propagation score in `[0, 1]`.
    pub propagate_score: f64,
}

/// Inference tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TomographyConfig {
    /// Minimum distinct own-namespace values to call an AS a tagger.
    pub min_tagger_values: usize,
    /// Minimum traversal samples before classifying filter/propagator.
    pub min_samples: f64,
    /// Filter score above which an AS is a filter.
    pub filter_threshold: f64,
    /// Propagation score above which an AS is a propagator.
    pub propagate_threshold: f64,
}

impl Default for TomographyConfig {
    fn default() -> Self {
        TomographyConfig {
            // A single geo tag already contributes three values (city,
            // country, continent); demand evidence of at least two
            // distinct locations.
            min_tagger_values: 5,
            min_samples: 5.0,
            filter_threshold: 0.7,
            propagate_threshold: 0.5,
        }
    }
}

/// Traversal evidence conditional on one *candidate* tagger: integer
/// counters so merging per-collector partials is exact (no float-order
/// drift).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PairEvidence {
    /// Announcements where the candidate was upstream of this AS.
    samples: u64,
    /// ... and the candidate's communities were present.
    passed: u64,
    /// Blame events keyed by the between-set size `k` (each worth `1/k`).
    blame: BTreeMap<u32, u64>,
}

impl PairEvidence {
    fn merge(&mut self, other: &PairEvidence) {
        self.samples += other.samples;
        self.passed += other.passed;
        for (&k, &n) in &other.blame {
            *self.blame.entry(k).or_insert(0) += n;
        }
    }

    fn blame_sum(&self) -> f64 {
        // Ascending-k iteration keeps the float summation order
        // deterministic across runs and collector orders.
        self.blame.iter().map(|(&k, &n)| n as f64 / k as f64).sum()
    }
}

/// Single-pass behavior inference. The batch version needed two passes
/// (find taggers, then attribute traversals to them); the sink instead
/// accumulates traversal evidence *conditionally on every candidate
/// tagger* — a `(candidate, between-AS)`-keyed table bounded by AS
/// adjacency, not update volume — and resolves which candidates really
/// are taggers at [`TomographySink::finish`].
#[derive(Debug, Clone)]
pub struct TomographySink {
    cfg: TomographyConfig,
    own_values: BTreeMap<u16, HashSet<u16>>,
    pairs: BTreeMap<(u16, u16), PairEvidence>,
}

impl TomographySink {
    /// An inference sink with the given thresholds.
    pub fn new(cfg: TomographyConfig) -> Self {
        TomographySink { cfg, own_values: BTreeMap::new(), pairs: BTreeMap::new() }
    }

    /// Resolves taggers and folds the conditional evidence into the
    /// final per-AS classification.
    pub fn finish(self) -> BTreeMap<Asn, InferredBehavior> {
        let taggers: HashSet<u16> = self
            .own_values
            .iter()
            .filter(|(_, values)| values.len() >= self.cfg.min_tagger_values)
            .map(|(&asn, _)| asn)
            .collect();

        let mut evidence: BTreeMap<u16, BehaviorEvidence> = BTreeMap::new();
        for (owner, values) in self.own_values {
            let e = evidence.entry(owner).or_default();
            e.own_geo_values = values
                .iter()
                .filter(|&&v| decode_geo(Community::from_parts(owner, v)).is_some())
                .count() as u64;
            e.own_values = values;
        }
        for ((tagger, between), pair) in &self.pairs {
            if !taggers.contains(tagger) {
                continue;
            }
            let e = evidence.entry(*between).or_default();
            e.samples += pair.samples as f64;
            e.passed += pair.passed as f64;
            e.cleaned_blame += pair.blame_sum();
        }

        evidence
            .into_iter()
            .map(|(asn16, e)| {
                let filter_score = if e.samples > 0.0 { e.cleaned_blame / e.samples } else { 0.0 };
                let propagate_score = if e.samples > 0.0 { e.passed / e.samples } else { 0.0 };
                let is_tagger = e.own_values.len() >= self.cfg.min_tagger_values;
                let class = if is_tagger {
                    InferredClass::Tagger
                } else if e.samples >= self.cfg.min_samples
                    && filter_score >= self.cfg.filter_threshold
                {
                    InferredClass::Filter
                } else if e.samples >= self.cfg.min_samples
                    && propagate_score >= self.cfg.propagate_threshold
                {
                    InferredClass::Propagator
                } else {
                    InferredClass::Unknown
                };
                (
                    Asn(asn16 as u32),
                    InferredBehavior {
                        asn: Asn(asn16 as u32),
                        evidence: e,
                        class,
                        filter_score,
                        propagate_score,
                    },
                )
            })
            .collect()
    }
}

impl AnalysisSink for TomographySink {
    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        let MessageKind::Announcement(attrs) = &u.kind else { return };
        let path: Vec<u16> =
            attrs.as_path.asns().filter(|a| a.is_16bit()).map(|a| a.value() as u16).collect();
        let on_path: HashSet<u16> = path.iter().copied().collect();

        // Own-namespace evidence: only communities plausibly *added by an
        // on-path AS* count toward taggerhood.
        for c in attrs.communities.iter_classic() {
            let owner = c.asn_part();
            if on_path.contains(&owner) {
                self.own_values.entry(owner).or_default().insert(c.value_part());
            }
        }

        // Conditional traversal evidence for every candidate tagger on
        // the path: the ASes strictly between the candidate and the
        // collector either passed its communities or share the blame for
        // their absence (resolved at finish once taggers are known).
        // The deduped peer-side prefix grows incrementally and community
        // owners are set-indexed once, keeping this hot loop O(path).
        let owners: HashSet<u16> = attrs.communities.iter_classic().map(|c| c.asn_part()).collect();
        let mut seen: HashSet<u16> = HashSet::new();
        let mut uniq: Vec<u16> = Vec::new();
        for (i, &t) in path.iter().enumerate() {
            if i > 0 {
                // `uniq` now holds path[..i] deduped, nearest first.
                let t_present = owners.contains(&t);
                let k = uniq.len() as u32;
                for &a in &uniq {
                    let pair = self.pairs.entry((t, a)).or_default();
                    pair.samples += 1;
                    if t_present {
                        pair.passed += 1;
                    } else {
                        *pair.blame.entry(k).or_insert(0) += 1;
                    }
                }
            }
            if seen.insert(t) {
                uniq.push(t);
            }
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for TomographySink {
    fn merge(&mut self, other: Self) {
        for (owner, values) in other.own_values {
            self.own_values.entry(owner).or_default().extend(values);
        }
        for (key, pair) in other.pairs {
            self.pairs.entry(key).or_default().merge(&pair);
        }
    }
}

/// Runs the full inference over an archive — [`TomographySink`] run
/// over it.
pub fn infer_behaviors(
    archive: &UpdateArchive,
    cfg: &TomographyConfig,
) -> BTreeMap<Asn, InferredBehavior> {
    drain_archive(archive, TomographySink::new(*cfg)).finish()
}

/// Convenience view: the ASes inferred per class.
pub fn classify_ases(inferred: &BTreeMap<Asn, InferredBehavior>) -> (Vec<Asn>, Vec<Asn>, Vec<Asn>) {
    let mut taggers = Vec::new();
    let mut filters = Vec::new();
    let mut propagators = Vec::new();
    for (asn, b) in inferred {
        match b.class {
            InferredClass::Tagger => taggers.push(*asn),
            InferredClass::Filter => filters.push(*asn),
            InferredClass::Propagator => propagators.push(*asn),
            InferredClass::Unknown => {}
        }
    }
    (taggers, filters, propagators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{GeoTag, PathAttributes, Prefix, RouteUpdate};
    use kcc_collector::SessionKey;

    fn announce(path: &str, tagger: Option<(u16, u16)>) -> RouteUpdate {
        let mut attrs = PathAttributes { as_path: path.parse().unwrap(), ..Default::default() };
        if let Some((asn, city)) = tagger {
            GeoTag::new(4, 10, city).tag(asn, &mut attrs.communities);
        }
        let p: Prefix = "84.205.64.0/24".parse().unwrap();
        RouteUpdate::announce(1, p, attrs)
    }

    /// Peer 100 propagates AS200's tags; peer 300 strips them.
    fn build_archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let k1 = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        let k2 = SessionKey::new("rrc00", Asn(300), "10.0.0.2".parse().unwrap());
        for city in 0..8u16 {
            a.record(&k1, announce("100 200 900", Some((200, city))));
            a.record(&k2, announce("300 200 900", None));
        }
        a
    }

    #[test]
    fn tagger_detected() {
        let inferred = infer_behaviors(&build_archive(), &TomographyConfig::default());
        assert_eq!(inferred[&Asn(200)].class, InferredClass::Tagger);
        assert!(inferred[&Asn(200)].evidence.own_values.len() >= 8);
    }

    #[test]
    fn propagator_and_filter_separated() {
        let inferred = infer_behaviors(&build_archive(), &TomographyConfig::default());
        assert_eq!(inferred[&Asn(100)].class, InferredClass::Propagator);
        assert!(inferred[&Asn(100)].propagate_score > 0.9);
        assert_eq!(inferred[&Asn(300)].class, InferredClass::Filter);
        assert!(inferred[&Asn(300)].filter_score > 0.9);
    }

    #[test]
    fn blame_is_shared_between_candidates() {
        // Two ASes between the tagger and the collector: each gets half
        // the blame, neither crosses the 0.7 filter threshold.
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        for city in 0..8u16 {
            a.record(&k, announce("100 150 200 900", Some((200, city))));
        }
        for _ in 0..8 {
            a.record(&k, announce("100 150 200 900", None));
        }
        let inferred = infer_behaviors(&a, &TomographyConfig::default());
        let f100 = inferred[&Asn(100)].filter_score;
        let f150 = inferred[&Asn(150)].filter_score;
        assert!((f100 - 0.25).abs() < 0.01, "blame 0.5 over half the samples: {f100}");
        assert!((f150 - 0.25).abs() < 0.01);
        assert_ne!(inferred[&Asn(100)].class, InferredClass::Filter);
    }

    #[test]
    fn foreign_communities_do_not_make_taggers() {
        // Communities owned by an AS *not on the path* (action signals
        // sent by the origin, say) must not count as tagging evidence.
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        for city in 0..8u16 {
            // Owner 555 never appears on the path.
            a.record(&k, announce("100 200 900", Some((555, city))));
        }
        let inferred = infer_behaviors(&a, &TomographyConfig::default());
        assert!(
            !inferred.contains_key(&Asn(555)) || inferred[&Asn(555)].class != InferredClass::Tagger
        );
    }

    #[test]
    fn sparse_evidence_stays_unknown() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap());
        a.record(&k, announce("100 200 900", Some((200, 1))));
        let inferred = infer_behaviors(&a, &TomographyConfig::default());
        // One sample, one value: nobody is classified beyond Unknown.
        for b in inferred.values() {
            assert_eq!(b.class, InferredClass::Unknown, "{:?}", b);
        }
    }

    #[test]
    fn classify_ases_partitions() {
        let inferred = infer_behaviors(&build_archive(), &TomographyConfig::default());
        let (taggers, filters, propagators) = classify_ases(&inferred);
        assert_eq!(taggers, vec![Asn(200)]);
        assert_eq!(filters, vec![Asn(300)]);
        assert_eq!(propagators, vec![Asn(100)]);
    }
}
