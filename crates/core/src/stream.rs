//! Stream grouping and classification.
//!
//! Paper §5: "we first group them by the prefix and the BGP session of a
//! peer AS / next-hop, in arriving order. Then, we look for changes in the
//! AS path, AS path prepending, and the community attribute from one
//! announcement to the next." Withdrawals do not reset the comparison —
//! the paper's Fig. 4 labels the first re-announcement after a withdrawal
//! against the last announcement before it.

use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::mem::size_of;
use std::sync::Arc;

use kcc_bgp_types::{FastHashMap, MessageKind, PathAttributes, Prefix, RouteUpdate};
use kcc_collector::{SessionKey, UpdateArchive};

use crate::classify::{classify_pair, AnnouncementType, TypeCounts};
use crate::pipeline::{drain_archive, AnalysisSink, Merge};

/// What one stream event was classified as.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A classified announcement.
    Classified {
        /// The announcement type.
        atype: AnnouncementType,
        /// True when the only wire-level difference was the MED.
        med_only: bool,
    },
    /// First announcement of its `(prefix, session)` stream.
    Initial,
    /// A withdrawal.
    Withdrawal,
}

/// One classified event in a session's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedEvent {
    /// Arrival time (µs).
    pub time_us: u64,
    /// The prefix.
    pub prefix: Prefix,
    /// Classification.
    pub kind: EventKind,
    /// The announcement's attributes (withdrawals: `None`), shared with
    /// the classifier's retained state — retaining an event costs a
    /// pointer, not a deep copy.
    pub attrs: Option<Arc<PathAttributes>>,
}

impl ClassifiedEvent {
    /// The announcement type, if classified.
    pub fn atype(&self) -> Option<AnnouncementType> {
        match &self.kind {
            EventKind::Classified { atype, .. } => Some(*atype),
            _ => None,
        }
    }
}

/// Fixed per-stream cost beyond the (shared) attributes: the table
/// slot's key and its `Arc` handle.
const PER_STREAM_OVERHEAD: usize = size_of::<Prefix>() + size_of::<Arc<PathAttributes>>();

/// How many stream slots hold each attribute allocation, keyed by its
/// address, and the deep footprint of those allocations, each counted
/// once. The key is exact: a held allocation stays alive, so no other
/// live handle shares its address, and it leaves the map when its last
/// slot lets go.
#[derive(Debug, Default)]
struct Held {
    slots: FastHashMap<usize, u32>,
    bytes: usize,
}

impl Held {
    fn hold(&mut self, attrs: &Arc<PathAttributes>) {
        let slots = self.slots.entry(Arc::as_ptr(attrs) as usize).or_insert(0);
        if *slots == 0 {
            self.bytes += attrs.deep_footprint();
        }
        *slots += 1;
    }

    fn release(&mut self, attrs: &Arc<PathAttributes>) {
        let Entry::Occupied(mut slots) = self.slots.entry(Arc::as_ptr(attrs) as usize) else {
            unreachable!("released an attribute allocation no stream holds");
        };
        *slots.get_mut() -= 1;
        if *slots.get() == 0 {
            slots.remove();
            self.bytes -= attrs.deep_footprint();
        }
    }
}

/// The incremental §5 classifier for one session: retains exactly one
/// [`PathAttributes`] handle per `(prefix)` stream — the last
/// announcement's own `Arc`, so keeping it costs a refcount, not a copy —
/// and labels each update against it. Memory is constant per stream no
/// matter how long the day. The stream table is hash-keyed by prefix:
/// nothing walks it in order.
#[derive(Debug, Default)]
pub struct StreamClassifier {
    last: FastHashMap<Prefix, Arc<PathAttributes>>,
    held: Held,
}

impl StreamClassifier {
    /// A fresh classifier with no stream state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of streams with retained state.
    pub fn stream_count(&self) -> usize {
        self.last.len()
    }

    /// Exact bytes of retained state: the deep footprint of each
    /// *distinct allocation* of attributes (struct + the AS path's and
    /// the classic communities' exact allocations + the box of extended
    /// and large communities when present) counted once, plus a fixed
    /// per-stream slot overhead. Value-equal sets in separate
    /// allocations count once each.
    pub fn state_bytes(&self) -> usize {
        self.held.bytes + self.last.len() * PER_STREAM_OVERHEAD
    }

    /// Recomputes [`state_bytes`](Self::state_bytes) from scratch by
    /// walking every stream slot and deduplicating shared attribute sets
    /// by pointer. The incremental account must always equal this — the
    /// invariant the property tests pin.
    pub fn audit_state_bytes(&self) -> usize {
        let mut seen: HashSet<*const PathAttributes> = HashSet::new();
        let mut bytes = 0;
        for a in self.last.values() {
            if seen.insert(Arc::as_ptr(a)) {
                bytes += a.deep_footprint();
            }
        }
        bytes + self.last.len() * PER_STREAM_OVERHEAD
    }

    /// Classifies one update against its stream predecessor and retains
    /// the new state.
    pub fn classify(&mut self, u: &RouteUpdate) -> ClassifiedEvent {
        match &u.kind {
            MessageKind::Announcement(attrs) => {
                let (kind, retained) = match self.last.entry(u.prefix) {
                    Entry::Occupied(prev) if Arc::ptr_eq(prev.get(), attrs) => {
                        // Same shared allocation — byte-identical attrs,
                        // so this is `nn` with no MED change, and the
                        // retained state doesn't move.
                        let kind =
                            EventKind::Classified { atype: AnnouncementType::Nn, med_only: false };
                        (kind, Arc::clone(prev.get()))
                    }
                    Entry::Occupied(prev) if **prev.get() == **attrs => {
                        // Value-equal but a different allocation (e.g. a
                        // re-decoded duplicate): keep the retained copy,
                        // so the held-allocation count doesn't move.
                        let kind =
                            EventKind::Classified { atype: AnnouncementType::Nn, med_only: false };
                        (kind, Arc::clone(prev.get()))
                    }
                    Entry::Occupied(mut slot) => {
                        let prev = slot.get_mut();
                        let kind = EventKind::Classified {
                            atype: classify_pair(prev, attrs),
                            med_only: prev.differs_only_in_med(attrs),
                        };
                        self.held.hold(attrs);
                        let old = std::mem::replace(prev, Arc::clone(attrs));
                        self.held.release(&old);
                        (kind, Arc::clone(attrs))
                    }
                    Entry::Vacant(slot) => {
                        self.held.hold(attrs);
                        slot.insert(Arc::clone(attrs));
                        (EventKind::Initial, Arc::clone(attrs))
                    }
                };
                ClassifiedEvent {
                    time_us: u.time_us,
                    prefix: u.prefix,
                    kind,
                    attrs: Some(retained),
                }
            }
            MessageKind::Withdrawal => {
                // Withdrawals are recorded but do NOT reset the state: the
                // next announcement is compared against the pre-withdrawal
                // attributes, as in the paper's Fig. 4 (each phase "starts
                // with a pc update").
                ClassifiedEvent {
                    time_us: u.time_us,
                    prefix: u.prefix,
                    kind: EventKind::Withdrawal,
                    attrs: None,
                }
            }
        }
    }
}

/// Aggregate [`TypeCounts`] over every classified event — the Table 2
/// numbers as a constant-size sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountsSink {
    counts: TypeCounts,
}

impl CountsSink {
    /// The accumulated counts.
    pub fn finish(self) -> TypeCounts {
        self.counts
    }
}

impl AnalysisSink for CountsSink {
    fn on_event(&mut self, _session: &SessionKey, event: &ClassifiedEvent) {
        count_event(&mut self.counts, event);
    }
}

/// Counts one classified event — the fold every per-type count in this
/// crate shares ([`CountsSink`], and per session
/// [`SessionDistributionSink`](crate::sessions::SessionDistributionSink)).
#[inline]
pub(crate) fn count_event(counts: &mut TypeCounts, event: &ClassifiedEvent) {
    match &event.kind {
        EventKind::Classified { atype, med_only } => {
            counts.add(*atype);
            if *atype == AnnouncementType::Nn && *med_only {
                counts.nn_med_only += 1;
            }
        }
        EventKind::Initial => counts.initial += 1,
        EventKind::Withdrawal => counts.withdrawals += 1,
    }
}

impl Merge for CountsSink {
    fn merge(&mut self, other: Self) {
        self.counts.merge(&other.counts);
    }
}

/// The Table 2 counts of a whole archive — [`CountsSink`] run over it.
pub fn classify_archive(archive: &UpdateArchive) -> TypeCounts {
    drain_archive(archive, CountsSink::default()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, Community, CommunitySet};

    fn attrs(path: &str, comms: &[(u16, u16)]) -> PathAttributes {
        PathAttributes {
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// One session's stream, classified update by update.
    fn classify_all(updates: &[RouteUpdate]) -> Vec<ClassifiedEvent> {
        let mut classifier = StreamClassifier::new();
        updates.iter().map(|u| classifier.classify(u)).collect()
    }

    #[test]
    fn initial_then_types() {
        let prefix = p("84.205.64.0/24");
        let updates = vec![
            RouteUpdate::announce(1, prefix, attrs("1 2", &[(1, 1)])),
            RouteUpdate::announce(2, prefix, attrs("1 2", &[(1, 2)])), // nc
            RouteUpdate::announce(3, prefix, attrs("1 3", &[(1, 2)])), // pn
            RouteUpdate::announce(4, prefix, attrs("1 3", &[(1, 2)])), // nn
        ];
        let events = classify_all(&updates);
        assert_eq!(events[0].kind, EventKind::Initial);
        assert_eq!(events[1].atype(), Some(AnnouncementType::Nc));
        assert_eq!(events[2].atype(), Some(AnnouncementType::Pn));
        assert_eq!(events[3].atype(), Some(AnnouncementType::Nn));
    }

    #[test]
    fn withdrawal_does_not_reset_comparison() {
        let prefix = p("84.205.64.0/24");
        let updates = vec![
            RouteUpdate::announce(1, prefix, attrs("1 2", &[(1, 1)])),
            RouteUpdate::withdraw(2, prefix),
            // Re-announcement with the same attrs: nn, not initial.
            RouteUpdate::announce(3, prefix, attrs("1 2", &[(1, 1)])),
            // And with a different path: pn.
            RouteUpdate::withdraw(4, prefix),
            RouteUpdate::announce(5, prefix, attrs("1 3", &[(1, 1)])),
        ];
        let events = classify_all(&updates);
        assert_eq!(events[2].atype(), Some(AnnouncementType::Nn));
        assert_eq!(events[4].atype(), Some(AnnouncementType::Pn));
    }

    #[test]
    fn prefixes_tracked_independently() {
        let p1 = p("84.205.64.0/24");
        let p2 = p("84.205.65.0/24");
        let updates = vec![
            RouteUpdate::announce(1, p1, attrs("1 2", &[])),
            RouteUpdate::announce(2, p2, attrs("9 8", &[])),
            RouteUpdate::announce(3, p1, attrs("1 2", &[])), // nn on p1
            RouteUpdate::announce(4, p2, attrs("9 7", &[])), // pn on p2
        ];
        let events = classify_all(&updates);
        assert_eq!(events[0].kind, EventKind::Initial);
        assert_eq!(events[1].kind, EventKind::Initial);
        assert_eq!(events[2].atype(), Some(AnnouncementType::Nn));
        assert_eq!(events[3].atype(), Some(AnnouncementType::Pn));
    }

    #[test]
    fn med_only_flag_set() {
        let prefix = p("84.205.64.0/24");
        let a1 = attrs("1 2", &[]);
        let mut a2 = a1.clone();
        a2.med = Some(7);
        let updates =
            vec![RouteUpdate::announce(1, prefix, a1), RouteUpdate::announce(2, prefix, a2)];
        let events = classify_all(&updates);
        assert_eq!(
            events[1].kind,
            EventKind::Classified { atype: AnnouncementType::Nn, med_only: true }
        );
    }

    #[test]
    fn one_allocation_on_two_prefixes_counts_once() {
        let shared = Arc::new(attrs("1 2", &[(1, 1)]));
        let mut classifier = StreamClassifier::new();
        classifier.classify(&RouteUpdate::announce(1, p("84.205.64.0/24"), Arc::clone(&shared)));
        classifier.classify(&RouteUpdate::announce(2, p("84.205.65.0/24"), Arc::clone(&shared)));
        assert_eq!(classifier.state_bytes(), shared.deep_footprint() + 2 * PER_STREAM_OVERHEAD);
        assert_eq!(classifier.state_bytes(), classifier.audit_state_bytes());
    }

    #[test]
    fn value_equal_allocations_count_twice() {
        let first = Arc::new(attrs("1 2", &[(1, 1)]));
        let second = Arc::new((*first).clone());
        let mut classifier = StreamClassifier::new();
        classifier.classify(&RouteUpdate::announce(1, p("84.205.64.0/24"), Arc::clone(&first)));
        classifier.classify(&RouteUpdate::announce(2, p("84.205.65.0/24"), Arc::clone(&second)));
        let both = first.deep_footprint() + second.deep_footprint() + 2 * PER_STREAM_OVERHEAD;
        assert_eq!(classifier.state_bytes(), both);
        // A value-equal re-announcement keeps the retained allocation.
        classifier.classify(&RouteUpdate::announce(3, p("84.205.64.0/24"), Arc::clone(&second)));
        assert_eq!(classifier.state_bytes(), both);
        // A change releases the old allocation's bytes.
        let changed = Arc::new(attrs("1 3", &[(1, 1)]));
        classifier.classify(&RouteUpdate::announce(4, p("84.205.64.0/24"), Arc::clone(&changed)));
        let after = second.deep_footprint() + changed.deep_footprint() + 2 * PER_STREAM_OVERHEAD;
        assert_eq!(classifier.state_bytes(), after);
        assert_eq!(classifier.state_bytes(), classifier.audit_state_bytes());
    }

    #[test]
    fn archive_classification_aggregates() {
        let mut archive = UpdateArchive::new(0);
        let k1 = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let k2 = SessionKey::new("rrc00", Asn(20_811), "10.0.0.2".parse().unwrap());
        let prefix = p("84.205.64.0/24");
        archive.record(&k1, RouteUpdate::announce(1, prefix, attrs("1 2", &[(1, 1)])));
        archive.record(&k1, RouteUpdate::announce(2, prefix, attrs("1 2", &[(1, 2)])));
        archive.record(&k2, RouteUpdate::announce(1, prefix, attrs("5 2", &[])));
        archive.record(&k2, RouteUpdate::withdraw(2, prefix));

        let c = classify_archive(&archive);
        assert_eq!(c.initial, 2);
        assert_eq!(c.nc, 1);
        assert_eq!(c.withdrawals, 1);
        let rows = crate::sessions::session_type_distribution(&archive, &prefix, None);
        assert_eq!(rows[0], (k1, TypeCounts { initial: 1, nc: 1, ..Default::default() }));
        assert_eq!(rows[1], (k2, TypeCounts { initial: 1, withdrawals: 1, ..Default::default() }));
    }
}
