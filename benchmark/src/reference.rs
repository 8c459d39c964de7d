//! The independent reference: a deliberately naive re-implementation of
//! the paper's §5 announcement typing. It shares no code with
//! `kcc_core::StreamClassifier` (no interning, no prefix trie, no
//! pointer fast paths), so agreement between the two is evidence, not
//! tautology. Every pass's `TypeCounts` must equal what this computes
//! over the same updates.

use std::collections::{BTreeSet, HashMap};

use kcc_bgp_types::{Asn, MessageKind, PathAttributes, Prefix, RouteUpdate};
use kcc_core::TypeCounts;

/// Last announced attributes per `(session, prefix)` stream, and the
/// running counts. Sessions are named by a caller-chosen index.
#[derive(Debug, Default)]
pub struct NaiveClassifier {
    last: HashMap<(usize, Prefix), PathAttributes>,
    /// The counts so far.
    pub counts: TypeCounts,
}

fn as_set(a: &PathAttributes) -> BTreeSet<Asn> {
    a.as_path.asns().collect()
}

impl NaiveClassifier {
    /// Types one update of `session` against the stream's previous
    /// announcement (withdrawals count but do not reset the stream).
    pub fn observe(&mut self, session: usize, update: &RouteUpdate) {
        let MessageKind::Announcement(cur) = &update.kind else {
            self.counts.withdrawals += 1;
            return;
        };
        let Some(prev) = self.last.insert((session, update.prefix), (**cur).clone()) else {
            self.counts.initial += 1;
            return;
        };
        let community = prev.communities != cur.communities;
        let path = prev.as_path != cur.as_path;
        let prepend_only = path && as_set(&prev) == as_set(cur);
        match (path, prepend_only, community) {
            (true, true, true) => self.counts.xc += 1,
            (true, true, false) => self.counts.xn += 1,
            (true, false, true) => self.counts.pc += 1,
            (true, false, false) => self.counts.pn += 1,
            (false, _, true) => self.counts.nc += 1,
            (false, _, false) => {
                self.counts.nn += 1;
                let rest_equal = prev.origin == cur.origin
                    && prev.next_hop == cur.next_hop
                    && prev.local_pref == cur.local_pref
                    && prev.atomic_aggregate == cur.atomic_aggregate
                    && prev.aggregator == cur.aggregator;
                if prev.med != cur.med && rest_equal {
                    self.counts.nn_med_only += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Community, CommunitySet};

    fn attrs(path: &str, comms: &[(u16, u16)], med: Option<u32>) -> PathAttributes {
        PathAttributes {
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            med,
            ..Default::default()
        }
    }

    /// One hand-written stream that hits every type once, plus the
    /// events outside the six-way split.
    #[test]
    fn hand_written_stream_hits_each_type() {
        let p: Prefix = "84.205.64.0/24".parse().unwrap();
        let q: Prefix = "84.205.65.0/24".parse().unwrap();
        let steps = [
            (p, Some(attrs("1 2 3", &[(2, 10)], None))),   // initial
            (p, Some(attrs("1 4 3", &[(4, 10)], None))),   // pc
            (p, Some(attrs("1 5 3", &[(4, 10)], None))),   // pn
            (p, Some(attrs("1 5 3", &[(4, 11)], None))),   // nc
            (p, Some(attrs("1 5 3", &[(4, 11)], None))),   // nn
            (p, Some(attrs("1 5 5 3", &[(4, 12)], None))), // xc
            (p, Some(attrs("1 5 5 5 3", &[(4, 12)], None))), // xn
            (p, None),                                     // withdrawal
            (p, Some(attrs("1 5 5 5 3", &[(4, 12)], Some(7)))), // nn, MED only; not reset
            (q, Some(attrs("1 5 3", &[], None))),          // initial of another stream
        ];
        let mut naive = NaiveClassifier::default();
        for (t, (prefix, a)) in steps.into_iter().enumerate() {
            let u = match a {
                Some(a) => RouteUpdate::announce(t as u64, prefix, a),
                None => RouteUpdate::withdraw(t as u64, prefix),
            };
            naive.observe(0, &u);
        }
        let want = TypeCounts {
            pc: 1,
            pn: 1,
            nc: 1,
            nn: 2,
            xc: 1,
            xn: 1,
            initial: 2,
            withdrawals: 1,
            nn_med_only: 1,
        };
        assert_eq!(naive.counts, want);
    }

    #[test]
    fn sessions_are_separate_streams() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut naive = NaiveClassifier::default();
        naive.observe(0, &RouteUpdate::announce(1, p, attrs("1 2", &[], None)));
        naive.observe(1, &RouteUpdate::announce(2, p, attrs("9 2", &[], None)));
        assert_eq!(naive.counts.initial, 2);
        assert_eq!(naive.counts.classified_total(), 0);
    }
}
