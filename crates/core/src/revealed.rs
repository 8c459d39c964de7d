//! Revealed information (paper §6, Fig. 6).
//!
//! "In March 15, 2020, we identify a total of 21,398 unique community
//! attributes. 62% of all community attributes are revealed exclusively
//! during the withdrawal phases. Only 17% are revealed during the
//! announcement phases and <1% outside both phases. The remaining
//! attributes show up ambiguously."
//!
//! A *community attribute* is the full community set of one announcement;
//! uniqueness is set-level (the canonical key), and an attribute is
//! attributed to the phase category in which it appears.

use std::collections::HashMap;

use kcc_bgp_types::{MessageKind, Prefix, RouteUpdate};
use kcc_collector::{BeaconPhase, BeaconSchedule, SessionKey, UpdateArchive};

use crate::beacon_phase::DAY_US;
use crate::pipeline::{drain_archive, AnalysisSink, Merge};

/// Phase-category bit flags an attribute was seen in.
mod seen {
    /// Seen during a withdrawal phase.
    pub const WITHDRAWAL: u8 = 1;
    /// Seen during an announcement phase.
    pub const ANNOUNCEMENT: u8 = 2;
    /// Seen outside both.
    pub const OUTSIDE: u8 = 4;
}

/// Fig. 6 statistics for one archive (typically one day).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevealedStats {
    /// Unique non-empty community attributes.
    pub total: u64,
    /// Revealed exclusively during withdrawal phases.
    pub withdrawal_only: u64,
    /// Revealed exclusively during announcement phases.
    pub announcement_only: u64,
    /// Revealed exclusively outside both.
    pub outside_only: u64,
    /// Seen in more than one category.
    pub ambiguous: u64,
}

impl RevealedStats {
    /// The paper's headline ratio: withdrawal-exclusive / total.
    pub fn withdrawal_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.withdrawal_only as f64 / self.total as f64
    }
}

/// Tracks which phase categories every unique community attribute was
/// seen in — Fig. 6 as a streaming sink. State is one byte of flags per
/// *unique attribute*, independent of update volume.
#[derive(Debug, Clone)]
pub struct RevealedSink {
    schedule: BeaconSchedule,
    beacon_prefixes: Vec<Prefix>,
    attrs_seen: HashMap<String, u8>,
}

impl RevealedSink {
    /// A sink over `schedule`, restricted to `beacon_prefixes` when
    /// non-empty (the paper's d_beacon view).
    pub fn new(schedule: BeaconSchedule, beacon_prefixes: &[Prefix]) -> Self {
        RevealedSink {
            schedule,
            beacon_prefixes: beacon_prefixes.to_vec(),
            attrs_seen: HashMap::new(),
        }
    }

    /// The accumulated statistics.
    pub fn finish(&self) -> RevealedStats {
        let mut stats = RevealedStats { total: self.attrs_seen.len() as u64, ..Default::default() };
        for flags in self.attrs_seen.values() {
            match *flags {
                f if f == seen::WITHDRAWAL => stats.withdrawal_only += 1,
                f if f == seen::ANNOUNCEMENT => stats.announcement_only += 1,
                f if f == seen::OUTSIDE => stats.outside_only += 1,
                _ => stats.ambiguous += 1,
            }
        }
        stats
    }
}

impl AnalysisSink for RevealedSink {
    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        if !self.beacon_prefixes.is_empty() && !self.beacon_prefixes.contains(&u.prefix) {
            return;
        }
        let MessageKind::Announcement(attrs) = &u.kind else {
            return;
        };
        if attrs.communities.is_empty() {
            return; // an empty attribute reveals nothing
        }
        let flag = match self.schedule.phase_of(u.time_us % DAY_US) {
            BeaconPhase::Withdrawal(_) => seen::WITHDRAWAL,
            BeaconPhase::Announcement(_) => seen::ANNOUNCEMENT,
            BeaconPhase::Outside => seen::OUTSIDE,
        };
        *self.attrs_seen.entry(attrs.communities.canonical_key()).or_insert(0) |= flag;
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for RevealedSink {
    fn merge(&mut self, other: Self) {
        for (key, flags) in other.attrs_seen {
            *self.attrs_seen.entry(key).or_insert(0) |= flags;
        }
    }
}

/// Revealed-attribute statistics of an archive — [`RevealedSink`] run
/// over it.
pub fn revealed_attributes(
    archive: &UpdateArchive,
    schedule: &BeaconSchedule,
    beacon_prefixes: &[Prefix],
) -> RevealedStats {
    drain_archive(archive, RevealedSink::new(*schedule, beacon_prefixes)).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, Community, CommunitySet, PathAttributes, RouteUpdate};
    use kcc_collector::SessionKey;

    const HOUR_US: u64 = 3600 * 1_000_000;

    fn attrs(comms: &[(u16, u16)]) -> PathAttributes {
        PathAttributes {
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        }
    }

    fn build() -> (UpdateArchive, Prefix) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let k = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let mut a = UpdateArchive::new(0);
        // Withdrawal phase (02:05): two unique attrs.
        a.record(
            &k,
            RouteUpdate::announce(2 * HOUR_US + 300_000_000, prefix, attrs(&[(3356, 2501)])),
        );
        a.record(
            &k,
            RouteUpdate::announce(2 * HOUR_US + 360_000_000, prefix, attrs(&[(3356, 2502)])),
        );
        // Announcement phase (00:01): one unique attr.
        a.record(&k, RouteUpdate::announce(60_000_000, prefix, attrs(&[(6939, 2600)])));
        // Outside (03:00): one unique attr.
        a.record(&k, RouteUpdate::announce(3 * HOUR_US, prefix, attrs(&[(174, 2700)])));
        // Ambiguous: appears in both withdrawal (06:05) and announcement
        // (04:02) phases.
        a.record(
            &k,
            RouteUpdate::announce(4 * HOUR_US + 120_000_000, prefix, attrs(&[(1299, 2800)])),
        );
        a.record(
            &k,
            RouteUpdate::announce(6 * HOUR_US + 300_000_000, prefix, attrs(&[(1299, 2800)])),
        );
        // Empty attribute: not counted.
        a.record(&k, RouteUpdate::announce(1, prefix, attrs(&[])));
        (a, prefix)
    }

    #[test]
    fn categorizes_attributes() {
        let (a, prefix) = build();
        let s = revealed_attributes(&a, &BeaconSchedule::default(), &[prefix]);
        assert_eq!(s.total, 5);
        assert_eq!(s.withdrawal_only, 2);
        assert_eq!(s.announcement_only, 1);
        assert_eq!(s.outside_only, 1);
        assert_eq!(s.ambiguous, 1);
        assert!((s.withdrawal_ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_archive_ratio_zero() {
        let a = UpdateArchive::new(0);
        let s = revealed_attributes(&a, &BeaconSchedule::default(), &[]);
        assert_eq!(s.total, 0);
        assert_eq!(s.withdrawal_ratio(), 0.0);
    }

    #[test]
    fn no_filter_means_all_prefixes() {
        let (a, _) = build();
        // Empty filter list: every prefix counts.
        let s = revealed_attributes(&a, &BeaconSchedule::default(), &[]);
        assert_eq!(s.total, 5);
    }

    #[test]
    fn same_set_spelled_differently_is_one_attribute() {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let k = SessionKey::new("rrc00", Asn(1), "10.0.0.1".parse().unwrap());
        let mut a = UpdateArchive::new(0);
        a.record(&k, RouteUpdate::announce(2 * HOUR_US + 1, prefix, attrs(&[(1, 1), (2, 2)])));
        a.record(
            &k,
            RouteUpdate::announce(
                2 * HOUR_US + 2,
                prefix,
                attrs(&[(2, 2), (1, 1)]), // same set, different insertion order
            ),
        );
        let s = revealed_attributes(&a, &BeaconSchedule::default(), &[prefix]);
        assert_eq!(s.total, 1);
        assert_eq!(s.withdrawal_only, 1);
    }
}
