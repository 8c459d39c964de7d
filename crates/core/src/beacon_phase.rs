//! Beacon phase labeling (paper §6, "Revealed Information").
//!
//! "We label all announcements ∈ d_beacon according to their appearances
//! in any of the predefined phases, or outside them. We consider all
//! announcements that appear within 15 minutes of the respective phase
//! begins."

use kcc_bgp_types::{Prefix, RouteUpdate};
use kcc_collector::{beacon, BeaconPhase, SessionKey};

use crate::pipeline::{AnalysisSink, Merge};

/// Per-phase announcement counting as a constant-size streaming sink, on
/// the RIS timetable of [`beacon::phase_of`] (multi-day archives wrap).
#[derive(Debug, Clone)]
pub struct PhaseCountSink {
    beacon_prefixes: Vec<Prefix>,
    counts: PhaseCounts,
}

impl PhaseCountSink {
    /// A sink counting phases of updates on `beacon_prefixes`.
    pub fn new(beacon_prefixes: &[Prefix]) -> Self {
        PhaseCountSink { beacon_prefixes: beacon_prefixes.to_vec(), counts: PhaseCounts::default() }
    }

    /// The accumulated counts.
    pub fn finish(self) -> PhaseCounts {
        self.counts
    }
}

impl AnalysisSink for PhaseCountSink {
    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        if !self.beacon_prefixes.contains(&u.prefix) {
            return;
        }
        let phase = beacon::phase_of(u.time_us);
        self.counts.observe(phase, u.is_announcement());
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for PhaseCountSink {
    fn merge(&mut self, other: Self) {
        self.counts.merge(other.counts);
    }
}

/// Per-phase counts of announcements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Announcements inside announcement phases.
    pub in_announcement: u64,
    /// Announcements inside withdrawal phases — the community-exploration
    /// population.
    pub in_withdrawal: u64,
    /// Announcements outside every phase.
    pub outside: u64,
    /// Withdrawals observed inside withdrawal phases.
    pub withdrawals_in_phase: u64,
}

impl PhaseCounts {
    /// Accounts one labeled update — the phase-category counting rule.
    pub fn observe(&mut self, phase: BeaconPhase, is_announcement: bool) {
        if is_announcement {
            match phase {
                BeaconPhase::Announcement(_) => self.in_announcement += 1,
                BeaconPhase::Withdrawal(_) => self.in_withdrawal += 1,
                BeaconPhase::Outside => self.outside += 1,
            }
        } else if phase.is_withdrawal() {
            self.withdrawals_in_phase += 1;
        }
    }
}

impl Merge for PhaseCounts {
    fn merge(&mut self, other: Self) {
        self.in_announcement += other.in_announcement;
        self.in_withdrawal += other.in_withdrawal;
        self.outside += other.outside;
        self.withdrawals_in_phase += other.withdrawals_in_phase;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::drain_archive;
    use kcc_bgp_types::{Asn, PathAttributes};
    use kcc_collector::beacon::DAY_US;
    use kcc_collector::UpdateArchive;

    const HOUR_US: u64 = 3600 * 1_000_000;

    fn archive() -> (UpdateArchive, Prefix) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let other: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let attrs = PathAttributes::default();
        // In the first announcement phase (00:05).
        a.record(&k, RouteUpdate::announce(5 * 60 * 1_000_000, prefix, attrs.clone()));
        // In the first withdrawal phase (02:10).
        a.record(
            &k,
            RouteUpdate::announce(2 * HOUR_US + 10 * 60 * 1_000_000, prefix, attrs.clone()),
        );
        a.record(&k, RouteUpdate::withdraw(2 * HOUR_US + 11 * 60 * 1_000_000, prefix));
        // Outside (03:00).
        a.record(&k, RouteUpdate::announce(3 * HOUR_US, prefix, attrs.clone()));
        // Non-beacon prefix: ignored.
        a.record(&k, RouteUpdate::announce(1, other, attrs));
        (a, prefix)
    }

    fn count_phases(a: &UpdateArchive, prefix: Prefix) -> PhaseCounts {
        drain_archive(a, PhaseCountSink::new(&[prefix])).finish()
    }

    #[test]
    fn counts_per_phase() {
        let (a, prefix) = archive();
        let c = count_phases(&a, prefix);
        assert_eq!(c.in_announcement, 1);
        assert_eq!(c.in_withdrawal, 1);
        assert_eq!(c.outside, 1);
        assert_eq!(c.withdrawals_in_phase, 1);
    }

    #[test]
    fn multi_day_times_wrap() {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(1), "10.0.0.1".parse().unwrap());
        // Day 2, 02:05 — still a withdrawal phase.
        a.record(
            &k,
            RouteUpdate::announce(
                DAY_US + 2 * HOUR_US + 5 * 60 * 1_000_000,
                prefix,
                PathAttributes::default(),
            ),
        );
        assert_eq!(count_phases(&a, prefix).in_withdrawal, 1);
    }
}
