//! RIPE-style routing beacons.
//!
//! Routing beacons announce and withdraw prefixes on a fixed public
//! timetable; the paper uses them as ground truth to isolate update
//! behavior. RIPE RIS beacons announce every 4 hours starting 00:00 UTC
//! and withdraw every 4 hours starting 02:00 UTC. The paper labels an
//! update as belonging to a phase if it arrives within 15 minutes of the
//! phase start.

use kcc_bgp_types::Prefix;

/// Microseconds per second.
const US_PER_SEC: u64 = 1_000_000;
/// Seconds per hour.
const SEC_PER_HOUR: u64 = 3_600;

/// One scheduled beacon action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconEvent {
    /// The beacon prefix is announced.
    Announce,
    /// The beacon prefix is withdrawn.
    Withdraw,
}

/// Which phase an observation falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeaconPhase {
    /// Within the window after the `i`-th announcement of the day (0-based).
    Announcement(u8),
    /// Within the window after the `i`-th withdrawal of the day.
    Withdrawal(u8),
    /// Outside every window.
    Outside,
}

impl BeaconPhase {
    /// True for any announcement phase.
    pub fn is_announcement(self) -> bool {
        matches!(self, BeaconPhase::Announcement(_))
    }

    /// True for any withdrawal phase.
    pub fn is_withdrawal(self) -> bool {
        matches!(self, BeaconPhase::Withdrawal(_))
    }
}

/// The beacon timetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconSchedule {
    /// Period between announcements (and between withdrawals).
    pub period_us: u64,
    /// Offset of the first announcement from day start.
    pub announce_offset_us: u64,
    /// Offset of the first withdrawal from day start.
    pub withdraw_offset_us: u64,
    /// Phase-membership window length (the paper: 15 minutes).
    pub window_us: u64,
}

impl Default for BeaconSchedule {
    /// The RIPE RIS schedule: 4 h period, announce at 00:00, withdraw at
    /// 02:00, 15-minute windows.
    fn default() -> Self {
        BeaconSchedule {
            period_us: 4 * SEC_PER_HOUR * US_PER_SEC,
            announce_offset_us: 0,
            withdraw_offset_us: 2 * SEC_PER_HOUR * US_PER_SEC,
            window_us: 15 * 60 * US_PER_SEC,
        }
    }
}

impl BeaconSchedule {
    /// Number of announce (== withdraw) phases in a day.
    pub(crate) fn phases_per_day(&self) -> u8 {
        (24 * SEC_PER_HOUR * US_PER_SEC / self.period_us) as u8
    }

    /// All events of one day (microseconds from day start), announce and
    /// withdraw interleaved in time order.
    pub fn day_events(&self) -> Vec<(u64, BeaconEvent)> {
        let mut v = Vec::new();
        let phases = self.phases_per_day() as u64;
        for i in 0..phases {
            v.push((self.announce_offset_us + i * self.period_us, BeaconEvent::Announce));
            v.push((self.withdraw_offset_us + i * self.period_us, BeaconEvent::Withdraw));
        }
        v.sort_unstable_by_key(|(t, _)| *t);
        v
    }

    /// Classifies a time-of-day (microseconds from day start) into a
    /// phase, using the schedule's window.
    pub fn phase_of(&self, time_of_day_us: u64) -> BeaconPhase {
        let phases = self.phases_per_day();
        for i in 0..phases {
            let a = self.announce_offset_us + i as u64 * self.period_us;
            if time_of_day_us >= a && time_of_day_us < a + self.window_us {
                return BeaconPhase::Announcement(i);
            }
            let w = self.withdraw_offset_us + i as u64 * self.period_us;
            if time_of_day_us >= w && time_of_day_us < w + self.window_us {
                return BeaconPhase::Withdrawal(i);
            }
        }
        BeaconPhase::Outside
    }
}

/// The 15 RIPE-style beacon prefixes the paper selects (one per
/// collector): `84.205.64.0/24` … `84.205.78.0/24`.
pub fn ripe_beacon_prefixes() -> Vec<Prefix> {
    (0u8..15).map(|i| Prefix::v4_unchecked(84, 205, 64 + i, 0, 24)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_phases_per_day() {
        let s = BeaconSchedule::default();
        assert_eq!(s.phases_per_day(), 6);
        assert_eq!(s.day_events().len(), 12);
    }

    #[test]
    fn events_alternate_announce_withdraw() {
        let events = BeaconSchedule::default().day_events();
        for pair in events.chunks(2) {
            assert_eq!(pair[0].1, BeaconEvent::Announce);
            assert_eq!(pair[1].1, BeaconEvent::Withdraw);
        }
        // First announce at 00:00, first withdraw at 02:00.
        assert_eq!(events[0].0, 0);
        assert_eq!(events[1].0, 2 * 3600 * 1_000_000);
    }

    #[test]
    fn phase_classification() {
        let s = BeaconSchedule::default();
        let hour = 3600 * 1_000_000u64;
        // 02:00–02:15 is the first withdrawal phase (paper's example).
        assert_eq!(s.phase_of(2 * hour), BeaconPhase::Withdrawal(0));
        assert_eq!(s.phase_of(2 * hour + 14 * 60 * 1_000_000), BeaconPhase::Withdrawal(0));
        assert_eq!(s.phase_of(2 * hour + 16 * 60 * 1_000_000), BeaconPhase::Outside);
        assert_eq!(s.phase_of(0), BeaconPhase::Announcement(0));
        assert_eq!(s.phase_of(4 * hour + 1), BeaconPhase::Announcement(1));
        assert_eq!(s.phase_of(22 * hour), BeaconPhase::Withdrawal(5));
        assert_eq!(s.phase_of(3 * hour), BeaconPhase::Outside);
    }

    #[test]
    fn phase_kind_predicates() {
        assert!(BeaconPhase::Announcement(0).is_announcement());
        assert!(BeaconPhase::Withdrawal(3).is_withdrawal());
        assert!(!BeaconPhase::Outside.is_announcement());
        assert!(!BeaconPhase::Outside.is_withdrawal());
    }

    #[test]
    fn fifteen_beacon_prefixes() {
        let v = ripe_beacon_prefixes();
        assert_eq!(v.len(), 15);
        assert_eq!(v[0].to_string(), "84.205.64.0/24");
        assert_eq!(v[14].to_string(), "84.205.78.0/24");
        // All distinct.
        let mut sorted = v.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }
}
