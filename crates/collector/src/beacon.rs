//! RIPE-style routing beacons.
//!
//! Routing beacons announce and withdraw prefixes on a fixed public
//! timetable; the paper uses them as ground truth to isolate update
//! behavior. RIPE RIS beacons announce every 4 hours starting 00:00 UTC
//! and withdraw every 4 hours starting 02:00 UTC. The paper labels an
//! update as belonging to a phase if it arrives within 15 minutes of the
//! phase start.

use kcc_bgp_types::Prefix;

/// Microseconds per hour.
const HOUR_US: u64 = 3_600 * 1_000_000;
/// Microseconds in a day: archive time is relative to the first day's
/// start, and [`phase_of`] wraps it by this.
pub const DAY_US: u64 = 24 * HOUR_US;
/// Period between announcements (and between withdrawals): 4 h. The
/// first announcement is at 00:00.
const PERIOD_US: u64 = 4 * HOUR_US;
/// Offset of each withdrawal from its announcement: 2 h, so the first is
/// at 02:00.
const WITHDRAW_OFFSET_US: u64 = 2 * HOUR_US;
/// Phase-membership window (the paper: 15 minutes).
const WINDOW_US: u64 = 15 * 60 * 1_000_000;
/// Announce (== withdraw) phases in a day.
const PHASES_PER_DAY: usize = (DAY_US / PERIOD_US) as usize;

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

/// All events of one day (microseconds from day start), announce and
/// withdraw interleaved in time order.
pub fn day_events() -> [(u64, BeaconEvent); 2 * PHASES_PER_DAY] {
    std::array::from_fn(|k| {
        let start = (k / 2) as u64 * PERIOD_US;
        if k % 2 == 0 {
            (start, BeaconEvent::Announce)
        } else {
            (start + WITHDRAW_OFFSET_US, BeaconEvent::Withdraw)
        }
    })
}

/// The phase of an archive time (microseconds from the first day's start;
/// any day of a multi-day archive wraps onto the one timetable).
pub fn phase_of(time_us: u64) -> BeaconPhase {
    let time_of_day = time_us % DAY_US;
    let i = (time_of_day / PERIOD_US) as u8;
    let into_period = time_of_day % PERIOD_US;
    if into_period < WINDOW_US {
        BeaconPhase::Announcement(i)
    } else if (WITHDRAW_OFFSET_US..WITHDRAW_OFFSET_US + WINDOW_US).contains(&into_period) {
        BeaconPhase::Withdrawal(i)
    } else {
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

    /// Hour in microseconds, spelled out as the tests' own reference.
    const HOUR: u64 = 3600 * 1_000_000;
    /// Every edge the timetable has, and the phase at it.
    const EDGES: [(u64, BeaconPhase); 7] = [
        // 02:00–02:15 is the first withdrawal phase (paper's example).
        (2 * HOUR, BeaconPhase::Withdrawal(0)),
        (2 * HOUR + 14 * 60 * 1_000_000, BeaconPhase::Withdrawal(0)),
        (2 * HOUR + 16 * 60 * 1_000_000, BeaconPhase::Outside),
        (0, BeaconPhase::Announcement(0)),
        (4 * HOUR + 1, BeaconPhase::Announcement(1)),
        (22 * HOUR, BeaconPhase::Withdrawal(5)),
        (3 * HOUR, BeaconPhase::Outside),
    ];

    #[test]
    fn events_alternate_announce_withdraw() {
        let events = day_events();
        for pair in events.chunks(2) {
            assert_eq!(pair[0].1, BeaconEvent::Announce);
            assert_eq!(pair[1].1, BeaconEvent::Withdraw);
        }
        // First announce at 00:00, first withdraw at 02:00.
        assert_eq!(events[0].0, 0);
        assert_eq!(events[1].0, 2 * HOUR);
    }

    #[test]
    fn phase_classification() {
        for (t, phase) in EDGES {
            assert_eq!(phase_of(t), phase, "at {t} us");
        }
    }

    #[test]
    fn phase_of_wraps_archive_time_into_the_day() {
        for d in 0..3 {
            for (t, phase) in EDGES {
                assert_eq!(phase_of(d * DAY_US + t), phase, "day {d}, {t} us");
            }
        }
        // The 12 RIS events: announce every 4 h from 00:00, each withdrawn
        // 2 h later.
        let ris: Vec<_> = (0..6)
            .flat_map(|i| {
                [(i * 4 * HOUR, BeaconEvent::Announce), ((i * 4 + 2) * HOUR, BeaconEvent::Withdraw)]
            })
            .collect();
        assert_eq!(day_events().to_vec(), ris);
        for (t, event) in day_events() {
            let phase = phase_of(t);
            match event {
                BeaconEvent::Announce => assert!(phase.is_announcement(), "{t}"),
                BeaconEvent::Withdraw => assert!(phase.is_withdrawal(), "{t}"),
            }
        }
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
