//! A hashed timer wheel for per-session FSM deadlines.
//!
//! Thousands of sessions each carry one armed deadline (the minimum of
//! the FSM's [`next_deadline`] and any drain cap). A binary heap would
//! pay O(log n) per re-arm — and every received message re-arms the hold
//! timer. The wheel pays O(1): 1024 slots × 256 ms ticks ≈ a 262 s
//! horizon, comfortably past the longest FSM timer (open-hold, 240 s);
//! the rare beyond-horizon deadline parks in an overflow list and is
//! re-homed as the cursor advances.
//!
//! Cancellation is lazy: re-arming simply inserts a new entry, and
//! [`TimerWheel::advance`] hands back `(token, deadline)` pairs for the
//! *caller* to validate against the session's currently armed deadline —
//! a popped entry that no longer matches is a stale arm and is dropped.
//! Firing is at tick granularity: an entry fires on the first `advance`
//! whose `now_ms` has fully passed its tick, so deadlines land at most
//! [`TICK_MS`] late — noise against BGP timers measured in seconds.
//!
//! [`next_deadline`]: crate::fsm::Fsm::next_deadline

/// Milliseconds per wheel tick.
pub const TICK_MS: u64 = 256;
/// Slots per revolution; horizon = `TICK_MS * SLOTS` ≈ 262 s.
pub(crate) const SLOTS: usize = 1024;

/// A due timer: the token it was armed for and the deadline it carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTimer {
    /// The session token the deadline was armed under.
    pub token: u64,
    /// The absolute deadline (ms) the entry was inserted with — compare
    /// against the session's currently armed deadline to detect stale
    /// entries.
    pub deadline_ms: u64,
}

/// The wheel. One per reactor shard; not thread-safe by design.
#[derive(Debug)]
pub struct TimerWheel {
    /// Absolute time of tick 0.
    start_ms: u64,
    /// The next tick index to process (monotonic, never wraps).
    cursor: u64,
    slots: Vec<Vec<DueTimer>>,
    /// Entries more than one revolution ahead of the cursor.
    overflow: Vec<DueTimer>,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel anchored at `now_ms`.
    pub fn new(now_ms: u64) -> Self {
        TimerWheel {
            start_ms: now_ms,
            cursor: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Armed entries, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms `deadline_ms` for `token`. Past deadlines land in the
    /// cursor's own slot and fire on the next [`advance`].
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn insert(&mut self, deadline_ms: u64, token: u64) {
        let entry = DueTimer { token, deadline_ms };
        let tick = deadline_ms.saturating_sub(self.start_ms) / TICK_MS;
        let tick = tick.max(self.cursor);
        if tick >= self.cursor + SLOTS as u64 {
            self.overflow.push(entry);
        } else {
            self.slots[(tick % SLOTS as u64) as usize].push(entry);
        }
        self.len += 1;
    }

    /// Moves the cursor up to `now_ms`, appending every fired entry to
    /// `due`. A slot fires once `now_ms` has fully passed its tick, so
    /// everything handed back is genuinely due.
    pub fn advance(&mut self, now_ms: u64, due: &mut Vec<DueTimer>) {
        let target = now_ms.saturating_sub(self.start_ms) / TICK_MS;
        // Bound the walk to one revolution: beyond that every slot has
        // been visited once and the wheel is known empty of older ticks.
        let mut steps = 0usize;
        while self.cursor < target && steps < SLOTS {
            let slot = &mut self.slots[(self.cursor % SLOTS as u64) as usize];
            self.len -= slot.len();
            due.append(slot);
            self.cursor += 1;
            steps += 1;
        }
        if self.cursor < target {
            self.cursor = target;
        }
        // Re-home overflow entries that the new cursor brings inside the
        // horizon (or makes due). Overflow is empty in practice — only a
        // deadline past ~262 s lands there.
        if !self.overflow.is_empty() {
            let horizon = self.cursor + SLOTS as u64;
            let mut i = 0;
            while i < self.overflow.len() {
                let tick = self.overflow[i].deadline_ms.saturating_sub(self.start_ms) / TICK_MS;
                if tick < horizon {
                    let entry = self.overflow.swap_remove(i);
                    if entry.deadline_ms <= now_ms {
                        self.len -= 1;
                        due.push(entry);
                    } else {
                        let tick = tick.max(self.cursor);
                        self.slots[(tick % SLOTS as u64) as usize].push(entry);
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(wheel: &mut TimerWheel, now_ms: u64) -> Vec<DueTimer> {
        let mut due = Vec::new();
        wheel.advance(now_ms, &mut due);
        due
    }

    #[test]
    fn fires_after_deadline_never_before() {
        let mut w = TimerWheel::new(1_000);
        w.insert(5_000, 42);
        assert!(fired(&mut w, 4_999).is_empty());
        // One tick past the deadline's tick boundary: must fire.
        let due = fired(&mut w, 5_000 + TICK_MS);
        assert_eq!(due, vec![DueTimer { token: 42, deadline_ms: 5_000 }]);
        assert!(w.is_empty());
        // Never fires twice.
        assert!(fired(&mut w, 100_000).is_empty());
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w = TimerWheel::new(10_000);
        w.insert(3_000, 7); // already in the past
        let due = fired(&mut w, 10_000 + TICK_MS);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].token, 7);
    }

    #[test]
    fn lazy_cancellation_leaves_stale_entries_distinguishable() {
        let mut w = TimerWheel::new(0);
        // Session 9 armed at 5 s, then re-armed at 60 s (e.g. hold timer
        // refreshed by a keepalive). Both entries live in the wheel; the
        // caller drops the one that no longer matches its armed value.
        w.insert(5_000, 9);
        w.insert(60_000, 9);
        let armed = 60_000u64;
        let due = fired(&mut w, 10_000);
        assert_eq!(due.len(), 1);
        assert_ne!(due[0].deadline_ms, armed, "stale entry is detectable");
        let due = fired(&mut w, 61_000);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].deadline_ms, armed);
    }

    #[test]
    fn beyond_horizon_deadlines_park_in_overflow_and_fire() {
        let mut w = TimerWheel::new(0);
        let far = TICK_MS * SLOTS as u64 * 3; // three revolutions out
        w.insert(far, 1);
        assert_eq!(w.len(), 1);
        assert!(fired(&mut w, far - 1_000).is_empty());
        let due = fired(&mut w, far + TICK_MS);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].token, 1);
        assert!(w.is_empty());
    }

    #[test]
    fn large_jump_fires_everything_once() {
        let mut w = TimerWheel::new(0);
        for t in 0..500u64 {
            w.insert(t * 700, t);
        }
        let mut due = Vec::new();
        w.advance(10 * TICK_MS * SLOTS as u64, &mut due);
        assert_eq!(due.len(), 500);
        let mut tokens: Vec<u64> = due.iter().map(|d| d.token).collect();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 500, "every token exactly once");
        assert!(w.is_empty());
    }
}
