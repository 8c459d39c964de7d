//! The discrete event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use kcc_bgp_types::Prefix;
use kcc_topology::RouterId;

use crate::policy::{ExportPolicy, ImportPolicy};
use crate::route::SimUpdate;
use crate::session::SessionId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A BGP update arrives at `to` on `session`.
    Deliver {
        /// The session it traveled on.
        session: SessionId,
        /// The receiving router.
        to: RouterId,
        /// The update.
        update: SimUpdate,
    },
    /// A session goes down (link failure / admin disable).
    LinkDown {
        /// The affected session.
        session: SessionId,
    },
    /// A session comes (back) up.
    LinkUp {
        /// The affected session.
        session: SessionId,
    },
    /// An origin router starts announcing a prefix.
    Announce {
        /// The originating router.
        router: RouterId,
        /// The prefix.
        prefix: Prefix,
    },
    /// An origin router withdraws a prefix.
    Withdraw {
        /// The originating router.
        router: RouterId,
        /// The prefix.
        prefix: Prefix,
    },
    /// A router's MRAI timer for a session expires: flush pending
    /// advertisements.
    MraiExpire {
        /// The router owning the timer.
        router: RouterId,
        /// The session the timer paces.
        session: SessionId,
    },
    /// A dampening reuse check fires for a suppressed route.
    DampReuse {
        /// The router holding the penalty state.
        router: RouterId,
        /// The dampened session.
        session: SessionId,
        /// The dampened prefix.
        prefix: Prefix,
    },
    /// A router replaces the import policy it applies on a session — the
    /// scenario engine's "community rewrite" knob. On eBGP sessions the
    /// peer then replays its Adj-RIB-Out (an RFC 2918 route refresh) so
    /// the new policy takes effect without waiting for other churn.
    SetImportPolicy {
        /// The reconfigured session.
        session: SessionId,
        /// The endpoint whose import policy changes.
        router: RouterId,
        /// The replacement policy.
        policy: ImportPolicy,
    },
    /// A router replaces the export policy it applies on a session, then
    /// re-advertises its Loc-RIB there (a soft reset out). Announcements
    /// whose wire form is unchanged follow the vendor's duplicate policy:
    /// Junos stays silent, everything else re-sends.
    SetExportPolicy {
        /// The reconfigured session.
        session: SessionId,
        /// The endpoint whose export policy changes.
        router: RouterId,
        /// The replacement policy.
        policy: ExportPolicy,
    },
}

/// An event with its firing time and a tie-breaking sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence for deterministic same-time ordering.
    pub seq: u64,
    /// The event.
    pub kind: EventKind,
}

/// What the heap orders: firing time, sequence, and the slab slot that
/// holds the event's payload — 24 bytes, so a sift moves keys, never
/// `EventKind`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Ord for Key {
    /// Reversed so that `BinaryHeap` (a max-heap) pops earliest-first.
    /// `seq` is unique, so the slot never decides.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue: a heap of `Key`s over a
/// slab of payloads whose freed slots are reused.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<EventKind>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                u32::try_from(self.slab.len() - 1).expect("event slab overflow")
            }
        };
        self.heap.push(Key { at, seq, slot });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let Key { at, seq, slot } = self.heap.pop()?;
        let kind = self.slab[slot as usize].take().expect("a queued key owns its slot");
        self.free.push(slot);
        Some(ScheduledEvent { at, seq, kind })
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn announce_at(q: &mut EventQueue, t: u64) {
        q.push(
            SimTime(t),
            EventKind::Announce {
                router: RouterId { asn: kcc_bgp_types::Asn(1), index: 0 },
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
        );
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        announce_at(&mut q, 30);
        announce_at(&mut q, 10);
        announce_at(&mut q, 20);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_pops_in_push_order() {
        let mut q = EventQueue::new();
        for _ in 0..5 {
            announce_at(&mut q, 7);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        announce_at(&mut q, 42);
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn heap_keys_stay_small() {
        assert!(std::mem::size_of::<Key>() <= 24);
    }

    #[test]
    fn interleaved_pushes_pop_like_a_sorted_list() {
        // Pops free slots that later pushes refill; every pop must still
        // be the earliest pending (at, seq), carrying its own payload.
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let check_pop = |q: &mut EventQueue, pending: &mut Vec<(u64, u64)>| {
            let e = q.pop().unwrap();
            let earliest = *pending.iter().min().unwrap();
            pending.retain(|p| *p != earliest);
            assert_eq!((e.at.0, e.seq), earliest);
            let EventKind::Announce { router, .. } = e.kind else { unreachable!() };
            assert_eq!(u64::from(router.asn.value()), e.seq, "payload travels with its key");
        };
        for round in 0..4u64 {
            for i in 0..5u64 {
                let (at, seq) = ((i * 7 + round * 3) % 11, round * 5 + i);
                let router = RouterId { asn: kcc_bgp_types::Asn(seq as u32), index: 0 };
                q.push(
                    SimTime(at),
                    EventKind::Announce { router, prefix: "10.0.0.0/8".parse().unwrap() },
                );
                pending.push((at, seq));
            }
            for _ in 0..3 {
                check_pop(&mut q, &mut pending);
            }
        }
        while !pending.is_empty() {
            check_pop(&mut q, &mut pending);
        }
        assert!(q.pop().is_none());
        assert!(q.slab.len() < 20, "freed slots are reused");
    }
}
