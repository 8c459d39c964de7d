//! The live end of the streaming pipeline.
//!
//! A running collector daemon produces [`SourceItem`]s as its peers'
//! UPDATEs arrive; [`LiveSource`] is the [`UpdateSource`] that hands them
//! to `kcc_core`'s pipeline. Producers push whole batches into one
//! **bounded** ring through [`LiveSender`]s, and the pipeline thread takes
//! them out a batch at a time. At most [`LIVE_RING_ITEMS`] items are ever
//! in flight, so a consumer that falls behind holds its producers back
//! instead of buffering without limit — a route collector takes its
//! heaviest floods exactly when the data matter most.
//!
//! A producer that may block (a replay thread, a test) calls
//! [`LiveSender::send`] or [`LiveSender::send_batch`], which wait for
//! room. One that must not (a reactor shard, which still has timers to
//! fire and writes to flush) first claims room with
//! [`LiveSender::try_reserve`] and stops reading its sockets when the
//! claim fails; its `send_batch` then spends the claim and never waits.
//!
//! Unlike the offline sources, a live feed has no natural end —
//! [`ShutdownFlag`] is the cooperative stop signal shared between the
//! daemon, the source and the pipeline driver: once triggered, the source
//! drains whatever is already buffered and then reports end-of-stream, so
//! a live run finishes with every received update accounted for. The
//! stream also ends once every sender is gone and the ring is empty.
//! Dropping the source closes the ring: sends fail and reservations always
//! succeed, so a feed nobody reads never wedges its producers.
//!
//! This module is transport-agnostic: anything that can produce
//! `SourceItem`s (the `kcc_peer` daemon, a test harness, a replay tool)
//! can feed a `LiveSource`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SendError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::source::{SourceError, SourceItem, UpdateSource};

/// A shared, clonable stop signal for live/unbounded runs.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown. Idempotent.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`ShutdownFlag::trigger`] was called.
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// How many items the ring holds in flight — reserved by a producer or
/// queued, and not yet taken by the consumer — before producers must
/// wait. Not a knob: tens of milliseconds of the pipeline's work, still
/// far more than any batch one wake produces. Every item in flight holds
/// its update's attributes, so this bound is also the ring's share of the
/// daemon's memory.
pub const LIVE_RING_ITEMS: usize = 16 * 1024;

/// How long `next_item` blocks before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
struct RingState {
    batches: VecDeque<Vec<SourceItem>>,
    /// Live [`LiveSender`]s; none left ends the stream once drained.
    senders: usize,
    consumer_waiting: bool,
    senders_waiting: usize,
}

#[derive(Debug, Default)]
struct Ring {
    state: Mutex<RingState>,
    /// Signalled when a batch arrives or the last sender leaves.
    filled: Condvar,
    /// Signalled when room frees up or the source goes away.
    room: Condvar,
    /// Items reserved or queued and not yet taken by the consumer. A
    /// count that publishes no data (the batches travel under the
    /// mutex), so `Relaxed` suffices: every change is a read-modify-write
    /// on this one location, which is what keeps the bound exact.
    in_flight: AtomicUsize,
    /// The source was dropped; nothing will be taken again.
    closed: AtomicBool,
}

impl Ring {
    fn lock(&self) -> MutexGuard<'_, RingState> {
        // Every update leaves the state consistent, so a guard released
        // by a panicking holder is still sound to use.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Counts `n` more items in flight if they fit.
    fn try_reserve(&self, n: usize) -> bool {
        if n == 0 {
            return true;
        }
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            // An empty ring takes a batch of any size, so an oversized one
            // cannot wait forever.
            if cur != 0 && cur + n > LIVE_RING_ITEMS {
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Gives back `n` reserved items; the caller holds the lock.
    fn release(&self, state: &RingState, n: usize) {
        if n > 0 {
            self.in_flight.fetch_sub(n, Ordering::Relaxed);
            if state.senders_waiting > 0 {
                self.room.notify_all();
            }
        }
    }
}

/// What one wait on the ring produced.
enum Take {
    Batch(Vec<SourceItem>),
    /// A full poll interval passed with nothing queued.
    Quiet,
    /// Every sender is gone and nothing is queued.
    Ended,
}

/// The sending half of a [`LiveSource`]. Clone it for every producer;
/// the stream ends when the last clone is dropped.
#[derive(Debug)]
pub struct LiveSender {
    ring: Arc<Ring>,
    /// Room this handle claimed with `try_reserve`, spent by its next
    /// `send_batch`.
    reserved: AtomicUsize,
}

impl LiveSender {
    /// Sends one item, waiting while the ring is full. Fails (handing
    /// the item back) once the source is gone.
    pub fn send(&self, item: SourceItem) -> Result<(), SendError<SourceItem>> {
        self.send_batch(vec![item]).map_err(|SendError(mut batch)| {
            SendError(batch.pop().expect("the failed batch holds the one item sent"))
        })
    }

    /// Sends a batch in one step. Room this handle reserved is spent
    /// first and the unused part given back; a batch larger than its
    /// reservation waits while the ring is full. Fails (handing the batch
    /// back) once the source is gone.
    pub fn send_batch(&self, batch: Vec<SourceItem>) -> Result<(), SendError<Vec<SourceItem>>> {
        let reserved = self.reserved.swap(0, Ordering::Relaxed);
        let ring = &*self.ring;
        let mut state = ring.lock();
        if batch.len() <= reserved {
            ring.release(&state, reserved - batch.len());
        } else {
            ring.release(&state, reserved);
            while !ring.is_closed() && !ring.try_reserve(batch.len()) {
                state.senders_waiting += 1;
                state = ring.room.wait(state).unwrap_or_else(PoisonError::into_inner);
                state.senders_waiting -= 1;
            }
        }
        if ring.is_closed() {
            return Err(SendError(batch));
        }
        if !batch.is_empty() {
            state.batches.push_back(batch);
            if state.consumer_waiting {
                ring.filled.notify_one();
            }
        }
        Ok(())
    }

    /// Claims room for `n` more items on this handle without waiting;
    /// false when the ring cannot take them now. The claim holds until
    /// this handle's next [`send_batch`](Self::send_batch), which then
    /// never waits for a batch that fits it. Always succeeds once the
    /// source is gone.
    pub fn try_reserve(&self, n: usize) -> bool {
        if self.ring.is_closed() {
            return true;
        }
        let ok = self.ring.try_reserve(n);
        if ok {
            self.reserved.fetch_add(n, Ordering::Relaxed);
        }
        ok
    }

    /// Items in flight right now: reserved by any producer or queued,
    /// and not yet taken by the consumer. Never more than
    /// [`LIVE_RING_ITEMS`], except for one oversized batch in an
    /// otherwise empty ring.
    pub fn in_flight(&self) -> usize {
        self.ring.in_flight.load(Ordering::Relaxed)
    }
}

impl Clone for LiveSender {
    fn clone(&self) -> Self {
        self.ring.lock().senders += 1;
        LiveSender { ring: Arc::clone(&self.ring), reserved: AtomicUsize::new(0) }
    }
}

impl Drop for LiveSender {
    fn drop(&mut self) {
        let mut state = self.ring.lock();
        self.ring.release(&state, *self.reserved.get_mut());
        state.senders -= 1;
        if state.senders == 0 && state.consumer_waiting {
            self.ring.filled.notify_one();
        }
    }
}

/// The consuming end of the live ring, as an [`UpdateSource`].
///
/// End-of-stream is reached when either every [`LiveSender`] was dropped
/// (the daemon shut its shards down) or the [`ShutdownFlag`] is
/// triggered — in both cases items already buffered are drained first.
#[derive(Debug)]
pub struct LiveSource {
    ring: Arc<Ring>,
    /// The batch being handed out, already counted out of the ring.
    batch: std::vec::IntoIter<SourceItem>,
    stop: ShutdownFlag,
    items: u64,
}

impl LiveSource {
    /// A source plus its first sender.
    pub fn channel() -> (LiveSender, Self) {
        let ring = Arc::new(Ring::default());
        ring.lock().senders = 1;
        let tx = LiveSender { ring: Arc::clone(&ring), reserved: AtomicUsize::new(0) };
        let source =
            LiveSource { ring, batch: Vec::new().into_iter(), stop: ShutdownFlag::new(), items: 0 };
        (tx, source)
    }

    /// The stop signal; share it with whatever drives the pipeline.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.stop.clone()
    }

    /// Items yielded so far.
    pub fn items_seen(&self) -> u64 {
        self.items
    }

    /// Waits up to `timeout` for the next batch.
    fn take(&self, timeout: Duration) -> Take {
        let ring = &*self.ring;
        let mut state = ring.lock();
        let mut deadline = None;
        loop {
            if let Some(batch) = state.batches.pop_front() {
                ring.release(&state, batch.len());
                return Take::Batch(batch);
            }
            if state.senders == 0 {
                return Take::Ended;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Take::Quiet;
            }
            state.consumer_waiting = true;
            state = ring
                .filled
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.consumer_waiting = false;
        }
    }
}

impl UpdateSource for LiveSource {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        loop {
            if let Some(item) = self.batch.next() {
                self.items += 1;
                return Ok(Some(item));
            }
            // Drain, then end — but a momentarily empty ring is not the
            // end: a producer between its reservation and its send must
            // not lose updates it already counted. One full quiet poll
            // interval is the end-of-drain signal.
            let stopping = self.stop.is_triggered();
            match self.take(POLL) {
                Take::Batch(batch) => self.batch = batch.into_iter(),
                Take::Quiet if !stopping => {}
                Take::Quiet | Take::Ended => return Ok(None),
            }
        }
    }
}

impl Drop for LiveSource {
    fn drop(&mut self) {
        // Under the lock, so a sender cannot check the flag and then miss
        // the wake-up.
        let mut state = self.ring.lock();
        self.ring.closed.store(true, Ordering::SeqCst);
        state.batches.clear();
        self.ring.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{PeerMeta, SessionKey};
    use kcc_bgp_types::{Asn, RouteUpdate};

    fn session_item() -> SourceItem {
        SourceItem::Session(Arc::new(PeerMeta::normal(SessionKey::new(
            "rrc00",
            Asn(20_205),
            "192.0.2.9".parse().unwrap(),
        ))))
    }

    #[test]
    fn yields_items_then_ends_on_sender_drop() {
        let (tx, mut src) = LiveSource::channel();
        tx.send(session_item()).unwrap();
        drop(tx);
        assert!(matches!(src.next_item().unwrap(), Some(SourceItem::Session(_))));
        assert!(src.next_item().unwrap().is_none());
        assert_eq!(src.items_seen(), 1);
    }

    #[test]
    fn shutdown_drains_buffered_items_first() {
        let (tx, mut src) = LiveSource::channel();
        let meta = Arc::new(PeerMeta::normal(SessionKey::new(
            "rrc00",
            Asn(1),
            "10.0.0.1".parse().unwrap(),
        )));
        tx.send(SourceItem::Session(Arc::clone(&meta))).unwrap();
        tx.send(SourceItem::Update(meta, RouteUpdate::withdraw(5, "10.0.0.0/8".parse().unwrap())))
            .unwrap();
        src.shutdown_flag().trigger();
        // Both buffered items still come out, then None — even though the
        // sender is alive (an unbounded live feed).
        assert!(src.next_item().unwrap().is_some());
        assert!(src.next_item().unwrap().is_some());
        assert!(src.next_item().unwrap().is_none());
        drop(tx);
    }

    #[test]
    fn shutdown_unblocks_an_idle_source() {
        let (tx, mut src) = LiveSource::channel();
        let flag = src.shutdown_flag();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag.trigger();
        });
        // No items ever arrive; the poll loop notices the flag.
        assert!(src.next_item().unwrap().is_none());
        t.join().unwrap();
        drop(tx);
    }

    /// Reservations stop at the bound, and the room comes back as the
    /// consumer takes batches — or all at once when the source goes.
    #[test]
    fn reservations_stop_at_the_bound_until_the_consumer_takes() {
        let (tx, mut src) = LiveSource::channel();
        assert!(tx.try_reserve(LIVE_RING_ITEMS - 1));
        assert!(tx.try_reserve(1));
        assert!(!tx.try_reserve(1), "the ring is full");
        let batch: Vec<SourceItem> = (0..LIVE_RING_ITEMS).map(|_| session_item()).collect();
        tx.send_batch(batch).unwrap();
        assert_eq!(tx.in_flight(), LIVE_RING_ITEMS, "a reserved send adds nothing");
        assert!(src.next_item().unwrap().is_some());
        assert_eq!(tx.in_flight(), 0, "taking the batch frees its room");
        assert!(tx.try_reserve(3));
        tx.send_batch(vec![session_item()]).unwrap();
        assert_eq!(tx.in_flight(), 1, "the unused part of a reservation is given back");
        drop(src);
        assert!(tx.try_reserve(2 * LIVE_RING_ITEMS), "a dropped source never holds room");
        assert!(tx.send(session_item()).is_err());
    }

    /// A blocking sender waits for room instead of overrunning the bound,
    /// and everything it sent arrives in order.
    #[test]
    fn blocking_sends_wait_for_room_and_keep_order() {
        let (tx, mut src) = LiveSource::channel();
        let total = LIVE_RING_ITEMS + 100;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                let update = RouteUpdate::withdraw(i as u64, "10.0.0.0/8".parse().unwrap());
                let meta = Arc::new(PeerMeta::normal(SessionKey::new(
                    "rrc00",
                    Asn(1),
                    "10.0.0.1".parse().unwrap(),
                )));
                tx.send(SourceItem::Update(meta, update)).unwrap();
                assert!(tx.in_flight() <= LIVE_RING_ITEMS);
            }
        });
        let mut next = 0u64;
        while let Some(item) = src.next_item().unwrap() {
            let SourceItem::Update(_, u) = item else { panic!("only updates were sent") };
            assert_eq!(u.time_us, next);
            next += 1;
        }
        producer.join().unwrap();
        assert_eq!(next, total as u64);
    }
}
