//! The event-driven session engine: thousands of BGP sessions on a
//! bounded worker pool.
//!
//! The thread-per-session runner (PR 4) topped out around hundreds of
//! peers — two OS threads per session is the deployment shape of the
//! original RouteViews quaggas, not of a collector holding the whole
//! table. This module replaces it with readiness multiplexing: **N shard
//! threads** (N ≪ sessions, default 2) each own an epoll [`Poller`]
//! ([`crate::sys`]), a slab of nonblocking session state objects, and a
//! [`TimerWheel`]. Shard 0 also owns the listening sockets and deals
//! accepted connections round-robin to every shard through an injector
//! queue + waker.
//!
//! Each session is the pure FSM ([`crate::fsm`]) plus resumable framing
//! ([`FrameBuffer`]/[`WriteQueue`]): readable events feed bytes through
//! the frame buffer into `Fsm::handle`, FSM `Send` actions queue into a
//! capped write backlog flushed as the socket accepts, and the FSM's
//! `next_deadline()` arms the shard's timer wheel — hold, keepalive and
//! open-hold timers fire with no thread parked per session. A per-wake
//! read budget keeps one flooding peer from starving the rest of the
//! shard, and the wheel is advanced on *every* loop iteration, so due
//! timers fire even while inbound readiness never pauses.
//!
//! Sessions never migrate between shards, so per-session event order —
//! the property the collector's deterministic logical stamping rests on —
//! is exactly what it was with a dedicated thread.
//!
//! A shard hands what its sessions produce straight to the pipeline's
//! bounded ring, a wake at a time: session events collect in a pending
//! `Vec`, flushed at the end of every loop iteration, whenever it reaches
//! `FLUSH_EVENTS`, and before any session's socket closes — so a
//! reconnect that lands on the other shard stamps after everything the
//! old connection delivered. A flush takes the collector's ingest table
//! lock once, stamps there, and sends under that lock. Each message
//! claims its ring room before the FSM sees it; when the ring is full the
//! session is parked — its socket leaves the poller, so TCP flow control
//! pushes back on the peer instead of level-triggered readiness spinning
//! the shard — and retried every `STALL_POLL_MS` while its timers and
//! writes carry on.
//!
//! Shards subscribe to the [`ConfigStore`] generation: a committed peer-
//! policy change Ceases disallowed sessions (and refuses new ones at
//! OPEN time) without touching any other session; committed listener
//! changes bind/close extra accept sockets on shard 0.

pub mod framing;
pub mod timer;

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use kcc_bgp_types::Asn;
use kcc_bgp_wire::{Message, Notification, SessionConfig, UpdatePacket};
use kcc_collector::{LiveSender, ShutdownFlag};
use kcc_obs::TraceLevel;

use crate::clock::Clock;
use crate::collector::IngestTable;
use crate::config::ConfigStore;
use crate::fsm::{Action, DownReason, EstablishedInfo, Fsm, FsmConfig, FsmEvent};
use crate::sys::{PollEvent, Poller, Waker, WAKE_TOKEN};
use framing::{FlushOutcome, FrameBuffer, WriteQueue};
use timer::{DueTimer, TimerWheel};

/// What a shard hands the ingest table, in per-session order. A peer is
/// `(ASN, BGP identifier)`, the daemon's session identity.
// Nearly every event is an UPDATE, and the shard's pending `Vec` keeps
// its capacity across wakes: boxing the packet would only add an
// allocation per UPDATE.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum SessionEvent {
    /// The handshake completed.
    Established { peer: (Asn, Ipv4Addr) },
    /// An UPDATE arrived (only ever after `Established`).
    Update { peer: (Asn, Ipv4Addr), packet: UpdatePacket },
    /// A connection ended, Established or not.
    Closed,
}

/// Where a shard's batches go: the daemon-wide ingest table every shard
/// stamps under, and the ring it feeds. Every shard holds its own clone,
/// so the ring's stream ends when the last shard exits.
#[derive(Clone)]
pub(crate) struct Handoff {
    pub(crate) ingest: Arc<Mutex<IngestTable>>,
    pub(crate) live: LiveSender,
}

impl Handoff {
    fn lock_ingest(&self) -> MutexGuard<'_, IngestTable> {
        self.ingest.lock().expect("a shard panicked while stamping")
    }
}

/// Shape of the reactor's worker pool and per-session buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Shard threads. The whole point: workers ≪ sessions.
    pub workers: usize,
    /// Per-session outbound backlog cap (bytes); overflow tears the
    /// session down.
    pub write_queue_cap: usize,
    /// Per-session bytes read per readiness wake, so one flooding peer
    /// cannot starve its shard (level-triggered readiness re-reports the
    /// remainder on the next wait).
    pub read_budget: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 2, write_queue_cap: 4 * 1024 * 1024, read_budget: 256 * 1024 }
    }
}

/// Live counters shared between the shards and the daemon's observers —
/// readable while the reactor runs, which is what lets a soak prove ≥N
/// *concurrent* sessions rather than N sessions ever.
#[derive(Debug, Default)]
pub struct LiveGauges {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Sessions currently Established.
    pub established: AtomicU64,
    /// High-water mark of `established`.
    pub peak_established: AtomicU64,
}

impl LiveGauges {
    fn session_up(&self) {
        let now = self.established.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_established.fetch_max(now, Ordering::Relaxed);
    }

    fn session_down(&self) {
        self.established.fetch_sub(1, Ordering::Relaxed);
    }

    /// Polls until the daemon itself reports `n` concurrently
    /// Established sessions, or `timeout` elapses (returns whether the
    /// count was reached). A dialing client's FSM goes Up half a
    /// round-trip before the daemon processes the closing KEEPALIVE, so
    /// concurrency assertions must wait on this gauge, not on the
    /// client's own count.
    pub fn wait_for_established(&self, n: u64, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.established.load(Ordering::Relaxed) >= n {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// While stopping, cease a session after this long without decoding a
/// message — measured from the last progress, so a backlogged peer
/// finishes its drain instead of dropping received updates.
const STOP_GRACE_MS: u64 = 2_000;
/// Absolute cap on the stopping drain, so a peer that floods forever
/// cannot hold the daemon open.
const STOP_HARD_CAP_MS: u64 = 30_000;
/// Poll timeout: how often a shard re-checks the shutdown flag and the
/// config generation when no readiness arrives.
const POLL_MS: i32 = 100;
/// Poll timeout while draining (mirrors the old runner's stop cadence).
const STOP_POLL_MS: i32 = 50;
/// Poll timeout while sessions are parked on a full ring: how soon they
/// retry once the pipeline catches up.
const STALL_POLL_MS: i32 = 1;
/// A wake's pending events are flushed to the ring at least this often.
const FLUSH_EVENTS: usize = 1024;

/// Sessions are addressed as `epoch << SLOT_BITS | slot`; the epoch
/// makes a recycled slot's stale timers detectable.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Listener tokens live above every session token, below [`WAKE_TOKEN`].
const LISTEN_BASE: u64 = u64::MAX - (1 << 16);

const TRACE_TARGET: &str = "reactor";

/// Pre-registered handles into the daemon's metrics registry — built
/// once per shard at spawn, so recording on the hot path is a relaxed
/// atomic and never touches the registry lock.
struct ShardMetrics {
    sessions_established: Arc<kcc_obs::Counter>,
    sessions_ceased: Arc<kcc_obs::Counter>,
    frames_decoded: Arc<kcc_obs::Counter>,
    write_queue_overflows: Arc<kcc_obs::Counter>,
    hold_timer_expiries: Arc<kcc_obs::Counter>,
    poll_wakeups: Arc<kcc_obs::Counter>,
    write_queue_peak: Arc<kcc_obs::Gauge>,
    /// Peak items in flight in the `LiveSource` ring, seen at flushes.
    ring_items: Arc<kcc_obs::Gauge>,
    /// Times a shard found the ring full and parked a session.
    ring_full: Arc<kcc_obs::Counter>,
}

impl ShardMetrics {
    fn new(registry: &kcc_obs::Registry, shard: usize) -> Self {
        ShardMetrics {
            sessions_established: registry.counter("kcc_reactor_sessions_established_total"),
            sessions_ceased: registry.counter("kcc_reactor_sessions_ceased_total"),
            frames_decoded: registry.counter("kcc_reactor_frames_decoded_total"),
            write_queue_overflows: registry.counter("kcc_reactor_write_queue_overflows_total"),
            hold_timer_expiries: registry.counter("kcc_reactor_hold_timer_expiries_total"),
            poll_wakeups: registry
                .counter_with("kcc_reactor_poll_wakeups_total", &[("shard", &shard.to_string())]),
            write_queue_peak: registry.gauge("kcc_reactor_write_queue_peak_bytes"),
            ring_items: registry.gauge("kcc_live_ring_items"),
            ring_full: registry.counter("kcc_live_ring_full_total"),
        }
    }
}

/// A stream handed from the accepting shard to its owning shard.
struct Injector {
    queue: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// A running reactor: shard threads plus the shared observability
/// handles. Obtained from [`spawn`]; stopped via the [`ShutdownFlag`]
/// given to it, then [`Reactor::join`]ed.
pub(crate) struct Reactor {
    shards: Vec<JoinHandle<()>>,
    gauges: Arc<LiveGauges>,
    listen_addrs: Arc<Mutex<Vec<SocketAddr>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("workers", &self.shards.len()).finish()
    }
}

impl Reactor {
    /// The live counters.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// Every address currently accepting connections (primary bind plus
    /// committed extras).
    pub fn listen_addrs(&self) -> Vec<SocketAddr> {
        self.listen_addrs.lock().unwrap().clone()
    }

    /// Waits for every shard to drain and exit. Trigger the shutdown
    /// flag first (or have every peer disconnect — the listener still
    /// needs the flag to close).
    pub fn join(self) {
        for h in self.shards {
            let _ = h.join();
        }
    }
}

/// Starts the reactor over an already-bound listener. Every accepted
/// connection becomes a passive FSM session; each shard stamps its
/// sessions' events under `handoff`'s ingest table and sends them to its
/// ring, in per-session order.
pub(crate) fn spawn(
    listener: TcpListener,
    fsm_cfg: FsmConfig,
    clock: Arc<dyn Clock>,
    handoff: Handoff,
    shutdown: ShutdownFlag,
    store: Arc<ConfigStore>,
    options: ReactorConfig,
) -> std::io::Result<Reactor> {
    let fsm_cfg = fsm_cfg.passive();
    let primary_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Best-effort: a multi-thousand-session connect burst overflows the
    // default backlog of 128 long before shard 0 gets scheduled.
    let _ = crate::sys::raise_listen_backlog(&listener, 8192);

    let workers = options.workers.max(1);
    let mut pollers = Vec::with_capacity(workers);
    for _ in 0..workers {
        pollers.push(Poller::new()?);
    }
    let injectors: Arc<Vec<Injector>> = Arc::new(
        pollers
            .iter()
            .map(|p| Injector { queue: Mutex::new(Vec::new()), waker: p.waker() })
            .collect(),
    );
    let gauges = Arc::new(LiveGauges::default());
    let listen_addrs = Arc::new(Mutex::new(vec![primary_addr]));

    let mut shards = Vec::with_capacity(workers);
    for (id, poller) in pollers.into_iter().enumerate() {
        let mut shard = Shard {
            id,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_epoch: 0,
            wheel: TimerWheel::new(clock.now_ms()),
            listeners: Vec::new(),
            next_listener_token: LISTEN_BASE,
            injectors: Arc::clone(&injectors),
            handoff: handoff.clone(),
            pending: Vec::new(),
            paused: VecDeque::new(),
            shutdown: shutdown.clone(),
            clock: Arc::clone(&clock),
            fsm_cfg: fsm_cfg.clone(),
            store: Arc::clone(&store),
            last_gen: store.generation(),
            gauges: Arc::clone(&gauges),
            metrics: ShardMetrics::new(store.metrics(), id),
            listen_addrs: Arc::clone(&listen_addrs),
            rr_next: 0,
            stopping: false,
            options: options.clone(),
            due: Vec::new(),
            ready: Vec::new(),
        };
        if id == 0 {
            shard.add_listener(primary_addr, listener.try_clone()?)?;
            // Committed extra listeners from the initial config.
            shard.apply_listeners();
        }
        shards.push(
            std::thread::Builder::new()
                .name(format!("kcc-reactor-{id}"))
                .spawn(move || shard.run())?,
        );
    }
    drop(listener);
    Ok(Reactor { shards, gauges, listen_addrs })
}

/// One nonblocking session: socket + FSM + resumable framing + armed
/// deadline.
struct Session {
    token: u64,
    stream: TcpStream,
    remote: SocketAddr,
    fsm: Fsm,
    frames: FrameBuffer,
    writes: WriteQueue,
    write_cfg: SessionConfig,
    info: Option<EstablishedInfo>,
    /// The deadline the FSM currently wants (min over its timers).
    armed_deadline: Option<u64>,
    /// The earliest entry physically in the wheel for this session —
    /// re-arming later than this rides the existing entry (lazy
    /// cancellation) instead of inserting per message under flood.
    wheel_deadline: Option<u64>,
    /// Write interest wanted (registered with the poller unless paused).
    want_write: bool,
    /// Parked on a full ring: out of the poller until resumed.
    paused: bool,
    /// The decoded message that found the ring full, fed first on resume.
    parked: Option<Message>,
    /// Set when shutdown began; drives the drain grace window.
    stopping_since: Option<u64>,
    last_progress: u64,
}

/// How feeding a session's buffered frames ended.
enum Fed {
    /// Every whole frame went to the FSM.
    Drained,
    /// The ring is full; the next message is parked.
    Stalled,
    /// The session was torn down.
    Down,
}

struct Shard {
    id: usize,
    poller: Poller,
    slots: Vec<Option<Session>>,
    free: Vec<usize>,
    live: usize,
    next_epoch: u64,
    wheel: TimerWheel,
    /// Accept sockets (shard 0 only): requested address, token, socket.
    listeners: Vec<(SocketAddr, u64, TcpListener)>,
    next_listener_token: u64,
    injectors: Arc<Vec<Injector>>,
    handoff: Handoff,
    /// This wake's events, not yet stamped (see [`Shard::flush`]).
    pending: Vec<SessionEvent>,
    /// Tokens of sessions parked on a full ring, oldest first.
    paused: VecDeque<u64>,
    shutdown: ShutdownFlag,
    clock: Arc<dyn Clock>,
    fsm_cfg: FsmConfig,
    store: Arc<ConfigStore>,
    last_gen: u64,
    gauges: Arc<LiveGauges>,
    metrics: ShardMetrics,
    listen_addrs: Arc<Mutex<Vec<SocketAddr>>>,
    /// Round-robin cursor for dealing accepted streams (shard 0 only).
    rr_next: usize,
    stopping: bool,
    options: ReactorConfig,
    /// Scratch for due timers / readiness events, reused across loops.
    due: Vec<DueTimer>,
    ready: Vec<PollEvent>,
}

impl Shard {
    fn run(&mut self) {
        loop {
            let timeout = if !self.paused.is_empty() {
                STALL_POLL_MS
            } else if self.stopping {
                STOP_POLL_MS
            } else {
                POLL_MS
            };
            self.metrics.poll_wakeups.inc();
            let mut ready = std::mem::take(&mut self.ready);
            if self.poller.wait(&mut ready, timeout).is_err() {
                // A failed wait would spin; treat it as fatal for the
                // shard and drain what we have.
                self.stopping = true;
            }
            let now = self.clock.now_ms();
            for ev in &ready {
                if ev.token == WAKE_TOKEN {
                    self.drain_injector();
                } else if ev.token >= LISTEN_BASE {
                    self.accept_burst(ev.token);
                } else {
                    self.session_io(ev.token, ev.readable, ev.writable, now);
                }
            }
            self.ready = ready;
            self.ready.clear();

            // Timers fire on every iteration — a flood that keeps the
            // poller permanently ready must not starve the keepalive
            // cadence or the hold timer.
            let now = self.clock.now_ms();
            let mut due = std::mem::take(&mut self.due);
            self.wheel.advance(now, &mut due);
            for d in due.drain(..) {
                self.timer_fired(d, now);
            }
            self.due = due;

            let gen = self.store.generation();
            if gen != self.last_gen {
                self.last_gen = gen;
                self.apply_config(now);
            }

            if self.shutdown.is_triggered() && !self.stopping {
                self.begin_stop(now);
            }
            self.resume_paused(now);
            self.flush();
            if self.stopping {
                self.sweep_drain(now);
                if self.live == 0 {
                    break;
                }
            }
        }
        // Dropping this shard's ring sender (with every other shard's)
        // ends the live stream once the last shard drains.
    }

    // ---------------- accept / adopt ----------------

    fn add_listener(
        &mut self,
        requested: SocketAddr,
        listener: TcpListener,
    ) -> std::io::Result<()> {
        let token = self.next_listener_token;
        self.next_listener_token += 1;
        self.poller.register(listener.as_raw_fd(), token, true, false)?;
        self.listeners.push((requested, token, listener));
        self.publish_listen_addrs();
        Ok(())
    }

    fn publish_listen_addrs(&self) {
        let addrs: Vec<SocketAddr> =
            self.listeners.iter().filter_map(|(_, _, l)| l.local_addr().ok()).collect();
        *self.listen_addrs.lock().unwrap() = addrs;
    }

    fn accept_burst(&mut self, token: u64) {
        let Some(idx) = self.listeners.iter().position(|&(_, t, _)| t == token) else {
            return;
        };
        loop {
            match self.listeners[idx].2.accept() {
                Ok((stream, _)) => {
                    self.gauges.accepted.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr_next % self.injectors.len();
                    self.rr_next = self.rr_next.wrapping_add(1);
                    if target == self.id {
                        self.adopt(stream);
                    } else {
                        let injector = &self.injectors[target];
                        injector.queue.lock().unwrap().push(stream);
                        injector.waker.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failures (peer reset before
                    // accept, fd pressure) must not kill the daemon;
                    // level-triggered readiness retries on the next
                    // wait.
                    break;
                }
            }
        }
    }

    fn drain_injector(&mut self) {
        let streams: Vec<TcpStream> =
            self.injectors[self.id].queue.lock().unwrap().drain(..).collect();
        for stream in streams {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.stopping {
            return; // accepted during shutdown: close immediately
        }
        let _ = stream.set_nodelay(true);
        let remote = match stream.peer_addr() {
            Ok(a) => a,
            Err(_) => {
                self.pending.push(SessionEvent::Closed);
                return;
            }
        };
        if stream.set_nonblocking(true).is_err() {
            self.pending.push(SessionEvent::Closed);
            return;
        }

        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        assert!(slot as u64 <= SLOT_MASK, "slot space exhausted");
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let token = (epoch << SLOT_BITS) | slot as u64;

        let now = self.clock.now_ms();
        let mut fsm = Fsm::new(self.fsm_cfg.clone());
        let mut actions = fsm.handle(FsmEvent::Start, now);
        actions.extend(fsm.handle(FsmEvent::TcpConnected, now));

        if self.poller.register(stream.as_raw_fd(), token, true, false).is_err() {
            self.free.push(slot);
            self.pending.push(SessionEvent::Closed);
            return;
        }
        self.slots[slot] = Some(Session {
            token,
            stream,
            remote,
            fsm,
            frames: FrameBuffer::new(SessionConfig::default(), true),
            writes: WriteQueue::new(self.options.write_queue_cap),
            write_cfg: SessionConfig::default(),
            info: None,
            armed_deadline: None,
            wheel_deadline: None,
            want_write: false,
            paused: false,
            parked: None,
            stopping_since: None,
            last_progress: now,
        });
        self.live += 1;
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {} adopted {} as token {:#x}", self.id, remote, token)
        });
        if !self.process_actions(slot, actions, now) {
            self.finish_io(slot, now);
        }
    }

    // ---------------- per-session I/O ----------------

    /// Resolves a token to its live slot (stale tokens — the slot was
    /// recycled — resolve to `None`).
    fn resolve(&self, token: u64) -> Option<usize> {
        let slot = (token & SLOT_MASK) as usize;
        match self.slots.get(slot) {
            Some(Some(s)) if s.token == token => Some(slot),
            _ => None,
        }
    }

    fn session_io(&mut self, token: u64, readable: bool, writable: bool, now: u64) {
        let Some(slot) = self.resolve(token) else { return };
        if writable && self.flush_writes(slot) {
            return;
        }
        if readable && self.read_burst(slot, now) {
            return;
        }
        self.finish_io(slot, now);
    }

    /// Feeds what is already buffered, then reads up to the per-wake
    /// budget, feeding as it goes. Returns true when the session was torn
    /// down.
    fn read_burst(&mut self, slot: usize, now: u64) -> bool {
        let mut budget = self.options.read_budget;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.feed_buffered(slot, now) {
                Fed::Drained => {}
                Fed::Stalled => {
                    self.pause(slot);
                    return false;
                }
                Fed::Down => return true,
            }
            let take = budget.min(chunk.len());
            if take == 0 {
                return false; // budget spent; level-triggered readiness re-reports
            }
            let sess = self.slots[slot].as_mut().expect("resolved slot");
            match sess.stream.read(&mut chunk[..take]) {
                Ok(0) => break,
                Ok(n) => {
                    budget -= n;
                    sess.frames.extend(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // EOF or a failed read, after everything buffered was fed.
        let actions = {
            let sess = self.slots[slot].as_mut().expect("resolved slot");
            sess.fsm.handle(FsmEvent::TcpFailed, now)
        };
        if !self.process_actions(slot, actions, now) {
            // The FSM chose to survive transport loss (it does not, for
            // passive sessions — belt and braces).
            self.teardown(slot, DownReason::TcpFailed, false);
        }
        true
    }

    /// Feeds the session's parked message, then every whole frame already
    /// buffered, to the FSM — each only once the ring has room for what
    /// it can produce, so the bound holds before the FSM sees a message.
    fn feed_buffered(&mut self, slot: usize, now: u64) -> Fed {
        loop {
            let sess = self.slots[slot].as_mut().expect("resolved slot");
            let message = match sess.parked.take() {
                Some(m) => m,
                None => match sess.frames.next_message() {
                    Ok(Some(m)) => {
                        self.metrics.frames_decoded.inc();
                        m
                    }
                    Ok(None) => return Fed::Drained,
                    Err(w) => {
                        let actions = sess.fsm.handle(FsmEvent::DecodeError(w), now);
                        if !self.process_actions(slot, actions, now) {
                            self.teardown(slot, DownReason::TcpFailed, true);
                        }
                        return Fed::Down;
                    }
                },
            };
            // An UPDATE's per-prefix updates, or the session announcement
            // a handshake message may complete.
            let items = match &message {
                Message::Update(packet) => packet.route_update_count(),
                _ if sess.info.is_none() => 1,
                _ => 0,
            };
            if !self.handoff.live.try_reserve(items) {
                sess.parked = Some(message);
                self.metrics.ring_full.inc();
                return Fed::Stalled;
            }
            sess.last_progress = now;
            let actions = sess.fsm.handle(FsmEvent::Message(message), now);
            if self.process_actions(slot, actions, now) {
                return Fed::Down;
            }
        }
    }

    /// Parks a session whose next message found the ring full. Its socket
    /// leaves the poller — level-triggered readiness would report the
    /// unread bytes on every wait — until [`Shard::resume_paused`] finds
    /// room; TCP flow control holds the peer back meanwhile.
    fn pause(&mut self, slot: usize) {
        let sess = self.slots[slot].as_mut().expect("resolved slot");
        sess.paused = true;
        let _ = self.poller.deregister(sess.stream.as_raw_fd());
        self.paused.push_back(sess.token);
    }

    /// Retries parked sessions, oldest first, stopping at the first that
    /// still finds the ring full so the rest keep their place. A session
    /// whose buffered frames all fit rejoins the poller.
    fn resume_paused(&mut self, now: u64) {
        while let Some(&token) = self.paused.front() {
            let Some(slot) = self.resolve(token) else {
                self.paused.pop_front(); // torn down while parked
                continue;
            };
            match self.feed_buffered(slot, now) {
                Fed::Stalled => {
                    self.finish_io(slot, now);
                    return;
                }
                Fed::Down => {
                    self.paused.pop_front();
                }
                Fed::Drained => {
                    self.paused.pop_front();
                    let sess = self.slots[slot].as_mut().expect("resolved slot");
                    sess.paused = false;
                    let (fd, want_write) = (sess.stream.as_raw_fd(), sess.want_write);
                    if self.poller.register(fd, token, true, want_write).is_err() {
                        self.teardown(slot, DownReason::TcpFailed, false);
                        continue;
                    }
                    self.finish_io(slot, now);
                }
            }
        }
    }

    /// Hands the pending events to the ring: one lock on the ingest
    /// table, stamped there and sent under it, so ring order is stamp
    /// order across shards.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let live = &self.handoff.live;
        self.metrics.ring_items.set_max(live.in_flight() as i64);
        let mut batch = Vec::with_capacity(self.pending.len());
        let mut ingest = self.handoff.lock_ingest();
        ingest.stamp(self.pending.drain(..), &mut batch);
        // A send fails only once the source is gone: the updates are
        // already counted and dumped, and nobody is left to read them.
        let _ = live.send_batch(batch);
    }

    /// Executes FSM actions for a session. Returns true when the session
    /// was torn down (the slot is then recycled — do not touch it).
    fn process_actions(&mut self, slot: usize, actions: Vec<Action>, now: u64) -> bool {
        for action in actions {
            match action {
                Action::Send(m) => {
                    let (overflow, queued) = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        let cfg = sess.write_cfg;
                        let overflow = sess.writes.push_message(&m, &cfg).is_err();
                        (overflow, sess.writes.queued())
                    };
                    self.metrics.write_queue_peak.set_max(queued as i64);
                    if overflow {
                        self.metrics.write_queue_overflows.inc();
                        self.store.trace().log(TRACE_TARGET, TraceLevel::Error, || {
                            format!("shard {}: write backlog overflow, ceasing session", self.id)
                        });
                        self.teardown(
                            slot,
                            DownReason::ProtocolError("write backlog overflow"),
                            true,
                        );
                        return true;
                    }
                }
                Action::Up(info) => {
                    if !self.store.running().peers.allows(info.peer_asn) {
                        // Policy refusal at the last pre-announcement
                        // moment: the daemon never reports Established
                        // for a disallowed peer.
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        let cfg = sess.write_cfg;
                        let _ = sess.writes.push_message(
                            &Message::Notification(Notification::bad_peer_as()),
                            &cfg,
                        );
                        self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
                            format!("refused disallowed peer AS{}", info.peer_asn.0)
                        });
                        self.teardown(slot, DownReason::ProtocolError("peer not allowed"), true);
                        return true;
                    }
                    let peer = (info.peer_asn, info.peer_bgp_id);
                    let remote = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        sess.write_cfg = info.config;
                        sess.info = Some(info);
                        sess.remote
                    };
                    self.gauges.session_up();
                    self.metrics.sessions_established.inc();
                    self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
                        format!("session up: AS{} via {}", peer.0 .0, remote)
                    });
                    self.pending.push(SessionEvent::Established { peer });
                }
                Action::Deliver(packet) => {
                    let sess = self.slots[slot].as_ref().expect("resolved slot");
                    let info = sess.info.as_ref().expect("Deliver only after Up");
                    let peer = (info.peer_asn, info.peer_bgp_id);
                    self.pending.push(SessionEvent::Update { peer, packet });
                    if self.pending.len() >= FLUSH_EVENTS {
                        self.flush();
                    }
                }
                Action::Down(reason) => {
                    self.teardown(slot, reason, true);
                    return true;
                }
                Action::StartConnect => unreachable!("passive sessions never dial"),
            }
        }
        let _ = now;
        false
    }

    /// Post-interaction bookkeeping for a still-live session: flush
    /// queued writes and re-arm the timer wheel.
    fn finish_io(&mut self, slot: usize, now: u64) {
        if self.flush_writes(slot) {
            return;
        }
        self.rearm_timer(slot, now);
    }

    /// Flushes the write backlog and keeps poller write interest in sync
    /// with whether anything remains. Returns true when the session was
    /// torn down.
    fn flush_writes(&mut self, slot: usize) -> bool {
        let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return true;
        };
        let outcome = {
            let (writes, stream) = (&mut sess.writes, &mut sess.stream);
            writes.flush(stream)
        };
        let want_write = match outcome {
            Ok(FlushOutcome::Flushed) => false,
            Ok(FlushOutcome::Pending) => true,
            Err(_) => {
                self.teardown(slot, DownReason::TcpFailed, false);
                return true;
            }
        };
        if sess.want_write != want_write {
            sess.want_write = want_write;
            // A parked session is out of the poller; resuming registers
            // whatever write interest it then wants.
            if !sess.paused {
                let (fd, token) = (sess.stream.as_raw_fd(), sess.token);
                let _ = self.poller.modify(fd, token, true, want_write);
            }
        }
        false
    }

    // ---------------- timers ----------------

    /// Re-arms the wheel with the FSM's current deadline, lazily: an
    /// existing earlier wheel entry is reused, so a flood re-extending
    /// the hold timer on every message does not grow the wheel.
    fn rearm_timer(&mut self, slot: usize, _now: u64) {
        let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else { return };
        let armed = sess.fsm.next_deadline();
        sess.armed_deadline = armed;
        if let Some(d) = armed {
            if sess.wheel_deadline.is_none_or(|w| d < w) {
                self.wheel.insert(d, sess.token);
                sess.wheel_deadline = Some(d);
            }
        }
    }

    fn timer_fired(&mut self, entry: DueTimer, now: u64) {
        let Some(slot) = self.resolve(entry.token) else { return };
        let fire = {
            let sess = self.slots[slot].as_mut().expect("resolved slot");
            if sess.wheel_deadline == Some(entry.deadline_ms) {
                sess.wheel_deadline = None;
            }
            sess.armed_deadline.is_some_and(|d| now >= d)
        };
        if fire {
            let actions = {
                let sess = self.slots[slot].as_mut().expect("resolved slot");
                sess.fsm.handle(FsmEvent::Timer, now)
            };
            if self.process_actions(slot, actions, now) {
                return;
            }
        }
        self.finish_io(slot, now);
    }

    // ---------------- config / shutdown ----------------

    /// Applies a newly committed running config: Cease sessions whose
    /// peer the policy no longer allows (no other session is touched),
    /// reconcile extra listeners on shard 0, and let the ingest table
    /// pick up stamping and rotation changes even while no update flows.
    fn apply_config(&mut self, now: u64) {
        self.handoff.lock_ingest().sync_config();
        let cfg = self.store.running();
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {} applying config generation {}", self.id, self.last_gen)
        });
        for slot in 0..self.slots.len() {
            let disallowed = match &self.slots[slot] {
                Some(s) => s.info.as_ref().is_some_and(|i| !cfg.peers.allows(i.peer_asn)),
                None => false,
            };
            if disallowed {
                self.stop_session(slot, now);
            }
        }
        if self.id == 0 && !self.stopping {
            self.apply_listeners();
        }
    }

    /// Reconciles the extra-listener set with the running config
    /// (shard 0; the primary bind at index 0 is never removed).
    fn apply_listeners(&mut self) {
        let want = self.store.running().listen.clone();
        // Close extras (index ≥ 1) no longer configured.
        let mut i = 1;
        while i < self.listeners.len() {
            if want.contains(&self.listeners[i].0) {
                i += 1;
            } else {
                let (_, _, listener) = self.listeners.remove(i);
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
        }
        // Bind newly configured extras.
        for addr in want {
            if self.listeners.iter().any(|&(req, _, _)| req == addr) {
                continue;
            }
            match TcpListener::bind(addr) {
                Ok(listener) => {
                    if listener.set_nonblocking(true).is_ok() {
                        let _ = crate::sys::raise_listen_backlog(&listener, 8192);
                        let _ = self.add_listener(addr, listener);
                    }
                }
                Err(e) => {
                    self.store.trace().log(TRACE_TARGET, TraceLevel::Error, || {
                        format!("cannot bind extra listener {addr}: {e}")
                    });
                }
            }
        }
        self.publish_listen_addrs();
    }

    /// Administratively stops one session (config removal, drain cap).
    fn stop_session(&mut self, slot: usize, now: u64) {
        let actions = {
            let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else { return };
            sess.fsm.handle(FsmEvent::Stop, now)
        };
        if actions.is_empty() {
            self.teardown(slot, DownReason::AdminStop, true);
        } else {
            self.process_actions(slot, actions, now);
        }
    }

    fn begin_stop(&mut self, now: u64) {
        self.stopping = true;
        for (_, _, listener) in self.listeners.drain(..) {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        if self.id == 0 {
            self.listen_addrs.lock().unwrap().clear();
        }
        for sess in self.slots.iter_mut().flatten() {
            sess.stopping_since = Some(now);
            sess.last_progress = now;
        }
        self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
            format!("shard {} draining {} sessions", self.id, self.live)
        });
    }

    /// While stopping, Cease each session once its quiet window (or the
    /// hard cap) elapses — received updates keep draining until then.
    fn sweep_drain(&mut self, now: u64) {
        for slot in 0..self.slots.len() {
            let expired = match &self.slots[slot] {
                Some(s) => match s.stopping_since {
                    Some(since) => {
                        now.saturating_sub(s.last_progress) >= STOP_GRACE_MS
                            || now.saturating_sub(since) >= STOP_HARD_CAP_MS
                    }
                    None => {
                        // Adopted before the flag flipped but after
                        // begin_stop's sweep: start its window now.
                        if let Some(s) = self.slots[slot].as_mut() {
                            s.stopping_since = Some(now);
                            s.last_progress = now;
                        }
                        false
                    }
                },
                None => false,
            };
            if expired {
                self.stop_session(slot, now);
            }
        }
    }

    fn teardown(&mut self, slot: usize, reason: DownReason, try_flush: bool) {
        let Some(mut sess) = self.slots.get_mut(slot).and_then(Option::take) else { return };
        self.free.push(slot);
        self.live -= 1;
        if try_flush {
            // Best effort: get the queued NOTIFICATION out if the socket
            // will take it.
            let (writes, stream) = (&mut sess.writes, &mut sess.stream);
            let _ = writes.flush(stream);
        }
        let _ = self.poller.deregister(sess.stream.as_raw_fd());
        if sess.info.is_some() {
            self.gauges.session_down();
            self.metrics.sessions_ceased.inc();
        }
        if matches!(reason, DownReason::HoldTimerExpired) {
            self.metrics.hold_timer_expiries.inc();
        }
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {}: session {} down: {:?}", self.id, sess.remote, reason)
        });
        self.pending.push(SessionEvent::Closed);
        // Flush before the socket closes: a reconnect that lands on the
        // other shard must stamp after everything this connection
        // delivered.
        self.flush();
        // sess.stream drops here, closing the socket.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::HandPlayedPeer;
    use crate::clock::WallClock;
    use crate::collector::{CollectorConfig, StampMode};
    use kcc_bgp_wire::{Notification, OpenMessage};
    use kcc_collector::{LiveSource, SourceItem, UpdateSource};
    use std::time::{Duration, Instant};

    fn collector_cfg() -> FsmConfig {
        FsmConfig::new(Asn(3333), "198.51.100.1".parse().unwrap()).with_hold_time(30)
    }

    /// A reactor feeding a real ingest table and ring, as the daemon
    /// wires it.
    struct Harness {
        reactor: Reactor,
        addr: SocketAddr,
        source: LiveSource,
        ingest: Arc<Mutex<IngestTable>>,
        shutdown: ShutdownFlag,
    }

    impl Harness {
        fn start(options: ReactorConfig) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = ShutdownFlag::new();
            let cfg = CollectorConfig::new("test", Asn(3333), "198.51.100.1".parse().unwrap())
                .with_stamp(StampMode::logical(1_000));
            // Seeded from `cfg`, as `Collector::bind` does: the running
            // config's stamp mode is the one the ingest table applies.
            let store = Arc::new(ConfigStore::new(cfg.daemon.clone()));
            let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
            let ingest = Arc::new(Mutex::new(IngestTable::new(
                &cfg,
                Arc::clone(&clock),
                Arc::clone(&store),
                None,
            )));
            let (live, source) = LiveSource::channel();
            let handoff = Handoff { ingest: Arc::clone(&ingest), live };
            let reactor =
                spawn(listener, collector_cfg(), clock, handoff, shutdown.clone(), store, options)
                    .unwrap();
            Harness { reactor, addr, source, ingest, shutdown }
        }

        /// The next item the shards hand over, within five seconds: with
        /// the source's stop flag up, each empty wait ends after one poll.
        fn next_item(&mut self) -> SourceItem {
            self.source.shutdown_flag().trigger();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(item) = self.source.next_item().unwrap() {
                    return item;
                }
                assert!(Instant::now() < deadline, "nothing reached the source");
            }
        }

        /// Waits until the ingest table has counted `n` ended connections.
        fn wait_closed(&self, n: u64) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.ingest.lock().unwrap().stats().closed < n {
                assert!(Instant::now() < deadline, "connections never reported closed");
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        fn stop(self) {
            self.shutdown.trigger();
            self.reactor.join();
        }
    }

    /// Full handshake + one UPDATE + Cease against the live reactor,
    /// with the test playing the peer over a real loopback socket —
    /// the coverage the thread-per-session runner's loopback test used
    /// to provide.
    #[test]
    fn inbound_session_end_to_end_over_loopback() {
        let mut h = Harness::start(ReactorConfig::default());

        let mut peer = HandPlayedPeer::connect(h.addr);
        let open = OpenMessage::standard(Asn(20_205), "192.0.2.9".parse().unwrap(), 90);
        peer.send(&Message::Open(open));
        let Message::Open(ours) = peer.recv() else { panic!("expected the daemon's OPEN") };
        assert_eq!(ours.hold_time, 30, "min(collector 30, peer 90) is what gets negotiated");
        peer.send(&Message::Keepalive);
        assert_eq!(peer.recv(), Message::Keepalive);
        let SourceItem::Session(meta) = h.next_item() else {
            panic!("the session is announced before its first update");
        };
        assert_eq!(meta.key.peer_asn, Asn(20_205));
        assert_eq!(meta.key.peer_ip, "192.0.2.9".parse::<std::net::IpAddr>().unwrap());
        assert_eq!(h.reactor.gauges().established.load(Ordering::Relaxed), 1);

        let packet = UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap());
        peer.send(&Message::Update(packet.clone()));
        let SourceItem::Update(_, got) = h.next_item() else { panic!("expected the update") };
        assert_eq!(Some(got), packet.into_route_updates(0).next(), "first logical stamp is 0");

        peer.send(&Message::Notification(Notification::cease_admin_shutdown()));
        h.wait_closed(1);
        assert_eq!(h.reactor.gauges().established.load(Ordering::Relaxed), 0);
        assert_eq!(h.ingest.lock().unwrap().stats().established, 1);
        h.stop();
    }

    /// A peer that connects and vanishes is counted closed, not leaked,
    /// and never announced.
    #[test]
    fn abrupt_disconnect_reports_closed() {
        let h = Harness::start(ReactorConfig::default());
        let peer = TcpStream::connect(h.addr).unwrap();
        drop(peer);
        h.wait_closed(1);
        assert_eq!(h.ingest.lock().unwrap().stats().established, 0);
        h.stop();
    }

    /// Many sessions multiplex over one worker — the defining reactor
    /// property (workers ≪ sessions) at a unit-test scale.
    #[test]
    fn sixteen_sessions_one_worker() {
        let mut h = Harness::start(ReactorConfig { workers: 1, ..ReactorConfig::default() });
        let mut peers = Vec::new();
        for i in 0..16u32 {
            let peer = HandPlayedPeer::connect(h.addr);
            let open =
                OpenMessage::standard(Asn(65_000 + i), Ipv4Addr::new(192, 0, 2, i as u8 + 1), 90);
            peer.send(&Message::Open(open));
            peer.send(&Message::Keepalive);
            peers.push(peer);
        }
        for _ in 0..16 {
            let item = h.next_item();
            assert!(matches!(item, SourceItem::Session(_)), "unexpected item {item:?}");
        }
        assert_eq!(h.reactor.gauges().peak_established.load(Ordering::Relaxed), 16);
        for peer in &peers {
            peer.send(&Message::Notification(Notification::cease_admin_shutdown()));
        }
        h.wait_closed(16);
        let gauges = h.reactor.gauges();
        h.stop();
        assert_eq!(gauges.established.load(Ordering::Relaxed), 0);
    }
}
