//! The archive replay client: any number of concurrent BGP sessions
//! into a daemon, driven nonblockingly from a single thread.
//!
//! [`FloodPlan::from_archive`] turns every session of an
//! [`UpdateArchive`] into a speaker announcing the session's peer AS
//! and, as its BGP identifier, its peer IP; the live ≡ offline tests and
//! the 5k-session soaks share this one client. The plan encodes each
//! session's UPDATEs once, as one frozen run of 4-octet-AS frames, and
//! shares it: cloning a plan or dialling its sessions copies no update,
//! and a session whose peer does not negotiate 4-octet AS fails with that
//! reason rather than being sent frames it would misread. [`FloodRig`] is the
//! client-side mirror of the reactor: every planned session gets a
//! nonblocking socket, a [`Fsm`], a [`FrameBuffer`] and a capped
//! [`WriteQueue`], all multiplexed over one epoll [`Poller`]. It runs in two
//! explicit phases so soaks can assert *concurrency*, not just
//! throughput:
//!
//! 1. [`connect`](FloodRig::connect) dials and handshakes every
//!    session, then **holds them all Established** — the caller can
//!    check the daemon's gauges before a single UPDATE is sent;
//! 2. [`stream`](FloodRig::stream) feeds each session its planned
//!    UPDATEs (whole frames copied into the capped write queue as it
//!    drains, so memory stays bounded), ends each with an administrative
//!    Cease, and drains to EOF.
//!
//! Per-session update order is preserved (one socket per session);
//! inter-session interleaving is whatever TCP produces — the same
//! promise the offline sources make, so logically-stamped tables remain
//! byte-comparable to [`crate::offline_reference`].

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcc_bgp_wire::{encode_route_update, Message, Notification, SessionConfig};
use kcc_collector::UpdateArchive;

use crate::clock::{Clock, WallClock};
use crate::fsm::{Action, Fsm, FsmConfig, FsmEvent};
use crate::reactor::framing::{FlushOutcome, FrameBuffer, WriteQueue};
use crate::sys::{PollEvent, Poller};

/// One planned session: who to claim to be, and what to send.
#[derive(Debug)]
struct PlanSession {
    cfg: FsmConfig,
    /// The session's UPDATEs as back-to-back 4-octet-AS frames.
    wire: Arc<[u8]>,
    updates: u64,
}

/// A pre-built flood workload: per-session FSM identities plus their
/// encoded UPDATE streams, decoupled from any socket so one plan can be
/// reused across runs. Clones share the encoded streams.
#[derive(Debug, Clone)]
pub struct FloodPlan {
    sessions: Arc<[PlanSession]>,
}

/// The length field of the frame starting at `wire[0]`.
fn frame_len(wire: &[u8]) -> usize {
    usize::from(u16::from_be_bytes([wire[16], wire[17]]))
}

/// The BGP identifier a planned peer IP maps to, chosen so the daemon's
/// BGP-ID session keying reconstructs the archive's session keys
/// exactly: v4 addresses map directly, v6 addresses hash into a
/// deterministic v4 identifier.
fn bgp_id_for(peer_ip: IpAddr) -> Ipv4Addr {
    match peer_ip {
        IpAddr::V4(v4) => v4,
        IpAddr::V6(v6) => {
            let o = v6.octets();
            let h = o.iter().fold(5381u32, |acc, b| acc.wrapping_mul(33).wrapping_add(*b as u32));
            Ipv4Addr::from(h.to_be_bytes())
        }
    }
}

impl FloodPlan {
    /// One flood session per archive session, announcing the session
    /// key's peer AS and (as BGP identifier) its peer IP, streaming the
    /// session's updates in archive order.
    pub fn from_archive(archive: &UpdateArchive, hold_time: u16) -> Self {
        let four_octet = SessionConfig { four_octet_as: true };
        let sessions = archive
            .sessions()
            .map(|(key, rec)| {
                let mut wire = Vec::new();
                for update in &rec.updates {
                    encode_route_update(update, &four_octet, &mut wire);
                }
                PlanSession {
                    cfg: FsmConfig::new(key.peer_asn, bgp_id_for(key.peer_ip))
                        .with_hold_time(hold_time),
                    // Shrunk before the copy into the shared allocation:
                    // converting the grown `Vec` directly raised
                    // live-flood's peak RSS by about 5%.
                    wire: wire.into_boxed_slice().into(),
                    updates: rec.updates.len() as u64,
                }
            })
            .collect();
        FloodPlan { sessions }
    }

    /// Planned session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Planned UPDATE count across all sessions.
    pub fn update_count(&self) -> u64 {
        self.sessions.iter().map(|s| s.updates).sum()
    }
}

/// Flood tuning.
#[derive(Debug, Clone)]
pub struct FloodOptions {
    /// Per-session outbound backlog cap (bytes).
    pub write_queue_cap: usize,
}

impl Default for FloodOptions {
    fn default() -> Self {
        FloodOptions { write_queue_cap: 256 * 1024 }
    }
}

/// What a flood run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloodReport {
    /// Sessions that completed their full stream and saw the daemon
    /// close the socket.
    pub sessions: u64,
    /// UPDATE messages written across all sessions.
    pub updates_sent: u64,
    /// Peak concurrently-Established sessions on the client side.
    pub peak_established: u64,
}

struct FloodPeer {
    stream: TcpStream,
    fsm: Fsm,
    frames: FrameBuffer,
    writes: WriteQueue,
    write_cfg: SessionConfig,
    /// The planned frames, shared with the plan, and how far into them
    /// the write queue has been fed.
    wire: Arc<[u8]>,
    fed: usize,
    updates_sent: u64,
    established: bool,
    streaming: bool,
    cease_queued: bool,
    want_write: bool,
    done: bool,
    failure: Option<String>,
}

/// A fleet of concurrent nonblocking BGP sessions against one daemon.
pub struct FloodRig {
    poller: Poller,
    peers: Vec<FloodPeer>,
    clock: Arc<dyn Clock>,
    options: FloodOptions,
    established: usize,
    peak_established: usize,
    last_tick_ms: u64,
}

impl std::fmt::Debug for FloodRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloodRig")
            .field("sessions", &self.peers.len())
            .field("established", &self.established)
            .finish()
    }
}

/// Refill the write queue up to half its cap when it drains below a
/// quarter — keeps per-session memory bounded regardless of how many
/// UPDATEs the plan holds.
const REFILL_TARGET_DIV: usize = 2;
const REFILL_LOW_DIV: usize = 4;
/// How often idle sessions run their FSM timers (keepalive cadence is
/// tens of seconds; 1 s of slack costs nothing).
const TICK_MS: u64 = 1_000;
/// Per-dial timeout (loopback dials are retried on transient refusal
/// until this much time has elapsed for that dial).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Cap on the whole handshake phase across all sessions.
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(120);
/// Cap on the stream-and-drain phase across all sessions.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(600);

impl FloodRig {
    /// Dials and handshakes every planned session, returning once **all
    /// of them are simultaneously Established** (or failing after
    /// the two-minute `ESTABLISH_TIMEOUT`). No UPDATE is sent yet.
    pub fn connect(
        addr: SocketAddr,
        plan: FloodPlan,
        options: FloodOptions,
    ) -> std::io::Result<FloodRig> {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let mut rig = FloodRig {
            poller: Poller::new()?,
            peers: Vec::with_capacity(plan.sessions.len()),
            clock,
            options,
            established: 0,
            peak_established: 0,
            last_tick_ms: 0,
        };
        for session in plan.sessions.iter() {
            rig.dial(addr, session)?;
        }
        // A session that failed its handshake is done; stop waiting as
        // soon as every session is either up or failed.
        rig.run_until(ESTABLISH_TIMEOUT, |rig| rig.peers.iter().all(|p| p.established || p.done))?;
        if rig.established != rig.peers.len() {
            let failed: Vec<&str> =
                rig.peers.iter().filter_map(|p| p.failure.as_deref()).take(3).collect();
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "only {}/{} sessions established (sample failures: {:?})",
                    rig.established,
                    rig.peers.len(),
                    failed
                ),
            ));
        }
        Ok(rig)
    }

    /// Sessions currently Established.
    pub fn established_count(&self) -> usize {
        self.established
    }

    /// Streams every session's UPDATEs, Ceases, and drains to EOF.
    pub fn stream(mut self) -> std::io::Result<FloodReport> {
        for peer in &mut self.peers {
            peer.streaming = true;
        }
        // Kick the first refill; subsequent refills ride writability.
        for i in 0..self.peers.len() {
            self.pump(i);
        }
        self.run_until(DRAIN_TIMEOUT, |rig| rig.peers.iter().all(|p| p.done))?;
        let undrained = self.peers.iter().filter(|p| !p.done).count();
        if undrained > 0 {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("{undrained} sessions never drained to EOF"),
            ));
        }
        let mut report = FloodReport {
            peak_established: self.peak_established as u64,
            ..FloodReport::default()
        };
        for peer in &self.peers {
            if let Some(why) = &peer.failure {
                return Err(std::io::Error::other(format!("flood session failed: {why}")));
            }
            report.sessions += 1;
            report.updates_sent += peer.updates_sent;
        }
        Ok(report)
    }

    fn dial(&mut self, addr: SocketAddr, session: &PlanSession) -> std::io::Result<()> {
        // Blocking dial with retry: under a mass dial the daemon's
        // accept loop can transiently refuse; loopback dials are cheap
        // enough that serial connects beat nonblocking connect plumbing.
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let stream = loop {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let transient = matches!(
                        e.kind(),
                        ErrorKind::ConnectionRefused
                            | ErrorKind::ConnectionReset
                            | ErrorKind::WouldBlock
                    );
                    if !transient {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        };
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let token = self.peers.len() as u64;
        self.poller.register(stream.as_raw_fd(), token, true, false)?;

        let mut peer = FloodPeer {
            stream,
            fsm: Fsm::new(session.cfg.clone()),
            frames: FrameBuffer::new(SessionConfig::default(), true),
            writes: WriteQueue::new(self.options.write_queue_cap),
            write_cfg: SessionConfig::default(),
            wire: Arc::clone(&session.wire),
            fed: 0,
            updates_sent: 0,
            established: false,
            streaming: false,
            cease_queued: false,
            want_write: false,
            done: false,
            failure: None,
        };
        let now = self.clock.now_ms();
        let mut actions = peer.fsm.handle(FsmEvent::Start, now);
        actions.extend(peer.fsm.handle(FsmEvent::TcpConnected, now));
        self.peers.push(peer);
        let idx = self.peers.len() - 1;
        self.apply_actions(idx, actions);
        self.flush(idx);
        Ok(())
    }

    /// Drives the event loop until `finished` or `timeout`.
    fn run_until(
        &mut self,
        timeout: Duration,
        finished: impl Fn(&FloodRig) -> bool,
    ) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut events: Vec<PollEvent> = Vec::new();
        while !finished(self) {
            if Instant::now() >= deadline {
                return Ok(()); // caller inspects and reports
            }
            self.poller.wait(&mut events, 100)?;
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                let idx = ev.token as usize;
                if idx >= self.peers.len() || self.peers[idx].done {
                    continue;
                }
                if ev.readable || ev.hangup {
                    self.read_ready(idx);
                }
                if ev.writable && !self.peers[idx].done {
                    self.pump(idx);
                }
            }
            events = batch;
            let now = self.clock.now_ms();
            if now.saturating_sub(self.last_tick_ms) >= TICK_MS {
                self.last_tick_ms = now;
                for idx in 0..self.peers.len() {
                    if self.peers[idx].done {
                        continue;
                    }
                    let actions = self.peers[idx].fsm.handle(FsmEvent::Timer, now);
                    self.apply_actions(idx, actions);
                    if !self.peers[idx].done {
                        self.pump(idx);
                    }
                }
            }
        }
        Ok(())
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let n = match self.peers[idx].stream.read(&mut chunk) {
                Ok(0) => {
                    // Daemon closed: expected once our Cease went out.
                    let peer = &mut self.peers[idx];
                    if !peer.cease_queued && peer.failure.is_none() {
                        peer.failure = Some("daemon closed mid-session".to_owned());
                    }
                    self.finish(idx);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    let peer = &mut self.peers[idx];
                    if !peer.cease_queued && peer.failure.is_none() {
                        peer.failure = Some(format!("read: {e}"));
                    }
                    self.finish(idx);
                    return;
                }
            };
            self.peers[idx].frames.extend(&chunk[..n]);
            let mut inbound = VecDeque::new();
            loop {
                match self.peers[idx].frames.next_message() {
                    Ok(Some(m)) => inbound.push_back(m),
                    Ok(None) => break,
                    Err(e) => {
                        self.peers[idx].failure = Some(format!("decode: {e}"));
                        self.finish(idx);
                        return;
                    }
                }
            }
            let now = self.clock.now_ms();
            while let Some(message) = inbound.pop_front() {
                let actions = self.peers[idx].fsm.handle(FsmEvent::Message(message), now);
                self.apply_actions(idx, actions);
                if self.peers[idx].done {
                    return;
                }
            }
            self.pump(idx);
        }
    }

    /// Alternates refill and flush until the socket pushes back
    /// (`Pending` keeps write interest for the next writable event) or
    /// the session has nothing further to send.
    fn pump(&mut self, idx: usize) {
        loop {
            self.refill(idx);
            {
                let peer = &self.peers[idx];
                if peer.done || peer.writes.is_empty() {
                    return;
                }
            }
            self.flush(idx);
            let peer = &self.peers[idx];
            if peer.done || peer.want_write {
                return; // error, or Pending with write interest armed
            }
            if !peer.streaming || !peer.established || peer.cease_queued {
                return; // nothing more will be enqueued by refill
            }
        }
    }

    fn apply_actions(&mut self, idx: usize, actions: Vec<Action>) {
        for action in actions {
            let peer = &mut self.peers[idx];
            match action {
                Action::Send(message) => {
                    let cfg = peer.write_cfg;
                    if let Err(overflow) = peer.writes.push_message(&message, &cfg) {
                        peer.failure = Some(overflow.to_string());
                        self.finish(idx);
                        return;
                    }
                }
                Action::Up(info) => {
                    if !info.config.four_octet_as {
                        peer.failure = Some(
                            "peer did not negotiate 4-octet AS; the plan's UPDATEs are \
                             4-octet-AS frames"
                                .to_owned(),
                        );
                        self.finish(idx);
                        return;
                    }
                    peer.write_cfg = info.config;
                    if !peer.established {
                        peer.established = true;
                        self.established += 1;
                        self.peak_established = self.peak_established.max(self.established);
                    }
                }
                Action::Down(reason) => {
                    if !peer.cease_queued && peer.failure.is_none() {
                        peer.failure = Some(format!("session down: {reason:?}"));
                    }
                    // Flush any NOTIFICATION the FSM queued, then close.
                    let _ = peer.writes.flush(&mut peer.stream);
                    self.finish(idx);
                    return;
                }
                Action::StartConnect | Action::Deliver(_) => {}
            }
        }
    }

    /// Tops the write queue back up with whole frames from the planned
    /// stream, and queues the closing Cease when the stream is exhausted.
    fn refill(&mut self, idx: usize) {
        let cap = self.options.write_queue_cap;
        let peer = &mut self.peers[idx];
        if !peer.streaming || !peer.established || peer.cease_queued {
            return;
        }
        if peer.writes.queued() >= cap / REFILL_LOW_DIV && peer.fed > 0 {
            return;
        }
        let room = (cap / REFILL_TARGET_DIV).saturating_sub(peer.writes.queued());
        let (mut end, mut frames) = (peer.fed, 0);
        while end < peer.wire.len() && end - peer.fed < room {
            end += frame_len(&peer.wire[end..]);
            frames += 1;
        }
        if end > peer.fed {
            if peer.writes.push(&peer.wire[peer.fed..end]).is_err() {
                // The queue is fuller than the refill target; try later.
                return;
            }
            peer.fed = end;
            peer.updates_sent += frames;
        }
        if peer.fed == peer.wire.len() {
            let cease = Message::Notification(Notification::cease_admin_shutdown());
            let cfg = peer.write_cfg;
            if peer.writes.push_message(&cease, &cfg).is_ok() {
                peer.cease_queued = true;
            }
        }
    }

    fn flush(&mut self, idx: usize) {
        let peer = &mut self.peers[idx];
        if peer.done {
            return;
        }
        match peer.writes.flush(&mut peer.stream) {
            Ok(FlushOutcome::Flushed) => {
                if peer.want_write {
                    peer.want_write = false;
                    let fd = peer.stream.as_raw_fd();
                    let _ = self.poller.modify(fd, idx as u64, true, false);
                }
            }
            Ok(FlushOutcome::Pending) => {
                if !peer.want_write {
                    peer.want_write = true;
                    let fd = peer.stream.as_raw_fd();
                    let _ = self.poller.modify(fd, idx as u64, true, true);
                }
            }
            Err(e) => {
                if !peer.cease_queued && peer.failure.is_none() {
                    peer.failure = Some(format!("write: {e}"));
                }
                self.finish(idx);
            }
        }
    }

    fn finish(&mut self, idx: usize) {
        let peer = &mut self.peers[idx];
        if peer.done {
            return;
        }
        peer.done = true;
        if peer.established {
            peer.established = false;
            self.established -= 1;
        }
        let _ = self.poller.deregister(peer.stream.as_raw_fd());
        let _ = peer.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::HandPlayedPeer;
    use kcc_bgp_types::{Asn, RouteUpdate};
    use kcc_bgp_wire::OpenMessage;
    use kcc_collector::SessionKey;
    use std::net::TcpListener;

    /// The plan is encoded 4-octet, so a peer that does not offer the
    /// capability ends the session with that reason, and `connect`
    /// reports it at once instead of waiting out its timeout.
    #[test]
    fn a_peer_without_four_octet_as_fails_with_a_named_reason() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let mut peer = HandPlayedPeer::new(listener.accept().unwrap().0);
            assert!(matches!(peer.recv(), Message::Open(_)));
            let bgp_id = "198.51.100.1".parse().unwrap();
            let open = OpenMessage { asn: Asn(3333), hold_time: 90, bgp_id, capabilities: vec![] };
            peer.send(&Message::Open(open));
            peer.send(&Message::Keepalive);
            peer // held open until the rig has read both
        });
        let mut archive = UpdateArchive::new(0);
        let key = SessionKey::new("rrc00", Asn(65_001), "192.0.2.1".parse().unwrap());
        archive.record(&key, RouteUpdate::withdraw(0, "10.0.0.0/8".parse().unwrap()));
        let plan = FloodPlan::from_archive(&archive, 90);

        let started = Instant::now();
        let err = FloodRig::connect(addr, plan, FloodOptions::default()).unwrap_err();
        assert!(err.to_string().contains("did not negotiate 4-octet AS"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(30), "waited out the timeout");
        drop(daemon.join().unwrap());
    }
}
