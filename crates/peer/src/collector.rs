//! The multi-peer live collector daemon.
//!
//! A [`Collector`] is the in-process form of `kcc daemon`: it listens on a TCP
//! socket, runs one RFC 4271 session per inbound connection on the
//! event-driven [`crate::reactor`] (thousands of sessions over a bounded
//! worker pool — no thread per session), stamps arriving UPDATEs,
//! optionally tees them into rotating MRT dumps ([`crate::rotate`]), and
//! feeds everything to a [`LiveSource`] so `kcc_core`'s pipeline — and
//! with it every existing analysis sink — runs over live traffic
//! unchanged.
//!
//! ## One hop from socket to pipeline
//!
//! The daemon adds no thread of its own. A reactor shard collects one
//! wake's session events, takes the lock on the daemon-wide ingest table
//! once, explodes and stamps the events there, and sends the resulting
//! batch into the `LiveSource`'s bounded ring under that same lock — so
//! ring order is stamp order across shards. The pipeline thread reads
//! the ring directly. When it falls behind and the ring fills, shards
//! stop reading sockets and TCP flow control pushes back on the peers;
//! they keep flushing writes and firing timers meanwhile, so no
//! keepalive is missed and nothing is buffered without limit.
//!
//! The daemon is hot-reloadable: [`Collector::config_store`] exposes the
//! running/candidate [`ConfigStore`] (peers, listeners, stamping,
//! rotation, trace levels), and a commit propagates to the reactor
//! shards and the ingest table within one poll interval — no restart, no
//! disturbance to sessions the change does not name.
//!
//! ## Session identity
//!
//! Offline, a session is `(collector, peer ASN, peer IP)`. Live, the
//! transport source address is a poor identity: on a loopback deployment
//! every peer connects from `127.0.0.1` with an ephemeral port. The
//! daemon therefore keys every session by the peer's **BGP
//! identifier** — the stable, configured identity exchanged in the OPEN,
//! unchanged across reconnects — never by the socket address.
//!
//! ## Arrival stamping
//!
//! BGP messages carry no timestamps; the collector assigns them
//! ([`StampMode`]). `Arrival` uses the daemon's clock, like a real
//! collector. `Logical` gives the *n*-th update of each session the
//! deterministic time `n × spacing` — per-session TCP ordering makes this
//! reproducible run over run, which is what lets the end-to-end loopback
//! tests demand byte-identical results from the live and offline paths
//! ([`offline_reference`] computes what the daemon will record).

use std::collections::hash_map::Entry;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use kcc_bgp_types::{Asn, FastHashMap};
use kcc_collector::{LiveSource, PeerMeta, SessionKey, ShutdownFlag, SourceItem, UpdateArchive};
use kcc_obs::TraceLevel;

use crate::clock::{Clock, WallClock};
use crate::config::{ConfigStore, DaemonConfig};
use crate::fsm::FsmConfig;
use crate::reactor::{self, Handoff, LiveGauges, ReactorConfig, SessionEvent};
use crate::rotate::MrtRotator;

/// How arriving updates are timestamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampMode {
    /// The daemon's clock at arrival (microseconds = `now_ms × 1000`),
    /// like a real collector.
    Arrival,
    /// The *n*-th update of each session gets `n × spacing_us` — fully
    /// deterministic under per-session TCP ordering; the mode the
    /// loopback round-trip tests use.
    Logical {
        /// Microseconds between consecutive per-session stamps.
        spacing_us: u64,
    },
}

impl StampMode {
    /// Logical stamping with the given per-session spacing.
    pub fn logical(spacing_us: u64) -> Self {
        StampMode::Logical { spacing_us }
    }
}

/// Daemon configuration. [`CollectorConfig::daemon`] is the initial
/// running config of the daemon's [`ConfigStore`], hot-reloadable after
/// bind; the rest — identity, epoch, reactor shape — is fixed at bind
/// time.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Collector name used in session keys and MRT re-analysis.
    pub collector: String,
    /// Our AS number.
    pub local_asn: Asn,
    /// Our BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Proposed hold time (seconds).
    pub hold_time: u16,
    /// Epoch anchoring `time_us` (and MRT record seconds).
    pub epoch_seconds: u32,
    /// The initial running config: stamping, peer policy, route
    /// servers, MRT rotation, extra listeners, trace levels.
    pub daemon: DaemonConfig,
    /// Event-loop shape: worker count, buffer caps.
    pub reactor: ReactorConfig,
}

impl CollectorConfig {
    /// A conventional configuration.
    pub fn new(collector: &str, local_asn: Asn, bgp_id: Ipv4Addr) -> Self {
        CollectorConfig {
            collector: collector.to_owned(),
            local_asn,
            bgp_id,
            hold_time: 90,
            epoch_seconds: 0,
            daemon: DaemonConfig::default(),
            reactor: ReactorConfig::default(),
        }
    }

    /// Sets the stamp mode.
    pub fn with_stamp(mut self, stamp: StampMode) -> Self {
        self.daemon.stamp = stamp;
        self
    }

    /// Declares route-server peers (metadata the wire cannot carry;
    /// mirrors `MrtSource::with_route_servers`).
    pub fn with_route_servers<I: IntoIterator<Item = (Asn, IpAddr)>>(mut self, peers: I) -> Self {
        self.daemon.route_servers = peers.into_iter().collect();
        self
    }

    /// Enables rotating MRT dumps.
    pub fn with_mrt(mut self, rotate: crate::rotate::RotateConfig) -> Self {
        self.daemon.mrt = Some(rotate);
        self
    }

    /// Sets the proposed hold time (seconds).
    pub fn with_hold_time(mut self, seconds: u16) -> Self {
        self.hold_time = seconds;
        self
    }

    /// Sets the reactor worker count (shard threads; workers ≪ sessions).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.reactor.workers = workers;
        self
    }
}

/// What a collector run processed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Sessions that completed the handshake.
    pub established: u64,
    /// High-water mark of *concurrently* Established sessions.
    pub peak_established: u64,
    /// Distinct session keys seen.
    pub sessions: u64,
    /// Per-prefix updates ingested (UPDATE packets are exploded).
    pub updates: u64,
    /// Sessions that ended.
    pub closed: u64,
    /// MRT records written across all dump files.
    pub mrt_records: u64,
    /// Completed MRT dump files.
    pub mrt_files: Vec<std::path::PathBuf>,
}

/// A running collector daemon. Obtain the [`LiveSource`] with
/// [`Collector::take_source`], run the pipeline over it, and stop with
/// [`Collector::shutdown`] + [`Collector::join`].
pub struct Collector {
    local_addr: SocketAddr,
    shutdown: ShutdownFlag,
    source: Option<LiveSource>,
    reactor: Option<reactor::Reactor>,
    ingest: Arc<Mutex<IngestTable>>,
    store: Arc<ConfigStore>,
    gauges: Arc<LiveGauges>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("local_addr", &self.local_addr).finish()
    }
}

impl Collector {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting peers,
    /// with the real wall clock.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: CollectorConfig) -> io::Result<Self> {
        Self::bind_with_clock(addr, cfg, Arc::new(WallClock::new()))
    }

    /// [`Collector::bind`] with an injected clock (tests).
    pub fn bind_with_clock<A: ToSocketAddrs>(
        addr: A,
        cfg: CollectorConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        // Fail at bind time if the configured MRT directory is unusable,
        // not after the daemon is already accepting peers.
        let rotator = match &cfg.daemon.mrt {
            Some(rc) => match MrtRotator::new(rc.clone(), cfg.epoch_seconds) {
                Ok(r) => Some(r),
                Err(e) => return Err(io::Error::other(format!("MRT rotator: {e}"))),
            },
            None => None,
        };

        let store = Arc::new(ConfigStore::new(cfg.daemon.clone()));
        let shutdown = ShutdownFlag::new();
        let (live, source) = LiveSource::channel();
        let ingest = Arc::new(Mutex::new(IngestTable::new(
            &cfg,
            Arc::clone(&clock),
            Arc::clone(&store),
            rotator,
        )));

        let fsm_cfg = FsmConfig::new(cfg.local_asn, cfg.bgp_id).with_hold_time(cfg.hold_time);
        let reactor = reactor::spawn(
            listener,
            fsm_cfg,
            clock,
            Handoff { ingest: Arc::clone(&ingest), live },
            shutdown.clone(),
            Arc::clone(&store),
            cfg.reactor,
        )?;
        let gauges = reactor.gauges();

        Ok(Collector {
            local_addr,
            shutdown,
            source: Some(source),
            reactor: Some(reactor),
            ingest,
            store,
            gauges,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Every address currently accepting connections — the primary bind
    /// plus any committed extra listeners.
    pub fn listen_addrs(&self) -> Vec<SocketAddr> {
        match &self.reactor {
            Some(r) => r.listen_addrs(),
            None => Vec::new(),
        }
    }

    /// The live update source. Panics if taken twice.
    pub fn take_source(&mut self) -> LiveSource {
        self.source.take().expect("LiveSource already taken")
    }

    /// The running/candidate configuration store — edit, commit, and the
    /// daemon picks the change up within one poll interval.
    pub fn config_store(&self) -> Arc<ConfigStore> {
        Arc::clone(&self.store)
    }

    /// Live counters (current/peak Established, accepted) readable while
    /// the daemon runs.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// The daemon's metrics registry (shared with the reactor shards and
    /// the ingest table); render with [`kcc_obs::Registry::render`].
    pub fn metrics(&self) -> Arc<kcc_obs::Registry> {
        Arc::clone(self.store.metrics())
    }

    /// Requests shutdown: stop accepting, Cease every session, close the
    /// feed once in-flight updates are drained.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// A clonable handle other threads (a duration timer, a signal
    /// handler) can use to request the same shutdown. Distinct from the
    /// [`LiveSource`]'s own flag: this one drains sessions gracefully
    /// and closes the feed, so a pipeline blocked on the source finishes
    /// with everything ingested.
    pub fn shutdown_handle(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Waits for every shard to finish, closes the MRT dumps, and returns
    /// the run's stats. Call [`Collector::shutdown`] first (or have every
    /// peer disconnect — the accept loop still needs the flag to stop).
    /// A [`LiveSource`] that was never taken is dropped first, so a full
    /// ring nobody reads cannot hold the shards' drain back.
    pub fn join(mut self) -> CollectorStats {
        drop(self.source.take());
        if let Some(r) = self.reactor.take() {
            r.join();
        }
        let mut stats = self.ingest.lock().expect("a shard panicked while stamping").finish();
        stats.accepted = self.gauges.accepted.load(Ordering::Relaxed);
        stats.peak_established = self.gauges.peak_established.load(Ordering::Relaxed);
        stats
    }
}

/// One session's stamping state.
struct LiveSession {
    meta: Arc<PeerMeta>,
    next_index: u64,
}

/// The daemon-wide ingest state every reactor shard stamps against:
/// session metas and logical indices, the running config's stamp mode
/// and route-server marks, the MRT rotator, and the run's stats. A shard
/// holds its lock for one [`IngestTable::stamp`] and the ring send that
/// follows it.
pub(crate) struct IngestTable {
    collector: String,
    epoch_seconds: u32,
    clock: Arc<dyn Clock>,
    store: Arc<ConfigStore>,
    /// Keyed by the Copy pair (peer ASN, BGP id) — the collector name is
    /// constant for this daemon, and the full `SessionKey` would cost a
    /// `String` allocation per UPDATE.
    sessions: FastHashMap<(Asn, Ipv4Addr), LiveSession>,
    running: Arc<DaemonConfig>,
    last_gen: u64,
    rotator: Option<MrtRotator>,
    stats: CollectorStats,
    updates_ingested: Arc<kcc_obs::Counter>,
}

impl IngestTable {
    pub(crate) fn new(
        cfg: &CollectorConfig,
        clock: Arc<dyn Clock>,
        store: Arc<ConfigStore>,
        rotator: Option<MrtRotator>,
    ) -> Self {
        IngestTable {
            collector: cfg.collector.clone(),
            epoch_seconds: cfg.epoch_seconds,
            clock,
            sessions: FastHashMap::default(),
            running: store.running(),
            last_gen: store.generation(),
            rotator,
            stats: CollectorStats::default(),
            updates_ingested: store.metrics().counter("kcc_ingest_updates_total"),
            store,
        }
    }

    /// Re-reads the running config (stamp mode, route servers, MRT
    /// rotation) if a commit moved its generation.
    pub(crate) fn sync_config(&mut self) {
        let gen = self.store.generation();
        if gen == self.last_gen {
            return;
        }
        self.last_gen = gen;
        let new = self.store.running();
        if new.mrt != self.running.mrt {
            // Hot-swap rotation: finish the old dump files cleanly so a
            // concurrent reader only ever sees complete files.
            self.finish_rotator();
            self.rotator = new.mrt.as_ref().and_then(|rc| {
                match MrtRotator::new(rc.clone(), self.epoch_seconds) {
                    Ok(r) => Some(r),
                    Err(e) => {
                        self.store.trace().log("ingest", TraceLevel::Error, || {
                            format!("MRT rotator swap failed: {e}")
                        });
                        None
                    }
                }
            });
        }
        self.store.trace().log("ingest", TraceLevel::Debug, || {
            format!("ingest applying config generation {gen}")
        });
        self.running = new;
    }

    /// Turns one wake's events into source items, in order: a session's
    /// first Established announces it, and every UPDATE explodes into
    /// per-prefix updates that are stamped, dumped and counted.
    pub(crate) fn stamp(
        &mut self,
        events: impl Iterator<Item = SessionEvent>,
        out: &mut Vec<SourceItem>,
    ) {
        self.sync_config();
        for event in events {
            match event {
                SessionEvent::Established { peer: (asn, bgp_id) } => {
                    self.stats.established += 1;
                    if let Entry::Vacant(e) = self.sessions.entry((asn, bgp_id)) {
                        let peer_ip = IpAddr::V4(bgp_id);
                        let meta = Arc::new(PeerMeta {
                            key: SessionKey::new(&self.collector, asn, peer_ip),
                            route_server: self.running.route_servers.contains(&(asn, peer_ip)),
                            second_granularity: false,
                        });
                        self.stats.sessions += 1;
                        out.push(SourceItem::Session(Arc::clone(&meta)));
                        e.insert(LiveSession { meta, next_index: 0 });
                    }
                }
                SessionEvent::Update { peer, packet } => {
                    let Some(session) = self.sessions.get_mut(&peer) else {
                        continue; // update before establish cannot happen
                    };
                    let first = session.next_index;
                    // A packet may explode into several per-prefix updates;
                    // each gets its own stamp so `Logical` mode matches
                    // `offline_reference` exactly (the n-th per-session
                    // update is n × spacing, packet boundaries irrelevant).
                    // The packet is not needed again, so its attribute set
                    // moves into the updates' shared `Arc` uncopied.
                    for mut update in packet.into_route_updates(0) {
                        update.time_us = match self.running.stamp {
                            StampMode::Arrival => self.clock.now_ms() * 1_000,
                            StampMode::Logical { spacing_us } => session.next_index * spacing_us,
                        };
                        if let Some(rot) = self.rotator.as_mut() {
                            let _ = rot.write(&session.meta, &update);
                        }
                        session.next_index += 1;
                        out.push(SourceItem::Update(Arc::clone(&session.meta), update));
                    }
                    let exploded = session.next_index - first;
                    self.stats.updates += exploded;
                    self.updates_ingested.add(exploded);
                }
                SessionEvent::Closed => self.stats.closed += 1,
            }
        }
    }

    /// The stats so far (MRT totals arrive with [`IngestTable::finish`]).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Finishes the MRT dumps and hands over the run's stats.
    fn finish(&mut self) -> CollectorStats {
        self.finish_rotator();
        std::mem::take(&mut self.stats)
    }

    fn finish_rotator(&mut self) {
        if let Some(rot) = self.rotator.take() {
            self.stats.mrt_records += rot.total_records();
            if let Ok(files) = rot.finish() {
                self.stats.mrt_files.extend(files);
            }
        }
    }
}

/// What the daemon will record for `input` under `cfg` — the offline
/// reference the end-to-end loopback tests compare against, computed by
/// applying the daemon's metadata and stamping rules to the same update
/// set. Only [`StampMode::Logical`] yields a meaningful reference
/// (`Arrival` depends on the wall clock).
pub fn offline_reference(input: &UpdateArchive, cfg: &CollectorConfig) -> UpdateArchive {
    let mut out = UpdateArchive::new(cfg.epoch_seconds);
    let mut renamed = 0usize;
    for (key, rec) in input.sessions() {
        renamed += 1;
        let key = SessionKey::new(&cfg.collector, key.peer_asn, key.peer_ip);
        let route_server = cfg.daemon.route_servers.contains(&(key.peer_asn, key.peer_ip));
        out.add_session(PeerMeta { key: key.clone(), route_server, second_granularity: false });
        for (i, u) in rec.updates.iter().enumerate() {
            let mut u = u.clone();
            u.time_us = match cfg.daemon.stamp {
                StampMode::Logical { spacing_us } => i as u64 * spacing_us,
                StampMode::Arrival => u.time_us,
            };
            out.record(&key, u);
        }
    }
    assert_eq!(
        out.session_count(),
        renamed,
        "distinct input sessions collided under one collector name — \
         (peer ASN, peer IP) must be unique across the input"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{PathAttributes, RouteUpdate};
    use kcc_bgp_wire::{Message, Notification, OpenMessage, UpdatePacket};
    use kcc_collector::{UpdateSource, LIVE_RING_ITEMS};
    use std::time::{Duration, Instant};

    /// A multi-prefix UPDATE packet explodes into per-prefix updates
    /// that each advance the logical stamp — the invariant that keeps
    /// live results byte-identical to `offline_reference`, which sees
    /// one update per record and never a packet boundary.
    #[test]
    fn logical_stamping_advances_per_exploded_prefix() {
        let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000));
        let mut collector = Collector::bind("127.0.0.1:0", cfg).unwrap();
        let addr = collector.local_addr();
        let mut source = collector.take_source();

        // A hand-driven peer: handshake, then one UPDATE carrying two
        // prefixes, then one with a single withdrawal.
        let mut peer = crate::active::HandPlayedPeer::connect(addr);
        let open = OpenMessage::standard(Asn(65_001), "192.0.2.77".parse().unwrap(), 90);
        peer.send(&Message::Open(open));
        assert!(matches!(peer.recv(), Message::Open(_)));
        peer.send(&Message::Keepalive);
        assert_eq!(peer.recv(), Message::Keepalive);

        let attrs = PathAttributes {
            as_path: "65001 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let mut two = UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs);
        two.nlri.push("10.64.0.0/10".parse().unwrap());
        peer.send(&Message::Update(two));
        let one = UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap());
        peer.send(&Message::Update(one));
        peer.send(&Message::Notification(Notification::cease_admin_shutdown()));
        drop(peer);

        collector.shutdown();
        let stats = collector.join();
        assert_eq!(stats.updates, 3, "2 exploded announcements + 1 withdrawal");

        let mut stamps = Vec::new();
        while let Some(item) = source.next_item().unwrap() {
            if let SourceItem::Update(_, u) = item {
                stamps.push(u.time_us);
            }
        }
        assert_eq!(stamps, vec![0, 1_000, 2_000], "every exploded prefix advances the stamp");
    }

    /// A full ring nobody drains must not wedge shutdown: a peer floods
    /// past the bound into a daemon whose source is never taken, and
    /// `shutdown` + `join` still return inside the 30 s stop-drain cap,
    /// with every update ingested.
    #[test]
    fn untaken_source_never_blocks_shutdown() {
        let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000));
        let collector = Collector::bind("127.0.0.1:0", cfg).unwrap();
        let mut peer = crate::active::HandPlayedPeer::connect(collector.local_addr());
        let open = OpenMessage::standard(Asn(65_001), "192.0.2.77".parse().unwrap(), 90);
        peer.send(&Message::Open(open));
        assert!(matches!(peer.recv(), Message::Open(_)));
        peer.send(&Message::Keepalive);
        assert_eq!(peer.recv(), Message::Keepalive);

        let total = LIVE_RING_ITEMS as u64 + 4_096;
        let flood = std::thread::spawn(move || {
            let update = Message::Update(UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap()));
            for _ in 0..total {
                peer.send(&update);
            }
            peer
        });
        let registry = collector.metrics();
        let deadline = Instant::now() + Duration::from_secs(30);
        while registry.counter_value("kcc_live_ring_full_total", &[]) == 0 {
            assert!(Instant::now() < deadline, "the ring never filled");
            std::thread::sleep(Duration::from_millis(5));
        }

        let stopping = Instant::now();
        collector.shutdown();
        let stats = collector.join();
        assert!(stopping.elapsed() < Duration::from_secs(30), "shutdown outlived the drain cap");
        drop(flood.join().expect("the daemon read the whole flood"));
        assert_eq!(stats.updates, total);
    }

    #[test]
    fn offline_reference_applies_stamping_and_metadata() {
        let mut input = UpdateArchive::new(7);
        let key = SessionKey::new("whatever", Asn(20_205), "192.0.2.9".parse().unwrap());
        let attrs = PathAttributes {
            as_path: "20205 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        input.record(&key, RouteUpdate::announce(123, "10.0.0.0/8".parse().unwrap(), attrs));
        input.record(&key, RouteUpdate::withdraw(456, "10.0.0.0/8".parse().unwrap()));

        let cfg = CollectorConfig::new("rrc99", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000))
            .with_route_servers([(Asn(20_205), "192.0.2.9".parse().unwrap())]);
        let reference = offline_reference(&input, &cfg);

        assert_eq!(reference.epoch_seconds, 0);
        let new_key = SessionKey::new("rrc99", Asn(20_205), "192.0.2.9".parse().unwrap());
        let rec = reference.session(&new_key).expect("renamed session");
        assert!(rec.meta.route_server, "route-server list applied");
        assert!(!rec.meta.second_granularity);
        let times: Vec<u64> = rec.updates.iter().map(|u| u.time_us).collect();
        assert_eq!(times, vec![0, 1_000], "logical stamping replaces input times");
    }
}
