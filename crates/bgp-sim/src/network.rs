//! The simulated network: routers, sessions, the event loop.
//!
//! Routers live in an index-addressed arena (`Vec<Router>` plus a dense
//! `RouterId → u32` index) rather than an ordered map: event dispatch is
//! one hash probe and one vector index, and the arena stays cache-friendly
//! at 75k ASes. Sessions are indexed by endpoint pair and by `(Asn, Asn)`
//! so `find_session` / `find_ebgp_sessions` never scan the session table.
//! All retained path attributes are interned in a network-wide
//! [`AttrStore`].

use std::collections::BTreeMap;
use std::net::IpAddr;

use kcc_bgp_types::{Asn, AttrStore, FastHashMap, Prefix};
use kcc_topology::{RouteSource, RouterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::capture::{Capture, CapturedUpdate};
use crate::delivery::{FaultConfig, FaultInjector};
use crate::event::{EventKind, EventQueue};
use crate::policy::{ExportPolicy, ImportPolicy};
use crate::route::SimUpdate;
use crate::router::{Action, Router};
use crate::session::{Session, SessionId, SessionKind};
use crate::time::{SimDuration, SimTime};
use crate::vendor::VendorProfile;

/// Network-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Events processed by the loop.
    pub events_processed: u64,
    /// Messages delivered to routers.
    pub messages_delivered: u64,
    /// Messages lost to fault injection or down sessions.
    pub messages_dropped: u64,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for vendor assignment and delay staggering.
    pub seed: u64,
    /// Vendor profile used when `vendor_mix` is empty.
    pub default_vendor: VendorProfile,
    /// Weighted per-AS vendor assignment, e.g. `[(CISCO_IOS, 0.4), …]`.
    /// Weights need not sum to 1; they are normalized.
    pub vendor_mix: Vec<(VendorProfile, f64)>,
    /// Base one-way delay of every session.
    pub base_link_delay: SimDuration,
    /// Maximum deterministic per-session stagger added to the base delay.
    /// Staggering is what desynchronizes propagation and lets path
    /// exploration unfold (as it does in the wild).
    pub delay_spread: SimDuration,
    /// Fault injection.
    pub fault: FaultConfig,
    /// Route-flap dampening applied to every router (None = off, the
    /// common default — the paper notes dampening is selectively
    /// deployed).
    pub dampening: Option<crate::dampening::DampeningConfig>,
    /// Hard cap on processed events per `run_until_quiet` call; exceeded
    /// caps indicate a routing oscillation bug.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            default_vendor: VendorProfile::default(),
            vendor_mix: Vec::new(),
            base_link_delay: SimDuration::from_millis(2),
            delay_spread: SimDuration::from_millis(8),
            fault: FaultConfig::default(),
            dampening: None,
            max_events: 50_000_000,
        }
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    /// Index-addressed router arena; `router_index` maps identity to slot.
    routers: Vec<Router>,
    router_index: FastHashMap<RouterId, u32>,
    sessions: Vec<Session>,
    /// First session added between an (ordered) endpoint pair.
    session_by_endpoints: FastHashMap<(RouterId, RouterId), SessionId>,
    /// Every eBGP session between an (ordered) ASN pair, in creation order.
    ebgp_by_asns: FastHashMap<(Asn, Asn), Vec<SessionId>>,
    /// Network-wide interned attribute sets (every RIB slot of every
    /// router holds refcounted handles into this store).
    store: AttrStore,
    queue: EventQueue,
    /// The one buffer every router handler appends its actions to;
    /// drained by `apply_actions` and reused for the next event.
    actions: Vec<Action>,
    now: SimTime,
    /// Time of the last event actually processed (distinct from `now`,
    /// which `run_until` may advance past the final event).
    last_event: SimTime,
    captures: BTreeMap<RouterId, Capture>,
    monitors: BTreeMap<SessionId, Capture>,
    fault: FaultInjector,
    /// Statistics.
    pub stats: NetStats,
    config: SimConfig,
}

/// Orders a router pair canonically for the endpoint index.
fn endpoint_key(a: RouterId, b: RouterId) -> (RouterId, RouterId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Orders an ASN pair canonically for the eBGP index.
fn asn_key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// An empty network.
    pub fn new(config: SimConfig) -> Self {
        Network {
            routers: Vec::new(),
            router_index: FastHashMap::default(),
            sessions: Vec::new(),
            session_by_endpoints: FastHashMap::default(),
            ebgp_by_asns: FastHashMap::default(),
            store: AttrStore::new(),
            queue: EventQueue::new(),
            actions: Vec::new(),
            now: SimTime::ZERO,
            last_event: SimTime::ZERO,
            captures: BTreeMap::new(),
            monitors: BTreeMap::new(),
            fault: FaultInjector::new(config.fault),
            stats: NetStats::default(),
            config,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The interned-attribute store (introspection: distinct sets and
    /// exact retained bytes).
    pub fn attr_store(&self) -> &AttrStore {
        &self.store
    }

    /// Adds a router. Re-adding an existing id replaces the router in
    /// place (its arena slot is reused).
    pub fn add_router(&mut self, router: Router) {
        if router.is_collector {
            self.captures.entry(router.id).or_default();
        }
        match self.router_index.get(&router.id) {
            Some(&i) => self.routers[i as usize] = router,
            None => {
                let slot = u32::try_from(self.routers.len()).expect("router arena overflow");
                self.router_index.insert(router.id, slot);
                self.routers.push(router);
            }
        }
    }

    /// Access a router.
    pub fn router(&self, id: RouterId) -> Option<&Router> {
        self.router_index.get(&id).map(|&i| &self.routers[i as usize])
    }

    /// Mutable router access (tests and scenario builders).
    pub fn router_mut(&mut self, id: RouterId) -> Option<&mut Router> {
        match self.router_index.get(&id) {
            Some(&i) => Some(&mut self.routers[i as usize]),
            None => None,
        }
    }

    /// All routers, in arena (insertion) order.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Adds a session between two existing routers and registers it on
    /// both. Returns its id.
    pub fn add_session(&mut self, mut session: Session) -> SessionId {
        let id = SessionId(self.sessions.len());
        session.id = id;
        let (a, b) = (session.a, session.b);
        self.router_mut(a)
            .unwrap_or_else(|| panic!("session endpoint {a} missing"))
            .sessions
            .push(id);
        self.router_mut(b)
            .unwrap_or_else(|| panic!("session endpoint {b} missing"))
            .sessions
            .push(id);
        // First-added wins, preserving the linear scan's first-match
        // semantics for parallel sessions between the same routers.
        self.session_by_endpoints.entry(endpoint_key(a, b)).or_insert(id);
        if session.is_ebgp() {
            self.ebgp_by_asns.entry(asn_key(a.asn, b.asn)).or_default().push(id);
        }
        self.sessions.push(session);
        id
    }

    /// The session table.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Session lookup by endpoints (first match) — one index probe.
    pub fn find_session(&self, a: RouterId, b: RouterId) -> Option<SessionId> {
        self.session_by_endpoints.get(&endpoint_key(a, b)).copied()
    }

    /// Every eBGP session between two ASes — generated topologies create
    /// parallel interconnections at different routers, and an inter-AS
    /// adjacency failure must take all of them down. One index probe, in
    /// session-creation order.
    pub fn find_ebgp_sessions(&self, a: Asn, b: Asn) -> Vec<SessionId> {
        self.ebgp_by_asns.get(&asn_key(a, b)).cloned().unwrap_or_default()
    }

    /// Marks a session to be watched: every message delivered on it is
    /// recorded (the lab's "packet capture between X1 and Y1").
    pub fn monitor_session(&mut self, id: SessionId) {
        self.monitors.entry(id).or_default();
    }

    /// Messages captured on a monitored session.
    pub fn monitored(&self, id: SessionId) -> Option<&Capture> {
        self.monitors.get(&id)
    }

    /// The capture of a collector router.
    pub fn capture(&self, collector: RouterId) -> Option<&Capture> {
        self.captures.get(&collector)
    }

    /// All collector captures.
    pub fn captures(&self) -> impl Iterator<Item = (&RouterId, &Capture)> {
        self.captures.iter()
    }

    /// Clears all captures and monitors (between experiment phases).
    pub fn clear_captures(&mut self) {
        for c in self.captures.values_mut() {
            c.clear();
        }
        for c in self.monitors.values_mut() {
            c.clear();
        }
    }

    /// Schedules an event.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.queue.push(at, kind);
    }

    /// Schedules an origin announcement.
    pub fn schedule_announce(&mut self, at: SimTime, router: RouterId, prefix: Prefix) {
        self.schedule(at, EventKind::Announce { router, prefix });
    }

    /// Schedules an origin withdrawal.
    pub fn schedule_withdraw(&mut self, at: SimTime, router: RouterId, prefix: Prefix) {
        self.schedule(at, EventKind::Withdraw { router, prefix });
    }

    /// Schedules a session flap down.
    pub fn schedule_link_down(&mut self, at: SimTime, session: SessionId) {
        self.schedule(at, EventKind::LinkDown { session });
    }

    /// Schedules a session restore.
    pub fn schedule_link_up(&mut self, at: SimTime, session: SessionId) {
        self.schedule(at, EventKind::LinkUp { session });
    }

    /// Schedules a replacement of the import policy `router` applies on
    /// its session with `peer` (panics if no such session exists).
    pub fn schedule_import_policy(
        &mut self,
        at: SimTime,
        router: RouterId,
        peer: RouterId,
        policy: ImportPolicy,
    ) {
        let session = self
            .find_session(router, peer)
            .unwrap_or_else(|| panic!("no session between {router} and {peer}"));
        self.schedule(at, EventKind::SetImportPolicy { session, router, policy });
    }

    /// Schedules a replacement of the export policy `router` applies on
    /// its session with `peer` (panics if no such session exists).
    pub fn schedule_export_policy(
        &mut self,
        at: SimTime,
        router: RouterId,
        peer: RouterId,
        policy: ExportPolicy,
    ) {
        let session = self
            .find_session(router, peer)
            .unwrap_or_else(|| panic!("no session between {router} and {peer}"));
        self.schedule(at, EventKind::SetExportPolicy { session, router, policy });
    }

    /// Processes one event; `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        self.last_event = ev.at;
        self.stats.events_processed += 1;
        let now = self.now;
        match ev.kind {
            EventKind::Deliver { session, to, update } => self.on_deliver(session, to, update),
            EventKind::LinkDown { session } => self.on_link_down(session),
            EventKind::LinkUp { session } => self.on_link_up(session),
            EventKind::Announce { router, prefix } => {
                self.dispatch(router, |r, sessions, store, out| {
                    r.originate(now, prefix, sessions, store, out)
                });
            }
            EventKind::Withdraw { router, prefix } => {
                self.dispatch(router, |r, sessions, store, out| {
                    r.withdraw_origin(now, prefix, sessions, store, out)
                });
            }
            EventKind::MraiExpire { router, session } => {
                self.dispatch(router, |r, sessions, store, out| {
                    r.handle_mrai_expire(now, session, sessions, store, out)
                });
            }
            EventKind::DampReuse { router, session, prefix } => {
                self.dispatch(router, |r, sessions, store, out| {
                    r.handle_damp_reuse(now, session, prefix, sessions, store, out)
                });
            }
            EventKind::SetImportPolicy { session, router, policy } => {
                self.on_set_import_policy(session, router, policy);
            }
            EventKind::SetExportPolicy { session, router, policy } => {
                self.on_set_export_policy(session, router, policy);
            }
        }
        true
    }

    /// Runs one router handler, if `router` exists, then carries out the
    /// actions it appended.
    fn dispatch(
        &mut self,
        router: RouterId,
        handler: impl FnOnce(&mut Router, &[Session], &mut AttrStore, &mut Vec<Action>),
    ) {
        if let Some(&i) = self.router_index.get(&router) {
            self.run_handler(router, i as usize, handler);
        }
    }

    /// Runs a handler on the router in arena `slot` with the session
    /// table, the attribute store and the shared action buffer.
    fn run_handler(
        &mut self,
        router: RouterId,
        slot: usize,
        handler: impl FnOnce(&mut Router, &[Session], &mut AttrStore, &mut Vec<Action>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        handler(&mut self.routers[slot], &self.sessions, &mut self.store, &mut actions);
        self.apply_actions(router, &mut actions);
        self.actions = actions;
    }

    /// Runs until no events remain. Returns the time of the last event
    /// actually processed — the network's convergence time — rather than
    /// the queue-empty poll time (`now` may sit past the final event after
    /// a [`Network::run_until`] call with a generous bound).
    ///
    /// Panics if `max_events` is exceeded — quiet networks must converge,
    /// so an overrun is a correctness bug, not a load condition.
    pub fn run_until_quiet(&mut self) -> SimTime {
        let budget = self.config.max_events;
        let start = self.stats.events_processed;
        while self.step() {
            assert!(
                self.stats.events_processed - start <= budget,
                "event budget exceeded: likely routing oscillation"
            );
        }
        self.last_event
    }

    /// Runs until simulated time reaches `t` (events at exactly `t` are
    /// processed). Pending later events remain queued.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    fn on_deliver(&mut self, session_id: SessionId, to: RouterId, update: SimUpdate) {
        let session = &self.sessions[session_id.0];
        if !session.up {
            self.stats.messages_dropped += 1;
            return;
        }
        let from = session.other(to);
        self.stats.messages_delivered += 1;
        let slot = self.router_index.get(&to).map(|&i| i as usize);
        // Only a monitor or a collector records the message.
        let monitor = self.monitors.get_mut(&session_id);
        let capture = match slot {
            Some(i) if self.routers[i].is_collector => self.captures.get_mut(&to),
            _ => None,
        };
        if monitor.is_some() || capture.is_some() {
            let entry = CapturedUpdate {
                at: self.now,
                session: session_id,
                from,
                to,
                update: update.clone(),
            };
            match (monitor, capture) {
                (Some(mon), Some(cap)) => {
                    mon.record(entry.clone());
                    cap.record(entry);
                }
                (Some(log), None) | (None, Some(log)) => log.record(entry),
                (None, None) => {}
            }
        }
        if let Some(i) = slot {
            let now = self.now;
            self.run_handler(to, i, |r, sessions, store, out| {
                r.handle_update(now, session_id, sessions, &update, store, out)
            });
        }
    }

    fn on_link_down(&mut self, session_id: SessionId) {
        if !self.sessions[session_id.0].up {
            return;
        }
        self.sessions[session_id.0].up = false;
        let (a, b) = {
            let s = &self.sessions[session_id.0];
            (s.a, s.b)
        };
        let now = self.now;
        for endpoint in [a, b] {
            self.dispatch(endpoint, |r, sessions, store, out| {
                r.handle_session_down(now, session_id, sessions, store, out)
            });
        }
    }

    fn on_link_up(&mut self, session_id: SessionId) {
        if self.sessions[session_id.0].up {
            return;
        }
        self.sessions[session_id.0].up = true;
        let (a, b) = {
            let s = &self.sessions[session_id.0];
            (s.a, s.b)
        };
        let now = self.now;
        for endpoint in [a, b] {
            self.dispatch(endpoint, |r, sessions, store, out| {
                r.handle_session_up(now, session_id, sessions, store, out)
            });
        }
    }

    /// Replaces `router`'s import policy on a session. On eBGP sessions
    /// the peer then replays its Adj-RIB-Out for the session (an RFC 2918
    /// route refresh), so the rewrite is observable without other churn;
    /// the receiver's post-policy no-change check absorbs replays the new
    /// policy leaves untouched. iBGP rewrites apply lazily (the refresh
    /// replay cannot reconstruct the sim-internal iBGP source hint).
    fn on_set_import_policy(
        &mut self,
        session_id: SessionId,
        router: RouterId,
        policy: ImportPolicy,
    ) {
        let session = &mut self.sessions[session_id.0];
        if session.a == router {
            session.a_import = policy;
        } else {
            session.b_import = policy;
        }
        if !session.up || !session.is_ebgp() {
            return;
        }
        let peer = session.other(router);
        // The replay travels the normal transmission path (fault
        // injection, link delay, sender counters) like any other update.
        self.dispatch(peer, |r, _, _, out| {
            let replay = r.advertised_on(session_id);
            r.counters.updates_sent += replay.len() as u64;
            out.extend(replay.into_iter().map(|(prefix, attrs)| Action::Send {
                session: session_id,
                update: SimUpdate::announce(prefix, attrs),
            }));
        });
    }

    /// Replaces `router`'s export policy on a session, then re-runs the
    /// export path for its whole Loc-RIB there (a soft reset out).
    /// Announcements whose wire form the new policy does not change follow
    /// the vendor's duplicate behavior — Junos stays silent, the rest
    /// re-send — exactly the §3 vendor split.
    fn on_set_export_policy(
        &mut self,
        session_id: SessionId,
        router: RouterId,
        policy: ExportPolicy,
    ) {
        let session = &mut self.sessions[session_id.0];
        if session.a == router {
            session.a_export = policy;
        } else {
            session.b_export = policy;
        }
        if !session.up {
            return;
        }
        let now = self.now;
        self.dispatch(router, |r, sessions, store, out| {
            r.handle_session_up(now, session_id, sessions, store, out)
        });
    }

    /// Interprets a router's actions: schedules transmissions (with link
    /// delay and fault injection) and MRAI timers.
    fn apply_actions(&mut self, from: RouterId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { session, update } => {
                    let s = &self.sessions[session.0];
                    if !s.up {
                        self.stats.messages_dropped += 1;
                        continue;
                    }
                    if self.fault.should_drop() {
                        self.stats.messages_dropped += 1;
                        continue;
                    }
                    let to = s.other(from);
                    let at = self.now + s.delay + self.fault.extra_delay();
                    self.queue.push(at, EventKind::Deliver { session, to, update });
                }
                Action::ScheduleMrai { session, at } => {
                    self.queue.push(at, EventKind::MraiExpire { router: from, session });
                }
                Action::ScheduleDampReuse { session, prefix, at } => {
                    self.queue.push(at, EventKind::DampReuse { router: from, session, prefix });
                }
            }
        }
    }

    /// Builds a network from an AS-level topology: routers with vendor
    /// assignment, iBGP full meshes, eBGP sessions with behavior-derived
    /// policies, and deterministic per-session delay stagger.
    pub fn from_topology(topo: &Topology, config: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut net = Network::new(config);

        // Routers, with per-AS vendor assignment.
        for node in topo.nodes() {
            let vendor = pick_vendor(&mut rng, &net.config);
            for spec in &node.routers {
                let id = node.router_id(spec.index);
                let ip = IpAddr::V4(node.router_ip(spec.index));
                let mut router = Router::new(id, ip, vendor, node.igp.clone());
                router.dampening = net.config.dampening;
                net.add_router(router);
            }
        }

        // iBGP full mesh within each AS.
        for node in topo.nodes() {
            for i in 0..node.routers.len() {
                for j in i + 1..node.routers.len() {
                    let delay = net.config.base_link_delay
                        + SimDuration::from_micros(node.igp_cost(i as u16, j as u16) as u64 * 50);
                    net.add_session(Session {
                        id: SessionId(0),
                        kind: SessionKind::Ibgp,
                        a: node.router_id(i as u16),
                        b: node.router_id(j as u16),
                        a_import: ImportPolicy::default(),
                        a_export: ExportPolicy::default(),
                        b_import: ImportPolicy::default(),
                        b_export: ExportPolicy::default(),
                        a_view_of_b: None,
                        b_view_of_a: None,
                        delay,
                        up: true,
                    });
                }
            }
        }

        // eBGP sessions from topology edges, policies from AS behavior.
        for edge in topo.edges() {
            let node_a = topo.node(edge.a).expect("edge endpoint");
            let node_b = topo.node(edge.b).expect("edge endpoint");
            let a_id = node_a.router_id(edge.a_router);
            let b_id = node_b.router_id(edge.b_router);
            let a_kind = edge.neighbor_kind(edge.a).expect("edge relationship");
            let b_kind = edge.neighbor_kind(edge.b).expect("edge relationship");

            let a_import = build_import(node_a, edge.a_router, a_kind);
            let b_import = build_import(node_b, edge.b_router, b_kind);
            let a_export = ExportPolicy {
                clean_communities: node_a.behavior.cleans_egress,
                ..Default::default()
            };
            let b_export = ExportPolicy {
                clean_communities: node_b.behavior.cleans_egress,
                ..Default::default()
            };
            let stagger = net.config.delay_spread.as_micros();
            let delay = net.config.base_link_delay
                + SimDuration::from_micros(if stagger == 0 {
                    0
                } else {
                    rng.gen_range(0..=stagger)
                });
            net.add_session(Session {
                id: SessionId(0),
                kind: SessionKind::Ebgp,
                a: a_id,
                b: b_id,
                a_import,
                a_export,
                b_import,
                b_export,
                a_view_of_b: Some(a_kind),
                b_view_of_a: Some(b_kind),
                delay,
                up: true,
            });
        }
        net
    }

    /// Adds a route collector AS with one router, peering with the given
    /// peer routers. The peers treat the collector session like a customer
    /// session (full export), the standard collector arrangement. Returns
    /// the collector's router id and the created session ids.
    pub fn attach_collector(
        &mut self,
        collector_asn: Asn,
        peers: &[RouterId],
    ) -> (RouterId, Vec<SessionId>) {
        let collector_id = RouterId { asn: collector_asn, index: 0 };
        let v = collector_asn.value();
        let ip =
            IpAddr::V4(std::net::Ipv4Addr::new(198, 51, ((v >> 8) & 0xFF) as u8, (v & 0xFF) as u8));
        let mut collector =
            Router::new(collector_id, ip, VendorProfile::BIRD_2, kcc_topology::IgpMap::ring(1));
        collector.is_collector = true;
        self.add_router(collector);

        let mut ids = Vec::with_capacity(peers.len());
        for (i, &peer) in peers.iter().enumerate() {
            // Peer keeps its configured egress behavior toward the
            // collector; the collector imports everything untouched.
            // Cleaning policy is AS-level: any eBGP session of any router
            // of the peer's AS reveals it (the peer router itself may have
            // no other eBGP session).
            let peer_cleans = self
                .sessions
                .iter()
                .filter(|s| s.is_ebgp())
                .find_map(|s| {
                    if s.a.asn == peer.asn {
                        Some(s.a_export.clean_communities)
                    } else if s.b.asn == peer.asn {
                        Some(s.b_export.clean_communities)
                    } else {
                        None
                    }
                })
                .unwrap_or(false);
            let delay = self.config.base_link_delay
                + SimDuration::from_micros(
                    (i as u64 * 137) % self.config.delay_spread.as_micros().max(1),
                );
            let id = self.add_session(Session {
                id: SessionId(0),
                kind: SessionKind::Ebgp,
                a: peer,
                b: collector_id,
                a_import: ImportPolicy::default(),
                a_export: ExportPolicy { clean_communities: peer_cleans, ..Default::default() },
                b_import: ImportPolicy::default(),
                b_export: ExportPolicy::default(),
                // Peers export everything to collectors (customer-like).
                a_view_of_b: Some(RouteSource::Customer),
                b_view_of_a: Some(RouteSource::Provider),
                delay,
                up: true,
            });
            ids.push(id);
        }
        (collector_id, ids)
    }

    /// Schedules announcements of every prefix in the topology at `at`.
    pub fn announce_all_origins(&mut self, topo: &Topology, at: SimTime) {
        for (asn, prefix) in topo.all_prefixes() {
            let router = RouterId { asn, index: 0 };
            self.schedule_announce(at, router, prefix);
        }
    }
}

fn build_import(node: &kcc_topology::AsNode, router_index: u16, kind: RouteSource) -> ImportPolicy {
    let mut p = ImportPolicy::for_neighbor(kind);
    if node.behavior.cleans_ingress {
        p.clean_communities = true;
    }
    if node.behavior.tags_geo {
        let location = node.routers[router_index as usize].location;
        p.geo_tag = Some((node.asn.value() as u16, location));
    }
    p
}

fn pick_vendor(rng: &mut StdRng, config: &SimConfig) -> VendorProfile {
    if config.vendor_mix.is_empty() {
        return config.default_vendor;
    }
    let total: f64 = config.vendor_mix.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total);
    for (v, w) in &config.vendor_mix {
        if pick < *w {
            return *v;
        }
        pick -= w;
    }
    config.vendor_mix.last().expect("non-empty mix").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_topology::{generate, TopologyConfig};

    fn tiny_topology() -> Topology {
        generate(&TopologyConfig { n_tier1: 2, n_transit: 3, n_stub: 5, ..Default::default() })
    }

    #[test]
    fn build_from_topology() {
        let topo = tiny_topology();
        let net = Network::from_topology(&topo, SimConfig::default());
        let router_count: usize = topo.nodes().map(|n| n.routers.len()).sum();
        assert_eq!(net.routers().count(), router_count);
        assert!(!net.sessions().is_empty());
    }

    #[test]
    fn converges_and_goes_quiet() {
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();
        // After quiescence every router should know every prefix
        // (valley-free reachability holds in a fully connected hierarchy).
        let total_prefixes = topo.all_prefixes().len();
        for r in net.routers() {
            assert_eq!(r.loc_rib_len(), total_prefixes, "router {} missing routes", r.id);
        }
    }

    #[test]
    fn quiet_network_stays_quiet() {
        // The paper's lab setup sanity check: once converged, only
        // keepalives flow — in our model, *nothing* flows.
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();
        let delivered = net.stats.messages_delivered;
        net.run_until_quiet();
        assert_eq!(net.stats.messages_delivered, delivered);
    }

    #[test]
    fn collector_receives_routes() {
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        let peer = topo.nodes().find(|n| n.tier == kcc_topology::Tier::Transit).unwrap();
        let peer_router = peer.router_id(0);
        let (collector, sessions) = net.attach_collector(Asn(12_345), &[peer_router]);
        assert_eq!(sessions.len(), 1);
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();
        let cap = net.capture(collector).unwrap();
        assert!(!cap.is_empty(), "collector saw no updates");
        // The collector should have learned all prefixes.
        let r = net.router(collector).unwrap();
        assert_eq!(r.loc_rib_len(), topo.all_prefixes().len());
    }

    #[test]
    fn withdrawal_propagates_to_collector() {
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        let peer = topo.nodes().find(|n| n.tier == kcc_topology::Tier::Transit).unwrap();
        let (collector, _) = net.attach_collector(Asn(12_345), &[peer.router_id(0)]);
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();
        net.clear_captures();

        let (origin, prefix) = topo.all_prefixes()[0];
        net.schedule_withdraw(SimTime::from_secs(100), RouterId { asn: origin, index: 0 }, prefix);
        net.run_until_quiet();
        let r = net.router(collector).unwrap();
        assert!(r.best_route(&prefix).is_none(), "prefix not withdrawn at collector");
        let cap = net.capture(collector).unwrap();
        assert!(cap.withdrawal_count() > 0, "no withdrawal reached the collector");
    }

    #[test]
    fn link_flap_triggers_updates_and_recovery() {
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();

        // Flap the first eBGP session.
        let sid =
            net.sessions().iter().find(|s| s.is_ebgp()).map(|s| s.id).expect("an ebgp session");
        let before: Vec<usize> = net.routers().map(|r| r.loc_rib_len()).collect();
        net.schedule_link_down(SimTime::from_secs(200), sid);
        net.schedule_link_up(SimTime::from_secs(260), sid);
        net.run_until_quiet();
        let after: Vec<usize> = net.routers().map(|r| r.loc_rib_len()).collect();
        assert_eq!(before, after, "flap must fully heal");
    }

    #[test]
    fn fault_injection_drops_messages() {
        let topo = tiny_topology();
        let cfg = SimConfig {
            fault: FaultConfig { drop_chance: 0.3, seed: 5, ..Default::default() },
            ..Default::default()
        };
        let mut net = Network::from_topology(&topo, cfg);
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();
        assert!(net.stats.messages_dropped > 0);
    }

    #[test]
    fn vendor_mix_assignment_deterministic() {
        let topo = tiny_topology();
        let cfg = SimConfig {
            vendor_mix: vec![(VendorProfile::CISCO_IOS, 0.5), (VendorProfile::JUNOS, 0.5)],
            ..Default::default()
        };
        let a = Network::from_topology(&topo, cfg.clone());
        let b = Network::from_topology(&topo, cfg);
        let va: Vec<&str> = a.routers().map(|r| r.vendor.name).collect();
        let vb: Vec<&str> = b.routers().map(|r| r.vendor.name).collect();
        assert_eq!(va, vb);
        assert!(va.contains(&"Cisco IOS 12.4(20)T") || va.contains(&"Junos OS Olive 12.1R1.9"));
    }

    #[test]
    fn run_until_respects_time_bound() {
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        net.announce_all_origins(&topo, SimTime::from_secs(10));
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.stats.messages_delivered, 0);
        net.run_until_quiet();
        assert!(net.stats.messages_delivered > 0);
    }

    #[test]
    fn convergence_time_is_deterministic_across_runs() {
        // Two identical runs must report the same quiescence time — the
        // comparison every sweep cell and golden trace relies on.
        let converge = || {
            let topo = tiny_topology();
            let mut net = Network::from_topology(&topo, SimConfig::default());
            net.announce_all_origins(&topo, SimTime::ZERO);
            net.run_until_quiet()
        };
        let a = converge();
        let b = converge();
        assert_eq!(a, b);
        assert!(a > SimTime::ZERO);
    }

    #[test]
    fn quiet_time_is_last_event_not_poll_time() {
        // Draining the queue through `run_until` with a generous bound
        // advances `now` to the bound; `run_until_quiet` must still
        // report when the last event actually fired.
        let topo = tiny_topology();
        let mut reference = Network::from_topology(&topo, SimConfig::default());
        reference.announce_all_origins(&topo, SimTime::ZERO);
        let converged_at = reference.run_until_quiet();

        let mut probed = Network::from_topology(&topo, SimConfig::default());
        probed.announce_all_origins(&topo, SimTime::ZERO);
        probed.run_until(SimTime::from_secs(10_000));
        assert_eq!(probed.now(), SimTime::from_secs(10_000), "run_until advances the clock");
        assert_eq!(
            probed.run_until_quiet(),
            converged_at,
            "quiescence time must be the last processed event, not the poll time"
        );
    }

    #[test]
    fn import_policy_rewrite_refreshes_route() {
        // A community rewrite at ingress must become visible via the
        // route-refresh replay, without any other churn.
        let topo = tiny_topology();
        let mut net = Network::from_topology(&topo, SimConfig::default());
        net.announce_all_origins(&topo, SimTime::ZERO);
        net.run_until_quiet();

        // Pick an eBGP session and rewrite the a-side import policy to
        // tag everything with a marker community.
        let (sid, a, b) = net
            .sessions()
            .iter()
            .find(|s| s.is_ebgp())
            .map(|s| (s.id, s.a, s.b))
            .expect("an ebgp session");
        let marker = kcc_bgp_types::Community::from_parts(65_432, 1);
        let kind = net.sessions()[sid.0].neighbor_kind_for(a).unwrap();
        let policy =
            ImportPolicy { add_communities: vec![marker], ..ImportPolicy::for_neighbor(kind) };
        net.schedule_import_policy(net.now() + SimDuration::from_secs(10), a, b, policy);
        net.run_until_quiet();

        let tagged = net
            .router(a)
            .unwrap()
            .adj_rib_in()
            .filter(|((s, _), e)| *s == sid && e.attrs.communities.contains(&marker))
            .count();
        assert!(tagged > 0, "refresh must re-import at least one route with the marker");
    }
}
