//! Declarative scenarios: topologies, timelines and expectations as data.
//!
//! The paper's §3 laboratory is four *configurations* of one experiment
//! shape: build a topology, converge it, perturb it, and compare what a
//! monitored link and a route collector observe. [`ScenarioSpec`] captures
//! that shape as data so new scenarios — different vendor mixes, cleaning
//! placements, fault timelines, community rewrites — are written, not
//! wired:
//!
//! * a **topology template** ([`TopologyTemplate`]): either an explicit
//!   router/session list (the lab's Figure 1) or a seeded generator
//!   configuration from [`kcc_topology::gen`] plus an optional collector,
//! * a scripted **timeline** of phases ([`Phase`]), each a batch of
//!   events — announces, withdraws, link faults, community/policy
//!   rewrites — scheduled relative to the phase start and run to
//!   quiescence,
//! * **observation points**: monitored sessions and watched `(router,
//!   prefix)` RIB entries, snapshotted per phase ([`PhaseObservation`]),
//! * **expectations** ([`Expectation`]): declarative assertions over the
//!   per-phase captures, checked by [`ScenarioOutcome::check`].
//!
//! The engine itself is two functions: [`build`] compiles a spec into a
//! [`Network`], [`run`] executes the timeline and returns a
//! [`ScenarioOutcome`]. Everything stays deterministic: same spec, same
//! observations, byte for byte.
//!
//! ```
//! use kcc_bgp_sim::lab::LabExperiment;
//! use kcc_bgp_sim::{scenario, VendorProfile};
//!
//! // The paper's Exp2 is just a spec now; interpret it with the engine.
//! let spec = LabExperiment::Exp2.spec(VendorProfile::CISCO_IOS);
//! let outcome = scenario::run(&spec);
//! assert!(outcome.check(&spec.expectations).is_empty());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::net::IpAddr;

use kcc_bgp_types::{Asn, PathAttributes, Prefix};
use kcc_topology::{
    generate, generate_internet, IgpMap, InternetConfig, RouteSource, RouterId, Topology,
    TopologyConfig,
};

use crate::capture::CapturedUpdate;
use crate::network::{Network, SimConfig};
use crate::policy::{ExportPolicy, ImportPolicy};
use crate::router::Router;
use crate::session::{Session, SessionId, SessionKind};
use crate::time::{SimDuration, SimTime};
use crate::vendor::VendorProfile;

/// A complete declarative scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Human-readable name, used in expectation-violation messages.
    pub name: String,
    /// Simulator configuration (seed, default vendor, delays, faults,
    /// dampening).
    pub sim: SimConfig,
    /// What network to build.
    pub topology: TopologyTemplate,
    /// Sessions to packet-capture, named by their two endpoints.
    pub monitors: Vec<(RouterId, RouterId)>,
    /// `(router, prefix)` RIB entries whose post-policy attributes are
    /// recorded at every phase boundary.
    pub watch: Vec<(RouterId, Prefix)>,
    /// The scripted timeline: phases run in order, each to quiescence.
    pub phases: Vec<Phase>,
    /// Declarative assertions over the outcome.
    pub expectations: Vec<Expectation>,
}

/// What network a scenario runs on.
#[derive(Debug, Clone)]
pub enum TopologyTemplate {
    /// An explicit router/session list (the lab's Figure 1 style).
    /// Insertion order is preserved — session ids and event ordering are
    /// deterministic functions of the declaration order.
    Explicit {
        /// The routers.
        routers: Vec<RouterDecl>,
        /// The sessions, in creation order.
        sessions: Vec<SessionDecl>,
    },
    /// A generated AS-level topology, optionally with a route collector
    /// attached (peers export to it like to a customer).
    Generated {
        /// Generator configuration (seeded; deterministic).
        config: TopologyConfig,
        /// Optional collector AS and its peer routers.
        collector: Option<CollectorDecl>,
    },
    /// An internet-scale power-law topology
    /// ([`kcc_topology::generate_internet`]), optionally with a route
    /// collector — the 10k+-AS substrate of `benchmark/`'s
    /// `sim-internet` workload and of `tests/sim_digest.rs`.
    GeneratedInternet {
        /// Internet generator configuration (seeded; deterministic).
        config: InternetConfig,
        /// Optional collector AS and its peer routers.
        collector: Option<CollectorDecl>,
    },
}

/// One declared router.
#[derive(Debug, Clone)]
pub struct RouterDecl {
    /// Identity (AS + index).
    pub id: RouterId,
    /// Loopback/session address (next-hop-self source).
    pub ip: IpAddr,
    /// Implementation profile; `None` inherits the sim default vendor.
    pub vendor: Option<VendorProfile>,
    /// IGP cost map of the owning AS.
    pub igp: IgpMap,
    /// True for route collectors (capture only, never export).
    pub is_collector: bool,
}

impl RouterDecl {
    /// A single-router declaration with a trivial IGP, inheriting the
    /// scenario's default vendor.
    pub fn new(id: RouterId, ip: IpAddr) -> Self {
        RouterDecl { id, ip, vendor: None, igp: IgpMap::ring(1), is_collector: false }
    }
}

/// One declared session. Field semantics mirror [`Session`]; `delay:
/// None` inherits the scenario's base link delay.
#[derive(Debug, Clone)]
pub struct SessionDecl {
    /// First endpoint.
    pub a: RouterId,
    /// Second endpoint.
    pub b: RouterId,
    /// eBGP or iBGP.
    pub kind: SessionKind,
    /// Policy `a` applies to routes received from `b`.
    pub a_import: ImportPolicy,
    /// Policy `a` applies to routes sent toward `b`.
    pub a_export: ExportPolicy,
    /// Policy `b` applies to routes received from `a`.
    pub b_import: ImportPolicy,
    /// Policy `b` applies to routes sent toward `a`.
    pub b_export: ExportPolicy,
    /// What `b` is to `a` (None on iBGP).
    pub a_view_of_b: Option<RouteSource>,
    /// What `a` is to `b`.
    pub b_view_of_a: Option<RouteSource>,
    /// One-way delay; `None` inherits [`SimConfig::base_link_delay`].
    pub delay: Option<SimDuration>,
}

impl SessionDecl {
    /// An iBGP session with empty policies.
    pub fn ibgp(a: RouterId, b: RouterId) -> Self {
        SessionDecl {
            a,
            b,
            kind: SessionKind::Ibgp,
            a_import: ImportPolicy::default(),
            a_export: ExportPolicy::default(),
            b_import: ImportPolicy::default(),
            b_export: ExportPolicy::default(),
            a_view_of_b: None,
            b_view_of_a: None,
            delay: None,
        }
    }

    /// An eBGP session where `b` is `a`'s customer, with explicit import
    /// policies per side.
    pub(crate) fn ebgp_customer_with_imports(
        a: RouterId,
        b: RouterId,
        a_import: ImportPolicy,
        b_import: ImportPolicy,
    ) -> Self {
        SessionDecl {
            a,
            b,
            kind: SessionKind::Ebgp,
            a_import,
            a_export: ExportPolicy::default(),
            b_import,
            b_export: ExportPolicy::default(),
            a_view_of_b: Some(RouteSource::Customer),
            b_view_of_a: Some(RouteSource::Provider),
            delay: None,
        }
    }

    fn to_session(&self, base_delay: SimDuration) -> Session {
        Session {
            id: SessionId(0),
            kind: self.kind,
            a: self.a,
            b: self.b,
            a_import: self.a_import.clone(),
            a_export: self.a_export.clone(),
            b_import: self.b_import.clone(),
            b_export: self.b_export.clone(),
            a_view_of_b: self.a_view_of_b,
            b_view_of_a: self.b_view_of_a,
            delay: self.delay.unwrap_or(base_delay),
            up: true,
        }
    }
}

/// A route collector to attach to a generated topology.
#[derive(Debug, Clone)]
pub struct CollectorDecl {
    /// The collector's AS number (must not collide with generated ASes).
    pub asn: Asn,
    /// The routers that feed it.
    pub peers: Vec<RouterId>,
}

/// One phase of a scenario: a batch of events scheduled relative to the
/// phase start, then run to quiescence. Captures are snapshotted and
/// cleared at every phase boundary, so each phase observes only its own
/// traffic.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (for reports and violation messages).
    pub name: String,
    /// The events of this phase.
    pub events: Vec<ScenarioEvent>,
}

impl Phase {
    /// A named phase.
    pub fn new(name: &str, events: Vec<ScenarioEvent>) -> Self {
        Phase { name: name.to_string(), events }
    }
}

/// One scheduled event: `action` fires `after` the phase starts.
#[derive(Debug, Clone)]
pub struct ScenarioEvent {
    /// Offset from the phase start.
    pub after: SimDuration,
    /// What happens.
    pub action: ScenarioAction,
}

impl ScenarioEvent {
    /// An event at the phase start.
    pub fn immediately(action: ScenarioAction) -> Self {
        ScenarioEvent { after: SimDuration::ZERO, action }
    }

    /// An event `after` the phase start.
    pub fn after(after: SimDuration, action: ScenarioAction) -> Self {
        ScenarioEvent { after, action }
    }
}

/// The scriptable actions of a scenario timeline.
#[derive(Debug, Clone)]
pub enum ScenarioAction {
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
    /// Every prefix of the generated topology is announced by its origin
    /// (valid only on [`TopologyTemplate::Generated`]).
    AnnounceAllOrigins,
    /// The session between two routers goes down.
    LinkDown {
        /// First endpoint.
        a: RouterId,
        /// Second endpoint.
        b: RouterId,
    },
    /// The session between two routers comes back up.
    LinkUp {
        /// First endpoint.
        a: RouterId,
        /// Second endpoint.
        b: RouterId,
    },
    /// Every eBGP session between two ASes goes down — an inter-AS
    /// adjacency failure, including parallel interconnections (generated
    /// topologies, where router indices are not known in advance).
    InterAsLinkDown {
        /// First AS.
        a: Asn,
        /// Second AS.
        b: Asn,
    },
    /// Every eBGP session between two ASes comes back up.
    InterAsLinkUp {
        /// First AS.
        a: Asn,
        /// Second AS.
        b: Asn,
    },
    /// `router` replaces the import policy it applies to routes from
    /// `peer` — a community rewrite at ingress. On eBGP sessions the peer
    /// replays its Adj-RIB-Out (route refresh) so the rewrite is
    /// immediately observable.
    RewriteImport {
        /// The reconfigured endpoint.
        router: RouterId,
        /// The neighbor.
        peer: RouterId,
        /// The replacement policy.
        policy: ImportPolicy,
    },
    /// `router` replaces the export policy it applies toward `peer` — a
    /// community rewrite at egress — then re-advertises its Loc-RIB there
    /// (soft reset out).
    RewriteExport {
        /// The reconfigured endpoint.
        router: RouterId,
        /// The neighbor.
        peer: RouterId,
        /// The replacement policy.
        policy: ExportPolicy,
    },
}

/// Bound on an observed message count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountBound {
    /// Exactly this many.
    Exactly(usize),
    /// At least this many.
    AtLeast(usize),
    /// At most this many.
    AtMost(usize),
}

impl CountBound {
    /// True if `n` satisfies the bound.
    pub fn ok(self, n: usize) -> bool {
        match self {
            CountBound::Exactly(k) => n == k,
            CountBound::AtLeast(k) => n >= k,
            CountBound::AtMost(k) => n <= k,
        }
    }
}

impl fmt::Display for CountBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountBound::Exactly(k) => write!(f, "exactly {k}"),
            CountBound::AtLeast(k) => write!(f, "at least {k}"),
            CountBound::AtMost(k) => write!(f, "at most {k}"),
        }
    }
}

/// A declarative assertion over a [`ScenarioOutcome`]. Phase indices are
/// zero-based positions in [`ScenarioSpec::phases`].
#[derive(Debug, Clone)]
pub enum Expectation {
    /// Message count on a monitored session during a phase, optionally
    /// restricted to one receiving direction.
    MonitorTraffic {
        /// Phase index.
        phase: usize,
        /// First endpoint of the monitored session.
        a: RouterId,
        /// Second endpoint.
        b: RouterId,
        /// Count only messages delivered *to* this router, if set.
        to: Option<RouterId>,
        /// The required count.
        bound: CountBound,
    },
    /// Message count captured at a collector during a phase.
    CollectorTraffic {
        /// Phase index.
        phase: usize,
        /// The collector router.
        collector: RouterId,
        /// The required count.
        bound: CountBound,
    },
    /// Whether a watched `(router, prefix)` RIB entry changed between the
    /// previous phase boundary and this one (the entry must be listed in
    /// [`ScenarioSpec::watch`]).
    WatchedRouteChanged {
        /// Phase index (compared against `phase - 1`).
        phase: usize,
        /// The watched router.
        router: RouterId,
        /// The watched prefix.
        prefix: Prefix,
        /// Expected answer.
        changed: bool,
    },
    /// Network-wide duplicates suppressed during a phase (Junos behavior).
    DuplicatesSuppressed {
        /// Phase index.
        phase: usize,
        /// The required count.
        bound: CountBound,
    },
    /// Network-wide duplicates transmitted during a phase.
    DuplicatesSent {
        /// Phase index.
        phase: usize,
        /// The required count.
        bound: CountBound,
    },
}

/// Network-wide counter sums, used as per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Updates received by all routers.
    pub updates_received: u64,
    /// Updates sent by all routers.
    pub updates_sent: u64,
    /// Duplicates suppressed network-wide.
    pub duplicates_suppressed: u64,
    /// Duplicates transmitted network-wide.
    pub duplicates_sent: u64,
    /// Updates ignored under dampening suppression.
    pub dampened: u64,
}

impl CounterSnapshot {
    /// The current sums over all routers.
    pub fn of(net: &Network) -> Self {
        let mut s = CounterSnapshot::default();
        for r in net.routers() {
            s.updates_received += r.counters.updates_received;
            s.updates_sent += r.counters.updates_sent;
            s.duplicates_suppressed += r.counters.duplicates_suppressed;
            s.duplicates_sent += r.counters.duplicates_sent;
            s.dampened += r.counters.dampened;
        }
        s
    }

    /// Component-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            updates_received: self.updates_received - earlier.updates_received,
            updates_sent: self.updates_sent - earlier.updates_sent,
            duplicates_suppressed: self.duplicates_suppressed - earlier.duplicates_suppressed,
            duplicates_sent: self.duplicates_sent - earlier.duplicates_sent,
            dampened: self.dampened - earlier.dampened,
        }
    }
}

/// What one phase observed.
#[derive(Debug, Clone)]
pub struct PhaseObservation {
    /// The phase's name.
    pub name: String,
    /// Simulated time when the phase started.
    pub started: SimTime,
    /// Time of the last event processed in the phase.
    pub quiesced: SimTime,
    /// Messages captured on each monitored session during the phase.
    pub monitored: BTreeMap<SessionId, Vec<CapturedUpdate>>,
    /// Messages captured at each collector during the phase.
    pub collected: BTreeMap<RouterId, Vec<CapturedUpdate>>,
    /// Post-policy best-route attributes of each watched entry at the
    /// phase boundary (`None` when no route is installed). Shared with
    /// the sim's interned state — a snapshot costs a pointer per entry.
    pub watched: BTreeMap<(RouterId, Prefix), Option<std::sync::Arc<PathAttributes>>>,
    /// Counter deltas accumulated during the phase.
    pub counters: CounterSnapshot,
}

/// A compiled scenario, before the timeline runs.
#[derive(Debug)]
pub struct BuiltScenario {
    /// The network.
    pub net: Network,
    /// The generated topology, when the template was
    /// [`TopologyTemplate::Generated`].
    pub topology: Option<Topology>,
}

/// The result of running a scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The spec's name.
    pub name: String,
    /// One observation per phase, in order.
    pub phases: Vec<PhaseObservation>,
    /// The network in its final state, for further inspection.
    pub net: Network,
}

impl ScenarioOutcome {
    /// Messages on the monitored session between `a` and `b` during a
    /// phase (empty if the session is unmonitored or the phase index is
    /// out of range).
    pub fn monitored_in_phase(&self, phase: usize, a: RouterId, b: RouterId) -> &[CapturedUpdate] {
        let Some(sid) = self.net.find_session(a, b) else {
            return &[];
        };
        self.phases
            .get(phase)
            .and_then(|p| p.monitored.get(&sid))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Messages captured at a collector during a phase.
    pub fn collected_in_phase(&self, phase: usize, collector: RouterId) -> &[CapturedUpdate] {
        self.phases
            .get(phase)
            .and_then(|p| p.collected.get(&collector))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// A watched entry's attributes at a phase boundary.
    pub fn watched_attrs(
        &self,
        phase: usize,
        router: RouterId,
        prefix: Prefix,
    ) -> Option<&PathAttributes> {
        self.phases.get(phase).and_then(|p| p.watched.get(&(router, prefix)))?.as_deref()
    }

    /// Evaluates expectations; returns one message per violation (empty
    /// means everything held).
    pub fn check(&self, expectations: &[Expectation]) -> Vec<String> {
        let mut violations = Vec::new();
        for e in expectations {
            // A phase index past the timeline is a spec bug; flag it
            // instead of letting zero-count bounds pass vacuously.
            let phase_index = match e {
                Expectation::MonitorTraffic { phase, .. }
                | Expectation::CollectorTraffic { phase, .. }
                | Expectation::WatchedRouteChanged { phase, .. }
                | Expectation::DuplicatesSuppressed { phase, .. }
                | Expectation::DuplicatesSent { phase, .. } => *phase,
            };
            if phase_index >= self.phases.len() {
                violations.push(format!(
                    "{}: expectation references phase {phase_index}, but the timeline has only \
                     {} phases",
                    self.name,
                    self.phases.len()
                ));
                continue;
            }
            match e {
                Expectation::MonitorTraffic { phase, a, b, to, bound } => {
                    // A mis-declared session must be a violation, not a
                    // vacuous zero-count pass.
                    let entries = self
                        .net
                        .find_session(*a, *b)
                        .and_then(|sid| self.phases.get(*phase)?.monitored.get(&sid));
                    let Some(entries) = entries else {
                        violations.push(format!(
                            "{}: phase {phase}: session {a}-{b} is not monitored (missing from \
                             ScenarioSpec::monitors, or no such session)",
                            self.name
                        ));
                        continue;
                    };
                    let n = entries.iter().filter(|m| to.is_none_or(|t| m.to == t)).count();
                    if !bound.ok(n) {
                        violations.push(format!(
                            "{}: phase {phase}: monitor {a}-{b}: saw {n} messages, expected {bound}",
                            self.name
                        ));
                    }
                }
                Expectation::CollectorTraffic { phase, collector, bound } => {
                    let n = self.collected_in_phase(*phase, *collector).len();
                    if !bound.ok(n) {
                        violations.push(format!(
                            "{}: phase {phase}: collector {collector}: saw {n} messages, expected {bound}",
                            self.name
                        ));
                    }
                }
                Expectation::WatchedRouteChanged { phase, router, prefix, changed } => {
                    if *phase == 0 {
                        violations.push(format!(
                            "{}: WatchedRouteChanged needs a predecessor phase (got phase 0)",
                            self.name
                        ));
                        continue;
                    }
                    let before =
                        self.phases.get(phase - 1).and_then(|p| p.watched.get(&(*router, *prefix)));
                    let after =
                        self.phases.get(*phase).and_then(|p| p.watched.get(&(*router, *prefix)));
                    match (before, after) {
                        (Some(b), Some(a)) => {
                            let did_change = b != a;
                            if did_change != *changed {
                                violations.push(format!(
                                    "{}: phase {phase}: {router} route for {prefix} {}, expected it to {}",
                                    self.name,
                                    if did_change { "changed" } else { "did not change" },
                                    if *changed { "change" } else { "stay" },
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "{}: phase {phase}: ({router}, {prefix}) is not watched",
                            self.name
                        )),
                    }
                }
                Expectation::DuplicatesSuppressed { phase, bound } => {
                    let n = self
                        .phases
                        .get(*phase)
                        .map(|p| p.counters.duplicates_suppressed as usize)
                        .unwrap_or(0);
                    if !bound.ok(n) {
                        violations.push(format!(
                            "{}: phase {phase}: {n} duplicates suppressed, expected {bound}",
                            self.name
                        ));
                    }
                }
                Expectation::DuplicatesSent { phase, bound } => {
                    let n = self
                        .phases
                        .get(*phase)
                        .map(|p| p.counters.duplicates_sent as usize)
                        .unwrap_or(0);
                    if !bound.ok(n) {
                        violations.push(format!(
                            "{}: phase {phase}: {n} duplicates sent, expected {bound}",
                            self.name
                        ));
                    }
                }
            }
        }
        violations
    }
}

/// Compiles a spec into a network (and, for generated templates, the
/// topology it came from). Panics on inconsistent specs — a monitor or
/// session referencing a missing router is a bug in the spec, not a
/// runtime condition.
pub fn build(spec: &ScenarioSpec) -> BuiltScenario {
    let (mut net, topology) = match &spec.topology {
        TopologyTemplate::Explicit { routers, sessions } => {
            let mut net = Network::new(spec.sim.clone());
            for decl in routers {
                let vendor = decl.vendor.unwrap_or(spec.sim.default_vendor);
                let mut router = Router::new(decl.id, decl.ip, vendor, decl.igp.clone());
                router.is_collector = decl.is_collector;
                router.dampening = spec.sim.dampening;
                net.add_router(router);
            }
            for decl in sessions {
                net.add_session(decl.to_session(spec.sim.base_link_delay));
            }
            (net, None)
        }
        TopologyTemplate::Generated { config, collector } => {
            let topo = generate(config);
            let mut net = Network::from_topology(&topo, spec.sim.clone());
            if let Some(c) = collector {
                net.attach_collector(c.asn, &c.peers);
            }
            (net, Some(topo))
        }
        TopologyTemplate::GeneratedInternet { config, collector } => {
            let topo = generate_internet(config);
            let mut net = Network::from_topology(&topo, spec.sim.clone());
            if let Some(c) = collector {
                net.attach_collector(c.asn, &c.peers);
            }
            (net, Some(topo))
        }
    };
    for &(a, b) in &spec.monitors {
        let sid = net
            .find_session(a, b)
            .unwrap_or_else(|| panic!("{}: no session between {a} and {b} to monitor", spec.name));
        net.monitor_session(sid);
    }
    for &(r, prefix) in &spec.watch {
        assert!(
            net.router(r).is_some(),
            "{}: watch entry ({r}, {prefix}) names a router that does not exist",
            spec.name
        );
    }
    BuiltScenario { net, topology }
}

/// Runs a scenario: builds the network, executes each phase to
/// quiescence, snapshots observations at every phase boundary.
pub fn run(spec: &ScenarioSpec) -> ScenarioOutcome {
    let BuiltScenario { mut net, topology } = build(spec);
    let mut phases = Vec::with_capacity(spec.phases.len());
    let mut counters_before = CounterSnapshot::of(&net);
    for phase in &spec.phases {
        let started = net.now();
        for ev in &phase.events {
            schedule_action(&mut net, topology.as_ref(), started + ev.after, &ev.action, spec);
        }
        let quiesced = net.run_until_quiet();
        let counters_now = CounterSnapshot::of(&net);
        let monitored = spec
            .monitors
            .iter()
            .filter_map(|&(a, b)| net.find_session(a, b))
            .map(|sid| (sid, net.monitored(sid).map(|c| c.entries().to_vec()).unwrap_or_default()))
            .collect();
        let collected = net.captures().map(|(id, c)| (*id, c.entries().to_vec())).collect();
        let watched = spec
            .watch
            .iter()
            .map(|&(r, p)| {
                ((r, p), net.router(r).and_then(|rt| rt.best_route(&p)).map(|e| e.attrs.clone()))
            })
            .collect();
        phases.push(PhaseObservation {
            name: phase.name.clone(),
            started,
            quiesced,
            monitored,
            collected,
            watched,
            counters: counters_now.delta(&counters_before),
        });
        counters_before = counters_now;
        net.clear_captures();
    }
    ScenarioOutcome { name: spec.name.clone(), phases, net }
}

fn schedule_action(
    net: &mut Network,
    topo: Option<&Topology>,
    at: SimTime,
    action: &ScenarioAction,
    spec: &ScenarioSpec,
) {
    let session_between = |net: &Network, a: RouterId, b: RouterId| {
        net.find_session(a, b)
            .unwrap_or_else(|| panic!("{}: no session between {a} and {b}", spec.name))
    };
    match action {
        ScenarioAction::Announce { router, prefix } => net.schedule_announce(at, *router, *prefix),
        ScenarioAction::Withdraw { router, prefix } => net.schedule_withdraw(at, *router, *prefix),
        ScenarioAction::AnnounceAllOrigins => {
            let topo = topo.unwrap_or_else(|| {
                panic!("{}: AnnounceAllOrigins requires a generated topology", spec.name)
            });
            net.announce_all_origins(topo, at);
        }
        ScenarioAction::LinkDown { a, b } => {
            let sid = session_between(net, *a, *b);
            net.schedule_link_down(at, sid);
        }
        ScenarioAction::LinkUp { a, b } => {
            let sid = session_between(net, *a, *b);
            net.schedule_link_up(at, sid);
        }
        ScenarioAction::InterAsLinkDown { a, b } => {
            let sids = net.find_ebgp_sessions(*a, *b);
            assert!(!sids.is_empty(), "{}: no eBGP session between AS{a} and AS{b}", spec.name);
            for sid in sids {
                net.schedule_link_down(at, sid);
            }
        }
        ScenarioAction::InterAsLinkUp { a, b } => {
            let sids = net.find_ebgp_sessions(*a, *b);
            assert!(!sids.is_empty(), "{}: no eBGP session between AS{a} and AS{b}", spec.name);
            for sid in sids {
                net.schedule_link_up(at, sid);
            }
        }
        ScenarioAction::RewriteImport { router, peer, policy } => {
            net.schedule_import_policy(at, *router, *peer, policy.clone());
        }
        ScenarioAction::RewriteExport { router, peer, policy } => {
            net.schedule_export_policy(at, *router, *peer, policy.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::Community;

    fn rid(asn: u32, index: u16) -> RouterId {
        RouterId { asn: Asn(asn), index }
    }

    fn ip(d: u8) -> IpAddr {
        IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, d))
    }

    fn prefix() -> Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    /// `b` is `a`'s customer, under the conventional Gao–Rexford imports.
    fn customer(a: RouterId, b: RouterId) -> SessionDecl {
        SessionDecl::ebgp_customer_with_imports(
            a,
            b,
            ImportPolicy::for_neighbor(RouteSource::Customer),
            ImportPolicy::for_neighbor(RouteSource::Provider),
        )
    }

    /// origin A(AS1) -- transit B(AS2) -- collector C(AS3).
    fn chain_spec() -> ScenarioSpec {
        let a = rid(1, 0);
        let b = rid(2, 0);
        let c = rid(3, 0);
        let collector = RouterDecl { is_collector: true, ..RouterDecl::new(c, ip(3)) };
        ScenarioSpec {
            name: "chain".into(),
            sim: SimConfig { delay_spread: SimDuration::ZERO, ..Default::default() },
            topology: TopologyTemplate::Explicit {
                routers: vec![RouterDecl::new(a, ip(1)), RouterDecl::new(b, ip(2)), collector],
                sessions: vec![customer(b, a), customer(b, c)],
            },
            monitors: vec![(a, b)],
            watch: vec![(b, prefix())],
            phases: vec![Phase::new(
                "converge",
                vec![ScenarioEvent::immediately(ScenarioAction::Announce {
                    router: a,
                    prefix: prefix(),
                })],
            )],
            expectations: vec![
                Expectation::CollectorTraffic {
                    phase: 0,
                    collector: c,
                    bound: CountBound::Exactly(1),
                },
                Expectation::MonitorTraffic {
                    phase: 0,
                    a,
                    b,
                    to: Some(b),
                    bound: CountBound::Exactly(1),
                },
            ],
        }
    }

    #[test]
    fn explicit_chain_runs_and_expectations_hold() {
        let spec = chain_spec();
        let outcome = run(&spec);
        assert_eq!(outcome.check(&spec.expectations), Vec::<String>::new());
        // The collector learned the route through B.
        let c_best = outcome.net.router(rid(3, 0)).unwrap().best_route(&prefix()).unwrap();
        assert_eq!(c_best.attrs.as_path.to_string(), "2 1");
        assert!(outcome.watched_attrs(0, rid(2, 0), prefix()).is_some());
    }

    #[test]
    fn violated_expectations_are_reported() {
        let spec = chain_spec();
        let outcome = run(&spec);
        let violations = outcome.check(&[Expectation::CollectorTraffic {
            phase: 0,
            collector: rid(3, 0),
            bound: CountBound::Exactly(7),
        }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("expected exactly 7"), "{violations:?}");
    }

    #[test]
    fn out_of_range_phase_index_is_a_violation() {
        let spec = chain_spec(); // one phase
        let outcome = run(&spec);
        let violations = outcome.check(&[Expectation::CollectorTraffic {
            phase: 5,
            collector: rid(3, 0),
            bound: CountBound::Exactly(0),
        }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("only 1 phases"), "{violations:?}");
    }

    #[test]
    #[should_panic(expected = "names a router that does not exist")]
    fn watch_of_missing_router_panics_at_build() {
        let mut spec = chain_spec();
        spec.watch.push((rid(999, 0), prefix()));
        build(&spec);
    }

    #[test]
    fn monitor_expectation_on_unmonitored_session_is_a_violation() {
        // The B–C session exists but is not in spec.monitors; expecting
        // traffic bounds on it must flag the spec bug, not pass with a
        // vacuous zero count.
        let spec = chain_spec();
        let outcome = run(&spec);
        let violations = outcome.check(&[Expectation::MonitorTraffic {
            phase: 0,
            a: rid(2, 0),
            b: rid(3, 0),
            to: None,
            bound: CountBound::Exactly(0),
        }]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("not monitored"), "{violations:?}");
    }

    #[test]
    fn import_rewrite_triggers_refresh_and_nc_update() {
        // Phase 2 rewrites B's import from A to add a community. The
        // route-refresh replay must carry the tag to the collector as a
        // community-only (nc-style) update.
        let mut spec = chain_spec();
        let tag = Community::from_parts(2, 999);
        spec.phases.push(Phase::new(
            "rewrite",
            vec![ScenarioEvent::after(
                SimDuration::from_secs(60),
                ScenarioAction::RewriteImport {
                    router: rid(2, 0),
                    peer: rid(1, 0),
                    policy: ImportPolicy {
                        add_communities: vec![tag],
                        ..ImportPolicy::for_neighbor(RouteSource::Customer)
                    },
                },
            )],
        ));
        let outcome = run(&spec);
        let at_c = outcome.collected_in_phase(1, rid(3, 0));
        assert_eq!(at_c.len(), 1, "collector must see the rewrite");
        let attrs = at_c[0].update.attrs().unwrap();
        assert!(attrs.communities.contains(&tag));
        // Path unchanged: the community is the sole trigger.
        assert_eq!(attrs.as_path.to_string(), "2 1");
        // And B's watched RIB entry changed between the phases.
        let violations = outcome.check(&[Expectation::WatchedRouteChanged {
            phase: 1,
            router: rid(2, 0),
            prefix: prefix(),
            changed: true,
        }]);
        assert_eq!(violations, Vec::<String>::new());
    }

    #[test]
    fn export_rewrite_cleans_communities_at_collector() {
        // B tags on import from the start; phase 2 turns on egress
        // cleaning toward the collector. The soft reset must deliver the
        // cleaned announcement.
        let mut spec = chain_spec();
        let tag = Community::from_parts(2, 777);
        if let TopologyTemplate::Explicit { sessions, .. } = &mut spec.topology {
            sessions[0].a_import.add_communities.push(tag);
        }
        spec.phases.push(Phase::new(
            "clean",
            vec![ScenarioEvent::after(
                SimDuration::from_secs(60),
                ScenarioAction::RewriteExport {
                    router: rid(2, 0),
                    peer: rid(3, 0),
                    policy: ExportPolicy { clean_communities: true, ..Default::default() },
                },
            )],
        ));
        let outcome = run(&spec);
        // Converged state carried the tag...
        let initial = outcome.collected_in_phase(0, rid(3, 0));
        assert!(initial[0].update.attrs().unwrap().communities.contains(&tag));
        // ...the rewrite phase delivers the cleaned replacement.
        let cleaned = outcome.collected_in_phase(1, rid(3, 0));
        assert_eq!(cleaned.len(), 1);
        assert!(cleaned[0].update.attrs().unwrap().communities.is_empty());
    }

    #[test]
    fn generated_template_with_collector_converges() {
        let spec = ScenarioSpec {
            name: "generated".into(),
            sim: SimConfig::default(),
            topology: TopologyTemplate::Generated {
                config: TopologyConfig {
                    n_tier1: 2,
                    n_transit: 3,
                    n_stub: 5,
                    ..Default::default()
                },
                collector: Some(CollectorDecl { asn: Asn(3333), peers: vec![rid(20_000, 0)] }),
            },
            monitors: vec![],
            watch: vec![],
            phases: vec![Phase::new(
                "converge",
                vec![ScenarioEvent::immediately(ScenarioAction::AnnounceAllOrigins)],
            )],
            expectations: vec![Expectation::CollectorTraffic {
                phase: 0,
                collector: rid(3333, 0),
                bound: CountBound::AtLeast(1),
            }],
        };
        let outcome = run(&spec);
        assert_eq!(outcome.check(&spec.expectations), Vec::<String>::new());
        assert!(outcome.phases[0].quiesced > SimTime::ZERO);
    }

    #[test]
    fn fault_injection_rides_the_spec() {
        // Fault configuration is part of the spec's SimConfig: a lossy
        // scenario must drop messages, deterministically per seed.
        let spec = ScenarioSpec {
            name: "lossy".into(),
            sim: SimConfig {
                fault: crate::delivery::FaultConfig::lossy(0.3, 5),
                ..Default::default()
            },
            topology: TopologyTemplate::Generated {
                config: TopologyConfig {
                    n_tier1: 2,
                    n_transit: 3,
                    n_stub: 5,
                    ..Default::default()
                },
                collector: None,
            },
            monitors: vec![],
            watch: vec![],
            phases: vec![Phase::new(
                "converge",
                vec![ScenarioEvent::immediately(ScenarioAction::AnnounceAllOrigins)],
            )],
            expectations: vec![],
        };
        let a = run(&spec);
        assert!(a.net.stats.messages_dropped > 0, "lossy spec must drop messages");
        let b = run(&spec);
        assert_eq!(a.net.stats.messages_dropped, b.net.stats.messages_dropped);
    }

    #[test]
    fn identical_specs_produce_identical_outcomes() {
        let spec = chain_spec();
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.phases.len(), b.phases.len());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.quiesced, pb.quiesced);
            assert_eq!(pa.counters, pb.counters);
            assert_eq!(pa.collected, pb.collected);
            assert_eq!(pa.monitored, pb.monitored);
        }
    }

    #[test]
    fn count_bound_semantics() {
        assert!(CountBound::Exactly(2).ok(2) && !CountBound::Exactly(2).ok(3));
        assert!(CountBound::AtLeast(2).ok(5) && !CountBound::AtLeast(2).ok(1));
        assert!(CountBound::AtMost(2).ok(0) && !CountBound::AtMost(2).ok(3));
        assert_eq!(CountBound::AtLeast(1).to_string(), "at least 1");
    }
}
