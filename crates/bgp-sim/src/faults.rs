//! The labeled fault library — scripted routing incidents for the
//! CommunityWatch detector.
//!
//! Each [`FaultScenario`] is a complete [`ScenarioSpec`] over one shared
//! multi-vantage topology: a baseline of beacon-style announce/withdraw
//! phases, then exactly one injected fault of a known
//! [`FaultKind`]. The scenarios double as the detector's ground truth —
//! `kcc_bench`'s eval harness replays each one through
//! `kcc_core::watch::WatchSink` and asserts the labeled kind (and no
//! other) is flagged.
//!
//! The shared topology (all ASNs private):
//!
//! ```text
//!   c1(AS64900) — t1(AS65020) ——peer—— t2(AS65030) — c2(AS64901)
//!                      \               /      \
//!                       z(AS65010, origin)     h(AS65666, hijacker)
//! ```
//!
//! The origin `z` is dual-homed to transits `t1`/`t2`; each transit tags
//! its customer routes on ingress (`65020:100` / `65030:200`) so the
//! community profiler has a stable baseline. Collectors `c1`/`c2` hang
//! off `t1`/`t2` respectively, so every fault has an affected vantage
//! and an unaffected control vantage.
//!
//! The faults:
//!
//! * **prefix hijack** — `h` announces `z`'s prefix; `t2` prefers the
//!   hijacker (elevated local-pref, the classic leak-enabling
//!   misconfiguration), so `c2` sees a novel origin AS,
//! * **route leak** — a misconfigured `t1`–`h` session (down through
//!   the whole baseline) comes up: `h` re-exports its provider-learned
//!   route to `t1` — a valley-free violation — and `t1` prefers the
//!   "customer" path, so `c1` sees a new transit AS while the origin is
//!   unchanged. The leaked path cannot exist during the baseline, so
//!   the path hunting that baseline withdrawals trigger (transient
//!   failover announcements — which the detector must *learn*, not
//!   flag) never exposes it,
//! * **blackhole injection** — `z` starts attaching `BLACKHOLE`
//!   (RFC 7999) toward `t1`; `c1` sees a well-known action community on
//!   a stream that never carried one,
//! * **collector outage** — the `t2`–`c2` session drops while the
//!   beacon keeps cycling; `c2` goes silent for consecutive phases in
//!   which `c1` stays active.
//!
//! Phase boundaries are the intended detection windows: every phase is
//! one beacon event run to quiescence, and the eval harness maps phase
//! *k* onto watch window *k*.

use std::net::IpAddr;

use kcc_bgp_types::{community::well_known, Asn, Community, Prefix};
use kcc_topology::{RouteSource, RouterId};

use crate::network::SimConfig;
use crate::policy::{ExportPolicy, ImportPolicy};
use crate::scenario::{
    CountBound, Expectation, Phase, RouterDecl, ScenarioAction, ScenarioEvent, ScenarioSpec,
    SessionDecl, TopologyTemplate,
};
use crate::session::SessionKind;
use crate::time::SimDuration;

/// The fault classes the library injects — one scenario each, matching
/// the alert kinds `kcc_core::watch` is expected to raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A prefix announced by an origin AS outside its learned set.
    PrefixHijack,
    /// A new transit AS on a vantage's path, origin unchanged.
    RouteLeak,
    /// A well-known action community injected into a clean stream.
    BlackholeInjection,
    /// A collector silent while its peers stay active.
    CollectorOutage,
}

impl FaultKind {
    /// The kebab-case label, equal to the matching
    /// `AlertKind::label()` in `kcc_core`.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PrefixHijack => "prefix-hijack",
            FaultKind::RouteLeak => "route-leak",
            FaultKind::BlackholeInjection => "blackhole-injection",
            FaultKind::CollectorOutage => "collector-outage",
        }
    }
}

/// One labeled scenario: a spec plus the ground truth the detector is
/// scored against.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// The injected fault class.
    pub kind: FaultKind,
    /// The runnable scenario.
    pub spec: ScenarioSpec,
    /// The beacon prefix all phases revolve around.
    pub prefix: Prefix,
    /// Index of the phase that injects the fault; everything before it
    /// is clean baseline (training data for the profiler, learning
    /// windows for the watch service).
    pub fault_phase: usize,
    /// Collector routers in naming order: index `i` becomes collector
    /// `rrc0i` when captures are converted for analysis.
    pub collectors: Vec<RouterId>,
}

/// Router handles of the fault-library topology.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultIds {
    /// The beacon origin (AS 65010).
    pub z: RouterId,
    /// Transit 1 (AS 65020), `c1`'s feed.
    pub t1: RouterId,
    /// Transit 2 (AS 65030), `c2`'s feed.
    pub t2: RouterId,
    /// The hijacker (AS 65666), customer of `t2`.
    pub h: RouterId,
    /// Collector on `t1` (AS 64900; `rrc00` in analysis naming).
    pub c1: RouterId,
    /// Collector on `t2` (AS 64901; `rrc01`).
    pub c2: RouterId,
}

/// The library's router handles.
pub(crate) fn fault_ids() -> FaultIds {
    let rid = |asn: u32| RouterId { asn: Asn(asn), index: 0 };
    FaultIds {
        z: rid(65_010),
        t1: rid(65_020),
        t2: rid(65_030),
        h: rid(65_666),
        c1: rid(64_900),
        c2: rid(64_901),
    }
}

/// The beacon prefix the library announces.
pub(crate) fn fault_prefix() -> Prefix {
    "203.0.113.0/24".parse().expect("valid prefix")
}

/// The ingress tag `t1` adds to its customer routes.
pub(crate) fn t1_tag() -> Community {
    Community::from_parts(65_020, 100)
}

/// The ingress tag `t2` adds to its customer routes.
pub(crate) fn t2_tag() -> Community {
    Community::from_parts(65_030, 200)
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    IpAddr::V4(std::net::Ipv4Addr::new(a, b, c, d))
}

fn ebgp_peer(a: RouterId, b: RouterId) -> SessionDecl {
    SessionDecl {
        a,
        b,
        kind: SessionKind::Ebgp,
        a_import: ImportPolicy::for_neighbor(RouteSource::Peer),
        a_export: ExportPolicy::default(),
        b_import: ImportPolicy::for_neighbor(RouteSource::Peer),
        b_export: ExportPolicy::default(),
        a_view_of_b: Some(RouteSource::Peer),
        b_view_of_a: Some(RouteSource::Peer),
        delay: None,
    }
}

/// The shared topology (see the module docs). The leak scenario adds
/// one extra session: `t1`–`h`, with `h` misconfigured to treat its
/// provider `t1` as a customer — so `h` exports *everything* to `t1`,
/// including its provider-learned route through `t2` (the valley-free
/// violation), while `t1` prefers the "customer" path. `h`'s import
/// pref for `t1` routes stays below its `t2` route, so its best path
/// never flips and the leak is stable.
fn fault_topology(with_leak_session: bool) -> TopologyTemplate {
    let ids = fault_ids();
    let routers = vec![
        RouterDecl::new(ids.z, ip(10, 10, 0, 1)),
        RouterDecl::new(ids.t1, ip(10, 20, 0, 1)),
        RouterDecl::new(ids.t2, ip(10, 30, 0, 1)),
        RouterDecl::new(ids.h, ip(10, 66, 0, 1)),
        RouterDecl { is_collector: true, ..RouterDecl::new(ids.c1, ip(198, 51, 100, 1)) },
        RouterDecl { is_collector: true, ..RouterDecl::new(ids.c2, ip(198, 51, 100, 2)) },
    ];
    let tag = |c: Community| ImportPolicy {
        add_communities: vec![c],
        ..ImportPolicy::for_neighbor(RouteSource::Customer)
    };
    // The hijack only reaches a vantage if t2 prefers its hijacking
    // customer over the legitimate one — the classic prefer-customer
    // local-pref misconfiguration that enables real-world hijacks.
    let prefer_hijacker = ImportPolicy {
        local_pref: Some(RouteSource::Customer.conventional_local_pref() + 50),
        ..tag(t2_tag())
    };
    let customer = SessionDecl::ebgp_customer_with_imports;
    let mut sessions = vec![
        customer(ids.t1, ids.z, tag(t1_tag()), ImportPolicy::default()),
        customer(ids.t2, ids.z, tag(t2_tag()), ImportPolicy::default()),
        ebgp_peer(ids.t1, ids.t2),
        customer(ids.t2, ids.h, prefer_hijacker, ImportPolicy::default()),
        customer(ids.t1, ids.c1, ImportPolicy::default(), ImportPolicy::default()),
        customer(ids.t2, ids.c2, ImportPolicy::default(), ImportPolicy::default()),
    ];
    if with_leak_session {
        sessions.push(SessionDecl {
            a: ids.t1,
            b: ids.h,
            kind: SessionKind::Ebgp,
            // t1 believes h is an ordinary (preferred) customer.
            a_import: ImportPolicy {
                local_pref: Some(RouteSource::Customer.conventional_local_pref() + 50),
                ..tag(t1_tag())
            },
            a_export: ExportPolicy::default(),
            // h keeps preferring its t2 route (90 < the default 100), so
            // the leak never flips h's own best path.
            b_import: ImportPolicy { local_pref: Some(90), ..ImportPolicy::default() },
            b_export: ExportPolicy::default(),
            a_view_of_b: Some(RouteSource::Customer),
            // The misconfiguration: h's export filter treats its
            // provider t1 as a customer, so provider-learned routes
            // leak through.
            b_view_of_a: Some(RouteSource::Customer),
            delay: None,
        });
    }
    TopologyTemplate::Explicit { routers, sessions }
}

/// One beacon phase: the origin announces or withdraws the prefix at
/// the phase start. Every phase runs to quiescence, so captures stay
/// within their phase and close to its start — the eval harness relies
/// on that when it maps phases onto detection windows.
fn beacon_phase(name: &str, announce: bool) -> Phase {
    let ids = fault_ids();
    let action = if announce {
        ScenarioAction::Announce { router: ids.z, prefix: fault_prefix() }
    } else {
        ScenarioAction::Withdraw { router: ids.z, prefix: fault_prefix() }
    };
    Phase::new(name, vec![ScenarioEvent::immediately(action)])
}

/// The clean baseline every scenario starts with: announce, withdraw,
/// re-announce — two announcement-bearing windows (the watch service's
/// default path-learning budget) plus a withdrawal window.
fn baseline_phases() -> Vec<Phase> {
    vec![
        beacon_phase("baseline-announce", true),
        beacon_phase("baseline-withdraw", false),
        beacon_phase("baseline-reannounce", true),
    ]
}

fn spec(name: &str, with_leak_session: bool, phases: Vec<Phase>) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_owned(),
        sim: SimConfig { delay_spread: SimDuration::ZERO, ..Default::default() },
        topology: fault_topology(with_leak_session),
        monitors: Vec::new(),
        watch: Vec::new(),
        phases,
        expectations: Vec::new(),
    }
}

fn scenario(kind: FaultKind, name: &str, fault: Phase, tail: Vec<Phase>) -> FaultScenario {
    let ids = fault_ids();
    let mut phases = baseline_phases();
    let fault_phase = phases.len();
    phases.push(fault);
    phases.extend(tail);
    FaultScenario {
        kind,
        spec: spec(name, false, phases),
        prefix: fault_prefix(),
        fault_phase,
        collectors: vec![ids.c1, ids.c2],
    }
}

/// The route-leak scenario needs its own shape: the misconfigured
/// `t1`–`h` session is torn down *before* the baseline (a setup phase)
/// and comes up as the fault, so the leaked path cannot be learned
/// from baseline path hunting.
fn leak_scenario() -> FaultScenario {
    let ids = fault_ids();
    let mut phases = vec![Phase::new(
        "setup-leak-session-down",
        vec![ScenarioEvent::immediately(ScenarioAction::LinkDown { a: ids.t1, b: ids.h })],
    )];
    phases.extend(baseline_phases());
    let fault_phase = phases.len();
    phases.push(Phase::new(
        "leak-session-up",
        vec![ScenarioEvent::after(
            SimDuration::from_secs(1),
            ScenarioAction::LinkUp { a: ids.t1, b: ids.h },
        )],
    ));
    FaultScenario {
        kind: FaultKind::RouteLeak,
        spec: spec("fault/route-leak", true, phases),
        prefix: fault_prefix(),
        fault_phase,
        collectors: vec![ids.c1, ids.c2],
    }
}

/// `t1`'s action community "do not announce to peer AS65030": a
/// customer attaching `65020:3030` asks `t1` to withhold the route from
/// its `t2` peering — the provider-side do-not-announce knob of
/// real-world community menus (see ROADMAP 3(c)).
pub fn do_not_announce_t2() -> Community {
    Community::from_parts(65_020, 3_030)
}

/// The traffic-engineering scenario seeding ROADMAP 3(c): the beacon
/// origin steers itself away from a named peer with an action community,
/// and the spec's expectations price the knob in routing messages.
///
/// Same topology as the fault library, with one addition: `t1` honors
/// [`do_not_announce_t2`] on its export toward `t2`
/// ([`ExportPolicy::deny_communities`]). The timeline flips the knob on
/// and off via egress rewrites at the origin:
///
/// 1. **baseline-announce** — `z` announces plain; the route reaches
///    both vantages and `t1` advertises it across the peering,
/// 2. **steer-away** — `z` re-exports toward `t1` with the action
///    community attached: `t1` re-advertises the tagged route to its
///    collector and sends **exactly one withdrawal** to the named peer
///    — the control vantage `c2` hears nothing (`t2` still prefers its
///    direct customer path),
/// 3. **release** — `z` drops the community: **exactly one
///    announcement** restores the peering session.
///
/// That symmetric one-message-each-way cost *is* the measurement: the
/// paper asks what communities cost in routing messages, and this is the
/// floor for an action community doing its job.
pub fn te_do_not_announce() -> ScenarioSpec {
    let ids = fault_ids();
    let mut topology = fault_topology(false);
    if let TopologyTemplate::Explicit { sessions, .. } = &mut topology {
        for s in sessions {
            if s.a == ids.t1 && s.b == ids.t2 {
                s.a_export.deny_communities.push(do_not_announce_t2());
            }
        }
    }
    let steer =
        ExportPolicy { add_communities: vec![do_not_announce_t2()], ..ExportPolicy::default() };
    ScenarioSpec {
        name: "te/do-not-announce".to_owned(),
        sim: SimConfig { delay_spread: SimDuration::ZERO, ..Default::default() },
        topology,
        monitors: vec![(ids.t1, ids.t2)],
        watch: Vec::new(),
        phases: vec![
            beacon_phase("baseline-announce", true),
            Phase::new(
                "steer-away",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(1),
                    ScenarioAction::RewriteExport { router: ids.z, peer: ids.t1, policy: steer },
                )],
            ),
            Phase::new(
                "release",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(1),
                    ScenarioAction::RewriteExport {
                        router: ids.z,
                        peer: ids.t1,
                        policy: ExportPolicy::default(),
                    },
                )],
            ),
        ],
        expectations: vec![
            // Baseline: the prefix is advertised across the peering.
            Expectation::MonitorTraffic {
                phase: 0,
                a: ids.t1,
                b: ids.t2,
                to: Some(ids.t2),
                bound: CountBound::AtLeast(1),
            },
            // Steering costs exactly one message toward the named peer…
            Expectation::MonitorTraffic {
                phase: 1,
                a: ids.t1,
                b: ids.t2,
                to: Some(ids.t2),
                bound: CountBound::Exactly(1),
            },
            // …the tagged re-announcement still reaches t1's vantage…
            Expectation::CollectorTraffic {
                phase: 1,
                collector: ids.c1,
                bound: CountBound::AtLeast(1),
            },
            // …and the control vantage hears no collateral churn.
            Expectation::CollectorTraffic {
                phase: 1,
                collector: ids.c2,
                bound: CountBound::Exactly(0),
            },
            // Releasing the knob costs exactly one message too.
            Expectation::MonitorTraffic {
                phase: 2,
                a: ids.t1,
                b: ids.t2,
                to: Some(ids.t2),
                bound: CountBound::Exactly(1),
            },
        ],
    }
}

/// The four labeled scenarios, one per [`FaultKind`], in kind order.
pub fn fault_library() -> Vec<FaultScenario> {
    let ids = fault_ids();
    vec![
        scenario(
            FaultKind::PrefixHijack,
            "fault/prefix-hijack",
            Phase::new(
                "hijack",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(1),
                    ScenarioAction::Announce { router: ids.h, prefix: fault_prefix() },
                )],
            ),
            Vec::new(),
        ),
        leak_scenario(),
        scenario(
            FaultKind::BlackholeInjection,
            "fault/blackhole-injection",
            Phase::new(
                "blackhole",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(1),
                    ScenarioAction::RewriteExport {
                        router: ids.z,
                        peer: ids.t1,
                        policy: ExportPolicy {
                            add_communities: vec![well_known::BLACKHOLE],
                            ..Default::default()
                        },
                    },
                )],
            ),
            Vec::new(),
        ),
        scenario(
            FaultKind::CollectorOutage,
            "fault/collector-outage",
            Phase::new(
                "collector-link-down",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(1),
                    ScenarioAction::LinkDown { a: ids.t2, b: ids.c2 },
                )],
            ),
            // The beacon keeps cycling: c1 stays active while c2 is
            // silent for two more windows — the outage run the watch
            // service scores.
            vec![beacon_phase("beacon-withdraw", false), beacon_phase("beacon-announce", true)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run;
    use kcc_bgp_types::MessageKind;

    /// Captures at a collector in one phase, as analysis updates.
    fn at(
        outcome: &crate::scenario::ScenarioOutcome,
        phase: usize,
        collector: RouterId,
    ) -> Vec<kcc_bgp_types::RouteUpdate> {
        outcome.collected_in_phase(phase, collector).iter().map(|c| c.to_route_update()).collect()
    }

    fn origin_of(u: &kcc_bgp_types::RouteUpdate) -> Option<Asn> {
        match &u.kind {
            MessageKind::Announcement(attrs) => attrs.as_path.origin(),
            _ => None,
        }
    }

    #[test]
    fn library_covers_every_kind_once() {
        let lib = fault_library();
        let mut kinds: Vec<FaultKind> = lib.iter().map(|s| s.kind).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 4);
        for s in &lib {
            assert!(s.fault_phase >= 1, "{}: no baseline before the fault", s.spec.name);
            assert!(s.fault_phase < s.spec.phases.len());
            assert_eq!(s.collectors.len(), 2);
        }
    }

    #[test]
    fn baseline_reaches_both_vantages_with_tags() {
        let lib = fault_library();
        let outcome = run(&lib[0].spec);
        let ids = fault_ids();
        for (collector, tag) in [(ids.c1, t1_tag()), (ids.c2, t2_tag())] {
            let msgs = at(&outcome, 0, collector);
            assert!(!msgs.is_empty(), "baseline silent at {collector}");
            let MessageKind::Announcement(attrs) = &msgs[0].kind else {
                panic!("baseline must start with an announcement");
            };
            assert_eq!(attrs.as_path.origin(), Some(ids.z.asn));
            assert!(attrs.communities.contains(&tag), "ingress tag missing at {collector}");
        }
    }

    #[test]
    fn hijacked_origin_reaches_c2_only() {
        let lib = fault_library();
        let s = &lib[0];
        assert_eq!(s.kind, FaultKind::PrefixHijack);
        let outcome = run(&s.spec);
        let ids = fault_ids();
        let at_c2 = at(&outcome, s.fault_phase, ids.c2);
        assert!(
            at_c2.iter().any(|u| origin_of(u) == Some(ids.h.asn)),
            "hijacker origin must reach c2: {at_c2:?}"
        );
        assert!(
            at(&outcome, s.fault_phase, ids.c1).is_empty(),
            "control vantage c1 must stay clean"
        );
    }

    #[test]
    fn leak_shows_new_transit_with_unchanged_origin_at_c1() {
        let lib = fault_library();
        let s = &lib[1];
        assert_eq!(s.kind, FaultKind::RouteLeak);
        let outcome = run(&s.spec);
        let ids = fault_ids();
        let leaked: Vec<_> = at(&outcome, s.fault_phase, ids.c1)
            .into_iter()
            .filter_map(|u| match u.kind {
                MessageKind::Announcement(attrs) => Some(attrs),
                _ => None,
            })
            .collect();
        assert!(!leaked.is_empty(), "c1 must see the leaked announcement");
        let attrs = leaked.last().unwrap();
        assert_eq!(attrs.as_path.origin(), Some(ids.z.asn), "origin unchanged");
        assert!(attrs.as_path.contains(ids.h.asn), "path must now transit the leaker: {attrs:?}");
        assert!(
            at(&outcome, s.fault_phase, ids.c2).is_empty(),
            "loop prevention keeps the leak away from c2"
        );
        // The leaker must never appear on a baseline path at any vantage
        // (including the hunting transients of the withdraw phase) —
        // otherwise the detector would learn it before the fault.
        for phase in 0..s.fault_phase {
            for collector in [ids.c1, ids.c2] {
                for u in at(&outcome, phase, collector) {
                    if let MessageKind::Announcement(attrs) = &u.kind {
                        assert!(
                            !attrs.as_path.contains(ids.h.asn),
                            "leaker on a baseline path in phase {phase}: {attrs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blackhole_community_reaches_c1() {
        let lib = fault_library();
        let s = &lib[2];
        assert_eq!(s.kind, FaultKind::BlackholeInjection);
        let outcome = run(&s.spec);
        let ids = fault_ids();
        let msgs = at(&outcome, s.fault_phase, ids.c1);
        assert!(
            msgs.iter().any(|u| match &u.kind {
                MessageKind::Announcement(attrs) =>
                    attrs.communities.contains(&well_known::BLACKHOLE),
                _ => false,
            }),
            "BLACKHOLE must reach c1: {msgs:?}"
        );
    }

    #[test]
    fn te_steering_costs_one_message_each_way() {
        let spec = te_do_not_announce();
        let outcome = run(&spec);
        let failures = outcome.check(&spec.expectations);
        assert!(failures.is_empty(), "message-cost expectations hold: {failures:?}");
        let ids = fault_ids();

        // The steer phase's one message toward the named peer is the
        // withdrawal doing the steering; the release phase's one message
        // is the announcement undoing it.
        let toward_t2 = |phase: usize| -> Vec<kcc_bgp_types::RouteUpdate> {
            outcome
                .monitored_in_phase(phase, ids.t1, ids.t2)
                .iter()
                .filter(|c| c.to == ids.t2)
                .map(|c| c.to_route_update())
                .collect()
        };
        assert!(matches!(toward_t2(1).as_slice(), [u] if u.kind == MessageKind::Withdrawal));
        let released = toward_t2(2);
        let [u] = released.as_slice() else {
            panic!("release phase must cost exactly one message: {released:?}");
        };
        let MessageKind::Announcement(attrs) = &u.kind else {
            panic!("release message must be an announcement: {u:?}");
        };
        assert!(
            !attrs.communities.contains(&do_not_announce_t2()),
            "the action community must not leak to the peer it steers away from"
        );

        // The tagged route reaches c1 during the steer phase, action
        // community intact — informational for t1's vantage, actionable
        // only on the t1–t2 export.
        assert!(at(&outcome, 1, ids.c1).iter().any(|u| match &u.kind {
            MessageKind::Announcement(attrs) => attrs.communities.contains(&do_not_announce_t2()),
            _ => false,
        }));

        // Final state (knob released): the per-session Adj-RIB-Out shows
        // the prefix re-advertised on the peering.
        let sid = outcome.net.find_session(ids.t1, ids.t2).expect("monitored session exists");
        let advertised = outcome.net.router(ids.t1).expect("t1 exists").advertised_on(sid);
        assert!(advertised.iter().any(|(p, _)| *p == fault_prefix()));
    }

    #[test]
    fn outage_silences_c2_while_c1_stays_active() {
        let lib = fault_library();
        let s = &lib[3];
        assert_eq!(s.kind, FaultKind::CollectorOutage);
        let outcome = run(&s.spec);
        let ids = fault_ids();
        for phase in s.fault_phase + 1..s.spec.phases.len() {
            assert!(
                !at(&outcome, phase, ids.c1).is_empty(),
                "c1 must stay active in phase {phase}"
            );
            assert!(at(&outcome, phase, ids.c2).is_empty(), "c2 must be silent in phase {phase}");
        }
    }
}
