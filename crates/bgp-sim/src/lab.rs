//! The paper's Figure 1 laboratory topology and experiments Exp1–Exp4.
//!
//! Topology (§3): four ASes. `C1` mimics a route collector peering with
//! `X1`. AS `Y` has three routers in an iBGP full mesh; `Y2` and `Y3` both
//! peer with AS `Z`, whose router `Z1` originates prefix `p`. `Y1`'s IGP
//! prefers the exit via `Y2`; disabling the `Y1–Y2` session forces an
//! internal next-hop change to `Y3` and triggers the update behaviors the
//! experiments measure:
//!
//! * **Exp1** (no communities): the internal change leaks a duplicate
//!   update from `Y1` to `X1` on non-suppressing vendors; nothing reaches
//!   the collector.
//! * **Exp2** (geo-style ingress tags `Y:300`/`Y:400`): the community
//!   change alone propagates through `X1` to the collector — an `nc`
//!   update.
//! * **Exp3** (`X1` cleans communities on *egress*): the collector still
//!   receives a message — an `nn` duplicate — unless the vendor is Junos.
//! * **Exp4** (`X1` cleans on *ingress*): the update stops at `X1`; the
//!   collector stays silent. Ingress and egress cleaning are
//!   distinguishable from message traffic.
//!
//! Each experiment is expressed as a declarative [`ScenarioSpec`] (see
//! [`LabExperiment::spec`]) and interpreted by the shared
//! [`crate::scenario`] engine: the Figure 1 wiring is an
//! [`TopologyTemplate::Explicit`] router/session list, the
//! converge-then-perturb protocol is a two-phase timeline, and the
//! paper's published outcomes are [`Expectation`]s carried by the spec
//! itself.

use std::net::IpAddr;

use kcc_bgp_types::{Asn, Community, Prefix};
use kcc_topology::{IgpMap, RouteSource, RouterId};

use crate::capture::CapturedUpdate;
use crate::network::{Network, SimConfig};
use crate::policy::{ExportPolicy, ImportPolicy};
use crate::scenario::{
    self, CountBound, Expectation, Phase, RouterDecl, ScenarioAction, ScenarioEvent, ScenarioSpec,
    SessionDecl, TopologyTemplate,
};
use crate::session::SessionId;
use crate::time::SimDuration;
use crate::vendor::VendorProfile;

/// AS numbers of the lab topology.
pub mod asns {
    use kcc_bgp_types::Asn;

    /// The collector AS `C`.
    pub const C: Asn = Asn(65_000);
    /// AS `X`.
    pub const X: Asn = Asn(65_001);
    /// AS `Y` (three routers).
    pub const Y: Asn = Asn(65_002);
    /// AS `Z` (originates `p`).
    pub const Z: Asn = Asn(65_003);
}

/// The prefix `p` originated by `Z1` (TEST-NET-3).
pub fn lab_prefix() -> Prefix {
    "203.0.113.0/24".parse().expect("literal prefix")
}

/// The four experiments of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabExperiment {
    /// No communities anywhere.
    Exp1,
    /// `Y2`/`Y3` tag `Y:300`/`Y:400` on ingress from `Z`.
    Exp2,
    /// Exp2 plus `X1` cleans communities on egress toward `C1`.
    Exp3,
    /// Exp3 plus `X1` cleans communities on ingress from `Y1`.
    Exp4,
}

impl LabExperiment {
    /// All four, in order.
    pub const ALL: [LabExperiment; 4] =
        [LabExperiment::Exp1, LabExperiment::Exp2, LabExperiment::Exp3, LabExperiment::Exp4];

    /// Paper-style name.
    pub fn name(&self) -> &'static str {
        match self {
            LabExperiment::Exp1 => "Exp1",
            LabExperiment::Exp2 => "Exp2",
            LabExperiment::Exp3 => "Exp3",
            LabExperiment::Exp4 => "Exp4",
        }
    }

    /// The experiment as a declarative scenario with every router running
    /// `vendor`, including the paper's published outcome as expectations.
    pub fn spec(self, vendor: VendorProfile) -> ScenarioSpec {
        let p = lab_prefix();
        let c1 = rid(asns::C, 0);
        let x1 = rid(asns::X, 0);
        let y1 = rid(asns::Y, 0);
        let y2 = rid(asns::Y, 1);
        let y3 = rid(asns::Y, 2);
        let z1 = rid(asns::Z, 0);

        // Y's IGP prefers Y1→Y2 (cost 5) over Y1→Y3 (cost 10).
        let y_igp = IgpMap::matrix(3, vec![0, 5, 10, 5, 0, 5, 10, 5, 0]);
        let routers = vec![
            RouterDecl { is_collector: true, ..RouterDecl::new(c1, ip(198, 51, 100, 1)) },
            RouterDecl::new(x1, ip(10, 1, 0, 1)),
            RouterDecl { igp: y_igp.clone(), ..RouterDecl::new(y1, ip(10, 2, 0, 1)) },
            RouterDecl { igp: y_igp.clone(), ..RouterDecl::new(y2, ip(10, 2, 0, 2)) },
            RouterDecl { igp: y_igp, ..RouterDecl::new(y3, ip(10, 2, 0, 3)) },
            RouterDecl::new(z1, ip(10, 3, 0, 1)),
        ];

        let plain = |kind: RouteSource| ImportPolicy::for_neighbor(kind);
        // X1–C1: X exports everything to the collector, cleaning on
        // egress in Exp3/Exp4.
        let x1_export_to_c = ExportPolicy {
            clean_communities: matches!(self, LabExperiment::Exp3 | LabExperiment::Exp4),
            ..Default::default()
        };
        // X1–Y1: Y is X's customer; Exp4 adds ingress cleaning.
        let x1_import_from_y = ImportPolicy {
            clean_communities: self == LabExperiment::Exp4,
            ..plain(RouteSource::Customer)
        };
        // Y2–Z1 and Y3–Z1: Z is Y's customer. Exp2+ adds ingress tags.
        let with_tags = !matches!(self, LabExperiment::Exp1);
        let y_asn16 = asns::Y.value() as u16;
        let ingress_tag = |value: u16| ImportPolicy {
            add_communities: if with_tags {
                vec![Community::from_parts(y_asn16, value)]
            } else {
                Vec::new()
            },
            ..plain(RouteSource::Customer)
        };
        let sessions = vec![
            SessionDecl::ibgp(y1, y2),
            SessionDecl::ibgp(y1, y3),
            SessionDecl::ibgp(y2, y3),
            SessionDecl {
                a_export: x1_export_to_c,
                ..SessionDecl::ebgp_customer_with_imports(
                    x1,
                    c1,
                    ImportPolicy::default(),
                    ImportPolicy::default(),
                )
            },
            SessionDecl::ebgp_customer_with_imports(
                x1,
                y1,
                x1_import_from_y,
                plain(RouteSource::Provider),
            ),
            SessionDecl::ebgp_customer_with_imports(
                y2,
                z1,
                ingress_tag(300),
                plain(RouteSource::Provider),
            ),
            SessionDecl::ebgp_customer_with_imports(
                y3,
                z1,
                ingress_tag(400),
                plain(RouteSource::Provider),
            ),
        ];

        ScenarioSpec {
            name: format!("{}/{}", self.name(), vendor.name),
            sim: SimConfig {
                // The lab is fully deterministic: fixed small delays, no
                // faults.
                base_link_delay: SimDuration::from_millis(2),
                delay_spread: SimDuration::ZERO,
                default_vendor: vendor,
                ..Default::default()
            },
            topology: TopologyTemplate::Explicit { routers, sessions },
            monitors: vec![(x1, y1)],
            watch: vec![(x1, p)],
            phases: vec![
                Phase::new(
                    "converge",
                    vec![ScenarioEvent::immediately(ScenarioAction::Announce {
                        router: z1,
                        prefix: p,
                    })],
                ),
                Phase::new(
                    "perturb",
                    vec![ScenarioEvent::after(
                        SimDuration::from_secs(60),
                        ScenarioAction::LinkDown { a: y1, b: y2 },
                    )],
                ),
            ],
            expectations: self.expectations(vendor),
        }
    }

    /// The paper's §3 findings for this experiment under `vendor`,
    /// phrased over the perturbation phase (index 1).
    fn expectations(self, vendor: VendorProfile) -> Vec<Expectation> {
        let p = lab_prefix();
        let c1 = rid(asns::C, 0);
        let x1 = rid(asns::X, 0);
        let y1 = rid(asns::Y, 0);
        let suppresses = vendor.suppresses_duplicates;
        // Messages crossing Y1→X1: suppressed only in Exp1 on Junos (the
        // community change of Exp2+ is a genuine update everywhere).
        let on_wire = if self == LabExperiment::Exp1 && suppresses { 0 } else { 1 };
        // Messages reaching the collector.
        let at_collector = match self {
            LabExperiment::Exp1 | LabExperiment::Exp4 => 0,
            LabExperiment::Exp2 => 1,
            LabExperiment::Exp3 => usize::from(!suppresses),
        };
        // X1's post-policy RIB changes whenever the community change
        // survives X1's ingress policy.
        let rib_changed = matches!(self, LabExperiment::Exp2 | LabExperiment::Exp3);
        let mut expectations = vec![
            Expectation::MonitorTraffic {
                phase: 1,
                a: x1,
                b: y1,
                to: Some(x1),
                bound: CountBound::Exactly(on_wire),
            },
            Expectation::CollectorTraffic {
                phase: 1,
                collector: c1,
                bound: CountBound::Exactly(at_collector),
            },
            Expectation::WatchedRouteChanged {
                phase: 1,
                router: x1,
                prefix: p,
                changed: rib_changed,
            },
        ];
        if suppresses && matches!(self, LabExperiment::Exp1 | LabExperiment::Exp3) {
            expectations.push(Expectation::DuplicatesSuppressed {
                phase: 1,
                bound: CountBound::AtLeast(1),
            });
        }
        if !suppresses && self == LabExperiment::Exp1 {
            expectations
                .push(Expectation::DuplicatesSent { phase: 1, bound: CountBound::AtLeast(1) });
        }
        expectations
    }
}

/// Router handles of the built lab network.
#[derive(Debug, Clone, Copy)]
pub struct LabIds {
    /// Collector router.
    pub c1: RouterId,
    /// AS X border router.
    pub x1: RouterId,
    /// AS Y border router toward X.
    pub y1: RouterId,
    /// AS Y border router toward Z (preferred exit).
    pub y2: RouterId,
    /// AS Y border router toward Z (backup exit).
    pub y3: RouterId,
    /// Origin router in AS Z.
    pub z1: RouterId,
    /// The monitored eBGP session X1–Y1.
    pub x1_y1: SessionId,
    /// The collector session X1–C1.
    pub x1_c1: SessionId,
    /// The iBGP session Y1–Y2 (the one the experiments disable).
    pub y1_y2: SessionId,
}

/// A built lab network plus its handles.
#[derive(Debug)]
pub struct LabNetwork {
    /// The network.
    pub net: Network,
    /// Router/session handles.
    pub ids: LabIds,
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// Which experiment.
    pub experiment: LabExperiment,
    /// The router software under test (all routers run it, as in the
    /// paper's lab).
    pub vendor: VendorProfile,
    /// Messages from `Y1` to `X1` after the perturbation.
    pub y1_to_x1: Vec<CapturedUpdate>,
    /// Messages arriving at the collector after the perturbation.
    pub at_collector: Vec<CapturedUpdate>,
    /// Whether `X1`'s post-policy RIB entry for `p` changed.
    pub x1_rib_changed: bool,
    /// Duplicates suppressed network-wide (Junos behavior).
    pub duplicates_suppressed: u64,
    /// Duplicates transmitted network-wide (non-suppressing behavior).
    pub duplicates_sent: u64,
}

fn rid(asn: Asn, index: u16) -> RouterId {
    RouterId { asn, index }
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    IpAddr::V4(std::net::Ipv4Addr::new(a, b, c, d))
}

/// Builds the Figure 1 network with every router running `vendor` and the
/// community configuration of `experiment`, by compiling the experiment's
/// [`ScenarioSpec`].
pub fn build_lab(experiment: LabExperiment, vendor: VendorProfile) -> LabNetwork {
    let spec = experiment.spec(vendor);
    let built = scenario::build(&spec);
    let net = built.net;
    let c1 = rid(asns::C, 0);
    let x1 = rid(asns::X, 0);
    let y1 = rid(asns::Y, 0);
    let y2 = rid(asns::Y, 1);
    let y3 = rid(asns::Y, 2);
    let z1 = rid(asns::Z, 0);
    let ids = LabIds {
        c1,
        x1,
        y1,
        y2,
        y3,
        z1,
        x1_y1: net.find_session(x1, y1).expect("lab session X1-Y1"),
        x1_c1: net.find_session(x1, c1).expect("lab session X1-C1"),
        y1_y2: net.find_session(y1, y2).expect("lab session Y1-Y2"),
    };
    LabNetwork { net, ids }
}

/// Runs one experiment with one vendor and reports what was observed, by
/// interpreting the experiment's [`ScenarioSpec`] with the scenario
/// engine.
pub fn run_experiment(experiment: LabExperiment, vendor: VendorProfile) -> LabReport {
    let spec = experiment.spec(vendor);
    let outcome = scenario::run(&spec);
    let p = lab_prefix();
    let c1 = rid(asns::C, 0);
    let x1 = rid(asns::X, 0);
    let y1 = rid(asns::Y, 0);

    let y1_to_x1: Vec<CapturedUpdate> =
        outcome.monitored_in_phase(1, x1, y1).iter().filter(|e| e.to == x1).cloned().collect();
    let at_collector = outcome.collected_in_phase(1, c1).to_vec();
    let x1_rib_changed = outcome.watched_attrs(0, x1, p) != outcome.watched_attrs(1, x1, p);
    let perturb = &outcome.phases[1].counters;

    LabReport {
        experiment,
        vendor,
        y1_to_x1,
        at_collector,
        x1_rib_changed,
        duplicates_suppressed: perturb.duplicates_suppressed,
        duplicates_sent: perturb.duplicates_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::UpdateBody;
    use crate::time::SimTime;

    fn community(v: u16) -> Community {
        Community::from_parts(asns::Y.value() as u16, v)
    }

    #[test]
    fn converged_lab_is_quiet_and_prefers_y2() {
        let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp2, VendorProfile::BIRD_2);
        net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
        net.run_until_quiet();
        // Y1's best exits via Y2 (IGP cost 5 < 10).
        let y1_best = net.router(ids.y1).unwrap().best_route(&lab_prefix()).unwrap().clone();
        assert_eq!(y1_best.egress, ids.y2);
        assert!(y1_best.attrs.communities.contains(&community(300)));
        // Collector holds the route with Y:300, path X Y Z.
        let c_best = net.router(ids.c1).unwrap().best_route(&lab_prefix()).unwrap().clone();
        assert!(c_best.attrs.communities.contains(&community(300)));
        assert_eq!(c_best.attrs.as_path.to_string(), "65001 65002 65003");
    }

    #[test]
    fn exp1_duplicate_to_x1_but_not_collector() {
        // Cisco IOS: duplicate reaches X1, nothing reaches the collector.
        let r = run_experiment(LabExperiment::Exp1, VendorProfile::CISCO_IOS);
        assert_eq!(r.y1_to_x1.len(), 1, "Y1 must emit one duplicate update");
        assert!(r.y1_to_x1[0].update.is_announcement());
        assert!(r.at_collector.is_empty(), "collector must stay silent");
        assert!(!r.x1_rib_changed);
        assert!(r.duplicates_sent >= 1);
    }

    #[test]
    fn exp1_junos_suppresses_duplicate() {
        let r = run_experiment(LabExperiment::Exp1, VendorProfile::JUNOS);
        assert!(r.y1_to_x1.is_empty(), "Junos must suppress the duplicate");
        assert!(r.at_collector.is_empty());
        assert!(r.duplicates_suppressed >= 1);
    }

    #[test]
    fn exp2_community_change_propagates_to_collector() {
        for vendor in VendorProfile::ALL {
            let r = run_experiment(LabExperiment::Exp2, vendor);
            assert_eq!(r.y1_to_x1.len(), 1, "{vendor}: Y1 must send the community change");
            let attrs = match &r.y1_to_x1[0].update.body {
                UpdateBody::Announce { attrs, .. } => attrs.clone(),
                UpdateBody::Withdraw => panic!("expected announcement"),
            };
            assert!(attrs.communities.contains(&community(400)), "{vendor}: Y:400 expected");
            assert_eq!(r.at_collector.len(), 1, "{vendor}: collector must see the nc update");
            let cattrs = r.at_collector[0].update.attrs().unwrap();
            assert!(cattrs.communities.contains(&community(400)));
            // Path unchanged: community is the sole trigger.
            assert_eq!(cattrs.as_path.to_string(), "65001 65002 65003");
            assert!(r.x1_rib_changed, "{vendor}: X1's RIB holds the new community");
        }
    }

    #[test]
    fn exp3_egress_cleaning_still_leaks_nn_duplicate() {
        let r = run_experiment(LabExperiment::Exp3, VendorProfile::CISCO_IOS);
        assert_eq!(r.y1_to_x1.len(), 1);
        assert_eq!(r.at_collector.len(), 1, "egress cleaning leaks a duplicate");
        let attrs = r.at_collector[0].update.attrs().unwrap();
        assert!(attrs.communities.is_empty(), "cleaned update carries no communities");
        assert_eq!(attrs.as_path.to_string(), "65001 65002 65003");
    }

    #[test]
    fn exp3_junos_suppresses_the_leak() {
        let r = run_experiment(LabExperiment::Exp3, VendorProfile::JUNOS);
        assert_eq!(r.y1_to_x1.len(), 1, "the community change itself is genuine");
        assert!(r.at_collector.is_empty(), "Junos suppresses the cleaned duplicate");
        assert!(r.duplicates_suppressed >= 1);
    }

    #[test]
    fn exp4_ingress_cleaning_stops_everything() {
        for vendor in VendorProfile::ALL {
            let r = run_experiment(LabExperiment::Exp4, vendor);
            assert_eq!(
                r.y1_to_x1.len(),
                1,
                "{vendor}: the inter-AS message still crosses the Y1–X1 link"
            );
            assert!(r.at_collector.is_empty(), "{vendor}: collector must stay silent");
            assert!(!r.x1_rib_changed, "{vendor}: X1's post-policy RIB is untouched");
        }
    }

    #[test]
    fn all_experiments_all_vendors_run() {
        for exp in LabExperiment::ALL {
            for vendor in VendorProfile::ALL {
                let r = run_experiment(exp, vendor);
                // The Y1→X1 link sees at most one message per run.
                assert!(r.y1_to_x1.len() <= 1, "{exp:?}/{vendor}: unexpected extra messages");
            }
        }
    }

    #[test]
    fn spec_expectations_hold_for_every_cell() {
        // The paper's §3 table, phrased as declarative expectations and
        // checked by the engine — every experiment × vendor cell.
        for exp in LabExperiment::ALL {
            for vendor in VendorProfile::ALL {
                let spec = exp.spec(vendor);
                let outcome = scenario::run(&spec);
                let violations = outcome.check(&spec.expectations);
                assert!(violations.is_empty(), "{violations:#?}");
            }
        }
    }
}
