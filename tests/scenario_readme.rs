//! Runs the README's "Writing a scenario" spec through the umbrella
//! crate's re-exports. The README block itself runs as a doctest and
//! names the member crates (`kcc_bgp_sim`, `kcc_topology`, …); this
//! copy reaches the same items as `keep_communities_clean::sim`,
//! `::topology` and `::types`, so both import routes stay valid.

use keep_communities_clean::sim::scenario::{
    self, CollectorDecl, CountBound, Expectation, Phase, ScenarioAction, ScenarioEvent,
    ScenarioSpec, TopologyTemplate,
};
use keep_communities_clean::sim::{SimConfig, SimDuration};
use keep_communities_clean::topology::{BehaviorMix, RouterId, TopologyConfig};
use keep_communities_clean::types::Asn;

#[test]
fn readme_scenario_example_runs_and_holds() {
    // A 40-AS Internet where half the transits geo-tag and cleaning happens
    // at the paper's default rates; converge a full table, then fail the
    // beacon origin's primary uplink.
    let collector = RouterId { asn: Asn(3333), index: 0 };
    let spec = ScenarioSpec {
        name: "beacon-uplink-failure".into(),
        sim: SimConfig::default(),
        topology: TopologyTemplate::Generated {
            config: TopologyConfig::sized(40, 42).with_behavior_mix(BehaviorMix::default()),
            collector: Some(CollectorDecl {
                asn: Asn(3333),
                peers: vec![RouterId { asn: Asn(20_000), index: 0 }],
            }),
        },
        monitors: vec![],
        watch: vec![],
        phases: vec![
            Phase::new(
                "converge",
                vec![ScenarioEvent::immediately(ScenarioAction::AnnounceAllOrigins)],
            ),
            Phase::new(
                "fail",
                vec![ScenarioEvent::after(
                    SimDuration::from_secs(60),
                    ScenarioAction::InterAsLinkDown { a: Asn(12_654), b: Asn(20_000) },
                )],
            ),
        ],
        expectations: vec![Expectation::CollectorTraffic {
            phase: 1,
            collector,
            bound: CountBound::AtLeast(1),
        }],
    };
    let outcome = scenario::run(&spec);
    assert!(outcome.check(&spec.expectations).is_empty());
}
