//! The scenario grid behind `figures sweep`: a [`SweepConfig`] expands
//! a **vendor profile × cleaning placement × MRAI × topology size**
//! matrix into [`SweepCell`]s, each cell compiles (via
//! [`SweepCell::spec`]) into an independent [`ScenarioSpec`] over a
//! [`kcc_topology::gen`]-generated Internet, and [`run_cell`] runs it on
//! its own [`kcc_bgp_sim::Network`].
//!
//! Every cell runs the same protocol the paper's beacon analysis uses:
//! converge a full table, then flap the dual-homed beacon origin's
//! primary provider link down → up → down, and classify the stream a
//! route collector records into the paper's `pc/pn/nc/nn/xc/xn`
//! announcement types.

use kcc_bgp_sim::scenario::{
    self, CollectorDecl, Phase, ScenarioAction, ScenarioEvent, ScenarioSpec, TopologyTemplate,
};
use kcc_bgp_sim::{Capture, SimConfig, SimDuration, VendorProfile};
use kcc_bgp_types::Asn;
use kcc_core::{classify_archive, TypeCounts};
use kcc_topology::gen::BEACON_ORIGIN_ASN;
use kcc_topology::{BehaviorMix, RouterId, TopologyConfig};
use keep_communities_clean::adapter::capture_to_archive;

/// The collector AS attached to every sweep cell (RIS-style).
pub const COLLECTOR_ASN: Asn = Asn(3333);

/// The beacon origin's primary provider, whose link to the origin flaps.
const PRIMARY_TRANSIT: Asn = Asn(20_000);

/// Where community cleaning happens in a cell's topology — the paper's
/// §7 deployment question, as a sweep dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleaningPlacement {
    /// Nobody cleans: communities propagate blindly.
    Blind,
    /// Half of the ASes clean on ingress (the paper's recommendation —
    /// Exp4: nothing leaks).
    Ingress,
    /// Half of the ASes clean on egress (Exp3: `nn` duplicates leak on
    /// non-suppressing vendors).
    Egress,
}

impl CleaningPlacement {
    /// All placements, in table order.
    pub const ALL: [CleaningPlacement; 3] =
        [CleaningPlacement::Blind, CleaningPlacement::Ingress, CleaningPlacement::Egress];

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            CleaningPlacement::Blind => "blind",
            CleaningPlacement::Ingress => "ingress",
            CleaningPlacement::Egress => "egress",
        }
    }

    /// The behavior mix realizing this placement: geo-tagging stays at
    /// the default rate so community churn exists to clean, and the
    /// chosen direction cleans at 50 % deployment.
    pub fn behavior_mix(self) -> BehaviorMix {
        let (egress, ingress) = match self {
            CleaningPlacement::Blind => (0.0, 0.0),
            CleaningPlacement::Ingress => (0.0, 0.5),
            CleaningPlacement::Egress => (0.5, 0.0),
        };
        BehaviorMix { transit_tags_geo: 0.5, cleans_egress: egress, cleans_ingress: ingress }
    }
}

/// One cell of the sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Vendor profile every router runs (its duplicate behavior is the
    /// §3 vendor split).
    pub vendor: VendorProfile,
    /// Community cleaning placement.
    pub cleaning: CleaningPlacement,
    /// eBGP MRAI override applied to the vendor profile.
    pub mrai: SimDuration,
    /// Approximate AS count of the generated topology.
    pub n_ases: usize,
}

impl SweepCell {
    /// Table/scenario label, e.g. `Junos/ingress/mrai=30s/80as`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/mrai={}s/{}as",
            self.vendor.name,
            self.cleaning.label(),
            self.mrai.as_micros() / 1_000_000,
            self.n_ases
        )
    }

    /// Compiles the cell into a declarative scenario: the beacon flap
    /// protocol over a sized generated topology that announces every
    /// origin.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let config = TopologyConfig::sized(self.n_ases, seed)
            .with_behavior_mix(self.cleaning.behavior_mix());
        flap_spec(
            self.label(),
            SimConfig {
                seed,
                default_vendor: VendorProfile { mrai_ebgp: self.mrai, ..self.vendor },
                ..Default::default()
            },
            |collector| TopologyTemplate::Generated { config, collector },
            ScenarioAction::AnnounceAllOrigins,
        )
    }
}

/// The beacon flap protocol every cell runs: `announce` converges, then
/// the beacon origin's link to [`PRIMARY_TRANSIT`] goes down → up → down,
/// each 10 s after the network quiets, while [`COLLECTOR_ASN`] records
/// from the first two transits.
fn flap_spec(
    name: String,
    sim: SimConfig,
    topology: impl FnOnce(Option<CollectorDecl>) -> TopologyTemplate,
    announce: ScenarioAction,
) -> ScenarioSpec {
    let flap = |down: bool| {
        let (a, b) = (BEACON_ORIGIN_ASN, PRIMARY_TRANSIT);
        let action = if down {
            ScenarioAction::InterAsLinkDown { a, b }
        } else {
            ScenarioAction::InterAsLinkUp { a, b }
        };
        vec![ScenarioEvent::after(SimDuration::from_secs(10), action)]
    };
    let peers = [PRIMARY_TRANSIT, Asn(20_001)].map(|asn| RouterId { asn, index: 0 });
    ScenarioSpec {
        name,
        sim,
        topology: topology(Some(CollectorDecl { asn: COLLECTOR_ASN, peers: peers.to_vec() })),
        monitors: vec![],
        watch: vec![],
        phases: vec![
            Phase::new("converge", vec![ScenarioEvent::immediately(announce)]),
            Phase::new("flap", flap(true)),
            Phase::new("heal", flap(false)),
            Phase::new("reflap", flap(true)),
        ],
        expectations: vec![],
    }
}

/// The sweep matrix definition.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Vendor dimension.
    pub vendors: Vec<VendorProfile>,
    /// Cleaning placement dimension.
    pub cleanings: Vec<CleaningPlacement>,
    /// MRAI dimension (overrides each vendor's eBGP MRAI).
    pub mrais: Vec<SimDuration>,
    /// Topology size dimension (approximate AS counts).
    pub sizes: Vec<usize>,
    /// Seed shared by every cell (topology + delays + behavior draws).
    pub seed: u64,
}

impl SweepConfig {
    /// The full comparison matrix: 2 vendors × 3 placements × 2 MRAIs ×
    /// 2 sizes = 24 cells. With the MRAI fixed by the cell, a vendor
    /// profile differs only in duplicate suppression, so one suppressing
    /// (Junos) and one non-suppressing (BIRD) vendor span the axis.
    pub fn paper_matrix(seed: u64) -> Self {
        SweepConfig {
            vendors: vec![VendorProfile::JUNOS, VendorProfile::BIRD_2],
            cleanings: CleaningPlacement::ALL.to_vec(),
            mrais: vec![SimDuration::ZERO, SimDuration::from_secs(30)],
            sizes: vec![40, 80],
            seed,
        }
    }

    /// A ≤ 8-cell matrix for smoke runs: 2 vendors × 2 placements ×
    /// 1 MRAI × 1 size = 4 cells.
    pub fn smoke(seed: u64) -> Self {
        SweepConfig {
            vendors: vec![VendorProfile::BIRD_2, VendorProfile::JUNOS],
            cleanings: vec![CleaningPlacement::Blind, CleaningPlacement::Egress],
            mrais: vec![SimDuration::ZERO],
            sizes: vec![24],
            seed,
        }
    }

    /// Expands the dimensions into cells, sizes-major so neighboring
    /// cells differ in the cheapest dimension first.
    pub fn matrix(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &n_ases in &self.sizes {
            for &vendor in &self.vendors {
                for &cleaning in &self.cleanings {
                    for &mrai in &self.mrais {
                        cells.push(SweepCell { vendor, cleaning, mrai, n_ases });
                    }
                }
            }
        }
        cells
    }
}

/// What one cell measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell.
    pub cell: SweepCell,
    /// Announcement-type counts of the collector stream across all
    /// phases (`initial` counts the convergence announcements).
    pub counts: TypeCounts,
    /// Total messages the collector captured.
    pub collector_messages: usize,
    /// Messages the collector captured during the perturbation phases
    /// (everything after convergence) — the signal the sweep measures.
    pub perturbation_messages: usize,
}

/// Runs one cell: compile the spec, run the engine, classify what
/// [`COLLECTOR_ASN`] recorded.
pub fn run_cell(cell: &SweepCell, seed: u64) -> CellResult {
    let outcome = scenario::run(&cell.spec(seed));
    let collector = RouterId { asn: COLLECTOR_ASN, index: 0 };
    let mut capture = Capture::new();
    for phase in 0..outcome.phases.len() {
        for entry in outcome.collected_in_phase(phase, collector) {
            capture.record(entry.clone());
        }
    }
    let converge = outcome.collected_in_phase(0, collector).len();
    let archive = capture_to_archive(&outcome.net, "sweep", &capture, 0);
    CellResult {
        cell: cell.clone(),
        counts: classify_archive(&archive),
        collector_messages: capture.len(),
        perturbation_messages: capture.len() - converge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expansion_covers_all_dimensions() {
        let cfg = SweepConfig::paper_matrix(42);
        let cells = cfg.matrix();
        assert_eq!(
            cells.len(),
            cfg.vendors.len() * cfg.cleanings.len() * cfg.mrais.len() * cfg.sizes.len()
        );
        assert!(cells.len() >= 24, "acceptance: a ≥24-cell matrix");
        // Every combination appears exactly once.
        let mut labels: Vec<String> = cells.iter().map(SweepCell::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
    }

    #[test]
    fn smoke_matrix_is_ci_sized() {
        assert!(SweepConfig::smoke(42).matrix().len() <= 8);
    }

    #[test]
    fn cell_run_is_deterministic() {
        let cell = SweepCell {
            vendor: VendorProfile::BIRD_2,
            cleaning: CleaningPlacement::Blind,
            mrai: SimDuration::ZERO,
            n_ases: 15,
        };
        let a = run_cell(&cell, 7);
        let b = run_cell(&cell, 7);
        assert_eq!(a, b);
        assert!(
            a.perturbation_messages > 0,
            "the flap/heal/reflap phases themselves must reach the collector, \
             not just convergence"
        );
        assert!(a.collector_messages > a.perturbation_messages, "convergence traffic exists too");
    }

    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    fn digest(cells: &[SweepCell], seed: u64) -> u64 {
        cells.iter().fold(0xcbf2_9ce4_8422_2325, |hash, cell| {
            let r = run_cell(cell, seed);
            let text = format!(
                "{} {:?} {} {}\n",
                cell.label(),
                r.counts,
                r.collector_messages,
                r.perturbation_messages
            );
            fnv1a(hash, text.as_bytes())
        })
    }

    /// Every count the grid reports, pinned as literals: the paper
    /// matrix and the smoke matrix. A change to how cells are built, run
    /// or classified must leave them be.
    #[test]
    fn grid_counts_are_pinned() {
        let paper = SweepConfig::paper_matrix(42).matrix();
        assert_eq!(paper.len(), 24);
        assert_eq!(digest(&paper, 42), 0xfe89_d4df_ba3c_5a22);
        assert_eq!(digest(&SweepConfig::smoke(42).matrix(), 42), 0xe063_df42_9843_df81);
    }

    #[test]
    fn junos_produces_fewer_duplicates_than_bird() {
        // The §3 vendor split must survive the full generated-topology
        // pipeline: with blind propagation, the Junos cell's collector
        // stream carries at most as many nn duplicates as BIRD's.
        let base = |vendor| SweepCell {
            vendor,
            cleaning: CleaningPlacement::Blind,
            mrai: SimDuration::ZERO,
            n_ases: 15,
        };
        let bird = run_cell(&base(VendorProfile::BIRD_2), 3);
        let junos = run_cell(&base(VendorProfile::JUNOS), 3);
        assert!(
            junos.counts.nn <= bird.counts.nn,
            "junos nn={} must not exceed bird nn={}",
            junos.counts.nn,
            bird.counts.nn
        );
    }
}
