//! Parallel scenario sweeps: a matrix of declarative scenarios fanned
//! across worker threads.
//!
//! The ROADMAP's north star is running "as many scenarios as you can
//! imagine ... as fast as the hardware allows". This module supplies the
//! mechanism: a [`SweepConfig`] expands a **vendor profile × cleaning
//! placement × MRAI × topology size** matrix into [`SweepCell`]s, each
//! cell compiles (via [`SweepCell::spec`]) into an independent
//! [`ScenarioSpec`] over a [`kcc_topology::gen`]-generated Internet, and
//! [`run_sweep`] executes the cells on `std::thread` workers — one
//! [`kcc_bgp_sim::Network`] per cell, zero shared mutable simulation
//! state, so cells parallelize embarrassingly and deterministically (the
//! thread count never changes any cell's result, only the wall clock).
//!
//! Every cell runs the same protocol the paper's beacon analysis uses:
//! converge a full table, then flap the dual-homed beacon origin's
//! primary provider link down → up → down, and classify the stream a
//! route collector records into the paper's `pc/pn/nc/nn/xc/xn`
//! announcement types. The per-cell [`CellResult`]s aggregate into one
//! comparison table (see the `sweep` binary).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use kcc_bgp_sim::scenario::{
    self, CollectorDecl, Phase, ScenarioAction, ScenarioEvent, ScenarioSpec, TopologyTemplate,
};
use kcc_bgp_sim::{Capture, SimConfig, SimDuration, SimTime, VendorProfile};
use kcc_bgp_types::Asn;
use kcc_core::{classify_archive, TypeCounts};
use kcc_topology::gen::BEACON_ORIGIN_ASN;
use kcc_topology::{BehaviorMix, InternetConfig, RouterId, TopologyConfig};
use keep_communities_clean::adapter::capture_to_archive;

/// The collector AS attached to every sweep cell (RIS-style).
pub const COLLECTOR_ASN: Asn = Asn(3333);

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

    /// Compiles the cell into a declarative scenario: a sized generated
    /// topology with a collector on the first two transits, full-table
    /// convergence, then a down → up → down flap of the beacon origin's
    /// primary provider link.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let config = TopologyConfig::sized(self.n_ases, seed)
            .with_behavior_mix(self.cleaning.behavior_mix());
        let vendor = VendorProfile { mrai_ebgp: self.mrai, ..self.vendor };
        let primary_transit = Asn(20_000);
        let flap = |down: bool| {
            let action = if down {
                ScenarioAction::InterAsLinkDown { a: BEACON_ORIGIN_ASN, b: primary_transit }
            } else {
                ScenarioAction::InterAsLinkUp { a: BEACON_ORIGIN_ASN, b: primary_transit }
            };
            vec![ScenarioEvent::after(SimDuration::from_secs(10), action)]
        };
        ScenarioSpec {
            name: self.label(),
            sim: SimConfig { seed, default_vendor: vendor, ..Default::default() },
            topology: TopologyTemplate::Generated {
                config,
                collector: Some(CollectorDecl {
                    asn: COLLECTOR_ASN,
                    peers: vec![
                        RouterId { asn: Asn(20_000), index: 0 },
                        RouterId { asn: Asn(20_001), index: 0 },
                    ],
                }),
            },
            monitors: vec![],
            watch: vec![],
            phases: vec![
                Phase::new(
                    "converge",
                    vec![ScenarioEvent::immediately(ScenarioAction::AnnounceAllOrigins)],
                ),
                Phase::new("flap", flap(true)),
                Phase::new("heal", flap(false)),
                Phase::new("reflap", flap(true)),
            ],
            expectations: vec![],
        }
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
    /// The full comparison matrix: 3 vendors × 3 placements × 2 MRAIs ×
    /// 2 sizes = 36 cells.
    pub fn paper_matrix(seed: u64) -> Self {
        SweepConfig {
            vendors: vec![VendorProfile::CISCO_IOS, VendorProfile::JUNOS, VendorProfile::BIRD_2],
            cleanings: CleaningPlacement::ALL.to_vec(),
            mrais: vec![SimDuration::ZERO, SimDuration::from_secs(30)],
            sizes: vec![40, 80],
            seed,
        }
    }

    /// A ≤ 8-cell matrix for CI smoke runs: 2 vendors × 2 placements ×
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
    /// Time of the last processed event — the full timeline's length in
    /// simulated time.
    pub converged_at: SimTime,
}

/// Runs one cell: compile the spec, run the engine, classify the
/// collector stream.
pub fn run_cell(cell: &SweepCell, seed: u64) -> CellResult {
    let spec = cell.spec(seed);
    let outcome = scenario::run(&spec);
    let collector = RouterId { asn: COLLECTOR_ASN, index: 0 };
    let mut capture = Capture::new();
    let mut perturbation_messages = 0;
    for (i, phase) in outcome.phases.iter().enumerate() {
        if let Some(entries) = phase.collected.get(&collector) {
            if i > 0 {
                perturbation_messages += entries.len();
            }
            for entry in entries {
                capture.record(entry.clone());
            }
        }
    }
    let archive = capture_to_archive(&outcome.net, "sweep", &capture, 0);
    CellResult {
        cell: cell.clone(),
        counts: classify_archive(&archive),
        collector_messages: capture.len(),
        perturbation_messages,
        converged_at: outcome.phases.last().map(|p| p.quiesced).unwrap_or(SimTime::ZERO),
    }
}

/// An internet-scale measurement cell (see the `bench_sim` binary): a
/// power-law [`generate_internet`](kcc_topology::generate_internet)
/// topology at `n_ases`, run through the beacon flap protocol — converge
/// the beacon prefix across the whole graph, then flap the beacon
/// origin's primary provider link down → up → down while a collector on
/// the first two transits records the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetCell {
    /// Vendor profile every router runs.
    pub vendor: VendorProfile,
    /// eBGP MRAI override applied to the vendor profile.
    pub mrai: SimDuration,
    /// Total AS count of the generated internet.
    pub n_ases: usize,
}

impl InternetCell {
    /// Table/scenario label, e.g. `internet/10000as`.
    pub fn label(&self) -> String {
        format!("internet/{}as", self.n_ases)
    }

    /// Compiles the cell into a declarative scenario over an
    /// internet-scale topology. Only the beacon prefix is announced —
    /// propagation across a 10k+-AS graph is the measured workload;
    /// announcing every stub's prefix would square it.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let config = InternetConfig::sized(self.n_ases, seed);
        let beacon_prefix = config.beacon_prefixes[0];
        let vendor = VendorProfile { mrai_ebgp: self.mrai, ..self.vendor };
        let beacon = RouterId { asn: BEACON_ORIGIN_ASN, index: 0 };
        let primary_transit = Asn(20_000);
        let flap = |down: bool| {
            let action = if down {
                ScenarioAction::InterAsLinkDown { a: BEACON_ORIGIN_ASN, b: primary_transit }
            } else {
                ScenarioAction::InterAsLinkUp { a: BEACON_ORIGIN_ASN, b: primary_transit }
            };
            vec![ScenarioEvent::after(SimDuration::from_secs(10), action)]
        };
        ScenarioSpec {
            name: self.label(),
            sim: SimConfig { seed, default_vendor: vendor, ..Default::default() },
            topology: TopologyTemplate::GeneratedInternet {
                config,
                collector: Some(CollectorDecl {
                    asn: COLLECTOR_ASN,
                    peers: vec![
                        RouterId { asn: Asn(20_000), index: 0 },
                        RouterId { asn: Asn(20_001), index: 0 },
                    ],
                }),
            },
            monitors: vec![],
            watch: vec![],
            phases: vec![
                Phase::new(
                    "converge",
                    vec![ScenarioEvent::immediately(ScenarioAction::Announce {
                        router: beacon,
                        prefix: beacon_prefix,
                    })],
                ),
                Phase::new("flap", flap(true)),
                Phase::new("heal", flap(false)),
                Phase::new("reflap", flap(true)),
            ],
            expectations: vec![],
        }
    }
}

/// What one internet-scale cell measured.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetCellResult {
    /// Total AS count of the cell's topology.
    pub n_ases: usize,
    /// Routers in the compiled network (includes the collector).
    pub routers: usize,
    /// Sessions in the compiled network.
    pub sessions: usize,
    /// Announcement-type counts of the collector stream across all
    /// phases.
    pub counts: TypeCounts,
    /// Total messages the collector captured.
    pub collector_messages: usize,
    /// Simulator events processed across the whole timeline.
    pub events_processed: u64,
    /// Bytes retained by the interned path-attribute store at the end.
    pub interned_attr_bytes: usize,
    /// Time of the last processed event in simulated time.
    pub converged_at: SimTime,
}

/// Runs one internet-scale cell: compile the spec, run the engine,
/// classify the collector stream.
pub fn run_internet_cell(cell: &InternetCell, seed: u64) -> InternetCellResult {
    let spec = cell.spec(seed);
    let outcome = scenario::run(&spec);
    let collector = RouterId { asn: COLLECTOR_ASN, index: 0 };
    let mut capture = Capture::new();
    for phase in &outcome.phases {
        if let Some(entries) = phase.collected.get(&collector) {
            for entry in entries {
                capture.record(entry.clone());
            }
        }
    }
    let archive = capture_to_archive(&outcome.net, "sim", &capture, 0);
    InternetCellResult {
        n_ases: cell.n_ases,
        routers: outcome.net.routers().count(),
        sessions: outcome.net.sessions().len(),
        counts: classify_archive(&archive),
        collector_messages: capture.len(),
        events_processed: outcome.net.stats.events_processed,
        interned_attr_bytes: outcome.net.attr_store().bytes(),
        converged_at: outcome.phases.last().map(|p| p.quiesced).unwrap_or(SimTime::ZERO),
    }
}

/// Runs every cell across `threads` workers over independent networks.
/// Results come back in cell order and are identical for any thread
/// count — parallelism only buys wall-clock time.
pub fn run_sweep(cells: &[SweepCell], seed: u64, threads: usize) -> Vec<CellResult> {
    let threads = threads.max(1).min(cells.len().max(1));
    if threads == 1 {
        return cells.iter().map(|c| run_cell(c, seed)).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, CellResult)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let result = run_cell(&cells[i], seed);
                results.lock().expect("result sink poisoned").push((i, result));
            });
        }
    });
    let mut indexed = results.into_inner().expect("result sink poisoned");
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
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

    #[test]
    fn parallel_equals_serial() {
        let cfg = SweepConfig {
            vendors: vec![VendorProfile::BIRD_2, VendorProfile::JUNOS],
            cleanings: vec![CleaningPlacement::Blind, CleaningPlacement::Egress],
            mrais: vec![SimDuration::ZERO],
            sizes: vec![15],
            seed: 5,
        };
        let cells = cfg.matrix();
        let serial = run_sweep(&cells, cfg.seed, 1);
        let parallel = run_sweep(&cells, cfg.seed, 4);
        assert_eq!(serial, parallel, "thread count must not change results");
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
