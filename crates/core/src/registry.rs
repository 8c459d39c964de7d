//! Synthetic RIR allocation registry.
//!
//! The paper's cleaning step uses "current and historical allocation
//! information from the regional registries" to drop messages carrying
//! ASNs or prefixes that were unallocated *at the time of the message*.
//! Real delegation files are not redistributable at repo scale, so this
//! registry reproduces their semantics: time-stamped ASN and prefix-block
//! allocations, plus the structural reservations (private/documentation/
//! reserved ranges) that are never allocatable.

use kcc_bgp_types::{Asn, FastHashMap, Prefix};

/// A registry of allocations with epochs (µs since archive time zero, the
/// same clock updates use; historical allocations are simply epoch 0).
///
/// Blocks live in a hash map keyed by the block prefix with the earliest
/// allocation epoch as the value, so a prefix's allocation epoch
/// ([`prefix_epoch`](Self::prefix_epoch)) is one probe per mask length
/// up to the prefix's own instead of a linear scan over every registered
/// block. Blocks never deallocate, so that epoch is fixed for the
/// registry's life: [`CleaningStage`](crate::CleaningStage) looks it up
/// once per distinct prefix, not once per update.
#[derive(Debug, Clone, Default)]
pub struct AllocationRegistry {
    asns: FastHashMap<Asn, u64>,
    blocks: FastHashMap<Prefix, u64>,
}

impl AllocationRegistry {
    /// An empty registry (everything unallocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an ASN as allocated from `from_us` on. Structurally
    /// reserved ASNs are refused (returns false).
    pub fn register_asn(&mut self, asn: Asn, from_us: u64) -> bool {
        if !asn.is_allocatable() {
            return false;
        }
        let entry = self.asns.entry(asn).or_insert(from_us);
        *entry = (*entry).min(from_us);
        true
    }

    /// Registers a prefix block as allocated from `from_us`; any prefix
    /// contained in the block counts as allocated. Re-registering a
    /// block keeps its earliest epoch.
    pub fn register_block(&mut self, block: Prefix, from_us: u64) {
        let entry = self.blocks.entry(block).or_insert(from_us);
        *entry = (*entry).min(from_us);
    }

    /// True if `asn` was allocated at time `at_us`.
    pub fn asn_allocated(&self, asn: Asn, at_us: u64) -> bool {
        self.asns.get(&asn).map(|&from| from <= at_us).unwrap_or(false)
    }

    /// When `prefix` became allocated: the earliest epoch of any block
    /// covering it, or `None` if no block does. Probes `prefix` cut to
    /// each length from 0 to its own (at most 25 probes for a /24),
    /// independent of how many blocks are registered.
    pub fn prefix_epoch(&self, prefix: &Prefix) -> Option<u64> {
        let cut = |len| match *prefix {
            Prefix::V4 { addr, .. } => Prefix::v4(addr, len),
            Prefix::V6 { addr, .. } => Prefix::v6(addr, len),
        };
        (0..=prefix.len())
            .filter_map(|len| self.blocks.get(&cut(len).expect("no longer than prefix")))
            .copied()
            .min()
    }

    /// True if `prefix` falls inside a block allocated at time `at_us`.
    pub fn prefix_allocated(&self, prefix: &Prefix, at_us: u64) -> bool {
        self.prefix_epoch(prefix).is_some_and(|from| from <= at_us)
    }

    /// Number of registered ASNs.
    pub fn asn_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of distinct registered blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Builds a registry covering an entire topology: every AS and every
    /// originated prefix is allocated from time 0 — plus the beacon /
    /// collector infrastructure ASNs.
    pub fn for_topology(topo: &kcc_topology::Topology) -> Self {
        let mut r = Self::new();
        for node in topo.nodes() {
            r.register_asn(node.asn, 0);
            for p in &node.prefixes {
                r.register_block(*p, 0);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn asn_allocation_with_epoch() {
        let mut r = AllocationRegistry::new();
        assert!(r.register_asn(Asn(3356), 1_000));
        assert!(!r.asn_allocated(Asn(3356), 999));
        assert!(r.asn_allocated(Asn(3356), 1_000));
        assert!(r.asn_allocated(Asn(3356), 5_000));
        assert!(!r.asn_allocated(Asn(174), 5_000));
    }

    #[test]
    fn reserved_asns_refused() {
        let mut r = AllocationRegistry::new();
        assert!(!r.register_asn(Asn(0), 0));
        assert!(!r.register_asn(Asn(23_456), 0)); // AS_TRANS
        assert!(!r.register_asn(Asn(64_512), 0)); // private
        assert!(!r.register_asn(Asn(64_500), 0)); // documentation
        assert_eq!(r.asn_count(), 0);
    }

    #[test]
    fn earliest_epoch_wins() {
        let mut r = AllocationRegistry::new();
        r.register_asn(Asn(3356), 5_000);
        r.register_asn(Asn(3356), 1_000);
        assert!(r.asn_allocated(Asn(3356), 2_000));
        assert_eq!(r.asn_count(), 1);
    }

    #[test]
    fn prefix_containment() {
        let mut r = AllocationRegistry::new();
        r.register_block(p("84.205.0.0/16"), 100);
        assert!(r.prefix_allocated(&p("84.205.64.0/24"), 100));
        assert!(!r.prefix_allocated(&p("84.205.64.0/24"), 99));
        assert!(!r.prefix_allocated(&p("84.206.0.0/24"), 100));
        assert!(r.prefix_allocated(&p("84.205.0.0/16"), 100)); // block itself
    }

    #[test]
    fn nested_blocks_with_different_epochs() {
        // A /16 allocated early and a nested /24 allocated later: the
        // /24's prefixes must count as allocated from the *earlier* /16
        // epoch, because any covering block suffices.
        let mut r = AllocationRegistry::new();
        r.register_block(p("84.205.0.0/16"), 100);
        r.register_block(p("84.205.64.0/24"), 500);
        assert!(r.prefix_allocated(&p("84.205.64.0/24"), 100));
        assert!(r.prefix_allocated(&p("84.205.64.0/25"), 100));
        assert!(!r.prefix_allocated(&p("84.205.64.0/24"), 99));
        assert_eq!(r.prefix_epoch(&p("84.205.64.0/25")), Some(100));
        assert_eq!(r.prefix_epoch(&p("84.206.0.0/24")), None);
        assert_eq!(r.block_count(), 2);
        // Re-registering the same block keeps the earliest epoch.
        r.register_block(p("84.205.0.0/16"), 900);
        assert!(r.prefix_allocated(&p("84.205.1.0/24"), 100));
        assert_eq!(r.block_count(), 2);
    }

    #[test]
    fn v6_blocks() {
        let mut r = AllocationRegistry::new();
        r.register_block(p("2001:db8::/32"), 0);
        assert!(r.prefix_allocated(&p("2001:db8:42::/48"), 0));
        assert!(!r.prefix_allocated(&p("2001:db9::/48"), 0));
    }

    #[test]
    fn topology_registry_covers_everything() {
        let topo = kcc_topology::generate(&kcc_topology::TopologyConfig {
            n_tier1: 2,
            n_transit: 3,
            n_stub: 4,
            ..Default::default()
        });
        let r = AllocationRegistry::for_topology(&topo);
        for node in topo.nodes() {
            assert!(r.asn_allocated(node.asn, 0), "AS {} missing", node.asn);
            for prefix in &node.prefixes {
                assert!(r.prefix_allocated(prefix, 0), "prefix {prefix} missing");
            }
        }
    }
}
