//! The data cleaning pipeline (paper §4).
//!
//! "Prior to analyzing our update message data, we first perform basic
//! filtering, cleaning, and normalization":
//!
//! 1. remove messages containing an ASN or prefix unallocated at message
//!    time,
//! 2. prepend the route server's ASN to paths from IXP route-server peers
//!    that do not insert their own ASN,
//! 3. disambiguate same-second timestamps at second-granularity
//!    collectors (order-preserving 0.01 ms spacing).

use kcc_bgp_types::{FastHashMap, MessageKind, Prefix, RouteUpdate};
use kcc_collector::timestamps::disambiguated;
use kcc_collector::{PeerMeta, SessionKey, UpdateArchive};

use crate::pipeline::Stage;
use crate::registry::AllocationRegistry;

/// Which cleaning stages to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleaningConfig {
    /// Drop messages with unallocated ASNs/prefixes.
    pub filter_unallocated: bool,
    /// Insert route-server ASNs into AS paths.
    pub insert_route_server_asn: bool,
    /// Normalize second-granularity timestamps.
    pub normalize_timestamps: bool,
}

impl Default for CleaningConfig {
    /// All stages on — the paper's configuration.
    fn default() -> Self {
        CleaningConfig {
            filter_unallocated: true,
            insert_route_server_asn: true,
            normalize_timestamps: true,
        }
    }
}

/// What the cleaning pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningReport {
    /// Messages dropped for an unallocated ASN in the path.
    pub removed_unallocated_asn: u64,
    /// Messages dropped for an unallocated prefix.
    pub removed_unallocated_prefix: u64,
    /// Announcements that received a route-server ASN prepend.
    pub route_server_insertions: u64,
    /// Sessions whose timestamps were normalized.
    pub sessions_normalized: u64,
    /// Messages surviving the pass.
    pub kept: u64,
}

/// The §4 cleaning pipeline as an incremental [`Stage`]: unallocated
/// ASN/prefix filtering, route-server ASN insertion, and streaming
/// timestamp disambiguation. Per-session state is one `u64` (the last
/// emitted time of second-granularity sessions), plus one allocation
/// epoch per distinct prefix — nothing scales with the day's length.
#[derive(Debug)]
pub struct CleaningStage<'a> {
    registry: &'a AllocationRegistry,
    config: CleaningConfig,
    report: CleaningReport,
    /// Last emitted time per second-granularity session; `None` until
    /// its first update.
    last_emitted: FastHashMap<SessionKey, Option<u64>>,
    /// [`AllocationRegistry::prefix_epoch`] per prefix seen, so an update
    /// costs one probe here rather than the registry's one per mask
    /// length. Exact for the stage's life: the registry is borrowed
    /// immutably and its blocks never deallocate.
    prefix_epochs: FastHashMap<Prefix, Option<u64>>,
}

impl<'a> CleaningStage<'a> {
    /// A stage applying `config` against `registry`.
    pub fn new(registry: &'a AllocationRegistry, config: CleaningConfig) -> Self {
        CleaningStage {
            registry,
            config,
            report: CleaningReport::default(),
            last_emitted: FastHashMap::default(),
            prefix_epochs: FastHashMap::default(),
        }
    }

    /// What the stage has done so far.
    pub fn report(&self) -> CleaningReport {
        self.report
    }

    /// True if `u`'s prefix and every ASN on its path were allocated at
    /// its time; counts the first reason to drop it otherwise.
    fn is_allocated(&mut self, u: &RouteUpdate) -> bool {
        let registry = self.registry;
        let epoch =
            *self.prefix_epochs.entry(u.prefix).or_insert_with(|| registry.prefix_epoch(&u.prefix));
        let allocated = epoch.is_some_and(|from| from <= u.time_us);
        if !allocated {
            self.report.removed_unallocated_prefix += 1;
            return false;
        }
        if let MessageKind::Announcement(attrs) = &u.kind {
            if attrs.as_path.asns().any(|asn| !registry.asn_allocated(asn, u.time_us)) {
                self.report.removed_unallocated_asn += 1;
                return false;
            }
        }
        true
    }
}

impl Stage for CleaningStage<'_> {
    fn on_session(&mut self, meta: &PeerMeta) {
        if self.config.normalize_timestamps
            && meta.second_granularity
            && !self.last_emitted.contains_key(&meta.key)
        {
            self.last_emitted.insert(meta.key.clone(), None);
            self.report.sessions_normalized += 1;
        }
    }

    fn process(&mut self, meta: &PeerMeta, mut update: RouteUpdate) -> Option<RouteUpdate> {
        if self.config.filter_unallocated && !self.is_allocated(&update) {
            return None;
        }
        if self.config.insert_route_server_asn && meta.route_server {
            if let MessageKind::Announcement(attrs) = &mut update.kind {
                if attrs.as_path.first() != Some(meta.key.peer_asn) {
                    // Copy-on-write: only the corrected update's attrs
                    // fork; siblings sharing the packet's Arc are intact.
                    let attrs = std::sync::Arc::make_mut(attrs);
                    attrs.as_path = attrs.as_path.prepend(meta.key.peer_asn, 1);
                    self.report.route_server_insertions += 1;
                }
            }
        }
        if self.config.normalize_timestamps && meta.second_granularity {
            if let Some(slot) = self.last_emitted.get_mut(&meta.key) {
                update.time_us = disambiguated(*slot, update.time_us);
                *slot = Some(update.time_us);
            }
        }
        self.report.kept += 1;
        Some(update)
    }
}

/// Runs the cleaning pipeline in place and reports what changed — the
/// batch wrapper over [`CleaningStage`], applied session by session.
pub fn clean_archive(
    archive: &mut UpdateArchive,
    registry: &AllocationRegistry,
    config: &CleaningConfig,
) -> CleaningReport {
    let mut stage = CleaningStage::new(registry, *config);
    for (_, rec) in archive.sessions_mut() {
        let meta = rec.meta.clone();
        stage.on_session(&meta);
        let updates = std::mem::take(&mut rec.updates);
        rec.updates = updates.into_iter().filter_map(|u| stage.process(&meta, u)).collect();
    }
    stage.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, PathAttributes};
    use kcc_collector::{PeerMeta, SessionKey};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(t: u64, prefix: &str, path: &str) -> RouteUpdate {
        RouteUpdate::announce(
            t,
            p(prefix),
            PathAttributes { as_path: path.parse().unwrap(), ..Default::default() },
        )
    }

    fn registry() -> AllocationRegistry {
        let mut r = AllocationRegistry::new();
        for asn in [20_205u32, 3356, 174, 12_654] {
            r.register_asn(Asn(asn), 0);
        }
        r.register_asn(Asn(5_000), 2_000_000); // allocated at t=2s
        r.register_block(p("84.205.0.0/16"), 0);
        r
    }

    fn key() -> SessionKey {
        SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap())
    }

    #[test]
    fn unallocated_asn_dropped() {
        let mut a = UpdateArchive::new(0);
        a.record(&key(), announce(1, "84.205.64.0/24", "20205 3356 12654"));
        a.record(&key(), announce(2, "84.205.64.0/24", "20205 9999 12654")); // 9999 bogon
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.removed_unallocated_asn, 1);
        assert_eq!(report.kept, 1);
        assert_eq!(a.update_count(), 1);
    }

    #[test]
    fn unallocated_prefix_dropped() {
        let mut a = UpdateArchive::new(0);
        a.record(&key(), announce(1, "84.205.64.0/24", "20205 12654"));
        a.record(&key(), announce(2, "203.0.113.0/24", "20205 12654")); // outside blocks
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.removed_unallocated_prefix, 1);
        assert_eq!(a.update_count(), 1);
    }

    #[test]
    fn allocation_is_time_dependent() {
        // AS5000 allocated at t=2s: a message at t=1s is bogon, at t=3s fine.
        let mut a = UpdateArchive::new(0);
        a.record(&key(), announce(1_000_000, "84.205.64.0/24", "20205 5000 12654"));
        a.record(&key(), announce(3_000_000, "84.205.64.0/24", "20205 5000 12654"));
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.removed_unallocated_asn, 1);
        assert_eq!(a.update_count(), 1);
        assert_eq!(a.all_updates()[0].1.time_us, 3_000_000);
    }

    #[test]
    fn withdrawals_keep_only_prefix_check() {
        let mut a = UpdateArchive::new(0);
        a.record(&key(), RouteUpdate::withdraw(1, p("84.205.64.0/24")));
        a.record(&key(), RouteUpdate::withdraw(2, p("203.0.113.0/24")));
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.removed_unallocated_prefix, 1);
        assert_eq!(a.update_count(), 1);
    }

    #[test]
    fn route_server_asn_inserted() {
        let mut a = UpdateArchive::new(0);
        let k = key();
        a.add_session(PeerMeta { key: k.clone(), route_server: true, second_granularity: false });
        // Path does NOT start with the peer AS (route server behavior).
        a.record(&k, announce(1, "84.205.64.0/24", "3356 12654"));
        // Path already starts with it: untouched.
        a.record(&k, announce(2, "84.205.64.0/24", "20205 3356 12654"));
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.route_server_insertions, 1);
        let updates = &a.session(&k).unwrap().updates;
        assert_eq!(updates[0].attributes().unwrap().as_path.to_string(), "20205 3356 12654");
        assert_eq!(updates[1].attributes().unwrap().as_path.to_string(), "20205 3356 12654");
    }

    #[test]
    fn second_granularity_sessions_normalized() {
        let mut a = UpdateArchive::new(0);
        let k = key();
        a.add_session(PeerMeta { key: k.clone(), route_server: false, second_granularity: true });
        a.record(&k, announce(5_000_000, "84.205.64.0/24", "20205 12654"));
        a.record(&k, announce(5_000_000, "84.205.64.0/24", "20205 12654"));
        let report = clean_archive(&mut a, &registry(), &CleaningConfig::default());
        assert_eq!(report.sessions_normalized, 1);
        let updates = &a.session(&k).unwrap().updates;
        assert_eq!(updates[1].time_us, 5_000_010);
    }

    /// Regression: the streaming stage used to push a ≥100,000-update
    /// same-second run past the next distinct second (run × 10 µs > 1 s),
    /// reordering updates relative to the following second. The clamp in
    /// `disambiguated` caps the spread inside the run's own second.
    #[test]
    fn streaming_normalization_never_crosses_next_second() {
        let mut a = UpdateArchive::new(0);
        let k = key();
        a.add_session(PeerMeta { key: k.clone(), route_server: false, second_granularity: true });
        let run_len = 100_050usize;
        for _ in 0..run_len {
            a.record(&k, RouteUpdate::withdraw(5_000_000, p("84.205.64.0/24")));
        }
        a.record(&k, RouteUpdate::withdraw(6_000_000, p("84.205.64.0/24")));
        clean_archive(&mut a, &registry(), &CleaningConfig::default());
        let updates = &a.session(&k).unwrap().updates;
        for w in updates.windows(2) {
            assert!(w[0].time_us <= w[1].time_us, "output must stay monotonic");
        }
        assert!(
            updates[run_len - 1].time_us < 6_000_000,
            "same-second run crossed into the next second: {}",
            updates[run_len - 1].time_us
        );
        assert_eq!(updates[run_len].time_us, 6_000_000);
    }

    #[test]
    fn stages_can_be_disabled() {
        let mut a = UpdateArchive::new(0);
        a.record(&key(), announce(1, "203.0.113.0/24", "9999 12654"));
        let cfg = CleaningConfig {
            filter_unallocated: false,
            insert_route_server_asn: false,
            normalize_timestamps: false,
        };
        let report = clean_archive(&mut a, &registry(), &cfg);
        assert_eq!(report.kept, 1);
        assert_eq!(a.update_count(), 1);
    }
}
