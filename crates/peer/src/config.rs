//! Hot-reloadable daemon configuration: running/candidate generations
//! with commit/discard semantics.
//!
//! A collector that holds thousands of sessions cannot be restarted to
//! add a peer or turn up tracing. Following the running/candidate model
//! routing daemons converged on (zebra's `ConfigStore` is the reference
//! shape), [`ConfigStore`] keeps two configurations: the **running**
//! config every subsystem acts on, and a **candidate** that edits
//! accumulate into invisibly. [`commit`] atomically promotes the
//! candidate and bumps a generation counter; [`discard`] resets the
//! candidate to the running config. Subscribers (reactor shards, and the
//! ingest table they stamp under) poll the generation — one atomic load
//! per loop iteration or flush — and re-read the running config only
//! when it moved, so a commit propagates within one poll interval
//! without any subscriber holding the store's lock on the hot path.
//!
//! The store also owns the process's [`TraceFilter`]: trace levels ride
//! the same candidate/commit cycle as every other setting, and a commit
//! applies them to the filter immediately.
//!
//! [`commit`]: ConfigStore::commit
//! [`discard`]: ConfigStore::discard

use std::collections::BTreeSet;
use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kcc_bgp_types::Asn;

use crate::collector::StampMode;
use crate::rotate::RotateConfig;
use crate::trace::{TraceConfig, TraceFilter};

/// Which peers the daemon accepts sessions from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PeerPolicy {
    /// Any peer that completes the handshake (the collector default —
    /// real collectors are open multilateral listeners).
    #[default]
    AcceptAny,
    /// Only peers announcing one of these ASNs; anyone else is refused
    /// at OPEN time with a Bad Peer AS NOTIFICATION, and removing an ASN
    /// from the set Ceases its live sessions on the next commit.
    Allow(BTreeSet<Asn>),
}

impl PeerPolicy {
    /// Whether a peer announcing `asn` may hold a session.
    pub fn allows(&self, asn: Asn) -> bool {
        match self {
            PeerPolicy::AcceptAny => true,
            PeerPolicy::Allow(set) => set.contains(&asn),
        }
    }
}

/// Everything about a running daemon that can change without a restart.
/// A daemon starts from `CollectorConfig::daemon`, taken as is as the
/// store's first running config.
///
/// The static identity — local ASN, BGP identifier, collector name,
/// epoch — stays in `CollectorConfig`: a collector that changes its ASN
/// *is* a different collector, and every session would have to
/// renegotiate anyway.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Timestamping of arriving updates.
    pub stamp: StampMode,
    /// Which peers may hold sessions.
    pub peers: PeerPolicy,
    /// Peers that are IXP route servers (metadata the wire cannot
    /// carry). Applies to sessions established after the commit.
    pub route_servers: Vec<(Asn, IpAddr)>,
    /// Rotating MRT dumps; changing it hot-swaps the rotator (the old
    /// dump files are finished cleanly).
    pub mrt: Option<RotateConfig>,
    /// Extra listening addresses beyond the primary bind; additions are
    /// bound and removals closed on commit.
    pub listen: Vec<SocketAddr>,
    /// Trace verbosity, applied to the store's [`TraceFilter`] on
    /// commit.
    pub trace: TraceConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            stamp: StampMode::Arrival,
            peers: PeerPolicy::AcceptAny,
            route_servers: Vec::new(),
            mrt: None,
            listen: Vec::new(),
            trace: TraceConfig::default(),
        }
    }
}

struct Inner {
    running: Arc<DaemonConfig>,
    candidate: DaemonConfig,
    dirty: bool,
}

/// The running/candidate configuration store. One per daemon, shared
/// `Arc`-wide with every subsystem and the control socket.
pub struct ConfigStore {
    inner: Mutex<Inner>,
    /// Bumped on every commit; subscribers poll this to learn a new
    /// running config exists.
    generation: AtomicU64,
    trace: TraceFilter,
    metrics: Arc<kcc_obs::Registry>,
}

impl std::fmt::Debug for ConfigStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfigStore")
            .field("generation", &self.generation())
            .field("dirty", &self.dirty())
            .finish()
    }
}

impl ConfigStore {
    /// A store whose running *and* candidate start as `initial`. The
    /// trace filter immediately reflects `initial.trace`.
    pub fn new(initial: DaemonConfig) -> Self {
        let trace = TraceFilter::new(initial.trace.clone());
        ConfigStore {
            inner: Mutex::new(Inner {
                running: Arc::new(initial.clone()),
                candidate: initial,
                dirty: false,
            }),
            generation: AtomicU64::new(1),
            trace,
            metrics: Arc::new(kcc_obs::Registry::new()),
        }
    }

    /// The config every subsystem acts on.
    pub fn running(&self) -> Arc<DaemonConfig> {
        Arc::clone(&self.inner.lock().unwrap().running)
    }

    /// A copy of the candidate (running + uncommitted edits).
    pub fn candidate(&self) -> DaemonConfig {
        self.inner.lock().unwrap().candidate.clone()
    }

    /// Applies an edit to the candidate. Invisible to subscribers until
    /// [`commit`](ConfigStore::commit).
    pub fn edit(&self, f: impl FnOnce(&mut DaemonConfig)) {
        let mut inner = self.inner.lock().unwrap();
        f(&mut inner.candidate);
        inner.dirty = inner.candidate != *inner.running;
    }

    /// Whether the candidate differs from the running config.
    pub fn dirty(&self) -> bool {
        self.inner.lock().unwrap().dirty
    }

    /// Promotes the candidate to running, applies its trace config, and
    /// returns the new generation. A clean candidate commits to a no-op:
    /// the generation does not move, so subscribers are not spuriously
    /// re-triggered.
    pub fn commit(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        if !inner.dirty {
            return self.generation.load(Ordering::Relaxed);
        }
        inner.running = Arc::new(inner.candidate.clone());
        inner.dirty = false;
        self.trace.apply(inner.running.trace.clone());
        // Release-ordered so a subscriber that observes the new
        // generation also observes the new running Arc through the lock.
        self.generation.fetch_add(1, Ordering::Release) + 1
    }

    /// Resets the candidate to the running config. Returns whether there
    /// was anything to throw away.
    pub fn discard(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let had_edits = inner.dirty;
        inner.candidate = (*inner.running).clone();
        inner.dirty = false;
        had_edits
    }

    /// The commit counter subscribers poll (one relaxed load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The daemon's trace filter (kept in sync with the running
    /// config's `trace` section on every commit).
    pub fn trace(&self) -> &TraceFilter {
        &self.trace
    }

    /// The daemon-wide metrics registry. Reactor shards, the ingest
    /// table, and the control socket all record into this one registry;
    /// the control `metrics` command renders it.
    pub fn metrics(&self) -> &Arc<kcc_obs::Registry> {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLevel;

    #[test]
    fn candidate_edits_invisible_until_commit() {
        let store = ConfigStore::new(DaemonConfig::default());
        let g0 = store.generation();
        store.edit(|c| c.stamp = StampMode::logical(500));
        assert!(store.dirty());
        assert_eq!(store.running().stamp, StampMode::Arrival, "running untouched");
        assert_eq!(store.candidate().stamp, StampMode::logical(500));
        assert_eq!(store.generation(), g0, "generation moves only on commit");

        let g1 = store.commit();
        assert!(g1 > g0);
        assert!(!store.dirty());
        assert_eq!(store.running().stamp, StampMode::logical(500));
    }

    #[test]
    fn discard_restores_running() {
        let store = ConfigStore::new(DaemonConfig::default());
        store.edit(|c| c.peers = PeerPolicy::Allow([Asn(65_001)].into()));
        assert!(store.discard(), "there were edits to discard");
        assert!(!store.dirty());
        assert_eq!(store.candidate().peers, PeerPolicy::AcceptAny);
        assert!(!store.discard(), "nothing left to discard");
    }

    #[test]
    fn clean_commit_is_a_no_op() {
        let store = ConfigStore::new(DaemonConfig::default());
        let g0 = store.generation();
        assert_eq!(store.commit(), g0, "clean commit keeps the generation");
        // An edit that lands back on the running value is also clean.
        store.edit(|c| c.stamp = StampMode::Arrival);
        assert!(!store.dirty());
        assert_eq!(store.commit(), g0);
    }

    #[test]
    fn commit_applies_trace_config_to_the_filter() {
        let store = ConfigStore::new(DaemonConfig::default());
        assert!(!store.trace().enabled("reactor", TraceLevel::Debug));
        store.edit(|c| {
            c.trace.targets.insert("reactor".into(), TraceLevel::Debug);
        });
        assert!(!store.trace().enabled("reactor", TraceLevel::Debug), "not before commit");
        store.commit();
        assert!(store.trace().enabled("reactor", TraceLevel::Debug));
        assert!(!store.trace().enabled("ingest", TraceLevel::Debug), "other targets unchanged");
    }

    #[test]
    fn peer_policy_allows() {
        assert!(PeerPolicy::AcceptAny.allows(Asn(1)));
        let allow = PeerPolicy::Allow([Asn(2), Asn(3)].into());
        assert!(allow.allows(Asn(2)));
        assert!(!allow.allows(Asn(1)));
    }
}
