//! Multi-vantage views of one generated day — the synthetic corpus.
//!
//! The paper's dataset is "the same day, observed from many vantage
//! points": every RIS/RouteViews collector records its own session
//! subset of the global update flood, some of them at second
//! granularity. [`VantageSource`] reproduces that shape from
//! [`Mar20Source`]: each vantage deterministically regenerates the full
//! day (same seed → byte-identical flood) and yields only its own
//! collector's sessions, optionally truncating timestamps to whole
//! seconds — RIS's mixed-granularity fleet, with the truncated subset
//! under test control. The union of all vantages is exactly the single
//! merged day the batch generator produces, which is what makes corpus
//! runs over these sources comparable against single-pipeline runs.

use std::collections::HashMap;
use std::sync::Arc;

use kcc_collector::{Corpus, PeerMeta, SessionKey, SourceError, SourceItem, UpdateSource};
use kcc_core::AllocationRegistry;

use crate::mar20::{Mar20Config, Mar20Source};

/// Configuration of a synthetic multi-vantage corpus.
#[derive(Debug, Clone, Default)]
pub struct MultiVantageConfig {
    /// The shared day. `base.universe.n_collectors` is the vantage count
    /// K; sessions are distributed over the collectors by the universe
    /// builder.
    pub base: Mar20Config,
    /// Collector names whose timestamps are truncated to whole seconds
    /// at the vantage (in addition to any collector the universe already
    /// rolled as second-granularity) — the "mixed granularity" knob.
    pub force_second_granularity: Vec<String>,
}

/// One collector's view of the shared generated day.
#[derive(Debug)]
pub struct VantageSource {
    inner: Mar20Source,
    collector: String,
    truncate: bool,
    /// Metas rewritten to second granularity, per session.
    rewritten: HashMap<SessionKey, Arc<PeerMeta>>,
}

impl VantageSource {
    /// The `collector`-named vantage of the day `cfg` describes. The
    /// whole day is regenerated (deterministically) and filtered, so K
    /// vantages can be built — and pulled — independently in parallel.
    pub fn new(cfg: &MultiVantageConfig, collector: &str) -> Self {
        VantageSource {
            inner: Mar20Source::new(&cfg.base),
            collector: collector.to_owned(),
            truncate: cfg.force_second_granularity.iter().any(|c| c == collector),
            rewritten: HashMap::new(),
        }
    }

    /// The allocation registry of the underlying day (identical across
    /// vantages — allocation is global).
    pub fn registry(&self) -> &AllocationRegistry {
        self.inner.registry()
    }

    /// Route-server endpoints of this vantage's sessions.
    pub fn route_server_peers(&self) -> Vec<(kcc_bgp_types::Asn, std::net::IpAddr)> {
        self.inner
            .universe()
            .peers
            .iter()
            .filter(|p| p.route_server)
            .flat_map(|p| p.sessions.iter())
            .filter(|k| k.collector == self.collector)
            .map(|k| (k.peer_asn, k.peer_ip))
            .collect()
    }

    fn meta_for(&mut self, meta: Arc<PeerMeta>) -> Arc<PeerMeta> {
        if !self.truncate || meta.second_granularity {
            return meta;
        }
        self.rewritten
            .entry(meta.key.clone())
            .or_insert_with(|| Arc::new(PeerMeta { second_granularity: true, ..(*meta).clone() }))
            .clone()
    }
}

impl UpdateSource for VantageSource {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        loop {
            let Some(item) = self.inner.next_item()? else {
                return Ok(None);
            };
            match item {
                SourceItem::Session(meta) => {
                    if meta.key.collector != self.collector {
                        continue;
                    }
                    return Ok(Some(SourceItem::Session(self.meta_for(meta))));
                }
                SourceItem::Update(meta, mut update) => {
                    if meta.key.collector != self.collector {
                        continue;
                    }
                    let meta = self.meta_for(meta);
                    if self.truncate {
                        // What a second-granularity collector does to the
                        // data in the first place; per-session order is
                        // preserved (the map is monotone).
                        update.time_us -= update.time_us % 1_000_000;
                    }
                    return Ok(Some(SourceItem::Update(meta, update)));
                }
            }
        }
    }
}

/// The collector names of the day's universe — the vantage list.
pub fn vantage_names(cfg: &Mar20Config) -> Vec<String> {
    Mar20Source::new(cfg).universe().collectors.clone()
}

/// Streams one vantage of the day into MRT form — what that collector
/// would publish. Returns the update count and the vantage's
/// route-server endpoints (side-band metadata MRT cannot carry). One
/// session is resident at a time regardless of the day's length.
pub fn write_vantage_mrt<W: std::io::Write>(
    cfg: &MultiVantageConfig,
    collector: &str,
    w: W,
) -> Result<(u64, Vec<(kcc_bgp_types::Asn, std::net::IpAddr)>), SourceError> {
    let mut source = VantageSource::new(cfg, collector);
    let route_servers = source.route_server_peers();
    let updates = kcc_collector::archive::write_mrt_from(&mut source, cfg.base.epoch_seconds, w)?;
    Ok((updates, route_servers))
}

/// Builds the full synthetic corpus: one [`VantageSource`] per universe
/// collector, plus the shared allocation registry. K vantages × one
/// deterministic regeneration each.
pub fn multi_vantage_corpus(
    cfg: &MultiVantageConfig,
) -> Result<(Corpus<'static>, AllocationRegistry), SourceError> {
    let mut corpus = Corpus::new();
    let mut registry = None;
    for name in vantage_names(&cfg.base) {
        let vantage = VantageSource::new(cfg, &name);
        if registry.is_none() {
            registry = Some(vantage.registry().clone());
        }
        corpus.push(&name, vantage)?;
    }
    let registry =
        registry.ok_or_else(|| SourceError::Other("universe has no collectors".into()))?;
    Ok((corpus, registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mar20::generate_mar20;
    use crate::universe::UniverseConfig;
    use kcc_collector::UpdateArchive;

    fn small_cfg() -> MultiVantageConfig {
        MultiVantageConfig {
            base: Mar20Config {
                target_announcements: 6_000,
                universe: UniverseConfig {
                    n_collectors: 3,
                    n_peers: 9,
                    n_sessions: 18,
                    n_prefixes_v4: 150,
                    n_prefixes_v6: 15,
                    second_granularity_prob: 0.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            force_second_granularity: Vec::new(),
        }
    }

    #[test]
    fn vantages_partition_the_day() {
        let cfg = small_cfg();
        let whole = generate_mar20(&cfg.base).archive;
        let mut union = UpdateArchive::new(cfg.base.epoch_seconds);
        let mut per_vantage_updates = Vec::new();
        for name in vantage_names(&cfg.base) {
            let mut v = VantageSource::new(&cfg, &name);
            let part = UpdateArchive::from_source(&mut v, cfg.base.epoch_seconds).unwrap();
            for (_, rec) in part.sessions() {
                assert_eq!(rec.meta.key.collector, name, "leaked another vantage's session");
            }
            per_vantage_updates.push(part.update_count());
            for (key, rec) in part.sessions() {
                union.add_session(rec.meta.clone());
                for u in &rec.updates {
                    union.record(key, u.clone());
                }
            }
        }
        assert!(per_vantage_updates.iter().filter(|&&n| n > 0).count() >= 2);
        assert_eq!(union.update_count(), whole.update_count());
        assert_eq!(union.session_count(), whole.session_count());
        for (key, rec) in whole.sessions() {
            assert_eq!(union.session(key).unwrap().updates, rec.updates, "session {key}");
        }
    }

    #[test]
    fn forced_truncation_is_per_collector() {
        let mut cfg = small_cfg();
        let names = vantage_names(&cfg.base);
        cfg.force_second_granularity = vec![names[0].clone()];

        let mut forced = VantageSource::new(&cfg, &names[0]);
        let forced_archive =
            UpdateArchive::from_source(&mut forced, cfg.base.epoch_seconds).unwrap();
        assert!(forced_archive.update_count() > 0);
        for (_, rec) in forced_archive.sessions() {
            assert!(rec.meta.second_granularity, "forced vantage metas must be rewritten");
            assert!(rec.updates.iter().all(|u| u.time_us % 1_000_000 == 0));
        }

        let mut other = VantageSource::new(&cfg, &names[1]);
        let other_archive = UpdateArchive::from_source(&mut other, cfg.base.epoch_seconds).unwrap();
        assert!(
            other_archive
                .sessions()
                .flat_map(|(_, rec)| &rec.updates)
                .any(|u| u.time_us % 1_000_000 != 0),
            "untouched vantages keep microsecond stamps"
        );
    }

    #[test]
    fn corpus_builder_covers_all_collectors() {
        let cfg = small_cfg();
        let (corpus, registry) = multi_vantage_corpus(&cfg).unwrap();
        assert_eq!(corpus.len(), 3);
        assert!(registry.asn_allocated(crate::mar20::BEACON_ORIGIN, 0));
    }
}
