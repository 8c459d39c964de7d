//! Multi-collector corpora — the input side of cross-vantage analysis.
//!
//! The paper's measurements are not single-vantage: Tables 1–3 aggregate
//! update streams from many RIPE RIS and RouteViews collectors, with the
//! §4 cleaning rules applied per collector before any cross-collector
//! comparison. A [`Corpus`] is the unit that workload comes in: N
//! *named* [`UpdateSource`]s — MRT files, directories of MRT files,
//! in-memory archives, generated vantages, live feeds — one per
//! collector. `kcc_core::PipelineBuilder::collectors` pulls each member
//! through its own full pipeline (stages + sinks built per collector) in
//! parallel and merges the results **in name order**, so the outcome is
//! independent of both member insertion order and thread count.

use std::fs::File;
use std::io::BufReader;
use std::net::IpAddr;
use std::path::Path;

use kcc_bgp_types::Asn;

use crate::source::{SourceError, SourceItem, UpdateSource};
use crate::MrtSource;

/// Per-file options for [`Corpus::push_mrt_file_with`].
#[derive(Debug, Clone, Default)]
pub struct MrtFileOptions {
    /// Accept records timestamped before the epoch by clamping them onto
    /// it (counted on the source) instead of failing the stream — see
    /// [`MrtSource::with_pre_epoch_clamp`].
    pub clamp_pre_epoch: bool,
    /// This collector's IXP route-server endpoints — session metadata
    /// MRT cannot carry (see [`MrtSource::with_route_servers`]).
    pub route_servers: Vec<(Asn, IpAddr)>,
}

impl MrtFileOptions {
    /// Opens `path` as `collector`'s record-at-a-time feed with these
    /// options applied; update times become microseconds since
    /// `epoch_seconds`.
    pub fn open(
        &self,
        path: &Path,
        collector: &str,
        epoch_seconds: u32,
    ) -> Result<MrtSource<BufReader<File>>, SourceError> {
        let file = File::open(path)
            .map_err(|e| SourceError::Other(format!("open {}: {e}", path.display())))?;
        let source = MrtSource::new(BufReader::new(file), collector, epoch_seconds)
            .with_route_servers(self.route_servers.iter().copied());
        Ok(if self.clamp_pre_epoch { source.with_pre_epoch_clamp() } else { source })
    }
}

/// One collector's feed in a corpus: a display/merge name plus any
/// boxed [`UpdateSource`].
pub struct NamedSource<'a> {
    /// The collector name — the merge key. Unique within a corpus.
    pub name: String,
    /// The feed.
    pub source: Box<dyn UpdateSource + Send + 'a>,
}

impl<'a> NamedSource<'a> {
    /// Wraps a source under a name.
    pub fn new<S: UpdateSource + Send + 'a>(name: &str, source: S) -> Self {
        NamedSource { name: name.to_owned(), source: Box::new(source) }
    }
}

impl std::fmt::Debug for NamedSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedSource").field("name", &self.name).finish_non_exhaustive()
    }
}

impl UpdateSource for NamedSource<'_> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        self.source.next_item()
    }
}

/// A set of named collector feeds analyzed together. Names must be
/// unique — they key the deterministic merge order.
#[derive(Debug, Default)]
pub struct Corpus<'a> {
    members: Vec<NamedSource<'a>>,
}

impl<'a> Corpus<'a> {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Adds a named source. Fails on a duplicate name: two feeds under
    /// one name would silently interleave into one per-collector result.
    pub fn push<S: UpdateSource + Send + 'a>(
        &mut self,
        name: &str,
        source: S,
    ) -> Result<(), SourceError> {
        if self.members.iter().any(|m| m.name == name) {
            return Err(SourceError::Other(format!("duplicate corpus member name: {name:?}")));
        }
        self.members.push(NamedSource::new(name, source));
        Ok(())
    }

    /// Builder form of [`Corpus::push`].
    pub fn with<S: UpdateSource + Send + 'a>(
        mut self,
        name: &str,
        source: S,
    ) -> Result<Self, SourceError> {
        self.push(name, source)?;
        Ok(self)
    }

    /// Adds one MRT file as a collector named after its file stem
    /// (`rrc00.mrt` → `rrc00`), read with `options` (pre-epoch clamp,
    /// route-server metadata MRT cannot carry). The file is streamed
    /// record-at-a-time; update times become microseconds since
    /// `epoch_seconds`.
    pub fn push_mrt_file_with(
        &mut self,
        path: &Path,
        epoch_seconds: u32,
        options: &MrtFileOptions,
    ) -> Result<(), SourceError> {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| SourceError::Other(format!("unnameable MRT path: {path:?}")))?
            .to_owned();
        self.push(&name, options.open(path, &name, epoch_seconds)?)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the corpus has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.name.as_str()).collect()
    }

    /// Dismantles the corpus into its members (insertion order).
    pub fn into_members(self) -> Vec<NamedSource<'a>> {
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::UpdateArchive;
    use crate::session::SessionKey;
    use kcc_bgp_types::{Asn, RouteUpdate};

    fn archive(collector: &str) -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new(collector, Asn(20_205), "192.0.2.9".parse().unwrap());
        a.record(&k, RouteUpdate::withdraw(5, "84.205.64.0/24".parse().unwrap()));
        a
    }

    #[test]
    fn duplicate_names_rejected() {
        let a = archive("rrc00");
        let b = archive("rrc00");
        let mut c = Corpus::new();
        c.push("rrc00", crate::source::ArchiveSource::new(&a)).unwrap();
        let err = c.push("rrc00", crate::source::ArchiveSource::new(&b));
        assert!(err.is_err());
        assert_eq!(c.len(), 1);
    }
}
