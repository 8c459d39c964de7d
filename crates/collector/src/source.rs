//! Pull-based update sources — the input side of the streaming pipeline.
//!
//! The paper's measurement runs over billions of updates per sampled day;
//! at that scale an analysis cannot hold a materialized
//! [`UpdateArchive`] in memory. [`UpdateSource`] abstracts "a stream of
//! timestamped per-session updates" so the same analysis code runs over
//!
//! * a materialized archive ([`ArchiveSource`] — what the `kcc-core`
//!   helpers that take an `&UpdateArchive` run their sink over),
//! * raw MRT bytes, record at a time ([`MrtSource`] — a collector-day of
//!   any size in memory proportional to one record plus per-session
//!   metadata),
//! * simulator captures and generated traces (implemented in their own
//!   crates against this trait).
//!
//! A source yields [`SourceItem`]s: session registrations (metadata, once
//! per session, always before that session's first update) interleaved
//! with updates. Per-session update order is arrival order; sources make
//! no promise about inter-session interleaving — every analysis in
//! `kcc-core` is per-`(session, prefix)`-stream, so interleaving is free
//! to follow whatever order the underlying medium provides.

use std::collections::VecDeque;
use std::fmt;
use std::io::Read;
use std::net::IpAddr;
use std::sync::Arc;

use kcc_bgp_types::{Asn, FastHashMap, RouteUpdate};
use kcc_mrt::{MrtError, UpdateStream};

use crate::archive::{SessionRecord, UpdateArchive};
use crate::session::{PeerMeta, SessionKey};

/// One item pulled from a source.
#[derive(Debug, Clone)]
pub enum SourceItem {
    /// A session became known. Sources emit this exactly once per
    /// session, before the session's first update (sources that know
    /// their sessions up front — archives — announce them all first,
    /// including sessions that carry no updates).
    Session(Arc<PeerMeta>),
    /// One update on a session.
    Update(Arc<PeerMeta>, RouteUpdate),
}

/// Why a source stopped early.
#[derive(Debug)]
pub enum SourceError {
    /// The underlying MRT stream was malformed or unreadable.
    Mrt(MrtError),
    /// Any other source failure.
    Other(String),
    /// One collector of a multi-collector run failed: its name and why.
    Collector(String, Box<SourceError>),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Mrt(e) => write!(f, "MRT source: {e}"),
            SourceError::Other(msg) => f.write_str(msg),
            SourceError::Collector(name, e) => write!(f, "collector {name}: {e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<MrtError> for SourceError {
    fn from(e: MrtError) -> Self {
        SourceError::Mrt(e)
    }
}

/// A pull-based source of timestamped per-session updates.
pub trait UpdateSource {
    /// The next item; `Ok(None)` when the stream is exhausted.
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError>;
}

impl<S: UpdateSource + ?Sized> UpdateSource for &mut S {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        (**self).next_item()
    }
}

impl<S: UpdateSource + ?Sized> UpdateSource for Box<S> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        (**self).next_item()
    }
}

/// Streams a materialized [`UpdateArchive`]: all sessions announced
/// first (in key order), then each session's updates in arrival order,
/// session-major. The `kcc-core` helpers that take an `&UpdateArchive`
/// run their sink over it.
#[derive(Debug)]
pub struct ArchiveSource<'a> {
    sessions: Vec<(Arc<PeerMeta>, &'a SessionRecord)>,
    announce_idx: usize,
    session_idx: usize,
    update_idx: usize,
}

impl<'a> ArchiveSource<'a> {
    /// Wraps an archive.
    pub fn new(archive: &'a UpdateArchive) -> Self {
        let sessions =
            archive.sessions().map(|(_, rec)| (Arc::new(rec.meta.clone()), rec)).collect();
        ArchiveSource { sessions, announce_idx: 0, session_idx: 0, update_idx: 0 }
    }
}

impl UpdateSource for ArchiveSource<'_> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        if self.announce_idx < self.sessions.len() {
            let meta = Arc::clone(&self.sessions[self.announce_idx].0);
            self.announce_idx += 1;
            return Ok(Some(SourceItem::Session(meta)));
        }
        while self.session_idx < self.sessions.len() {
            let (meta, rec) = &self.sessions[self.session_idx];
            if let Some(u) = rec.updates.get(self.update_idx) {
                self.update_idx += 1;
                return Ok(Some(SourceItem::Update(Arc::clone(meta), u.clone())));
            }
            self.session_idx += 1;
            self.update_idx = 0;
        }
        Ok(None)
    }
}

/// Streams MRT bytes record at a time — the constant-memory path onto a
/// RouteViews/RIS download. Sessions are discovered as their first record
/// arrives; state is one [`PeerMeta`] per session, never the day itself.
///
/// MRT cannot express the route-server flag, so peers known to be route
/// servers (from external peer lists, as in the paper's §4) are supplied
/// via [`MrtSource::with_route_servers`].
#[derive(Debug)]
pub struct MrtSource<R: Read> {
    stream: UpdateStream<R>,
    collector: String,
    // Keyed by the raw `(peer ASN, peer IP)` endpoint an MRT record
    // carries — no per-record `SessionKey` (String) construction; the
    // composite key is built once, when the session is first seen.
    sessions: FastHashMap<(Asn, IpAddr), Arc<PeerMeta>>,
    route_servers: Vec<(Asn, IpAddr)>,
    pending: VecDeque<SourceItem>,
}

impl<R: Read> MrtSource<R> {
    /// Wraps an MRT byte stream from the named collector; update times
    /// become microseconds since `epoch_seconds`.
    pub fn new(inner: R, collector: &str, epoch_seconds: u32) -> Self {
        MrtSource {
            stream: UpdateStream::new(inner, epoch_seconds),
            collector: collector.to_owned(),
            sessions: FastHashMap::default(),
            route_servers: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    /// Declares which `(peer ASN, peer IP)` endpoints are IXP route
    /// servers (metadata MRT cannot carry).
    pub fn with_route_servers<I: IntoIterator<Item = (Asn, IpAddr)>>(mut self, peers: I) -> Self {
        self.route_servers = peers.into_iter().collect();
        self
    }

    /// Accept records timestamped before the epoch by clamping them to
    /// relative time 0 instead of failing the stream — the documented
    /// escape hatch for mid-day epochs. Clamped records are counted in
    /// [`MrtSource::pre_epoch_clamped`].
    pub fn with_pre_epoch_clamp(mut self) -> Self {
        self.stream = self.stream.with_pre_epoch_clamp();
        self
    }

    /// Number of records clamped onto the epoch so far (only nonzero
    /// after [`MrtSource::with_pre_epoch_clamp`]).
    pub fn pre_epoch_clamped(&self) -> u64 {
        self.stream.pre_epoch_clamped()
    }

    /// Sessions discovered so far.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

impl<R: Read> UpdateSource for MrtSource<R> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Ok(Some(item));
            }
            // Record granularity: one session lookup per MRT record, then
            // the whole packet explodes into the pending queue sharing one
            // attribute `Arc` and one `PeerMeta` handle.
            let Some(msg) = self.stream.next_message()? else {
                return Ok(None);
            };
            let announced = if msg.packet.attrs.is_some() { msg.packet.nlri.len() } else { 0 };
            if msg.packet.withdrawn.len() + announced == 0 {
                // An empty UPDATE (end-of-RIB marker) carries no traffic
                // and, like `read_mrt`, must not register a session.
                continue;
            }
            let endpoint = (msg.peer_asn, msg.peer_ip);
            let (meta, new_session) = match self.sessions.get(&endpoint) {
                Some(meta) => (Arc::clone(meta), false),
                None => {
                    // First record of this session: its timestamp
                    // granularity becomes the session's, exactly as
                    // `read_mrt` decides it.
                    let route_server = self.route_servers.contains(&endpoint);
                    let meta = Arc::new(PeerMeta {
                        key: SessionKey::new(&self.collector, msg.peer_asn, msg.peer_ip),
                        route_server,
                        second_granularity: msg.second_granularity,
                    });
                    self.sessions.insert(endpoint, Arc::clone(&meta));
                    (meta, true)
                }
            };
            let mut updates = msg
                .packet
                .into_route_updates(msg.time_us)
                .map(|u| SourceItem::Update(Arc::clone(&meta), u));
            if new_session {
                // The session item must come out before its updates.
                self.pending.push_back(SourceItem::Session(Arc::clone(&meta)));
                self.pending.extend(updates);
                continue;
            }
            // Known session (the common case): hand the first update
            // straight out, queueing only a multi-prefix packet's tail.
            let first = updates.next();
            self.pending.extend(updates);
            if first.is_some() {
                return Ok(first);
            }
        }
    }
}

impl UpdateArchive {
    /// Materializes any source into an archive — the bridge back from
    /// streaming to batch for tooling that needs random access.
    pub fn from_source<S: UpdateSource>(
        source: &mut S,
        epoch_seconds: u32,
    ) -> Result<Self, SourceError> {
        let mut archive = UpdateArchive::new(epoch_seconds);
        while let Some(item) = source.next_item()? {
            match item {
                SourceItem::Session(meta) => archive.add_session((*meta).clone()),
                SourceItem::Update(meta, update) => archive.record(&meta.key, update),
            }
        }
        Ok(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::PathAttributes;

    fn key(peer: u32, ip: &str) -> SessionKey {
        SessionKey::new("rrc00", Asn(peer), ip.parse().unwrap())
    }

    fn announce(t: u64, path: &str) -> RouteUpdate {
        let attrs = PathAttributes {
            as_path: path.parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        RouteUpdate::announce(t, "84.205.64.0/24".parse().unwrap(), attrs)
    }

    fn sample_archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(1_584_230_400);
        let k1 = key(20_205, "192.0.2.9");
        let k2 = key(20_811, "192.0.2.10");
        a.record(&k1, announce(1_000_000, "20205 3356 12654"));
        a.record(&k1, RouteUpdate::withdraw(2_000_000, "84.205.64.0/24".parse().unwrap()));
        a.record(&k2, announce(1_500_000, "20811 3356 12654"));
        a
    }

    #[test]
    fn archive_source_roundtrips() {
        let a = sample_archive();
        let mut src = ArchiveSource::new(&a);
        let b = UpdateArchive::from_source(&mut src, a.epoch_seconds).unwrap();
        assert_eq!(b.session_count(), a.session_count());
        let k1 = key(20_205, "192.0.2.9");
        assert_eq!(b.session(&k1).unwrap().updates, a.session(&k1).unwrap().updates);
    }

    #[test]
    fn archive_source_announces_sessions_first() {
        let a = sample_archive();
        let mut src = ArchiveSource::new(&a);
        let mut seen_update = false;
        let mut sessions = 0;
        while let Some(item) = src.next_item().unwrap() {
            match item {
                SourceItem::Session(_) => {
                    assert!(!seen_update, "session announcements must precede updates");
                    sessions += 1;
                }
                SourceItem::Update(..) => seen_update = true,
            }
        }
        assert_eq!(sessions, 2);
    }

    #[test]
    fn archive_source_includes_empty_sessions() {
        let mut a = UpdateArchive::new(0);
        a.add_session(PeerMeta::normal(key(1, "10.0.0.1")));
        let mut src = ArchiveSource::new(&a);
        let item = src.next_item().unwrap().unwrap();
        assert!(matches!(item, SourceItem::Session(_)));
        assert!(src.next_item().unwrap().is_none());
    }

    #[test]
    fn mrt_source_session_announced_before_first_update() {
        let a = sample_archive();
        let mut bytes = Vec::new();
        a.write_mrt(&mut bytes).unwrap();
        let mut src = MrtSource::new(&bytes[..], "rrc00", a.epoch_seconds);
        let mut known: Vec<SessionKey> = Vec::new();
        while let Some(item) = src.next_item().unwrap() {
            match item {
                SourceItem::Session(meta) => {
                    assert!(!known.contains(&meta.key), "double announcement");
                    known.push(meta.key.clone());
                }
                SourceItem::Update(meta, _) => {
                    assert!(known.contains(&meta.key), "update before session announcement");
                }
            }
        }
        assert_eq!(known.len(), 2);
    }

    #[test]
    fn mrt_source_route_server_override() {
        let a = sample_archive();
        let mut bytes = Vec::new();
        a.write_mrt(&mut bytes).unwrap();
        let rs: IpAddr = "192.0.2.9".parse().unwrap();
        let mut src = MrtSource::new(&bytes[..], "rrc00", a.epoch_seconds)
            .with_route_servers([(Asn(20_205), rs)]);
        let streamed = UpdateArchive::from_source(&mut src, a.epoch_seconds).unwrap();
        assert!(streamed.session(&key(20_205, "192.0.2.9")).unwrap().meta.route_server);
        assert!(!streamed.session(&key(20_811, "192.0.2.10")).unwrap().meta.route_server);
    }

    #[test]
    fn mrt_source_pre_epoch_strict_and_clamped() {
        let a = sample_archive(); // epoch 1_584_230_400, updates at +1s/+1.5s/+2s
        let mut bytes = Vec::new();
        a.write_mrt(&mut bytes).unwrap();

        // An epoch after the first record: strict mode errors…
        let late_epoch = a.epoch_seconds + 2;
        let mut strict = MrtSource::new(&bytes[..], "rrc00", late_epoch);
        let mut err = None;
        loop {
            match strict.next_item() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(SourceError::Mrt(MrtError::PreEpochRecord { .. }))));

        // …the documented clamp accepts and counts.
        let mut clamped = MrtSource::new(&bytes[..], "rrc00", late_epoch).with_pre_epoch_clamp();
        while clamped.next_item().unwrap().is_some() {}
        assert_eq!(clamped.pre_epoch_clamped(), 2, "records at +1s and +1.5s precede +2s");
    }

    #[test]
    fn second_granularity_carried_per_session() {
        let mut a = UpdateArchive::new(100);
        let k = key(20_205, "192.0.2.9");
        a.add_session(PeerMeta { key: k.clone(), route_server: false, second_granularity: true });
        a.record(&k, announce(1_000_000, "20205 12654"));
        let mut bytes = Vec::new();
        a.write_mrt(&mut bytes).unwrap();
        let mut src = MrtSource::new(&bytes[..], "rrc00", 100);
        let streamed = UpdateArchive::from_source(&mut src, 100).unwrap();
        assert!(streamed.session(&k).unwrap().meta.second_granularity);
    }
}
