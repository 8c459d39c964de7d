//! Bridges between the simulator and the analysis pipeline.
//!
//! A simulated collector records [`kcc_bgp_sim::CapturedUpdate`]s; the
//! analysis pipeline consumes [`kcc_collector::UpdateArchive`]s. The
//! adapter converts one into the other, naming sessions the way real
//! collectors do (`collector:ASn@ip`), so every downstream stage —
//! cleaning, classification, beacon phases — is agnostic about whether
//! its input came from the simulator, the trace generator, or an MRT file.

use std::collections::HashMap;
use std::sync::Arc;

use kcc_bgp_sim::{Capture, CapturedUpdate, Network};
use kcc_collector::{PeerMeta, SessionKey, SourceError, SourceItem, UpdateArchive, UpdateSource};
use kcc_topology::RouterId;

/// Streams a simulator capture as an [`UpdateSource`]: one pipeline item
/// per captured message, sessions discovered on first sight — the same
/// shape an MRT byte stream presents, so simulated traffic drives the
/// streaming analysis pipeline directly.
#[derive(Debug)]
pub struct CaptureSource<'a> {
    net: &'a Network,
    collector_name: String,
    entries: std::slice::Iter<'a, CapturedUpdate>,
    sessions: HashMap<SessionKey, Arc<PeerMeta>>,
    pending: Option<SourceItem>,
}

impl<'a> CaptureSource<'a> {
    /// Wraps one collector's capture; `net` resolves peer router IPs.
    pub fn new(net: &'a Network, collector_name: &str, capture: &'a Capture) -> Self {
        CaptureSource {
            net,
            collector_name: collector_name.to_owned(),
            entries: capture.entries().iter(),
            sessions: HashMap::new(),
            pending: None,
        }
    }
}

impl UpdateSource for CaptureSource<'_> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        if let Some(item) = self.pending.take() {
            return Ok(Some(item));
        }
        let Some(entry) = self.entries.next() else {
            return Ok(None);
        };
        let peer_ip = self
            .net
            .router(entry.from)
            .map(|r| r.ip)
            .unwrap_or(std::net::IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
        let key = SessionKey::new(&self.collector_name, entry.from.asn, peer_ip);
        let update = entry.to_route_update();
        if let Some(meta) = self.sessions.get(&key) {
            return Ok(Some(SourceItem::Update(Arc::clone(meta), update)));
        }
        let meta = Arc::new(PeerMeta::normal(key.clone()));
        self.sessions.insert(key, Arc::clone(&meta));
        self.pending = Some(SourceItem::Update(Arc::clone(&meta), update));
        Ok(Some(SourceItem::Session(meta)))
    }
}

/// Converts one collector's capture into an archive — the batch wrapper
/// over [`CaptureSource`]. Sessions are keyed by the sending peer's AS
/// and router IP.
pub fn capture_to_archive(
    net: &Network,
    collector_name: &str,
    capture: &Capture,
    epoch_seconds: u32,
) -> UpdateArchive {
    let mut source = CaptureSource::new(net, collector_name, capture);
    UpdateArchive::from_source(&mut source, epoch_seconds).expect("capture sources cannot fail")
}

/// Dumps a collector's per-peer routing table as TABLE_DUMP_V2 MRT
/// records (PEER_INDEX_TABLE first, then one RIB snapshot per prefix) —
/// the "bview" files RouteViews/RIS publish alongside update archives.
pub fn dump_rib(
    net: &Network,
    collector: RouterId,
    view_name: &str,
    timestamp_seconds: u32,
) -> Vec<kcc_mrt::MrtRecord> {
    use kcc_mrt::{MrtRecord, MrtTimestamp, PeerEntry, PeerIndexTable, RibEntry, RibSnapshot};
    use std::collections::BTreeMap;

    let Some(router) = net.router(collector) else {
        return Vec::new();
    };
    let ts = MrtTimestamp::seconds(timestamp_seconds);

    // Peer table: every session endpoint facing the collector, in a
    // stable order; remember each session's index.
    let mut peers: Vec<PeerEntry> = Vec::new();
    let mut index_of_session: BTreeMap<usize, u16> = BTreeMap::new();
    for &sid in &router.sessions {
        let session = &net.sessions()[sid.0];
        let peer_router = session.other(collector);
        let Some(peer) = net.router(peer_router) else { continue };
        index_of_session.insert(sid.0, peers.len() as u16);
        let bgp_id = match peer.ip {
            std::net::IpAddr::V4(v4) => v4,
            std::net::IpAddr::V6(_) => std::net::Ipv4Addr::UNSPECIFIED,
        };
        peers.push(PeerEntry { bgp_id, addr: peer.ip, asn: peer_router.asn });
    }
    let collector_id = match router.ip {
        std::net::IpAddr::V4(v4) => v4,
        std::net::IpAddr::V6(_) => std::net::Ipv4Addr::UNSPECIFIED,
    };
    let mut records = vec![MrtRecord::PeerIndexTable(PeerIndexTable {
        timestamp: ts,
        collector_id,
        view_name: view_name.to_owned(),
        peers,
    })];

    // RIB snapshots: group the collector's Adj-RIB-In by prefix.
    let mut by_prefix: BTreeMap<kcc_bgp_types::Prefix, Vec<RibEntry>> = BTreeMap::new();
    for ((sid, prefix), entry) in router.adj_rib_in() {
        let Some(&peer_index) = index_of_session.get(&sid.0) else { continue };
        // The MRT archive mutates next hops per prefix family, so this is
        // one of the few places that deep-copies out of the interned store.
        let mut attrs = kcc_bgp_types::PathAttributes::clone(&entry.attrs);
        // TABLE_DUMP_V2 carries IPv6 next hops for IPv6 prefixes; the
        // simulator's v4 router addresses become v4-mapped v6 addresses,
        // exactly as the MRT encoder will serialize them.
        if prefix.is_ipv6() {
            if let std::net::IpAddr::V4(v4) = attrs.next_hop {
                attrs.next_hop = std::net::IpAddr::V6(v4.to_ipv6_mapped());
            }
        }
        by_prefix.entry(prefix).or_default().push(RibEntry {
            peer_index,
            originated_time: timestamp_seconds,
            attrs,
        });
    }
    for (sequence, (prefix, mut entries)) in by_prefix.into_iter().enumerate() {
        entries.sort_by_key(|e| e.peer_index);
        records.push(MrtRecord::RibSnapshot(RibSnapshot {
            timestamp: ts,
            sequence: sequence as u32,
            prefix,
            entries,
        }));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_sim::lab::{build_lab, LabExperiment, LabNetwork};
    use kcc_bgp_sim::{SimTime, VendorProfile};

    #[test]
    fn lab_capture_converts_to_archive() {
        let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp2, VendorProfile::BIRD_2);
        net.schedule_announce(SimTime::ZERO, ids.z1, kcc_bgp_sim::lab::lab_prefix());
        net.run_until_quiet();
        let capture = net.capture(ids.c1).unwrap().clone();
        let archive = capture_to_archive(&net, "rrc00", &capture, 0);
        assert_eq!(archive.session_count(), 1);
        assert!(archive.announcement_count() >= 1);
        let (key, _) = archive.sessions().next().unwrap();
        assert_eq!(key.collector, "rrc00");
        assert_eq!(key.peer_asn, ids.x1.asn);
    }
}
