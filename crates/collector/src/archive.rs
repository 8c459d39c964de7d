//! Per-session update archives with MRT import/export.
//!
//! An [`UpdateArchive`] is the in-memory form of "one day of updates at
//! one collector": per-session streams of per-prefix updates in arrival
//! order. Archives round-trip through MRT so simulated and generated data
//! flow through exactly the pipeline a RouteViews/RIS download would.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr};

use kcc_bgp_types::{Asn, MessageKind, RouteUpdate};
use kcc_bgp_wire::{Message, UpdatePacket};
use kcc_mrt::{Bgp4mpMessage, MrtError, MrtRecord, MrtTimestamp, MrtWriter};

use crate::session::{PeerMeta, SessionKey};
use crate::source::{MrtSource, SourceError, SourceItem, UpdateSource};

/// The collector's own ASN used in exported MRT records (value is
/// irrelevant to the analysis; RIPE NCC's AS3333 is used for flavor).
pub const COLLECTOR_ASN: Asn = Asn(3333);

/// One session's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Peer metadata.
    pub meta: PeerMeta,
    /// Updates in arrival order.
    pub updates: Vec<RouteUpdate>,
}

/// A collector-day of updates, organized per session.
#[derive(Debug, Clone, Default)]
pub struct UpdateArchive {
    /// UNIX epoch (seconds) of archive time zero; update `time_us` fields
    /// are relative to it.
    pub epoch_seconds: u32,
    sessions: BTreeMap<SessionKey, SessionRecord>,
}

impl UpdateArchive {
    /// An empty archive anchored at `epoch_seconds`.
    pub fn new(epoch_seconds: u32) -> Self {
        UpdateArchive { epoch_seconds, sessions: BTreeMap::new() }
    }

    /// Registers a session with metadata (idempotent).
    pub fn add_session(&mut self, meta: PeerMeta) {
        self.sessions
            .entry(meta.key.clone())
            .or_insert_with(|| SessionRecord { meta: meta.clone(), updates: Vec::new() });
    }

    /// Appends an update to a session, creating it with default metadata
    /// if needed.
    pub fn record(&mut self, key: &SessionKey, update: RouteUpdate) {
        self.sessions
            .entry(key.clone())
            .or_insert_with(|| SessionRecord {
                meta: PeerMeta::normal(key.clone()),
                updates: Vec::new(),
            })
            .updates
            .push(update);
    }

    /// All sessions in key order.
    pub fn sessions(&self) -> impl Iterator<Item = (&SessionKey, &SessionRecord)> {
        self.sessions.iter()
    }

    /// Mutable session iteration (cleaning passes).
    pub fn sessions_mut(&mut self) -> impl Iterator<Item = (&SessionKey, &mut SessionRecord)> {
        self.sessions.iter_mut()
    }

    /// One session's record.
    pub fn session(&self, key: &SessionKey) -> Option<&SessionRecord> {
        self.sessions.get(key)
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Total updates across sessions.
    pub fn update_count(&self) -> usize {
        self.sessions.values().map(|s| s.updates.len()).sum()
    }

    /// Writes the archive as an MRT stream: all sessions' updates merged
    /// in time order. Sessions flagged `second_granularity` are written as
    /// plain `BGP4MP` (whole seconds); the rest as `BGP4MP_ET`.
    pub fn write_mrt<W: Write>(&self, w: W) -> Result<u64, MrtError> {
        let mut writer = MrtWriter::new(w);
        // Merge by (time, session order) without materializing per-session
        // copies: collect (time, key, index) triples.
        let mut index: Vec<(u64, &SessionKey, usize)> = Vec::with_capacity(self.update_count());
        for (key, rec) in &self.sessions {
            for (i, u) in rec.updates.iter().enumerate() {
                index.push((u.time_us, key, i));
            }
        }
        index.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)).then(a.2.cmp(&b.2)));
        for (_, key, i) in index {
            let rec = &self.sessions[key];
            writer.write_record(&mrt_record_for(&rec.meta, self.epoch_seconds, &rec.updates[i]))?;
        }
        writer.flush()?;
        Ok(writer.records_written())
    }

    /// Reads an MRT stream back into an archive. `collector` names the
    /// collector the stream came from; `epoch_seconds` anchors relative
    /// time. Materializes an [`MrtSource`], so the batch and streaming
    /// readers cannot diverge: records timestamped before the epoch
    /// surface [`MrtError::PreEpochRecord`] here too instead of silently
    /// collapsing onto relative time 0 (callers that knowingly use a
    /// mid-day epoch stream through [`MrtSource::with_pre_epoch_clamp`]
    /// instead).
    pub fn read_mrt<R: Read>(
        r: R,
        collector: &str,
        epoch_seconds: u32,
    ) -> Result<Self, SourceError> {
        Self::from_source(&mut MrtSource::new(r, collector, epoch_seconds), epoch_seconds)
    }

    /// Flattens to `(key, update)` pairs in global time order.
    pub fn all_updates(&self) -> Vec<(SessionKey, RouteUpdate)> {
        let mut v: Vec<(SessionKey, RouteUpdate)> = self
            .sessions
            .iter()
            .flat_map(|(k, rec)| rec.updates.iter().map(move |u| (k.clone(), u.clone())))
            .collect();
        v.sort_by(|a, b| a.1.time_us.cmp(&b.1.time_us).then(a.0.cmp(&b.0)));
        v
    }

    /// Counts announcements (vs. withdrawals).
    pub fn announcement_count(&self) -> usize {
        self.sessions
            .values()
            .flat_map(|s| &s.updates)
            .filter(|u| matches!(u.kind, MessageKind::Announcement(_)))
            .count()
    }

    /// Counts withdrawals.
    pub fn withdrawal_count(&self) -> usize {
        self.update_count() - self.announcement_count()
    }
}

/// Builds the MRT record for one update on one session — the unit the
/// streaming writers emit without materializing an archive. Sessions
/// flagged `second_granularity` become plain `BGP4MP` records (whole
/// seconds); the rest `BGP4MP_ET`.
pub fn mrt_record_for(meta: &PeerMeta, epoch_seconds: u32, update: &RouteUpdate) -> MrtRecord {
    let key = &meta.key;
    let seconds = epoch_seconds + (update.time_us / 1_000_000) as u32;
    let timestamp = if meta.second_granularity {
        MrtTimestamp::seconds(seconds)
    } else {
        MrtTimestamp::micros(seconds, (update.time_us % 1_000_000) as u32)
    };
    let local_ip = collector_ip(&key.collector);
    MrtRecord::Message(Bgp4mpMessage {
        timestamp,
        peer_asn: key.peer_asn,
        local_asn: COLLECTOR_ASN,
        ifindex: 0,
        peer_ip: key.peer_ip,
        local_ip: ip_family_match(local_ip, key.peer_ip),
        message: Message::Update(UpdatePacket::from_route_update(update)),
    })
}

/// Drains `source` into `w` as MRT, one [`mrt_record_for`] record per
/// update in source order, and flushes. Returns the updates written.
/// Holds nothing beyond what the source itself keeps resident.
pub fn write_mrt_from<S: UpdateSource, W: Write>(
    source: &mut S,
    epoch_seconds: u32,
    w: W,
) -> Result<u64, SourceError> {
    let mut writer = MrtWriter::new(w);
    while let Some(item) = source.next_item()? {
        if let SourceItem::Update(meta, update) = item {
            writer.write_record(&mrt_record_for(&meta, epoch_seconds, &update))?;
        }
    }
    writer.flush()?;
    Ok(writer.records_written())
}

/// A deterministic collector address from its name.
fn collector_ip(name: &str) -> IpAddr {
    let h: u32 = name.bytes().fold(5381u32, |acc, b| acc.wrapping_mul(33).wrapping_add(b as u32));
    IpAddr::V4(Ipv4Addr::new(198, 51, ((h >> 8) & 0xFF) as u8, (h & 0xFF) as u8))
}

/// MRT BGP4MP requires both addresses in one family; coerce the collector
/// side to match the peer.
fn ip_family_match(local: IpAddr, peer: IpAddr) -> IpAddr {
    match (local, peer) {
        (IpAddr::V4(v4), IpAddr::V6(_)) => IpAddr::V6(v4.to_ipv6_mapped()),
        (l, _) => l,
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
        let mut a = UpdateArchive::new(1_584_230_400); // 2020-03-15 00:00 UTC
        let k1 = key(20_205, "192.0.2.9");
        let k2 = key(20_811, "192.0.2.10");
        a.record(&k1, announce(1_000_000, "20205 3356 12654"));
        a.record(&k1, RouteUpdate::withdraw(2_000_000, "84.205.64.0/24".parse().unwrap()));
        a.record(&k2, announce(1_500_000, "20811 3356 12654"));
        a
    }

    #[test]
    fn counts() {
        let a = sample_archive();
        assert_eq!(a.session_count(), 2);
        assert_eq!(a.update_count(), 3);
        assert_eq!(a.announcement_count(), 2);
        assert_eq!(a.withdrawal_count(), 1);
    }

    #[test]
    fn all_updates_in_time_order() {
        let a = sample_archive();
        let all = a.all_updates();
        let times: Vec<u64> = all.iter().map(|(_, u)| u.time_us).collect();
        assert_eq!(times, vec![1_000_000, 1_500_000, 2_000_000]);
    }

    #[test]
    fn mrt_roundtrip_preserves_streams() {
        let a = sample_archive();
        let mut buf = Vec::new();
        let written = a.write_mrt(&mut buf).unwrap();
        assert_eq!(written, 3);

        let b = UpdateArchive::read_mrt(&buf[..], "rrc00", a.epoch_seconds).unwrap();
        assert_eq!(b.session_count(), 2);
        assert_eq!(b.update_count(), 3);
        let k1 = key(20_205, "192.0.2.9");
        assert_eq!(b.session(&k1).unwrap().updates, a.session(&k1).unwrap().updates);
    }

    #[test]
    fn second_granularity_sessions_lose_micros() {
        let mut a = UpdateArchive::new(100);
        let k = key(20_205, "192.0.2.9");
        a.add_session(PeerMeta { key: k.clone(), route_server: false, second_granularity: true });
        a.record(&k, announce(1_234_567, "20205 12654"));
        let mut buf = Vec::new();
        a.write_mrt(&mut buf).unwrap();
        let b = UpdateArchive::read_mrt(&buf[..], "rrc00", 100).unwrap();
        let u = &b.session(&k).unwrap().updates[0];
        assert_eq!(u.time_us, 1_000_000, "micros truncated by the collector");
        assert!(b.session(&k).unwrap().meta.second_granularity);
    }

    #[test]
    fn v6_peer_sessions_roundtrip() {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new("rrc00", Asn(20_205), "2001:db8::9".parse().unwrap());
        let attrs = PathAttributes {
            as_path: "20205 12654".parse().unwrap(),
            next_hop: "2001:db8::1".parse().unwrap(),
            ..Default::default()
        };
        a.record(&k, RouteUpdate::announce(500, "2001:7fb:fe00::/48".parse().unwrap(), attrs));
        let mut buf = Vec::new();
        a.write_mrt(&mut buf).unwrap();
        let b = UpdateArchive::read_mrt(&buf[..], "rrc00", 0).unwrap();
        assert_eq!(b.session(&k).unwrap().updates.len(), 1);
        assert!(b.session(&k).unwrap().updates[0].prefix.is_ipv6());
    }

    #[test]
    fn empty_archive_roundtrips() {
        let a = UpdateArchive::new(7);
        let mut buf = Vec::new();
        assert_eq!(a.write_mrt(&mut buf).unwrap(), 0);
        let b = UpdateArchive::read_mrt(&buf[..], "rrc00", 7).unwrap();
        assert_eq!(b.update_count(), 0);
    }
}
