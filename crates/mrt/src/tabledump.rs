//! TABLE_DUMP_V2 record bodies (RFC 6396 §4.3).

use std::net::{IpAddr, Ipv4Addr};

use bytes::{BufMut, BytesMut};
use kcc_bgp_types::{Asn, PathAttributes, Prefix};
use kcc_bgp_wire::attr::{decode_attributes, encode_attributes};
use kcc_bgp_wire::nlri::{decode_prefix, encode_prefix, Afi};
use kcc_bgp_wire::{cursor, SessionConfig};

use crate::error::MrtError;
use crate::record::MrtTimestamp;

/// TABLE_DUMP_V2 subtype codes.
pub mod subtypes {
    /// PEER_INDEX_TABLE.
    pub const PEER_INDEX_TABLE: u16 = 1;
    /// RIB_IPV4_UNICAST.
    pub const RIB_IPV4_UNICAST: u16 = 2;
    /// RIB_IPV6_UNICAST.
    pub const RIB_IPV6_UNICAST: u16 = 4;
}

/// One peer in the PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// The peer's address.
    pub addr: IpAddr,
    /// The peer's ASN.
    pub asn: Asn,
}

/// The PEER_INDEX_TABLE: collector identity plus the peer list that RIB
/// entries index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerIndexTable {
    /// Record timestamp.
    pub timestamp: MrtTimestamp,
    /// Collector BGP identifier.
    pub collector_id: Ipv4Addr,
    /// Optional view name.
    pub view_name: String,
    /// The peers.
    pub peers: Vec<PeerEntry>,
}

/// One peer's route for the snapshot prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RibEntry {
    /// Index into the PEER_INDEX_TABLE.
    pub peer_index: u16,
    /// When the route was received (seconds).
    pub originated_time: u32,
    /// The route's attributes.
    pub attrs: PathAttributes,
}

/// A RIB_IPVx_UNICAST record: all peers' routes for one prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RibSnapshot {
    /// Record timestamp.
    pub timestamp: MrtTimestamp,
    /// Sequence number within the dump.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Prefix,
    /// Per-peer entries.
    pub entries: Vec<RibEntry>,
}

impl PeerIndexTable {
    /// Encodes the record body.
    pub fn encode_body(&self, buf: &mut BytesMut) -> Result<(), MrtError> {
        buf.put_slice(&self.collector_id.octets());
        buf.put_u16(self.view_name.len() as u16);
        buf.put_slice(self.view_name.as_bytes());
        buf.put_u16(self.peers.len() as u16);
        for p in &self.peers {
            let v6 = p.addr.is_ipv6();
            let as4 = !p.asn.is_16bit();
            // RFC 6396: bit 0 = address family, bit 1 = AS width. We always
            // write 4-octet ASNs (bit 1 set) for uniformity when needed.
            let peer_type = (v6 as u8) | ((as4 as u8) << 1);
            buf.put_u8(peer_type);
            buf.put_slice(&p.bgp_id.octets());
            match p.addr {
                IpAddr::V4(a) => buf.put_slice(&a.octets()),
                IpAddr::V6(a) => buf.put_slice(&a.octets()),
            }
            if as4 {
                buf.put_u32(p.asn.value());
            } else {
                // Guarded by the `as4` flag above, but spelled as the
                // RFC 6793 collapse rather than a silent truncation.
                buf.put_u16(p.asn.to_16bit_wire());
            }
        }
        Ok(())
    }

    /// Decodes a record body.
    pub fn decode_body(timestamp: MrtTimestamp, mut body: &[u8]) -> Result<Self, MrtError> {
        if body.len() < 8 {
            return Err(MrtError::Truncated("peer index table header"));
        }
        let id: [u8; 4] = cursor::array(&mut body);
        let name_len = cursor::u16(&mut body) as usize;
        if body.len() < name_len + 2 {
            return Err(MrtError::Truncated("peer index table view name"));
        }
        let view_name = String::from_utf8_lossy(cursor::take(&mut body, name_len)).into_owned();
        let count = cursor::u16(&mut body) as usize;
        // Sized by what the body can hold (≥ 9 bytes a peer), not by the
        // count field alone, so a corrupt count allocates nothing extra.
        let mut peers = Vec::with_capacity(count.min(body.len() / 9));
        for _ in 0..count {
            if body.len() < 9 {
                return Err(MrtError::Truncated("peer entry"));
            }
            let peer_type = cursor::u8(&mut body);
            let bgp_id: [u8; 4] = cursor::array(&mut body);
            let addr: IpAddr = if peer_type & 1 != 0 {
                if body.len() < 16 {
                    return Err(MrtError::Truncated("peer v6 address"));
                }
                IpAddr::from(cursor::array::<16>(&mut body))
            } else {
                if body.len() < 4 {
                    return Err(MrtError::Truncated("peer v4 address"));
                }
                IpAddr::from(cursor::array::<4>(&mut body))
            };
            let asn = if peer_type & 2 != 0 {
                if body.len() < 4 {
                    return Err(MrtError::Truncated("peer 4-octet ASN"));
                }
                Asn(cursor::u32(&mut body))
            } else {
                if body.len() < 2 {
                    return Err(MrtError::Truncated("peer 2-octet ASN"));
                }
                Asn(cursor::u16(&mut body) as u32)
            };
            peers.push(PeerEntry { bgp_id: Ipv4Addr::from(bgp_id), addr, asn });
        }
        Ok(PeerIndexTable { timestamp, collector_id: Ipv4Addr::from(id), view_name, peers })
    }
}

impl RibSnapshot {
    /// The subtype this record encodes as, from the prefix family.
    pub fn subtype(&self) -> u16 {
        if self.prefix.is_ipv4() {
            subtypes::RIB_IPV4_UNICAST
        } else {
            subtypes::RIB_IPV6_UNICAST
        }
    }

    /// Encodes the record body. RIB attribute blocks always use 4-octet
    /// ASNs (RFC 6396 §4.3.4).
    pub fn encode_body(&self, buf: &mut BytesMut) -> Result<(), MrtError> {
        buf.put_u32(self.sequence);
        encode_prefix(&self.prefix, buf);
        buf.put_u16(self.entries.len() as u16);
        let cfg = SessionConfig { four_octet_as: true };
        for e in &self.entries {
            buf.put_u16(e.peer_index);
            buf.put_u32(e.originated_time);
            let mut attrs = BytesMut::new();
            let include_next_hop = self.prefix.is_ipv4();
            encode_attributes(&e.attrs, &[], &[], &[], include_next_hop, &cfg, &mut attrs);
            // IPv6 entries carry their next hop in a next-hop-only
            // MP_REACH_NLRI (RFC 6396 §4.3.4); IPv4 next hops (dual-stack
            // simplification) ride as v4-mapped v6 addresses.
            if !include_next_hop {
                let nh6 = match e.attrs.next_hop {
                    std::net::IpAddr::V6(nh) => nh,
                    std::net::IpAddr::V4(nh) => nh.to_ipv6_mapped(),
                };
                kcc_bgp_wire::attr::encode_mp_next_hop_only(nh6, &mut attrs);
            }
            buf.put_u16(attrs.len() as u16);
            buf.put_slice(&attrs);
        }
        Ok(())
    }

    /// Decodes a record body.
    pub fn decode_body(
        timestamp: MrtTimestamp,
        subtype: u16,
        mut body: &[u8],
    ) -> Result<Self, MrtError> {
        if body.len() < 4 {
            return Err(MrtError::Truncated("RIB sequence"));
        }
        let sequence = cursor::u32(&mut body);
        let afi = if subtype == subtypes::RIB_IPV4_UNICAST { Afi::Ipv4 } else { Afi::Ipv6 };
        let prefix = decode_prefix(afi, &mut body)?;
        if body.len() < 2 {
            return Err(MrtError::Truncated("RIB entry count"));
        }
        let count = cursor::u16(&mut body) as usize;
        let cfg = SessionConfig { four_octet_as: true };
        // Sized by what the body can hold (≥ 8 bytes an entry), not by the
        // count field alone, so a corrupt count allocates nothing extra.
        let mut entries = Vec::with_capacity(count.min(body.len() / 8));
        for _ in 0..count {
            if body.len() < 8 {
                return Err(MrtError::Truncated("RIB entry header"));
            }
            let peer_index = cursor::u16(&mut body);
            let originated_time = cursor::u32(&mut body);
            let attr_len = cursor::u16(&mut body) as usize;
            let decoded = decode_attributes(&mut body, attr_len, &cfg)?;
            entries.push(RibEntry { peer_index, originated_time, attrs: decoded.attrs });
        }
        Ok(RibSnapshot { timestamp, sequence, prefix, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer_table() -> PeerIndexTable {
        PeerIndexTable {
            timestamp: MrtTimestamp::seconds(1_584_230_400),
            collector_id: "198.51.100.1".parse().unwrap(),
            view_name: "rrc00-synth".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: "10.0.0.1".parse().unwrap(),
                    addr: "192.0.2.1".parse().unwrap(),
                    asn: Asn(20_205),
                },
                PeerEntry {
                    bgp_id: "10.0.0.2".parse().unwrap(),
                    addr: "2001:db8::2".parse().unwrap(),
                    asn: Asn(196_615),
                },
            ],
        }
    }

    #[test]
    fn peer_index_roundtrip() {
        let t = peer_table();
        let mut buf = BytesMut::new();
        t.encode_body(&mut buf).unwrap();
        let d = PeerIndexTable::decode_body(t.timestamp, &buf).unwrap();
        assert_eq!(d, t);
    }

    #[test]
    fn rib_snapshot_roundtrip_v4() {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let r = RibSnapshot {
            timestamp: MrtTimestamp::seconds(1_584_230_400),
            sequence: 7,
            prefix: "84.205.64.0/24".parse().unwrap(),
            entries: vec![RibEntry { peer_index: 0, originated_time: 1_584_000_000, attrs }],
        };
        assert_eq!(r.subtype(), subtypes::RIB_IPV4_UNICAST);
        let mut buf = BytesMut::new();
        r.encode_body(&mut buf).unwrap();
        let d = RibSnapshot::decode_body(r.timestamp, r.subtype(), &buf).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn rib_snapshot_roundtrip_v6() {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            next_hop: "2001:db8::1".parse().unwrap(),
            ..Default::default()
        };
        let r = RibSnapshot {
            timestamp: MrtTimestamp::seconds(0),
            sequence: 0,
            prefix: "2001:7fb:fe00::/48".parse().unwrap(),
            entries: vec![RibEntry { peer_index: 3, originated_time: 99, attrs }],
        };
        assert_eq!(r.subtype(), subtypes::RIB_IPV6_UNICAST);
        let mut buf = BytesMut::new();
        r.encode_body(&mut buf).unwrap();
        let d = RibSnapshot::decode_body(r.timestamp, r.subtype(), &buf).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn empty_rib_snapshot() {
        let r = RibSnapshot {
            timestamp: MrtTimestamp::seconds(0),
            sequence: 1,
            prefix: "10.0.0.0/8".parse().unwrap(),
            entries: vec![],
        };
        let mut buf = BytesMut::new();
        r.encode_body(&mut buf).unwrap();
        let d = RibSnapshot::decode_body(r.timestamp, r.subtype(), &buf).unwrap();
        assert!(d.entries.is_empty());
    }

    #[test]
    fn truncated_peer_table_rejected() {
        let t = peer_table();
        let mut buf = BytesMut::new();
        t.encode_body(&mut buf).unwrap();
        let short = &buf[..buf.len() - 3];
        assert!(matches!(
            PeerIndexTable::decode_body(t.timestamp, short),
            Err(MrtError::Truncated(_))
        ));
    }
}
