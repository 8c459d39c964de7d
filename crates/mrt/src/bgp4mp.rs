//! BGP4MP record bodies (RFC 6396 §4.2–4.4).

use std::net::IpAddr;

use bytes::{BufMut, BytesMut};
use kcc_bgp_types::Asn;
use kcc_bgp_wire::{cursor, decode_message, encode_message, Message, SessionConfig};

use crate::error::MrtError;
use crate::record::MrtTimestamp;

/// BGP4MP subtype codes.
pub mod subtypes {
    /// STATE_CHANGE (2-octet ASNs).
    pub const STATE_CHANGE: u16 = 0;
    /// MESSAGE (2-octet ASNs).
    pub const MESSAGE: u16 = 1;
    /// MESSAGE_AS4 (4-octet ASNs).
    pub const MESSAGE_AS4: u16 = 4;
    /// STATE_CHANGE_AS4.
    pub const STATE_CHANGE_AS4: u16 = 5;
}

/// BGP FSM states as used in STATE_CHANGE records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpState {
    /// Idle (1).
    Idle,
    /// Connect (2).
    Connect,
    /// Active (3).
    Active,
    /// OpenSent (4).
    OpenSent,
    /// OpenConfirm (5).
    OpenConfirm,
    /// Established (6).
    Established,
}

impl BgpState {
    /// Wire value.
    pub const fn code(self) -> u16 {
        match self {
            BgpState::Idle => 1,
            BgpState::Connect => 2,
            BgpState::Active => 3,
            BgpState::OpenSent => 4,
            BgpState::OpenConfirm => 5,
            BgpState::Established => 6,
        }
    }

    /// From wire value.
    pub const fn from_code(c: u16) -> Option<Self> {
        match c {
            1 => Some(BgpState::Idle),
            2 => Some(BgpState::Connect),
            3 => Some(BgpState::Active),
            4 => Some(BgpState::OpenSent),
            5 => Some(BgpState::OpenConfirm),
            6 => Some(BgpState::Established),
            _ => None,
        }
    }
}

/// A BGP4MP MESSAGE(_AS4) record: one BGP message observed on one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Bgp4mpMessage {
    /// Record timestamp.
    pub timestamp: MrtTimestamp,
    /// The peer's ASN.
    pub peer_asn: Asn,
    /// The collector's ASN.
    pub local_asn: Asn,
    /// Interface index (usually 0 in collector output).
    pub ifindex: u16,
    /// The peer's address.
    pub peer_ip: IpAddr,
    /// The collector's address.
    pub local_ip: IpAddr,
    /// The embedded BGP message.
    pub message: Message,
}

/// A BGP4MP STATE_CHANGE(_AS4) record.
#[derive(Debug, Clone, PartialEq)]
pub struct Bgp4mpStateChange {
    /// Record timestamp.
    pub timestamp: MrtTimestamp,
    /// The peer's ASN.
    pub peer_asn: Asn,
    /// The collector's ASN.
    pub local_asn: Asn,
    /// Interface index.
    pub ifindex: u16,
    /// The peer's address.
    pub peer_ip: IpAddr,
    /// The collector's address.
    pub local_ip: IpAddr,
    /// State before the transition.
    pub old_state: BgpState,
    /// State after the transition.
    pub new_state: BgpState,
}

fn put_ip_pair<B: BufMut>(buf: &mut B, peer: IpAddr, local: IpAddr) -> Result<(), MrtError> {
    match (peer, local) {
        (IpAddr::V4(p), IpAddr::V4(l)) => {
            buf.put_u16(1); // AFI IPv4
            buf.put_slice(&p.octets());
            buf.put_slice(&l.octets());
            Ok(())
        }
        (IpAddr::V6(p), IpAddr::V6(l)) => {
            buf.put_u16(2); // AFI IPv6
            buf.put_slice(&p.octets());
            buf.put_slice(&l.octets());
            Ok(())
        }
        _ => Err(MrtError::BadField { what: "mixed-family session addresses", value: 0 }),
    }
}

fn get_ip_pair(body: &mut &[u8]) -> Result<(IpAddr, IpAddr), MrtError> {
    if body.len() < 2 {
        return Err(MrtError::Truncated("BGP4MP address family"));
    }
    let afi = cursor::u16(body);
    match afi {
        1 => {
            if body.len() < 8 {
                return Err(MrtError::Truncated("BGP4MP IPv4 addresses"));
            }
            let p: [u8; 4] = cursor::array(body);
            let l: [u8; 4] = cursor::array(body);
            Ok((IpAddr::from(p), IpAddr::from(l)))
        }
        2 => {
            if body.len() < 32 {
                return Err(MrtError::Truncated("BGP4MP IPv6 addresses"));
            }
            let p: [u8; 16] = cursor::array(body);
            let l: [u8; 16] = cursor::array(body);
            Ok((IpAddr::from(p), IpAddr::from(l)))
        }
        other => Err(MrtError::BadField { what: "BGP4MP AFI", value: other as u64 }),
    }
}

/// Reads the peer ASN, local ASN and interface index that open every
/// BGP4MP body, at the width `as4` selects; the caller has checked the
/// length.
fn get_asns(body: &mut &[u8], as4: bool) -> (Asn, Asn, u16) {
    let (peer_asn, local_asn) = if as4 {
        (Asn(cursor::u32(body)), Asn(cursor::u32(body)))
    } else {
        (Asn(cursor::u16(body) as u32), Asn(cursor::u16(body) as u32))
    };
    (peer_asn, local_asn, cursor::u16(body))
}

impl Bgp4mpMessage {
    /// The subtype this record encodes as. 4-octet ASNs force MESSAGE_AS4.
    pub fn subtype(&self) -> u16 {
        if self.peer_asn.is_16bit() && self.local_asn.is_16bit() {
            subtypes::MESSAGE
        } else {
            subtypes::MESSAGE_AS4
        }
    }

    /// Encodes the record body (everything after the MRT header) with the
    /// auto-selected [`Bgp4mpMessage::subtype`].
    pub fn encode_body(&self, buf: &mut BytesMut) -> Result<(), MrtError> {
        self.encode_body_as(self.subtype(), buf)
    }

    /// Encodes the record body for an explicit subtype — how a collector
    /// writes the legacy 2-octet `MESSAGE` form for a session that never
    /// negotiated 4-octet AS support. On the 2-octet form, ASNs above
    /// 65535 are emitted as `AS_TRANS` (23456) per RFC 6793 §4.2.2 —
    /// **not** truncated with `as u16` (which encoded AS 196608 as AS 0)
    /// — mirroring the AS_PATH/AS4_PATH and AGGREGATOR/AS4_AGGREGATOR
    /// handling in `kcc_bgp_wire`.
    pub fn encode_body_as(&self, subtype: u16, buf: &mut BytesMut) -> Result<(), MrtError> {
        let as4 = subtype == subtypes::MESSAGE_AS4;
        if as4 {
            buf.put_u32(self.peer_asn.value());
            buf.put_u32(self.local_asn.value());
        } else {
            buf.put_u16(self.peer_asn.to_16bit_wire());
            buf.put_u16(self.local_asn.to_16bit_wire());
        }
        buf.put_u16(self.ifindex);
        put_ip_pair(buf, self.peer_ip, self.local_ip)?;
        let cfg = SessionConfig { four_octet_as: as4 };
        encode_message(&self.message, &cfg, buf);
        Ok(())
    }

    /// Decodes a record body.
    pub fn decode_body(
        timestamp: MrtTimestamp,
        subtype: u16,
        mut body: &[u8],
    ) -> Result<Self, MrtError> {
        let as4 = subtype == subtypes::MESSAGE_AS4;
        let need = if as4 { 10 } else { 6 };
        if body.len() < need {
            return Err(MrtError::Truncated("BGP4MP message header"));
        }
        let (peer_asn, local_asn, ifindex) = get_asns(&mut body, as4);
        let (peer_ip, local_ip) = get_ip_pair(&mut body)?;
        let cfg = SessionConfig { four_octet_as: as4 };
        let message = decode_message(&mut body, &cfg)?;
        Ok(Bgp4mpMessage { timestamp, peer_asn, local_asn, ifindex, peer_ip, local_ip, message })
    }
}

impl Bgp4mpStateChange {
    /// The subtype this record encodes as.
    pub fn subtype(&self) -> u16 {
        if self.peer_asn.is_16bit() && self.local_asn.is_16bit() {
            subtypes::STATE_CHANGE
        } else {
            subtypes::STATE_CHANGE_AS4
        }
    }

    /// Encodes the record body with the auto-selected
    /// [`Bgp4mpStateChange::subtype`].
    pub fn encode_body(&self, buf: &mut BytesMut) -> Result<(), MrtError> {
        self.encode_body_as(self.subtype(), buf)
    }

    /// Encodes the record body for an explicit subtype. As with
    /// [`Bgp4mpMessage::encode_body_as`], 4-octet ASNs on the 2-octet
    /// `STATE_CHANGE` form become `AS_TRANS` (RFC 6793 §4.2.2) instead of
    /// being truncated.
    pub fn encode_body_as(&self, subtype: u16, buf: &mut BytesMut) -> Result<(), MrtError> {
        let as4 = subtype == subtypes::STATE_CHANGE_AS4;
        if as4 {
            buf.put_u32(self.peer_asn.value());
            buf.put_u32(self.local_asn.value());
        } else {
            buf.put_u16(self.peer_asn.to_16bit_wire());
            buf.put_u16(self.local_asn.to_16bit_wire());
        }
        buf.put_u16(self.ifindex);
        put_ip_pair(buf, self.peer_ip, self.local_ip)?;
        buf.put_u16(self.old_state.code());
        buf.put_u16(self.new_state.code());
        Ok(())
    }

    /// Decodes a record body.
    pub fn decode_body(
        timestamp: MrtTimestamp,
        subtype: u16,
        mut body: &[u8],
    ) -> Result<Self, MrtError> {
        let as4 = subtype == subtypes::STATE_CHANGE_AS4;
        let need = if as4 { 10 } else { 6 };
        if body.len() < need {
            return Err(MrtError::Truncated("BGP4MP state change header"));
        }
        let (peer_asn, local_asn, ifindex) = get_asns(&mut body, as4);
        let (peer_ip, local_ip) = get_ip_pair(&mut body)?;
        if body.len() < 4 {
            return Err(MrtError::Truncated("BGP4MP state codes"));
        }
        let old_raw = cursor::u16(&mut body);
        let new_raw = cursor::u16(&mut body);
        let old_state = BgpState::from_code(old_raw)
            .ok_or(MrtError::BadField { what: "old_state", value: old_raw as u64 })?;
        let new_state = BgpState::from_code(new_raw)
            .ok_or(MrtError::BadField { what: "new_state", value: new_raw as u64 })?;
        Ok(Bgp4mpStateChange {
            timestamp,
            peer_asn,
            local_asn,
            ifindex,
            peer_ip,
            local_ip,
            old_state,
            new_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::PathAttributes;
    use kcc_bgp_wire::UpdatePacket;

    fn sample_message(peer_asn: u32) -> Bgp4mpMessage {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        Bgp4mpMessage {
            timestamp: MrtTimestamp::micros(1_584_230_400, 42),
            peer_asn: Asn(peer_asn),
            local_asn: Asn(12_345),
            ifindex: 0,
            peer_ip: "192.0.2.99".parse().unwrap(),
            local_ip: "192.0.2.1".parse().unwrap(),
            message: Message::Update(UpdatePacket::announce(
                "84.205.64.0/24".parse().unwrap(),
                attrs,
            )),
        }
    }

    #[test]
    fn message_roundtrip_16bit() {
        let m = sample_message(20_205);
        assert_eq!(m.subtype(), subtypes::MESSAGE);
        let mut buf = BytesMut::new();
        m.encode_body(&mut buf).unwrap();
        let d = Bgp4mpMessage::decode_body(m.timestamp, m.subtype(), &buf).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn message_roundtrip_as4() {
        let m = sample_message(196_615);
        assert_eq!(m.subtype(), subtypes::MESSAGE_AS4);
        let mut buf = BytesMut::new();
        m.encode_body(&mut buf).unwrap();
        let d = Bgp4mpMessage::decode_body(m.timestamp, m.subtype(), &buf).unwrap();
        assert_eq!(d, m);
    }

    /// Regression: the 2-octet MESSAGE encoder truncated 4-byte ASNs with
    /// `as u16` (AS 196608 → AS 0). Per RFC 6793 §4.2.2 a 4-octet ASN on
    /// the 2-octet form must appear as AS_TRANS (23456) — and the real
    /// path still survives inside the embedded message via AS4_PATH.
    #[test]
    fn two_octet_message_collapses_big_asn_to_as_trans() {
        let m = sample_message(196_608); // 0x30000: `as u16` truncates to 0
        let mut buf = BytesMut::new();
        m.encode_body_as(subtypes::MESSAGE, &mut buf).unwrap();
        let d = Bgp4mpMessage::decode_body(m.timestamp, subtypes::MESSAGE, &buf).unwrap();
        assert_eq!(
            d.peer_asn,
            kcc_bgp_types::asn::AS_TRANS,
            "4-byte peer ASN must become AS_TRANS"
        );
        assert_ne!(d.peer_asn, Asn(0), "truncation would have produced AS 0");
        assert_eq!(d.local_asn, Asn(12_345), "16-bit ASNs pass through unchanged");
        // The embedded UPDATE was encoded for a 2-octet session: the
        // 4-byte path ASNs ride AS4_PATH and reconstruct on decode.
        assert_eq!(d.message, m.message);
    }

    #[test]
    fn two_octet_state_change_collapses_big_asn_to_as_trans() {
        let s = Bgp4mpStateChange {
            timestamp: MrtTimestamp::seconds(0),
            peer_asn: Asn(196_608),
            local_asn: Asn(3333),
            ifindex: 0,
            peer_ip: "192.0.2.99".parse().unwrap(),
            local_ip: "192.0.2.1".parse().unwrap(),
            old_state: BgpState::Established,
            new_state: BgpState::Idle,
        };
        let mut buf = BytesMut::new();
        s.encode_body_as(subtypes::STATE_CHANGE, &mut buf).unwrap();
        let d = Bgp4mpStateChange::decode_body(s.timestamp, subtypes::STATE_CHANGE, &buf).unwrap();
        assert_eq!(d.peer_asn, kcc_bgp_types::asn::AS_TRANS);
        assert_eq!(d.old_state, BgpState::Established);
    }

    #[test]
    fn v6_session_addresses_roundtrip() {
        let mut m = sample_message(20_205);
        m.peer_ip = "2001:db8::99".parse().unwrap();
        m.local_ip = "2001:db8::1".parse().unwrap();
        let mut buf = BytesMut::new();
        m.encode_body(&mut buf).unwrap();
        let d = Bgp4mpMessage::decode_body(m.timestamp, m.subtype(), &buf).unwrap();
        assert_eq!(d.peer_ip, m.peer_ip);
    }

    #[test]
    fn mixed_family_rejected() {
        let mut m = sample_message(20_205);
        m.peer_ip = "2001:db8::99".parse().unwrap();
        let mut buf = BytesMut::new();
        assert!(matches!(m.encode_body(&mut buf), Err(MrtError::BadField { .. })));
    }

    #[test]
    fn state_change_roundtrip() {
        let s = Bgp4mpStateChange {
            timestamp: MrtTimestamp::seconds(1_584_230_400),
            peer_asn: Asn(20_205),
            local_asn: Asn(12_345),
            ifindex: 0,
            peer_ip: "192.0.2.99".parse().unwrap(),
            local_ip: "192.0.2.1".parse().unwrap(),
            old_state: BgpState::Established,
            new_state: BgpState::Idle,
        };
        let mut buf = BytesMut::new();
        s.encode_body(&mut buf).unwrap();
        let d = Bgp4mpStateChange::decode_body(s.timestamp, s.subtype(), &buf).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn bad_state_code_rejected() {
        let s = Bgp4mpStateChange {
            timestamp: MrtTimestamp::seconds(0),
            peer_asn: Asn(1),
            local_asn: Asn(2),
            ifindex: 0,
            peer_ip: "10.0.0.1".parse().unwrap(),
            local_ip: "10.0.0.2".parse().unwrap(),
            old_state: BgpState::Established,
            new_state: BgpState::Idle,
        };
        let mut buf = BytesMut::new();
        s.encode_body(&mut buf).unwrap();
        let mut raw = buf.to_vec();
        let n = raw.len();
        raw[n - 1] = 99; // corrupt new_state
        assert!(matches!(
            Bgp4mpStateChange::decode_body(s.timestamp, s.subtype(), &raw),
            Err(MrtError::BadField { .. })
        ));
    }

    #[test]
    fn state_codes_roundtrip() {
        for c in 1..=6u16 {
            assert_eq!(BgpState::from_code(c).unwrap().code(), c);
        }
        assert_eq!(BgpState::from_code(0), None);
        assert_eq!(BgpState::from_code(7), None);
    }
}
