//! Top-level message framing: header, type dispatch, session configuration.

use kcc_bgp_types::RouteUpdate;

use crate::cursor::{self, Put};
use crate::error::WireError;
use crate::notification::Notification;
use crate::open::OpenMessage;
use crate::update::{encode_body_parts, UpdatePacket};
use crate::{HEADER_LEN, MAX_MESSAGE_LEN};

/// Per-session codec configuration, fixed at OPEN negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// True if both speakers announced the 4-octet AS capability
    /// (RFC 6793); controls AS_PATH/AGGREGATOR width.
    pub four_octet_as: bool,
}

impl Default for SessionConfig {
    /// Modern sessions negotiate 4-octet ASNs.
    fn default() -> Self {
        SessionConfig { four_octet_as: true }
    }
}

/// BGP message type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// OPEN (1).
    Open,
    /// UPDATE (2).
    Update,
    /// NOTIFICATION (3).
    Notification,
    /// KEEPALIVE (4).
    Keepalive,
    /// ROUTE-REFRESH (5, RFC 2918).
    RouteRefresh,
}

impl MessageType {
    /// Wire value.
    pub const fn code(self) -> u8 {
        match self {
            MessageType::Open => 1,
            MessageType::Update => 2,
            MessageType::Notification => 3,
            MessageType::Keepalive => 4,
            MessageType::RouteRefresh => 5,
        }
    }

    /// From wire value.
    pub const fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(MessageType::Open),
            2 => Some(MessageType::Update),
            3 => Some(MessageType::Notification),
            4 => Some(MessageType::Keepalive),
            5 => Some(MessageType::RouteRefresh),
            _ => None,
        }
    }
}

/// A ROUTE-REFRESH request (RFC 2918 §3): please re-advertise this
/// AFI/SAFI. A speaker that offers the capability (our standard OPEN
/// does) must accept the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRefresh {
    /// Address family (raw code; 1 = IPv4, 2 = IPv6).
    pub afi: u16,
    /// Subsequent address family (1 = unicast).
    pub safi: u8,
}

impl RouteRefresh {
    /// Encodes the 4-byte body.
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.afi);
        buf.put_u8(0); // reserved
        buf.put_u8(self.safi);
    }

    /// Decodes a 4-byte body.
    pub fn decode_body(buf: &mut &[u8], len: usize) -> Result<Self, WireError> {
        if len != 4 {
            return Err(WireError::BadLength(len as u16));
        }
        if buf.len() < len {
            return Err(WireError::Truncated { what: "ROUTE-REFRESH body" });
        }
        let afi = cursor::u16(buf);
        cursor::u8(buf); // reserved
        let safi = cursor::u8(buf);
        Ok(RouteRefresh { afi, safi })
    }
}

/// A decoded BGP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// OPEN.
    Open(OpenMessage),
    /// UPDATE.
    Update(UpdatePacket),
    /// NOTIFICATION.
    Notification(Notification),
    /// KEEPALIVE.
    Keepalive,
    /// ROUTE-REFRESH.
    RouteRefresh(RouteRefresh),
}

impl Message {
    /// This message's type code.
    pub(crate) fn message_type(&self) -> MessageType {
        match self {
            Message::Open(_) => MessageType::Open,
            Message::Update(_) => MessageType::Update,
            Message::Notification(_) => MessageType::Notification,
            Message::Keepalive => MessageType::Keepalive,
            Message::RouteRefresh(_) => MessageType::RouteRefresh,
        }
    }
}

/// Writes a frame header with a placeholder length and returns where
/// the frame starts; [`end_frame`] patches the length once the body is
/// written behind it.
fn begin_frame(mtype: MessageType, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.put_slice(&[0xFF; 16]);
    buf.put_u16(0);
    buf.put_u8(mtype.code());
    start
}

/// Patches the length field of the frame begun at `start`.
fn end_frame(start: usize, buf: &mut [u8]) {
    let len = (buf.len() - start) as u16;
    buf[start + 16..start + 18].copy_from_slice(&len.to_be_bytes());
}

/// Encodes a complete message (header + body) into `buf`.
pub fn encode_message(msg: &Message, cfg: &SessionConfig, buf: &mut Vec<u8>) {
    let start = begin_frame(msg.message_type(), buf);
    match msg {
        Message::Open(o) => o.encode_body(buf),
        Message::Update(u) => u.encode_body(cfg, buf),
        Message::Notification(n) => n.encode_body(buf),
        Message::Keepalive => {}
        Message::RouteRefresh(r) => r.encode_body(buf),
    }
    end_frame(start, buf);
}

/// Encodes a complete UPDATE message from a borrowed packet — the
/// hot-path variant that avoids cloning the packet into
/// [`Message::Update`]. Byte-identical to
/// `encode_message(&Message::Update(packet.clone()), …)`.
pub fn encode_update(packet: &UpdatePacket, cfg: &SessionConfig, buf: &mut Vec<u8>) {
    let start = begin_frame(MessageType::Update, buf);
    packet.encode_body(cfg, buf);
    end_frame(start, buf);
}

/// Encodes one logical update as a complete single-prefix UPDATE message,
/// with no intermediate packet. Byte-identical to
/// `encode_update(&UpdatePacket::from_route_update(update), …)`.
pub fn encode_route_update(update: &RouteUpdate, cfg: &SessionConfig, buf: &mut Vec<u8>) {
    let start = begin_frame(MessageType::Update, buf);
    let prefix = std::slice::from_ref(&update.prefix);
    match update.attributes() {
        Some(attrs) => encode_body_parts(&[], prefix, Some(attrs), &[], cfg, buf),
        None => encode_body_parts(prefix, &[], None, &[], cfg, buf),
    }
    end_frame(start, buf);
}

/// Decodes one complete message from the front of `buf`, consuming
/// exactly its bytes.
pub fn decode_message(buf: &mut &[u8], cfg: &SessionConfig) -> Result<Message, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated { what: "message header" });
    }
    let marker: [u8; 16] = cursor::array(buf);
    if marker != [0xFF; 16] {
        return Err(WireError::BadMarker);
    }
    let len = cursor::u16(buf);
    if (len as usize) < HEADER_LEN || len as usize > MAX_MESSAGE_LEN {
        return Err(WireError::BadLength(len));
    }
    let mtype = cursor::u8(buf);
    let body_len = len as usize - HEADER_LEN;
    if buf.len() < body_len {
        return Err(WireError::Truncated { what: "message body" });
    }
    match MessageType::from_code(mtype).ok_or(WireError::UnknownMessageType(mtype))? {
        MessageType::Open => {
            let mut body = cursor::take(buf, body_len);
            Ok(Message::Open(OpenMessage::decode_body(&mut body)?))
        }
        MessageType::Update => Ok(Message::Update(UpdatePacket::decode_body(buf, body_len, cfg)?)),
        MessageType::Notification => {
            Ok(Message::Notification(Notification::decode_body(buf, body_len)?))
        }
        MessageType::Keepalive => {
            if body_len != 0 {
                return Err(WireError::BadLength(len));
            }
            Ok(Message::Keepalive)
        }
        MessageType::RouteRefresh => {
            Ok(Message::RouteRefresh(RouteRefresh::decode_body(buf, body_len)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, PathAttributes};

    fn cfg() -> SessionConfig {
        SessionConfig::default()
    }

    fn roundtrip(m: &Message) -> Message {
        let mut buf = Vec::new();
        encode_message(m, &cfg(), &mut buf);
        decode_message(&mut &buf[..], &cfg()).unwrap()
    }

    #[test]
    fn keepalive_is_19_bytes() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        assert_eq!(buf.len(), 19);
        assert_eq!(roundtrip(&Message::Keepalive), Message::Keepalive);
    }

    #[test]
    fn open_roundtrips_via_framing() {
        let m = Message::Open(OpenMessage::standard(Asn(20_205), "10.0.0.1".parse().unwrap(), 180));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn update_roundtrips_via_framing() {
        let attrs = PathAttributes {
            as_path: "1 2 3".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let m = Message::Update(UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn notification_roundtrips_via_framing() {
        let m = Message::Notification(Notification::cease_admin_shutdown());
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn encode_update_matches_encode_message() {
        let attrs = PathAttributes {
            as_path: "1 2 3".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let packet = UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs);
        let mut borrowed = Vec::new();
        encode_update(&packet, &cfg(), &mut borrowed);
        let mut owned = Vec::new();
        encode_message(&Message::Update(packet), &cfg(), &mut owned);
        assert_eq!(&borrowed[..], &owned[..]);
    }

    #[test]
    fn route_refresh_roundtrips_via_framing() {
        let m = Message::RouteRefresh(RouteRefresh { afi: 1, safi: 1 });
        assert_eq!(roundtrip(&m), m);
        let mut buf = Vec::new();
        encode_message(&m, &cfg(), &mut buf);
        assert_eq!(buf.len(), 23, "19-byte header + 4-byte body");
    }

    #[test]
    fn route_refresh_bad_length_rejected() {
        let mut buf = Vec::new();
        buf.put_slice(&[0xFF; 16]);
        buf.put_u16(21); // 2 bytes of body, must be 4
        buf.put_u8(5);
        buf.put_u16(1);
        assert!(matches!(decode_message(&mut &buf[..], &cfg()), Err(WireError::BadLength(_))));
    }

    #[test]
    fn bad_marker_rejected() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        buf[0] = 0;
        assert_eq!(decode_message(&mut &buf[..], &cfg()), Err(WireError::BadMarker));
    }

    #[test]
    fn bad_length_rejected() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        buf[16] = 0xFF;
        buf[17] = 0xFF; // length 65535 > 4096
        assert!(matches!(decode_message(&mut &buf[..], &cfg()), Err(WireError::BadLength(_))));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        buf[18] = 9;
        assert_eq!(decode_message(&mut &buf[..], &cfg()), Err(WireError::UnknownMessageType(9)));
    }

    #[test]
    fn keepalive_with_body_rejected() {
        let mut buf = Vec::new();
        buf.put_slice(&[0xFF; 16]);
        buf.put_u16(20); // 1 byte of body
        buf.put_u8(4);
        buf.put_u8(0);
        assert!(matches!(decode_message(&mut &buf[..], &cfg()), Err(WireError::BadLength(_))));
    }

    #[test]
    fn truncated_stream_detected() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        assert!(matches!(
            decode_message(&mut &buf[..10], &cfg()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn back_to_back_messages_decode_in_order() {
        let mut buf = Vec::new();
        encode_message(&Message::Keepalive, &cfg(), &mut buf);
        let m2 = Message::Update(UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap()));
        encode_message(&m2, &cfg(), &mut buf);
        let mut stream = &buf[..];
        assert_eq!(decode_message(&mut stream, &cfg()).unwrap(), Message::Keepalive);
        assert_eq!(decode_message(&mut stream, &cfg()).unwrap(), m2);
        assert!(stream.is_empty());
    }
}
