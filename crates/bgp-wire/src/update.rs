//! UPDATE messages: the wire packet and its per-prefix explosion.

use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use kcc_bgp_types::{MessageKind, PathAttributes, Prefix, RouteUpdate};

use crate::attr::{decode_attributes, encode_attributes, put_mp_unreach, RawAttribute};
use crate::cursor;
use crate::error::WireError;
use crate::message::SessionConfig;
use crate::nlri::{decode_prefix, encode_prefix, Afi};

/// A wire-level UPDATE: possibly many withdrawn routes and many announced
/// prefixes sharing one attribute set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdatePacket {
    /// Withdrawn prefixes (both families; v6 ones ride MP_UNREACH).
    pub withdrawn: Vec<Prefix>,
    /// Announced prefixes (both families; v6 ones ride MP_REACH).
    pub nlri: Vec<Prefix>,
    /// Attributes for the announced prefixes. `None` for pure withdrawals.
    pub attrs: Option<PathAttributes>,
    /// Unrecognized attributes preserved across hops.
    pub unknown_attrs: Vec<RawAttribute>,
}

impl UpdatePacket {
    /// A packet announcing one prefix.
    pub fn announce(prefix: Prefix, attrs: PathAttributes) -> Self {
        UpdatePacket { nlri: vec![prefix], attrs: Some(attrs), ..Default::default() }
    }

    /// A packet withdrawing one prefix.
    pub fn withdraw(prefix: Prefix) -> Self {
        UpdatePacket { withdrawn: vec![prefix], ..Default::default() }
    }

    /// How many updates [`explode`](Self::explode) and
    /// [`into_route_updates`](Self::into_route_updates) yield: every
    /// withdrawal, plus the announcements when there are attributes.
    pub fn route_update_count(&self) -> usize {
        self.withdrawn.len() + if self.attrs.is_some() { self.nlri.len() } else { 0 }
    }

    /// Explodes the packet into its per-prefix [`RouteUpdate`]s in wire
    /// order (withdrawals first, then announcements), stamping each with
    /// `time_us`. The attribute set is deep-copied **once** per packet and
    /// shared across every announced prefix behind one `Arc` — the
    /// many-prefixes-one-attribute shape of real UPDATEs becomes pointer
    /// copies downstream.
    pub fn explode(&self, time_us: u64) -> Vec<RouteUpdate> {
        let shared = self.attrs.as_ref().map(|a| Arc::new(a.clone()));
        self.withdrawn
            .iter()
            .map(|p| RouteUpdate::withdraw(time_us, *p))
            .chain(self.nlri.iter().filter_map(|p| {
                shared.as_ref().map(|a| RouteUpdate::announce(time_us, *p, Arc::clone(a)))
            }))
            .collect()
    }

    /// [`explode`](Self::explode), consuming: moves the
    /// decoded attribute set straight into its shared `Arc` — no deep
    /// copy at all. The right call when the packet came off the wire and
    /// is not needed again.
    pub fn into_route_updates(self, time_us: u64) -> impl Iterator<Item = RouteUpdate> {
        let UpdatePacket { withdrawn, nlri, attrs, .. } = self;
        let shared = attrs.map(Arc::new);
        withdrawn.into_iter().map(move |p| RouteUpdate::withdraw(time_us, p)).chain(
            nlri.into_iter().filter_map(move |p| {
                shared.as_ref().map(|a| RouteUpdate::announce(time_us, p, Arc::clone(a)))
            }),
        )
    }

    /// Builds a packet from one logical update.
    pub fn from_route_update(u: &RouteUpdate) -> Self {
        match &u.kind {
            MessageKind::Announcement(attrs) => Self::announce(u.prefix, (**attrs).clone()),
            MessageKind::Withdrawal => Self::withdraw(u.prefix),
        }
    }

    /// Encodes the UPDATE body (without message header).
    pub fn encode_body(&self, cfg: &SessionConfig, buf: &mut BytesMut) {
        encode_body_parts(
            &self.withdrawn,
            &self.nlri,
            self.attrs.as_ref(),
            &self.unknown_attrs,
            cfg,
            buf,
        );
    }

    /// Decodes an UPDATE body of exactly `body_len` bytes from the front
    /// of `buf`.
    pub fn decode_body(
        buf: &mut &[u8],
        body_len: usize,
        cfg: &SessionConfig,
    ) -> Result<Self, WireError> {
        if buf.len() < body_len {
            return Err(WireError::Truncated { what: "UPDATE body" });
        }
        let mut body = cursor::take(buf, body_len);

        if body.len() < 2 {
            return Err(WireError::Truncated { what: "withdrawn routes length" });
        }
        let wd_len = cursor::u16(&mut body) as usize;
        if body.len() < wd_len {
            return Err(WireError::Truncated { what: "withdrawn routes" });
        }
        let mut wd_buf = cursor::take(&mut body, wd_len);
        let mut withdrawn = Vec::new();
        while !wd_buf.is_empty() {
            withdrawn.push(decode_prefix(Afi::Ipv4, &mut wd_buf)?);
        }

        if body.len() < 2 {
            return Err(WireError::Truncated { what: "attributes length" });
        }
        let attr_len = cursor::u16(&mut body) as usize;
        let decoded = decode_attributes(&mut body, attr_len, cfg)?;

        let mut nlri = Vec::new();
        while !body.is_empty() {
            nlri.push(decode_prefix(Afi::Ipv4, &mut body)?);
        }
        nlri.extend(decoded.mp_reach.iter().copied());
        withdrawn.extend(decoded.mp_unreach.iter().copied());

        let has_announcements = !nlri.is_empty();
        if has_announcements {
            // RFC 4271 §6.3: ORIGIN/AS_PATH/NEXT_HOP mandatory with NLRI.
            if !decoded.has_origin {
                return Err(WireError::MissingMandatoryAttribute("ORIGIN"));
            }
            if !decoded.has_as_path {
                return Err(WireError::MissingMandatoryAttribute("AS_PATH"));
            }
            let v4_announced = nlri.iter().any(|p| p.is_ipv4());
            if v4_announced && !decoded.has_next_hop {
                return Err(WireError::MissingMandatoryAttribute("NEXT_HOP"));
            }
        }

        Ok(UpdatePacket {
            withdrawn,
            nlri,
            attrs: if has_announcements { Some(decoded.attrs) } else { None },
            unknown_attrs: decoded.unknown,
        })
    }
}

/// Writes `buf[at..at + 2]`, reserved earlier, as the big-endian count
/// of bytes written after it.
fn patch_len(buf: &mut BytesMut, at: usize) {
    let len = (buf.len() - at - 2) as u16;
    buf[at..at + 2].copy_from_slice(&len.to_be_bytes());
}

/// The one UPDATE body encoder, over borrowed parts so that a packet and
/// a single [`RouteUpdate`] encode through the same code. IPv4 prefixes
/// go in the withdrawn-routes and NLRI fields, IPv6 ones in
/// MP_UNREACH/MP_REACH; both length fields are reserved and patched once
/// their contents are written.
pub(crate) fn encode_body_parts(
    withdrawn: &[Prefix],
    nlri: &[Prefix],
    attrs: Option<&PathAttributes>,
    unknown: &[RawAttribute],
    cfg: &SessionConfig,
    buf: &mut BytesMut,
) {
    let at = buf.len();
    buf.put_u16(0);
    for p in withdrawn.iter().filter(|p| p.is_ipv4()) {
        encode_prefix(p, buf);
    }
    patch_len(buf, at);

    let at = buf.len();
    buf.put_u16(0);
    let v4_nlri = || nlri.iter().filter(|p| p.is_ipv4());
    match attrs {
        Some(attrs) => {
            let include_next_hop = v4_nlri().next().is_some();
            encode_attributes(attrs, nlri, withdrawn, unknown, include_next_hop, cfg, buf);
        }
        None => put_mp_unreach(buf, withdrawn),
    }
    patch_len(buf, at);

    for p in v4_nlri() {
        encode_prefix(p, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::Community;

    fn cfg() -> SessionConfig {
        SessionConfig { four_octet_as: true }
    }

    fn attrs() -> PathAttributes {
        let mut a = PathAttributes {
            as_path: "20205 3356 174 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        a.communities.insert(Community::from_parts(3356, 2501));
        a
    }

    fn roundtrip(p: &UpdatePacket) -> UpdatePacket {
        let mut buf = BytesMut::new();
        p.encode_body(&cfg(), &mut buf);
        let len = buf.len();
        UpdatePacket::decode_body(&mut &buf[..], len, &cfg()).unwrap()
    }

    #[test]
    fn announce_roundtrips() {
        let p = UpdatePacket::announce("84.205.64.0/24".parse().unwrap(), attrs());
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn withdraw_roundtrips() {
        let p = UpdatePacket::withdraw("84.205.64.0/24".parse().unwrap());
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn v6_announce_roundtrips() {
        let mut a = attrs();
        a.next_hop = "2001:db8::1".parse().unwrap();
        let p = UpdatePacket::announce("2001:db8:beef::/48".parse().unwrap(), a);
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn v6_withdraw_roundtrips() {
        let p = UpdatePacket::withdraw("2001:db8::/32".parse().unwrap());
        let d = roundtrip(&p);
        assert_eq!(d.withdrawn, p.withdrawn);
        assert!(d.attrs.is_none());
    }

    #[test]
    fn mixed_family_packet() {
        let mut p = UpdatePacket::announce("84.205.64.0/24".parse().unwrap(), attrs());
        p.nlri.push("2001:db8::/32".parse().unwrap());
        p.withdrawn.push("10.9.0.0/16".parse().unwrap());
        p.withdrawn.push("2001:db8:dead::/48".parse().unwrap());
        let d = roundtrip(&p);
        assert_eq!(d.nlri.len(), 2);
        assert_eq!(d.withdrawn.len(), 2);
    }

    #[test]
    fn explode_orders_withdrawals_first() {
        let mut p = UpdatePacket::announce("84.205.64.0/24".parse().unwrap(), attrs());
        p.withdrawn.push("10.9.0.0/16".parse().unwrap());
        let updates = p.explode(42);
        assert_eq!(updates.len(), 2);
        assert_eq!(p.route_update_count(), 2);
        assert!(updates[0].is_withdrawal());
        assert!(updates[1].is_announcement());
        assert!(updates.iter().all(|u| u.time_us == 42));
    }

    #[test]
    fn explode_shares_one_attribute_allocation() {
        let mut p = UpdatePacket::announce("84.205.64.0/24".parse().unwrap(), attrs());
        p.nlri.push("84.205.65.0/24".parse().unwrap());
        p.nlri.push("84.205.66.0/24".parse().unwrap());
        let updates = p.explode(7);
        let handles: Vec<_> = updates.iter().filter_map(|u| u.attributes_shared()).collect();
        assert_eq!(handles.len(), 3);
        assert!(
            handles.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])),
            "all announcements in one packet share a single Arc"
        );
    }

    #[test]
    fn missing_mandatory_attr_detected() {
        // Hand-craft: NLRI present but no attributes at all.
        let mut buf = BytesMut::new();
        buf.put_u16(0); // withdrawn len
        buf.put_u16(0); // attr len
        encode_prefix(&"10.0.0.0/8".parse().unwrap(), &mut buf);
        let len = buf.len();
        let err = UpdatePacket::decode_body(&mut &buf[..], len, &cfg()).unwrap_err();
        assert_eq!(err, WireError::MissingMandatoryAttribute("ORIGIN"));
    }

    #[test]
    fn from_route_update_both_kinds() {
        let ru = RouteUpdate::announce(1, "10.0.0.0/8".parse().unwrap(), attrs());
        assert_eq!(UpdatePacket::from_route_update(&ru).nlri.len(), 1);
        let rw = RouteUpdate::withdraw(1, "10.0.0.0/8".parse().unwrap());
        assert_eq!(UpdatePacket::from_route_update(&rw).withdrawn.len(), 1);
    }

    #[test]
    fn empty_update_is_legal() {
        // An UPDATE with nothing in it (used as end-of-RIB marker).
        let p = UpdatePacket::default();
        let d = roundtrip(&p);
        assert!(d.withdrawn.is_empty() && d.nlri.is_empty() && d.attrs.is_none());
    }
}
