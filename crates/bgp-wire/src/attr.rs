//! Path attribute encoding and decoding.
//!
//! Attributes are TLVs with a flags octet, a type octet, and a 1- or
//! 2-octet length (extended-length flag). The codec understands every
//! attribute the paper's data analysis touches and preserves unrecognized
//! optional transitive attributes bit-exactly so archives round-trip.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use kcc_bgp_types::attrs::{Aggregator, Origin, PathAttributes};
use kcc_bgp_types::{
    AsPath, Asn, Community, CommunitySet, ExtendedCommunity, LargeCommunity, Prefix, SegmentKind,
};

use crate::cursor::{self, Put};
use crate::error::WireError;
use crate::message::SessionConfig;
use crate::nlri::{decode_prefix_run, encode_prefix, encoded_len, Afi};

/// Attribute flag bits.
mod flags {
    /// Optional (not well-known).
    pub(crate) const OPTIONAL: u8 = 0x80;
    /// Transitive.
    pub(crate) const TRANSITIVE: u8 = 0x40;
    /// Partial (set when an unrecognized transitive attribute passed through).
    pub(crate) const PARTIAL: u8 = 0x20;
    /// Two-octet length field follows.
    pub(crate) const EXTENDED_LENGTH: u8 = 0x10;
}

/// Attribute type codes (IANA registry subset).
mod type_codes {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub const COMMUNITIES: u8 = 8;
    /// MP_REACH_NLRI (RFC 4760).
    pub const MP_REACH_NLRI: u8 = 14;
    /// MP_UNREACH_NLRI (RFC 4760).
    pub const MP_UNREACH_NLRI: u8 = 15;
    /// EXTENDED COMMUNITIES (RFC 4360).
    pub(crate) const EXTENDED_COMMUNITIES: u8 = 16;
    /// AS4_PATH (RFC 6793).
    pub const AS4_PATH: u8 = 17;
    /// AS4_AGGREGATOR (RFC 6793).
    pub const AS4_AGGREGATOR: u8 = 18;
    /// LARGE COMMUNITIES (RFC 8092).
    pub(crate) const LARGE_COMMUNITIES: u8 = 32;
}

/// An attribute the codec does not interpret, preserved bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAttribute {
    /// Original flag octet.
    pub flags: u8,
    /// Type code.
    pub code: u8,
    /// Raw value bytes.
    pub value: Vec<u8>,
}

/// Everything pulled out of an UPDATE's attribute block.
#[derive(Debug, Clone, Default)]
pub struct DecodedAttrs {
    /// The interpreted attributes (next_hop defaults to 0.0.0.0 when the
    /// update has no NEXT_HOP, e.g. a pure MP-BGP v6 update).
    pub attrs: PathAttributes,
    /// True if a NEXT_HOP attribute was present.
    pub has_next_hop: bool,
    /// True if an ORIGIN attribute was present.
    pub has_origin: bool,
    /// True if an AS_PATH attribute was present.
    pub has_as_path: bool,
    /// NLRI announced via MP_REACH_NLRI (IPv6).
    pub mp_reach: Vec<Prefix>,
    /// IPv6 next hop from MP_REACH_NLRI.
    pub mp_next_hop: Option<Ipv6Addr>,
    /// NLRI withdrawn via MP_UNREACH_NLRI.
    pub mp_unreach: Vec<Prefix>,
    /// Unrecognized attributes, preserved for re-encoding.
    pub unknown: Vec<RawAttribute>,
}

fn put_attr_header(buf: &mut Vec<u8>, base_flags: u8, code: u8, len: usize) {
    if len > 255 {
        buf.put_u8(base_flags | flags::EXTENDED_LENGTH);
        buf.put_u8(code);
        buf.put_u16(len as u16);
    } else {
        buf.put_u8(base_flags);
        buf.put_u8(code);
        buf.put_u8(len as u8);
    }
}

/// Body length of an AS_PATH at the given width: wire segments hold at
/// most 255 ASNs, so longer ones split, each piece with its own
/// two-octet segment header.
fn as_path_body_len(path: &AsPath, four_octet: bool) -> usize {
    let width = if four_octet { 4 } else { 2 };
    path.segments().map(|(_, asns)| asns.len().div_ceil(255) * 2 + asns.len() * width).sum()
}

/// Writes one AS_PATH-shaped attribute (AS_PATH or AS4_PATH), header
/// and body, straight into `buf`.
fn put_as_path(buf: &mut Vec<u8>, base_flags: u8, code: u8, path: &AsPath, four_octet: bool) {
    put_attr_header(buf, base_flags, code, as_path_body_len(path, four_octet));
    for (kind, asns) in path.segments() {
        let kind = match kind {
            SegmentKind::Set => 1u8,
            SegmentKind::Sequence => 2,
            SegmentKind::ConfedSequence => 3,
            SegmentKind::ConfedSet => 4,
        };
        for chunk in asns.chunks(255) {
            buf.put_u8(kind);
            buf.put_u8(chunk.len() as u8);
            for a in chunk {
                if four_octet {
                    buf.put_u32(a.value());
                } else {
                    buf.put_u16(a.to_16bit_wire());
                }
            }
        }
    }
}

/// Length of the IPv6 prefixes in `prefixes` as NLRI.
fn v6_nlri_len(prefixes: &[Prefix]) -> usize {
    prefixes.iter().filter(|p| p.is_ipv6()).map(encoded_len).sum()
}

/// Writes an MP_REACH_NLRI attribute carrying `next_hop` and the IPv6
/// prefixes in `prefixes` (none, for a next-hop-only attribute).
fn put_mp_reach(buf: &mut Vec<u8>, next_hop: Ipv6Addr, prefixes: &[Prefix]) {
    // AFI, SAFI, next-hop length, next hop, reserved octet.
    let fixed = 2 + 1 + 1 + 16 + 1;
    put_attr_header(buf, flags::OPTIONAL, type_codes::MP_REACH_NLRI, fixed + v6_nlri_len(prefixes));
    buf.put_u16(Afi::Ipv6.code());
    buf.put_u8(1); // SAFI unicast
    buf.put_u8(16);
    buf.put_slice(&next_hop.octets());
    buf.put_u8(0); // reserved
    for p in prefixes.iter().filter(|p| p.is_ipv6()) {
        encode_prefix(p, buf);
    }
}

/// Writes an MP_UNREACH_NLRI attribute withdrawing the IPv6 prefixes in
/// `prefixes`, if there are any — on its own, the whole attribute block
/// of a pure IPv6 withdrawal, which carries no mandatory attributes.
pub(crate) fn put_mp_unreach(buf: &mut Vec<u8>, prefixes: &[Prefix]) {
    let len = v6_nlri_len(prefixes);
    if len == 0 {
        return;
    }
    put_attr_header(buf, flags::OPTIONAL, type_codes::MP_UNREACH_NLRI, 2 + 1 + len);
    buf.put_u16(Afi::Ipv6.code());
    buf.put_u8(1); // SAFI unicast
    for p in prefixes.iter().filter(|p| p.is_ipv6()) {
        encode_prefix(p, buf);
    }
}

/// The segment kind of a wire segment-type octet.
fn segment_kind(code: u8) -> Option<SegmentKind> {
    match code {
        1 => Some(SegmentKind::Set),
        2 => Some(SegmentKind::Sequence),
        3 => Some(SegmentKind::ConfedSequence),
        4 => Some(SegmentKind::ConfedSet),
        _ => None,
    }
}

fn decode_as_path_body(body: &[u8], four_octet: bool) -> Result<AsPath, WireError> {
    // Check every segment first, in wire order, so the first malformed
    // segment is the error; then `AsPath::from_segments` walks the checked
    // headers to size the path's one allocation and decodes the ASNs
    // straight into it.
    let width = if four_octet { 4 } else { 2 };
    let mut rest = body;
    while !rest.is_empty() {
        let malformed =
            |detail| WireError::MalformedAttribute { code: type_codes::AS_PATH, detail };
        if rest.len() < 2 {
            return Err(malformed("segment header truncated"));
        }
        if segment_kind(cursor::u8(&mut rest)).is_none() {
            return Err(malformed("unknown segment type"));
        }
        let count = cursor::u8(&mut rest) as usize;
        if rest.len() < count * width {
            return Err(malformed("segment body truncated"));
        }
        cursor::take(&mut rest, count * width);
    }
    Ok(AsPath::from_segments(WireSegments { body, width }))
}

/// The segments of a checked AS_PATH body, each its kind and its ASNs
/// read off the wire at `width` octets.
#[derive(Clone)]
struct WireSegments<'a> {
    body: &'a [u8],
    width: usize,
}

impl<'a> Iterator for WireSegments<'a> {
    type Item = (SegmentKind, std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&[u8]) -> Asn>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.body.is_empty() {
            return None;
        }
        let kind = segment_kind(cursor::u8(&mut self.body)).expect("checked segment type");
        let count = cursor::u8(&mut self.body) as usize;
        let asns = cursor::take(&mut self.body, count * self.width);
        let read: fn(&[u8]) -> Asn = if self.width == 4 {
            |mut b| Asn(cursor::u32(&mut b))
        } else {
            |mut b| Asn(u32::from(cursor::u16(&mut b)))
        };
        Some((kind, asns.chunks_exact(self.width).map(read)))
    }
}

/// Encodes the attribute block for an UPDATE, writing every attribute
/// straight into `buf`.
///
/// The IPv6 prefixes among `nlri`/`withdrawn` ride MP_REACH/MP_UNREACH
/// (IPv4 ones are the caller's to write outside the block);
/// `include_next_hop` should be false for updates with no IPv4 NLRI.
pub fn encode_attributes(
    attrs: &PathAttributes,
    nlri: &[Prefix],
    withdrawn: &[Prefix],
    unknown: &[RawAttribute],
    include_next_hop: bool,
    cfg: &SessionConfig,
    buf: &mut Vec<u8>,
) {
    // ORIGIN
    put_attr_header(buf, flags::TRANSITIVE, type_codes::ORIGIN, 1);
    buf.put_u8(attrs.origin.code());

    // AS_PATH (+ AS4_PATH when the session is 2-octet and the path needs it)
    put_as_path(buf, flags::TRANSITIVE, type_codes::AS_PATH, &attrs.as_path, cfg.four_octet_as);
    if !cfg.four_octet_as && attrs.as_path.asns().any(|a| !a.is_16bit()) {
        let base = flags::OPTIONAL | flags::TRANSITIVE;
        put_as_path(buf, base, type_codes::AS4_PATH, &attrs.as_path, true);
    }

    // NEXT_HOP (IPv4 only; v6 next hops ride in MP_REACH)
    if include_next_hop {
        if let IpAddr::V4(nh) = attrs.next_hop {
            put_attr_header(buf, flags::TRANSITIVE, type_codes::NEXT_HOP, 4);
            buf.put_slice(&nh.octets());
        }
    }

    if let Some(med) = attrs.med {
        put_attr_header(buf, flags::OPTIONAL, type_codes::MED, 4);
        buf.put_u32(med);
    }

    if let Some(lp) = attrs.local_pref {
        put_attr_header(buf, flags::TRANSITIVE, type_codes::LOCAL_PREF, 4);
        buf.put_u32(lp);
    }

    if attrs.atomic_aggregate {
        put_attr_header(buf, flags::TRANSITIVE, type_codes::ATOMIC_AGGREGATE, 0);
    }

    if let Some(agg) = &attrs.aggregator {
        if cfg.four_octet_as {
            put_attr_header(buf, flags::OPTIONAL | flags::TRANSITIVE, type_codes::AGGREGATOR, 8);
            buf.put_u32(agg.asn.value());
            buf.put_slice(&agg.router_id.octets());
        } else {
            put_attr_header(buf, flags::OPTIONAL | flags::TRANSITIVE, type_codes::AGGREGATOR, 6);
            buf.put_u16(agg.asn.to_16bit_wire());
            buf.put_slice(&agg.router_id.octets());
            // RFC 6793 §4.2.2: a 4-octet aggregator ASN travels a 2-octet
            // session as AS_TRANS plus an AS4_AGGREGATOR carrying the
            // real value (mirrors the AS_PATH / AS4_PATH pair above).
            if !agg.asn.is_16bit() {
                put_attr_header(
                    buf,
                    flags::OPTIONAL | flags::TRANSITIVE,
                    type_codes::AS4_AGGREGATOR,
                    8,
                );
                buf.put_u32(agg.asn.value());
                buf.put_slice(&agg.router_id.octets());
            }
        }
    }

    let classic = attrs.communities.classic();
    if !classic.is_empty() {
        put_attr_header(
            buf,
            flags::OPTIONAL | flags::TRANSITIVE,
            type_codes::COMMUNITIES,
            classic.len() * 4,
        );
        for c in classic {
            buf.put_u32(c.0);
        }
    }

    let extended = attrs.communities.extended();
    if !extended.is_empty() {
        put_attr_header(
            buf,
            flags::OPTIONAL | flags::TRANSITIVE,
            type_codes::EXTENDED_COMMUNITIES,
            extended.len() * 8,
        );
        for e in extended {
            buf.put_slice(&e.to_bytes());
        }
    }

    let large = attrs.communities.large();
    if !large.is_empty() {
        put_attr_header(
            buf,
            flags::OPTIONAL | flags::TRANSITIVE,
            type_codes::LARGE_COMMUNITIES,
            large.len() * 12,
        );
        for l in large {
            buf.put_u32(l.global);
            buf.put_u32(l.data1);
            buf.put_u32(l.data2);
        }
    }

    if nlri.iter().any(Prefix::is_ipv6) {
        let nh = match attrs.next_hop {
            IpAddr::V6(v6) => v6,
            IpAddr::V4(v4) => v4.to_ipv6_mapped(),
        };
        put_mp_reach(buf, nh, nlri);
    }

    put_mp_unreach(buf, withdrawn);

    for raw in unknown {
        put_attr_header(buf, raw.flags & !flags::EXTENDED_LENGTH, raw.code, raw.value.len());
        buf.put_slice(&raw.value);
    }
}

/// Encodes a next-hop-only MP_REACH_NLRI attribute — the shape RFC 6396
/// §4.3.4 prescribes for IPv6 RIB entries in TABLE_DUMP_V2, where the NLRI
/// is implied by the enclosing record.
pub fn encode_mp_next_hop_only(next_hop: Ipv6Addr, buf: &mut Vec<u8>) {
    put_mp_reach(buf, next_hop, &[]);
}

fn expect_len(code: u8, body: &[u8], want: usize, what: &'static str) -> Result<(), WireError> {
    if body.len() != want {
        Err(WireError::MalformedAttribute { code, detail: what })
    } else {
        Ok(())
    }
}

/// Decodes an attribute block of exactly `total_len` bytes from the
/// front of `buf`.
pub fn decode_attributes(
    buf: &mut &[u8],
    total_len: usize,
    cfg: &SessionConfig,
) -> Result<DecodedAttrs, WireError> {
    if buf.len() < total_len {
        return Err(WireError::Truncated { what: "path attributes" });
    }
    let mut block = cursor::take(buf, total_len);
    let mut out = DecodedAttrs::default();
    let mut as4_path: Option<AsPath> = None;
    let mut as4_aggregator: Option<Aggregator> = None;
    // Communities are collected raw and sorted/deduped once at the end —
    // one bulk build instead of a binary_search + Vec::insert per element.
    let mut classic: Vec<Community> = Vec::new();
    let mut extended: Vec<ExtendedCommunity> = Vec::new();
    let mut large: Vec<LargeCommunity> = Vec::new();

    while !block.is_empty() {
        if block.len() < 2 {
            return Err(WireError::Truncated { what: "attribute header" });
        }
        let fl = cursor::u8(&mut block);
        let code = cursor::u8(&mut block);
        let len = if fl & flags::EXTENDED_LENGTH != 0 {
            if block.len() < 2 {
                return Err(WireError::Truncated { what: "attribute extended length" });
            }
            cursor::u16(&mut block) as usize
        } else {
            if block.is_empty() {
                return Err(WireError::Truncated { what: "attribute length" });
            }
            cursor::u8(&mut block) as usize
        };
        if block.len() < len {
            return Err(WireError::Truncated { what: "attribute body" });
        }
        let mut body = cursor::take(&mut block, len);

        match code {
            type_codes::ORIGIN => {
                expect_len(code, body, 1, "ORIGIN length != 1")?;
                let v = body[0];
                out.attrs.origin = Origin::from_code(v)
                    .ok_or(WireError::BadValue { what: "ORIGIN", value: v as u32 })?;
                out.has_origin = true;
            }
            type_codes::AS_PATH => {
                out.attrs.as_path = decode_as_path_body(body, cfg.four_octet_as)?;
                out.has_as_path = true;
            }
            type_codes::AS4_PATH => {
                as4_path = Some(decode_as_path_body(body, true)?);
            }
            type_codes::NEXT_HOP => {
                expect_len(code, body, 4, "NEXT_HOP length != 4")?;
                out.attrs.next_hop = IpAddr::V4(Ipv4Addr::from(cursor::array::<4>(&mut body)));
                out.has_next_hop = true;
            }
            type_codes::MED => {
                expect_len(code, body, 4, "MED length != 4")?;
                out.attrs.med = Some(cursor::u32(&mut body));
            }
            type_codes::LOCAL_PREF => {
                expect_len(code, body, 4, "LOCAL_PREF length != 4")?;
                out.attrs.local_pref = Some(cursor::u32(&mut body));
            }
            type_codes::ATOMIC_AGGREGATE => {
                expect_len(code, body, 0, "ATOMIC_AGGREGATE length != 0")?;
                out.attrs.atomic_aggregate = true;
            }
            type_codes::AGGREGATOR => {
                let asn = if cfg.four_octet_as {
                    expect_len(code, body, 8, "AGGREGATOR length != 8")?;
                    Asn(cursor::u32(&mut body))
                } else {
                    expect_len(code, body, 6, "AGGREGATOR length != 6")?;
                    Asn(cursor::u16(&mut body) as u32)
                };
                let router_id = Ipv4Addr::from(cursor::array::<4>(&mut body));
                out.attrs.aggregator = Some(Aggregator { asn, router_id });
            }
            type_codes::AS4_AGGREGATOR => {
                expect_len(code, body, 8, "AS4_AGGREGATOR length != 8")?;
                let asn = Asn(cursor::u32(&mut body));
                let router_id = Ipv4Addr::from(cursor::array::<4>(&mut body));
                as4_aggregator = Some(Aggregator { asn, router_id });
            }
            type_codes::COMMUNITIES => {
                if !body.len().is_multiple_of(4) {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "COMMUNITIES length not multiple of 4",
                    });
                }
                classic.reserve_exact(body.len() / 4);
                while !body.is_empty() {
                    classic.push(Community(cursor::u32(&mut body)));
                }
            }
            type_codes::EXTENDED_COMMUNITIES => {
                if !body.len().is_multiple_of(8) {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "EXTENDED COMMUNITIES length not multiple of 8",
                    });
                }
                extended.reserve_exact(body.len() / 8);
                while !body.is_empty() {
                    extended.push(ExtendedCommunity::from_bytes(cursor::array(&mut body)));
                }
            }
            type_codes::LARGE_COMMUNITIES => {
                if !body.len().is_multiple_of(12) {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "LARGE COMMUNITIES length not multiple of 12",
                    });
                }
                large.reserve_exact(body.len() / 12);
                while !body.is_empty() {
                    let g = cursor::u32(&mut body);
                    let d1 = cursor::u32(&mut body);
                    let d2 = cursor::u32(&mut body);
                    large.push(LargeCommunity::new(g, d1, d2));
                }
            }
            type_codes::MP_REACH_NLRI => {
                if body.len() < 5 {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "MP_REACH too short",
                    });
                }
                let afi = Afi::from_code(cursor::u16(&mut body))
                    .ok_or(WireError::MalformedAttribute { code, detail: "unknown AFI" })?;
                let _safi = cursor::u8(&mut body);
                let nh_len = cursor::u8(&mut body) as usize;
                if body.len() < nh_len + 1 {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "MP_REACH next hop truncated",
                    });
                }
                let nh_bytes = cursor::take(&mut body, nh_len);
                if afi == Afi::Ipv6 && (nh_len == 16 || nh_len == 32) {
                    let mut oct = [0u8; 16];
                    oct.copy_from_slice(&nh_bytes[..16]);
                    out.mp_next_hop = Some(Ipv6Addr::from(oct));
                }
                cursor::u8(&mut body); // reserved
                out.mp_reach = decode_prefix_run(afi, &mut body)?;
            }
            type_codes::MP_UNREACH_NLRI => {
                if body.len() < 3 {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "MP_UNREACH too short",
                    });
                }
                let afi = Afi::from_code(cursor::u16(&mut body))
                    .ok_or(WireError::MalformedAttribute { code, detail: "unknown AFI" })?;
                let _safi = cursor::u8(&mut body);
                out.mp_unreach = decode_prefix_run(afi, &mut body)?;
            }
            _ => {
                if fl & flags::OPTIONAL == 0 {
                    return Err(WireError::UnrecognizedWellKnown(code));
                }
                // Unknown optional: keep transitive ones (with PARTIAL set,
                // as a forwarding router would), drop non-transitive ones.
                if fl & flags::TRANSITIVE != 0 {
                    out.unknown.push(RawAttribute {
                        flags: fl | flags::PARTIAL,
                        code,
                        value: body.to_vec(),
                    });
                }
            }
        }
    }

    out.attrs.communities = CommunitySet::from_unsorted(classic, extended, large);

    // RFC 6793 §4.2.3 reconciliation: prefer the 4-octet path when present.
    if let Some(p4) = as4_path {
        if !cfg.four_octet_as {
            out.attrs.as_path = p4;
        }
    }
    if let Some(a4) = as4_aggregator {
        if !cfg.four_octet_as && out.attrs.aggregator.map(|a| a.asn.is_as_trans()).unwrap_or(false)
        {
            out.attrs.aggregator = Some(a4);
        }
    }

    if let Some(v6) = out.mp_next_hop {
        if !out.has_next_hop {
            out.attrs.next_hop = IpAddr::V6(v6);
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> SessionConfig {
        SessionConfig { four_octet_as: true }
    }

    fn cfg2() -> SessionConfig {
        SessionConfig { four_octet_as: false }
    }

    fn attrs() -> PathAttributes {
        let mut a = PathAttributes {
            as_path: "20205 3356 174 12654".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            med: Some(100),
            ..Default::default()
        };
        a.communities.insert(Community::from_parts(3356, 2065));
        a.communities.insert_large(LargeCommunity::new(3356, 7, 9));
        a
    }

    fn roundtrip(a: &PathAttributes, cfg: &SessionConfig) -> DecodedAttrs {
        let mut buf = Vec::new();
        encode_attributes(a, &[], &[], &[], true, cfg, &mut buf);
        let len = buf.len();
        decode_attributes(&mut &buf[..], len, cfg).unwrap()
    }

    #[test]
    fn full_roundtrip_four_octet() {
        let a = attrs();
        let d = roundtrip(&a, &cfg4());
        assert_eq!(d.attrs, a);
        assert!(d.has_origin && d.has_as_path && d.has_next_hop);
    }

    #[test]
    fn two_octet_session_uses_as_trans_and_as4_path() {
        let mut a = attrs();
        a.as_path = AsPath::from_asns([Asn(20_205), Asn(196_615), Asn(12_654)]);
        let d = roundtrip(&a, &cfg2());
        // Reconstructed from AS4_PATH: the true path survives.
        assert_eq!(d.attrs.as_path, a.as_path);
    }

    #[test]
    fn two_octet_without_big_asns_no_as4_path() {
        let a = attrs();
        let mut buf = Vec::new();
        encode_attributes(&a, &[], &[], &[], true, &cfg2(), &mut buf);
        // No AS4_PATH attribute should be present: scan type codes.
        let mut seen_as4 = false;
        let mut b = &buf[..];
        while !b.is_empty() {
            let fl = cursor::u8(&mut b);
            let code = cursor::u8(&mut b);
            let len = if fl & flags::EXTENDED_LENGTH != 0 {
                cursor::u16(&mut b) as usize
            } else {
                cursor::u8(&mut b) as usize
            };
            if code == type_codes::AS4_PATH {
                seen_as4 = true;
            }
            cursor::take(&mut b, len);
        }
        assert!(!seen_as4);
    }

    #[test]
    fn four_octet_aggregator_survives_two_octet_session() {
        // RFC 6793 §4.2.2: the 2-octet AGGREGATOR carries AS_TRANS and an
        // AS4_AGGREGATOR restores the real ASN on decode.
        let mut a = attrs();
        a.aggregator =
            Some(Aggregator { asn: Asn(196_615), router_id: "10.0.0.1".parse().unwrap() });
        let d = roundtrip(&a, &cfg2());
        assert_eq!(d.attrs.aggregator, a.aggregator);
        // A 16-bit aggregator must not grow an AS4_AGGREGATOR.
        let mut small = attrs();
        small.aggregator =
            Some(Aggregator { asn: Asn(65_000), router_id: "10.0.0.1".parse().unwrap() });
        let mut buf = Vec::new();
        encode_attributes(&small, &[], &[], &[], true, &cfg2(), &mut buf);
        let mut b = &buf[..];
        let mut seen_as4_agg = false;
        while !b.is_empty() {
            let fl = cursor::u8(&mut b);
            let code = cursor::u8(&mut b);
            let len = if fl & flags::EXTENDED_LENGTH != 0 {
                cursor::u16(&mut b) as usize
            } else {
                cursor::u8(&mut b) as usize
            };
            if code == type_codes::AS4_AGGREGATOR {
                seen_as4_agg = true;
            }
            cursor::take(&mut b, len);
        }
        assert!(!seen_as4_agg);
    }

    #[test]
    fn med_and_local_pref_roundtrip() {
        let mut a = attrs();
        a.local_pref = Some(200);
        let d = roundtrip(&a, &cfg4());
        assert_eq!(d.attrs.med, Some(100));
        assert_eq!(d.attrs.local_pref, Some(200));
    }

    #[test]
    fn aggregator_roundtrip_both_widths() {
        let mut a = attrs();
        a.atomic_aggregate = true;
        a.aggregator =
            Some(Aggregator { asn: Asn(65_000), router_id: "10.0.0.1".parse().unwrap() });
        for cfg in [cfg4(), cfg2()] {
            let d = roundtrip(&a, &cfg);
            assert_eq!(d.attrs.aggregator, a.aggregator);
            assert!(d.attrs.atomic_aggregate);
        }
    }

    #[test]
    fn v6_nlri_rides_mp_reach() {
        let mut a = attrs();
        a.next_hop = "2001:db8::1".parse().unwrap();
        let v6: Prefix = "2001:db8:beef::/48".parse().unwrap();
        let mut buf = Vec::new();
        encode_attributes(&a, &[v6], &[], &[], false, &cfg4(), &mut buf);
        let len = buf.len();
        let d = decode_attributes(&mut &buf[..], len, &cfg4()).unwrap();
        assert_eq!(d.mp_reach, vec![v6]);
        assert_eq!(d.attrs.next_hop, a.next_hop);
        assert!(!d.has_next_hop); // no classic NEXT_HOP attribute
    }

    #[test]
    fn v6_withdrawals_ride_mp_unreach() {
        let a = PathAttributes::default();
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        let mut buf = Vec::new();
        encode_attributes(&a, &[], &[v6], &[], false, &cfg4(), &mut buf);
        let len = buf.len();
        let d = decode_attributes(&mut &buf[..], len, &cfg4()).unwrap();
        assert_eq!(d.mp_unreach, vec![v6]);
    }

    #[test]
    fn unknown_optional_transitive_preserved_with_partial() {
        let a = attrs();
        let raw = RawAttribute {
            flags: flags::OPTIONAL | flags::TRANSITIVE,
            code: 99,
            value: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        encode_attributes(&a, &[], &[], std::slice::from_ref(&raw), true, &cfg4(), &mut buf);
        let len = buf.len();
        let d = decode_attributes(&mut &buf[..], len, &cfg4()).unwrap();
        assert_eq!(d.unknown.len(), 1);
        assert_eq!(d.unknown[0].code, 99);
        assert_eq!(d.unknown[0].value, vec![1, 2, 3]);
        assert_ne!(d.unknown[0].flags & flags::PARTIAL, 0);
    }

    #[test]
    fn unknown_well_known_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(flags::TRANSITIVE); // well-known (not optional)
        buf.put_u8(77);
        buf.put_u8(1);
        buf.put_u8(0);
        let len = buf.len();
        let err = decode_attributes(&mut &buf[..], len, &cfg4()).unwrap_err();
        assert_eq!(err, WireError::UnrecognizedWellKnown(77));
    }

    #[test]
    fn bad_origin_value_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(flags::TRANSITIVE);
        buf.put_u8(type_codes::ORIGIN);
        buf.put_u8(1);
        buf.put_u8(9);
        let len = buf.len();
        assert!(matches!(
            decode_attributes(&mut &buf[..], len, &cfg4()),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn truncated_attribute_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(flags::TRANSITIVE);
        buf.put_u8(type_codes::ORIGIN);
        buf.put_u8(5); // claims 5 bytes, provides 1
        buf.put_u8(0);
        let len = buf.len();
        assert!(matches!(
            decode_attributes(&mut &buf[..], len, &cfg4()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn communities_bad_length_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(flags::OPTIONAL | flags::TRANSITIVE);
        buf.put_u8(type_codes::COMMUNITIES);
        buf.put_u8(3);
        buf.put_slice(&[0, 1, 2]);
        let len = buf.len();
        assert!(matches!(
            decode_attributes(&mut &buf[..], len, &cfg4()),
            Err(WireError::MalformedAttribute { .. })
        ));
    }

    /// `path` encoded 4-octet, without its attribute header.
    fn as_path_body(path: &AsPath) -> Vec<u8> {
        let mut buf = Vec::new();
        put_as_path(&mut buf, flags::TRANSITIVE, type_codes::AS_PATH, path, true);
        let header = if buf[0] & flags::EXTENDED_LENGTH != 0 { 4 } else { 3 };
        let body = buf[header..].to_vec();
        assert_eq!(body.len(), as_path_body_len(path, true));
        body
    }

    #[test]
    fn long_as_path_splits_segments() {
        // 300 ASNs forces two wire segments of ≤255.
        let path = AsPath::from_asns((1..=300u32).map(Asn));
        let decoded = decode_as_path_body(&as_path_body(&path), true).unwrap();
        assert_eq!(decoded.asns().count(), 300);
        assert_eq!(decoded.origin(), Some(Asn(300)));
    }

    /// A decoded one-segment path is one allocation holding exactly its
    /// ASNs: every stream retains its decoded path, so spare room would be
    /// paid for by every stream.
    #[test]
    fn decoded_single_segment_path_has_exact_capacity() {
        let path: AsPath = "3356 1299 20205".parse().unwrap();
        let decoded = decode_as_path_body(&as_path_body(&path), true).unwrap();
        assert_eq!(decoded, path);
        assert_eq!(decoded.heap_bytes(), 3 * std::mem::size_of::<Asn>());
    }

    #[test]
    fn extended_length_attribute_roundtrips() {
        // >255 communities forces the extended-length flag.
        let mut a = PathAttributes {
            as_path: "1 2".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        for i in 0..100u16 {
            a.communities.insert(Community::from_parts(3356, 2500 + i));
        }
        let d = roundtrip(&a, &cfg4());
        assert_eq!(d.attrs.communities, a.communities);
    }
}
