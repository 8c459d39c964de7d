//! NLRI (prefix) wire encoding.
//!
//! A prefix is encoded as one length octet followed by the minimum number
//! of address octets covering the mask (RFC 4271 §4.3). The same shape is
//! used for withdrawn routes, announcement NLRI, and (with the family
//! implied by the enclosing attribute) MP_REACH/MP_UNREACH NLRI.

use std::net::{Ipv4Addr, Ipv6Addr};

use kcc_bgp_types::Prefix;

use crate::cursor::{self, Put};
use crate::error::WireError;

/// Address family identifiers (RFC 4760).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Afi {
    /// IPv4 (AFI 1).
    Ipv4,
    /// IPv6 (AFI 2).
    Ipv6,
}

impl Afi {
    /// Wire value.
    pub const fn code(self) -> u16 {
        match self {
            Afi::Ipv4 => 1,
            Afi::Ipv6 => 2,
        }
    }

    /// From wire value.
    pub const fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(Afi::Ipv4),
            2 => Some(Afi::Ipv6),
            _ => None,
        }
    }
}

/// Bytes needed to cover `len` mask bits.
pub(crate) const fn octets_for(len: u8) -> usize {
    (len as usize).div_ceil(8)
}

/// Bytes [`encode_prefix`] writes for `prefix`: the length octet plus
/// the address octets covering the mask.
pub(crate) fn encoded_len(prefix: &Prefix) -> usize {
    1 + octets_for(prefix.len())
}

/// Encodes one prefix into `buf`.
pub fn encode_prefix(prefix: &Prefix, buf: &mut Vec<u8>) {
    match prefix {
        Prefix::V4 { addr, len } => {
            buf.put_u8(*len);
            buf.put_slice(&addr.octets()[..octets_for(*len)]);
        }
        Prefix::V6 { addr, len } => {
            buf.put_u8(*len);
            buf.put_slice(&addr.octets()[..octets_for(*len)]);
        }
    }
}

/// Decodes one prefix of family `afi` from the front of `buf`.
pub fn decode_prefix(afi: Afi, buf: &mut &[u8]) -> Result<Prefix, WireError> {
    if buf.is_empty() {
        return Err(WireError::Truncated { what: "prefix length" });
    }
    let len = cursor::u8(buf);
    let max = match afi {
        Afi::Ipv4 => 32,
        Afi::Ipv6 => 128,
    };
    if len > max {
        return Err(WireError::BadPrefixLength(len));
    }
    let n = octets_for(len);
    if buf.len() < n {
        return Err(WireError::Truncated { what: "prefix bytes" });
    }
    let bytes = cursor::take(buf, n);
    match afi {
        Afi::Ipv4 => {
            let mut oct = [0u8; 4];
            oct[..n].copy_from_slice(bytes);
            Prefix::v4(Ipv4Addr::from(oct), len).map_err(|_| WireError::BadPrefixLength(len))
        }
        Afi::Ipv6 => {
            let mut oct = [0u8; 16];
            oct[..n].copy_from_slice(bytes);
            Prefix::v6(Ipv6Addr::from(oct), len).map_err(|_| WireError::BadPrefixLength(len))
        }
    }
}

/// Decodes prefixes until `buf` is exhausted, collecting into a `Vec`.
pub fn decode_prefix_run(afi: Afi, buf: &mut &[u8]) -> Result<Vec<Prefix>, WireError> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        out.push(decode_prefix(afi, buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &str) -> Prefix {
        let prefix: Prefix = p.parse().unwrap();
        let mut buf = Vec::new();
        encode_prefix(&prefix, &mut buf);
        let afi = if prefix.is_ipv4() { Afi::Ipv4 } else { Afi::Ipv6 };
        decode_prefix(afi, &mut &buf[..]).unwrap()
    }

    #[test]
    fn v4_roundtrips() {
        for p in ["84.205.64.0/24", "10.0.0.0/8", "0.0.0.0/0", "192.0.2.1/32", "128.0.0.0/1"] {
            assert_eq!(roundtrip(p).to_string(), p);
        }
    }

    #[test]
    fn v6_roundtrips() {
        for p in ["2001:db8::/32", "::/0", "2001:db8:1::/48", "2001:db8::1/128"] {
            assert_eq!(roundtrip(p).to_string(), p);
        }
    }

    #[test]
    fn minimal_octets_used() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut buf = Vec::new();
        encode_prefix(&p, &mut buf);
        assert_eq!(buf.len(), 2); // 1 length byte + 1 address byte
        let d: Prefix = "0.0.0.0/0".parse().unwrap();
        let mut buf = Vec::new();
        encode_prefix(&d, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn bad_length_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(33);
        buf.put_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(decode_prefix(Afi::Ipv4, &mut &buf[..]), Err(WireError::BadPrefixLength(33)));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        buf.put_u8(24);
        buf.put_slice(&[84, 205]); // needs 3 bytes
        assert!(matches!(
            decode_prefix(Afi::Ipv4, &mut &buf[..]),
            Err(WireError::Truncated { .. })
        ));
        let empty: &[u8] = &[];
        assert!(matches!(
            decode_prefix(Afi::Ipv4, &mut &empty[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn run_decodes_many() {
        let ps = ["84.205.64.0/24", "10.0.0.0/8", "192.0.2.0/25"];
        let mut buf = Vec::new();
        for p in ps {
            encode_prefix(&p.parse().unwrap(), &mut buf);
        }
        let out = decode_prefix_run(Afi::Ipv4, &mut &buf[..]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].to_string(), "192.0.2.0/25");
    }

    #[test]
    fn afi_codes() {
        assert_eq!(Afi::from_code(1), Some(Afi::Ipv4));
        assert_eq!(Afi::from_code(2), Some(Afi::Ipv6));
        assert_eq!(Afi::from_code(3), None);
        assert_eq!(Afi::Ipv4.code(), 1);
    }
}
