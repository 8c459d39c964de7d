//! NLRI (prefix) wire encoding.
//!
//! A prefix is encoded as one length octet followed by the minimum number
//! of address octets covering the mask (RFC 4271 §4.3). The same shape is
//! used for withdrawn routes, announcement NLRI, and (with the family
//! implied by the enclosing attribute) MP_REACH/MP_UNREACH NLRI.

use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut};
use kcc_bgp_types::Prefix;

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
pub const fn octets_for(len: u8) -> usize {
    (len as usize).div_ceil(8)
}

/// Bytes [`encode_prefix`] writes for `prefix`: the length octet plus
/// the address octets covering the mask.
pub(crate) fn encoded_len(prefix: &Prefix) -> usize {
    1 + octets_for(prefix.len())
}

/// Encodes one prefix into `buf`.
pub fn encode_prefix<B: BufMut>(prefix: &Prefix, buf: &mut B) {
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

/// Decodes one prefix of family `afi` from `buf`.
pub fn decode_prefix<B: Buf>(afi: Afi, buf: &mut B) -> Result<Prefix, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated { what: "prefix length" });
    }
    let len = buf.get_u8();
    let max = match afi {
        Afi::Ipv4 => 32,
        Afi::Ipv6 => 128,
    };
    if len > max {
        return Err(WireError::BadPrefixLength(len));
    }
    let n = octets_for(len);
    if buf.remaining() < n {
        return Err(WireError::Truncated { what: "prefix bytes" });
    }
    match afi {
        Afi::Ipv4 => {
            let mut oct = [0u8; 4];
            buf.copy_to_slice(&mut oct[..n]);
            Prefix::v4(Ipv4Addr::from(oct), len).map_err(|_| WireError::BadPrefixLength(len))
        }
        Afi::Ipv6 => {
            let mut oct = [0u8; 16];
            buf.copy_to_slice(&mut oct[..n]);
            Prefix::v6(Ipv6Addr::from(oct), len).map_err(|_| WireError::BadPrefixLength(len))
        }
    }
}

/// A streaming decoder over a run of prefixes: yields one
/// `Result<Prefix, WireError>` per encoded prefix until the buffer is
/// exhausted, without materializing a `Vec`. After the first error the
/// iterator fuses (further calls yield `None`) — a malformed length byte
/// leaves the rest of the run unframeable.
#[derive(Debug)]
pub struct PrefixRun<B> {
    afi: Afi,
    buf: B,
    failed: bool,
}

impl<B: Buf> PrefixRun<B> {
    /// Wraps a buffer holding back-to-back encoded prefixes of one family.
    pub fn new(afi: Afi, buf: B) -> Self {
        PrefixRun { afi, buf, failed: false }
    }
}

impl<B: Buf> Iterator for PrefixRun<B> {
    type Item = Result<Prefix, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || !self.buf.has_remaining() {
            return None;
        }
        let item = decode_prefix(self.afi, &mut self.buf);
        self.failed = item.is_err();
        Some(item)
    }
}

/// Decodes prefixes until `buf` is exhausted, collecting into a `Vec`.
/// Prefer iterating [`PrefixRun`] on hot paths.
pub fn decode_prefix_run<B: Buf>(afi: Afi, buf: &mut B) -> Result<Vec<Prefix>, WireError> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode_prefix(afi, buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(p: &str) -> Prefix {
        let prefix: Prefix = p.parse().unwrap();
        let mut buf = BytesMut::new();
        encode_prefix(&prefix, &mut buf);
        let afi = if prefix.is_ipv4() { Afi::Ipv4 } else { Afi::Ipv6 };
        decode_prefix(afi, &mut buf.freeze()).unwrap()
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
        let mut buf = BytesMut::new();
        encode_prefix(&p, &mut buf);
        assert_eq!(buf.len(), 2); // 1 length byte + 1 address byte
        let d: Prefix = "0.0.0.0/0".parse().unwrap();
        let mut buf = BytesMut::new();
        encode_prefix(&d, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn bad_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(33);
        buf.put_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(
            decode_prefix(Afi::Ipv4, &mut buf.freeze()),
            Err(WireError::BadPrefixLength(33))
        );
    }

    #[test]
    fn truncation_detected() {
        let mut buf = BytesMut::new();
        buf.put_u8(24);
        buf.put_slice(&[84, 205]); // needs 3 bytes
        assert!(matches!(
            decode_prefix(Afi::Ipv4, &mut buf.freeze()),
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
        let mut buf = BytesMut::new();
        for p in ps {
            encode_prefix(&p.parse().unwrap(), &mut buf);
        }
        let out = decode_prefix_run(Afi::Ipv4, &mut buf.freeze()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].to_string(), "192.0.2.0/25");
    }

    #[test]
    fn prefix_run_iterator_matches_collecting_decoder() {
        let ps = ["84.205.64.0/24", "10.0.0.0/8", "192.0.2.0/25"];
        let mut buf = BytesMut::new();
        for p in ps {
            encode_prefix(&p.parse().unwrap(), &mut buf);
        }
        let frozen = buf.freeze();
        let collected = decode_prefix_run(Afi::Ipv4, &mut frozen.clone()).unwrap();
        let iterated: Result<Vec<Prefix>, WireError> = PrefixRun::new(Afi::Ipv4, frozen).collect();
        assert_eq!(iterated.unwrap(), collected);
    }

    #[test]
    fn prefix_run_fuses_after_error() {
        let mut buf = BytesMut::new();
        encode_prefix(&"10.0.0.0/8".parse().unwrap(), &mut buf);
        buf.put_u8(33); // invalid v4 length
        buf.put_slice(&[1, 2, 3, 4, 5]);
        let mut run = PrefixRun::new(Afi::Ipv4, buf.freeze());
        assert!(run.next().unwrap().is_ok());
        assert_eq!(run.next().unwrap(), Err(WireError::BadPrefixLength(33)));
        assert!(run.next().is_none(), "iterator fuses after a decode error");
    }

    #[test]
    fn afi_codes() {
        assert_eq!(Afi::from_code(1), Some(Afi::Ipv4));
        assert_eq!(Afi::from_code(2), Some(Afi::Ipv6));
        assert_eq!(Afi::from_code(3), None);
        assert_eq!(Afi::Ipv4.code(), 1);
    }
}
