//! OPEN message with capability negotiation.

use std::net::Ipv4Addr;

use kcc_bgp_types::Asn;

use crate::cursor::{self, Put};
use crate::error::WireError;
use crate::nlri::Afi;
use crate::BGP_VERSION;

/// A negotiated capability (RFC 5492 subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// Multiprotocol extensions for an AFI/SAFI pair (RFC 4760, code 1).
    Multiprotocol {
        /// Address family.
        afi: Afi,
        /// Subsequent address family (1 = unicast).
        safi: u8,
    },
    /// Route refresh (RFC 2918, code 2).
    RouteRefresh,
    /// 4-octet AS numbers (RFC 6793, code 65) with the speaker's real ASN.
    FourOctetAs(Asn),
    /// Anything else, kept raw.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw capability value.
        value: Vec<u8>,
    },
}

/// A decoded OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// The sender's ASN (2-octet field; `AS_TRANS` if it does not fit).
    pub asn: Asn,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The sender's BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Announced capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMessage {
    /// A conventional OPEN for a collector-style session: multiprotocol
    /// v4+v6, route refresh, 4-octet AS.
    pub fn standard(asn: Asn, bgp_id: Ipv4Addr, hold_time: u16) -> Self {
        OpenMessage {
            asn,
            hold_time,
            bgp_id,
            capabilities: vec![
                Capability::Multiprotocol { afi: Afi::Ipv4, safi: 1 },
                Capability::Multiprotocol { afi: Afi::Ipv6, safi: 1 },
                Capability::RouteRefresh,
                Capability::FourOctetAs(asn),
            ],
        }
    }

    /// The real ASN: the 4-octet capability value if present, else the
    /// 2-octet header field.
    pub fn real_asn(&self) -> Asn {
        for c in &self.capabilities {
            if let Capability::FourOctetAs(a) = c {
                return *a;
            }
        }
        self.asn
    }

    /// True if both v4 and the given capability were announced.
    pub fn supports_four_octet(&self) -> bool {
        self.capabilities.iter().any(|c| matches!(c, Capability::FourOctetAs(_)))
    }

    /// Encodes the OPEN body (without the message header).
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        buf.put_u8(BGP_VERSION);
        buf.put_u16(self.asn.to_16bit_wire());
        buf.put_u16(self.hold_time);
        buf.put_slice(&self.bgp_id.octets());

        let mut caps = Vec::new();
        for c in &self.capabilities {
            match c {
                Capability::Multiprotocol { afi, safi } => {
                    caps.put_u8(1);
                    caps.put_u8(4);
                    caps.put_u16(afi.code());
                    caps.put_u8(0);
                    caps.put_u8(*safi);
                }
                Capability::RouteRefresh => {
                    caps.put_u8(2);
                    caps.put_u8(0);
                }
                Capability::FourOctetAs(asn) => {
                    caps.put_u8(65);
                    caps.put_u8(4);
                    caps.put_u32(asn.value());
                }
                Capability::Unknown { code, value } => {
                    caps.put_u8(*code);
                    caps.put_u8(value.len() as u8);
                    caps.put_slice(value);
                }
            }
        }
        if caps.is_empty() {
            buf.put_u8(0);
        } else {
            // One optional parameter of type 2 (capabilities).
            buf.put_u8((caps.len() + 2) as u8);
            buf.put_u8(2);
            buf.put_u8(caps.len() as u8);
            buf.put_slice(&caps);
        }
    }

    /// Decodes an OPEN body from the front of `buf`.
    pub fn decode_body(buf: &mut &[u8]) -> Result<Self, WireError> {
        if buf.len() < 10 {
            return Err(WireError::Truncated { what: "OPEN body" });
        }
        let version = cursor::u8(buf);
        if version != BGP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let asn = Asn(cursor::u16(buf) as u32);
        let hold_time = cursor::u16(buf);
        // RFC 4271 §4.2: the hold time MUST be either zero or at least
        // three seconds; 1–2 s proposals are rejected so a live speaker
        // can answer with an Unacceptable Hold Time NOTIFICATION.
        if hold_time == 1 || hold_time == 2 {
            return Err(WireError::BadValue { what: "hold time", value: hold_time as u32 });
        }
        let bgp_id = Ipv4Addr::from(cursor::array::<4>(buf));
        let opt_len = cursor::u8(buf) as usize;
        if buf.len() < opt_len {
            return Err(WireError::Truncated { what: "OPEN optional parameters" });
        }
        let mut params = cursor::take(buf, opt_len);
        let mut capabilities = Vec::new();
        while !params.is_empty() {
            if params.len() < 2 {
                return Err(WireError::Truncated { what: "optional parameter header" });
            }
            let ptype = cursor::u8(&mut params);
            let plen = cursor::u8(&mut params) as usize;
            if params.len() < plen {
                return Err(WireError::Truncated { what: "optional parameter body" });
            }
            let mut pbody = cursor::take(&mut params, plen);
            if ptype != 2 {
                continue; // non-capability parameter: ignore
            }
            while !pbody.is_empty() {
                if pbody.len() < 2 {
                    return Err(WireError::Truncated { what: "capability header" });
                }
                let code = cursor::u8(&mut pbody);
                let clen = cursor::u8(&mut pbody) as usize;
                if pbody.len() < clen {
                    return Err(WireError::Truncated { what: "capability body" });
                }
                let mut cbody = cursor::take(&mut pbody, clen);
                capabilities.push(match (code, clen) {
                    (1, 4) => {
                        let afi_code = cursor::u16(&mut cbody);
                        cursor::u8(&mut cbody); // reserved
                        let safi = cursor::u8(&mut cbody);
                        match Afi::from_code(afi_code) {
                            Some(afi) => Capability::Multiprotocol { afi, safi },
                            None => Capability::Unknown { code, value: Vec::new() },
                        }
                    }
                    (2, 0) => Capability::RouteRefresh,
                    (65, 4) => Capability::FourOctetAs(Asn(cursor::u32(&mut cbody))),
                    _ => Capability::Unknown { code, value: cbody.to_vec() },
                });
            }
        }
        Ok(OpenMessage { asn, hold_time, bgp_id, capabilities })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(o: &OpenMessage) -> OpenMessage {
        let mut buf = Vec::new();
        o.encode_body(&mut buf);
        OpenMessage::decode_body(&mut &buf[..]).unwrap()
    }

    #[test]
    fn standard_open_roundtrips() {
        let o = OpenMessage::standard(Asn(20_205), "10.0.0.1".parse().unwrap(), 180);
        assert_eq!(roundtrip(&o), o);
    }

    #[test]
    fn four_octet_asn_via_capability() {
        let o = OpenMessage::standard(Asn(196_615), "10.0.0.1".parse().unwrap(), 90);
        let d = roundtrip(&o);
        assert_eq!(d.asn, Asn(23_456)); // header field collapsed to AS_TRANS
        assert_eq!(d.real_asn(), Asn(196_615));
        assert!(d.supports_four_octet());
    }

    #[test]
    fn open_without_capabilities() {
        let o = OpenMessage {
            asn: Asn(65_000),
            hold_time: 90,
            bgp_id: "192.0.2.1".parse().unwrap(),
            capabilities: vec![],
        };
        let d = roundtrip(&o);
        assert_eq!(d.real_asn(), Asn(65_000));
        assert!(!d.supports_four_octet());
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.put_u8(3);
        buf.put_slice(&[0; 9]);
        assert_eq!(OpenMessage::decode_body(&mut &buf[..]), Err(WireError::BadVersion(3)));
    }

    #[test]
    fn unacceptable_hold_time_rejected() {
        // RFC 4271 §4.2: hold time 1–2 s is illegal; 0 and ≥3 are fine.
        for (hold, ok) in [(0u16, true), (1, false), (2, false), (3, true), (65_535, true)] {
            let o = OpenMessage::standard(Asn(65_000), "10.0.0.1".parse().unwrap(), hold);
            let mut buf = Vec::new();
            o.encode_body(&mut buf);
            let decoded = OpenMessage::decode_body(&mut &buf[..]);
            if ok {
                assert_eq!(decoded.unwrap().hold_time, hold);
            } else {
                assert_eq!(
                    decoded,
                    Err(WireError::BadValue { what: "hold time", value: hold as u32 })
                );
            }
        }
    }

    #[test]
    fn unknown_capability_preserved() {
        let o = OpenMessage {
            asn: Asn(1),
            hold_time: 0,
            bgp_id: "1.1.1.1".parse().unwrap(),
            capabilities: vec![Capability::Unknown { code: 199, value: vec![9, 9] }],
        };
        assert_eq!(roundtrip(&o), o);
    }
}
