//! Extended BGP communities (RFC 4360).
//!
//! Extended communities are 8-octet values with a type/sub-type header.
//! The paper's data contains them but its analysis treats them opaquely as
//! part of the community attribute; we model the common two-octet-AS
//! specific forms (route target / route origin) precisely and preserve all
//! other types as raw bytes so nothing is lost in an encode/decode
//! round-trip.

use std::fmt;

/// High-order type byte values (RFC 4360 §2, IANA registry subset).
mod types {
    /// Two-octet AS specific, transitive.
    pub(crate) const TWO_OCTET_AS_TRANSITIVE: u8 = 0x00;
}

/// Sub-type byte values for AS-specific types.
mod subtypes {
    /// Route Target (RFC 4360 §4).
    pub(crate) const ROUTE_TARGET: u8 = 0x02;
    /// Route Origin (RFC 4360 §5).
    pub(crate) const ROUTE_ORIGIN: u8 = 0x03;
}

/// An extended community, decoded where the paper's data needs it and
/// otherwise preserved bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExtendedCommunity {
    /// Two-octet-AS specific route target `rt:asn:value`.
    RouteTarget {
        /// Administrator ASN (16-bit form).
        asn: u16,
        /// Local administrator value.
        value: u32,
    },
    /// Two-octet-AS specific route origin `soo:asn:value`.
    RouteOrigin {
        /// Administrator ASN (16-bit form).
        asn: u16,
        /// Local administrator value.
        value: u32,
    },
    /// Any other extended community, kept as its raw 8 octets.
    Raw([u8; 8]),
}

impl ExtendedCommunity {
    /// Encodes to the 8-octet wire form.
    pub fn to_bytes(self) -> [u8; 8] {
        match self {
            ExtendedCommunity::RouteTarget { asn, value } => {
                encode_two_octet_as(subtypes::ROUTE_TARGET, asn, value)
            }
            ExtendedCommunity::RouteOrigin { asn, value } => {
                encode_two_octet_as(subtypes::ROUTE_ORIGIN, asn, value)
            }
            ExtendedCommunity::Raw(b) => b,
        }
    }

    /// Decodes from the 8-octet wire form; unknown types become `Raw`.
    pub fn from_bytes(b: [u8; 8]) -> Self {
        if b[0] == types::TWO_OCTET_AS_TRANSITIVE {
            let asn = u16::from_be_bytes([b[2], b[3]]);
            let value = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
            match b[1] {
                subtypes::ROUTE_TARGET => return ExtendedCommunity::RouteTarget { asn, value },
                subtypes::ROUTE_ORIGIN => return ExtendedCommunity::RouteOrigin { asn, value },
                _ => {}
            }
        }
        ExtendedCommunity::Raw(b)
    }
}

fn encode_two_octet_as(subtype: u8, asn: u16, value: u32) -> [u8; 8] {
    let a = asn.to_be_bytes();
    let v = value.to_be_bytes();
    [types::TWO_OCTET_AS_TRANSITIVE, subtype, a[0], a[1], v[0], v[1], v[2], v[3]]
}

impl fmt::Display for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtendedCommunity::RouteTarget { asn, value } => write!(f, "rt:{asn}:{value}"),
            ExtendedCommunity::RouteOrigin { asn, value } => write!(f, "soo:{asn}:{value}"),
            ExtendedCommunity::Raw(b) => {
                write!(f, "raw:")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_target_roundtrip() {
        let rt = ExtendedCommunity::RouteTarget { asn: 65000, value: 100 };
        let bytes = rt.to_bytes();
        assert_eq!(bytes[0], 0x00);
        assert_eq!(bytes[1], 0x02);
        assert_eq!(ExtendedCommunity::from_bytes(bytes), rt);
    }

    #[test]
    fn route_origin_roundtrip() {
        let soo = ExtendedCommunity::RouteOrigin { asn: 3356, value: 7 };
        assert_eq!(ExtendedCommunity::from_bytes(soo.to_bytes()), soo);
    }

    #[test]
    fn unknown_types_preserved() {
        let raw = [0x43, 0x99, 1, 2, 3, 4, 5, 6];
        let ec = ExtendedCommunity::from_bytes(raw);
        assert_eq!(ec, ExtendedCommunity::Raw(raw));
        assert_eq!(ec.to_bytes(), raw);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            ExtendedCommunity::RouteTarget { asn: 65000, value: 100 }.to_string(),
            "rt:65000:100"
        );
        assert_eq!(
            ExtendedCommunity::Raw([0xff, 0, 0, 0, 0, 0, 0, 1]).to_string(),
            "raw:ff00000000000001"
        );
    }
}
