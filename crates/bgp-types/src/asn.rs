//! Autonomous System Numbers.
//!
//! BGP originally carried 2-octet AS numbers; RFC 6793 widened them to
//! 4 octets, with `AS_TRANS` (23456) standing in for 4-octet ASNs on
//! sessions that have not negotiated the capability. The paper's data
//! cleaning step removes updates whose ASNs were *unallocated* at message
//! time, so [`Asn`] also exposes the structural (reserved/private/
//! documentation) classification that any allocation registry builds on.

use std::fmt;
use std::str::FromStr;

/// A 4-octet autonomous system number (RFC 6793).
///
/// `Asn` is a transparent newtype over `u32`; ordering and hashing follow
/// the numeric value. Construction is infallible — every `u32` is a
/// syntactically valid ASN — but many values are *reserved* and will be
/// rejected by the allocation registry used during data cleaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

/// `AS_TRANS`, the 2-octet stand-in for 4-octet ASNs (RFC 6793 §9).
pub const AS_TRANS: Asn = Asn(23456);

impl Asn {
    /// Last 2-octet ASN value.
    pub(crate) const MAX_16BIT: u32 = 65_535;

    /// Creates an ASN from a raw value.
    pub const fn new(value: u32) -> Self {
        Asn(value)
    }

    /// Returns the raw numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// True if the ASN fits in the original 2-octet space.
    pub const fn is_16bit(self) -> bool {
        self.0 <= Self::MAX_16BIT
    }

    /// True for `AS_TRANS` (23456), the RFC 6793 placeholder.
    pub const fn is_as_trans(self) -> bool {
        self.0 == AS_TRANS.0
    }

    /// True for ASNs reserved for private use
    /// (64512–65534 and 4200000000–4294967294, RFC 6996).
    pub(crate) const fn is_private(self) -> bool {
        (self.0 >= 64_512 && self.0 <= 65_534)
            || (self.0 >= 4_200_000_000 && self.0 <= 4_294_967_294)
    }

    /// True for ASNs reserved for documentation
    /// (64496–64511 and 65536–65551, RFC 5398).
    pub(crate) const fn is_documentation(self) -> bool {
        (self.0 >= 64_496 && self.0 <= 64_511) || (self.0 >= 65_536 && self.0 <= 65_551)
    }

    /// True for structurally reserved values that can never be allocated:
    /// 0 (RFC 7607), 65535 (RFC 7300), 4294967295 (RFC 7300), and `AS_TRANS`.
    pub(crate) const fn is_reserved(self) -> bool {
        self.0 == 0 || self.0 == 65_535 || self.0 == u32::MAX || self.is_as_trans()
    }

    /// True if the ASN could be allocated to a real network by an RIR:
    /// not reserved, not private, not documentation.
    pub const fn is_allocatable(self) -> bool {
        !self.is_reserved() && !self.is_private() && !self.is_documentation()
    }

    /// Encodes the ASN for a 2-octet session: 4-octet values collapse to
    /// `AS_TRANS` (RFC 6793 §4.2.2).
    pub const fn to_16bit_wire(self) -> u16 {
        if self.0 > Self::MAX_16BIT {
            AS_TRANS.0 as u16
        } else {
            self.0 as u16
        }
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<u16> for Asn {
    fn from(v: u16) -> Self {
        Asn(v as u32)
    }
}

impl From<Asn> for u32 {
    fn from(a: Asn) -> Self {
        a.0
    }
}

impl fmt::Display for Asn {
    /// Plain decimal ("asplain", RFC 5396): `65550`, never `1.14`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Error parsing an ASN from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsnError(String);

impl fmt::Display for ParseAsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ASN: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsnError {}

impl FromStr for Asn {
    type Err = ParseAsnError;

    /// Accepts `asplain` (`"3356"`), an optional `AS` prefix (`"AS3356"`),
    /// and `asdot` (`"1.10"` = 65546) notation (RFC 5396).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s.strip_prefix("AS").or_else(|| s.strip_prefix("as")).unwrap_or(s);
        if let Some((hi, lo)) = body.split_once('.') {
            let hi: u32 = hi.parse().map_err(|_| ParseAsnError(s.into()))?;
            let lo: u32 = lo.parse().map_err(|_| ParseAsnError(s.into()))?;
            if hi > 0xFFFF || lo > 0xFFFF {
                return Err(ParseAsnError(s.into()));
            }
            return Ok(Asn((hi << 16) | lo));
        }
        body.parse::<u32>().map(Asn).map_err(|_| ParseAsnError(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_asplain() {
        assert_eq!(Asn(3356).to_string(), "3356");
        assert_eq!(Asn(65_546).to_string(), "65546");
    }

    #[test]
    fn parse_asplain_and_prefix() {
        assert_eq!("3356".parse::<Asn>().unwrap(), Asn(3356));
        assert_eq!("AS3356".parse::<Asn>().unwrap(), Asn(3356));
        assert_eq!("as20205".parse::<Asn>().unwrap(), Asn(20205));
    }

    #[test]
    fn parse_asdot() {
        assert_eq!("1.10".parse::<Asn>().unwrap(), Asn(65_546));
        assert_eq!("0.23456".parse::<Asn>().unwrap(), AS_TRANS);
        assert!("1.70000".parse::<Asn>().is_err());
        assert!("70000.1".parse::<Asn>().is_err());
    }

    #[test]
    fn parse_garbage_fails() {
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("-5".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn sixteen_bit_boundary() {
        assert!(Asn(65_535).is_16bit());
        assert!(!Asn(65_536).is_16bit());
        assert_eq!(Asn(65_536).to_16bit_wire(), 23_456);
        assert_eq!(Asn(174).to_16bit_wire(), 174);
    }

    #[test]
    fn private_ranges() {
        assert!(Asn(64_512).is_private());
        assert!(Asn(65_534).is_private());
        assert!(!Asn(65_535).is_private());
        assert!(Asn(4_200_000_000).is_private());
        assert!(Asn(4_294_967_294).is_private());
        assert!(!Asn(u32::MAX).is_private());
        assert!(!Asn(3356).is_private());
    }

    #[test]
    fn documentation_ranges() {
        assert!(Asn(64_496).is_documentation());
        assert!(Asn(64_511).is_documentation());
        assert!(Asn(65_536).is_documentation());
        assert!(Asn(65_551).is_documentation());
        assert!(!Asn(65_552).is_documentation());
    }

    #[test]
    fn reserved_values() {
        assert!(Asn(0).is_reserved());
        assert!(Asn(65_535).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        assert!(AS_TRANS.is_reserved());
        assert!(!Asn(12_654).is_reserved());
    }

    #[test]
    fn allocatable() {
        // RIPE RIS beacon origin (AS12654) and big transits are allocatable.
        for asn in [12_654u32, 3356, 174, 20_205, 6939] {
            assert!(Asn(asn).is_allocatable(), "AS{asn} should be allocatable");
        }
        assert!(!Asn(0).is_allocatable());
        assert!(!Asn(64_512).is_allocatable());
        assert!(!Asn(64_500).is_allocatable());
    }
}
