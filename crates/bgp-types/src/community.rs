//! Classic BGP communities (RFC 1997).
//!
//! A classic community is a 32-bit value conventionally written
//! `asn:value`, where the high 16 bits identify the AS that defined the
//! semantics and the low 16 bits carry the AS-specific meaning. Because
//! each AS defines its own semantics, routers that do not recognize a
//! community are expected to propagate it unchanged — the transitivity at
//! the heart of the paper's findings.

use std::fmt;
use std::str::FromStr;

/// A classic 32-bit BGP community (RFC 1997).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

/// Well-known communities from the IANA registry, relevant to the paper.
pub mod well_known {
    use super::Community;

    /// `GRACEFUL_SHUTDOWN` (RFC 8326).
    pub const GRACEFUL_SHUTDOWN: Community = Community(0xFFFF_0000);
    /// `ACCEPT_OWN` (RFC 7611).
    pub(crate) const ACCEPT_OWN: Community = Community(0xFFFF_0001);
    /// `BLACKHOLE` (RFC 7999) — the DDoS-mitigation action community.
    pub const BLACKHOLE: Community = Community(0xFFFF_029A);
    /// `NO_EXPORT` (RFC 1997).
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// `NO_ADVERTISE` (RFC 1997).
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);
    /// `NO_EXPORT_SUBCONFED` / `LOCAL-AS` (RFC 1997).
    pub(crate) const NO_EXPORT_SUBCONFED: Community = Community(0xFFFF_FF03);
    /// `NOPEER` (RFC 3765).
    pub(crate) const NOPEER: Community = Community(0xFFFF_FF04);
}

impl Community {
    /// Builds a community from its conventional `asn:value` halves.
    pub const fn from_parts(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits: the AS that defined this community's semantics.
    pub const fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits: the AS-specific value.
    pub const fn value_part(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// The IANA name for registered well-known values, if any.
    pub fn well_known_name(self) -> Option<&'static str> {
        use well_known::*;
        Some(match self {
            GRACEFUL_SHUTDOWN => "GRACEFUL_SHUTDOWN",
            ACCEPT_OWN => "ACCEPT_OWN",
            BLACKHOLE => "BLACKHOLE",
            NO_EXPORT => "NO_EXPORT",
            NO_ADVERTISE => "NO_ADVERTISE",
            NO_EXPORT_SUBCONFED => "NO_EXPORT_SUBCONFED",
            NOPEER => "NOPEER",
            _ => return None,
        })
    }
}

impl From<u32> for Community {
    fn from(v: u32) -> Self {
        Community(v)
    }
}

impl fmt::Display for Community {
    /// Canonical `asn:value` notation, e.g. `3356:2065`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

/// Error parsing a community from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommunityError(String);

impl fmt::Display for ParseCommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid community: {:?}", self.0)
    }
}

impl std::error::Error for ParseCommunityError {}

impl FromStr for Community {
    type Err = ParseCommunityError;

    /// Accepts `asn:value` (e.g. `"3356:2065"`) or a bare 32-bit decimal.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((a, v)) = s.split_once(':') {
            let a: u16 = a.parse().map_err(|_| ParseCommunityError(s.into()))?;
            let v: u16 = v.parse().map_err(|_| ParseCommunityError(s.into()))?;
            Ok(Community::from_parts(a, v))
        } else {
            s.parse::<u32>().map(Community).map_err(|_| ParseCommunityError(s.into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_roundtrip() {
        let c = Community::from_parts(3356, 2065);
        assert_eq!(c.asn_part(), 3356);
        assert_eq!(c.value_part(), 2065);
        assert_eq!(c.0, (3356u32 << 16) | 2065);
    }

    #[test]
    fn display_is_colon_notation() {
        assert_eq!(Community::from_parts(65000, 300).to_string(), "65000:300");
        assert_eq!(Community(0xFFFF_FF01).to_string(), "65535:65281");
    }

    #[test]
    fn parse_colon_notation() {
        assert_eq!("3356:2065".parse::<Community>().unwrap(), Community::from_parts(3356, 2065));
        assert_eq!("0:0".parse::<Community>().unwrap(), Community(0));
    }

    #[test]
    fn parse_bare_decimal() {
        assert_eq!("4294901762".parse::<Community>().unwrap(), Community(0xFFFF_0002));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("3356".parse::<Community>().is_ok()); // bare decimal
        assert!("3356:".parse::<Community>().is_err());
        assert!(":10".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err());
        assert!("1:70000".parse::<Community>().is_err());
        assert!("a:b".parse::<Community>().is_err());
    }

    #[test]
    fn well_known_detection() {
        assert_eq!(well_known::BLACKHOLE.well_known_name(), Some("BLACKHOLE"));
        assert_eq!(Community::from_parts(3356, 1).well_known_name(), None);
    }

    #[test]
    fn blackhole_is_65535_666() {
        assert_eq!(well_known::BLACKHOLE, Community::from_parts(65535, 666));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Community::from_parts(1, 5) < Community::from_parts(2, 0));
        assert!(Community::from_parts(2, 0) < Community::from_parts(2, 1));
    }
}
