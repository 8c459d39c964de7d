//! IP prefixes (NLRI).
//!
//! A [`Prefix`] is an address plus a mask length, stored in *canonical* form
//! (host bits zeroed) so that two textual spellings of the same route compare
//! equal. Both IPv4 and IPv6 are supported — the paper's data set is
//! "inclusive of both IPv4 and IPv6 prefixes".

use std::cmp::Ordering;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IP prefix in canonical form.
///
/// Canonical means all bits beyond `len` are zero; the constructors enforce
/// this by masking. The derived equality/hash therefore match routing
/// semantics: `10.0.0.1/8` and `10.0.0.0/8` are the same prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prefix {
    /// An IPv4 prefix.
    V4 {
        /// Network address with host bits cleared.
        addr: Ipv4Addr,
        /// Mask length, 0–32.
        len: u8,
    },
    /// An IPv6 prefix.
    V6 {
        /// Network address with host bits cleared.
        addr: Ipv6Addr,
        /// Mask length, 0–128.
        len: u8,
    },
}

/// Error constructing or parsing a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Mask length exceeds the address family's maximum.
    LengthOutOfRange {
        /// The offending length.
        len: u8,
        /// The family maximum (32 or 128).
        max: u8,
    },
    /// The text could not be parsed as `addr/len`.
    Syntax(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length {len} exceeds maximum {max}")
            }
            PrefixError::Syntax(s) => write!(f, "invalid prefix syntax: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

fn mask_v4(addr: Ipv4Addr, len: u8) -> Ipv4Addr {
    let raw = u32::from(addr);
    let masked = if len == 0 { 0 } else { raw & (u32::MAX << (32 - len as u32)) };
    Ipv4Addr::from(masked)
}

fn mask_v6(addr: Ipv6Addr, len: u8) -> Ipv6Addr {
    let raw = u128::from(addr);
    let masked = if len == 0 { 0 } else { raw & (u128::MAX << (128 - len as u32)) };
    Ipv6Addr::from(masked)
}

impl Prefix {
    /// Creates a canonical IPv4 prefix; host bits are masked off.
    ///
    /// # Errors
    /// Returns [`PrefixError::LengthOutOfRange`] if `len > 32`.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange { len, max: 32 });
        }
        Ok(Prefix::V4 { addr: mask_v4(addr, len), len })
    }

    /// Creates a canonical IPv6 prefix; host bits are masked off.
    ///
    /// # Errors
    /// Returns [`PrefixError::LengthOutOfRange`] if `len > 128`.
    pub fn v6(addr: Ipv6Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 128 {
            return Err(PrefixError::LengthOutOfRange { len, max: 128 });
        }
        Ok(Prefix::V6 { addr: mask_v6(addr, len), len })
    }

    /// Convenience constructor from dotted-quad octets, panicking on a bad
    /// length. Intended for tests and topology builders with literal input.
    pub fn v4_unchecked(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Prefix::v4(Ipv4Addr::new(a, b, c, d), len).expect("literal prefix length")
    }

    /// The mask length.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        match self {
            Prefix::V4 { len, .. } | Prefix::V6 { len, .. } => *len,
        }
    }

    /// True for IPv4 prefixes.
    pub fn is_ipv4(&self) -> bool {
        matches!(self, Prefix::V4 { .. })
    }

    /// True for IPv6 prefixes.
    pub fn is_ipv6(&self) -> bool {
        matches!(self, Prefix::V6 { .. })
    }

    /// The network address as a generic [`IpAddr`].
    pub fn addr(&self) -> IpAddr {
        match self {
            Prefix::V4 { addr, .. } => IpAddr::V4(*addr),
            Prefix::V6 { addr, .. } => IpAddr::V6(*addr),
        }
    }

    /// True if `self` contains `other` (same family, `self` no longer,
    /// and `other`'s network falls inside `self`). A prefix contains itself.
    pub fn contains(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4 { len: l1, .. }, Prefix::V4 { addr: a2, len: l2 }) => {
                l1 <= l2 && mask_v4(*a2, *l1) == mask_v4(self.v4_addr(), *l1)
            }
            (Prefix::V6 { len: l1, .. }, Prefix::V6 { addr: a2, len: l2 }) => {
                l1 <= l2 && mask_v6(*a2, *l1) == mask_v6(self.v6_addr(), *l1)
            }
            _ => false,
        }
    }

    fn v4_addr(&self) -> Ipv4Addr {
        match self {
            Prefix::V4 { addr, .. } => *addr,
            Prefix::V6 { .. } => unreachable!("v4_addr on v6 prefix"),
        }
    }

    fn v6_addr(&self) -> Ipv6Addr {
        match self {
            Prefix::V6 { addr, .. } => *addr,
            Prefix::V4 { .. } => unreachable!("v6_addr on v4 prefix"),
        }
    }
}

impl Ord for Prefix {
    /// IPv4 sorts before IPv6; within a family, by address then length —
    /// a stable order for reports and RIB dumps.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Prefix::V4 { addr: a, len: l }, Prefix::V4 { addr: b, len: m }) => {
                a.cmp(b).then(l.cmp(m))
            }
            (Prefix::V6 { addr: a, len: l }, Prefix::V6 { addr: b, len: m }) => {
                a.cmp(b).then(l.cmp(m))
            }
            (Prefix::V4 { .. }, Prefix::V6 { .. }) => Ordering::Less,
            (Prefix::V6 { .. }, Prefix::V4 { .. }) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prefix::V4 { addr, len } => write!(f, "{addr}/{len}"),
            Prefix::V6 { addr, len } => write!(f, "{addr}/{len}"),
        }
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| PrefixError::Syntax(s.into()))?;
        let len: u8 = len.parse().map_err(|_| PrefixError::Syntax(s.into()))?;
        if let Ok(v4) = addr.parse::<Ipv4Addr>() {
            return Prefix::v4(v4, len);
        }
        if let Ok(v6) = addr.parse::<Ipv6Addr>() {
            return Prefix::v6(v6, len);
        }
        Err(PrefixError::Syntax(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let a: Prefix = "10.1.2.3/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn parse_roundtrip_v4() {
        // The beacon prefix from the paper's Figures 3-5.
        let p: Prefix = "84.205.64.0/24".parse().unwrap();
        assert_eq!(p.to_string(), "84.205.64.0/24");
        assert_eq!(p.len(), 24);
        assert!(p.is_ipv4());
    }

    #[test]
    fn parse_roundtrip_v6() {
        let p: Prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(p.to_string(), "2001:db8::/32");
        assert!(p.is_ipv6());
        let q: Prefix = "2001:db8:1:2:3::/40".parse().unwrap();
        assert_eq!(q.to_string(), "2001:db8::/40");
    }

    #[test]
    fn invalid_lengths_rejected() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
    }

    #[test]
    fn invalid_syntax_rejected() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/abc".parse::<Prefix>().is_err());
        assert!("nonsense/8".parse::<Prefix>().is_err());
        assert!("/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let big: Prefix = "10.0.0.0/8".parse().unwrap();
        let small: Prefix = "10.20.0.0/16".parse().unwrap();
        let other: Prefix = "11.0.0.0/16".parse().unwrap();
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(!big.contains(&other));
        assert!(big.contains(&big));
    }

    #[test]
    fn containment_cross_family_is_false() {
        let v4: Prefix = "0.0.0.0/0".parse().unwrap();
        let v6: Prefix = "::/0".parse().unwrap();
        assert!(!v4.contains(&v6));
        assert!(!v6.contains(&v4));
    }

    #[test]
    fn default_route_contains_everything_in_family() {
        let v4_default: Prefix = "0.0.0.0/0".parse().unwrap();
        let p: Prefix = "84.205.64.0/24".parse().unwrap();
        assert!(v4_default.contains(&p));
    }

    #[test]
    fn ordering_v4_before_v6() {
        let v4: Prefix = "255.255.255.255/32".parse().unwrap();
        let v6: Prefix = "::/0".parse().unwrap();
        assert!(v4 < v6);
    }

    #[test]
    fn ordering_within_family() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }
}
