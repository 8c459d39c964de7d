//! Decode/encode errors.

use std::fmt;

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete item was read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Header length field out of the legal 19..=4096 range or inconsistent.
    BadLength(u16),
    /// Unknown message type code.
    UnknownMessageType(u8),
    /// Unsupported BGP version in OPEN.
    BadVersion(u8),
    /// A path attribute was malformed.
    MalformedAttribute {
        /// Attribute type code.
        code: u8,
        /// Human-readable detail.
        detail: &'static str,
    },
    /// A well-known mandatory attribute is missing from an UPDATE with NLRI.
    MissingMandatoryAttribute(&'static str),
    /// A prefix had an impossible mask length for its family.
    BadPrefixLength(u8),
    /// An unknown well-known (non-optional) attribute was seen.
    UnrecognizedWellKnown(u8),
    /// Value failed a semantic check (e.g. ORIGIN code 9).
    BadValue {
        /// Attribute or field name.
        what: &'static str,
        /// The offending value widened to u32.
        value: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated input while reading {what}"),
            WireError::BadMarker => write!(f, "header marker is not all-ones"),
            WireError::BadLength(l) => write!(f, "illegal message length {l}"),
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            WireError::BadVersion(v) => write!(f, "unsupported BGP version {v}"),
            WireError::MalformedAttribute { code, detail } => {
                write!(f, "malformed path attribute {code}: {detail}")
            }
            WireError::MissingMandatoryAttribute(name) => {
                write!(f, "missing mandatory attribute {name}")
            }
            WireError::BadPrefixLength(l) => write!(f, "impossible prefix length {l}"),
            WireError::UnrecognizedWellKnown(c) => {
                write!(f, "unrecognized well-known attribute {c}")
            }
            WireError::BadValue { what, value } => write!(f, "bad {what} value {value}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::MalformedAttribute { code: 2, detail: "bad segment" };
        assert!(e.to_string().contains("2"));
        assert!(e.to_string().contains("bad segment"));
    }
}
