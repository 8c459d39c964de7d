//! # kcc-bgp-types — BGP data model
//!
//! Core data types shared by every other crate in the *Keep your Communities
//! Clean* reproduction: autonomous system numbers, IP prefixes, the three
//! BGP community families (classic RFC 1997, extended RFC 4360, large
//! RFC 8092), AS paths with segment semantics, path attributes, and the
//! route-update model the analysis pipeline operates on.
//!
//! The types are deliberately simple, owned values (no lifetimes, no interior
//! mutability) so that they can be freely stored in RIBs, archives and
//! analysis state. Hot-path types (`Asn`, `Prefix`, `Community`) are `Copy`.
//!
//! ## Implemented
//!
//! * 2-byte and 4-byte ASNs, AS_TRANS, reserved/private/documentation ranges
//!   (RFC 6996, RFC 5398, RFC 7300).
//! * IPv4/IPv6 prefixes with canonical (host-bits-zeroed) representation,
//!   containment tests, and text parsing/formatting.
//! * Classic communities with the full IANA well-known registry subset used
//!   by the paper (NO_EXPORT, NO_ADVERTISE, BLACKHOLE, GRACEFUL_SHUTDOWN, …).
//! * Extended communities (two-octet-AS route-target/origin subset) and
//!   large communities.
//! * [`CommunitySet`]: the *community attribute* as an ordered, deduplicated
//!   set — equality of two sets is exactly the paper's "did the community
//!   attribute change" predicate.
//! * AS paths with AS_SEQUENCE / AS_SET / confederation segments, prepend
//!   detection (the paper's `x*` types compare the *set* of ASes), origin AS
//!   extraction and loop detection.
//! * The geo-community encoding scheme used by large transit ASes to tag
//!   ingress location (continent / country / city), which the paper
//!   identifies as the dominant source of community exploration.
//!
//! ## Omitted
//!
//! * IPv6-specific extended communities (RFC 5701) — not needed by the paper.
//! * Accumulated IGP metric, AIGP — never observed in the studied data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod as_path;
pub mod asn;
pub mod attrs;
pub mod community;
pub mod community_set;
pub mod extended;
pub mod fast_hash;
pub mod geo;
pub mod intern;
pub mod large;
pub mod prefix;
pub mod update;

pub use as_path::{AsPath, PathSegment, SegmentKind};
pub use asn::Asn;
pub use attrs::{Origin, PathAttributes};
pub use community::Community;
pub use community_set::CommunitySet;
pub use extended::ExtendedCommunity;
pub use fast_hash::{FastBuildHasher, FastHashMap, FastHashSet};
pub use geo::{GeoScope, GeoTag};
pub use intern::AttrStore;
pub use large::LargeCommunity;
pub use prefix::Prefix;
pub use update::{MessageKind, RouteUpdate};
