//! # kcc-bgp-wire — RFC 4271 BGP message codec
//!
//! Binary encoder/decoder for the BGP message types. Decoders read a
//! `&mut &[u8]` and take sub-fields as sub-slices of it ([`cursor`]), so
//! a message is decoded where it lies, with no intermediate buffer and no
//! reference-counted view; encoders append to a `Vec<u8>` ([`cursor::Put`]).
//! The MRT crate layers the RouteViews/RIS archive format on top of this
//! codec, so synthetic archives are bit-compatible with what a real
//! collector would store.
//!
//! ## Implemented
//!
//! * Message header with marker/length/type validation.
//! * OPEN with capabilities: multiprotocol (RFC 4760), 4-octet AS
//!   (RFC 6793), route refresh (RFC 2918).
//! * UPDATE with ORIGIN, AS_PATH (2- and 4-octet encodings), NEXT_HOP,
//!   MULTI_EXIT_DISC, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR,
//!   COMMUNITIES (RFC 1997), EXTENDED COMMUNITIES (RFC 4360),
//!   LARGE COMMUNITIES (RFC 8092), MP_REACH_NLRI / MP_UNREACH_NLRI
//!   (RFC 4760) for IPv6.
//! * NOTIFICATION with the RFC 4271 code registry.
//! * KEEPALIVE.
//! * ROUTE-REFRESH (RFC 2918) — a speaker that offers the capability
//!   must accept the message.
//!
//! ## Omitted
//!
//! * ADD-PATH (RFC 7911) — collector peers in the studied period
//!   overwhelmingly did not negotiate it.
//! * Graceful restart.
//! * RFC 7606 revised error handling: every decode error is a
//!   [`WireError`], and the session FSM resets the session on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod cursor;
pub mod error;
pub mod message;
pub mod nlri;
pub mod notification;
pub mod open;
pub mod update;

pub use error::WireError;
pub use message::{
    decode_message, encode_message, encode_route_update, encode_update, Message, MessageType,
    RouteRefresh, SessionConfig,
};
pub use notification::{Notification, NotificationCode, OpenErrorSubcode};
pub use open::{Capability, OpenMessage};
pub use update::UpdatePacket;

/// BGP protocol version.
pub const BGP_VERSION: u8 = 4;
/// Size of the fixed message header (marker + length + type).
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message size (RFC 4271).
pub const MAX_MESSAGE_LEN: usize = 4096;
