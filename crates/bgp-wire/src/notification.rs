//! NOTIFICATION messages (RFC 4271 §4.5).

use crate::cursor::{self, Put};
use crate::error::WireError;

/// Top-level NOTIFICATION error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationCode {
    /// Message header error.
    MessageHeader,
    /// OPEN message error.
    OpenMessage,
    /// UPDATE message error.
    UpdateMessage,
    /// Hold timer expired.
    HoldTimerExpired,
    /// Finite state machine error.
    FsmError,
    /// Administrative cease (RFC 4486 subcodes).
    Cease,
    /// Anything else (future codes).
    Other(u8),
}

impl NotificationCode {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            NotificationCode::MessageHeader => 1,
            NotificationCode::OpenMessage => 2,
            NotificationCode::UpdateMessage => 3,
            NotificationCode::HoldTimerExpired => 4,
            NotificationCode::FsmError => 5,
            NotificationCode::Cease => 6,
            NotificationCode::Other(c) => c,
        }
    }

    /// From wire value.
    pub fn from_code(c: u8) -> Self {
        match c {
            1 => NotificationCode::MessageHeader,
            2 => NotificationCode::OpenMessage,
            3 => NotificationCode::UpdateMessage,
            4 => NotificationCode::HoldTimerExpired,
            5 => NotificationCode::FsmError,
            6 => NotificationCode::Cease,
            other => NotificationCode::Other(other),
        }
    }
}

/// OPEN message error subcodes (RFC 4271 §6.2) — the precise diagnoses a
/// session FSM sends back before tearing a half-open session down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenErrorSubcode {
    /// Unsupported version number (1); data carries the largest supported
    /// version as a 2-octet integer.
    UnsupportedVersionNumber,
    /// Bad peer AS (2): the OPEN's AS does not match the configured peer.
    BadPeerAs,
    /// Bad BGP identifier (3).
    BadBgpIdentifier,
    /// Unsupported optional parameter (4).
    UnsupportedOptionalParameter,
    /// Unacceptable hold time (6): proposed value was 1 or 2 seconds.
    UnacceptableHoldTime,
}

impl OpenErrorSubcode {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            OpenErrorSubcode::UnsupportedVersionNumber => 1,
            OpenErrorSubcode::BadPeerAs => 2,
            OpenErrorSubcode::BadBgpIdentifier => 3,
            OpenErrorSubcode::UnsupportedOptionalParameter => 4,
            OpenErrorSubcode::UnacceptableHoldTime => 6,
        }
    }
}

/// A NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Error code.
    pub code: NotificationCode,
    /// Error subcode (registry depends on `code`).
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl Notification {
    /// An administrative-shutdown cease notification.
    pub fn cease_admin_shutdown() -> Self {
        Notification { code: NotificationCode::Cease, subcode: 2, data: Vec::new() }
    }

    /// An OPEN error with a precise subcode.
    pub(crate) fn open_error(subcode: OpenErrorSubcode, data: Vec<u8>) -> Self {
        Notification { code: NotificationCode::OpenMessage, subcode: subcode.code(), data }
    }

    /// Unsupported Version Number; data is the largest version we speak
    /// (RFC 4271 §6.2).
    pub fn unsupported_version(supported: u8) -> Self {
        Self::open_error(
            OpenErrorSubcode::UnsupportedVersionNumber,
            (supported as u16).to_be_bytes().to_vec(),
        )
    }

    /// Bad Peer AS: the OPEN announced an AS other than the configured one.
    pub fn bad_peer_as() -> Self {
        Self::open_error(OpenErrorSubcode::BadPeerAs, Vec::new())
    }

    /// Unacceptable Hold Time: the peer proposed 1–2 s (RFC 4271 §4.2).
    pub fn unacceptable_hold_time(proposed: u16) -> Self {
        Self::open_error(OpenErrorSubcode::UnacceptableHoldTime, proposed.to_be_bytes().to_vec())
    }

    /// Hold Timer Expired (code 4).
    pub fn hold_timer_expired() -> Self {
        Notification { code: NotificationCode::HoldTimerExpired, subcode: 0, data: Vec::new() }
    }

    /// Finite State Machine Error (code 5) — a message arrived in a state
    /// where it is not legal (e.g. a second OPEN while Established).
    pub fn fsm_error() -> Self {
        Notification { code: NotificationCode::FsmError, subcode: 0, data: Vec::new() }
    }

    /// Encodes the body (without header).
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        buf.put_u8(self.code.code());
        buf.put_u8(self.subcode);
        buf.put_slice(&self.data);
    }

    /// Decodes a body of `len` bytes.
    pub fn decode_body(buf: &mut &[u8], len: usize) -> Result<Self, WireError> {
        if len < 2 || buf.len() < len {
            return Err(WireError::Truncated { what: "NOTIFICATION body" });
        }
        let code = NotificationCode::from_code(cursor::u8(buf));
        let subcode = cursor::u8(buf);
        let data = cursor::take(buf, len - 2).to_vec();
        Ok(Notification { code, subcode, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let n = Notification {
            code: NotificationCode::UpdateMessage,
            subcode: 11,
            data: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        n.encode_body(&mut buf);
        let len = buf.len();
        assert_eq!(Notification::decode_body(&mut &buf[..], len).unwrap(), n);
    }

    #[test]
    fn code_registry_roundtrips() {
        for c in 1..=10u8 {
            assert_eq!(NotificationCode::from_code(c).code(), c);
        }
    }

    #[test]
    fn cease_constructor() {
        let n = Notification::cease_admin_shutdown();
        assert_eq!(n.code, NotificationCode::Cease);
        assert_eq!(n.subcode, 2);
    }

    #[test]
    fn open_error_subcodes_follow_rfc4271() {
        assert_eq!(OpenErrorSubcode::UnsupportedVersionNumber.code(), 1);
        assert_eq!(OpenErrorSubcode::BadPeerAs.code(), 2);
        assert_eq!(OpenErrorSubcode::BadBgpIdentifier.code(), 3);
        assert_eq!(OpenErrorSubcode::UnsupportedOptionalParameter.code(), 4);
        assert_eq!(OpenErrorSubcode::UnacceptableHoldTime.code(), 6);
    }

    #[test]
    fn open_error_constructors() {
        let v = Notification::unsupported_version(4);
        assert_eq!(v.code, NotificationCode::OpenMessage);
        assert_eq!(v.subcode, 1);
        assert_eq!(v.data, vec![0, 4]);

        let a = Notification::bad_peer_as();
        assert_eq!((a.code, a.subcode), (NotificationCode::OpenMessage, 2));

        let h = Notification::unacceptable_hold_time(2);
        assert_eq!((h.code, h.subcode), (NotificationCode::OpenMessage, 6));
        assert_eq!(h.data, vec![0, 2]);

        let e = Notification::hold_timer_expired();
        assert_eq!((e.code, e.subcode), (NotificationCode::HoldTimerExpired, 0));

        let f = Notification::fsm_error();
        assert_eq!((f.code, f.subcode), (NotificationCode::FsmError, 0));
    }

    #[test]
    fn short_body_rejected() {
        let data: &[u8] = &[1];
        assert!(Notification::decode_body(&mut &data[..], 1).is_err());
    }
}
