//! Resumable BGP framing — the one place a frame is cut.
//!
//! BGP messages are length-prefixed: a 19-byte header (16-byte marker,
//! 2-byte length, 1-byte type) followed by up to 4077 body bytes. On a
//! reactor a read may surface any byte count, including a frame split
//! anywhere, so [`FrameBuffer`] does no I/O: bytes go in as they
//! arrive, complete messages come out, partial frames stay buffered
//! across calls. Every reader in the crate — the reactor's sessions,
//! the [`crate::flood`] rig and the blocking [`crate::active`] speaker
//! — frames through it. Decode configuration: the 4-octet AS width is
//! re-derived from the peer's OPEN (ANDed with our own offer); the
//! OPEN's own encoding is width-independent and always precedes the
//! first UPDATE, so the switch is race-free.
//!
//! [`WriteQueue`] is the outbound half: messages encode into a bounded
//! per-session backlog that flushes as far as the socket accepts and
//! resumes mid-frame after `WouldBlock`. Exceeding the cap is a protocol
//! failure for that session (a peer that cannot drain its keepalives is
//! dead weight), surfaced as [`WriteOverflow`] so the reactor tears the
//! session down instead of buffering without bound.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};

use bytes::{Buf, BytesMut};
use kcc_bgp_wire::{
    decode_message, encode_message, Message, SessionConfig, WireError, HEADER_LEN, MAX_MESSAGE_LEN,
};

/// Accumulates stream bytes and yields complete decoded messages.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: BytesMut,
    cfg: SessionConfig,
    /// Whether we announced the 4-octet capability (the negotiated width
    /// is the AND of both sides).
    we_offer_four_octet: bool,
}

impl FrameBuffer {
    /// An empty buffer. `cfg` seeds the decode configuration until the
    /// peer's OPEN re-derives the AS width.
    pub fn new(cfg: SessionConfig, we_offer_four_octet: bool) -> Self {
        FrameBuffer { buf: BytesMut::new(), cfg, we_offer_four_octet }
    }

    /// The current decode configuration.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Appends bytes read from the stream, in arrival order.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete message.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete message, or `Ok(None)` if the buffered
    /// bytes end mid-frame (call again after the next [`extend`]).
    ///
    /// [`extend`]: FrameBuffer::extend
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u16::from_be_bytes([self.buf[16], self.buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) {
            return Err(WireError::BadLength(len as u16));
        }
        if self.buf.len() < len {
            return Ok(None);
        }
        let frame = self.buf.split_to(len);
        let mut bytes = &frame[..];
        let message = decode_message(&mut bytes, &self.cfg)?;
        if bytes.has_remaining() {
            return Err(WireError::BadLength(len as u16));
        }
        if let Message::Open(open) = &message {
            self.cfg.four_octet_as = self.we_offer_four_octet && open.supports_four_octet();
        }
        Ok(Some(message))
    }
}

/// The write backlog overflowed its cap; the session must be torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOverflow {
    /// Bytes that were queued when the push was rejected.
    pub queued: usize,
    /// The configured cap.
    pub cap: usize,
}

impl std::fmt::Display for WriteOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write queue overflow: {} queued bytes exceed cap {}", self.queued, self.cap)
    }
}

impl std::error::Error for WriteOverflow {}

/// What a [`WriteQueue::flush`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Everything queued reached the socket; write interest can drop.
    Flushed,
    /// The socket said `WouldBlock` mid-backlog; keep write interest and
    /// flush again on the next writable event.
    Pending,
}

/// A bounded per-session outbound backlog with mid-frame resume.
///
/// Frames are queued whole (a `VecDeque` of encoded messages plus an
/// offset into the front one), so a partially written KEEPALIVE resumes
/// at the exact byte where the socket stopped.
#[derive(Debug)]
pub struct WriteQueue {
    frames: VecDeque<BytesMut>,
    /// Bytes of the front frame already written.
    front_written: usize,
    queued: usize,
    cap: usize,
}

impl WriteQueue {
    /// An empty queue that refuses to grow past `cap` bytes.
    pub fn new(cap: usize) -> Self {
        WriteQueue { frames: VecDeque::new(), front_written: 0, queued: 0, cap }
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes queued but not yet written.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Encodes and queues one message.
    pub fn push_message(
        &mut self,
        message: &Message,
        cfg: &SessionConfig,
    ) -> Result<(), WriteOverflow> {
        let mut frame = BytesMut::new();
        encode_message(message, cfg, &mut frame);
        self.push_frame(frame)
    }

    /// Queues an already-encoded frame.
    pub fn push_frame(&mut self, frame: BytesMut) -> Result<(), WriteOverflow> {
        if self.queued + frame.len() > self.cap {
            return Err(WriteOverflow { queued: self.queued, cap: self.cap });
        }
        self.queued += frame.len();
        self.frames.push_back(frame);
        Ok(())
    }

    /// Writes as much of the backlog as the socket accepts. Returns
    /// [`FlushOutcome::Pending`] on `WouldBlock` with the position saved
    /// for resumption; propagates any other I/O error.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> std::io::Result<FlushOutcome> {
        while let Some(front) = self.frames.front() {
            let rest = &front[self.front_written..];
            match w.write(rest) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.queued -= n;
                    self.front_written += n;
                    if self.front_written == front.len() {
                        self.frames.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(FlushOutcome::Pending),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(FlushOutcome::Flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, PathAttributes};
    use kcc_bgp_wire::{OpenMessage, UpdatePacket};

    fn sample_messages() -> Vec<Message> {
        let attrs = PathAttributes {
            as_path: "64512 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        vec![
            Message::Open(OpenMessage::standard(Asn(64_512), "10.0.0.1".parse().unwrap(), 90)),
            Message::Keepalive,
            Message::Update(UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs)),
        ]
    }

    fn wire(messages: &[Message]) -> Vec<u8> {
        let cfg = SessionConfig::default();
        let mut out = BytesMut::new();
        for m in messages {
            encode_message(m, &cfg, &mut out);
        }
        out.to_vec()
    }

    #[test]
    fn single_byte_feeds_reassemble_every_message() {
        let messages = sample_messages();
        let bytes = wire(&messages);
        let mut fb = FrameBuffer::new(SessionConfig::default(), true);
        let mut decoded = Vec::new();
        for b in bytes {
            fb.extend(&[b]);
            while let Some(m) = fb.next_message().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, messages);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_rederives_as_width_from_peer_open() {
        // Peer announces no capabilities → 2-octet paths follow.
        let open = Message::Open(OpenMessage {
            asn: Asn(20_205),
            hold_time: 90,
            bgp_id: "192.0.2.9".parse().unwrap(),
            capabilities: vec![],
        });
        let attrs = PathAttributes {
            as_path: "20205 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let update = Message::Update(UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs));
        let mut bytes = wire(std::slice::from_ref(&open));
        let two_octet = SessionConfig { four_octet_as: false };
        let mut upd = BytesMut::new();
        encode_message(&update, &two_octet, &mut upd);
        bytes.extend_from_slice(&upd);

        let mut fb = FrameBuffer::new(SessionConfig::default(), true);
        fb.extend(&bytes);
        assert!(matches!(fb.next_message().unwrap(), Some(Message::Open(_))));
        assert!(!fb.config().four_octet_as);
        assert_eq!(fb.next_message().unwrap(), Some(update));
    }

    #[test]
    fn bad_length_is_rejected() {
        let mut fb = FrameBuffer::new(SessionConfig::default(), true);
        let mut junk = vec![0xFF; 16];
        junk.extend([0xFF, 0xFF, 4]); // length 65535
        fb.extend(&junk);
        assert!(matches!(fb.next_message(), Err(WireError::BadLength(_))));
    }

    /// A writer that accepts at most `chunk` bytes per call and returns
    /// `WouldBlock` every other call — the worst case a nonblocking
    /// socket can present.
    struct ChunkWriter {
        out: Vec<u8>,
        chunk: usize,
        block_next: bool,
    }

    impl Write for ChunkWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            let n = buf.len().min(self.chunk);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_mid_frame_after_wouldblock() {
        let cfg = SessionConfig::default();
        let messages = sample_messages();
        let mut q = WriteQueue::new(64 * 1024);
        for m in &messages {
            q.push_message(m, &cfg).unwrap();
        }
        let expected = wire(&messages);
        let mut w = ChunkWriter { out: Vec::new(), chunk: 3, block_next: false };
        let mut rounds = 0;
        loop {
            match q.flush(&mut w).unwrap() {
                FlushOutcome::Flushed => break,
                FlushOutcome::Pending => {
                    rounds += 1;
                    assert!(rounds < 10_000, "flush never completes");
                }
            }
        }
        assert_eq!(w.out, expected, "byte-exact across WouldBlock resumes");
        assert!(q.is_empty());
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn write_queue_cap_rejects_overflow() {
        let cfg = SessionConfig::default();
        let mut q = WriteQueue::new(32);
        // One KEEPALIVE (19 bytes) fits; the second exceeds the cap.
        q.push_message(&Message::Keepalive, &cfg).unwrap();
        let err = q.push_message(&Message::Keepalive, &cfg).unwrap_err();
        assert_eq!(err.cap, 32);
        assert_eq!(err.queued, 19);
    }
}
