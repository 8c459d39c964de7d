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
//! first UPDATE, so the switch is race-free. A frame is decoded where it
//! lies in the buffer and then consumed, and the buffer reuses its
//! consumed front, so a session holds what is unread — at most a read's
//! worth plus one partial frame — however long it runs.
//!
//! [`WriteQueue`] is the outbound half: one contiguous buffer that
//! messages encode straight onto, bounded by a cap. A flush hands the
//! socket everything queued in one `write` per call it accepts and, after
//! a short write or `WouldBlock`, resumes at the exact byte where the
//! socket stopped. Exceeding the cap is a protocol failure for that
//! session (a peer that cannot drain its keepalives is dead weight),
//! surfaced as [`WriteOverflow`] so the reactor tears the session down
//! instead of buffering without bound.

use std::io::{ErrorKind, Write};

use kcc_bgp_wire::{
    decode_message, encode_message, Message, SessionConfig, WireError, HEADER_LEN, MAX_MESSAGE_LEN,
};

/// A byte FIFO: appends land at the back, reads consume the front.
///
/// It reuses its consumed front when it needs room, so its capacity
/// tracks what is unread, not what ever passed through it: a fully read
/// buffer starts over at the front, and when the room at the back is
/// short and the read part is at least as large as the unread tail, the
/// tail moves to the front (a copy no larger than what was read since
/// the last move).
#[derive(Debug, Default)]
struct Fifo {
    buf: Vec<u8>,
    /// How much of `buf` has been consumed.
    read: usize,
}

impl Fifo {
    /// The unread bytes.
    fn unread(&self) -> &[u8] {
        &self.buf[self.read..]
    }

    /// How many bytes are unread.
    fn len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Consumes the first `n` unread bytes.
    fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consumed {n} of {} unread bytes", self.len());
        self.read += n;
    }

    /// Makes room for `additional` bytes at the back, reusing the
    /// consumed front first, and returns the buffer to append them to.
    fn reserve(&mut self, additional: usize) -> &mut Vec<u8> {
        if self.read == self.buf.len() {
            self.buf.clear();
            self.read = 0;
        }
        if self.buf.capacity() - self.buf.len() < additional {
            if self.read > 0 && self.read >= self.len() {
                self.buf.drain(..self.read);
                self.read = 0;
            }
            self.buf.reserve(additional);
        }
        &mut self.buf
    }

    /// Appends `bytes`.
    fn push(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len()).extend_from_slice(bytes);
    }

    /// Shortens the unread bytes to `len`.
    fn truncate(&mut self, len: usize) {
        self.buf.truncate(self.read + len);
    }
}

/// Accumulates stream bytes and yields complete decoded messages.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Fifo,
    cfg: SessionConfig,
    /// Whether we announced the 4-octet capability (the negotiated width
    /// is the AND of both sides).
    we_offer_four_octet: bool,
}

impl FrameBuffer {
    /// An empty buffer. `cfg` seeds the decode configuration until the
    /// peer's OPEN re-derives the AS width.
    pub fn new(cfg: SessionConfig, we_offer_four_octet: bool) -> Self {
        FrameBuffer { buf: Fifo::default(), cfg, we_offer_four_octet }
    }

    /// The current decode configuration.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Appends bytes read from the stream, in arrival order.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.push(bytes);
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
        let unread = self.buf.unread();
        if unread.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u16::from_be_bytes([unread[16], unread[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) {
            return Err(WireError::BadLength(len as u16));
        }
        if unread.len() < len {
            return Ok(None);
        }
        let mut frame = &unread[..len];
        let decoded = decode_message(&mut frame, &self.cfg).and_then(|message| match frame {
            [] => Ok(message),
            _ => Err(WireError::BadLength(len as u16)),
        });
        self.buf.consume(len);
        let message = decoded?;
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
/// One contiguous buffer: messages encode onto its tail, writes consume
/// its head, and a partial write leaves the rest exactly where the next
/// flush picks it up.
#[derive(Debug)]
pub struct WriteQueue {
    buf: Fifo,
    cap: usize,
}

impl WriteQueue {
    /// An empty queue that refuses to grow past `cap` bytes.
    pub fn new(cap: usize) -> Self {
        WriteQueue { buf: Fifo::default(), cap }
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Bytes queued but not yet written.
    pub fn queued(&self) -> usize {
        self.buf.len()
    }

    /// Encodes and queues one message.
    pub fn push_message(
        &mut self,
        message: &Message,
        cfg: &SessionConfig,
    ) -> Result<(), WriteOverflow> {
        let queued = self.buf.len();
        // Room for the largest message first, so the FIFO reuses its
        // consumed front before the frame is written, not under it.
        encode_message(message, cfg, self.buf.reserve(MAX_MESSAGE_LEN));
        self.admit(queued)
    }

    /// Queues already-encoded bytes (whole frames).
    pub fn push(&mut self, frames: &[u8]) -> Result<(), WriteOverflow> {
        let queued = self.buf.len();
        self.buf.push(frames);
        self.admit(queued)
    }

    /// Keeps what was appended after `queued` bytes if the cap allows,
    /// and takes it back off the tail otherwise.
    fn admit(&mut self, queued: usize) -> Result<(), WriteOverflow> {
        if self.buf.len() > self.cap {
            self.buf.truncate(queued);
            return Err(WriteOverflow { queued, cap: self.cap });
        }
        Ok(())
    }

    /// Writes as much of the backlog as the socket accepts. Returns
    /// [`FlushOutcome::Pending`] on `WouldBlock` with the position saved
    /// for resumption; propagates any other I/O error.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> std::io::Result<FlushOutcome> {
        while self.buf.len() > 0 {
            match w.write(self.buf.unread()) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.buf.consume(n),
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
        let mut out = Vec::new();
        for m in messages {
            encode_message(m, &cfg, &mut out);
        }
        out
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
        let mut upd = Vec::new();
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
    fn frame_buffer_capacity_tracks_unread_bytes_not_traffic() {
        // 64 MiB of KEEPALIVEs in 64 KiB reads: most reads end mid-frame,
        // and nothing but that partial frame is ever left unread.
        const READ: usize = 64 * 1024;
        let keepalives_in = wire(&[Message::Keepalive]).repeat(READ / HEADER_LEN + 2);
        let mut fb = FrameBuffer::new(SessionConfig::default(), true);
        let mut keepalives = 0usize;
        for i in 0..1024 {
            let at = i * READ % HEADER_LEN;
            fb.extend(&keepalives_in[at..at + READ]);
            while let Some(message) = fb.next_message().unwrap() {
                assert_eq!(message, Message::Keepalive);
                keepalives += 1;
            }
            assert!(fb.buffered() < HEADER_LEN);
            let capacity = fb.buf.buf.capacity();
            assert!(capacity <= 128 * 1024, "capacity {capacity} grew");
        }
        assert_eq!(keepalives, 64 * 1024 * 1024 / HEADER_LEN);
    }

    /// A writer that accepts everything, counting its calls.
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_flushes_its_backlog_in_one_write() {
        let cfg = SessionConfig::default();
        let messages: Vec<Message> = sample_messages().into_iter().cycle().take(300).collect();
        let mut q = WriteQueue::new(1 << 20);
        for m in &messages {
            q.push_message(m, &cfg).unwrap();
        }
        let mut w = CountingWriter::default();
        assert_eq!(q.flush(&mut w).unwrap(), FlushOutcome::Flushed);
        assert_eq!(w.calls, 1, "one write for {} queued messages", messages.len());
        assert_eq!(w.out, wire(&messages));
        assert!(q.is_empty());
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
        // The rejected frame left nothing behind, and raw pushes obey the
        // same cap.
        assert_eq!(q.queued(), 19);
        assert!(q.push(&[0; 14]).is_err());
        q.push(&[0; 13]).unwrap();
        assert_eq!(q.queued(), 32);
    }

    #[test]
    fn fifo_reuses_its_consumed_prefix() {
        let mut fifo = Fifo::default();
        let chunk = [7u8; 1000];
        let mut next = 0u8;
        for round in 0..10_000usize {
            fifo.push(&chunk);
            // Read all but a ragged tail, like a framer leaving a partial
            // frame behind.
            let keep = round % 300;
            fifo.consume(fifo.len() - keep);
            fifo.push(&[next]);
            assert_eq!(fifo.unread().last(), Some(&next), "appends land at the tail");
            next = next.wrapping_add(1);
        }
        let capacity = fifo.buf.capacity();
        assert!(capacity <= 4 * chunk.len(), "capacity {capacity} grew with traffic");
        fifo.consume(fifo.len());
        fifo.push(b"abc");
        assert_eq!((fifo.read, fifo.unread()), (0, &b"abc"[..]), "a fully read FIFO starts over");
    }

    #[test]
    fn reuse_keeps_the_unread_bytes() {
        let mut fifo = Fifo { buf: Vec::with_capacity(8), read: 0 };
        fifo.push(b"0123456");
        fifo.consume(5);
        fifo.push(b"789abc");
        assert_eq!(
            (fifo.read, fifo.unread()),
            (0, &b"56789abc"[..]),
            "the tail moved to the front"
        );
        fifo.truncate(3);
        assert_eq!(fifo.unread(), b"567");
    }
}
