//! The outbound BGP speaker: dial, handshake, stream UPDATEs.
//!
//! [`ActiveSpeaker`] is the one-session blocking client the paced
//! ingest benchmark uses to feed a live collector. The handshake is driven
//! through the same [`Fsm`] as the collector side — OPEN out, OPEN in,
//! KEEPALIVE exchange — synchronously on the calling thread (a handshake
//! is strictly sequential, so threads would buy nothing). Once
//! Established, a background reader drains the peer's keepalives (and
//! watches for a NOTIFICATION) while the caller streams UPDATEs;
//! [`ActiveSpeaker::tick`] keeps our own keepalive cadence against the
//! injected clock.
//!
//! Inbound bytes are framed by the reactor's [`FrameBuffer`], and the
//! buffer that did the handshake moves into the drain thread, so bytes
//! read past the final handshake KEEPALIVE are never lost. Outbound
//! messages are one encode and one `write_all` each.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use kcc_bgp_wire::{
    encode_message, encode_update, Message, Notification, SessionConfig, UpdatePacket, WireError,
};

use crate::clock::Clock;
use crate::fsm::{Action, DownReason, EstablishedInfo, Fsm, FsmConfig, FsmEvent, State};
use crate::reactor::framing::FrameBuffer;

/// Failures on the active side.
#[derive(Debug)]
pub enum PeerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer's bytes did not decode as a BGP message.
    Wire(WireError),
    /// The handshake ended without reaching Established.
    Handshake(DownReason),
    /// The peer tore the session down.
    PeerClosed(Option<Notification>),
    /// Our own FSM tore the session down (e.g. hold-timer expiry after
    /// the collector went silent); the NOTIFICATION was already sent.
    SessionDown(DownReason),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(e) => write!(f, "socket: {e}"),
            PeerError::Wire(e) => write!(f, "wire decode: {e}"),
            PeerError::Handshake(r) => write!(f, "handshake failed: {r:?}"),
            PeerError::PeerClosed(n) => write!(f, "peer closed the session: {n:?}"),
            PeerError::SessionDown(r) => write!(f, "session torn down locally: {r:?}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<std::io::Error> for PeerError {
    fn from(e: std::io::Error) -> Self {
        PeerError::Io(e)
    }
}

impl From<WireError> for PeerError {
    fn from(e: WireError) -> Self {
        PeerError::Wire(e)
    }
}

/// Blocks until `frames` yields one message, reading `stream` whenever
/// the buffered bytes end mid-frame. `Ok(None)` is a clean close (EOF on
/// a frame boundary); EOF mid-frame is [`ErrorKind::UnexpectedEof`].
pub(crate) fn next_blocking(
    mut stream: impl Read,
    frames: &mut FrameBuffer,
) -> Result<Option<Message>, PeerError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(message) = frames.next_message()? {
            return Ok(Some(message));
        }
        match stream.read(&mut chunk) {
            Ok(0) if frames.buffered() == 0 => return Ok(None),
            Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into()),
            Ok(n) => frames.extend(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Encodes one message and writes it whole.
pub(crate) fn write_message(
    mut stream: &TcpStream,
    message: &Message,
    cfg: &SessionConfig,
) -> std::io::Result<()> {
    let mut buf = BytesMut::new();
    encode_message(message, cfg, &mut buf);
    stream.write_all(&buf)
}

/// An established outbound session streaming UPDATEs to a collector.
pub struct ActiveSpeaker {
    stream: TcpStream,
    info: EstablishedInfo,
    fsm: Fsm,
    clock: Arc<dyn Clock>,
    /// NOTIFICATIONs seen by the background reader.
    incoming: Receiver<Option<Notification>>,
    peer_down: Arc<AtomicBool>,
    /// Clock time of the last inbound message, maintained by the reader.
    last_heard_ms: Arc<std::sync::atomic::AtomicU64>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ActiveSpeaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpeaker").field("info", &self.info).finish_non_exhaustive()
    }
}

impl ActiveSpeaker {
    /// Dials `addr` and completes the BGP handshake. Blocks until
    /// Established or failure; `timeout` bounds both the dial and each
    /// handshake read.
    pub fn connect(
        addr: SocketAddr,
        cfg: FsmConfig,
        clock: Arc<dyn Clock>,
        timeout: Duration,
    ) -> Result<Self, PeerError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;

        let mut fsm = Fsm::new(cfg);
        let mut frames = FrameBuffer::new(SessionConfig::default(), true);
        let mut write_cfg = SessionConfig::default();
        let now = clock.now_ms();
        let mut pending = fsm.handle(FsmEvent::Start, now);
        pending.extend(fsm.handle(FsmEvent::TcpConnected, now));

        let mut info: Option<EstablishedInfo> = None;
        while info.is_none() {
            for action in pending.drain(..) {
                match action {
                    Action::Send(m) => write_message(&stream, &m, &write_cfg)?,
                    Action::Up(i) => {
                        write_cfg = i.config;
                        info = Some(i);
                    }
                    Action::Down(reason) => return Err(PeerError::Handshake(reason)),
                    Action::StartConnect => {} // already connected
                    Action::Deliver(_) => {}   // no UPDATEs during handshake
                }
            }
            if info.is_some() {
                break;
            }
            let message = next_blocking(&stream, &mut frames)?
                .ok_or(PeerError::Handshake(DownReason::TcpFailed))?;
            pending = fsm.handle(FsmEvent::Message(message), clock.now_ms());
        }
        let info = info.expect("loop exits only with info");

        // Established: hand the read side — with whatever the handshake
        // reads left in `frames` — to a drain thread. It consumes
        // keepalives and flags a NOTIFICATION or EOF.
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let peer_down = Arc::new(AtomicBool::new(false));
        let down_flag = Arc::clone(&peer_down);
        let last_heard_ms = Arc::new(std::sync::atomic::AtomicU64::new(clock.now_ms()));
        let heard = Arc::clone(&last_heard_ms);
        let reader_clock = Arc::clone(&clock);
        let reader_handle = std::thread::spawn(move || {
            let notification = loop {
                match next_blocking(&read_half, &mut frames) {
                    Ok(Some(Message::Notification(n))) => break Some(n),
                    // Keepalives (a collector sends nothing else):
                    // record liveness for the hold timer.
                    Ok(Some(_)) => heard.store(reader_clock.now_ms(), Ordering::SeqCst),
                    Ok(None) | Err(_) => break None,
                }
            };
            // Send before raising the flag so check_peer always finds
            // the NOTIFICATION it reports.
            let _ = tx.send(notification);
            down_flag.store(true, Ordering::SeqCst);
        });

        Ok(ActiveSpeaker {
            stream,
            info,
            fsm,
            clock,
            incoming: rx,
            peer_down,
            last_heard_ms,
            reader: Some(reader_handle),
        })
    }

    fn check_peer(&self) -> Result<(), PeerError> {
        if self.peer_down.load(Ordering::SeqCst) {
            let n = self.incoming.try_recv().ok().flatten();
            return Err(PeerError::PeerClosed(n));
        }
        Ok(())
    }

    /// Sends one UPDATE with the negotiated encoding.
    pub fn send_update(&mut self, packet: &UpdatePacket) -> Result<(), PeerError> {
        self.check_peer()?;
        let mut buf = BytesMut::new();
        encode_update(packet, &self.info.config, &mut buf);
        (&self.stream).write_all(&buf)?;
        // Any message we send proves our liveness to the peer.
        self.fsm.note_message_sent(self.clock.now_ms());
        Ok(())
    }

    /// Sends a KEEPALIVE if our cadence timer is due. Call periodically
    /// during idle stretches.
    pub fn tick(&mut self) -> Result<(), PeerError> {
        self.check_peer()?;
        // Liveness the drain thread observed resets the hold timer
        // before the deadline check.
        let heard = self.last_heard_ms.load(Ordering::SeqCst);
        self.fsm.note_message_received(heard);
        for action in self.fsm.handle(FsmEvent::Timer, self.clock.now_ms()) {
            match action {
                Action::Send(m) => write_message(&self.stream, &m, &self.info.config)?,
                Action::Down(reason) => {
                    // Any NOTIFICATION was written by the Send above;
                    // close and refuse further traffic.
                    self.peer_down.store(true, Ordering::SeqCst);
                    let _ = self.stream.shutdown(std::net::Shutdown::Both);
                    return Err(PeerError::SessionDown(reason));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Graceful teardown: Cease NOTIFICATION, then close.
    pub fn close(mut self) -> Result<(), PeerError> {
        let cease = Message::Notification(Notification::cease_admin_shutdown());
        let result = write_message(&self.stream, &cease, &self.info.config);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        result.map_err(PeerError::Io)
    }

    /// True while the FSM believes the session is up (informational).
    pub fn is_established(&self) -> bool {
        self.fsm.state() == State::Established && !self.peer_down.load(Ordering::SeqCst)
    }
}

impl Drop for ActiveSpeaker {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The far end of a loopback socket, played by hand in unit tests:
/// whole messages out, framed messages in, default wire configuration.
#[cfg(test)]
pub(crate) struct HandPlayedPeer {
    stream: TcpStream,
    frames: FrameBuffer,
}

#[cfg(test)]
impl HandPlayedPeer {
    pub(crate) fn new(stream: TcpStream) -> Self {
        HandPlayedPeer { stream, frames: FrameBuffer::new(SessionConfig::default(), true) }
    }

    pub(crate) fn connect(addr: SocketAddr) -> Self {
        Self::new(TcpStream::connect(addr).unwrap())
    }

    pub(crate) fn send(&self, message: &Message) {
        write_message(&self.stream, message, &SessionConfig::default()).unwrap();
    }

    pub(crate) fn recv(&mut self) -> Message {
        next_blocking(&self.stream, &mut self.frames).unwrap().expect("peer closed the socket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use kcc_bgp_types::Asn;
    use kcc_bgp_wire::OpenMessage;
    use std::net::{Shutdown, TcpListener};
    use std::time::Instant;

    fn wire(messages: &[Message]) -> BytesMut {
        let mut out = BytesMut::new();
        for m in messages {
            encode_message(m, &SessionConfig::default(), &mut out);
        }
        out
    }

    fn collector_open() -> Message {
        Message::Open(OpenMessage::standard(Asn(3333), "198.51.100.1".parse().unwrap(), 90))
    }

    /// Dials a listener that consumes our OPEN (so nothing it does next
    /// is a reset over unread bytes), answers with `reply` in a single
    /// write and then, if `close`, ends its sending side. Returns the
    /// dial's outcome and the far end, still holding the socket.
    fn dial(reply: &[u8], close: bool) -> (Result<ActiveSpeaker, PeerError>, HandPlayedPeer) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reply = reply.to_vec();
        let far = std::thread::spawn(move || {
            let mut peer = HandPlayedPeer::new(listener.accept().unwrap().0);
            assert!(matches!(peer.recv(), Message::Open(_)));
            (&peer.stream).write_all(&reply).unwrap();
            if close {
                peer.stream.shutdown(Shutdown::Write).unwrap();
            }
            peer
        });
        let cfg = FsmConfig::new(Asn(65_001), "192.0.2.77".parse().unwrap());
        let dialed =
            ActiveSpeaker::connect(addr, cfg, Arc::new(WallClock::new()), Duration::from_secs(5));
        (dialed, far.join().unwrap())
    }

    #[test]
    fn clean_close_before_open_fails_the_handshake() {
        let (dialed, _far) = dial(&[], true);
        assert!(matches!(dialed, Err(PeerError::Handshake(DownReason::TcpFailed))), "{dialed:?}");
    }

    #[test]
    fn close_mid_frame_is_unexpected_eof() {
        let (dialed, _far) = dial(&wire(&[collector_open()])[..10], true);
        assert!(
            matches!(&dialed, Err(PeerError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof),
            "{dialed:?}"
        );
    }

    /// OPEN, the final handshake KEEPALIVE and a NOTIFICATION arrive in
    /// one segment, so the handshake's last read takes in the
    /// NOTIFICATION too; the drain thread must find it in the buffer it
    /// inherits (the far end stays open, so no EOF can stand in for it).
    #[test]
    fn notification_read_during_handshake_reaches_the_drain_thread() {
        let cease = Message::Notification(Notification::cease_admin_shutdown());
        let (dialed, _far) = dial(&wire(&[collector_open(), Message::Keepalive, cease]), false);
        let mut speaker = dialed.expect("handshake completes");
        let deadline = Instant::now() + Duration::from_secs(5);
        while speaker.is_established() {
            assert!(Instant::now() < deadline, "drain thread never saw the NOTIFICATION");
            std::thread::yield_now();
        }
        let refused = speaker.send_update(&UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap()));
        assert!(matches!(refused, Err(PeerError::PeerClosed(Some(_)))), "{refused:?}");
    }
}
