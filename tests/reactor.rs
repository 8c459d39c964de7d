//! Reactor-path integration tests: resumable framing under arbitrary
//! byte fragmentation (proptest), FSM timers firing under message
//! flood, and back-pressure from a stalled consumer.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::collector::{SourceItem, UpdateSource, LIVE_RING_ITEMS};
use keep_communities_clean::peer::reactor::framing::{FlushOutcome, FrameBuffer, WriteQueue};
use keep_communities_clean::peer::{
    ActiveSpeaker, Collector, CollectorConfig, FsmConfig, ManualClock, PeerError, StampMode,
};
use keep_communities_clean::types::{AsPath, Asn, PathAttributes, Prefix};
use keep_communities_clean::wire::{
    encode_message, Message, Notification, NotificationCode, OpenMessage, SessionConfig,
    UpdatePacket,
};

// ---------------------------------------------------------------------
// Proptests: resumable framing.
// ---------------------------------------------------------------------

fn arb_message() -> impl Strategy<Value = Message> {
    let arb_update =
        (any::<u32>(), 8u8..=24, vec(1u32..65_000, 1..4)).prop_map(|(addr, len, path)| {
            let prefix = Prefix::v4(Ipv4Addr::from(addr), len).expect("valid v4 length");
            let attrs = PathAttributes {
                as_path: AsPath::from_asns(path.into_iter().map(Asn)),
                next_hop: "192.0.2.1".parse().unwrap(),
                ..Default::default()
            };
            Message::Update(UpdatePacket::announce(prefix, attrs))
        });
    let arb_withdraw = (any::<u32>(), 8u8..=24).prop_map(|(addr, len)| {
        let prefix = Prefix::v4(Ipv4Addr::from(addr), len).expect("valid v4 length");
        Message::Update(UpdatePacket::withdraw(prefix))
    });
    prop_oneof![
        Just(Message::Keepalive),
        arb_update,
        arb_withdraw,
        Just(Message::Notification(Notification::cease_admin_shutdown())),
    ]
}

proptest! {
    /// However a TCP stream fragments — down to single bytes, across
    /// arbitrary chunk boundaries — the frame buffer reassembles the
    /// exact message sequence.
    #[test]
    fn fragmented_stream_reassembles_byte_identical_messages(
        messages in vec(arb_message(), 1..20),
        cuts in vec(1usize..64, 1..40),
    ) {
        let cfg = SessionConfig::default();
        let mut wire = bytes::BytesMut::new();
        for m in &messages {
            encode_message(m, &cfg, &mut wire);
        }
        let wire = wire.to_vec();

        let mut fb = FrameBuffer::new(cfg, true);
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut_iter = cuts.iter().cycle();
        while offset < wire.len() {
            let take = (*cut_iter.next().unwrap()).min(wire.len() - offset);
            fb.extend(&wire[offset..offset + take]);
            offset += take;
            while let Some(m) = fb.next_message().expect("valid stream decodes") {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, messages);
        // No residual bytes after the last frame.
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// A write queue flushed through a socket that accepts arbitrary
    /// partial writes (and interleaves WouldBlock) emits a byte stream
    /// identical to a single blocking write.
    #[test]
    fn write_queue_partial_writes_emit_byte_identical_stream(
        messages in vec(arb_message(), 1..16),
        accepts in vec(1usize..40, 1..30),
        block_mask in any::<u64>(),
    ) {
        struct FickleWriter {
            out: Vec<u8>,
            accepts: Vec<usize>,
            mask: u64,
            calls: u32,
        }
        impl std::io::Write for FickleWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let call = self.calls as usize;
                self.calls += 1;
                if self.mask >> (call % 64) & 1 == 1 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.accepts[call % self.accepts.len()].min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let cfg = SessionConfig::default();
        let mut expected = bytes::BytesMut::new();
        let mut q = WriteQueue::new(1 << 20);
        for m in &messages {
            encode_message(m, &cfg, &mut expected);
            q.push_message(m, &cfg).expect("under cap");
        }
        let mut w = FickleWriter { out: Vec::new(), accepts, mask: block_mask, calls: 0 };
        let mut rounds = 0;
        while q.flush(&mut w).expect("no real I/O errors") == FlushOutcome::Pending {
            rounds += 1;
            prop_assert!(rounds < 100_000, "flush never completed");
        }
        prop_assert_eq!(w.out, expected.to_vec());
        prop_assert!(q.is_empty());
    }
}

// ---------------------------------------------------------------------
// FSM timers under flood.
// ---------------------------------------------------------------------

/// While one peer floods the shard with UPDATEs (its readiness never
/// goes quiet), a silent peer's hold timer must still fire: the reactor
/// advances its timer wheel every loop iteration, not just on idle.
#[test]
fn hold_timer_fires_for_silent_peer_while_another_floods() {
    let clock = Arc::new(ManualClock::new());
    let cfg = CollectorConfig::new("flood", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_workers(1); // both sessions on one shard
    let mut collector =
        Collector::bind_with_clock("127.0.0.1:0", cfg, Arc::clone(&clock) as _).expect("bind");
    let addr = collector.local_addr();
    // Nothing reads the feed here: a dropped source discards what the
    // daemon ingests instead of filling the bounded ring and pushing
    // back on the flood (the stalled-consumer test covers that).
    drop(collector.take_source());

    // Both clients run on their own frozen clocks: only the *daemon*
    // observes the time jump, so any teardown is the reactor's doing.
    // The silent peer negotiates a 30 s hold (min of the proposals); the
    // flooder keeps the 90 s default — so the 45 s jump below sits
    // strictly between the two deadlines and the outcome does not
    // depend on scheduling.
    let silent = ActiveSpeaker::connect(
        addr,
        FsmConfig::new(Asn(65_001), "10.9.0.1".parse().unwrap()).with_hold_time(30),
        Arc::new(ManualClock::new()),
        Duration::from_secs(10),
    )
    .expect("silent peer handshake");

    // The flooding peer: streams updates continuously.
    let mut flooder = ActiveSpeaker::connect(
        addr,
        FsmConfig::new(Asn(65_002), "10.9.0.2".parse().unwrap()),
        Arc::new(ManualClock::new()),
        Duration::from_secs(10),
    )
    .expect("flooder handshake");
    let attrs = PathAttributes {
        as_path: "65002 3356".parse().unwrap(),
        next_hop: "192.0.2.1".parse().unwrap(),
        ..Default::default()
    };
    let packet = UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs);
    let flood = std::thread::spawn(move || {
        let mut sent = 0u64;
        for _ in 0..200_000 {
            if flooder.send_update(&packet).is_err() {
                break;
            }
            sent += 1;
        }
        (flooder, sent)
    });

    // Mid-flood, jump past the silent peer's 30 s hold time but not the
    // flooder's 90 s one. The flooder's deadline is also continuously
    // refreshed by its decoded updates; the silent peer's cannot be.
    std::thread::sleep(Duration::from_millis(100));
    clock.advance(45_000);

    // The daemon must Cease the silent peer with Hold Timer Expired.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut silent = silent;
    let notification = loop {
        match silent.tick() {
            Err(PeerError::PeerClosed(n)) => break n,
            Err(e) => panic!("silent peer failed some other way: {e}"),
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "silent peer never torn down under flood"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let notification = notification.expect("teardown carries a NOTIFICATION");
    assert_eq!(notification.code, NotificationCode::HoldTimerExpired);

    let (flooder, sent) = flood.join().expect("flood thread");
    assert!(sent > 0, "flood actually ran");
    assert!(flooder.is_established(), "flooding peer survived the clock jump");
    flooder.close().expect("flooder clean close");

    collector.shutdown();
    let stats = collector.join();
    assert_eq!(stats.established, 2);
    assert_eq!(stats.updates, sent, "every flooded update ingested");
}

/// Reads one whole message off a blocking socket.
fn recv(mut stream: &TcpStream, frames: &mut FrameBuffer) -> Message {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(message) = frames.next_message().expect("the daemon speaks valid BGP") {
            return message;
        }
        let n = stream.read(&mut chunk).expect("the daemon answers within the read timeout");
        assert!(n > 0, "the daemon closed the session");
        frames.extend(&chunk[..n]);
    }
}

/// Back-pressure: a consumer that stops draining holds the daemon at the
/// ring bound — the shard stops reading and TCP flow control holds the
/// peer back — while the session stays up: timers still fire and
/// KEEPALIVEs still go out. Draining then delivers every update exactly
/// once, in order, with consecutive logical stamps.
#[test]
fn stalled_consumer_pushes_back_and_the_session_stays_up() {
    let clock = Arc::new(ManualClock::new());
    let cfg = CollectorConfig::new("stall", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_workers(1);
    let mut collector =
        Collector::bind_with_clock("127.0.0.1:0", cfg, Arc::clone(&clock) as _).expect("bind");
    let mut source = collector.take_source();
    let registry = collector.metrics();

    // A hand-played peer proposing a 9 s hold time, so the daemon owes a
    // KEEPALIVE every 3 s of its clock.
    let wire_cfg = SessionConfig::default();
    let stream = TcpStream::connect(collector.local_addr()).expect("dial");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut frames = FrameBuffer::new(wire_cfg, true);
    let send = |mut stream: &TcpStream, message: &Message| {
        let mut buf = bytes::BytesMut::new();
        encode_message(message, &wire_cfg, &mut buf);
        stream.write_all(&buf).expect("write");
    };
    let open = OpenMessage::standard(Asn(65_001), "10.9.0.1".parse().unwrap(), 9);
    send(&stream, &Message::Open(open));
    assert!(matches!(recv(&stream, &mut frames), Message::Open(_)));
    send(&stream, &Message::Keepalive);
    assert_eq!(recv(&stream, &mut frames), Message::Keepalive);

    // More single-prefix UPDATEs than the ring holds, written from a
    // thread: TCP flow control blocks it once the daemon stops reading.
    let total = LIVE_RING_ITEMS + 5_000;
    let prefixes: Vec<Prefix> = (0..total as u32)
        .map(|i| Prefix::v4(Ipv4Addr::from(0x0A00_0000 + (i << 8)), 24).expect("valid /24"))
        .collect();
    let mut wire = bytes::BytesMut::new();
    for p in &prefixes {
        encode_message(&Message::Update(UpdatePacket::withdraw(*p)), &wire_cfg, &mut wire);
    }
    let mut writer_half = stream.try_clone().expect("clone socket");
    let writer = std::thread::spawn(move || writer_half.write_all(&wire));

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while registry.counter_value("kcc_live_ring_full_total", &[]) == 0 {
        assert!(std::time::Instant::now() < deadline, "the ring never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Nothing drains while the daemon's clock crosses two keepalive
    // intervals (7 s, inside the 9 s hold time; each step clears the
    // timer wheel's 256 ms tick past the 3 s deadline).
    for _ in 0..2 {
        clock.advance(3_500);
        assert_eq!(recv(&stream, &mut frames), Message::Keepalive, "keepalives keep flowing");
    }
    assert_eq!(collector.gauges().established.load(Ordering::Relaxed), 1, "still Established");
    let peak = registry.gauge("kcc_live_ring_items").get();
    assert!(peak > 0 && peak as usize <= LIVE_RING_ITEMS, "in flight {peak} > bound");

    // Drain: every update exactly once, in order, stamped 0, s, 2s, …
    let mut delivered = 0;
    while delivered < total {
        match source.next_item().expect("live sources do not fail").expect("feed open") {
            SourceItem::Session(_) => assert_eq!(delivered, 0, "announced once, first"),
            SourceItem::Update(_, u) => {
                assert_eq!(u.prefix, prefixes[delivered], "update {delivered} out of order");
                assert_eq!(u.time_us, delivered as u64 * 1_000);
                delivered += 1;
            }
        }
    }
    writer.join().expect("writer thread").expect("the daemon read the whole flood");
    send(&stream, &Message::Notification(Notification::cease_admin_shutdown()));
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    collector.shutdown();
    let stats = collector.join();
    assert_eq!(stats.updates, total as u64);
    assert!(source.next_item().expect("live sources do not fail").is_none(), "nothing extra");
    let peak = registry.gauge("kcc_live_ring_items").get();
    assert!(peak as usize <= LIVE_RING_ITEMS, "in flight {peak} > bound while draining");
}
