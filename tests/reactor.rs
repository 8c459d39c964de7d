//! Reactor-path integration tests: FSM timers firing under message
//! flood, and back-pressure from a stalled consumer. (Framing under
//! arbitrary fragmentation and short writes is a property in
//! `tests/props.rs`.)

use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use keep_communities_clean::collector::{SourceItem, UpdateSource, LIVE_RING_ITEMS};
use keep_communities_clean::peer::reactor::framing::FrameBuffer;
use keep_communities_clean::peer::{
    ActiveSpeaker, Collector, CollectorConfig, FsmConfig, ManualClock, PeerError, StampMode,
};
use keep_communities_clean::types::{Asn, PathAttributes, Prefix};
use keep_communities_clean::wire::{
    encode_message, Message, Notification, NotificationCode, OpenMessage, SessionConfig,
    UpdatePacket,
};

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
        let mut buf = Vec::new();
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
    let mut wire = Vec::new();
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
