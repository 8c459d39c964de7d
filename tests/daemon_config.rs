//! Hot-reloadable daemon configuration, end to end over the control
//! socket: candidate edits are invisible until `commit`, `discard`
//! restores the running config, and a mid-run peer add/remove never
//! disturbs sessions the change does not name — proven by tables
//! byte-identical to the offline reference.

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use keep_communities_clean::analysis::table::{OverviewSink, TypeShares};
use keep_communities_clean::analysis::{AnalysisSink, CountsSink, PipelineBuilder};
use keep_communities_clean::collector::{ArchiveSource, PeerMeta, SessionKey, UpdateArchive};
use keep_communities_clean::obs::TraceLevel;
use keep_communities_clean::peer::{
    offline_reference, ActiveSpeaker, Collector, CollectorConfig, ControlServer, FsmConfig,
    PeerError, StampMode, WallClock,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::{Asn, MessageKind, RouteUpdate};
use keep_communities_clean::wire::{Notification, NotificationCode, UpdatePacket};

/// A scriptable control-socket client: send one command line, collect
/// response lines until the terminal `ok`/`err` line, return the whole
/// response.
struct Ctl {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Ctl {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("dial control socket");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let writer = stream.try_clone().expect("clone control stream");
        Ctl { reader: BufReader::new(stream), writer }
    }

    fn run(&mut self, cmd: &str) -> String {
        writeln!(self.writer, "{cmd}").expect("write command");
        let mut response = String::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response line");
            assert!(!line.is_empty(), "control socket closed mid-response to {cmd:?}");
            let terminal = line.starts_with("ok") || line.starts_with("err");
            response.push_str(&line);
            if terminal {
                return response;
            }
        }
    }

    fn ok(&mut self, cmd: &str) -> String {
        let response = self.run(cmd);
        assert!(
            response.lines().last().unwrap().starts_with("ok"),
            "command {cmd:?} failed: {response}"
        );
        response
    }
}

fn speaker(addr: SocketAddr, asn: Asn, bgp_id: Ipv4Addr) -> Result<ActiveSpeaker, PeerError> {
    ActiveSpeaker::connect(
        addr,
        FsmConfig::new(asn, bgp_id),
        Arc::new(WallClock::new()),
        Duration::from_secs(10),
    )
}

/// Asserts the daemon refuses this peer with Bad Peer AS — either during
/// the handshake or (if the refusal NOTIFICATION races in just after the
/// client reaches Established) on the first ticks afterwards.
fn expect_refused(addr: SocketAddr, asn: Asn, bgp_id: Ipv4Addr) {
    let mut s = match speaker(addr, asn, bgp_id) {
        Err(_) => return,
        Ok(s) => s,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match s.tick() {
            Err(PeerError::PeerClosed(n)) => {
                assert_eq!(n, Some(Notification::bad_peer_as()), "refusal must name Bad Peer AS");
                return;
            }
            Err(e) => panic!("refused peer failed some other way: {e}"),
            Ok(()) => {
                assert!(Instant::now() < deadline, "disallowed peer AS{} never refused", asn.0);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Counts pipeline-ingested updates into a shared gauge so the
/// orchestrating thread can wait for deliveries to land before the next
/// config change, then forwards everything to the wrapped sink.
struct Tap<S> {
    ingested: Arc<AtomicU64>,
    inner: S,
}

impl<S: AnalysisSink> AnalysisSink for Tap<S> {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.inner.on_session(meta);
    }
    fn on_update(&mut self, session: &SessionKey, update: &RouteUpdate) {
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.inner.on_update(session, update);
    }
    fn on_event(
        &mut self,
        session: &SessionKey,
        event: &keep_communities_clean::analysis::ClassifiedEvent,
    ) {
        self.inner.on_event(session, event);
    }
    fn wants_events(&self) -> bool {
        self.inner.wants_events()
    }
}

fn packet(update: &RouteUpdate) -> UpdatePacket {
    match &update.kind {
        MessageKind::Announcement(attrs) => {
            UpdatePacket::announce(update.prefix, (**attrs).clone())
        }
        MessageKind::Withdrawal => UpdatePacket::withdraw(update.prefix),
    }
}

#[test]
fn candidate_edits_invisible_until_commit_and_discard_restores_running() {
    let cfg = CollectorConfig::new("ctl", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = collector.local_addr();
    let _source = collector.take_source();
    let store = collector.config_store();
    let server =
        ControlServer::bind("127.0.0.1:0", Arc::clone(&store), collector.shutdown_handle())
            .expect("bind control");
    let mut ctl = Ctl::connect(server.local_addr());

    // Lock the daemon down to AS65001 only.
    ctl.ok("peer policy allow");
    ctl.ok("peer allow 65001");
    assert!(ctl.ok("commit").contains("generation=2"));

    let a = speaker(addr, Asn(65_001), "10.50.0.1".parse().unwrap()).expect("allowed peer");
    expect_refused(addr, Asn(65_002), "10.50.0.2".parse().unwrap());

    // An uncommitted candidate edit must be invisible to the daemon.
    ctl.ok("peer allow 65002");
    assert!(ctl.ok("show candidate").contains("peers=allow:AS65001,AS65002"));
    assert!(ctl.ok("show running").contains("peers=allow:AS65001\n"), "candidate leaked");
    expect_refused(addr, Asn(65_002), "10.50.0.2".parse().unwrap());

    // Discard restores the candidate to the running config.
    assert_eq!(ctl.ok("discard"), "ok discarded\n");
    assert!(ctl.ok("show candidate").contains("peers=allow:AS65001\n"));
    assert_eq!(ctl.ok("discard"), "ok clean\n");
    expect_refused(addr, Asn(65_002), "10.50.0.2".parse().unwrap());

    // Trace levels hot-reload through the same store: off by default,
    // enabled the moment the commit lands.
    assert!(!store.trace().enabled("reactor", TraceLevel::Debug));
    ctl.ok("trace reactor debug");
    assert!(!store.trace().enabled("reactor", TraceLevel::Debug), "trace edit leaked pre-commit");
    ctl.ok("commit");
    assert!(store.trace().enabled("reactor", TraceLevel::Debug));

    assert!(a.is_established(), "allowed session untouched by refused peers and edits");
    a.close().expect("clean close");
    collector.shutdown();
    let stats = collector.join();
    server.join();
    assert_eq!(stats.established, 1, "only AS65001 ever established");
}

#[test]
fn midrun_peer_add_remove_leaves_untouched_sessions_undisturbed() {
    let asn_a = Asn(65_001);
    let asn_b = Asn(65_002);
    let ip_a: Ipv4Addr = "10.50.0.1".parse().unwrap();
    let ip_b: Ipv4Addr = "10.50.0.2".parse().unwrap();

    // One generated workload, dealt alternately onto A and B. The
    // archive is the offline ground truth; the packet lists are what
    // each speaker streams live.
    let day = generate_mar20(&Mar20Config { target_announcements: 1_500, ..Default::default() });
    let mut workload = UpdateArchive::new(0);
    let mut packets_a = Vec::new();
    let mut packets_b = Vec::new();
    for (i, (_, update)) in day.archive.all_updates().iter().take(1_200).enumerate() {
        let (key, list) = if i % 2 == 0 {
            (SessionKey::new("ctl", asn_a, IpAddr::V4(ip_a)), &mut packets_a)
        } else {
            (SessionKey::new("ctl", asn_b, IpAddr::V4(ip_b)), &mut packets_b)
        };
        workload.record(&key, update.clone());
        list.push(packet(update));
    }
    let total = (packets_a.len() + packets_b.len()) as u64;

    let cfg = CollectorConfig::new("ctl", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).expect("bind");
    let addr = collector.local_addr();
    let source = collector.take_source();
    let stop = source.shutdown_flag();
    let store = collector.config_store();
    let server = ControlServer::bind("127.0.0.1:0", store, collector.shutdown_handle())
        .expect("bind control");
    let mut ctl = Ctl::connect(server.local_addr());
    let ingested = Arc::new(AtomicU64::new(0));
    let tap = Tap {
        ingested: Arc::clone(&ingested),
        inner: (CountsSink::default(), OverviewSink::default()),
    };
    let pipeline = std::thread::spawn(move || {
        PipelineBuilder::new(source).sink(tap).shutdown(&stop).run().expect("live run")
    });
    let wait_ingested = |target: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while ingested.load(Ordering::Relaxed) < target {
            assert!(
                Instant::now() < deadline,
                "pipeline stuck at {}/{target} updates",
                ingested.load(Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // Phase 1: only A is allowed; A streams its whole share while B is
    // turned away at the door.
    ctl.ok("peer policy allow");
    ctl.ok("peer allow AS65001");
    ctl.ok("commit");
    let mut a = speaker(addr, asn_a, ip_a).expect("A allowed");
    expect_refused(addr, asn_b, ip_b);
    for p in &packets_a {
        a.send_update(p).expect("A streams");
    }

    // Phase 2: allow B mid-run. A's established session is not
    // reset — it keeps the same TCP connection throughout.
    ctl.ok("peer allow AS65002");
    ctl.ok("commit");
    let mut b = speaker(addr, asn_b, ip_b).expect("B allowed after commit");
    let half = packets_b.len() / 2;
    for p in &packets_b[..half] {
        b.send_update(p).expect("B streams first half");
    }
    wait_ingested(packets_a.len() as u64 + half as u64);

    // Phase 3: remove A mid-run. The daemon must Cease A's session —
    // and only A's: B keeps streaming over its existing connection.
    ctl.ok("peer remove AS65001");
    ctl.ok("commit");
    let deadline = Instant::now() + Duration::from_secs(30);
    let down = loop {
        match a.tick() {
            Err(PeerError::PeerClosed(n)) => break n,
            Err(e) => panic!("A failed some other way: {e}"),
            Ok(()) => {
                assert!(Instant::now() < deadline, "A never swept after removal");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let down = down.expect("sweep sends a NOTIFICATION");
    assert_eq!(down.code, NotificationCode::Cease, "removal is an administrative Cease");
    for p in &packets_b[half..] {
        b.send_update(p).expect("B undisturbed by A's removal");
    }
    assert!(b.is_established());
    b.close().expect("B clean close");

    collector.shutdown();
    let live = pipeline.join().expect("pipeline thread");
    let stats = collector.join();
    server.join();
    assert_eq!(stats.established, 2, "exactly A and B established");
    assert_eq!(stats.updates, total, "nothing lost across three config generations");

    // Byte-identical tables against the offline reference of the same
    // workload — the add/remove churn left no trace in the data.
    let (live_counts, live_overview) = (live.sink.inner.0.finish(), live.sink.inner.1.finish());
    let offline = PipelineBuilder::new(ArchiveSource::new(&offline_reference(&workload, &cfg)))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .expect("offline run");
    let (off_counts, off_overview) = (offline.sink.0.finish(), offline.sink.1.finish());
    assert_eq!(
        live_overview.render("Table 1 — hot reload"),
        off_overview.render("Table 1 — hot reload"),
        "Table 1 diverged"
    );
    assert_eq!(
        TypeShares::new(vec![("ctl".into(), live_counts)]).render(),
        TypeShares::new(vec![("ctl".into(), off_counts)]).render(),
        "Table 2 diverged"
    );
}
