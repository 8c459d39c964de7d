//! `live-flood`: the daemon's throughput path — loopback TCP, reactor
//! framing, wire decode, ingest hand-off, classification — flooded as
//! fast as TCP allows.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use kcc_bgp_types::{Asn, RouteUpdate};
use kcc_bgp_wire::{decode_message, encode_update, Message, SessionConfig, UpdatePacket};
use kcc_collector::{LiveSource, PeerMeta, SessionKey, SourceError, SourceItem, UpdateSource};
use kcc_core::pipeline::{AnalysisSink, PipelineBuilder};
use kcc_core::{CountsSink, StreamClassifier, TypeCounts};
use kcc_peer::reactor::framing::{FrameBuffer, WriteQueue};
use kcc_peer::{
    Collector, CollectorConfig, CollectorStats, FloodOptions, FloodPlan, FloodReport, FloodRig,
    ReactorConfig, StampMode,
};

use super::{record_memory, repeat_setup, timed_passes, write_trace, RunOpts};
use crate::inputs::{day_config, Dealt, FIRST_SPEAKER_ASN};
use crate::reference::NaiveClassifier;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{Recorder, SAMPLE_EVERY};

/// Why the workload exists.
pub const WHY: &str = "the daemon's bulk path: one thread floods loopback BGP sessions, the reactor \
    frames and decodes, the ingest thread hands off, the pipeline classifies; delivered rate is the metric";

/// Updates streamed per pass.
pub const UPDATES: u64 = 200_000;
/// Most sessions the load generator opens (one thread drives them all).
const MAX_SESSIONS: usize = 4;

/// Sessions for this machine: `min(nproc, 4)`.
pub fn sessions() -> usize {
    crate::sys::nproc().clamp(1, MAX_SESSIONS)
}

/// The daemon under test: one reactor worker, logical stamps, default
/// poller, bound to an ephemeral loopback port.
pub fn bind_daemon() -> std::io::Result<Collector> {
    let cfg = CollectorConfig::new("bench", Asn(3333), Ipv4Addr::new(198, 51, 100, 1))
        .with_stamp(StampMode::logical(1_000))
        .with_workers(1);
    Collector::bind("127.0.0.1:0", cfg)
}

/// Generates the day, deals it onto `sessions` sessions and plans the
/// flood.
pub fn deal(opts: &RunOpts, updates: u64, sessions: usize) -> (Dealt, FloodPlan) {
    // The generator overshoots or undershoots its target by a few
    // percent; ask for a quarter more and stop dealing at `updates`.
    let cfg = day_config(opts.seed, updates + updates / 4);
    let every = if opts.traced { SAMPLE_EVERY } else { 0 };
    let dealt = Dealt::generate(&cfg, updates, sessions, every);
    let plan = FloodPlan::from_archive(&dealt.archive, 90);
    (dealt, plan)
}

/// What the reference classifier counts over the dealt streams.
pub fn reference_counts(dealt: &Dealt) -> TypeCounts {
    let mut naive = NaiveClassifier::default();
    for session in 0..dealt.keys.len() {
        for update in dealt.session(session) {
            naive.observe(session, update);
        }
    }
    naive.counts
}

/// Benchmark-owned sink that checks delivery: every update must arrive,
/// in its session's send order, with the path and communities it was
/// sent with. Also notes when the last expected update arrived, which
/// ends a pass's clock (daemon shutdown polls at 50–100 ms and is not
/// throughput).
pub struct Delivery<'a> {
    sent: Vec<&'a [RouteUpdate]>,
    cursor: Vec<usize>,
    expected: u64,
    /// Updates seen.
    pub seen: u64,
    /// Updates that arrived out of order or altered.
    pub wrong: u64,
    /// When update number `expected` arrived.
    pub complete_at: Option<Instant>,
}

impl<'a> Delivery<'a> {
    /// Expects exactly the dealt streams.
    pub fn expecting(dealt: &'a Dealt) -> Self {
        let sent: Vec<&[RouteUpdate]> = (0..dealt.keys.len()).map(|i| dealt.session(i)).collect();
        Delivery {
            cursor: vec![0; sent.len()],
            sent,
            expected: dealt.updates(),
            seen: 0,
            wrong: 0,
            complete_at: None,
        }
    }

    /// The dealt session a key belongs to.
    fn slot(&self, key: &SessionKey) -> Option<usize> {
        let slot = key.peer_asn.value().checked_sub(FIRST_SPEAKER_ASN)? as usize;
        (slot < self.sent.len()).then_some(slot)
    }
}

impl AnalysisSink for Delivery<'_> {
    fn on_session(&mut self, _meta: &PeerMeta) {}

    fn on_update(&mut self, key: &SessionKey, got: &RouteUpdate) {
        self.seen += 1;
        if self.seen == self.expected {
            self.complete_at = Some(Instant::now());
        }
        let want = self.slot(key).and_then(|slot| {
            let at = self.cursor[slot];
            self.cursor[slot] += 1;
            self.sent[slot].get(at)
        });
        let same = want.is_some_and(|want| {
            want.prefix == got.prefix
                && match (want.attributes(), got.attributes()) {
                    (None, None) => true,
                    (Some(w), Some(g)) => w.as_path == g.as_path && w.communities == g.communities,
                    _ => false,
                }
        });
        self.wrong += u64::from(!same);
    }

    fn wants_events(&self) -> bool {
        false
    }
}

/// A daemon with its sessions established, as set-up leaves them.
/// Dropping it closes the client side first (a daemon asked to stop
/// while its peers sit silent lingers for their replies), then stops the
/// daemon; `repeat_setup` drops products outside set-up's clock.
pub struct Established<S> {
    sessions: Option<S>,
    daemon: Option<Collector>,
    /// Seconds the dial and handshakes took.
    pub handshake_s: f64,
}

impl<S> Established<S> {
    /// Binds a daemon and lets `dial` establish sessions against it.
    pub fn new(dial: impl FnOnce(&Collector) -> std::io::Result<S>) -> std::io::Result<Self> {
        let daemon = bind_daemon()?;
        let dialled = Instant::now();
        // The guard owns the daemon from here, so a failed dial stops it.
        let mut guard = Established { sessions: None, daemon: Some(daemon), handshake_s: 0.0 };
        let sessions = dial(guard.daemon.as_ref().expect("just bound"))?;
        guard.handshake_s = dialled.elapsed().as_secs_f64();
        guard.sessions = Some(sessions);
        Ok(guard)
    }

    /// The daemon and the sessions, for a run that ends them itself.
    pub fn into_parts(mut self) -> (Collector, S) {
        let parts = (self.daemon.take(), self.sessions.take());
        (parts.0.expect("present until dropped"), parts.1.expect("present until dropped"))
    }
}

impl<S> Drop for Established<S> {
    fn drop(&mut self) {
        drop(self.sessions.take());
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
            daemon.join();
        }
    }
}

/// What one flood produced.
pub struct Flood {
    /// Seconds from stream start to the last expected update reaching
    /// the consumer.
    pub seconds: f64,
    /// The rig's account.
    pub report: FloodReport,
    /// The daemon's account.
    pub stats: CollectorStats,
}

/// Establishes the planned flood sessions against a fresh daemon.
pub fn establish(plan: &FloodPlan) -> std::io::Result<Established<FloodRig>> {
    Established::new(|daemon| {
        let rig = FloodRig::connect(daemon.local_addr(), plan.clone(), FloodOptions::default())?;
        // The rig's FSMs go up half a round trip before the daemon's.
        let sessions = plan.session_count() as u64;
        if daemon.gauges().wait_for_established(sessions, Duration::from_secs(30)) {
            Ok(rig)
        } else {
            Err(std::io::Error::other("daemon never reported every session established"))
        }
    })
}

/// Establishes the planned sessions against a fresh daemon, then streams
/// while `consume` drains the live source on the calling thread.
/// `consume` returns when the source ends and says when the last update
/// arrived.
pub fn flood(
    plan: &FloodPlan,
    consume: impl FnOnce(LiveSource) -> Option<Instant>,
) -> std::io::Result<Flood> {
    let (mut collector, rig) = establish(plan)?.into_parts();
    let source = collector.take_source();
    let start = Instant::now();
    let coordinator = std::thread::spawn(move || {
        let report = rig.stream();
        collector.shutdown();
        (report, collector.join())
    });
    let complete_at = consume(source);
    let (report, stats) =
        coordinator.join().map_err(|_| std::io::Error::other("rig thread panicked"))?;
    let seconds = complete_at.map_or(f64::INFINITY, |at| (at - start).as_secs_f64());
    Ok(Flood { seconds, report: report?, stats })
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let sessions = sessions();
    let updates = opts.sized(UPDATES);
    // Set-up: generate, deal, plan, and one daemon bind + handshake
    // (torn down when the product is dropped, outside set-up's clock).
    let mut handshakes = Vec::new();
    let (dealt, plan, _) = repeat_setup(opts, &mut out, || {
        let (dealt, plan) = deal(opts, updates, sessions);
        let established = establish(&plan).ok();
        handshakes.push(established.as_ref().map(|e| e.handshake_s));
        (dealt, plan, established)
    });
    let refused = handshakes.iter().filter(|h| h.is_none()).count() as u64;
    out.check(
        handshakes.len() as u64 * sessions as u64,
        refused * sessions as u64,
        "set-up sessions failed to establish",
    );
    let n = dealt.updates();
    out.note(format!(
        "input: seed {}, {} updates dealt round-robin onto {} sessions (nproc {}); daemon: 1 reactor \
         worker, logical stamps, default poller",
        opts.seed,
        n,
        sessions,
        crate::sys::nproc()
    ));
    out.note("loop: flow-controlled flood from one generator thread; traffic crossed the host's loopback interface, not a real link".to_owned());
    let reference = reference_counts(&dealt);

    let mut peak_state = 0u64;
    let mut lost = 0u64;
    let mut wrong = 0u64;
    let mut bad_passes = 0u64;
    let mut passes = 0u64;
    let mut pass = || {
        passes += 1;
        let mut result = None;
        let flood = flood(&plan, |source| {
            let stop = source.shutdown_flag();
            let run = PipelineBuilder::new(source)
                .sink((Delivery::expecting(&dealt), CountsSink::default()))
                .shutdown(&stop)
                .run();
            let complete_at = run.as_ref().ok().and_then(|r| r.sink.0.complete_at);
            result = Some(run);
            complete_at
        });
        match (flood, result) {
            (Ok(flood), Some(Ok(run))) => {
                peak_state = run.stats.peak_state_bytes;
                let delivery = &run.sink.0;
                lost += n.saturating_sub(delivery.seen);
                wrong += delivery.wrong;
                let agree = flood.report.updates_sent == n
                    && flood.stats.updates == n
                    && run.stats.updates == n
                    && run.sink.1.finish() == reference;
                bad_passes += u64::from(!agree);
                flood.seconds
            }
            _ => {
                bad_passes += 1;
                lost += n;
                f64::INFINITY
            }
        }
    };
    let median = timed_passes(opts, &mut out, &mut pass);
    out.check(passes * n, lost, "updates sent but not delivered");
    out.check(passes * n, wrong, "updates delivered out of session order or altered");
    out.check(passes, bad_passes, "sent, ingested, classified and reference counts disagree");
    out.set("updates_per_s", n as f64 / median);
    record_memory(&mut out, peak_state);

    if opts.traced {
        let established: Vec<f64> = handshakes.iter().flatten().copied().collect();
        out.set(
            "peer.handshake_ms_per_session",
            stats::median(&established) * 1e3 / sessions as f64,
        );
        trace(&dealt, &plan, median, &mut out);
    }
    out
}

/// In-memory source over pre-built items: the same updates without the
/// network, for the gap budget's offline term.
struct Replay<I>(I);

impl<I: Iterator<Item = SourceItem>> UpdateSource for Replay<I> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        Ok(self.0.next())
    }
}

/// The dealt streams as the items the daemon would hand the pipeline.
fn items(dealt: &Dealt) -> Vec<SourceItem> {
    let mut items = Vec::with_capacity(dealt.updates() as usize + dealt.keys.len());
    for (i, key) in dealt.keys.iter().enumerate() {
        let meta = std::sync::Arc::new(PeerMeta::normal(key.clone()));
        items.push(SourceItem::Session(std::sync::Arc::clone(&meta)));
        items.extend(
            dealt
                .session(i)
                .iter()
                .map(|u| SourceItem::Update(std::sync::Arc::clone(&meta), u.clone())),
        );
    }
    items
}

/// Replay loops of the layers a flooded update crosses, the ingest-only
/// ceiling, and the gap budget against the same updates offline.
fn trace(dealt: &Dealt, plan: &FloodPlan, live_s: f64, out: &mut Outcome) {
    let mut rec = Recorder::default();
    let n = dealt.updates() as f64;
    out.set("tracegen.updates", n);
    out.set("tracegen.gen_ns_per_update", dealt.gen.busy_ns(rec.clock_ns) / n);

    let cfg = SessionConfig::default();
    let packets: Vec<UpdatePacket> = (0..dealt.keys.len())
        .flat_map(|i| dealt.session(i).iter().map(UpdatePacket::from_route_update))
        .collect();

    // Encode every packet into one reused buffer: the contiguous stream
    // the decode and framing loops read back.
    let mut wire = BytesMut::new();
    let (encode_ns, _) = rec.replay("encode_update", "bgp-wire", 0, None, || {
        for packet in &packets {
            encode_update(packet, &cfg, &mut wire);
        }
        (packets.len() as u64, ())
    });
    let wire = wire.to_vec();
    let (decode_ns, decoded) = rec.replay("decode_message", "bgp-wire", 0, None, || {
        let mut rest = &wire[..];
        let mut updates = 0u64;
        while !rest.is_empty() {
            match decode_message(&mut rest, &cfg) {
                Ok(Message::Update(packet)) => {
                    std::hint::black_box(&packet);
                    updates += 1;
                }
                _ => break,
            }
        }
        (updates, updates)
    });
    out.check(
        packets.len() as u64,
        packets.len() as u64 - decoded,
        "encoded updates failed to decode",
    );

    let read_budget = ReactorConfig::default().read_budget;
    let (frame_ns, framed) = rec.replay("FrameBuffer::next_message", "peer", 0, None, || {
        let mut frames = FrameBuffer::new(cfg, true);
        let mut messages = 0u64;
        for chunk in wire.chunks(read_budget) {
            frames.extend(chunk);
            while let Ok(Some(message)) = frames.next_message() {
                std::hint::black_box(&message);
                messages += 1;
            }
        }
        (messages, messages)
    });
    out.check(
        packets.len() as u64,
        packets.len() as u64 - framed,
        "encoded updates failed to frame",
    );

    let messages: Vec<Message> = packets.iter().cloned().map(Message::Update).collect();
    let (writeq_ns, _) = rec.replay("WriteQueue::push_message+flush", "peer", 0, None, || {
        let mut queue = WriteQueue::new(FloodOptions::default().write_queue_cap);
        let mut sink = Vec::with_capacity(wire.len());
        for message in &messages {
            if queue.push_message(message, &cfg).is_err() {
                let _ = queue.flush(&mut sink);
                let _ = queue.push_message(message, &cfg);
            }
        }
        let _ = queue.flush(&mut sink);
        std::hint::black_box(&sink);
        (messages.len() as u64, ())
    });
    drop(messages);

    // Hand-off: one producer pushing pre-built items, this thread
    // draining, through the channel the daemon's ingest thread uses.
    let prebuilt = items(dealt);
    let handoff_items = prebuilt.len() as f64;
    let (tx, mut source) = LiveSource::channel();
    let (handoff_ns, _) = rec.replay("LiveSource::channel", "collector", 0, None, || {
        let producer = std::thread::spawn(move || {
            for item in prebuilt {
                if tx.send(item).is_err() {
                    break;
                }
            }
        });
        let mut drained = 0u64;
        while let Ok(Some(item)) = source.next_item() {
            std::hint::black_box(&item);
            drained += 1;
        }
        let _ = producer.join();
        (drained, ())
    });

    // The same updates with no network: the offline term of the gap.
    let offline_items = items(dealt);
    let (offline_ns, _) =
        rec.replay("pipeline over the same updates, in memory", "core", 0, None, || {
            let run = PipelineBuilder::new(Replay(offline_items.into_iter()))
                .sink((Delivery::expecting(dealt), CountsSink::default()))
                .run();
            (dealt.updates(), std::hint::black_box(run.map(|r| r.stats.updates).unwrap_or(0)))
        });
    let (classify_ns, _) = rec.replay("StreamClassifier::classify", "core", 0, None, || {
        let mut classifiers: Vec<StreamClassifier> =
            (0..dealt.keys.len()).map(|_| StreamClassifier::new()).collect();
        for (i, classifier) in classifiers.iter_mut().enumerate() {
            for update in dealt.session(i) {
                std::hint::black_box(classifier.classify(update));
            }
        }
        (dealt.updates(), ())
    });

    // Ceiling: the same flood with the live source drained by a bare
    // loop — no pipeline. Median of three.
    let mut ceilings = Vec::new();
    for _ in 0..3 {
        let expected = dealt.updates();
        let flood = flood(plan, |mut source| {
            let mut seen = 0u64;
            let mut complete_at = None;
            while let Ok(Some(item)) = source.next_item() {
                if matches!(item, SourceItem::Update(..)) {
                    seen += 1;
                    if seen == expected {
                        complete_at = Some(Instant::now());
                    }
                }
            }
            complete_at
        });
        match flood {
            Ok(f) if f.seconds.is_finite() => ceilings.push(n / f.seconds),
            _ => out.check(1, 1, "ingest-only flood did not deliver every update"),
        }
    }

    let live_ns = live_s * 1e9 / n;
    let per = |ns: f64| ns / n;
    out.set("bgp-wire.encode_ns_per_update", per(encode_ns));
    out.set("bgp-wire.bytes_per_update", wire.len() as f64 / n);
    out.set("bgp-wire.decode_ns_per_update", per(decode_ns));
    out.set("peer.frame_ns_per_msg", per(frame_ns));
    out.set("peer.writeq_ns_per_msg", per(writeq_ns));
    out.set("collector.handoff_ns_per_item", handoff_ns / handoff_items);
    out.set("core.classify_ns_per_update", per(classify_ns));
    out.set("peer.ingest_only_updates_per_s", stats::median(&ceilings));
    // FrameBuffer::next_message decodes too, so framing alone is the
    // difference; everything the replay loops cannot see — socket
    // reads and writes, epoll wake-ups, the reactor→ingest channel,
    // threads sharing two cores — is the stated remainder.
    let frame_only = (per(frame_ns) - per(decode_ns)).max(0.0);
    let gap = live_ns - per(offline_ns);
    let named = per(encode_ns) + frame_only + per(decode_ns) + handoff_ns / handoff_items;
    out.set("gap.live_ns_per_update", live_ns);
    out.set("gap.offline_ns_per_update", per(offline_ns));
    out.set("gap.encode_ns_per_update", per(encode_ns));
    out.set("gap.frame_ns_per_update", frame_only);
    out.set("gap.decode_ns_per_update", per(decode_ns));
    out.set("gap.handoff_ns_per_update", handoff_ns / handoff_items);
    out.set("gap.remainder_ns_per_update", gap - named);
    out.note(format!(
        "gap budget: live {:.0} − same updates offline {:.0} = {:.0} ns/update = encode {:.0} + frame {:.0} \
         + decode {:.0} + hand-off {:.0} + socket/wake-up remainder {:.0}",
        live_ns,
        per(offline_ns),
        gap,
        per(encode_ns),
        frame_only,
        per(decode_ns),
        handoff_ns / handoff_items,
        gap - named
    ));
    write_trace("live-flood", &rec, out);
}
