//! `live-paced`: the same daemon driven the other way — one session on
//! an open-loop schedule, one wake per message — where latency, not
//! throughput, is what a user sees.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcc_bgp_types::{Asn, RouteUpdate};
use kcc_bgp_wire::UpdatePacket;
use kcc_collector::SessionKey;
use kcc_core::pipeline::{AnalysisSink, PipelineBuilder};
use kcc_peer::{ActiveSpeaker, FsmConfig, WallClock};

use super::live_flood::{deal, Established};
use super::{record_memory, repeat_setup, write_trace, RunOpts};
use crate::inputs::FIRST_SPEAKER_ASN;
use crate::report::Outcome;
use crate::stats::{self, percentile_sorted, tail_percentile};
use crate::trace::{Recorder, Span};

/// Why the workload exists.
pub const WHY: &str =
    "the reactor's wake-per-message path: one session paced open-loop, latency from \
    each update's due time to the sink; batching that lifts live-flood can cost latency here";

/// Offered rate, updates per second. Update `k` is due at `t0 + k/RATE`
/// whether or not the system kept up.
pub const RATE: u64 = 40_000;
/// Seconds at the start of the schedule that are sent but not measured.
const DISCARD_S: f64 = 1.0;
/// Distinct updates generated; the schedule cycles through them.
const DISTINCT_UPDATES: u64 = 50_000;

/// Benchmark-owned sink: stamps the arrival of every update. One
/// session keeps its order, so the `k`-th stamp belongs to update `k`.
struct Stamps(Vec<Instant>);

impl AnalysisSink for Stamps {
    fn on_update(&mut self, _session: &SessionKey, _update: &RouteUpdate) {
        self.0.push(Instant::now());
    }
}

/// The sender's account of a run.
struct Sent {
    t0: Instant,
    interval: Duration,
    /// When each update was actually written.
    at: Vec<Instant>,
    /// Why sending stopped early, if it did.
    error: Option<String>,
}

/// Sends `total` updates on schedule. Between due times the thread
/// yields rather than spins, so on a two-core machine the daemon's
/// threads are not starved by their own load generator.
fn send_on_schedule(mut speaker: ActiveSpeaker, packets: &[UpdatePacket], total: usize) -> Sent {
    let interval = Duration::from_nanos(1_000_000_000 / RATE);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut sent = Sent { t0, interval, at: Vec::with_capacity(total), error: None };
    for k in 0..total {
        let due = t0 + interval * k as u32;
        while Instant::now() < due {
            std::thread::yield_now();
        }
        if let Err(e) = speaker.send_update(&packets[k % packets.len()]) {
            sent.error = Some(e.to_string());
            break;
        }
        sent.at.push(Instant::now());
    }
    if let Err(e) = speaker.close() {
        sent.error.get_or_insert(e.to_string());
    }
    sent
}

fn nanos_between(later: Instant, earlier: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos() as u64
}

/// Nanoseconds as microseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A backlog that reaches this much latency is real; below it, a last
/// second slower than the first is scheduler noise on a shared core.
const BACKLOG_FLOOR_NS: u64 = 10_000_000;

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let seconds = if opts.quick { 2.0 } else { opts.seconds.max(DISCARD_S + 2.0) };
    let total = (seconds * RATE as f64) as usize;
    let discard = (DISCARD_S * RATE as f64) as usize;
    let speaker_cfg =
        FsmConfig::new(Asn(FIRST_SPEAKER_ASN), Ipv4Addr::new(10, 99, 0, 0)).with_hold_time(90);

    // Set-up: generate the updates, bind the daemon, shake hands (torn
    // down when the product is dropped, outside set-up's clock).
    let connect = || {
        Established::new(|daemon| {
            ActiveSpeaker::connect(
                daemon.local_addr(),
                speaker_cfg.clone(),
                Arc::new(WallClock::new()),
                Duration::from_secs(10),
            )
            .map_err(std::io::Error::other)
        })
    };
    let mut handshakes = Vec::new();
    let (packets, _) = repeat_setup(opts, &mut out, || {
        let (dealt, _) = deal(opts, opts.sized(DISTINCT_UPDATES), 1);
        let packets: Vec<UpdatePacket> =
            dealt.session(0).iter().map(UpdatePacket::from_route_update).collect();
        let established = connect().ok();
        handshakes.push(established.as_ref().map(|e| e.handshake_s));
        (packets, established)
    });
    let refused = handshakes.iter().filter(|h| h.is_none()).count() as u64;
    out.check(handshakes.len() as u64, refused, "set-up session failed to establish");
    out.note(format!(
        "input: seed {}, {} distinct updates cycled; one ActiveSpeaker session; daemon: 1 reactor \
         worker, logical stamps, default poller (nproc {})",
        opts.seed,
        packets.len(),
        crate::sys::nproc()
    ));
    out.note(format!(
        "loop: open, {RATE} updates/s for {seconds:.0} s (first {DISCARD_S:.0} s sent, not measured); update k due \
         at t0 + k/{RATE} s; traffic crossed the host's loopback interface, not a real link"
    ));

    // The measured run: sender thread on schedule, pipeline here.
    let run = connect().map(Established::into_parts).and_then(|(mut collector, speaker)| {
        let source = collector.take_source();
        let stop = source.shutdown_flag();
        let sender = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let sent = send_on_schedule(speaker, &packets, total);
                collector.shutdown();
                (sent, collector.join())
            });
            let run = PipelineBuilder::new(source)
                .sink(Stamps(Vec::with_capacity(total)))
                .shutdown(&stop)
                .run();
            (sender.join(), run)
        });
        match sender {
            (Ok((sent, stats)), Ok(run)) => Ok((sent, stats, run)),
            _ => Err(std::io::Error::other("sender thread or pipeline failed")),
        }
    });
    let Ok((sent, daemon, run)) = run else {
        out.check(total as u64, total as u64, "the paced run could not be set up or completed");
        return out;
    };
    if let Some(why) = &sent.error {
        out.note(format!("sender stopped early: {why}"));
    }
    let stamps = &run.sink.0;
    let delivered = stamps.len().min(sent.at.len());
    out.check(
        total as u64,
        (total - delivered) as u64,
        "updates scheduled but not delivered to the sink",
    );
    out.check(1, u64::from(daemon.updates != sent.at.len() as u64), "daemon ingested ≠ sent");

    // Latency from due time, lateness of the sender, over the measured
    // part of the schedule.
    let due = |k: usize| sent.t0 + sent.interval * k as u32;
    let measured = discard.min(delivered)..delivered;
    let mut latency: Vec<u64> =
        measured.clone().map(|k| nanos_between(stamps[k], due(k))).collect();
    let mut late: Vec<u64> = measured.clone().map(|k| nanos_between(sent.at[k], due(k))).collect();
    let second = RATE as usize;
    let first_second = median_u64(&latency[..second.min(latency.len())]);
    let last_second = median_u64(&latency[latency.len().saturating_sub(second)..]);
    // A backlog that grows shows as latency that grows: the run fails.
    out.check(
        1,
        u64::from(last_second > (2 * first_second).max(BACKLOG_FLOOR_NS)),
        "median latency of the last second is over twice the first's: the backlog grew",
    );
    latency.sort_unstable();
    late.sort_unstable();
    let p50 = percentile_sorted(&latency, 50.0);
    let window = measured
        .clone()
        .last()
        .map_or(0.0, |last| (stamps[last] - stamps[measured.start]).as_secs_f64());
    out.set("updates_per_s", (measured.len().saturating_sub(1)) as f64 / window);
    out.set("ingest_latency_p50_us", us(p50));
    out.note(format!(
        "ingest_latency_p50_us {:.1} us over {} samples (first measured second {:.1} us, last {:.1} us); \
         sender late p50 {:.1} us, p99 {:.1} us",
        us(p50),
        latency.len(),
        us(first_second),
        us(last_second),
        us(percentile_sorted(&late, 50.0)),
        us(percentile_sorted(&late, 99.0))
    ));
    out.set("harness.passes", 1.0);
    record_memory(&mut out, run.stats.peak_state_bytes);

    if opts.traced {
        let established: Vec<f64> = handshakes.iter().flatten().copied().collect();
        out.set("peer.handshake_ms_per_session", stats::median(&established) * 1e3);
        out.set("peer.ingest_latency_p99_us", us(percentile_sorted(&latency, 99.0)));
        if let Some((pct, value)) = tail_percentile(&latency) {
            out.set("peer.ingest_latency_tail_us", us(value));
            out.set("peer.ingest_latency_tail_pct", pct);
            out.note(format!(
                "latency tail: p{pct} = {:.1} us (highest percentile with ≥ 10 samples beyond it)",
                us(value)
            ));
        }
        out.set("peer.ingest_latency_samples", latency.len() as f64);
        out.set("peer.sender_late_p99_us", us(percentile_sorted(&late, 99.0)));
        // One span per measured second: how latency moved over the run.
        let mut rec = Recorder::default();
        let base = due(measured.start);
        for (i, from) in measured.clone().step_by(second).enumerate() {
            let chunk = from..(from + second).min(measured.end);
            let in_second: Vec<u64> =
                chunk.clone().map(|k| nanos_between(stamps[k], due(k))).collect();
            rec.push(Span {
                name: "due→sink, one second of the schedule",
                layer: "peer",
                pass: i as u32,
                start_ns: (due(chunk.start) - base).as_nanos() as u64,
                end_ns: (due(chunk.end - 1) - base).as_nanos() as u64,
                parent: None,
                busy_ns: median_u64(&in_second) as f64,
                count: chunk.len() as u64,
            });
        }
        write_trace("live-paced", &rec, &mut out);
    }
    out
}

fn median_u64(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, 50.0)
}
