//! `sim-internet`: the paper's §3/§6 question at scale — which cleaning
//! placement sends which message types — on a generated internet.

use std::collections::HashMap;
use std::time::Instant;

use kcc_bgp_sim::scenario::{self, BuiltScenario, CollectorDecl, ScenarioSpec, TopologyTemplate};
use kcc_bgp_sim::{Network, SimConfig, SimDuration, VendorProfile};
use kcc_bgp_types::Asn;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::{CountsSink, TypeCounts};
use kcc_topology::gen::BEACON_ORIGIN_ASN;
use kcc_topology::{generate_internet, BehaviorMix, InternetConfig, RouterId};
use keep_communities_clean::adapter::CaptureSource;

use super::{record_memory, repeat_setup, timed_passes, write_trace, RunOpts, DEFAULT_SEED};
use crate::reference::NaiveClassifier;
use crate::report::Outcome;
use crate::sys::thread_cpu_ns;
use crate::trace::Recorder;

/// Why the workload exists.
pub const WHY: &str =
    "the simulator's event loop, decision process and interned RIBs on a generated \
    internet, under blind, ingress- and egress-cleaning placements; no wire, MRT or peer code runs";

/// ASes of the generated internet. Three placements are built and run
/// per pass, so the graph is sized for a pass of about a second.
pub const N_ASES: u64 = 10_000;
/// Transits the collector peers with.
const COLLECTOR_PEERS: u32 = 64;
/// The collector AS (RIS-style).
const COLLECTOR_ASN: Asn = Asn(3333);
/// The beacon origin's primary provider: the first generated transit.
const PRIMARY_TRANSIT: Asn = Asn(20_000);
/// Quiet time between a phase's start and its link event.
const PHASE_GAP: SimDuration = SimDuration::from_secs(10);

/// Where communities are cleaned (the paper's §7 deployment question).
const PLACEMENTS: [(&str, f64, f64); 3] =
    [("blind", 0.0, 0.0), ("ingress", 0.0, 0.5), ("egress", 0.5, 0.0)];
/// The beacon protocol's phases.
const PHASES: [&str; 4] = ["converge", "flap", "heal", "reflap"];

fn spec(seed: u64, n_ases: u64, cleans_egress: f64, cleans_ingress: f64) -> ScenarioSpec {
    let mut config = InternetConfig::sized(n_ases as usize, seed);
    config.behavior_mix = BehaviorMix { transit_tags_geo: 0.5, cleans_egress, cleans_ingress };
    let peers =
        (0..COLLECTOR_PEERS).map(|i| RouterId { asn: Asn(PRIMARY_TRANSIT.value() + i), index: 0 });
    ScenarioSpec {
        name: "sim-internet".to_owned(),
        // BIRD: no duplicate suppression, MRAI 0 — raw event throughput,
        // not timer waiting.
        sim: SimConfig { seed, default_vendor: VendorProfile::BIRD_2, ..Default::default() },
        topology: TopologyTemplate::GeneratedInternet {
            config,
            collector: Some(CollectorDecl { asn: COLLECTOR_ASN, peers: peers.collect() }),
        },
        monitors: vec![],
        watch: vec![],
        phases: vec![],
        expectations: vec![],
    }
}

/// Everything simulated about one placement: must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SimCounts {
    events: u64,
    delivered: u64,
    collector_msgs: u64,
    interned_attr_bytes: u64,
    counts: TypeCounts,
}

/// Host time of one placement's four phases.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTimes {
    wall_ns: [f64; 4],
    cpu_ns: [f64; 4],
    events: [u64; 4],
}

/// Drives converge → flap → heal → reflap on a freshly built network.
fn drive(net: &mut Network, beacon_prefix: kcc_bgp_types::Prefix) -> PhaseTimes {
    let beacon = RouterId { asn: BEACON_ORIGIN_ASN, index: 0 };
    let links = net.find_ebgp_sessions(BEACON_ORIGIN_ASN, PRIMARY_TRANSIT);
    let mut times = PhaseTimes::default();
    for (i, _) in PHASES.iter().enumerate() {
        let events_before = net.stats.events_processed;
        let cpu_before = thread_cpu_ns();
        let start = Instant::now();
        match i {
            0 => net.schedule_announce(net.now(), beacon, beacon_prefix),
            1 | 3 => links.iter().for_each(|&l| net.schedule_link_down(net.now() + PHASE_GAP, l)),
            _ => links.iter().for_each(|&l| net.schedule_link_up(net.now() + PHASE_GAP, l)),
        }
        net.run_until_quiet();
        times.wall_ns[i] = start.elapsed().as_nanos() as f64;
        times.cpu_ns[i] = match (cpu_before, thread_cpu_ns()) {
            (Some(before), Some(after)) => after.saturating_sub(before) as f64,
            _ => times.wall_ns[i],
        };
        times.events[i] = net.stats.events_processed - events_before;
    }
    times
}

/// Classifies the collector's capture through the pipeline and through
/// the naive reference; returns the counts and whether the two agree.
fn classify(net: &Network) -> (SimCounts, u64, bool) {
    let collector = RouterId { asn: COLLECTOR_ASN, index: 0 };
    let empty = kcc_bgp_sim::Capture::new();
    let capture = net.capture(collector).unwrap_or(&empty);
    let run = PipelineBuilder::new(CaptureSource::new(net, "sim", capture))
        .sink(CountsSink::default())
        .run()
        .expect("capture sources cannot fail");
    let mut naive = NaiveClassifier::default();
    let mut ids: HashMap<RouterId, usize> = HashMap::new();
    for entry in capture.entries() {
        let next = ids.len();
        let id = *ids.entry(entry.from).or_insert(next);
        naive.observe(id, &entry.to_route_update());
    }
    let counts = run.sink.finish();
    let sim = SimCounts {
        events: net.stats.events_processed,
        delivered: net.stats.messages_delivered,
        collector_msgs: capture.len() as u64,
        interned_attr_bytes: net.attr_store().bytes() as u64,
        counts,
    };
    (sim, run.stats.peak_state_bytes, counts == naive.counts)
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let n_ases = opts.sized(N_ASES).max(u64::from(COLLECTOR_PEERS) * 8);
    let specs: Vec<ScenarioSpec> =
        PLACEMENTS.iter().map(|&(_, eg, ing)| spec(opts.seed, n_ases, eg, ing)).collect();
    let beacon_prefix = InternetConfig::default().beacon_prefixes[0];

    let first = repeat_setup(opts, &mut out, || scenario::build(&specs[0]));
    let topo = first.topology.as_ref().expect("generated template");
    out.note(format!(
        "input: seed {}, {} ASes ({} routers, {} sessions, {} edges), collector on {} transits, \
         BIRD profile, MRAI 0; placements blind / 50% ingress / 50% egress, geo-tagging 0.5",
        opts.seed,
        n_ases,
        first.net.routers().count(),
        first.net.sessions().len(),
        topo.edges().len(),
        COLLECTOR_PEERS
    ));
    out.note("loop: closed, deterministic, one thread; host time only".to_owned());
    let edges = topo.edges().len();
    drop(first);

    // Per pass: every placement built afresh (untimed), then its four
    // phases (timed). A pass's seconds are the sum of the timed phases.
    let mut per_pass: Vec<[(SimCounts, PhaseTimes); 3]> = Vec::new();
    let mut peak_state = 0u64;
    let mut agreed = Vec::new();
    let mut pass = || {
        let mut row = [(SimCounts::default(), PhaseTimes::default()); 3];
        for (slot, spec) in row.iter_mut().zip(&specs) {
            let BuiltScenario { mut net, .. } = scenario::build(spec);
            let times = drive(&mut net, beacon_prefix);
            let (counts, state, agrees) = classify(&net);
            peak_state = peak_state.max(state);
            agreed.push(agrees);
            *slot = (counts, times);
        }
        let seconds = row.iter().map(|(_, t)| t.wall_ns.iter().sum::<f64>()).sum::<f64>() * 1e-9;
        per_pass.push(row);
        seconds
    };
    let median = timed_passes(opts, &mut out, &mut pass);

    let disagreeing = agreed.iter().filter(|a| !**a).count() as u64;
    out.check(agreed.len() as u64, disagreeing, "capture counts differ from the naive reference");
    let reference = per_pass[0].map(|(c, _)| c);
    let drifted = per_pass.iter().filter(|row| row.map(|(c, _)| c) != reference).count() as u64;
    out.check(per_pass.len() as u64, drifted, "simulated counts differ between passes");
    check_contrast(&reference, opts, &mut out);

    let events: u64 = reference.iter().map(|c| c.events).sum();
    let delivered: u64 = reference.iter().map(|c| c.delivered).sum();
    for ((name, _, _), c) in PLACEMENTS.iter().zip(&reference) {
        let t = c.counts;
        out.note(format!(
            "{name:>8}: {} events, {} messages delivered, {} collector messages; pc={} pn={} nc={} \
             nn={} xc={} xn={} initial={} withdrawals={}",
            c.events, c.delivered, c.collector_msgs, t.pc, t.pn, t.nc, t.nn, t.xc, t.xn, t.initial,
            t.withdrawals
        ));
    }
    out.set("updates_per_s", delivered as f64 / median);
    out.set("events_per_s", events as f64 / median);
    out.note(format!(
        "events_per_s {:.0} 1/s (simulator events per host second; updates_per_s counts the BGP \
         messages those events delivered)",
        events as f64 / median
    ));
    record_memory(&mut out, peak_state);

    if opts.traced {
        trace(&specs[0], &per_pass, &reference, edges, n_ases, &mut out);
    }
    out
}

/// The placement contrast must not be degenerate, and on the default
/// seed at full size the counts are pinned.
fn check_contrast(reference: &[SimCounts; 3], opts: &RunOpts, out: &mut Outcome) {
    let shape = |c: &SimCounts| (c.counts.pc, c.counts.pn);
    let distinct = shape(&reference[0]) != shape(&reference[1])
        && shape(&reference[0]) != shape(&reference[2])
        && shape(&reference[1]) != shape(&reference[2]);
    let min_msgs = if opts.quick { 10 } else { 100 };
    let thin = reference.iter().filter(|c| c.collector_msgs < min_msgs).count() as u64;
    out.check(1, u64::from(!distinct), "placements do not differ in pc/pn");
    out.check(3, thin, "a placement reached the collector with too few messages");
    if opts.seed == DEFAULT_SEED && !opts.quick {
        let got = reference.map(|c| (c.events, c.collector_msgs, c.counts.pc, c.counts.pn));
        out.check(
            1,
            u64::from(got != PINNED),
            &format!("default-seed counts {got:?} != pinned {PINNED:?}"),
        );
    }
}

/// `(events, collector messages, pc, pn)` per placement for seed 42 at
/// [`N_ASES`]: a change here is a behaviour change, not a speed-up.
const PINNED: [(u64, u64, u64, u64); 3] =
    [(75_735, 213, 129, 8), (75_735, 213, 63, 74), (75_735, 213, 48, 89)];

/// Per-layer numbers: set-up split, per-phase cost, exact counts.
fn trace(
    spec: &ScenarioSpec,
    per_pass: &[[(SimCounts, PhaseTimes); 3]],
    reference: &[SimCounts; 3],
    edges: usize,
    n_ases: u64,
    out: &mut Outcome,
) {
    let mut rec = Recorder::default();
    let TopologyTemplate::GeneratedInternet { config, .. } = &spec.topology else {
        unreachable!("spec() builds GeneratedInternet templates");
    };
    let (generate_ns, _) =
        rec.replay("generate_internet", "topology", 0, Some("scenario::build"), || {
            (1, std::hint::black_box(generate_internet(config)))
        });
    let (build_ns, _) = rec.replay("scenario::build", "bgp-sim", 0, None, || {
        (1, std::hint::black_box(scenario::build(spec)))
    });
    out.set("topology.generate_s", generate_ns * 1e-9);
    out.set("topology.edges", edges as f64);
    out.set("bgp-sim.compile_s", (build_ns - generate_ns).max(0.0) * 1e-9);

    // Phase spans of the last pass; phase costs over all passes.
    let mut at = rec.now_ns();
    for (_, t) in &per_pass[per_pass.len() - 1] {
        for (i, phase) in PHASES.iter().enumerate() {
            rec.push(crate::trace::Span {
                name: phase,
                layer: "bgp-sim",
                pass: (per_pass.len() - 1) as u32,
                start_ns: at,
                end_ns: at + t.wall_ns[i] as u64,
                parent: Some("pass"),
                busy_ns: t.cpu_ns[i],
                count: t.events[i],
            });
            at += t.wall_ns[i] as u64;
        }
    }
    let sum = |f: &dyn Fn(&PhaseTimes) -> f64| -> f64 {
        per_pass.iter().flatten().map(|(_, t)| f(t)).sum()
    };
    let converge_events = sum(&|t| t.events[0] as f64);
    let flap_events = sum(&|t| t.events[1..].iter().sum::<u64>() as f64);
    out.set("bgp-sim.converge_ns_per_event", sum(&|t| t.wall_ns[0]) / converge_events);
    out.set(
        "bgp-sim.flap_ns_per_event",
        sum(&|t| t.wall_ns[1..].iter().sum()) / flap_events.max(1.0),
    );
    out.set(
        "bgp-sim.cpu_ns_per_event",
        sum(&|t| t.cpu_ns.iter().sum()) / (converge_events + flap_events),
    );
    out.set("bgp-sim.events", reference.iter().map(|c| c.events).sum::<u64>() as f64);
    out.set(
        "bgp-sim.collector_msgs",
        reference.iter().map(|c| c.collector_msgs).sum::<u64>() as f64,
    );
    out.set(
        "bgp-sim.interned_attr_bytes",
        reference.iter().map(|c| c.interned_attr_bytes).max().unwrap_or(0) as f64,
    );
    out.set("bgp-sim.rss_bytes_per_as", crate::sys::peak_rss_bytes() as f64 / n_ases as f64);
    write_trace("sim-internet", &rec, out);
}
