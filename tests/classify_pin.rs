//! The §4 cleaning and §5 classification of a generated day, pinned.
//!
//! Two seeded days (the `pipeline_roundtrip` small configuration) are
//! written as MRT and streamed through `PipelineBuilder` →
//! `CleaningStage` → (`CountsSink`, a digest sink). The test pins the
//! Table 2 counts, the cleaning report, the run statistics (bar the two
//! state-byte fields, which measure the classifier's memory rather than
//! its verdicts) and an FNV-1a 64 digest over every classified event:
//! its session, time, prefix, kind (with `med_only`) and attribute
//! value. Any change to what cleaning keeps or drops, or to how an
//! update is labelled, moves one of them. The state bytes are held to a
//! ceiling 1% above their pinned figures, so an attribute layout that
//! costs more per retained announcement fails here.

use keep_communities_clean::analysis::pipeline::{AnalysisSink, PipelineBuilder, PipelineStats};
use keep_communities_clean::analysis::{
    ClassifiedEvent, CleaningConfig, CleaningReport, CleaningStage, CountsSink, TypeCounts,
};
use keep_communities_clean::collector::{MrtSource, SessionKey};
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};

fn small_config(seed: u64) -> Mar20Config {
    Mar20Config {
        seed,
        target_announcements: 15_000,
        universe: UniverseConfig {
            seed,
            n_collectors: 4,
            n_peers: 12,
            n_sessions: 25,
            n_prefixes_v4: 300,
            n_prefixes_v6: 30,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a 64 over every event's session, time, prefix, kind and
/// attribute value, in arrival order.
struct DigestSink {
    hash: u64,
    events: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink { hash: 0xcbf2_9ce4_8422_2325, events: 0 }
    }
}

impl AnalysisSink for DigestSink {
    fn on_event(&mut self, session: &SessionKey, event: &ClassifiedEvent) {
        let line = format!(
            "{session:?}|{}|{}|{:?}|{:?}\n",
            event.time_us,
            event.prefix,
            event.kind,
            event.attrs.as_deref()
        );
        self.hash = fnv1a(self.hash, line.as_bytes());
        self.events += 1;
    }
}

struct Pinned {
    counts: TypeCounts,
    report: CleaningReport,
    stats: PipelineStats,
    digest: u64,
    events: u64,
}

fn run(seed: u64) -> Pinned {
    let out = generate_mar20(&small_config(seed));
    let mut bytes = Vec::new();
    out.archive.write_mrt(&mut bytes).expect("MRT export");
    let route_servers: Vec<_> = out
        .archive
        .sessions()
        .filter(|(_, rec)| rec.meta.route_server)
        .map(|(key, _)| (key.peer_asn, key.peer_ip))
        .collect();
    let source = MrtSource::new(&bytes[..], "rrc00", out.archive.epoch_seconds)
        .with_route_servers(route_servers);
    let run = PipelineBuilder::new(source)
        .stages(CleaningStage::new(&out.registry, CleaningConfig::default()))
        .sink((CountsSink::default(), DigestSink::default()))
        .run()
        .expect("in-memory MRT cannot fail");
    let (counts, digest) = run.sink;
    Pinned {
        counts: counts.finish(),
        report: run.stages.report(),
        stats: run.stats,
        digest: digest.hash,
        events: digest.events,
    }
}

fn check(seed: u64, expected: &Pinned) {
    let got = run(seed);
    assert_eq!(got.counts, expected.counts, "seed {seed}: TypeCounts");
    assert_eq!(got.report, expected.report, "seed {seed}: CleaningReport");
    let verdicts = |s: PipelineStats| PipelineStats { state_bytes: 0, peak_state_bytes: 0, ..s };
    assert_eq!(verdicts(got.stats), verdicts(expected.stats), "seed {seed}: PipelineStats");
    assert_eq!(got.events, expected.events, "seed {seed}: events");
    assert_eq!(got.digest, expected.digest, "seed {seed}: event digest {:#018x}", got.digest);
    let ceiling = expected.stats.peak_state_bytes + expected.stats.peak_state_bytes / 100;
    assert!(
        got.stats.peak_state_bytes <= ceiling,
        "seed {seed}: peak_state_bytes {} above {ceiling}",
        got.stats.peak_state_bytes
    );
}

#[test]
fn seed_42_day_is_pinned() {
    check(
        42,
        &Pinned {
            counts: TypeCounts {
                pc: 5747,
                pn: 3019,
                nc: 3175,
                nn: 3180,
                xc: 43,
                xn: 94,
                initial: 2035,
                withdrawals: 1370,
                nn_med_only: 587,
            },
            report: CleaningReport {
                removed_unallocated_asn: 20,
                removed_unallocated_prefix: 30,
                route_server_insertions: 0,
                sessions_normalized: 0,
                kept: 18_663,
            },
            stats: PipelineStats {
                sessions: 25,
                updates: 18_713,
                kept: 18_663,
                streams: 2035,
                state_bytes: 307_338,
                peak_state_bytes: 307_594,
            },
            digest: 0x2a45_5bd5_4fb9_f529,
            events: 18_663,
        },
    );
}

/// Seed 7 also exercises route-server ASN insertion and same-second
/// timestamp normalisation.
#[test]
fn seed_7_day_is_pinned() {
    check(
        7,
        &Pinned {
            counts: TypeCounts {
                pc: 5633,
                pn: 3053,
                nc: 2954,
                nn: 3338,
                xc: 30,
                xn: 76,
                initial: 2034,
                withdrawals: 1355,
                nn_med_only: 611,
            },
            report: CleaningReport {
                removed_unallocated_asn: 27,
                removed_unallocated_prefix: 23,
                route_server_insertions: 534,
                sessions_normalized: 11,
                kept: 18_473,
            },
            stats: PipelineStats {
                sessions: 25,
                updates: 18_523,
                kept: 18_473,
                streams: 2034,
                state_bytes: 307_204,
                peak_state_bytes: 307_308,
            },
            digest: 0xeada_0e6b_e289_395a,
            events: 18_473,
        },
    );
}
