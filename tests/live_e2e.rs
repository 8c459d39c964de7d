//! End-to-end live collection: simulated/generated internets speak real
//! BGP over loopback TCP into the collector daemon, and the live
//! pipeline results must be **identical** to the offline `ArchiveSource`
//! analysis of the same update set — including after round-tripping the
//! daemon's rotated MRT dumps through `MrtSource`.
//!
//! Determinism: the daemon stamps arrivals in `Logical` mode (the n-th
//! update of each session gets `n × spacing`), which TCP's per-session
//! ordering makes reproducible; `offline_reference` applies the same
//! rule to the input so both paths see byte-identical update sets.

use keep_communities_clean::adapter::capture_to_archive;
use keep_communities_clean::analysis::pipeline::AnalysisSink;
use keep_communities_clean::analysis::table::{OverviewSink, OverviewStats, TypeShares};
use keep_communities_clean::analysis::{
    CleaningConfig, CleaningStage, CountsSink, MrtSource, PipelineBuilder, TypeCounts,
};
use keep_communities_clean::collector::{
    ArchiveSource, LiveSource, SessionKey, ShutdownFlag, UpdateArchive,
};
use keep_communities_clean::peer::{
    offline_reference, Collector, CollectorConfig, CollectorStats, FloodOptions, FloodPlan,
    FloodReport, FloodRig, RotateConfig, StampMode,
};
use keep_communities_clean::sim::lab::{build_lab, lab_prefix, LabExperiment, LabNetwork};
use keep_communities_clean::sim::{SimDuration, SimTime, VendorProfile};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::{Asn, RouteUpdate};

/// Collector config used by every test: logical stamping, route-server
/// metadata lifted from the input archive (the daemon cannot learn it
/// from the wire, exactly like MRT).
fn collector_cfg(input: &UpdateArchive) -> CollectorConfig {
    let route_servers: Vec<_> = input
        .sessions()
        .filter(|(_, rec)| rec.meta.route_server)
        .map(|(k, _)| (k.peer_asn, k.peer_ip))
        .collect();
    CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_route_servers(route_servers)
}

/// Binds a daemon with `cfg`, replays `plans` into it one after another
/// from a spawned thread and then stops it, while `drain` runs on the
/// calling thread over the daemon's live source and its stop flag. The
/// daemon hands updates over through a bounded ring, so a consumer that
/// waited for the replay to finish would hold the replay back.
fn replay_while_draining<O>(
    cfg: CollectorConfig,
    plans: Vec<FloodPlan>,
    drain: impl FnOnce(LiveSource, &ShutdownFlag) -> O,
) -> (O, Vec<FloodReport>, CollectorStats) {
    let mut collector = Collector::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = collector.local_addr();
    let source = collector.take_source();
    let stop = source.shutdown_flag();
    let replay = std::thread::spawn(move || {
        let reports: Vec<FloodReport> = plans
            .into_iter()
            .map(|plan| {
                FloodRig::connect(addr, plan, FloodOptions::default())
                    .and_then(FloodRig::stream)
                    .expect("replay")
            })
            .collect();
        collector.shutdown();
        (reports, collector.join())
    });
    let out = drain(source, &stop);
    let (reports, stats) = replay.join().expect("replay thread");
    (out, reports, stats)
}

/// Replays `input` into a fresh daemon and returns the live pipeline's
/// (counts, overview) plus the daemon's stats.
fn run_live_loopback(
    input: &UpdateArchive,
    cfg: CollectorConfig,
) -> (TypeCounts, OverviewStats, CollectorStats) {
    let (out, reports, stats) =
        replay_while_draining(cfg, vec![FloodPlan::from_archive(input, 90)], |source, stop| {
            PipelineBuilder::new(source)
                .sink((CountsSink::default(), OverviewSink::default()))
                .shutdown(stop)
                .run()
                .expect("live sources do not fail")
        });
    let report = reports[0];
    assert_eq!(report.updates_sent, input.update_count() as u64, "the rig sent everything");
    assert_eq!(report.sessions, input.session_count() as u64);
    // All sessions were Established at once before the first UPDATE.
    assert_eq!(report.peak_established, input.session_count() as u64);
    let (counts, overview) = out.sink;
    (counts.finish(), overview.finish(), stats)
}

/// Offline half of the comparison: `ArchiveSource` over the reference
/// archive with the same sinks.
fn run_offline(reference: &UpdateArchive) -> (TypeCounts, OverviewStats) {
    let out = PipelineBuilder::new(ArchiveSource::new(reference))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .expect("archive sources do not fail");
    let (counts, overview) = out.sink;
    (counts.finish(), overview.finish())
}

/// A lab-simulation capture: Exp2 with two link flaps (the sim→analysis
/// suite's richest single-collector stream).
fn sim_archive() -> UpdateArchive {
    let LabNetwork { mut net, ids } = build_lab(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
    net.schedule_announce(SimTime::ZERO, ids.z1, lab_prefix());
    net.run_until_quiet();
    let t1 = net.now() + SimDuration::from_secs(60);
    net.schedule_link_down(t1, ids.y1_y2);
    net.run_until_quiet();
    let t2 = net.now() + SimDuration::from_secs(60);
    net.schedule_link_up(t2, ids.y1_y2);
    net.run_until_quiet();
    let capture = net.capture(ids.c1).expect("collector capture").clone();
    capture_to_archive(&net, "rrc00", &capture, 0)
}

#[test]
fn simulated_topology_over_tcp_matches_offline_analysis() {
    let input = sim_archive();
    assert!(input.update_count() > 0, "simulation produced traffic");
    let cfg = collector_cfg(&input);
    let reference = offline_reference(&input, &cfg);

    let (live_counts, live_overview, stats) = run_live_loopback(&input, cfg);
    let (offline_counts, offline_overview) = run_offline(&reference);

    assert_eq!(stats.updates, input.update_count() as u64, "daemon ingested everything");
    assert_eq!(live_counts, offline_counts, "type classification diverged");
    assert_eq!(live_overview, offline_overview, "overview diverged");
    // Byte-for-byte on the rendered paper tables.
    assert_eq!(
        live_overview.render("Table 1"),
        offline_overview.render("Table 1"),
        "rendered Table 1 diverged"
    );
    assert_eq!(
        TypeShares::new(vec![("live".into(), live_counts)]).render(),
        TypeShares::new(vec![("live".into(), offline_counts)]).render(),
        "rendered Table 2 diverged"
    );
}

#[test]
fn generated_internet_over_tcp_matches_offline_with_cleaning() {
    // A small generated collector day — many sessions, route servers,
    // community churn — through the full path with the §4 cleaning stage
    // on both sides.
    let mut gen_cfg = Mar20Config { target_announcements: 2_500, ..Default::default() };
    gen_cfg.universe.n_prefixes_v4 = 200;
    gen_cfg.universe.n_sessions = 24;
    let day = generate_mar20(&gen_cfg);
    let input = day.archive;
    let cfg = collector_cfg(&input);
    let reference = offline_reference(&input, &cfg);

    // Live: daemon → LiveSource → cleaning stage → sinks.
    let plan = FloodPlan::from_archive(&input, 90);
    let (live, _, _) = replay_while_draining(cfg, vec![plan], |source, stop| {
        PipelineBuilder::new(source)
            .stages(CleaningStage::new(&day.registry, CleaningConfig::default()))
            .sink((CountsSink::default(), OverviewSink::default()))
            .shutdown(stop)
            .run()
            .expect("live run")
    });

    // Offline: ArchiveSource over the reference with the same stage.
    let offline = PipelineBuilder::new(ArchiveSource::new(&reference))
        .stages(CleaningStage::new(&day.registry, CleaningConfig::default()))
        .sink((CountsSink::default(), OverviewSink::default()))
        .run()
        .expect("offline run");

    let (live_counts, live_overview) = live.sink;
    let (off_counts, off_overview) = offline.sink;
    assert_eq!(live_counts.finish(), off_counts.finish(), "cleaned classification diverged");
    assert_eq!(live_overview.finish(), off_overview.finish(), "cleaned overview diverged");
    assert_eq!(live.stats.updates, offline.stats.updates);
    assert_eq!(live.stats.kept, offline.stats.kept, "cleaning dropped differently");
}

#[test]
fn rotated_mrt_dumps_reanalyze_to_the_same_tables() {
    let input = sim_archive();
    let dir = std::env::temp_dir().join(format!("kcc_live_mrt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(input.update_count() >= 3, "need enough traffic to force a rotation");
    let cfg = collector_cfg(&input).with_mrt(RotateConfig::new(&dir, 2));
    let route_servers = cfg.daemon.route_servers.clone();
    let reference = offline_reference(&input, &cfg);

    let (live_counts, live_overview, stats) = run_live_loopback(&input, cfg);
    assert_eq!(stats.mrt_records, input.update_count() as u64, "every update dumped");
    assert!(stats.mrt_files.len() > 1, "rotation produced multiple files");

    // Concatenate the rotated dumps and analyze them like a RouteViews
    // download.
    let bytes =
        keep_communities_clean::peer::rotate::concat_dumps(&stats.mrt_files).expect("read dumps");
    let out = PipelineBuilder::new(
        MrtSource::new(&bytes[..], "rrc00", 0).with_route_servers(route_servers),
    )
    .sink((CountsSink::default(), OverviewSink::default()))
    .run()
    .expect("mrt reanalysis");
    let (mrt_counts, mrt_overview) = out.sink;
    assert_eq!(mrt_counts.finish(), live_counts, "MRT round-trip diverged from live");
    assert_eq!(mrt_overview.finish(), live_overview, "MRT overview diverged from live");

    // And the dumps decode to exactly the reference archive.
    let from_mrt = UpdateArchive::read_mrt(&bytes[..], "rrc00", 0).expect("decode dumps");
    assert_eq!(from_mrt.session_count(), reference.session_count());
    for (key, rec) in reference.sessions() {
        let got = from_mrt.session(key).expect("session in dumps");
        assert_eq!(got.updates, rec.updates, "session {key} diverged in MRT");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reconnect_after_cease_continues_the_same_session() {
    // Two sequential replays of the same single-session archive: the
    // second TCP session reuses the same session key (identity = BGP
    // id), the session is announced to the pipeline only once, and
    // logical stamping continues where it left off.
    let input = sim_archive();
    let single: UpdateArchive = {
        let mut a = UpdateArchive::new(0);
        let (key, rec) = input.sessions().next().expect("one session");
        a.add_session(rec.meta.clone());
        for u in &rec.updates {
            a.record(key, u.clone());
        }
        a
    };
    let plan = FloodPlan::from_archive(&single, 90);
    let lives = vec![plan.clone(), plan];
    let (out, _, stats) = replay_while_draining(collector_cfg(&single), lives, |source, stop| {
        PipelineBuilder::new(source)
            .sink((OverviewSink::default(), Stamps::default()))
            .shutdown(stop)
            .run()
            .expect("live run")
    });

    assert_eq!(stats.established, 2, "two TCP sessions");
    assert_eq!(stats.sessions, 1, "one logical session");
    assert_eq!(stats.updates, 2 * single.update_count() as u64);
    assert_eq!(out.stats.sessions, 1, "pipeline saw one session, announced once");
    assert_eq!(out.stats.updates, 2 * single.update_count() as u64);
    // The default two workers put the second TCP session on the other
    // shard; flushing before close keeps its stamps after the first's.
    let expected: Vec<u64> = (0..2 * single.update_count() as u64).map(|n| n * 1_000).collect();
    assert_eq!(out.sink.1 .0, expected, "stamps run on across the reconnect, in order");
}

/// Records every delivered update's stamp, in arrival order.
#[derive(Default)]
struct Stamps(Vec<u64>);

impl AnalysisSink for Stamps {
    fn on_update(&mut self, _session: &SessionKey, update: &RouteUpdate) {
        self.0.push(update.time_us);
    }

    fn wants_events(&self) -> bool {
        false
    }
}
