//! Holds the README's "Event-driven daemon" example to what its prose
//! claims. The README block itself runs as a doctest of the umbrella
//! crate; this test replays the same setup and checks what the block
//! leaves to the prose: `discard` restores the running config, and the
//! live counts equal the offline reference.

use keep_communities_clean::analysis::pipeline::PipelineBuilder;
use keep_communities_clean::analysis::{classify_archive, CountsSink};
use keep_communities_clean::peer::{
    offline_reference, Collector, CollectorConfig, FloodOptions, FloodPlan, FloodRig, StampMode,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::Asn;

#[test]
fn readme_daemon_example_runs_and_matches_offline() {
    // Two shard threads, however many sessions dial in.
    let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_workers(2);
    let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let source = collector.take_source();
    let stop = source.shutdown_flag();

    // Hot reload: edits stage in a candidate config; nothing changes
    // until commit. (The control socket drives this same store from
    // outside.)
    let store = collector.config_store();
    store.edit(|c| c.stamp = StampMode::Arrival);
    assert!(store.dirty()); // candidate differs from running
    store.discard(); // never mind — running config untouched
    assert_eq!(store.running().stamp, StampMode::logical(1_000));

    // The flood rig: a generated day's sessions as concurrent
    // nonblocking speakers, all Established before the first UPDATE
    // flows.
    let mut gen = Mar20Config { target_announcements: 2_000, ..Default::default() };
    gen.universe.n_sessions = 64;
    let day = generate_mar20(&gen);
    let plan = FloodPlan::from_archive(&day.archive, 90);
    let sessions = plan.session_count();
    let rig = FloodRig::connect(collector.local_addr(), plan, FloodOptions::default()).unwrap();
    assert_eq!(rig.established_count(), sessions);
    // A dialer counts Established half a round-trip before the daemon
    // does; wait on the daemon's own gauge before streaming.
    let gauges = collector.gauges();
    assert!(gauges.wait_for_established(sessions as u64, std::time::Duration::from_secs(30)));

    // Stream everything, Cease, drain — on a second thread, because this
    // one must read the bounded feed while the peers write it.
    let replay = std::thread::spawn(move || {
        let report = rig.stream().unwrap();
        collector.shutdown();
        (report, collector.join())
    });
    let out =
        PipelineBuilder::new(source).sink(CountsSink::default()).shutdown(&stop).run().unwrap();
    let (report, stats) = replay.join().unwrap();
    assert_eq!(stats.peak_established, sessions as u64); // truly concurrent
    assert_eq!(stats.updates, report.updates_sent); // nothing dropped

    // What the README asserts in prose: the captured feed classifies
    // identically to the offline analysis of the same update set.
    assert_eq!(stats.updates, day.archive.update_count() as u64);
    let reference = offline_reference(&day.archive, &cfg);
    assert_eq!(
        out.sink.finish(),
        classify_archive(&reference).counts,
        "README's daemon counts != offline"
    );
}
