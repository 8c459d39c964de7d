//! Behavior tomography and information leakage (the paper's §7 program).
//!
//! Generates a synthetic collector day, then — using nothing but the
//! observed update streams — infers which ASes tag, filter, or ignore
//! communities, counts interconnections revealed by geo tags, and flags
//! anomalous communities in a perturbed copy of the day. Each inference
//! is checked against the generator's ground truth.
//!
//! Run with `cargo run --release --example infer_behavior`.

use std::sync::Arc;

use keep_communities_clean::analysis::interconnect::infer_interconnections;
use keep_communities_clean::analysis::tomography::{
    classify_ases, infer_behaviors, TomographyConfig,
};
use keep_communities_clean::analysis::{
    clean_archive, ArchiveSource, CleaningConfig, CommunityProfiler, PipelineBuilder, WatchConfig,
    WatchSink,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::{Community, MessageKind};

fn main() {
    let cfg = Mar20Config { target_announcements: 60_000, ..Default::default() };
    let mut out = generate_mar20(&cfg);
    clean_archive(&mut out.archive, &out.registry, &CleaningConfig::default());
    println!(
        "observed {} updates over {} sessions\n",
        out.archive.update_count(),
        out.archive.session_count()
    );

    // 1. Who tags, who filters, who ignores? (§7: "classify per-AS
    //    community behavior")
    let inferred = infer_behaviors(&out.archive, &TomographyConfig::default());
    let (taggers, filters, propagators) = classify_ases(&inferred);
    println!("inferred from update streams alone:");
    println!("  taggers:     {} ASes", taggers.len());
    println!("  filters:     {} ASes", filters.len());
    println!("  propagators: {} ASes", propagators.len());

    let true_taggers: Vec<_> =
        out.universe.transits.iter().filter(|t| t.tags_geo).map(|t| t.asn).collect();
    let correct = taggers.iter().filter(|a| true_taggers.contains(a)).count();
    println!(
        "  tagger precision vs ground truth: {}/{} correct (of {} true taggers)\n",
        correct,
        taggers.len(),
        true_taggers.len()
    );

    // 2. Interconnection counting (§7: "infer the number of
    //    interconnections between two ASes and the location where they
    //    peer").
    let links = infer_interconnections(&out.archive);
    let multi: Vec<_> = links.iter().filter(|(_, e)| e.cities.len() > 1).collect();
    println!(
        "interconnections revealed by geo tags: {} adjacencies, {} with >1 city",
        links.len(),
        multi.len()
    );
    if let Some(((x, t), est)) = multi.iter().max_by_key(|(_, e)| e.cities.len()) {
        println!(
            "  richest: AS{x} enters AS{t} at ≥{} distinct cities {:?}\n",
            est.cities.len(),
            est.cities.iter().take(6).collect::<Vec<_>>()
        );
    }

    // 3. Anomaly detection (§7: "predicting anomalous communities").
    //    Train on the clean day, then perturb a copy: inject a blackhole
    //    signal and a fat-fingered community value.
    let mut profiler = CommunityProfiler::new();
    profiler.train(&out.archive);
    let mut perturbed = out.archive.clone();
    let (key, _) = perturbed.sessions().next().map(|(k, r)| (k.clone(), r.clone())).unwrap();
    {
        let rec = perturbed.sessions_mut().find(|(k, _)| **k == key).map(|(_, r)| r).unwrap();
        if let Some(u) =
            rec.updates.iter_mut().find(|u| matches!(u.kind, MessageKind::Announcement(_)))
        {
            if let MessageKind::Announcement(attrs) = &mut u.kind {
                let attrs = Arc::make_mut(attrs);
                attrs
                    .communities
                    .insert(keep_communities_clean::types::community::well_known::BLACKHOLE);
                attrs.communities.insert(Community::from_parts(2007, 9_999));
            }
        }
    }
    //    The whole day is CommunityWatch's one window.
    let whole_day = WatchConfig { window_us: u64::MAX, ..Default::default() };
    let alerts = PipelineBuilder::new(ArchiveSource::new(&perturbed))
        .sink(WatchSink::new(whole_day).with_profile(Arc::new(profiler)))
        .run()
        .expect("archive sources cannot fail")
        .sink
        .finish()
        .alerts;
    println!("alerts raised on the perturbed day: {}", alerts.len());
    for a in alerts.iter().take(5) {
        println!("  {a}");
    }
    assert!(!alerts.is_empty(), "injected anomalies must be detected");
}
