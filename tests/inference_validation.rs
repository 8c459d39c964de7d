//! Validation of the §7 future-work implementations against ground truth:
//! behavior tomography and interconnection inference must recover what the
//! generator/simulator actually configured.

use keep_communities_clean::analysis::interconnect::infer_interconnections;
use keep_communities_clean::analysis::tomography::{infer_behaviors, InferredClass};
use keep_communities_clean::analysis::{clean_archive, CleaningConfig};
use keep_communities_clean::tracegen::universe::UniverseConfig;
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::Asn;

fn generated_day(seed: u64) -> keep_communities_clean::tracegen::GenOutput {
    let cfg = Mar20Config {
        seed,
        target_announcements: 40_000,
        universe: UniverseConfig {
            seed,
            n_collectors: 4,
            n_peers: 16,
            n_sessions: 32,
            n_transits: 20,
            n_prefixes_v4: 400,
            n_prefixes_v6: 40,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut out = generate_mar20(&cfg);
    clean_archive(&mut out.archive, &out.registry, &CleaningConfig::default());
    out
}

#[test]
fn tomography_recovers_taggers() {
    let out = generated_day(11);
    let inferred = infer_behaviors(&out.archive);

    let true_taggers: Vec<Asn> =
        out.universe.transits.iter().filter(|t| t.tags_geo).map(|t| t.asn).collect();
    assert!(!true_taggers.is_empty());

    // Precision: every inferred tagger truly tags.
    let mut found = 0;
    for (asn, b) in &inferred {
        if b.class == InferredClass::Tagger {
            assert!(
                true_taggers.contains(asn),
                "false positive tagger {asn} ({:?})",
                b.evidence.own_values.len()
            );
            found += 1;
        }
    }
    // Recall: most true taggers are found (ones never on a sampled path
    // can't be).
    assert!(
        found * 3 >= true_taggers.len(),
        "found only {found} of {} taggers",
        true_taggers.len()
    );
}

#[test]
fn tomography_recovers_cleaning_peers() {
    let out = generated_day(12);
    let inferred = infer_behaviors(&out.archive);

    let cleaning_peers: Vec<Asn> = out
        .universe
        .peers
        .iter()
        .filter(|p| p.cleans_egress && !p.route_server)
        .map(|p| p.asn)
        .collect();
    let honest_peers: Vec<Asn> = out
        .universe
        .peers
        .iter()
        .filter(|p| !p.cleans_egress && !p.route_server)
        .map(|p| p.asn)
        .collect();
    assert!(!cleaning_peers.is_empty() && !honest_peers.is_empty());

    // Cleaning peers accumulate much higher filter scores than honest
    // ones. (Honest peers still pick up fractional blame from class-B/C
    // streams whose templates had no taggers.)
    let avg = |asns: &[Asn]| {
        let scores: Vec<f64> = asns
            .iter()
            .filter_map(|a| inferred.get(a))
            .filter(|b| b.evidence.samples >= 5.0)
            .map(|b| b.filter_score)
            .collect();
        if scores.is_empty() {
            return f64::NAN;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    let clean_avg = avg(&cleaning_peers);
    let honest_avg = avg(&honest_peers);
    assert!(
        clean_avg > honest_avg + 0.3,
        "filter scores must separate: cleaners {clean_avg:.2} vs honest {honest_avg:.2}"
    );

    // And every classified Filter is a true cleaner.
    for (asn, b) in &inferred {
        if b.class == InferredClass::Filter && cleaning_peers.contains(asn) {
            continue;
        }
        if b.class == InferredClass::Filter {
            assert!(
                !honest_peers.contains(asn),
                "honest peer {asn} misclassified as Filter (score {:.2})",
                b.filter_score
            );
        }
    }
}

#[test]
fn tomography_finds_propagators_among_honest_peers() {
    let out = generated_day(13);
    let inferred = infer_behaviors(&out.archive);
    let honest: Vec<Asn> = out
        .universe
        .peers
        .iter()
        .filter(|p| !p.cleans_egress && !p.route_server)
        .map(|p| p.asn)
        .collect();
    let propagators = honest
        .iter()
        .filter(|a| inferred.get(a).map(|b| b.class == InferredClass::Propagator).unwrap_or(false))
        .count();
    assert!(
        propagators * 2 >= honest.len(),
        "most honest peers should be classified propagators: {propagators}/{}",
        honest.len()
    );
}

#[test]
fn interconnections_bounded_by_city_pools() {
    let out = generated_day(14);
    let inferred = infer_interconnections(&out.archive);
    assert!(!inferred.is_empty(), "geo tags must reveal adjacencies");
    for ((_, tagger), est) in &inferred {
        let spec = out.universe.transits.iter().find(|t| t.asn == *tagger);
        let Some(spec) = spec else { continue };
        assert!(spec.tags_geo, "only taggers can reveal interconnections");
        // Revealed cities are a subset of the tagger's actual city pool.
        for city in &est.cities {
            assert!(spec.cities.contains(city), "revealed city {city} not in AS{tagger}'s pool");
        }
        assert!(est.min_interconnections() >= 1);
    }
}

#[test]
fn multi_city_adjacencies_detected() {
    let out = generated_day(15);
    let inferred = infer_interconnections(&out.archive);
    let multi = inferred.values().filter(|e| e.cities.len() > 1).count();
    assert!(multi > 0, "community exploration must reveal multi-city interconnections");
}
