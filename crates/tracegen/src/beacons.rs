//! Beacon stream generation.
//!
//! Beacon prefixes follow the RIS timetable exactly; what varies per
//! session is how convergence *looks*: each announcement phase re-installs
//! the primary route (`pc` against the last explored state), and each
//! withdrawal phase triggers path exploration — a few steps across backup
//! routes (`pc`) with community exploration in between (`nc`, or `nn`
//! through cleaning peers) — before the final withdrawal arrives. The
//! burst shape (step counts, jitter, spacing) is a set of constants.

use std::ops::RangeInclusive;

use kcc_bgp_types::{Prefix, RouteUpdate};
use kcc_collector::beacon::{self, BeaconEvent};
use rand::prelude::*;
use rand::rngs::StdRng;

#[cfg(test)]
use crate::streams::StreamClass;
use crate::streams::StreamTemplate;

/// Path-exploration steps per withdrawal phase.
const PATH_STEPS: RangeInclusive<usize> = 1..=3;
/// Community-exploration steps per withdrawal phase.
const COMM_STEPS: RangeInclusive<usize> = 0..=1;
/// Maximum jitter of the first burst message after the phase start
/// (≤ 45 s).
const START_JITTER_US: u64 = 45_000_000;
/// Spacing range between burst messages: 5–60 s (MRAI-ish).
const STEP_SPACING_US: RangeInclusive<u64> = 5_000_000..=60_000_000;

/// Generates one `(session, beacon prefix)` day on the RIS timetable.
pub fn generate_beacon_stream(
    rng: &mut StdRng,
    template: &StreamTemplate,
    prefix: Prefix,
    day_offset_us: u64,
    out: &mut Vec<RouteUpdate>,
) {
    let mut state = template.initial_state(rng);
    for (phase_start, event) in beacon::day_events() {
        let t0 = day_offset_us + phase_start + rng.gen_range(1_000_000..START_JITTER_US);
        match event {
            BeaconEvent::Announce => {
                // Converge back to the primary route.
                state.path_idx = 0;
                state.cities = template.paths[0]
                    .taggers
                    .iter()
                    .map(|(_, pool)| pool[rng.gen_range(0..pool.len())])
                    .collect();
                out.push(RouteUpdate::announce(t0, prefix, template.attrs(&state)));
            }
            BeaconEvent::Withdraw => {
                let mut t = t0;
                let spacing = |rng: &mut StdRng| rng.gen_range(STEP_SPACING_US);
                let path_steps = rng.gen_range(PATH_STEPS);
                let comm_steps = rng.gen_range(COMM_STEPS);
                for _ in 0..path_steps {
                    template.advance_path(rng, &mut state);
                    out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
                    t += spacing(rng);
                }
                for _ in 0..comm_steps {
                    template.churn_community(rng, &mut state);
                    out.push(RouteUpdate::announce(t, prefix, template.attrs(&state)));
                    t += spacing(rng);
                }
                out.push(RouteUpdate::withdraw(t, prefix));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{build_universe, UniverseConfig};
    use kcc_collector::beacon::DAY_US;
    use kcc_collector::BeaconPhase;

    fn template(class: StreamClass) -> (StdRng, StreamTemplate, Prefix) {
        let (u, _) = build_universe(&UniverseConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let spec = crate::universe::PrefixSpec {
            prefix: "84.205.64.0/24".parse().unwrap(),
            origin: kcc_bgp_types::Asn(12_654),
        };
        let t = StreamTemplate::build(
            &mut rng,
            &u.peers[0],
            &spec,
            &u.transits,
            class,
            "192.0.2.1".parse().unwrap(),
        );
        (rng, t, spec.prefix)
    }

    #[test]
    fn six_withdrawals_per_day() {
        let (mut rng, t, prefix) = template(StreamClass::TaggedVisible);
        let mut out = Vec::new();
        generate_beacon_stream(&mut rng, &t, prefix, 0, &mut out);
        let withdrawals = out.iter().filter(|u| u.is_withdrawal()).count();
        assert_eq!(withdrawals, 6);
        // At least one announcement per phase: ≥ 6 + 6.
        let announcements = out.iter().filter(|u| u.is_announcement()).count();
        assert!(announcements >= 12);
    }

    #[test]
    fn messages_fall_in_their_phases() {
        let (mut rng, t, prefix) = template(StreamClass::TaggedVisible);
        let mut out = Vec::new();
        generate_beacon_stream(&mut rng, &t, prefix, 0, &mut out);
        // Everything generated lies inside a phase window (bursts fit in
        // 15 minutes by construction with default spacings).
        for u in &out {
            let phase = beacon::phase_of(u.time_us);
            assert_ne!(phase, BeaconPhase::Outside, "update at {} outside phases", u.time_us);
        }
    }

    #[test]
    fn day_offset_shifts_times() {
        let (mut rng, t, prefix) = template(StreamClass::TaggedVisible);
        let mut out = Vec::new();
        generate_beacon_stream(&mut rng, &t, prefix, DAY_US, &mut out);
        assert!(out.iter().all(|u| u.time_us >= DAY_US && u.time_us < 2 * DAY_US));
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed: u64| {
            let (u, _) = build_universe(&UniverseConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = crate::universe::PrefixSpec {
                prefix: "84.205.64.0/24".parse().unwrap(),
                origin: kcc_bgp_types::Asn(12_654),
            };
            let t = StreamTemplate::build(
                &mut rng,
                &u.peers[0],
                &spec,
                &u.transits,
                StreamClass::TaggedVisible,
                "192.0.2.1".parse().unwrap(),
            );
            let mut out = Vec::new();
            generate_beacon_stream(&mut rng, &t, spec.prefix, 0, &mut out);
            out
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
    }
}
