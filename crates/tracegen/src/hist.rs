//! Longitudinal generation, 2010–2020 (paper Figs. 2 and 6).
//!
//! The paper samples one full day every three months across ten years and
//! observes: session counts roughly double, community usage grows
//! strongly (×2.5 unique communities per Streibelt et al.), yet the
//! *shares* of announcement types stay roughly stable. The history
//! generator evolves the universe parameters along those axes and emits
//! one `Mar20Config` per sampled day.

use crate::mar20::Mar20Config;
use crate::universe::UniverseConfig;

/// History generation configuration.
#[derive(Debug, Clone)]
pub struct HistConfig {
    /// Base seed; each day derives its own.
    pub seed: u64,
    /// Days per year (4 = quarterly, matching the paper).
    pub samples_per_year: u8,
    /// Per-day announcement volume at the 2020 end of the series.
    pub target_announcements_2020: u64,
}

impl Default for HistConfig {
    fn default() -> Self {
        HistConfig { seed: 42, samples_per_year: 4, target_announcements_2020: 40_000 }
    }
}

/// First sampled year.
const START_YEAR: u16 = 2010;
/// Last sampled year (inclusive).
const END_YEAR: u16 = 2020;
/// Session count at the 2020 end (halves toward 2010).
const SESSIONS_2020: usize = 60;

/// Builds the per-day configurations with evolving parameters.
pub fn day_configs(cfg: &HistConfig) -> Vec<(String, Mar20Config)> {
    let mut out = Vec::new();
    let years = END_YEAR - START_YEAR;
    let total_days = years as usize * cfg.samples_per_year as usize + 1;
    for i in 0..total_days {
        let year = START_YEAR as usize + i / cfg.samples_per_year as usize;
        let quarter = i % cfg.samples_per_year as usize;
        let month = 3 * quarter + 3; // 03, 06, 09, 12
        let label = format!("{year}-{month:02}-15");
        // 0.0 at 2010 → 1.0 at 2020.
        let f = i as f64 / (total_days - 1).max(1) as f64;

        // Sessions roughly double over the decade; volume grows ~2.5×.
        let sessions = ((SESSIONS_2020 as f64) * (0.5 + 0.5 * f)).round() as usize;
        let peers = (sessions as f64 * 0.4).round() as usize;
        let target = ((cfg.target_announcements_2020 as f64) * (0.4 + 0.6 * f)) as u64;
        // Community adoption: coverage grows moderately (visible share
        // ≈ 0.59 → 0.72, tracking Giotsas et al.'s ~50% coverage by 2016)
        // while tag *diversity* — unique values, Streibelt et al.'s ×2.5 —
        // grows via the city pools below. This keeps type shares roughly
        // stable, as the paper observes.
        let tagged_visible = 0.72 + 0.16 * f;
        let cities_hi = (6.0 + 18.0 * f) as u16;

        // Beacon visibility grows with the collector systems: more peers
        // carry the beacons in 2020 than in 2010 (d_beacon spans 577 of
        // 1504 sessions in the paper's 2020 snapshot).
        let beacon_session_fraction = 0.2 + 0.2 * f;

        let day = Mar20Config {
            seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            universe: UniverseConfig {
                seed: cfg.seed ^ (i as u64),
                n_sessions: sessions.max(4),
                n_peers: peers.max(2),
                n_collectors: 6,
                n_prefixes_v4: 1_500,
                n_prefixes_v6: if year >= 2012 { 150 } else { 20 },
                cities_per_transit: (4, cities_hi.max(5)),
                ..Default::default()
            },
            target_announcements: target,
            class_tagged_visible: tagged_visible,
            beacon_session_fraction,
            ..Default::default()
        };
        out.push((label, day));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarterly_labels_across_decade() {
        let days = day_configs(&HistConfig::default());
        assert_eq!(days.len(), 41); // 10 years × 4 + 1
        assert_eq!(days[0].0, "2010-03-15");
        assert_eq!(days[4].0, "2011-03-15");
        assert_eq!(days.last().unwrap().0, "2020-03-15");
    }

    #[test]
    fn sessions_roughly_double() {
        let days = day_configs(&HistConfig::default());
        let first = days[0].1.universe.n_sessions;
        let last = days.last().unwrap().1.universe.n_sessions;
        assert!((last as f64 / first as f64 - 2.0).abs() < 0.2, "{first} → {last}");
    }

    #[test]
    fn adoption_grows() {
        let days = day_configs(&HistConfig::default());
        assert!(days[0].1.class_tagged_visible < days.last().unwrap().1.class_tagged_visible);
        assert!(
            days[0].1.universe.cities_per_transit.1
                < days.last().unwrap().1.universe.cities_per_transit.1
        );
    }

    #[test]
    fn volume_grows() {
        let days = day_configs(&HistConfig::default());
        assert!(days[0].1.target_announcements < days.last().unwrap().1.target_announcements);
    }

    #[test]
    fn seeds_differ_per_day() {
        let days = day_configs(&HistConfig::default());
        assert_ne!(days[0].1.seed, days[1].1.seed);
    }
}
