//! Delivery loss: drop chance and extra delay on simulated message
//! delivery. (The labeled fault *scenarios* — hijack, leak, blackhole,
//! outage — are [`crate::faults`].)
//!
//! Mirrors the smoltcp examples' `--drop-chance` / shaping options: tests
//! and experiments can subject BGP sessions to message loss and extra
//! latency, deterministically (seeded RNG).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Fault injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is silently dropped in flight.
    pub drop_chance: f64,
    /// Maximum extra delay added to a delivery (uniform in
    /// `0..=max_extra_delay`).
    pub max_extra_delay: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FaultConfig {
    /// No faults.
    fn default() -> Self {
        FaultConfig { drop_chance: 0.0, max_extra_delay: SimDuration::ZERO, seed: 0 }
    }
}

impl FaultConfig {
    /// A config that drops messages with `drop_chance` under `seed`, with
    /// no extra delay — the scenario specs' shorthand for lossy networks.
    pub fn lossy(drop_chance: f64, seed: u64) -> Self {
        FaultConfig { drop_chance, max_extra_delay: SimDuration::ZERO, seed }
    }
}

/// Stateful fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: StdRng,
    /// Messages dropped so far.
    pub dropped: u64,
}

impl FaultInjector {
    /// Builds an injector from a config.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector { config, rng: StdRng::seed_from_u64(config.seed), dropped: 0 }
    }

    /// True if the next message should be dropped.
    pub fn should_drop(&mut self) -> bool {
        if self.config.drop_chance <= 0.0 {
            return false;
        }
        let drop = self.rng.gen_bool(self.config.drop_chance.min(1.0));
        if drop {
            self.dropped += 1;
        }
        drop
    }

    /// Extra delivery delay for the next message.
    pub fn extra_delay(&mut self) -> SimDuration {
        let max = self.config.max_extra_delay.as_micros();
        if max == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.rng.gen_range(0..=max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let mut f = FaultInjector::new(FaultConfig::default());
        for _ in 0..100 {
            assert!(!f.should_drop());
            assert_eq!(f.extra_delay(), SimDuration::ZERO);
        }
        assert_eq!(f.dropped, 0);
    }

    #[test]
    fn lossy_shorthand_sets_only_drops() {
        let f = FaultConfig::lossy(0.25, 9);
        assert!((f.drop_chance - 0.25).abs() < 1e-12);
        assert_eq!(f.max_extra_delay, SimDuration::ZERO);
        assert_eq!(f.seed, 9);
    }

    #[test]
    fn drop_chance_one_drops_everything() {
        let mut f = FaultInjector::new(FaultConfig { drop_chance: 1.0, ..Default::default() });
        for _ in 0..10 {
            assert!(f.should_drop());
        }
        assert_eq!(f.dropped, 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FaultConfig {
            drop_chance: 0.5,
            max_extra_delay: SimDuration::from_millis(10),
            seed: 99,
        };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for _ in 0..50 {
            assert_eq!(a.should_drop(), b.should_drop());
            assert_eq!(a.extra_delay(), b.extra_delay());
        }
    }

    #[test]
    fn extra_delay_bounded() {
        let mut f = FaultInjector::new(FaultConfig {
            max_extra_delay: SimDuration::from_micros(500),
            seed: 1,
            ..Default::default()
        });
        for _ in 0..100 {
            assert!(f.extra_delay() <= SimDuration::from_micros(500));
        }
    }
}
