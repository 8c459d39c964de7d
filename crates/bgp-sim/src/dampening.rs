//! Route-flap dampening (RFC 2439, simplified).
//!
//! The paper's §2 lists dampening among the mechanisms that trade update
//! suppression against convergence ("may offer suboptimal performance in
//! reacting to routing events... selectively deployed"). This module
//! implements the standard penalty model so ablations can measure how
//! dampening interacts with community-driven update traffic:
//!
//! * every received *flap* (withdrawal, or an announcement that changes
//!   the post-policy route) adds [`DampeningConfig::penalty_per_flap`],
//! * the penalty decays exponentially with
//!   [`DampeningConfig::half_life`],
//! * a route whose penalty exceeds the suppress threshold is excluded
//!   from the decision process until the penalty decays below the reuse
//!   threshold.

use crate::time::{SimDuration, SimTime};

/// Dampening parameters (RFC 2439 defaults in Cisco's formulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampeningConfig {
    /// Penalty added per flap.
    pub penalty_per_flap: f64,
    /// Penalty above which the route is suppressed.
    pub suppress_threshold: f64,
    /// Penalty below which a suppressed route is usable again.
    pub reuse_threshold: f64,
    /// Exponential-decay half-life.
    pub half_life: SimDuration,
}

impl Default for DampeningConfig {
    fn default() -> Self {
        DampeningConfig {
            penalty_per_flap: 1_000.0,
            suppress_threshold: 2_000.0,
            reuse_threshold: 750.0,
            half_life: SimDuration::from_secs(15 * 60),
        }
    }
}

/// Penalty state of one `(session, prefix)` route at one router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampeningState {
    penalty: f64,
    last_update: SimTime,
    suppressed: bool,
}

impl DampeningState {
    /// Fresh, unpenalized state.
    pub fn new(now: SimTime) -> Self {
        DampeningState { penalty: 0.0, last_update: now, suppressed: false }
    }

    /// The decayed penalty at `now`.
    pub(crate) fn penalty_at(&self, now: SimTime, cfg: &DampeningConfig) -> f64 {
        let dt = (now - self.last_update).as_micros() as f64;
        let hl = cfg.half_life.as_micros() as f64;
        if hl <= 0.0 {
            return self.penalty;
        }
        self.penalty * 0.5f64.powf(dt / hl)
    }

    /// Records one flap; returns true if the route is (now) suppressed.
    pub fn record_flap(&mut self, now: SimTime, cfg: &DampeningConfig) -> bool {
        self.penalty = self.penalty_at(now, cfg) + cfg.penalty_per_flap;
        self.last_update = now;
        if self.penalty >= cfg.suppress_threshold {
            self.suppressed = true;
        }
        self.suppressed
    }

    /// True if still suppressed at `now` (clears once decayed past reuse).
    pub fn is_suppressed(&mut self, now: SimTime, cfg: &DampeningConfig) -> bool {
        if self.suppressed && self.penalty_at(now, cfg) < cfg.reuse_threshold {
            self.suppressed = false;
        }
        self.suppressed
    }

    /// Time at which the penalty will have decayed to the reuse threshold
    /// (for scheduling the reuse check).
    pub fn reuse_time(&self, cfg: &DampeningConfig) -> SimTime {
        if self.penalty <= cfg.reuse_threshold {
            return self.last_update;
        }
        let hl = cfg.half_life.as_micros() as f64;
        let halvings = (self.penalty / cfg.reuse_threshold).log2();
        self.last_update + SimDuration::from_micros((halvings * hl).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DampeningConfig {
        DampeningConfig::default()
    }

    #[test]
    fn one_flap_does_not_suppress() {
        let mut s = DampeningState::new(SimTime::ZERO);
        assert!(!s.record_flap(SimTime::ZERO, &cfg()));
        assert!(!s.is_suppressed(SimTime::ZERO, &cfg()));
    }

    #[test]
    fn rapid_flaps_suppress() {
        // With 1000/flap and threshold 2000, the third rapid flap
        // suppresses (the second decays to just under 2000).
        let mut s = DampeningState::new(SimTime::ZERO);
        assert!(!s.record_flap(SimTime::from_secs(0), &cfg()));
        s.record_flap(SimTime::from_secs(1), &cfg());
        let suppressed = s.record_flap(SimTime::from_secs(2), &cfg());
        assert!(suppressed, "three immediate flaps exceed the 2000 threshold");
        assert!(s.is_suppressed(SimTime::from_secs(3), &cfg()));
    }

    #[test]
    fn penalty_decays_exponentially() {
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::ZERO, &cfg());
        let p0 = s.penalty_at(SimTime::ZERO, &cfg());
        let p1 = s.penalty_at(SimTime::from_secs(15 * 60), &cfg());
        assert!((p0 - 1000.0).abs() < 1e-9);
        assert!((p1 - 500.0).abs() < 1.0, "one half-life halves the penalty: {p1}");
    }

    #[test]
    fn suppression_clears_after_decay() {
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::ZERO, &cfg());
        s.record_flap(SimTime::from_secs(1), &cfg());
        s.record_flap(SimTime::from_secs(2), &cfg());
        assert!(s.is_suppressed(SimTime::from_secs(60), &cfg()));
        // ~3000 → 750 takes log2(3000/750) = 2 half-lives = 30 min.
        assert!(!s.is_suppressed(SimTime::from_secs(45 * 60), &cfg()));
    }

    #[test]
    fn reuse_time_matches_decay() {
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::ZERO, &cfg());
        s.record_flap(SimTime::from_secs(1), &cfg());
        s.record_flap(SimTime::from_secs(2), &cfg());
        let reuse = s.reuse_time(&cfg());
        // Penalty just below reuse threshold at the predicted time.
        let p = s.penalty_at(reuse, &cfg());
        assert!(p <= 750.5, "penalty at reuse time: {p}");
        // And still above shortly before.
        let before = SimTime(reuse.0.saturating_sub(60_000_000));
        assert!(s.penalty_at(before, &cfg()) > 750.0);
    }

    #[test]
    fn penalty_exactly_at_suppress_threshold_suppresses() {
        // The comparison is `>=`: landing exactly on the threshold
        // suppresses (RFC 2439's cutoff is inclusive).
        let exact = DampeningConfig { penalty_per_flap: 2_000.0, ..DampeningConfig::default() };
        let mut s = DampeningState::new(SimTime::ZERO);
        assert!(s.record_flap(SimTime::ZERO, &exact), "penalty == threshold must suppress");
        // One unit below must not.
        let below = DampeningConfig { penalty_per_flap: 1_999.0, ..DampeningConfig::default() };
        let mut s = DampeningState::new(SimTime::ZERO);
        assert!(!s.record_flap(SimTime::ZERO, &below));
    }

    #[test]
    fn penalty_exactly_at_reuse_threshold_stays_suppressed() {
        // Reuse requires decaying strictly *below* the threshold. With
        // penalty 1500, reuse 750 and one exact half-life elapsed, the
        // decayed penalty is exactly 750 — still suppressed; a moment
        // later it is not.
        let cfg = DampeningConfig {
            penalty_per_flap: 1_500.0,
            suppress_threshold: 1_500.0,
            reuse_threshold: 750.0,
            half_life: SimDuration::from_secs(60),
        };
        let mut s = DampeningState::new(SimTime::ZERO);
        assert!(s.record_flap(SimTime::ZERO, &cfg));
        let one_half_life = SimTime::from_secs(60);
        assert!(
            (s.penalty_at(one_half_life, &cfg) - 750.0).abs() < 1e-9,
            "exactly one half-life must halve the penalty exactly"
        );
        assert!(s.is_suppressed(one_half_life, &cfg), "== reuse threshold is still suppressed");
        assert!(!s.is_suppressed(SimTime::from_secs(61), &cfg), "below the threshold is reusable");
    }

    #[test]
    fn zero_half_life_disables_decay() {
        // A degenerate half-life of zero must not divide by zero; the
        // penalty is simply frozen.
        let cfg = DampeningConfig { half_life: SimDuration::ZERO, ..DampeningConfig::default() };
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::ZERO, &cfg);
        assert!((s.penalty_at(SimTime::from_secs(86_400), &cfg) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn penalty_decays_toward_zero_without_crossing() {
        // Exponential decay approaches zero asymptotically; even after
        // an absurd interval the penalty stays non-negative and the
        // suppression state machine keeps working.
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::ZERO, &cfg());
        let far = SimTime::from_secs(365 * 86_400);
        let p = s.penalty_at(far, &cfg());
        assert!(p >= 0.0, "penalty must never cross zero: {p}");
        assert!(p < 1e-6, "a year of decay leaves nothing: {p}");
        // A new flap from the fully-decayed state behaves like the first.
        assert!(!s.record_flap(far, &cfg()));
    }

    #[test]
    fn reuse_time_is_last_update_when_already_reusable() {
        let mut s = DampeningState::new(SimTime::ZERO);
        s.record_flap(SimTime::from_secs(5), &cfg());
        // One flap: penalty 1000 > reuse 750, so reuse is in the future…
        assert!(s.reuse_time(&cfg()) > SimTime::from_secs(5));
        // …but with a reuse threshold above the penalty it is immediate.
        let lax = DampeningConfig { reuse_threshold: 1_500.0, ..cfg() };
        assert_eq!(s.reuse_time(&lax), SimTime::from_secs(5));
    }

    #[test]
    fn spaced_flaps_never_suppress() {
        let mut s = DampeningState::new(SimTime::ZERO);
        for i in 0..10u64 {
            // One flap per hour: fully decayed in between (4 half-lives).
            let t = SimTime::from_secs(i * 3600);
            assert!(!s.record_flap(t, &cfg()), "hourly flaps must not suppress");
        }
    }
}
