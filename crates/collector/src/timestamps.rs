//! Timestamp normalization for second-granularity collectors.
//!
//! Paper §4: "some BGP collectors only record messages at the single
//! second granularity. When multiple messages arrive in the same second
//! for these collectors, we preserve the message ordering and assume that
//! each subsequent message arrives 0.01 ms after the last."

use kcc_bgp_types::RouteUpdate;

/// 0.01 ms in microseconds.
pub(crate) const DISAMBIGUATION_STEP_US: u64 = 10;

/// Microseconds per second.
const SECOND_US: u64 = 1_000_000;

/// One step of the disambiguation rule: given the previously *emitted*
/// time of a session (`None` before its first update) and the raw arrival
/// time of the next update, returns the time to emit.
///
/// Raw times that advance pass through untouched. A run of repeated (or
/// regressed) raw times is spread forward by `DISAMBIGUATION_STEP_US` (10 µs),
/// but the spread is **clamped to the update's own second**: the emitted
/// time never reaches `⌈raw⌉ + 1 s`, so a long run (≥ 100,000 same-second
/// updates at 10 µs would otherwise cross the boundary) can never
/// overtake the next distinct timestamp of a second-granularity stream.
/// Near the boundary the step subdivides down to 1 µs and finally to 0
/// (ties), keeping the output monotonic.
///
/// Both the batch rule ([`normalize_timestamps`]) and the streaming
/// cleaning stage (`kcc_core::clean::CleaningStage`, one `u64` per
/// session) are folds over this single function, so they cannot diverge.
pub fn disambiguated(prev: Option<u64>, raw_us: u64) -> u64 {
    match prev {
        None => raw_us,
        Some(p) if raw_us > p => raw_us,
        Some(p) => {
            // Last representable microsecond of the raw time's second —
            // the next distinct raw value of a second-granularity stream
            // is at least one full second later, so staying at or below
            // this limit guarantees the run never crosses it.
            let limit = (raw_us / SECOND_US) * SECOND_US + (SECOND_US - 1);
            if p >= limit {
                p
            } else {
                (p + DISAMBIGUATION_STEP_US).min(limit)
            }
        }
    }
}

/// Applies the disambiguation rule in place. `updates` must already be in
/// arrival order; every run of equal timestamps is spread by
/// `DISAMBIGUATION_STEP_US` (10 µs) while preserving order, clamped so that a
/// run never leaves its own second (see [`disambiguated`]).
pub fn normalize_timestamps(updates: &mut [RouteUpdate]) {
    let mut prev: Option<u64> = None;
    for u in updates {
        u.time_us = disambiguated(prev, u.time_us);
        prev = Some(u.time_us);
    }
}

/// Truncates all timestamps to whole seconds — what a second-granularity
/// collector does to the data in the first place. Used by the trace
/// generator to emulate such collectors before the pipeline re-normalizes.
pub fn truncate_to_seconds(updates: &mut [RouteUpdate]) {
    for u in updates {
        u.time_us -= u.time_us % 1_000_000;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{PathAttributes, Prefix};

    fn upd(t: u64) -> RouteUpdate {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        RouteUpdate::announce(t, p, PathAttributes::default())
    }

    #[test]
    fn same_second_run_spread_by_10us() {
        let mut v = vec![upd(5_000_000), upd(5_000_000), upd(5_000_000), upd(6_000_000)];
        normalize_timestamps(&mut v);
        let times: Vec<u64> = v.iter().map(|u| u.time_us).collect();
        assert_eq!(times, vec![5_000_000, 5_000_010, 5_000_020, 6_000_000]);
    }

    #[test]
    fn distinct_times_untouched() {
        let mut v = vec![upd(1), upd(2), upd(3)];
        normalize_timestamps(&mut v);
        let times: Vec<u64> = v.iter().map(|u| u.time_us).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn ordering_preserved() {
        let mut v: Vec<RouteUpdate> = (0..100).map(|_| upd(7_000_000)).collect();
        normalize_timestamps(&mut v);
        for w in v.windows(2) {
            assert!(w[0].time_us < w[1].time_us);
        }
    }

    #[test]
    fn empty_and_single_are_fine() {
        let mut none: Vec<RouteUpdate> = Vec::new();
        normalize_timestamps(&mut none);
        let mut one = vec![upd(9)];
        normalize_timestamps(&mut one);
        assert_eq!(one[0].time_us, 9);
    }

    #[test]
    fn truncation_then_normalization_roundtrip() {
        let mut v = vec![upd(5_100_000), upd(5_200_000), upd(5_900_000)];
        truncate_to_seconds(&mut v);
        assert!(v.iter().all(|u| u.time_us == 5_000_000));
        normalize_timestamps(&mut v);
        assert_eq!(
            v.iter().map(|u| u.time_us).collect::<Vec<_>>(),
            vec![5_000_000, 5_000_010, 5_000_020]
        );
    }

    /// Regression: a ≥100,000-update same-second run at 10 µs spacing
    /// used to cross the 1 s boundary and overtake the next distinct
    /// second. The spread must stay inside the run's own second.
    #[test]
    fn long_run_never_crosses_next_second() {
        for run_len in [99_999usize, 100_000, 100_001, 250_000] {
            let mut v: Vec<RouteUpdate> = (0..run_len).map(|_| upd(5_000_000)).collect();
            v.push(upd(6_000_000));
            normalize_timestamps(&mut v);
            for w in v.windows(2) {
                assert!(w[0].time_us <= w[1].time_us, "order violated at run_len={run_len}");
            }
            let last_of_run = v[run_len - 1].time_us;
            assert!(
                last_of_run < 6_000_000,
                "run_len={run_len}: run reached the next second ({last_of_run})"
            );
            assert_eq!(v[run_len].time_us, 6_000_000, "the following second must be untouched");
        }
    }

    /// Near the boundary the 10 µs step subdivides (10 → remaining gap →
    /// ties) instead of crossing.
    #[test]
    fn step_subdivides_at_the_boundary() {
        let mut prev = Some(5_999_985u64);
        let mut emitted = Vec::new();
        for _ in 0..4 {
            let e = disambiguated(prev, 5_000_000);
            emitted.push(e);
            prev = Some(e);
        }
        assert_eq!(emitted, vec![5_999_995, 5_999_999, 5_999_999, 5_999_999]);
    }

    #[test]
    fn disambiguated_passes_advancing_times_through() {
        assert_eq!(disambiguated(None, 42), 42);
        assert_eq!(disambiguated(Some(10), 42), 42);
        assert_eq!(disambiguated(Some(42), 42), 52);
    }

    #[test]
    fn multiple_runs_handled_independently() {
        let mut v = vec![upd(1_000_000), upd(1_000_000), upd(2_000_000), upd(2_000_000)];
        normalize_timestamps(&mut v);
        let times: Vec<u64> = v.iter().map(|u| u.time_us).collect();
        assert_eq!(times, vec![1_000_000, 1_000_010, 2_000_000, 2_000_010]);
    }
}
