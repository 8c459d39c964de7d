//! The arithmetic every reported number goes through: medians,
//! quartile spread, percentiles, and the "highest percentile with at
//! least ten samples beyond it" rule.

/// Sorts a copy of `values` ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the one the acceptance rule recomputes.
/// Needs at least two values; fewer give `[x, x, x]`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let cut = |i: usize| {
        // j = i*(n+1)/4, clamped to [1, n-1]; delta = i*(n+1) - 4*j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile distance as a percentage of the median (0 when the
/// median is 0).
pub fn spread_pct(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// The value at percentile `p` (0–100) by nearest rank on an ascending
/// slice; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p90, p99, p99.9, … that still has at least ten
/// samples above its rank, with its value. `None` below 100 samples
/// (p90 of fewer has fewer than ten beyond it).
pub fn tail_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    let mut best = None;
    let mut div = 10; // p90 leaves a tenth of the samples beyond it
    loop {
        let beyond = n / div;
        if beyond < 10 {
            return best;
        }
        best = Some((100.0 - 100.0 / div as f64, sorted[n - beyond - 1]));
        div *= 10;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(spread_pct(&v), (8.25 - 2.75) / 5.5 * 100.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail_percentile(&v(99)), None);
        // 100 samples: p90 has exactly ten beyond it, p99 only one.
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 90)));
        assert_eq!(tail_percentile(&v(999)), Some((90.0, 900)));
        assert_eq!(tail_percentile(&v(1_000)), Some((99.0, 990)));
        let (p, value) = tail_percentile(&v(600_000)).unwrap();
        assert!((p - 99.99).abs() < 1e-9, "{p}");
        assert_eq!(value, 599_940);
    }
}
