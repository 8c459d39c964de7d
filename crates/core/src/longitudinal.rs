//! Longitudinal aggregation (paper Figs. 2 and 6).
//!
//! Fig. 2 plots daily announcement counts per type across the ten-year
//! archive (quarterly sample days); Fig. 6 plots the number of unique
//! community attributes revealed during withdrawal phases, the total, and
//! their ratio over the same period.

use crate::classify::{AnnouncementType, TypeCounts};
use crate::report::{render_csv, render_table};
use crate::revealed::RevealedStats;

/// One sampled day in a longitudinal series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Day label, e.g. `2019-03-15`.
    pub label: String,
    /// Type counts of the day.
    pub counts: TypeCounts,
    /// Revealed-attribute statistics of the day, when computed.
    pub revealed: Option<RevealedStats>,
}

/// A longitudinal series of sampled days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LongitudinalSeries {
    /// Points in chronological order.
    pub points: Vec<SeriesPoint>,
}

impl LongitudinalSeries {
    /// Appends a day.
    pub fn push(&mut self, label: impl Into<String>, counts: TypeCounts) {
        self.points.push(SeriesPoint { label: label.into(), counts, revealed: None });
    }

    /// Appends a day with revealed stats.
    pub fn push_with_revealed(
        &mut self,
        label: impl Into<String>,
        counts: TypeCounts,
        revealed: RevealedStats,
    ) {
        self.points.push(SeriesPoint { label: label.into(), counts, revealed: Some(revealed) });
    }

    /// Fig. 2 data: CSV with one row per day, one column per type.
    pub fn fig2_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![p.label.clone()];
                for t in AnnouncementType::ALL {
                    row.push(p.counts.get(t).to_string());
                }
                row.push(p.counts.withdrawals.to_string());
                row
            })
            .collect();
        render_csv(&["day", "pc", "pn", "nc", "nn", "xc", "xn", "withdrawals"], &rows)
    }

    /// Fig. 2 as an aligned text table.
    pub fn fig2_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![p.label.clone()];
                for t in AnnouncementType::ALL {
                    row.push(p.counts.get(t).to_string());
                }
                row
            })
            .collect();
        render_table(&["day", "pc", "pn", "nc", "nn", "xc", "xn"], &rows)
    }

    /// Fig. 6 data: per-day totals, withdrawal-exclusive counts, ratio.
    pub fn fig6_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .filter_map(|p| {
                p.revealed.map(|r| {
                    vec![
                        p.label.clone(),
                        r.total.to_string(),
                        r.withdrawal_only.to_string(),
                        format!("{:.3}", r.withdrawal_ratio()),
                    ]
                })
            })
            .collect();
        render_csv(&["day", "total", "during_withdrawal", "ratio"], &rows)
    }

    /// Mean withdrawal-exclusive ratio across days with revealed stats —
    /// the paper's "stable ratio of about 60%".
    pub fn mean_withdrawal_ratio(&self) -> f64 {
        let ratios: Vec<f64> =
            self.points.iter().filter_map(|p| p.revealed.map(|r| r.withdrawal_ratio())).collect();
        if ratios.is_empty() {
            return 0.0;
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }

    /// Whether a per-type share stayed within `tolerance` (in percentage
    /// points) of its series mean — the paper's "the share of all types is
    /// relatively stable" observation.
    pub fn share_is_stable(&self, t: AnnouncementType, tolerance: f64) -> bool {
        let shares: Vec<f64> = self.points.iter().map(|p| p.counts.share(t)).collect();
        if shares.is_empty() {
            return true;
        }
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        shares.iter().all(|s| (s - mean).abs() <= tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pc: u64, nn: u64) -> TypeCounts {
        TypeCounts { pc, nn, ..Default::default() }
    }

    #[test]
    fn fig2_csv_shape() {
        let mut s = LongitudinalSeries::default();
        s.push("2019-03-15", counts(10, 5));
        s.push("2019-06-15", counts(12, 6));
        let csv = s.fig2_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("day,pc,pn"));
        assert!(lines[1].starts_with("2019-03-15,10,"));
    }

    #[test]
    fn fig6_ratio_mean() {
        let mut s = LongitudinalSeries::default();
        s.push_with_revealed(
            "2019",
            counts(1, 1),
            RevealedStats { total: 100, withdrawal_only: 60, ..Default::default() },
        );
        s.push_with_revealed(
            "2020",
            counts(1, 1),
            RevealedStats { total: 200, withdrawal_only: 124, ..Default::default() },
        );
        assert!((s.mean_withdrawal_ratio() - 0.61).abs() < 1e-9);
        let csv = s.fig6_csv();
        assert!(csv.contains("0.600"));
        assert!(csv.contains("0.620"));
    }

    #[test]
    fn stability_check() {
        let mut s = LongitudinalSeries::default();
        for _ in 0..5 {
            s.push("d", counts(50, 50));
        }
        assert!(s.share_is_stable(AnnouncementType::Pc, 1.0));
        s.push("e", counts(100, 0));
        assert!(!s.share_is_stable(AnnouncementType::Pc, 5.0));
    }

    #[test]
    fn empty_series_defaults() {
        let s = LongitudinalSeries::default();
        assert_eq!(s.mean_withdrawal_ratio(), 0.0);
        assert!(s.share_is_stable(AnnouncementType::Nc, 0.0));
    }
}
