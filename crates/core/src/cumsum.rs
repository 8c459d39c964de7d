//! Cumulative update timelines (paper Figs. 4 and 5).
//!
//! Figures 4/5 plot the cumulative count of announcements over one day
//! for a single `(session, prefix)` stream, *restricted to one AS path*,
//! with vertical markers at withdrawal arrivals. Classification still
//! happens on the full stream (a `pc` label means "changed relative to
//! whatever was announced before", including other paths); the timeline
//! then keeps only announcements whose path matches the target.

use kcc_bgp_types::{AsPath, Prefix};
use kcc_collector::{SessionKey, UpdateArchive};

use crate::classify::AnnouncementType;
use crate::pipeline::{drain_archive, AnalysisSink, Merge};
use crate::report::render_csv;
use crate::stream::{ClassifiedEvent, EventKind};

/// One plotted point.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Arrival time (µs).
    pub time_us: u64,
    /// Type label (`None` for the stream-initial announcement).
    pub atype: Option<AnnouncementType>,
    /// Cumulative announcement count including this point.
    pub cumulative: u64,
}

/// The Fig. 4/5 data series for one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Announcements (filtered by path if requested), in order.
    pub points: Vec<TimelinePoint>,
    /// Withdrawal arrival times (the yellow vertical lines).
    pub withdrawals: Vec<u64>,
}

impl Timeline {
    /// Count of points with a given type.
    pub fn count_of(&self, t: AnnouncementType) -> u64 {
        self.points.iter().filter(|p| p.atype == Some(t)).count() as u64
    }

    /// Total announcements plotted.
    pub fn total(&self) -> u64 {
        self.points.len() as u64
    }

    /// Renders as CSV (`time_us,type,cumulative` plus withdrawal rows).
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<(u64, Vec<String>)> = Vec::new();
        for p in &self.points {
            rows.push((
                p.time_us,
                vec![
                    p.time_us.to_string(),
                    p.atype.map(|t| t.label().to_string()).unwrap_or_else(|| "init".into()),
                    p.cumulative.to_string(),
                ],
            ));
        }
        for &w in &self.withdrawals {
            rows.push((w, vec![w.to_string(), "W".into(), String::new()]));
        }
        rows.sort_by_key(|(t, _)| *t);
        let body: Vec<Vec<String>> = rows.into_iter().map(|(_, r)| r).collect();
        render_csv(&["time_us", "event", "cumsum"], &body)
    }
}

/// Builds the Fig. 4/5 timeline of one `(session, prefix)` stream
/// incrementally. Constant state beyond the retained plot points.
#[derive(Debug, Clone)]
pub(crate) struct TimelineSink {
    session: SessionKey,
    prefix: Prefix,
    path_filter: Option<AsPath>,
    timeline: Timeline,
}

impl TimelineSink {
    /// A sink for one stream, keeping only announcements whose AS path
    /// equals `path_filter` when given.
    pub fn new(session: SessionKey, prefix: Prefix, path_filter: Option<&AsPath>) -> Self {
        TimelineSink {
            session,
            prefix,
            path_filter: path_filter.cloned(),
            timeline: Timeline::default(),
        }
    }

    /// The accumulated timeline.
    pub fn finish(self) -> Timeline {
        self.timeline
    }
}

impl AnalysisSink for TimelineSink {
    fn on_event(&mut self, key: &SessionKey, e: &ClassifiedEvent) {
        if *key != self.session || e.prefix != self.prefix {
            return;
        }
        match &e.kind {
            EventKind::Withdrawal => self.timeline.withdrawals.push(e.time_us),
            EventKind::Classified { .. } | EventKind::Initial => {
                let attrs = e.attrs.as_ref().expect("announcement events carry attrs");
                if self.path_filter.as_ref().map(|p| attrs.as_path == *p).unwrap_or(true) {
                    self.timeline.points.push(TimelinePoint {
                        time_us: e.time_us,
                        atype: e.atype(),
                        cumulative: self.timeline.points.len() as u64 + 1,
                    });
                }
            }
        }
    }
}

impl Merge for TimelineSink {
    fn merge(&mut self, other: Self) {
        // The one watched stream lives on exactly one collector; every
        // other collector's sink stays empty.
        if self.timeline.points.is_empty() && self.timeline.withdrawals.is_empty() {
            self.timeline = other.timeline;
        }
    }
}

/// The timeline of one `(session, prefix)` stream of an archive —
/// `TimelineSink` run over it.
pub fn path_timeline(
    archive: &UpdateArchive,
    session: &SessionKey,
    prefix: &Prefix,
    path_filter: Option<&AsPath>,
) -> Timeline {
    drain_archive(archive, TimelineSink::new(session.clone(), *prefix, path_filter)).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, Community, CommunitySet, PathAttributes, RouteUpdate};

    fn attrs(path: &str, c: u16) -> PathAttributes {
        PathAttributes {
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic([Community::from_parts(3356, c)]),
            ..Default::default()
        }
    }

    fn build() -> (UpdateArchive, SessionKey, Prefix) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let key = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let target = "20205 3356 174 12654";
        let best = "20205 6939 50304 12654";
        let updates = vec![
            RouteUpdate::announce(10, prefix, attrs(best, 1)), // initial (best path)
            RouteUpdate::announce(20, prefix, attrs(target, 2501)), // pc (to target)
            RouteUpdate::announce(30, prefix, attrs(target, 2502)), // nc
            RouteUpdate::announce(40, prefix, attrs(target, 2503)), // nc
            RouteUpdate::withdraw(50, prefix),
            RouteUpdate::announce(60, prefix, attrs(best, 1)), // pc (back to best)
        ];
        let mut archive = UpdateArchive::new(0);
        for u in updates {
            archive.record(&key, u);
        }
        (archive, key, prefix)
    }

    #[test]
    fn filtered_timeline_keeps_target_path_only() {
        let (archive, key, prefix) = build();
        let target: AsPath = "20205 3356 174 12654".parse().unwrap();
        let tl = path_timeline(&archive, &key, &prefix, Some(&target));
        assert_eq!(tl.total(), 3);
        assert_eq!(tl.count_of(AnnouncementType::Pc), 1);
        assert_eq!(tl.count_of(AnnouncementType::Nc), 2);
        assert_eq!(tl.withdrawals, vec![50]);
        // Cumulative counts rise 1..=3.
        let cums: Vec<u64> = tl.points.iter().map(|p| p.cumulative).collect();
        assert_eq!(cums, vec![1, 2, 3]);
    }

    #[test]
    fn unfiltered_timeline_has_everything() {
        let (archive, key, prefix) = build();
        let tl = path_timeline(&archive, &key, &prefix, None);
        assert_eq!(tl.total(), 5); // all announcements
        assert_eq!(tl.points[0].atype, None); // initial
    }

    #[test]
    fn missing_session_is_empty() {
        let (archive, _, prefix) = build();
        let other = SessionKey::new("rrc99", Asn(1), "10.0.0.9".parse().unwrap());
        let tl = path_timeline(&archive, &other, &prefix, None);
        assert_eq!(tl.total(), 0);
        assert!(tl.withdrawals.is_empty());
    }

    #[test]
    fn csv_interleaves_withdrawals() {
        let (archive, key, prefix) = build();
        let tl = path_timeline(&archive, &key, &prefix, None);
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_us,event,cumsum");
        assert!(lines.iter().any(|l| l.contains(",W,")));
        // The withdrawal at t=50 appears between t=40 and t=60.
        let w_pos = lines.iter().position(|l| l.starts_with("50,")).unwrap();
        let before = lines.iter().position(|l| l.starts_with("40,")).unwrap();
        let after = lines.iter().position(|l| l.starts_with("60,")).unwrap();
        assert!(before < w_pos && w_pos < after);
    }
}
