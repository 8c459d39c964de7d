//! Per-session type distributions (paper §6, Fig. 3).
//!
//! Fig. 3 shows, for a single beacon prefix at one collector, how many
//! announcements of each type every BGP session observed — demonstrating
//! that "each session shows a diverse distribution of announcement
//! types, despite looking only at a single beacon prefix".

use std::collections::BTreeMap;

use kcc_bgp_types::Prefix;
use kcc_collector::{SessionKey, UpdateArchive};

use crate::classify::{AnnouncementType, TypeCounts};
use crate::pipeline::{drain_archive, AnalysisSink, Merge};
use crate::report::render_table;
use crate::stream::{count_event, ClassifiedEvent};

/// Accumulates per-session type counts for one prefix — Fig. 3 as a
/// streaming sink. State is one [`TypeCounts`] per session that touched
/// the prefix.
#[derive(Debug, Clone)]
pub struct SessionDistributionSink {
    prefix: Prefix,
    collector: Option<String>,
    per_session: BTreeMap<SessionKey, TypeCounts>,
}

impl SessionDistributionSink {
    /// A sink for `prefix`, optionally restricted to one collector.
    pub fn new(prefix: Prefix, collector: Option<&str>) -> Self {
        SessionDistributionSink {
            prefix,
            collector: collector.map(str::to_owned),
            per_session: BTreeMap::new(),
        }
    }

    /// The rows with announcements, sorted by announcement volume
    /// (descending) — the Fig. 3 x-axis order.
    pub fn finish(self) -> Vec<(SessionKey, TypeCounts)> {
        let mut rows: Vec<(SessionKey, TypeCounts)> =
            self.per_session.into_iter().filter(|(_, c)| c.announcement_total() > 0).collect();
        rows.sort_by(|a, b| {
            b.1.announcement_total().cmp(&a.1.announcement_total()).then_with(|| a.0.cmp(&b.0))
        });
        rows
    }
}

impl AnalysisSink for SessionDistributionSink {
    fn on_event(&mut self, key: &SessionKey, e: &ClassifiedEvent) {
        if e.prefix != self.prefix {
            return;
        }
        if let Some(c) = &self.collector {
            if key.collector != *c {
                return;
            }
        }
        count_event(self.per_session.entry(key.clone()).or_default(), e);
    }
}

impl Merge for SessionDistributionSink {
    fn merge(&mut self, other: Self) {
        // Sessions are disjoint across collectors.
        self.per_session.extend(other.per_session);
    }
}

/// Per-session counts for one prefix of an archive, sorted by
/// announcement volume (descending) — [`SessionDistributionSink`] run
/// over it.
pub fn session_type_distribution(
    archive: &UpdateArchive,
    prefix: &Prefix,
    collector: Option<&str>,
) -> Vec<(SessionKey, TypeCounts)> {
    drain_archive(archive, SessionDistributionSink::new(*prefix, collector)).finish()
}

/// Renders the distribution as a text table (one row per session).
pub fn render_distribution(rows: &[(SessionKey, TypeCounts)]) -> String {
    let headers = ["session", "total", "pc", "pn", "nc", "nn", "xc", "xn"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(key, c)| {
            vec![
                key.to_string(),
                c.announcement_total().to_string(),
                c.pc.to_string(),
                c.pn.to_string(),
                c.nc.to_string(),
                c.nn.to_string(),
                c.xc.to_string(),
                c.xn.to_string(),
            ]
        })
        .collect();
    render_table(&headers, &body)
}

/// Renders a Fig. 3-style stacked bar chart in ASCII: one column per
/// session, stack segments proportional to type counts.
pub fn render_stacked_bars(rows: &[(SessionKey, TypeCounts)], height: usize) -> String {
    if rows.is_empty() {
        return String::from("(no sessions)\n");
    }
    let max_total = rows.iter().map(|(_, c)| c.announcement_total()).max().unwrap_or(1).max(1);
    let glyph = |t: AnnouncementType| match t {
        AnnouncementType::Pc => 'P',
        AnnouncementType::Pn => 'p',
        AnnouncementType::Nc => 'C',
        AnnouncementType::Nn => 'n',
        AnnouncementType::Xc => 'X',
        AnnouncementType::Xn => 'x',
    };
    // Build each column bottom-up as a stack of glyphs.
    let mut columns: Vec<Vec<char>> = Vec::with_capacity(rows.len());
    for (_, c) in rows {
        let mut col = Vec::new();
        for t in AnnouncementType::ALL {
            let cells = (c.get(t) as usize * height).div_ceil(max_total as usize);
            for _ in 0..cells.min(height - col.len().min(height)) {
                col.push(glyph(t));
            }
        }
        col.truncate(height);
        columns.push(col);
    }
    let mut out = String::new();
    for level in (0..height).rev() {
        for col in &columns {
            out.push(col.get(level).copied().unwrap_or(' '));
        }
        out.push('\n');
    }
    out.push_str(&"-".repeat(columns.len()));
    out.push_str("\nlegend: P=pc p=pn C=nc n=nn X=xc x=xn; one column per session\n");
    out
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

    fn build() -> (UpdateArchive, Prefix) {
        let prefix: Prefix = "84.205.64.0/24".parse().unwrap();
        let mut archive = UpdateArchive::new(0);
        // Session 1: 3 announcements (initial, nc, pc).
        let k1 = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        archive.record(&k1, RouteUpdate::announce(1, prefix, attrs("1 2", 2501)));
        archive.record(&k1, RouteUpdate::announce(2, prefix, attrs("1 2", 2502)));
        archive.record(&k1, RouteUpdate::announce(3, prefix, attrs("1 3", 2503)));
        // Session 2: 1 announcement.
        let k2 = SessionKey::new("rrc00", Asn(20_811), "10.0.0.2".parse().unwrap());
        archive.record(&k2, RouteUpdate::announce(1, prefix, attrs("9 2", 2501)));
        // Session at another collector.
        let k3 = SessionKey::new("rrc01", Asn(20_205), "10.0.0.3".parse().unwrap());
        archive.record(&k3, RouteUpdate::announce(1, prefix, attrs("5 2", 2501)));
        (archive, prefix)
    }

    #[test]
    fn sorted_by_volume_and_filtered_by_collector() {
        let (archive, prefix) = build();
        let rows = session_type_distribution(&archive, &prefix, Some("rrc00"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0.peer_asn, Asn(20_205)); // busier session first
        assert_eq!(rows[0].1.announcement_total(), 3);
        assert_eq!(rows[0].1.nc, 1);
        assert_eq!(rows[0].1.pc, 1);
        assert_eq!(rows[1].1.announcement_total(), 1);
    }

    #[test]
    fn no_collector_filter_includes_all() {
        let (archive, prefix) = build();
        let rows = session_type_distribution(&archive, &prefix, None);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn other_prefixes_excluded() {
        let (archive, _) = build();
        let other: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(session_type_distribution(&archive, &other, None).is_empty());
    }

    #[test]
    fn table_renders() {
        let (archive, prefix) = build();
        let rows = session_type_distribution(&archive, &prefix, Some("rrc00"));
        let text = render_distribution(&rows);
        assert!(text.contains("rrc00:AS20205"));
        assert!(text.contains("nc"));
    }

    #[test]
    fn bars_render_with_fixed_height() {
        let (archive, prefix) = build();
        let rows = session_type_distribution(&archive, &prefix, None);
        let text = render_stacked_bars(&rows, 10);
        assert!(text.lines().count() >= 11);
        assert!(text.contains("legend"));
        assert_eq!(render_stacked_bars(&[], 5), "(no sessions)\n");
    }
}
