//! Dataset overview (Table 1) and type shares (Table 2).

use kcc_bgp_types::{AsPath, Asn, FastHashSet, MessageKind, Prefix, RouteUpdate};
use kcc_collector::{PeerMeta, SessionKey, UpdateArchive};

use crate::classify::{AnnouncementType, TypeCounts};
use crate::pipeline::{drain_archive, AnalysisSink, Merge};
use crate::report::{fmt_count, render_table};

/// The Table 1 summary of one dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverviewStats {
    /// Distinct IPv4 prefixes.
    pub ipv4_prefixes: u64,
    /// Distinct IPv6 prefixes.
    pub ipv6_prefixes: u64,
    /// Distinct ASes seen anywhere in AS paths.
    pub ases: u64,
    /// BGP sessions.
    pub sessions: u64,
    /// Distinct peer ASes.
    pub peers: u64,
    /// Announcements.
    pub announcements: u64,
    /// Announcements carrying at least one community.
    pub with_communities: u64,
    /// Distinct 16-bit community high halves (the ASNs defining community
    /// semantics) — the paper's "uniq. 16 bits".
    pub uniq_16bit: u64,
    /// Distinct AS paths.
    pub uniq_as_paths: u64,
    /// Withdrawals.
    pub withdrawals: u64,
}

/// Accumulates the Table 1 overview incrementally. Distinct-count state
/// (prefixes, ASes, paths) grows with the *universe*, not with the day's
/// update volume — the inherent cost of "uniq." columns.
#[derive(Debug, Clone, Default)]
pub struct OverviewSink {
    v4: FastHashSet<Prefix>,
    v6: FastHashSet<Prefix>,
    ases: FastHashSet<u32>,
    comm_asns: FastHashSet<u16>,
    paths: FastHashSet<AsPath>,
    sessions: FastHashSet<SessionKey>,
    peers: FastHashSet<Asn>,
    announcements: u64,
    with_communities: u64,
    withdrawals: u64,
}

impl OverviewSink {
    /// The accumulated overview.
    pub fn finish(self) -> OverviewStats {
        OverviewStats {
            ipv4_prefixes: self.v4.len() as u64,
            ipv6_prefixes: self.v6.len() as u64,
            ases: self.ases.len() as u64,
            sessions: self.sessions.len() as u64,
            peers: self.peers.len() as u64,
            announcements: self.announcements,
            with_communities: self.with_communities,
            uniq_16bit: self.comm_asns.len() as u64,
            uniq_as_paths: self.paths.len() as u64,
            withdrawals: self.withdrawals,
        }
    }
}

impl AnalysisSink for OverviewSink {
    fn on_session(&mut self, meta: &PeerMeta) {
        self.sessions.insert(meta.key.clone());
        self.peers.insert(meta.key.peer_asn);
    }

    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        match &u.kind {
            MessageKind::Announcement(attrs) => {
                self.announcements += 1;
                if u.prefix.is_ipv4() {
                    self.v4.insert(u.prefix);
                } else {
                    self.v6.insert(u.prefix);
                }
                // A path already in `paths` contributed all its ASNs
                // before — skip the per-hop loop and the clone on the
                // (dominant) repeat case.
                if !self.paths.contains(&attrs.as_path) {
                    for asn in attrs.as_path.asns() {
                        self.ases.insert(asn.value());
                    }
                    self.paths.insert(attrs.as_path.clone());
                }
                if !attrs.communities.is_empty() {
                    self.with_communities += 1;
                    for c in attrs.communities.iter_classic() {
                        self.comm_asns.insert(c.asn_part());
                    }
                }
            }
            MessageKind::Withdrawal => self.withdrawals += 1,
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for OverviewSink {
    fn merge(&mut self, other: Self) {
        self.v4.extend(other.v4);
        self.v6.extend(other.v6);
        self.ases.extend(other.ases);
        self.comm_asns.extend(other.comm_asns);
        self.paths.extend(other.paths);
        self.sessions.extend(other.sessions);
        self.peers.extend(other.peers);
        self.announcements += other.announcements;
        self.with_communities += other.with_communities;
        self.withdrawals += other.withdrawals;
    }
}

/// The Table 1 overview of an archive — [`OverviewSink`] run over it.
pub fn overview(archive: &UpdateArchive) -> OverviewStats {
    drain_archive(archive, OverviewSink::default()).finish()
}

impl OverviewStats {
    /// Renders in the paper's Table 1 two-column layout.
    pub fn render(&self, title: &str) -> String {
        let rows = vec![
            vec![
                "IPv4 prefixes".into(),
                fmt_count(self.ipv4_prefixes),
                "Announcements".into(),
                fmt_count(self.announcements),
            ],
            vec![
                "IPv6 prefixes".into(),
                fmt_count(self.ipv6_prefixes),
                "w/ communities".into(),
                fmt_count(self.with_communities),
            ],
            vec![
                "ASes".into(),
                fmt_count(self.ases),
                "uniq. 16 bits".into(),
                fmt_count(self.uniq_16bit),
            ],
            vec![
                "Sessions".into(),
                fmt_count(self.sessions),
                "uniq. AS paths".into(),
                fmt_count(self.uniq_as_paths),
            ],
            vec![
                "Peers".into(),
                fmt_count(self.peers),
                "Withdrawals".into(),
                fmt_count(self.withdrawals),
            ],
        ];
        format!("{title}\n{}", render_table(&["", "", "", ""], &rows))
    }
}

/// Table 2: per-type shares for one or two datasets.
#[derive(Debug, Clone)]
pub struct TypeShares {
    /// Column label → counts.
    pub columns: Vec<(String, TypeCounts)>,
}

impl TypeShares {
    /// Builds from labeled counters.
    pub fn new(columns: Vec<(String, TypeCounts)>) -> Self {
        TypeShares { columns }
    }

    /// Renders in the paper's Table 2 layout (one row per type, one
    /// percentage column per dataset).
    pub fn render(&self) -> String {
        let mut headers: Vec<&str> = vec!["type", "observed changes"];
        let labels: Vec<&str> = self.columns.iter().map(|(l, _)| l.as_str()).collect();
        headers.extend(labels);
        let describe = |t: AnnouncementType| match t {
            AnnouncementType::Pc => "path + community",
            AnnouncementType::Pn => "path only",
            AnnouncementType::Nc => "community only",
            AnnouncementType::Nn => "no change",
            AnnouncementType::Xc => "path prepending + comm.",
            AnnouncementType::Xn => "path prepending only",
        };
        let rows: Vec<Vec<String>> = AnnouncementType::ALL
            .iter()
            .map(|&t| {
                let mut row = vec![t.label().to_string(), describe(t).to_string()];
                for (_, counts) in &self.columns {
                    row.push(format!("{:.1}%", counts.share(t)));
                }
                row
            })
            .collect();
        render_table(&headers, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, Community, CommunitySet, PathAttributes, RouteUpdate};
    use kcc_collector::SessionKey;

    fn archive() -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let k1 = SessionKey::new("rrc00", Asn(20_205), "10.0.0.1".parse().unwrap());
        let k2 = SessionKey::new("rrc00", Asn(20_811), "10.0.0.2".parse().unwrap());
        let mut attrs =
            PathAttributes { as_path: "20205 3356 12654".parse().unwrap(), ..Default::default() };
        a.record(&k1, RouteUpdate::announce(1, "84.205.64.0/24".parse().unwrap(), attrs.clone()));
        attrs.communities = CommunitySet::from_classic([Community::from_parts(3356, 2501)]);
        a.record(
            &k1,
            RouteUpdate::announce(2, "2001:7fb:fe00::/48".parse().unwrap(), attrs.clone()),
        );
        let attrs2 = PathAttributes {
            as_path: "20811 3356 12654".parse().unwrap(),
            communities: CommunitySet::from_classic([
                Community::from_parts(3356, 2502),
                Community::from_parts(20_811, 100),
            ]),
            ..Default::default()
        };
        a.record(&k2, RouteUpdate::announce(3, "84.205.64.0/24".parse().unwrap(), attrs2));
        a.record(&k2, RouteUpdate::withdraw(4, "84.205.64.0/24".parse().unwrap()));
        a
    }

    #[test]
    fn overview_counts() {
        let s = overview(&archive());
        assert_eq!(s.ipv4_prefixes, 1);
        assert_eq!(s.ipv6_prefixes, 1);
        assert_eq!(s.ases, 4); // 20205, 20811, 3356, 12654
        assert_eq!(s.sessions, 2);
        assert_eq!(s.peers, 2);
        assert_eq!(s.announcements, 3);
        assert_eq!(s.with_communities, 2);
        assert_eq!(s.uniq_16bit, 2); // 3356 and 20811
        assert_eq!(s.uniq_as_paths, 2);
        assert_eq!(s.withdrawals, 1);
    }

    #[test]
    fn overview_render_contains_rows() {
        let text = overview(&archive()).render("Overview d_test");
        assert!(text.contains("IPv4 prefixes"));
        assert!(text.contains("Withdrawals"));
        assert!(text.contains("uniq. 16 bits"));
    }

    #[test]
    fn shares_render_matches_layout() {
        let mut counts = TypeCounts::default();
        for _ in 0..337 {
            counts.add(AnnouncementType::Pc);
        }
        for _ in 0..151 {
            counts.add(AnnouncementType::Pn);
        }
        for _ in 0..245 {
            counts.add(AnnouncementType::Nc);
        }
        for _ in 0..257 {
            counts.add(AnnouncementType::Nn);
        }
        for _ in 0..3 {
            counts.add(AnnouncementType::Xc);
        }
        for _ in 0..7 {
            counts.add(AnnouncementType::Xn);
        }
        let t = TypeShares::new(vec![("d_mar20".into(), counts)]);
        let text = t.render();
        assert!(text.contains("33.7%"));
        assert!(text.contains("24.5%"));
        assert!(text.contains("no change"));
        assert!(text.contains("community only"));
    }
}
