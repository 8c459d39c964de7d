//! Typed routing-anomaly alerts — the output surface of every detector
//! in this crate.
//!
//! The paper's §7 closes with "predicting anomalous communities"; the
//! CommunityWatch line of related work generalizes that signal into a
//! standing anomaly service for hijacks, leaks, outages and blackholing.
//! [`Alert`] is the one shape both produce: the
//! [`WatchSink`](crate::watch::WatchSink) emits the §7 profile checks
//! and the service's path, rate and outage checks as the same typed
//! alerts, with
//!
//! * a **deterministic total order** ([`Alert::sort_key`]): serial and
//!   corpus runs report byte-identical lists for any thread count or
//!   collector order,
//! * **severity and evidence fields** per kind, and
//! * a **stable line serialization** ([`Alert::to_line`]) whose format
//!   is pinned by tests — safe to diff, archive, and parse downstream.

use std::fmt;

use kcc_bgp_types::{Asn, Community, Prefix};
use kcc_collector::SessionKey;

/// How urgent an alert is. Severity is a function of the alert kind
/// ([`AlertKind::severity`]), stored on the alert so serialized streams
/// carry it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth logging; expected under normal churn.
    Info,
    /// Deviates from baseline; worth an operator's look.
    Warning,
    /// Traffic is (or is about to be) affected.
    Critical,
}

impl Severity {
    /// The stable lowercase label used in rendering and serialization.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which baseline a [`AlertKind::BaselineShift`] deviated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftMetric {
    /// Distinct community attributes on one stream (the §7 profile
    /// exploration-burst signal).
    DistinctAttrs,
    /// Announcements carrying one community per window.
    AnnounceRate,
    /// Distinct sessions carrying one community per window.
    SessionFanout,
}

impl ShiftMetric {
    /// The stable kebab-case label used in rendering and serialization.
    pub fn label(self) -> &'static str {
        match self {
            ShiftMetric::DistinctAttrs => "distinct-attrs",
            ShiftMetric::AnnounceRate => "announce-rate",
            ShiftMetric::SessionFanout => "session-fanout",
        }
    }
}

/// What was detected, with per-kind evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// A community value outside its namespace's learned value set
    /// (fat-fingered or injected tags; the attack vector of Streibelt
    /// et al.). The §7 profile *novel value* signal.
    NovelCommunity {
        /// The offending community.
        community: Community,
    },
    /// A well-known action community (BLACKHOLE, GRACEFUL_SHUTDOWN, …)
    /// on a stream that never carried one in training — the injected
    /// remote-triggered-blackhole signature. The §7 profile
    /// *action signal*.
    BlackholeInjection {
        /// The action community.
        community: Community,
        /// Its IANA name.
        name: &'static str,
    },
    /// A windowed rate far above its learned baseline. With
    /// [`ShiftMetric::DistinctAttrs`] this is the §7 profile
    /// *exploration burst*.
    BaselineShift {
        /// Which baseline shifted.
        metric: ShiftMetric,
        /// The community whose baseline shifted (`None` for per-stream
        /// metrics).
        community: Option<Community>,
        /// Observed value in the detection window.
        observed: u64,
        /// Learned baseline.
        baseline: u64,
    },
    /// A prefix announced by an origin AS outside its learned origin set.
    PrefixHijack {
        /// The unexpected origin.
        origin: Asn,
        /// The learned origin set (ascending).
        expected: Vec<Asn>,
    },
    /// A new transit AS on the path of a prefix whose origin is
    /// unchanged — the route-leak signature.
    RouteLeak {
        /// The AS newly on the path.
        via: Asn,
        /// The (learned, unchanged) origin.
        origin: Asn,
    },
    /// A collector that had been feeding went silent for consecutive
    /// windows while other collectors stayed active.
    CollectorOutage {
        /// The silent collector.
        collector: String,
        /// Consecutive silent windows observed.
        silent_windows: u64,
    },
}

impl AlertKind {
    /// The severity this kind of alert carries.
    pub fn severity(&self) -> Severity {
        match self {
            AlertKind::NovelCommunity { .. } => Severity::Info,
            AlertKind::BaselineShift { .. } => Severity::Warning,
            AlertKind::RouteLeak { .. } => Severity::Warning,
            AlertKind::CollectorOutage { .. } => Severity::Warning,
            AlertKind::BlackholeInjection { .. } => Severity::Critical,
            AlertKind::PrefixHijack { .. } => Severity::Critical,
        }
    }

    /// The stable kebab-case kind label.
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::NovelCommunity { .. } => "novel-community",
            AlertKind::BlackholeInjection { .. } => "blackhole-injection",
            AlertKind::BaselineShift { .. } => "baseline-shift",
            AlertKind::PrefixHijack { .. } => "prefix-hijack",
            AlertKind::RouteLeak { .. } => "route-leak",
            AlertKind::CollectorOutage { .. } => "collector-outage",
        }
    }

    /// Rank in the canonical order. The first three mirror the
    /// pre-`Alert` anomaly ranks (novel value 0, action signal 1,
    /// exploration burst 2), so sorted batch output is unchanged by the
    /// migration.
    fn rank(&self) -> u8 {
        match self {
            AlertKind::NovelCommunity { .. } => 0,
            AlertKind::BlackholeInjection { .. } => 1,
            AlertKind::BaselineShift { .. } => 2,
            AlertKind::PrefixHijack { .. } => 3,
            AlertKind::RouteLeak { .. } => 4,
            AlertKind::CollectorOutage { .. } => 5,
        }
    }

    /// Kind-specific tiebreak details for the canonical order. The
    /// third slot is the [`ShiftMetric`] ordinal (declaration order): an
    /// announce-rate and a fan-out shift of one community in one window
    /// can report the same `observed` and differ in nothing else.
    fn detail(&self) -> (u64, u64, u8, &str) {
        match self {
            AlertKind::NovelCommunity { community } => (community.0 as u64, 0, 0, ""),
            AlertKind::BlackholeInjection { community, .. } => (community.0 as u64, 0, 0, ""),
            AlertKind::BaselineShift { metric, observed, community, .. } => {
                (*observed, community.map(|c| c.0 as u64).unwrap_or(0), *metric as u8, "")
            }
            AlertKind::PrefixHijack { origin, .. } => (origin.value() as u64, 0, 0, ""),
            AlertKind::RouteLeak { via, origin } => {
                (via.value() as u64, origin.value() as u64, 0, "")
            }
            AlertKind::CollectorOutage { collector, silent_windows } => {
                (*silent_windows, 0, 0, collector.as_str())
            }
        }
    }

    /// The evidence part of the rendered line (everything after the kind
    /// label).
    fn render_evidence(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertKind::NovelCommunity { community } => write!(f, "{community}"),
            AlertKind::BlackholeInjection { community, name } => {
                write!(f, "{community} ({name})")
            }
            AlertKind::BaselineShift { metric, community, observed, baseline } => match community {
                Some(c) => {
                    write!(f, "{} {c} {observed} vs baseline {baseline}", metric.label())
                }
                None => write!(f, "{} {observed} vs baseline {baseline}", metric.label()),
            },
            AlertKind::PrefixHijack { origin, expected } => {
                write!(f, "origin AS{origin} (expected ")?;
                for (i, asn) in expected.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "AS{asn}")?;
                }
                f.write_str(")")
            }
            AlertKind::RouteLeak { via, origin } => {
                write!(f, "via AS{via} (origin AS{origin})")
            }
            AlertKind::CollectorOutage { collector, silent_windows } => {
                write!(f, "{collector} silent for {silent_windows} window(s)")
            }
        }
    }
}

/// One detected routing anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Event time (µs since the day's epoch). For windowed detections
    /// this is the start of the offending window or the first offending
    /// sighting in it.
    pub time_us: u64,
    /// The session the evidence arrived on (`None` for collector-scoped
    /// alerts such as outages).
    pub session: Option<SessionKey>,
    /// The affected prefix (`None` for community- or collector-scoped
    /// alerts).
    pub prefix: Option<Prefix>,
    /// Derived from the kind at construction; carried explicitly so
    /// serialized alerts are self-describing.
    pub severity: Severity,
    /// What was detected, with evidence.
    pub kind: AlertKind,
}

impl Alert {
    /// An alert for `kind`; severity is derived from the kind.
    pub fn new(
        time_us: u64,
        session: Option<SessionKey>,
        prefix: Option<Prefix>,
        kind: AlertKind,
    ) -> Self {
        let severity = kind.severity();
        Alert { time_us, session, prefix, severity, kind }
    }

    /// The collector this alert concerns, when one is identifiable.
    pub fn collector(&self) -> Option<&str> {
        match &self.kind {
            AlertKind::CollectorOutage { collector, .. } => Some(collector),
            _ => self.session.as_ref().map(|s| s.collector.as_str()),
        }
    }

    /// A deterministic total order: by time, then stream, then kind rank,
    /// then per-kind evidence — so serial and corpus runs report
    /// identical lists even when several alerts share a timestamp. Two
    /// alerts compare equal only if they render identically, so the
    /// order detectors emit in never shows. The key borrows from the
    /// alert.
    pub fn sort_key(&self) -> impl Ord + '_ {
        (self.time_us, self.session.as_ref(), self.prefix, self.kind.rank(), self.kind.detail())
    }

    /// The stable one-line serialization:
    /// `time_us=… severity=… kind=… [session=…] [prefix=…] detail`.
    /// The format is pinned by tests; fields never reorder.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "time_us={} severity={} kind={}",
            self.time_us,
            self.severity.label(),
            self.kind.label()
        );
        if let Some(session) = &self.session {
            line.push_str(&format!(" session={session}"));
        }
        if let Some(prefix) = &self.prefix {
            line.push_str(&format!(" prefix={prefix}"));
        }
        line.push_str(&format!(" {self:#}"));
        line
    }
}

/// Renders `[severity] t=…µs kind evidence on prefix (session)`.
/// The alternate form (`{:#}`) renders only the kind + evidence (the
/// tail of [`Alert::to_line`]).
impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            f.write_str(self.kind.label())?;
            f.write_str(" ")?;
            return self.kind.render_evidence(f);
        }
        write!(f, "[{}] t={}µs {} ", self.severity.label(), self.time_us, self.kind.label())?;
        self.kind.render_evidence(f)?;
        if let Some(prefix) = &self.prefix {
            write!(f, " on {prefix}")?;
        }
        if let Some(session) = &self.session {
            write!(f, " ({session})")?;
        }
        Ok(())
    }
}

/// Sorts alerts into the canonical order ([`Alert::sort_key`]).
pub fn sort_alerts(alerts: &mut [Alert]) {
    alerts.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SessionKey {
        SessionKey::new("rrc00", Asn(100), "10.0.0.1".parse().unwrap())
    }

    fn prefix() -> Prefix {
        "84.205.64.0/24".parse().unwrap()
    }

    #[test]
    fn severity_is_derived_from_kind() {
        let a = Alert::new(
            1,
            Some(session()),
            Some(prefix()),
            AlertKind::PrefixHijack { origin: Asn(666), expected: vec![Asn(100)] },
        );
        assert_eq!(a.severity, Severity::Critical);
        assert_eq!(
            Alert::new(
                1,
                None,
                None,
                AlertKind::NovelCommunity { community: Community::from_parts(200, 1) }
            )
            .severity,
            Severity::Info
        );
    }

    #[test]
    fn display_format_is_pinned() {
        let a = Alert::new(
            101,
            Some(session()),
            Some(prefix()),
            AlertKind::NovelCommunity { community: Community::from_parts(200, 7777) },
        );
        assert_eq!(
            a.to_string(),
            "[info] t=101µs novel-community 200:7777 on 84.205.64.0/24 (rrc00:AS100@10.0.0.1)"
        );
        let h = Alert::new(
            5,
            Some(session()),
            Some(prefix()),
            AlertKind::PrefixHijack { origin: Asn(666), expected: vec![Asn(100), Asn(200)] },
        );
        assert_eq!(
            h.to_string(),
            "[critical] t=5µs prefix-hijack origin AS666 (expected AS100,AS200) \
             on 84.205.64.0/24 (rrc00:AS100@10.0.0.1)"
        );
        let o = Alert::new(
            900,
            None,
            None,
            AlertKind::CollectorOutage { collector: "rrc01".into(), silent_windows: 3 },
        );
        assert_eq!(
            o.to_string(),
            "[warning] t=900µs collector-outage rrc01 silent for 3 window(s)"
        );
    }

    #[test]
    fn line_serialization_is_pinned() {
        let a = Alert::new(
            42,
            Some(session()),
            Some(prefix()),
            AlertKind::BlackholeInjection {
                community: Community::from_parts(65_535, 666),
                name: "BLACKHOLE",
            },
        );
        assert_eq!(
            a.to_line(),
            "time_us=42 severity=critical kind=blackhole-injection \
             session=rrc00:AS100@10.0.0.1 prefix=84.205.64.0/24 \
             blackhole-injection 65535:666 (BLACKHOLE)"
        );
    }

    #[test]
    fn canonical_order_is_total_and_deterministic() {
        let mk = |t, kind| Alert::new(t, Some(session()), Some(prefix()), kind);
        let mut alerts = vec![
            mk(
                5,
                AlertKind::BaselineShift {
                    metric: ShiftMetric::DistinctAttrs,
                    community: None,
                    observed: 30,
                    baseline: 6,
                },
            ),
            mk(5, AlertKind::NovelCommunity { community: Community::from_parts(200, 1) }),
            Alert::new(
                1,
                None,
                None,
                AlertKind::CollectorOutage { collector: "rrc09".into(), silent_windows: 2 },
            ),
            mk(
                5,
                AlertKind::BlackholeInjection {
                    community: Community::from_parts(65_535, 666),
                    name: "BLACKHOLE",
                },
            ),
        ];
        sort_alerts(&mut alerts);
        // Time first; within one (time, stream): novel < blackhole < shift.
        assert!(matches!(alerts[0].kind, AlertKind::CollectorOutage { .. }));
        assert!(matches!(alerts[1].kind, AlertKind::NovelCommunity { .. }));
        assert!(matches!(alerts[2].kind, AlertKind::BlackholeInjection { .. }));
        assert!(matches!(alerts[3].kind, AlertKind::BaselineShift { .. }));
        let again = {
            let mut a = alerts.clone();
            sort_alerts(&mut a);
            a
        };
        assert_eq!(alerts, again);
    }

    #[test]
    fn equal_observed_rate_and_fanout_shifts_do_not_tie() {
        // 20 sessions announcing a community once each: announce rate
        // and session fan-out both read 20 in the same window.
        let shift = |metric| {
            Alert::new(
                900,
                None,
                None,
                AlertKind::BaselineShift {
                    metric,
                    community: Some(Community::from_parts(3356, 1)),
                    observed: 20,
                    baseline: 1,
                },
            )
        };
        let rate = shift(ShiftMetric::AnnounceRate);
        let fanout = shift(ShiftMetric::SessionFanout);
        assert!(rate.sort_key() < fanout.sort_key());
        assert!(shift(ShiftMetric::DistinctAttrs).sort_key() < rate.sort_key());
        for emitted in [[rate.clone(), fanout.clone()], [fanout.clone(), rate.clone()]] {
            let mut alerts = emitted.to_vec();
            sort_alerts(&mut alerts);
            assert_eq!(alerts, [rate.clone(), fanout.clone()], "emission order must not show");
        }
    }
}
