//! Cross-collector comparison — the analysis side of a multi-vantage
//! corpus run.
//!
//! The paper's Tables 1–3 aggregate many RIPE RIS / RouteViews
//! collectors, and related work (AS-level community-usage
//! classification, CommunityWatch) treats *cross-collector agreement*
//! as a signal in itself: a community seen at every vantage point is
//! propagating globally, one seen at a single collector is scoped,
//! filtered, or anomalous. This module turns one
//! [`PipelineBuilder::collectors`] pass into that
//! comparison:
//!
//! * per-collector Table 1 and Table 2 columns side by side,
//! * a per-community presence/agreement matrix over the collectors,
//! * a deterministic disagreement list (communities visible at some but
//!   not all vantage points),
//! * the combined all-vantage table the per-collector results merge
//!   into.
//!
//! Everything is derived from integer counters and ordered sets merged
//! in collector-name order, so the report is byte-identical for any
//! member order or thread count.

use std::collections::{BTreeMap, BTreeSet};

use kcc_bgp_types::{Community, MessageKind, RouteUpdate};
use kcc_collector::{Corpus, SessionKey, SourceError};

use crate::classify::TypeCounts;
use crate::clean::{CleaningConfig, CleaningReport, CleaningStage};
use crate::pipeline::{AnalysisSink, Merge, PipelineBuilder, PipelineStats};
use crate::registry::AllocationRegistry;
use crate::report::{fmt_count, render_table};
use crate::stream::CountsSink;
use crate::table::{OverviewSink, OverviewStats, TypeShares};

/// Collects the set of distinct classic communities seen on a feed —
/// the per-collector half of the presence/agreement matrix. State grows
/// with the community *universe* (tens of thousands at internet scale),
/// never with update volume.
#[derive(Debug, Clone, Default)]
pub struct CommunitySetSink {
    seen: BTreeSet<Community>,
}

impl CommunitySetSink {
    /// The communities seen, in ascending order.
    pub fn finish(self) -> BTreeSet<Community> {
        self.seen
    }
}

impl AnalysisSink for CommunitySetSink {
    fn on_update(&mut self, _session: &SessionKey, u: &RouteUpdate) {
        if let MessageKind::Announcement(attrs) = &u.kind {
            self.seen.extend(attrs.communities.iter_classic().copied());
        }
    }

    fn wants_events(&self) -> bool {
        false
    }
}

impl Merge for CommunitySetSink {
    fn merge(&mut self, other: Self) {
        self.seen.extend(other.seen);
    }
}

/// The cross-collector presence/agreement matrix: which
/// collectors have seen which communities, and in which detection
/// window each `(community, collector)` pair first appeared.
///
/// Built once from finished rows: the batch corpus report's from the
/// per-collector community sets (every sighting in window 0), the
/// online watch service's from the rows it keeps by collector id while
/// it runs. Per-window deltas read back with [`window_delta`].
///
/// [`window_delta`]: AgreementMatrix::window_delta
#[derive(Debug, Clone)]
pub struct AgreementMatrix {
    /// All known collectors (columns), sorted by name.
    collectors: Vec<String>,
    /// Per community: `(column, window of the first sighting)` for each
    /// collector that saw it, ascending by column.
    rows: BTreeMap<Community, Vec<(u32, u64)>>,
}

impl AgreementMatrix {
    /// A matrix from finished rows: `collectors` sorted and unique, each
    /// row ascending by column (its index into `collectors`).
    pub(crate) fn from_rows(
        collectors: Vec<String>,
        rows: impl IntoIterator<Item = (Community, Vec<(u32, u64)>)>,
    ) -> Self {
        AgreementMatrix { collectors, rows: rows.into_iter().collect() }
    }

    /// Collector column names, sorted.
    pub fn collector_names(&self) -> impl Iterator<Item = &str> {
        self.collectors.iter().map(String::as_str)
    }

    /// Number of collector columns.
    pub fn collector_count(&self) -> usize {
        self.collectors.len()
    }

    /// Number of distinct communities seen anywhere.
    pub fn community_count(&self) -> usize {
        self.rows.len()
    }

    /// The presence matrix: every community, ascending, with one flag
    /// per collector (column order = sorted collector names).
    pub fn presence(&self) -> Vec<(Community, Vec<bool>)> {
        self.rows
            .iter()
            .map(|(comm, row)| {
                let mut flags = vec![false; self.collectors.len()];
                for &(column, _) in row {
                    flags[column as usize] = true;
                }
                (*comm, flags)
            })
            .collect()
    }

    /// Communities seen by at least one but not every collector, with
    /// their presence flags, in ascending community order.
    pub fn disagreements(&self) -> Vec<(Community, Vec<bool>)> {
        self.presence().into_iter().filter(|(_, flags)| !flags.iter().all(|&f| f)).collect()
    }

    /// `(distinct communities, seen by every collector, disputed)`.
    pub fn summary(&self) -> (usize, usize, usize) {
        let total = self.rows.len();
        let n = self.collectors.len();
        let unanimous = self.rows.values().filter(|row| row.len() == n).count();
        (total, unanimous, total - unanimous)
    }

    /// The `(community, collector)` pairs first sighted in `window`, in
    /// ascending (community, collector) order — what changed in the
    /// matrix that window.
    pub fn window_delta(&self, window: u64) -> Vec<(Community, &str)> {
        self.rows
            .iter()
            .flat_map(|(comm, row)| {
                row.iter()
                    .filter(move |&&(_, w)| w == window)
                    .map(|&(column, _)| (*comm, self.collectors[column as usize].as_str()))
            })
            .collect()
    }
}

/// The sink stack a corpus comparison runs per collector: Table 1,
/// Table 2 and the community-presence set.
pub type CorpusSink = (OverviewSink, CountsSink, CommunitySetSink);

/// A fresh [`CorpusSink`] (the factory
/// [`CorpusBuilder::sinks_for`](crate::pipeline::CorpusBuilder::sinks_for)
/// wants).
pub fn corpus_sink() -> CorpusSink {
    (OverviewSink::default(), CountsSink::default(), CommunitySetSink::default())
}

/// One collector's column of the comparison.
#[derive(Debug, Clone)]
pub struct CollectorColumn {
    /// Collector name.
    pub name: String,
    /// Its Table 1.
    pub overview: OverviewStats,
    /// Its Table 2 counts.
    pub counts: TypeCounts,
    /// What its §4 cleaning pass did.
    pub cleaning: CleaningReport,
    /// The distinct classic communities it observed.
    pub communities: BTreeSet<Community>,
    /// Its pipeline statistics.
    pub stats: PipelineStats,
}

/// The cross-collector comparison for one corpus run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Per-collector columns, sorted by collector name.
    pub collectors: Vec<CollectorColumn>,
    /// The combined all-vantage Table 1.
    pub combined_overview: OverviewStats,
    /// The combined all-vantage Table 2 counts.
    pub combined_counts: TypeCounts,
    /// The cross-collector presence/agreement matrix (built once from
    /// the per-collector community sets; [`presence`],
    /// [`disagreements`] and [`agreement_summary`] read it instead of
    /// recomputing the union per call).
    ///
    /// [`presence`]: CorpusReport::presence
    /// [`disagreements`]: CorpusReport::disagreements
    /// [`agreement_summary`]: CorpusReport::agreement_summary
    pub matrix: AgreementMatrix,
    /// Combined pipeline statistics (name-order merge of the columns).
    pub stats: PipelineStats,
}

/// How many disputed communities [`CorpusReport::render`] prints in the
/// presence matrix before eliding the tail (the count is always shown).
pub const MATRIX_RENDER_CAP: usize = 20;

/// Runs a corpus through per-collector §4 cleaning and the
/// [`CorpusSink`] stack, and folds the outputs into a [`CorpusReport`].
/// One registry covers all collectors (allocation is global); cleaning
/// state and reports stay per collector.
pub fn run_corpus_report(
    corpus: Corpus<'_>,
    threads: usize,
    registry: &AllocationRegistry,
    cleaning: CleaningConfig,
) -> Result<CorpusReport, SourceError> {
    let out = PipelineBuilder::collectors(corpus)
        .threads(threads)
        .stages_for(|_: &str| CleaningStage::new(registry, cleaning))
        .sinks_for(|_: &str| corpus_sink())
        .run()?;
    let (combined_overview, combined_counts, _) = out.combined;
    let collectors: Vec<CollectorColumn> = out
        .per_collector
        .into_iter()
        .map(|(name, o)| {
            let (overview, counts, communities) = o.sink;
            CollectorColumn {
                name,
                overview: overview.finish(),
                counts: counts.finish(),
                cleaning: o.stages.report(),
                communities: communities.finish(),
                stats: o.stats,
            }
        })
        .collect();
    // Columns are the members in name order, so every row is built
    // ascending by column.
    let mut rows: BTreeMap<Community, Vec<(u32, u64)>> = BTreeMap::new();
    for (column, col) in (0u32..).zip(&collectors) {
        for &comm in &col.communities {
            rows.entry(comm).or_default().push((column, 0));
        }
    }
    let matrix =
        AgreementMatrix::from_rows(collectors.iter().map(|c| c.name.clone()).collect(), rows);
    Ok(CorpusReport {
        collectors,
        combined_overview: combined_overview.finish(),
        combined_counts: combined_counts.finish(),
        matrix,
        stats: out.stats,
    })
}

impl CorpusReport {
    /// Number of collectors.
    pub fn collector_count(&self) -> usize {
        self.collectors.len()
    }

    /// Registers the per-collector progress counters in `registry`,
    /// labeled `collector="name"`: updates pulled, updates kept, streams
    /// touched, and what the §4 cleaning pass dropped. Collector-order
    /// independent — the registry renders name-sorted regardless of
    /// registration order.
    pub fn export_metrics(&self, registry: &kcc_obs::Registry) {
        for col in &self.collectors {
            let labels: &[(&str, &str)] = &[("collector", &col.name)];
            registry.counter_with("kcc_corpus_updates_total", labels).add(col.stats.updates);
            registry.counter_with("kcc_corpus_updates_kept_total", labels).add(col.stats.kept);
            registry.gauge_with("kcc_corpus_streams", labels).set(col.stats.streams as i64);
            registry
                .counter_with("kcc_corpus_cleaning_dropped_asn_total", labels)
                .add(col.cleaning.removed_unallocated_asn);
            registry
                .counter_with("kcc_corpus_cleaning_dropped_prefix_total", labels)
                .add(col.cleaning.removed_unallocated_prefix);
            registry
                .counter_with("kcc_corpus_sessions_normalized_total", labels)
                .add(col.cleaning.sessions_normalized);
        }
        registry.counter("kcc_corpus_combined_updates_total").add(self.stats.updates);
    }

    /// The presence matrix: every community seen anywhere, ascending,
    /// with one presence flag per collector (column order =
    /// `self.collectors` order, i.e. sorted names). Reads the
    /// [`AgreementMatrix`] built once per run — no per-call union recompute.
    pub fn presence(&self) -> Vec<(Community, Vec<bool>)> {
        self.matrix.presence()
    }

    /// Communities seen by at least one but not every collector —
    /// the disagreement list, in ascending community order (total and
    /// deterministic).
    pub fn disagreements(&self) -> Vec<(Community, Vec<bool>)> {
        self.matrix.disagreements()
    }

    /// `(distinct communities, seen by every collector, disputed)` —
    /// `total = unanimous + disputed`.
    pub fn agreement_summary(&self) -> (usize, usize, usize) {
        self.matrix.summary()
    }

    /// Renders the full comparison: per-collector Table 1 + Table 2 side
    /// by side (with the combined column), cleaning summary, agreement
    /// summary and the disputed-community presence matrix (capped at
    /// [`MATRIX_RENDER_CAP`] rows). Byte-identical for any member order
    /// or thread count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self.collectors.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&format!(
            "Corpus: {} collectors ({}), {} updates\n\n",
            self.collectors.len(),
            names.join(", "),
            fmt_count(self.stats.updates),
        ));

        // Table 1, one column per collector plus the combined day.
        let mut headers: Vec<&str> = vec!["Table 1"];
        headers.extend(names.iter().copied());
        headers.push("all");
        type OverviewField = (&'static str, fn(&OverviewStats) -> u64);
        let field_rows: [OverviewField; 10] = [
            ("IPv4 prefixes", |s| s.ipv4_prefixes),
            ("IPv6 prefixes", |s| s.ipv6_prefixes),
            ("ASes", |s| s.ases),
            ("Sessions", |s| s.sessions),
            ("Peers", |s| s.peers),
            ("Announcements", |s| s.announcements),
            ("w/ communities", |s| s.with_communities),
            ("uniq. 16 bits", |s| s.uniq_16bit),
            ("uniq. AS paths", |s| s.uniq_as_paths),
            ("Withdrawals", |s| s.withdrawals),
        ];
        let rows: Vec<Vec<String>> = field_rows
            .iter()
            .map(|(label, get)| {
                let mut row = vec![label.to_string()];
                row.extend(self.collectors.iter().map(|c| fmt_count(get(&c.overview))));
                row.push(fmt_count(get(&self.combined_overview)));
                row
            })
            .collect();
        out.push_str(&render_table(&headers, &rows));
        out.push('\n');

        // §4 cleaning, per collector.
        let mut headers: Vec<&str> = vec!["Cleaning"];
        headers.extend(names.iter().copied());
        type CleaningField = (&'static str, fn(&CleaningReport) -> u64);
        let cleaning_rows: [CleaningField; 4] = [
            ("kept", |r| r.kept),
            ("bogon ASN drops", |r| r.removed_unallocated_asn),
            ("bogon prefix drops", |r| r.removed_unallocated_prefix),
            ("normalized sessions", |r| r.sessions_normalized),
        ];
        let rows: Vec<Vec<String>> = cleaning_rows
            .iter()
            .map(|(label, get)| {
                let mut row = vec![label.to_string()];
                row.extend(self.collectors.iter().map(|c| fmt_count(get(&c.cleaning))));
                row
            })
            .collect();
        out.push_str(&render_table(&headers, &rows));
        out.push('\n');

        // Table 2 side by side.
        let mut columns: Vec<(String, TypeCounts)> =
            self.collectors.iter().map(|c| (c.name.clone(), c.counts)).collect();
        columns.push(("all".into(), self.combined_counts));
        out.push_str(&TypeShares::new(columns).render());
        out.push('\n');

        // Community agreement.
        let (total, unanimous, disputed) = self.matrix.summary();
        let share = if total == 0 { 0.0 } else { unanimous as f64 * 100.0 / total as f64 };
        out.push_str(&format!(
            "Community agreement: {total} distinct communities; {unanimous} \
             ({share:.1}%) seen at all {} collectors; {disputed} disputed\n",
            self.collectors.len(),
        ));
        let disagreements = self.matrix.disagreements();
        if !disagreements.is_empty() {
            let mut headers: Vec<&str> = vec!["community"];
            headers.extend(names.iter().copied());
            let rows: Vec<Vec<String>> = disagreements
                .iter()
                .take(MATRIX_RENDER_CAP)
                .map(|(comm, flags)| {
                    let mut row = vec![comm.to_string()];
                    row.extend(flags.iter().map(|&f| (if f { "+" } else { "." }).to_string()));
                    row
                })
                .collect();
            out.push_str(&render_table(&headers, &rows));
            if disagreements.len() > MATRIX_RENDER_CAP {
                out.push_str(&format!(
                    "… and {} more disputed communities\n",
                    disagreements.len() - MATRIX_RENDER_CAP
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::{Asn, CommunitySet, PathAttributes, Prefix};
    use kcc_collector::{ArchiveSource, UpdateArchive};

    fn announce(t: u64, comms: &[(u16, u16)]) -> RouteUpdate {
        let attrs = PathAttributes {
            as_path: "20205 3356 12654".parse().unwrap(),
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        };
        RouteUpdate::announce(t, "84.205.64.0/24".parse().unwrap(), attrs)
    }

    fn archive(collector: &str, comms: &[&[(u16, u16)]]) -> UpdateArchive {
        let mut a = UpdateArchive::new(0);
        let k = SessionKey::new(collector, Asn(20_205), "192.0.2.9".parse().unwrap());
        for (i, c) in comms.iter().enumerate() {
            a.record(&k, announce(i as u64, c));
        }
        a
    }

    fn registry() -> AllocationRegistry {
        let mut r = AllocationRegistry::new();
        for asn in [20_205u32, 3356, 12_654] {
            r.register_asn(Asn(asn), 0);
        }
        r.register_block("84.205.0.0/16".parse::<Prefix>().unwrap(), 0);
        r
    }

    fn report() -> CorpusReport {
        let a = archive("rrc00", &[&[(3356, 1)], &[(3356, 2)]]);
        let b = archive("rrc01", &[&[(3356, 1)], &[(3356, 3)]]);
        let corpus = Corpus::new()
            .with("rrc01", ArchiveSource::new(&b))
            .unwrap()
            .with("rrc00", ArchiveSource::new(&a))
            .unwrap();
        run_corpus_report(corpus, 2, &registry(), CleaningConfig::default()).unwrap()
    }

    #[test]
    fn presence_and_disagreements() {
        let r = report();
        assert_eq!(r.collectors[0].name, "rrc00", "columns sorted by name");
        let presence = r.presence();
        assert_eq!(presence.len(), 3, "3356:1, 3356:2, 3356:3");
        assert_eq!(presence[0], (Community::from_parts(3356, 1), vec![true, true]));
        let disputes = r.disagreements();
        assert_eq!(
            disputes,
            vec![
                (Community::from_parts(3356, 2), vec![true, false]),
                (Community::from_parts(3356, 3), vec![false, true]),
            ]
        );
        assert_eq!(r.agreement_summary(), (3, 1, 2));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let r1 = report().render();
        let r2 = report().render();
        assert_eq!(r1, r2);
        assert!(r1.contains("Table 1"));
        assert!(r1.contains("rrc00"));
        assert!(r1.contains("rrc01"));
        assert!(r1.contains("all"));
        assert!(r1.contains("Community agreement: 3 distinct"));
        assert!(r1.contains("3356:2"));
    }

    #[test]
    fn matrix_keeps_empty_collector_columns() {
        let a = archive("rrc00", &[&[(3356, 1)]]);
        let b = archive("rrc01", &[&[]]);
        let corpus = Corpus::new()
            .with("rrc00", ArchiveSource::new(&a))
            .unwrap()
            .with("rrc01", ArchiveSource::new(&b))
            .unwrap();
        let r = run_corpus_report(corpus, 1, &registry(), CleaningConfig::default()).unwrap();
        // rrc01 saw no community, but its column still makes the row disputed.
        assert_eq!(r.matrix.collector_names().collect::<Vec<_>>(), ["rrc00", "rrc01"]);
        assert_eq!(r.agreement_summary(), (1, 0, 1));
        assert_eq!(r.presence(), vec![(Community::from_parts(3356, 1), vec![true, false])]);
    }

    #[test]
    fn report_matrix_matches_column_sets() {
        let r = report();
        assert_eq!(r.matrix.collector_count(), 2);
        assert_eq!(r.matrix.community_count(), 3);
        assert_eq!(r.matrix.summary(), r.agreement_summary());
    }

    #[test]
    fn combined_equals_merged_columns() {
        let r = report();
        assert_eq!(
            r.combined_overview.announcements,
            r.collectors.iter().map(|c| c.overview.announcements).sum::<u64>()
        );
        assert_eq!(r.stats.updates, 4);
    }
}
