//! # kcc-core — the community-impact analysis pipeline
//!
//! The paper's primary contribution, as a library: given per-session BGP
//! update streams (from MRT archives, the simulator, or the trace
//! generator), quantify how BGP communities inflate routing message
//! traffic.
//!
//! Pipeline stages, in the order the paper applies them:
//!
//! 1. **Cleaning** ([`clean`], [`registry`]): drop messages with
//!    unallocated ASNs/prefixes at message time, insert route-server ASNs
//!    into AS paths, normalize second-granularity timestamps (§4).
//! 2. **Stream grouping + classification** ([`classify`], [`stream`]):
//!    group by `(prefix, session)` in arrival order and label each
//!    announcement `pc`/`pn`/`nc`/`nn`/`xc`/`xn` by what changed relative
//!    to its predecessor (§5, Table 2), with MED-change attribution for
//!    `nn`.
//! 3. **Overview statistics** ([`table`]): the Table 1 dataset summary and
//!    the Table 2 type-share breakdown.
//! 4. **Beacon phase labeling** ([`beacon_phase`]): attribute updates to
//!    announcement/withdrawal phases with the paper's 15-minute windows.
//! 5. **Community exploration** ([`exploration`]): detect `nc` bursts
//!    during withdrawal phases and decode the geo locations they reveal
//!    (§6, Fig. 4).
//! 6. **Revealed information** ([`revealed`]): count unique community
//!    attributes revealed exclusively during withdrawal phases (§6,
//!    Fig. 6).
//! 7. **Per-session distributions** ([`sessions`], Fig. 3) and
//!    **cumulative timelines** ([`cumsum`], Figs. 4–5).
//! 8. **Longitudinal aggregation** ([`longitudinal`], Figs. 2 and 6) and
//!    **text/CSV rendering** ([`report`]).
//!
//! The paper's §7 future-work directions are implemented as well:
//! per-AS behavior inference ([`tomography`]: tag / filter / ignore),
//! interconnection-count inference from geo tags ([`interconnect`]), and
//! anomalous-community detection ([`anomaly`]), which runs as one more
//! sink: CommunityWatch's [`WatchSink`] ([`watch`]) with a trained
//! [`CommunityProfiler`] attached.
//!
//! ## One form: sinks
//!
//! Every analysis is an [`AnalysisSink`] run over any [`UpdateSource`]
//! by [`PipelineBuilder`], the one way to run it — one pass, constant
//! memory per `(prefix, session)` stream, and no classified event kept
//! past the sinks that fold it. [`PipelineBuilder::collectors`] fans a
//! corpus out one pipeline per collector. The helpers over a materialized archive
//! ([`classify_archive`], [`table::overview`],
//! [`sessions::session_type_distribution`], …) run their sink through an
//! [`ArchiveSource`] on that same path; [`clean_archive`] applies the
//! [`CleaningStage`] to an archive in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod anomaly;
pub mod beacon_phase;
pub mod classify;
pub mod clean;
pub mod corpus;
pub mod cumsum;
pub mod exploration;
pub mod interconnect;
pub mod longitudinal;
pub mod pipeline;
pub mod registry;
pub mod report;
pub mod revealed;
pub mod sessions;
pub mod stream;
pub mod table;
pub mod tomography;
pub mod watch;

pub use alert::{sort_alerts, Alert, AlertKind, Severity, ShiftMetric};
pub use anomaly::{AnomalyConfig, CommunityProfiler};
pub use classify::{classify_pair, AnnouncementType, TypeCounts};
pub use clean::{clean_archive, CleaningConfig, CleaningReport, CleaningStage};
pub use corpus::{
    corpus_sink, run_corpus_report, AgreementMatrix, CollectorColumn, CommunitySetSink,
    CorpusReport, CorpusSink,
};
pub use kcc_collector::{
    ArchiveSource, Corpus, LiveSource, MrtDirSource, MrtFileOptions, MrtSource, NamedSource,
    ShutdownFlag, SourceError, SourceItem, UpdateSource,
};
pub use pipeline::{
    AnalysisSink, CorpusBuilder, CorpusOutput, Merge, NoSink, PipelineBuilder, PipelineOutput,
    PipelineProfile, PipelineStats, Stage,
};
pub use registry::AllocationRegistry;
pub use stream::{classify_archive, ClassifiedEvent, CountsSink, EventKind, StreamClassifier};
pub use table::{OverviewSink, OverviewStats, TypeShares};
pub use watch::{WatchConfig, WatchReport, WatchSink};
