//! # kcc-collector — route collector infrastructure
//!
//! Route collectors (RouteViews, RIPE RIS) are passive BGP speakers that
//! archive every update their peers send. This crate models the pieces of
//! that infrastructure the paper's methodology depends on:
//!
//! * [`session`]: collector/peer session identities — the unit the paper
//!   groups announcements by — including IXP route-server peers that omit
//!   their own ASN,
//! * [`archive`]: per-session update archives with MRT import/export, so
//!   simulated and generated data take the same path a RouteViews download
//!   would,
//! * [`beacon`]: the RIPE routing-beacon schedule (announce every 4 h from
//!   00:00 UTC, withdraw every 4 h from 02:00 UTC) and phase
//!   classification with the paper's ±15-minute windows,
//! * [`timestamps`]: the paper's normalization rule for collectors that
//!   record at single-second granularity (preserve order, space
//!   same-second arrivals 0.01 ms apart),
//! * [`source`]: the [`UpdateSource`] abstraction the streaming analysis
//!   pipeline pulls from — materialized archives and record-at-a-time MRT
//!   byte streams behind one trait,
//! * [`corpus`]: named multi-collector corpora — N [`UpdateSource`]s
//!   (MRT files/dirs, archives, live feeds) grouped under collector
//!   names for the parallel cross-vantage engine in
//!   `kcc_core::PipelineBuilder::collectors`,
//! * [`live`]: the live end of that abstraction — a [`LiveSource`] read
//!   from one bounded ring of batches that a running collector daemon
//!   (`kcc_peer`) fills through [`LiveSender`]s, plus the
//!   [`ShutdownFlag`] that lets unbounded runs finish gracefully,
//! * [`MrtDirSource`]: a directory of rotated MRT dumps streamed as one
//!   collector feed, optionally following the
//!   directory for new files — the bridge between a daemon's on-disk
//!   capture and an always-on analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod beacon;
pub mod corpus;
pub mod dir_source;
pub mod live;
pub mod session;
pub mod source;
pub mod timestamps;

pub use archive::UpdateArchive;
pub use beacon::{BeaconEvent, BeaconPhase, BeaconSchedule};
pub use corpus::{Corpus, MrtFileOptions, NamedSource};
pub use dir_source::{first_record_day, MrtDirSource};
pub use live::{LiveSender, LiveSource, ShutdownFlag, LIVE_RING_ITEMS};
pub use session::{PeerMeta, SessionKey};
pub use source::{ArchiveSource, MrtSource, SourceError, SourceItem, UpdateSource};
pub use timestamps::normalize_timestamps;
