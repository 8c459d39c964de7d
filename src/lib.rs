//! # keep-communities-clean
//!
//! Reproduction of *Keep your Communities Clean: Exploring the Routing
//! Message Impact of BGP Communities* (Krenc, Beverly, Smaragdakis —
//! CoNEXT 2020).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`types`] — BGP data model (ASNs, prefixes, communities, AS paths),
//! * [`wire`] — RFC 4271 message codec,
//! * [`mrt`] — RFC 6396 archive format,
//! * [`topology`] — AS-level Internet generation (Gao–Rexford),
//! * [`sim`] — discrete-event BGP simulator with vendor profiles and the
//!   paper's Figure 1 lab experiments,
//! * [`collector`] — collector sessions, archives, routing beacons,
//! * [`peer`] — live BGP sessions: the RFC 4271 FSM, one resumable
//!   framer, the `FloodRig` archive-replay client, and the multi-peer
//!   collector daemon feeding the streaming pipeline,
//! * [`tracegen`] — statistical RouteViews/RIS-scale trace generation,
//! * [`analysis`] — the paper's analysis pipeline (cleaning, the
//!   pc/pn/nc/nn/xc/xn classifier, community exploration, revealed
//!   information),
//!
//! plus [`adapter`], which bridges simulator captures into analysis
//! archives.
//!
//! ## Quickstart
//!
//! ```
//! use keep_communities_clean::sim::lab::{run_experiment, LabExperiment};
//! use keep_communities_clean::sim::VendorProfile;
//!
//! // Reproduce the paper's Exp2: a community change alone propagates to
//! // the route collector.
//! let report = run_experiment(LabExperiment::Exp2, VendorProfile::CISCO_IOS);
//! assert_eq!(report.at_collector.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kcc_bgp_sim as sim;
pub use kcc_bgp_types as types;
pub use kcc_bgp_wire as wire;
pub use kcc_collector as collector;
pub use kcc_core as analysis;
pub use kcc_mrt as mrt;
pub use kcc_obs as obs;
pub use kcc_peer as peer;
pub use kcc_topology as topology;
pub use kcc_tracegen as tracegen;

pub mod adapter;
