//! # kcc-tracegen — statistical BGP update trace generation
//!
//! The paper analyzes ~1 billion updates per sampled day from RouteViews
//! and RIPE RIS. Those archives are not redistributable at repository
//! scale, so this crate synthesizes update streams from the *generative
//! mechanisms* the paper identifies, at a configurable scale:
//!
//! * a [`universe`] of collectors, peer sessions, transit ASes (some of
//!   which geo-tag), origin ASes and prefixes — with route-server peers
//!   and second-granularity collectors mixed in as in the real systems;
//! * per-`(session, prefix)` [`streams`] whose event processes produce the
//!   paper's announcement types *mechanistically*: path changes between
//!   candidate routes (`pc`/`pn`), upstream community churn (`nc`, or `nn`
//!   through egress-cleaning peers), iBGP/MED duplicates (`nn`), and rare
//!   prepend toggles (`xc`/`xn`);
//! * a March-2020-style snapshot ([`mar20`]) whose Table 1/Table 2
//!   statistics match the paper's *shape* at `scale < 1`;
//! * per-collector vantages of that same day ([`multi_vantage_corpus`]) — the
//!   paper's "same day, many collectors" corpus with a configurable
//!   second-granularity subset;
//! * beacon streams ([`beacons`]) driven by the RIS announce/withdraw
//!   timetable with community-exploration bursts during withdrawal
//!   phases;
//! * a longitudinal series ([`hist`]) with parameters evolving 2010→2020
//!   (session growth, community adoption) for Figs. 2 and 6.
//!
//! Everything is seeded and deterministic. The generated archives flow
//! through MRT and the identical `kcc-core` pipeline used for simulator
//! output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacons;
pub mod hist;
pub mod mar20;
pub mod multi_vantage;
pub mod streams;
pub mod universe;

pub use mar20::{generate_mar20, GenOutput, Mar20Config, Mar20Source};
pub use multi_vantage::{
    multi_vantage_corpus, vantage_names, write_vantage_mrt, MultiVantageConfig, VantageSource,
};
pub use universe::{PeerSpec, PrefixSpec, TransitSpec, Universe};
