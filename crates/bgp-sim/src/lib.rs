//! # kcc-bgp-sim — discrete-event BGP simulator
//!
//! A deterministic, single-threaded, event-driven BGP simulator in the
//! smoltcp mold: no sockets, no threads, one [`network::Network`] you
//! `poll` until quiescence. It reproduces the routing-message dynamics the
//! paper studies:
//!
//! * per-router **Adj-RIB-In / Loc-RIB / Adj-RIB-Out** with the full
//!   decision process (local-pref → AS-path length → origin → MED →
//!   eBGP-over-iBGP → IGP cost → tie-break) ([`router`], [`decision`]),
//! * **iBGP full mesh / eBGP semantics** including next-hop-self at borders
//!   and no-reflection of iBGP-learned routes ([`router`]),
//! * **import/export policy chains**: Gao–Rexford local-pref, valley-free
//!   export, community tagging (explicit or geo-by-ingress-city), ingress
//!   and egress community cleaning ([`policy`]),
//! * **vendor profiles** encoding the paper's §3 lab findings: Cisco IOS,
//!   IOS-XR and BIRD emit duplicate updates by default, Junos suppresses
//!   them; per-vendor MRAI defaults ([`vendor`]),
//! * **MRAI timers** on eBGP advertisements (withdrawals bypass them, per
//!   RFC 4271 §9.2.1.1),
//! * **link/session events** (flaps) and origin announce/withdraw events,
//! * **capture** at collector routers and on monitored sessions
//!   ([`capture`]),
//! * a **declarative scenario engine** ([`scenario`]): topology template +
//!   scripted event timeline (announces, withdraws, link faults, community
//!   rewrites) + capture expectations, all as data,
//! * the paper's **Figure 1 lab topology** and Exp1–Exp4, expressed as
//!   four scenario specs ([`lab`]),
//! * a **labeled fault library** ([`faults`]): prefix hijack, route
//!   leak, blackhole injection and collector outage as scenario specs
//!   with ground-truth labels — the CommunityWatch detector's eval set.
//!
//! "No sockets" holds at the dependency level: the crate builds on
//! `kcc_bgp_types`, `kcc_topology` and `rand` only — no wire codec, MRT
//! or peer code (CI pins the `cargo tree`). Putting a capture on a real
//! TCP session is the umbrella crate's `adapter` plus
//! `kcc_peer::FloodRig`.
//!
//! Determinism: all event ordering is `(time, sequence)`; all randomness is
//! seeded. The same inputs always produce byte-identical captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod dampening;
pub mod decision;
pub mod event;
pub mod faults;
pub mod lab;
pub mod network;
pub mod policy;
pub mod route;
pub mod router;
pub mod scenario;
pub mod session;
pub mod time;
pub mod vendor;

pub use capture::{Capture, CapturedUpdate};
pub use dampening::DampeningConfig;
pub use event::EventKind;
pub use faults::{fault_library, FaultKind, FaultScenario};
pub use network::{Network, SimConfig};
pub use policy::{ExportPolicy, ImportPolicy};
pub use route::{RibEntry, SimUpdate, UpdateBody};
pub use router::Router;
pub use scenario::{
    CountBound, Expectation, Phase, ScenarioAction, ScenarioEvent, ScenarioOutcome, ScenarioSpec,
    TopologyTemplate,
};
pub use session::{Session, SessionId, SessionKind};
pub use time::{SimDuration, SimTime};
pub use vendor::VendorProfile;
