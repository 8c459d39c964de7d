//! # kcc-peer — live BGP sessions and the collector daemon
//!
//! The paper's entire measurement surface is route collectors holding
//! long-lived BGP sessions with hundreds of peers. This crate is the live
//! side of that infrastructure — everything between a TCP socket and the
//! streaming analysis pipeline:
//!
//! * [`fsm`]: the RFC 4271 session state machine (Idle → Connect/Active →
//!   OpenSent → OpenConfirm → Established) as a **pure, deterministic**
//!   transition function: events in, actions out, timers as explicit
//!   deadlines against a caller-supplied clock — no sleeps, no sockets,
//!   unit-testable to the edge transitions,
//! * [`clock`]: the injectable millisecond clock the FSM's timers are
//!   measured against ([`WallClock`] in production, [`ManualClock`] in
//!   tests),
//! * [`sys`]: raw readiness syscalls (epoll on Linux, `poll(2)`
//!   portable) behind one `Poller` trait — the only module allowed to
//!   use `unsafe`, and only for straight FFI,
//! * [`reactor`]: the event-driven session engine — thousands of
//!   nonblocking sessions (a timer wheel driven by the FSM's deadlines)
//!   multiplexed over a bounded pool of shard threads; its
//!   [`reactor::framing`] is the crate's only framer — length-prefixed
//!   cuts, capability-aware decode configuration, capped write backlogs
//!   — for blocking and nonblocking readers alike,
//! * [`config`]: the running/candidate [`ConfigStore`] with
//!   commit/discard semantics — peers, listeners, stamping, rotation and
//!   trace levels hot-reload into a live daemon,
//! * [`trace`]: re-export of [`kcc_obs::trace`] — the dynamic
//!   per-target trace filter (runtime-adjustable verbosity with a
//!   lock-free off fast path) now lives in the observability crate so
//!   every layer can emit filtered diagnostics,
//! * [`control`]: the line-protocol control socket driving the config
//!   store from outside the process,
//! * [`active`]: the one-session blocking speaker (the paced-latency
//!   benchmark's client): dial, handshake through the same FSM with
//!   reads framed by [`reactor::framing::FrameBuffer`], then stream
//!   UPDATEs,
//! * [`flood`]: the nonblocking many-session client — replays an
//!   [`kcc_collector::UpdateArchive`] (or any plan) into a daemon as
//!   thousands of concurrent sessions from a single thread; the one way
//!   tests, soaks and benchmarks put an archive on the wire,
//! * [`rotate`]: periodic MRT dump rotation, so live capture round-trips
//!   through the same offline files a RouteViews/RIS download would,
//! * [`collector`]: the multi-peer collector daemon — reactor-backed
//!   accept loop, session registry, arrival stamping, MRT rotation, and
//!   a [`kcc_collector::LiveSource`] feeding `kcc_core`'s pipeline: the
//!   shards stamp under one ingest table and hand batches straight to
//!   its bounded ring, with no thread in between.
//!
//! Everything is `std`-only: no async runtime, no external event
//! library — the reactor sits directly on `epoll`/`poll`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod clock;
pub mod collector;
pub mod config;
pub mod control;
pub mod flood;
pub mod fsm;
pub mod reactor;
pub mod rotate;
pub mod sys;

/// Back-compat re-export: the trace filter moved to [`kcc_obs`].
pub use kcc_obs::trace;

pub use active::{ActiveSpeaker, PeerError};
pub use clock::{Clock, ManualClock, WallClock};
pub use collector::{offline_reference, Collector, CollectorConfig, CollectorStats, StampMode};
pub use config::{ConfigStore, DaemonConfig, PeerPolicy};
pub use control::ControlServer;
pub use flood::{FloodOptions, FloodPlan, FloodReport, FloodRig};
pub use fsm::{Action, DownReason, EstablishedInfo, Fsm, FsmConfig, FsmEvent, State};
pub use reactor::{LiveGauges, ReactorConfig};
pub use rotate::{MrtRotator, RotateConfig};
pub use sys::PollerKind;
pub use trace::{TraceConfig, TraceFilter, TraceLevel};
