//! # kcc-bench — experiment harnesses
//!
//! One binary per paper table/figure (see `src/bin/`) and this shared
//! harness library: argument parsing, the simulated beacon-day driver, and
//! paper-vs-measured comparison rendering. Per-layer micro-costs are
//! metrics of the standalone `benchmark/` package, not harnesses here.
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_lab` | §3 Exp1–Exp4 across all vendor profiles |
//! | `sweep` | parallel scenario sweep: vendor × cleaning × MRAI × size |
//! | `table1` | Table 1 (*d_mar20* overview) |
//! | `table2` | Table 2 (type shares, *d_mar20* and *d_beacon*) |
//! | `fig2` | Fig. 2 (daily announcements per type, 2010–2020) |
//! | `fig3` | Fig. 3 (types per session, one beacon prefix, simulated) |
//! | `fig4` | Fig. 4 (cumulative types, geo-tagging path) |
//! | `fig5` | Fig. 5 (cumulative types, egress-cleaning path) |
//! | `fig6` | Fig. 6 (revealed community attributes over time) |
//! | `ablation_cleaning` | cleaning-strategy ablation (§7 recommendation) |
//! | `ablation_mrai` | MRAI pacing vs. exploration burst ablation |
//! | `bench_pipeline` | streaming vs. batch pipeline throughput → `BENCH_pipeline.json` |
//! | `kccd` | the live BGP collector daemon (TCP sessions → pipeline → MRT dumps) |
//! | `bench_live` | loopback TCP BGP ingest throughput → `BENCH_live.json` |
//! | `bench_corpus` | multi-collector corpus throughput → `BENCH_corpus.json` |
//! | `kcc-corpus` | multi-collector corpus CLI (per-collector + combined reports) |
//! | `kcc-watch` | the CommunityWatch service CLI (+ `--eval` / `--soak` gates) |
//! | `bench_watch` | watch-sink throughput + eval timing → `BENCH_watch.json` |
//! | `bench_gate` | ±tolerance updates/s regression gate over two BENCH files |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod beacon_day;
pub mod compare;
pub mod mrtgen;
pub mod sweep;
pub mod watch_eval;

pub use args::Args;
pub use beacon_day::{run_beacon_day, BeaconDayConfig, BeaconDayOutput};
pub use compare::Comparison;
pub use mrtgen::{generate_mrt_day, mrt_day, MrtDay};
pub use sweep::{run_cell, run_sweep, CellResult, CleaningPlacement, SweepCell, SweepConfig};
pub use watch_eval::{eval_library, eval_scenario, EvalResult, EVAL_WINDOW_US};
