//! The repository's benchmark: one harness, five named workloads, one
//! update's journey priced layer by layer. See `benchmark/README.md`.

pub mod aa;
pub mod inputs;
pub mod json;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
