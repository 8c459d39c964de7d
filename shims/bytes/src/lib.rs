//! The one name of the `bytes` crate still in use: `benchmark/` (its
//! `live_flood` workload) writes `BytesMut::new()`. The workspace encodes
//! into a plain `Vec<u8>`; ROADMAP item 15(a) deletes this alias together
//! with the benchmark's use of it.

/// A growable byte buffer: a `Vec<u8>`.
pub type BytesMut = Vec<u8>;
