//! A fast, non-cryptographic hasher for internal hot-path maps.
//!
//! The classifier's stream tables, allocation registry, overview sinks and
//! session tables key on small values (u32 ASNs, short AS paths, prefix
//! tuples) that they probe once per update. The std `HashMap` default
//! (SipHash-1-3) is DoS-resistant but pays ~2× on such keys; these maps
//! hold internal state derived from data we already fully parse and
//! bound, so collision-flooding is not part of their threat model.
//!
//! [`FastHasher`] is a word-at-a-time multiply-rotate mixer (the
//! FxHash family): each 8-byte chunk is rotated into the state and
//! multiplied by a Weyl constant. Deterministic across runs and
//! platforms of the same endianness — but *not* a stable hash to
//! persist; use it only for in-memory tables.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: the golden-ratio Weyl constant (2^64 / φ), odd so the
/// multiply permutes the 64-bit state.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiply-rotate hasher. See the module docs for when
/// (not) to use it.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits (what HashMap masks on) depend on
        // every input word.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] maps.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_within_process() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"as path"), hash_of(&"as path"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a collision-resistance claim — just a sanity check that
        // the mixer doesn't collapse the patterns these maps actually
        // store (small integers, short byte strings).
        let hashes: HashSet<u64> = (0u32..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000, "sequential u32 keys must not collide");
    }

    #[test]
    fn low_bits_spread() {
        // HashMap masks the low bits for the bucket index; sequential
        // keys must not all land in a handful of buckets.
        let mut buckets = [0u32; 64];
        for i in 0u32..6_400 {
            buckets[(hash_of(&i) & 63) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 400, "bucket skew too high: {max}/6400 in one of 64 buckets");
    }

    #[test]
    fn chunked_write_covers_all_tails() {
        // 8-byte, 4-byte and 1-byte tails must all contribute.
        let a: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
        for cut in 0..a.len() {
            let mut changed = a.to_vec();
            changed[cut] ^= 0xff;
            assert_ne!(hash_of(&a.to_vec()), hash_of(&changed), "byte {cut} ignored");
        }
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FastHashMap<String, u32> = FastHashMap::default();
        m.insert("10 3356 12654".into(), 1);
        m.insert("10 174 12654".into(), 2);
        assert_eq!(m.get("10 3356 12654"), Some(&1));
        let mut s: FastHashSet<u32> = FastHashSet::default();
        s.insert(3356);
        assert!(s.contains(&3356));
    }
}
