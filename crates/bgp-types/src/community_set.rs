//! The community *attribute*: an ordered, deduplicated set of communities.
//!
//! The paper's classifier asks one question of two successive announcements:
//! *did the community attribute change?* [`CommunitySet`] makes that a plain
//! `==`: communities are stored sorted and deduplicated across all three
//! families (classic, extended, large), so set equality is value equality.
//!
//! The set also hosts the *cleaning* operations the paper studies —
//! stripping all communities, or only those whose high half matches a
//! neighbor — which the simulator's import/export policies call.

use std::fmt;

use crate::community::Community;
use crate::extended::ExtendedCommunity;
use crate::large::LargeCommunity;

/// An ordered, deduplicated set of classic + extended + large communities.
///
/// Equality across the full attribute is the paper's "community changed"
/// predicate. An absent attribute and an empty attribute compare equal on
/// purpose: the paper counts "two empty community attributes in succession"
/// as *no change* (`nn`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CommunitySet {
    classic: Vec<Community>,
    extended: Vec<ExtendedCommunity>,
    large: Vec<LargeCommunity>,
}

impl CommunitySet {
    /// Creates an empty community set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from classic communities only (the common case in the
    /// paper's data).
    pub fn from_classic<I: IntoIterator<Item = Community>>(iter: I) -> Self {
        let mut s = Self::new();
        for c in iter {
            s.insert(c);
        }
        s
    }

    /// Builds a set from possibly unsorted, possibly duplicated vectors of
    /// all three families — one sort + dedup per family instead of a
    /// `binary_search` + `Vec::insert` shuffle per element. This is the
    /// decode-path constructor: a wire attribute's communities arrive as a
    /// run, so building in bulk is O(n log n) with no mid-vector moves.
    pub fn from_unsorted(
        classic: Vec<Community>,
        extended: Vec<ExtendedCommunity>,
        large: Vec<LargeCommunity>,
    ) -> Self {
        let mut s = CommunitySet { classic, extended, large };
        s.classic.sort_unstable();
        s.classic.dedup();
        s.extended.sort_unstable();
        s.extended.dedup();
        s.large.sort_unstable();
        s.large.dedup();
        s
    }

    /// Heap bytes held by the three family vectors, counted at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.classic.capacity() * std::mem::size_of::<Community>()
            + self.extended.capacity() * std::mem::size_of::<ExtendedCommunity>()
            + self.large.capacity() * std::mem::size_of::<LargeCommunity>()
    }

    /// True if no community of any family is present.
    pub fn is_empty(&self) -> bool {
        self.classic.is_empty() && self.extended.is_empty() && self.large.is_empty()
    }

    /// Total number of communities across all families.
    pub fn len(&self) -> usize {
        self.classic.len() + self.extended.len() + self.large.len()
    }

    /// Inserts a classic community, keeping the set sorted and unique.
    /// Returns true if it was newly inserted.
    pub fn insert(&mut self, c: Community) -> bool {
        match self.classic.binary_search(&c) {
            Ok(_) => false,
            Err(pos) => {
                self.classic.insert(pos, c);
                true
            }
        }
    }

    /// Inserts an extended community. Returns true if newly inserted.
    pub fn insert_extended(&mut self, c: ExtendedCommunity) -> bool {
        match self.extended.binary_search(&c) {
            Ok(_) => false,
            Err(pos) => {
                self.extended.insert(pos, c);
                true
            }
        }
    }

    /// Inserts a large community. Returns true if newly inserted.
    pub fn insert_large(&mut self, c: LargeCommunity) -> bool {
        match self.large.binary_search(&c) {
            Ok(_) => false,
            Err(pos) => {
                self.large.insert(pos, c);
                true
            }
        }
    }

    /// Removes a classic community. Returns true if it was present.
    pub fn remove(&mut self, c: &Community) -> bool {
        match self.classic.binary_search(c) {
            Ok(pos) => {
                self.classic.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// True if the classic community is present.
    pub fn contains(&self, c: &Community) -> bool {
        self.classic.binary_search(c).is_ok()
    }

    /// The classic communities, sorted.
    pub fn classic(&self) -> &[Community] {
        &self.classic
    }

    /// The extended communities, sorted.
    pub fn extended(&self) -> &[ExtendedCommunity] {
        &self.extended
    }

    /// The large communities, sorted.
    pub fn large(&self) -> &[LargeCommunity] {
        &self.large
    }

    /// Removes *all* communities — the paper's "remove all communities on
    /// egress" cleaning policy (Exp3).
    pub fn clear(&mut self) {
        self.classic.clear();
        self.extended.clear();
        self.large.clear();
    }

    /// Removes every community (classic high half / large global
    /// administrator) owned by `asn16`.
    pub fn strip_owned_by(&mut self, asn16: u16) {
        self.classic.retain(|c| c.asn_part() != asn16);
        self.large.retain(|l| l.global != asn16 as u32);
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &CommunitySet) {
        for c in &other.classic {
            self.insert(*c);
        }
        for e in &other.extended {
            self.insert_extended(*e);
        }
        for l in &other.large {
            self.insert_large(*l);
        }
    }

    /// Iterates over classic communities.
    pub fn iter_classic(&self) -> impl Iterator<Item = &Community> {
        self.classic.iter()
    }

    /// A canonical string key for the whole attribute, used by the paper's
    /// "unique community attributes" counting (Fig. 6). Two sets have equal
    /// keys iff they are equal.
    pub fn canonical_key(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for CommunitySet {
    /// Space-separated canonical forms, classic then extended then large;
    /// empty set renders as `-`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        for c in &self.classic {
            put(f, c.to_string())?;
        }
        for e in &self.extended {
            put(f, e.to_string())?;
        }
        for l in &self.large {
            put(f, l.to_string())?;
        }
        Ok(())
    }
}

impl FromIterator<Community> for CommunitySet {
    fn from_iter<T: IntoIterator<Item = Community>>(iter: T) -> Self {
        Self::from_classic(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(a: u16, v: u16) -> Community {
        Community::from_parts(a, v)
    }

    #[test]
    fn insertion_sorts_and_dedups() {
        let mut s = CommunitySet::new();
        assert!(s.insert(c(3356, 2065)));
        assert!(s.insert(c(3356, 3)));
        assert!(!s.insert(c(3356, 2065)));
        assert_eq!(s.classic(), &[c(3356, 3), c(3356, 2065)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = CommunitySet::from_classic([c(1, 1), c(2, 2), c(3, 3)]);
        let b = CommunitySet::from_classic([c(3, 3), c(1, 1), c(2, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_equals_empty() {
        // The paper: "nn announcements also include two empty community
        // attributes in succession" — empty == empty must hold.
        assert_eq!(CommunitySet::new(), CommunitySet::default());
    }

    #[test]
    fn change_detection() {
        let before = CommunitySet::from_classic([c(65000, 300)]);
        let after = CommunitySet::from_classic([c(65000, 400)]);
        assert_ne!(before, after); // Exp2: community-only change
    }

    #[test]
    fn clear_is_egress_cleaning() {
        let mut s = CommunitySet::from_classic([c(3356, 2065), c(3356, 901)]);
        s.insert_large(LargeCommunity::new(3356, 1, 2));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, CommunitySet::new());
    }

    #[test]
    fn strip_owned_by_asn() {
        let mut s = CommunitySet::from_classic([c(3356, 2065), c(174, 21_000), c(65535, 666)]);
        s.insert_large(LargeCommunity::new(3356, 9, 9));
        s.insert_large(LargeCommunity::new(174, 9, 9));
        s.strip_owned_by(3356);
        assert!(!s.contains(&c(3356, 2065)));
        assert!(s.contains(&c(174, 21_000)));
        assert!(s.contains(&c(65535, 666)));
        assert_eq!(s.large(), &[LargeCommunity::new(174, 9, 9)]);
    }

    #[test]
    fn merge_unions() {
        let mut a = CommunitySet::from_classic([c(1, 1)]);
        let b = CommunitySet::from_classic([c(1, 1), c(2, 2)]);
        a.merge(&b);
        assert_eq!(a, CommunitySet::from_classic([c(1, 1), c(2, 2)]));
    }

    #[test]
    fn canonical_key_distinguishes_families() {
        let mut a = CommunitySet::new();
        a.insert(c(1, 2));
        let mut b = CommunitySet::new();
        b.insert_large(LargeCommunity::new(1, 2, 0));
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn display_empty_and_nonempty() {
        assert_eq!(CommunitySet::new().to_string(), "-");
        let s = CommunitySet::from_classic([c(3356, 3), c(3356, 2065)]);
        assert_eq!(s.to_string(), "3356:3 3356:2065");
    }

    #[test]
    fn remove_and_contains() {
        let mut s = CommunitySet::from_classic([c(1, 1), c(2, 2)]);
        assert!(s.remove(&c(1, 1)));
        assert!(!s.remove(&c(1, 1)));
        assert!(!s.contains(&c(1, 1)));
        assert!(s.contains(&c(2, 2)));
    }
}
