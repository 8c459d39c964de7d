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
//!
//! ## Layout
//!
//! Every retained announcement holds a set, and in the paper's data almost
//! every set is classic communities only. So a [`CommunitySet`] is the
//! classic family as one exact-size boxed slice, plus a pointer to a second
//! allocation that holds the extended and large families, each an
//! exact-size boxed slice; the pointer is null exactly when both of those
//! families are empty. A classic-only set is therefore one allocation of
//! its communities and nothing else, the empty set allocates nothing, and
//! the handle is 24 bytes. Each set has one such form, so the derived
//! equality is equality of the three lists. The mutators rebuild the
//! exact-size slice they change; the decoder's constructor,
//! [`CommunitySet::from_unsorted`], sorts and deduplicates each family
//! once, in place, and keeps the result as its slice.
//!
//! Two other layouts were rejected. One boxed slice of 32-bit words for all
//! three families would be 16 bytes, but lending typed `&[Community]`,
//! `&[ExtendedCommunity]` and `&[LargeCommunity]` views of it needs
//! `unsafe` casts, which this workspace denies. Keeping a `Vec` for the
//! classic family keeps its spare capacity and leaves the set at 32 bytes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use crate::community::Community;
use crate::extended::ExtendedCommunity;
use crate::large::LargeCommunity;

// Every stored announcement holds a set; a larger handle would grow them
// all.
const _: () = assert!(size_of::<CommunitySet>() <= 24);

/// The extended and large families of a set in which at least one of them
/// is not empty.
#[derive(Clone, PartialEq, Eq, Default)]
struct Rest {
    extended: Box<[ExtendedCommunity]>,
    large: Box<[LargeCommunity]>,
}

impl Rest {
    /// The families as a set's second allocation: `None` when both are
    /// empty.
    fn into_option(self) -> Option<Box<Rest>> {
        (!(self.extended.is_empty() && self.large.is_empty())).then(|| Box::new(self))
    }
}

/// An ordered, deduplicated set of classic + extended + large communities.
///
/// Equality across the full attribute is the paper's "community changed"
/// predicate. An absent attribute and an empty attribute compare equal on
/// purpose: the paper counts "two empty community attributes in succession"
/// as *no change* (`nn`).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CommunitySet {
    classic: Box<[Community]>,
    /// `None` exactly when both families in it would be empty.
    rest: Option<Box<Rest>>,
}

/// `list` sorted and deduplicated, as an exact-size slice.
fn sorted_unique<T: Ord>(mut list: Vec<T>) -> Box<[T]> {
    list.sort_unstable();
    list.dedup();
    list.into_boxed_slice()
}

/// Adds `item` to the sorted `list` unless it is there. Returns true if it
/// was newly inserted.
fn insert_sorted<T: Ord>(list: &mut Box<[T]>, item: T) -> bool {
    let Err(pos) = list.binary_search(&item) else {
        return false;
    };
    let mut grown = std::mem::take(list).into_vec();
    grown.reserve_exact(1);
    grown.insert(pos, item);
    *list = grown.into_boxed_slice();
    true
}

/// Keeps the items of `list` that `keep` accepts.
fn retain_sorted<T>(list: &mut Box<[T]>, mut keep: impl FnMut(&T) -> bool) {
    if !list.iter().all(&mut keep) {
        let mut kept = std::mem::take(list).into_vec();
        kept.retain(keep);
        *list = kept.into_boxed_slice();
    }
}

/// Adds the items of `more` to the sorted `list`, rebuilding it once.
fn extend_sorted<T: Ord>(list: &mut Box<[T]>, more: impl IntoIterator<Item = T>) {
    let more = more.into_iter();
    let mut all = std::mem::take(list).into_vec();
    all.reserve_exact(more.size_hint().0);
    all.extend(more);
    *list = sorted_unique(all);
}

impl CommunitySet {
    /// Creates an empty community set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from classic communities only (the common case in the
    /// paper's data).
    pub fn from_classic<I: IntoIterator<Item = Community>>(iter: I) -> Self {
        CommunitySet { classic: sorted_unique(iter.into_iter().collect()), rest: None }
    }

    /// Builds a set from possibly unsorted, possibly duplicated vectors of
    /// all three families — one sort + dedup per family, each straight
    /// into its exact-size slice. This is the decode-path constructor: a
    /// wire attribute's communities arrive as a run, so building in bulk
    /// is O(n log n) with no mid-list moves.
    pub fn from_unsorted(
        classic: Vec<Community>,
        extended: Vec<ExtendedCommunity>,
        large: Vec<LargeCommunity>,
    ) -> Self {
        let rest = Rest { extended: sorted_unique(extended), large: sorted_unique(large) };
        CommunitySet { classic: sorted_unique(classic), rest: rest.into_option() }
    }

    /// Heap bytes the set holds: its exact-size family slices, plus the
    /// box holding the extended and large families when either is present.
    pub fn heap_bytes(&self) -> usize {
        let rest = self.rest.as_ref().map_or(0, |rest| {
            size_of::<Rest>()
                + rest.extended.len() * size_of::<ExtendedCommunity>()
                + rest.large.len() * size_of::<LargeCommunity>()
        });
        self.classic.len() * size_of::<Community>() + rest
    }

    /// True if no community of any family is present.
    pub fn is_empty(&self) -> bool {
        self.classic.is_empty() && self.rest.is_none()
    }

    /// Total number of communities across all families.
    pub fn len(&self) -> usize {
        self.classic.len() + self.extended().len() + self.large().len()
    }

    /// Inserts a classic community, keeping the set sorted and unique.
    /// Returns true if it was newly inserted.
    pub fn insert(&mut self, c: Community) -> bool {
        insert_sorted(&mut self.classic, c)
    }

    /// Inserts an extended community. Returns true if newly inserted.
    pub fn insert_extended(&mut self, c: ExtendedCommunity) -> bool {
        // An absent box means an empty family, so the insert succeeds and
        // the new box is not empty.
        insert_sorted(&mut self.rest.get_or_insert_with(Box::default).extended, c)
    }

    /// Inserts a large community. Returns true if newly inserted.
    pub fn insert_large(&mut self, c: LargeCommunity) -> bool {
        insert_sorted(&mut self.rest.get_or_insert_with(Box::default).large, c)
    }

    /// Removes a classic community. Returns true if it was present.
    pub fn remove(&mut self, c: &Community) -> bool {
        let before = self.classic.len();
        retain_sorted(&mut self.classic, |x| x != c);
        self.classic.len() < before
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
        self.rest.as_ref().map_or(&[], |rest| &rest.extended)
    }

    /// The large communities, sorted.
    pub fn large(&self) -> &[LargeCommunity] {
        self.rest.as_ref().map_or(&[], |rest| &rest.large)
    }

    /// Removes *all* communities — the paper's "remove all communities on
    /// egress" cleaning policy (Exp3).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Removes every community (classic high half / large global
    /// administrator) owned by `asn16`.
    pub fn strip_owned_by(&mut self, asn16: u16) {
        retain_sorted(&mut self.classic, |c| c.asn_part() != asn16);
        if let Some(mut rest) = self.rest.take() {
            retain_sorted(&mut rest.large, |l| l.global != u32::from(asn16));
            self.rest = rest.into_option();
        }
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &CommunitySet) {
        self.extend(other.classic.iter().copied());
        if let Some(theirs) = &other.rest {
            // Theirs is not empty, so neither is the union.
            let rest = self.rest.get_or_insert_with(Box::default);
            extend_sorted(&mut rest.extended, theirs.extended.iter().copied());
            extend_sorted(&mut rest.large, theirs.large.iter().copied());
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

impl Hash for CommunitySet {
    /// Hashes the three families in order, as three lists: the hash a
    /// struct of three `Vec`s derives.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.classic().hash(state);
        self.extended().hash(state);
        self.large().hash(state);
    }
}

impl fmt::Debug for CommunitySet {
    /// The three families by name, as lists.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommunitySet")
            .field("classic", &self.classic())
            .field("extended", &self.extended())
            .field("large", &self.large())
            .finish()
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
        for c in self.classic() {
            put(f, c.to_string())?;
        }
        for e in self.extended() {
            put(f, e.to_string())?;
        }
        for l in self.large() {
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

impl Extend<Community> for CommunitySet {
    /// Inserts classic communities, rebuilding the classic slice once for
    /// the whole batch rather than once per community.
    fn extend<T: IntoIterator<Item = Community>>(&mut self, iter: T) {
        extend_sorted(&mut self.classic, iter);
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
    fn heap_bytes_count_exact_families_and_the_rest_box() {
        assert_eq!(CommunitySet::new().heap_bytes(), 0);
        let classic = CommunitySet::from_classic([c(1, 1), c(2, 2), c(1, 1)]);
        assert_eq!(classic.heap_bytes(), 2 * size_of::<Community>());
        let mut all = classic;
        all.insert_large(LargeCommunity::new(1, 2, 3));
        let large = size_of::<Rest>() + size_of::<LargeCommunity>();
        assert_eq!(all.heap_bytes(), 2 * size_of::<Community>() + large);
        // Stripping the only large community drops the second box.
        all.strip_owned_by(1);
        assert!(all.rest.is_none());
        assert_eq!(all.heap_bytes(), size_of::<Community>());
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
