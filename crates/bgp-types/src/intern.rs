//! Hash-consed [`PathAttributes`] interning.
//!
//! One attribute set announced to 75k neighbors should be one allocation,
//! not 75k. [`AttrStore`] is the shared-ownership registry that makes that
//! true: every distinct attribute set is held once behind an
//! `Arc<PathAttributes>`, callers hold refcounted handles, and the store
//! tracks the exact deep footprint of everything it retains.
//!
//! The simulator's RIBs intern through this store so that Adj-RIB-In,
//! Loc-RIB, Adj-RIB-Out and in-flight messages all share one allocation
//! per distinct attribute set. The streaming classifier does not: its
//! handles arrive freshly decoded and a value-equal set is rarely still
//! held when it repeats, so it keeps each announcement's own allocation.
//!
//! Refcounts are explicit (one count per slot, not `Arc::strong_count`
//! guesses), so callers retaining extra `Arc` clones (captures, in-flight
//! events) never distort the byte accounting. Each distinct set has a slot
//! reachable two ways: by **value** (a deep hash and compare, for
//! [`canonical`](AttrStore::canonical) and for handles the store has not
//! seen) and by the canonical allocation's **address**. A caller that
//! acquires or releases the handle the store gave out — every RIB slot in
//! the simulator — pays one probe on a pointer-sized key, no deep hash and
//! no deep compare. The address index is exact: the store keeps every
//! canonical allocation alive, so no other live handle can share its
//! address, and an entry leaves both indexes when its count reaches zero.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::attrs::PathAttributes;
use crate::fast_hash::FastHashMap;

/// Hash-consing key: an `Arc<PathAttributes>` that hashes and compares
/// by **value**, and can be probed with a plain `&PathAttributes`
/// (via `Borrow`) so lookups never allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArcAttrs(Arc<PathAttributes>);

impl Hash for ArcAttrs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.0).hash(state);
    }
}

impl Borrow<PathAttributes> for ArcAttrs {
    fn borrow(&self) -> &PathAttributes {
        &self.0
    }
}

/// The address index's key: where a canonical allocation lives.
fn addr(attrs: &Arc<PathAttributes>) -> usize {
    Arc::as_ptr(attrs) as usize
}

/// A hash-consed attribute store. Every distinct attribute set is held
/// once; [`bytes`](Self::bytes) is the exact deep footprint of the
/// distinct sets currently referenced by live slots.
#[derive(Debug, Default)]
pub struct AttrStore {
    /// Canonical allocation (hashed by value) → its slot.
    by_value: FastHashMap<ArcAttrs, u32>,
    /// Canonical allocation's address → its slot.
    by_addr: FastHashMap<usize, u32>,
    /// Refcount per slot; a slot whose entry left is on `free`.
    counts: Vec<usize>,
    free: Vec<u32>,
    bytes: usize,
}

impl AttrStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical shared handle for `attrs`, refcount bumped. One
    /// address probe when `attrs` is the canonical allocation, one value
    /// lookup otherwise.
    pub fn acquire(&mut self, attrs: &Arc<PathAttributes>) -> Arc<PathAttributes> {
        if let Some(&slot) = self.by_addr.get(&addr(attrs)) {
            self.counts[slot as usize] += 1;
            return Arc::clone(attrs);
        }
        self.acquire_by_value(Arc::clone(attrs))
    }

    /// Like [`acquire`](Self::acquire), but takes ownership — when the
    /// value is new the caller's allocation becomes the canonical one
    /// (no extra clone), and when it is already interned the caller's
    /// copy is dropped in favor of the shared handle.
    pub fn acquire_owned(&mut self, attrs: Arc<PathAttributes>) -> Arc<PathAttributes> {
        if let Some(&slot) = self.by_addr.get(&addr(&attrs)) {
            self.counts[slot as usize] += 1;
            return attrs;
        }
        self.acquire_by_value(attrs)
    }

    /// The value path of an acquire: one hash of `attrs` finds a
    /// value-equal entry or places `attrs` as a new canonical one.
    fn acquire_by_value(&mut self, attrs: Arc<PathAttributes>) -> Arc<PathAttributes> {
        match self.by_value.entry(ArcAttrs(attrs)) {
            Entry::Occupied(e) => {
                self.counts[*e.get() as usize] += 1;
                Arc::clone(&e.key().0)
            }
            Entry::Vacant(e) => {
                let attrs = Arc::clone(&e.key().0);
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.counts[slot as usize] = 1;
                        slot
                    }
                    None => {
                        self.counts.push(1);
                        u32::try_from(self.counts.len() - 1).expect("attribute store overflow")
                    }
                };
                e.insert(slot);
                self.by_addr.insert(addr(&attrs), slot);
                self.bytes += attrs.deep_footprint();
                attrs
            }
        }
    }

    /// The canonical handle for a value-equal interned set, if any,
    /// **without** bumping its refcount — for callers that want pointer
    /// collapse on transient values (in-flight messages) but must not
    /// retain a store reference they cannot release.
    pub fn canonical(&self, attrs: &PathAttributes) -> Option<Arc<PathAttributes>> {
        self.by_value.get_key_value(attrs).map(|(key, _)| Arc::clone(&key.0))
    }

    /// Drops one reference; the entry (and its bytes) leave the store
    /// when the last slot stops pointing at it. `attrs` may be the
    /// canonical handle or any value-equal one.
    ///
    /// # Panics
    ///
    /// Panics if `attrs` was never interned — releasing a handle the
    /// store does not know about is a refcount bug at the call site.
    pub fn release(&mut self, attrs: &Arc<PathAttributes>) {
        let slot = match self.by_addr.get(&addr(attrs)) {
            Some(&slot) => slot,
            None => *self.by_value.get(&**attrs).expect("released attrs must be interned"),
        };
        let count = &mut self.counts[slot as usize];
        *count -= 1;
        if *count > 0 {
            return;
        }
        let (key, _) = self.by_value.remove_entry(&**attrs).expect("slot has a value entry");
        self.by_addr.remove(&addr(&key.0));
        self.bytes -= key.0.deep_footprint();
        self.free.push(slot);
    }

    /// Exact deep footprint (bytes) of the distinct attribute sets the
    /// store currently retains.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of distinct attribute sets currently interned.
    pub fn len(&self) -> usize {
        self.by_value.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.by_value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(path: &str) -> Arc<PathAttributes> {
        Arc::new(PathAttributes { as_path: path.parse().unwrap(), ..Default::default() })
    }

    #[test]
    fn acquire_dedups_by_value() {
        let mut store = AttrStore::new();
        let a = store.acquire(&attrs("1 2 3"));
        let b = store.acquire(&attrs("1 2 3"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn release_removes_on_last_handle() {
        let mut store = AttrStore::new();
        let a = store.acquire(&attrs("1 2"));
        let b = store.acquire(&attrs("1 2"));
        assert!(store.bytes() > 0);
        store.release(&a);
        assert_eq!(store.len(), 1);
        store.release(&b);
        assert_eq!(store.len(), 0);
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn acquire_owned_keeps_callers_allocation_when_new() {
        let mut store = AttrStore::new();
        let fresh = attrs("6 5 4");
        let ptr = Arc::as_ptr(&fresh);
        let canonical = store.acquire_owned(fresh);
        assert_eq!(Arc::as_ptr(&canonical), ptr);
        // A second, value-equal allocation resolves to the first.
        let again = store.acquire_owned(attrs("6 5 4"));
        assert!(Arc::ptr_eq(&canonical, &again));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn bytes_track_distinct_sets_only() {
        let mut store = AttrStore::new();
        let a = store.acquire(&attrs("1"));
        let one = store.bytes();
        let _b = store.acquire(&attrs("1"));
        assert_eq!(store.bytes(), one, "duplicate acquire adds no bytes");
        let _c = store.acquire(&attrs("2 3"));
        assert!(store.bytes() > one);
        store.release(&a);
        assert!(store.bytes() >= one, "one handle left keeps the entry");
    }

    #[test]
    fn canonical_and_value_equal_handles_share_one_count() {
        let mut store = AttrStore::new();
        let a = store.acquire(&attrs("4 5"));
        // The canonical handle itself (address path) and a value-equal
        // copy (value path) both count against the same entry.
        let b = store.acquire(&a);
        let c = store.acquire(&attrs("4 5"));
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        store.release(&attrs("4 5"));
        store.release(&b);
        assert_eq!(store.len(), 1);
        store.release(&c);
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
        // The freed slot is reused, and the new canonical allocation is
        // found by address.
        let d = store.acquire(&attrs("6"));
        let e = store.acquire(&d);
        assert!(Arc::ptr_eq(&d, &e));
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "released attrs must be interned")]
    fn releasing_unknown_attrs_panics() {
        let mut store = AttrStore::new();
        store.release(&attrs("9 9"));
    }
}
