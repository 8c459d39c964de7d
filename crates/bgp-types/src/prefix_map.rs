//! A prefix-keyed map backed by a path-compressed binary trie.
//!
//! [`PrefixMap`] keys values by the prefix *bits*, so an exact-match
//! lookup walks a handful of path-compressed nodes, iteration is in
//! canonical prefix order ([`Prefix`]'s `Ord`: IPv4 before IPv6, then
//! address, then length) with no sorting step, and the trie shape gives
//! covering-chain walks and longest-prefix matching for free — what the
//! allocation registry's covering-block lookup needs.
//!
//! Nodes live in a flat arena indexed by `u32` — no per-node boxing, no
//! parent pointers — and each family (v4/v6) gets its own sub-trie so
//! the two keyspaces never interleave.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::prefix::Prefix;

/// Arena sentinel for "no child".
const NIL: u32 = u32::MAX;

/// One trie node: a left-aligned bit prefix of `len` bits, an optional
/// value (internal fork nodes created by splitting carry none), and two
/// children selected by the first bit after `len`.
#[derive(Debug, Clone)]
struct Node<V> {
    bits: u128,
    len: u8,
    value: Option<V>,
    child: [u32; 2],
}

/// The bit after position `len` (0-indexed from the most significant).
#[inline]
fn bit_at(key: u128, i: u8) -> usize {
    ((key >> (127 - i as u32)) & 1) as usize
}

/// A mask covering the first `len` bits.
#[inline]
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

/// One family's trie (keys are left-aligned in a `u128`).
#[derive(Debug, Clone)]
struct SubTrie<V> {
    nodes: Vec<Node<V>>,
    root: u32,
}

impl<V> Default for SubTrie<V> {
    fn default() -> Self {
        SubTrie { nodes: Vec::new(), root: NIL }
    }
}

impl<V> SubTrie<V> {
    fn push(&mut self, node: Node<V>) -> u32 {
        let idx = u32::try_from(self.nodes.len()).expect("prefix trie exceeds u32 arena");
        self.nodes.push(node);
        idx
    }

    /// Index of the node holding exactly `(key, len)`, if present.
    fn find(&self, key: u128, len: u8) -> Option<usize> {
        let mut idx = self.root;
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            if node.len > len || key & mask(node.len) != node.bits {
                return None;
            }
            if node.len == len {
                return node.value.is_some().then_some(idx as usize);
            }
            idx = node.child[bit_at(key, node.len)];
        }
        None
    }

    fn get(&self, key: u128, len: u8) -> Option<&V> {
        self.find(key, len).and_then(|i| self.nodes[i].value.as_ref())
    }

    fn get_mut(&mut self, key: u128, len: u8) -> Option<&mut V> {
        self.find(key, len).and_then(|i| self.nodes[i].value.as_mut())
    }

    /// Inserts, returning the displaced value for an existing key.
    fn insert(&mut self, key: u128, len: u8, value: V) -> Option<V> {
        if self.root == NIL {
            self.root = self.push(Node { bits: key, len, value: Some(value), child: [NIL, NIL] });
            return None;
        }
        let mut parent: Option<(u32, usize)> = None;
        let mut idx = self.root;
        loop {
            let (node_bits, node_len) = {
                let n = &self.nodes[idx as usize];
                (n.bits, n.len)
            };
            let common = ((key ^ node_bits).leading_zeros() as u8).min(node_len).min(len);
            if common < node_len {
                // The walk diverged inside this node's compressed run:
                // splice a new node above it.
                let new_idx = if common == len {
                    // The inserted key is an ancestor of the node.
                    let mut child = [NIL, NIL];
                    child[bit_at(node_bits, common)] = idx;
                    self.push(Node { bits: key, len, value: Some(value), child })
                } else {
                    // Fork: a valueless junction with the old node on one
                    // side and the new leaf on the other.
                    let leaf =
                        self.push(Node { bits: key, len, value: Some(value), child: [NIL, NIL] });
                    let mut child = [NIL, NIL];
                    child[bit_at(node_bits, common)] = idx;
                    child[bit_at(key, common)] = leaf;
                    self.push(Node { bits: key & mask(common), len: common, value: None, child })
                };
                match parent {
                    None => self.root = new_idx,
                    Some((p, b)) => self.nodes[p as usize].child[b] = new_idx,
                }
                return None;
            }
            // The node's bits fully prefix the key.
            if len == node_len {
                return self.nodes[idx as usize].value.replace(value);
            }
            let b = bit_at(key, node_len);
            let next = self.nodes[idx as usize].child[b];
            if next == NIL {
                let leaf =
                    self.push(Node { bits: key, len, value: Some(value), child: [NIL, NIL] });
                self.nodes[idx as usize].child[b] = leaf;
                return None;
            }
            parent = Some((idx, b));
            idx = next;
        }
    }

    /// The covering-chain walk shared by [`Covering`]: starts at the
    /// root and descends toward `(key, len)`.
    fn covering(&self, key: u128, len: u8) -> Covering<'_, V> {
        Covering { nodes: &self.nodes, idx: self.root, key, len }
    }

    /// The longest stored prefix covering `(key, len)`.
    fn longest_match(&self, key: u128, len: u8) -> Option<(u128, u8, &V)> {
        let mut best = None;
        let mut idx = self.root;
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            if node.len > len || key & mask(node.len) != node.bits {
                break;
            }
            if let Some(v) = &node.value {
                best = Some((node.bits, node.len, v));
            }
            if node.len == len {
                break;
            }
            idx = node.child[bit_at(key, node.len)];
        }
        best
    }
}

/// Iterator over every stored value whose prefix covers the query —
/// shortest covering prefix first, exact match (if stored) last. The
/// walk is a single root-to-leaf descent, so it costs O(stored
/// ancestors), not O(map size).
pub struct Covering<'a, V> {
    nodes: &'a [Node<V>],
    idx: u32,
    key: u128,
    len: u8,
}

impl<'a, V> Iterator for Covering<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        while self.idx != NIL {
            let node = &self.nodes[self.idx as usize];
            if node.len > self.len || self.key & mask(node.len) != node.bits {
                self.idx = NIL;
                return None;
            }
            self.idx =
                if node.len == self.len { NIL } else { node.child[bit_at(self.key, node.len)] };
            if let Some(v) = &node.value {
                return Some(v);
            }
        }
        None
    }
}

/// Pre-order walk: a node's own prefix sorts before everything in its
/// subtrees, and the 0-child subtree before the 1-child subtree — so the
/// yield order is exactly `(address, length)` lexicographic.
struct SubIter<'a, V> {
    nodes: &'a [Node<V>],
    stack: Vec<u32>,
}

impl<'a, V> SubIter<'a, V> {
    fn new(trie: &'a SubTrie<V>) -> Self {
        let mut stack = Vec::new();
        if trie.root != NIL {
            stack.push(trie.root);
        }
        SubIter { nodes: &trie.nodes, stack }
    }
}

impl<'a, V> Iterator for SubIter<'a, V> {
    type Item = (u128, u8, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(idx) = self.stack.pop() {
            let node = &self.nodes[idx as usize];
            if node.child[1] != NIL {
                self.stack.push(node.child[1]);
            }
            if node.child[0] != NIL {
                self.stack.push(node.child[0]);
            }
            if let Some(v) = &node.value {
                return Some((node.bits, node.len, v));
            }
        }
        None
    }
}

/// Splits a prefix into `(left-aligned bits, length, is_v4)`.
#[inline]
fn key_of(prefix: &Prefix) -> (u128, u8, bool) {
    match prefix {
        Prefix::V4 { addr, len } => ((u32::from(*addr) as u128) << 96, *len, true),
        Prefix::V6 { addr, len } => (u128::from(*addr), *len, false),
    }
}

fn prefix_from(bits: u128, len: u8, v4: bool) -> Prefix {
    if v4 {
        Prefix::v4(Ipv4Addr::from((bits >> 96) as u32), len).expect("trie keys are canonical")
    } else {
        Prefix::v6(Ipv6Addr::from(bits), len).expect("trie keys are canonical")
    }
}

/// A map from [`Prefix`] to `V`, stored as two path-compressed binary
/// tries (one per address family).
///
/// Exact-match [`get`](PrefixMap::get)/[`insert`](PrefixMap::insert) are
/// the classifier's per-update operations; [`iter`](PrefixMap::iter)
/// yields entries in canonical prefix order without sorting, and
/// [`longest_match`](PrefixMap::longest_match) exposes the trie's native
/// covering-route query.
#[derive(Debug, Clone, Default)]
pub struct PrefixMap<V> {
    v4: SubTrie<V>,
    v6: SubTrie<V>,
    len: usize,
}

impl<V> PrefixMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        PrefixMap { v4: SubTrie::default(), v6: SubTrie::default(), len: 0 }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for exactly this prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let (bits, len, v4) = key_of(prefix);
        if v4 {
            self.v4.get(bits, len)
        } else {
            self.v6.get(bits, len)
        }
    }

    /// Mutable access to the value stored for exactly this prefix.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let (bits, len, v4) = key_of(prefix);
        if v4 {
            self.v4.get_mut(bits, len)
        } else {
            self.v6.get_mut(bits, len)
        }
    }

    /// True if an entry is stored for exactly this prefix.
    pub fn contains_key(&self, prefix: &Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Inserts a value, returning the previous one for an existing key.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let (bits, len, v4) = key_of(&prefix);
        let displaced =
            if v4 { self.v4.insert(bits, len, value) } else { self.v6.insert(bits, len, value) };
        if displaced.is_none() {
            self.len += 1;
        }
        displaced
    }

    /// The longest stored prefix that covers `prefix` (including an exact
    /// match), with its value.
    pub fn longest_match(&self, prefix: &Prefix) -> Option<(Prefix, &V)> {
        let (bits, len, v4) = key_of(prefix);
        let sub = if v4 { &self.v4 } else { &self.v6 };
        sub.longest_match(bits, len).map(|(b, l, v)| (prefix_from(b, l, v4), v))
    }

    /// Every stored value whose prefix covers `prefix` — shortest
    /// covering prefix first, exact match (if stored) last. A single
    /// root-to-leaf descent: O(stored ancestors), not O(map size).
    pub fn covering(&self, prefix: &Prefix) -> Covering<'_, V> {
        let (bits, len, v4) = key_of(prefix);
        let sub = if v4 { &self.v4 } else { &self.v6 };
        sub.covering(bits, len)
    }

    /// Entries in canonical prefix order (IPv4 before IPv6, then address,
    /// then length).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        SubIter::new(&self.v4)
            .map(|(b, l, v)| (prefix_from(b, l, true), v))
            .chain(SubIter::new(&self.v6).map(|(b, l, v)| (prefix_from(b, l, false), v)))
    }

    /// The stored values, in the same order as [`iter`](PrefixMap::iter).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixMap<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut map = PrefixMap::new();
        for (p, v) in iter {
            map.insert(p, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut m = PrefixMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(p("84.205.64.0/24"), 1), None);
        assert_eq!(m.insert(p("84.205.65.0/24"), 2), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&p("84.205.64.0/24")), Some(&1));
        assert_eq!(m.insert(p("84.205.64.0/24"), 3), Some(1));
        assert_eq!(m.len(), 2, "replacement does not grow the map");
        assert_eq!(m.get(&p("84.205.64.0/24")), Some(&3));
        assert_eq!(m.get(&p("84.205.66.0/24")), None);
    }

    #[test]
    fn nested_prefixes_are_distinct_keys() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), "eight");
        m.insert(p("10.0.0.0/16"), "sixteen");
        m.insert(p("10.0.0.0/24"), "twentyfour");
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&"eight"));
        assert_eq!(m.get(&p("10.0.0.0/16")), Some(&"sixteen"));
        assert_eq!(m.get(&p("10.0.0.0/24")), Some(&"twentyfour"));
        assert_eq!(m.get(&p("10.0.0.0/12")), None, "no value stored at /12");
    }

    #[test]
    fn ancestor_inserted_after_descendant() {
        // Exercises the "key is an ancestor of an existing node" split.
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/24"), 24);
        m.insert(p("10.0.0.0/8"), 8);
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&8));
        assert_eq!(m.get(&p("10.0.0.0/24")), Some(&24));
    }

    #[test]
    fn fork_nodes_carry_no_value() {
        // 10.0.0.0/24 and 10.0.1.0/24 share a /23; looking up the /23
        // must miss even though a junction node exists there.
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/24"), 0);
        m.insert(p("10.0.1.0/24"), 1);
        assert_eq!(m.get(&p("10.0.0.0/23")), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn families_do_not_collide() {
        let mut m = PrefixMap::new();
        m.insert(p("0.0.0.0/0"), "v4 default");
        m.insert(p("::/0"), "v6 default");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&p("0.0.0.0/0")), Some(&"v4 default"));
        assert_eq!(m.get(&p("::/0")), Some(&"v6 default"));
    }

    #[test]
    fn iteration_is_canonical_prefix_order() {
        let prefixes = [
            "2001:db8::/32",
            "10.0.1.0/24",
            "84.205.64.0/24",
            "10.0.0.0/8",
            "2001:db8::/48",
            "10.0.0.0/24",
            "0.0.0.0/0",
        ];
        let mut m = PrefixMap::new();
        for (i, s) in prefixes.iter().enumerate() {
            m.insert(p(s), i);
        }
        let got: Vec<Prefix> = m.iter().map(|(k, _)| k).collect();
        let mut want: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn longest_match_walks_covering_chain() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), 8);
        m.insert(p("10.0.0.0/16"), 16);
        let (best, v) = m.longest_match(&p("10.0.0.0/24")).unwrap();
        assert_eq!((best, *v), (p("10.0.0.0/16"), 16));
        let (best, v) = m.longest_match(&p("10.1.0.0/16")).unwrap();
        assert_eq!((best, *v), (p("10.0.0.0/8"), 8));
        assert!(m.longest_match(&p("11.0.0.0/8")).is_none());
        let (best, _) = m.longest_match(&p("10.0.0.0/8")).unwrap();
        assert_eq!(best, p("10.0.0.0/8"), "exact match counts");
    }

    #[test]
    fn covering_yields_every_stored_ancestor() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), 8);
        m.insert(p("10.0.0.0/16"), 16);
        m.insert(p("10.0.0.0/24"), 24);
        m.insert(p("10.0.1.0/24"), 124); // sibling — must not appear
        let chain: Vec<i32> = m.covering(&p("10.0.0.0/24")).copied().collect();
        assert_eq!(chain, [8, 16, 24], "shortest first, exact match included");
        let chain: Vec<i32> = m.covering(&p("10.0.0.128/25")).copied().collect();
        assert_eq!(chain, [8, 16, 24], "strict descendants see the whole chain");
        let chain: Vec<i32> = m.covering(&p("10.1.0.0/16")).copied().collect();
        assert_eq!(chain, [8]);
        assert_eq!(m.covering(&p("11.0.0.0/8")).next(), None);
        assert_eq!(PrefixMap::<i32>::new().covering(&p("10.0.0.0/8")).next(), None);
    }

    #[test]
    fn host_routes_and_default_route() {
        let mut m = PrefixMap::new();
        m.insert(p("192.0.2.1/32"), "host");
        m.insert(p("0.0.0.0/0"), "default");
        assert_eq!(m.get(&p("192.0.2.1/32")), Some(&"host"));
        let (best, v) = m.longest_match(&p("198.51.100.0/24")).unwrap();
        assert_eq!((best, *v), (p("0.0.0.0/0"), "default"));
    }

    #[test]
    fn matches_hashmap_on_dense_keyspace() {
        // Every /28 under 10.0.0.0/20, inserted in a scrambled order,
        // against a HashMap reference.
        use std::collections::HashMap;
        let mut reference = HashMap::new();
        let mut m = PrefixMap::new();
        for i in 0..256u32 {
            let scrambled = (i * 167) % 256;
            let addr = Ipv4Addr::from(0x0a00_0000u32 | (scrambled << 4));
            let prefix = Prefix::v4(addr, 28).unwrap();
            assert_eq!(m.insert(prefix, scrambled), reference.insert(prefix, scrambled));
        }
        assert_eq!(m.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
        let iterated: Vec<Prefix> = m.iter().map(|(k, _)| k).collect();
        let mut sorted = iterated.clone();
        sorted.sort();
        assert_eq!(iterated, sorted);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = PrefixMap::new();
        m.insert(p("10.0.0.0/8"), 1);
        *m.get_mut(&p("10.0.0.0/8")).unwrap() += 10;
        assert_eq!(m.get(&p("10.0.0.0/8")), Some(&11));
        assert!(m.get_mut(&p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn collects_from_iterator() {
        let m: PrefixMap<u32> =
            [(p("10.0.0.0/8"), 1), (p("2001:db8::/32"), 2)].into_iter().collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&p("2001:db8::/32")), Some(&2));
    }
}
