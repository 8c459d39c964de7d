//! AS paths.
//!
//! An AS path is a list of segments (RFC 4271 §4.3); in practice almost all
//! paths are a single `AS_SEQUENCE`. The paper's classifier needs three
//! notions of path comparison:
//!
//! 1. **identity** — the wire-level path, including prepending;
//! 2. **AS-set equality** — "the set of ASes are equal", which turns a path
//!    change into a *prepend-only* change (`xc`/`xn` types);
//! 3. **origin/peer extraction** — for grouping by origin and for the data
//!    cleaning step that inserts a route server's ASN when missing.
//!
//! ## Layout
//!
//! Every retained announcement holds a path, so an [`AsPath`] is one
//! exact-size allocation: every ASN in wire order and, only when the path
//! is not exactly one non-empty `AS_SEQUENCE`, one descriptor word per
//! segment after them (its kind and ASN count). The common path is
//! therefore its ASNs and nothing else; the empty path allocates nothing.
//! Each path has one such form, so the derived equality is equality of
//! the segment lists. [`AsPath::segments`] lends `(kind, &[Asn])` views,
//! and [`AsPath::from_segments`] sizes the allocation from the segment
//! lengths before it fills it, so a decoder writes straight into it. The
//! layout is private to this module.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::asn::Asn;

// Every stored announcement and every hash-set slot holds a path handle;
// a larger one would grow them all.
const _: () = assert!(std::mem::size_of::<AsPath>() <= 24);

/// Kind of a path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Ordered `AS_SEQUENCE`.
    Sequence,
    /// Unordered `AS_SET` (result of aggregation).
    Set,
    /// `AS_CONFED_SEQUENCE` (RFC 5065), confined to a confederation.
    ConfedSequence,
    /// `AS_CONFED_SET` (RFC 5065).
    ConfedSet,
}

/// Bits of a descriptor word that hold the segment kind; the ASN count
/// sits above them.
const KIND_BITS: u32 = 2;

/// The descriptor word of a segment of `len` ASNs.
fn descriptor(kind: SegmentKind, len: usize) -> Asn {
    let len = u32::try_from(len).ok().filter(|&n| n <= u32::MAX >> KIND_BITS);
    let len = len.expect("an AS path segment holds fewer than 2^30 ASNs");
    let code = match kind {
        SegmentKind::Sequence => 0,
        SegmentKind::Set => 1,
        SegmentKind::ConfedSequence => 2,
        SegmentKind::ConfedSet => 3,
    };
    Asn(len << KIND_BITS | code)
}

/// The kind and ASN count a descriptor word holds.
fn unpack(word: Asn) -> (SegmentKind, usize) {
    let kind = match word.0 & ((1 << KIND_BITS) - 1) {
        0 => SegmentKind::Sequence,
        1 => SegmentKind::Set,
        2 => SegmentKind::ConfedSequence,
        _ => SegmentKind::ConfedSet,
    };
    (kind, (word.0 >> KIND_BITS) as usize)
}

/// A full AS path: a list of segments, in one allocation (see the
/// [module docs](self)).
///
/// The common single-sequence case is constructed with [`AsPath::from_asns`].
#[derive(Clone, PartialEq, Eq, Default)]
pub struct AsPath {
    /// Every ASN in wire order, then `descriptors` descriptor words.
    words: Box<[Asn]>,
    /// Descriptor words at the end of `words`, one per segment; 0 for a
    /// single non-empty `AS_SEQUENCE` and for the empty path.
    descriptors: u32,
}

/// The segments of a path, as borrowed views.
#[derive(Clone)]
struct Segments<'a> {
    /// The ASNs of the segments not yet read.
    asns: &'a [Asn],
    /// Their descriptors.
    descriptors: std::slice::Iter<'a, Asn>,
    /// True until the one segment of a descriptor-free path is read.
    single: bool,
}

impl<'a> Iterator for Segments<'a> {
    type Item = (SegmentKind, &'a [Asn]);

    fn next(&mut self) -> Option<Self::Item> {
        if std::mem::take(&mut self.single) {
            return Some((SegmentKind::Sequence, self.asns));
        }
        let (kind, len) = unpack(*self.descriptors.next()?);
        let (run, rest) = self.asns.split_at(len);
        self.asns = rest;
        Some((kind, run))
    }
}

impl AsPath {
    /// An empty path (as sent between iBGP peers for locally originated
    /// routes).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the common single-`AS_SEQUENCE` path. The *first* ASN is the
    /// neighbor the route was heard from (leftmost), the *last* is the
    /// origin.
    pub fn from_asns<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        // No segment for no ASNs; otherwise one sequence, which needs no
        // descriptor.
        AsPath { words: asns.into_iter().collect(), descriptors: 0 }
    }

    /// Builds a path from its segments, each a kind and its ASNs in wire
    /// order. The segments are read twice — once for their lengths, to
    /// size the one allocation, then to fill it — so their iterator must
    /// be `Clone` and yield the same segments both times.
    pub fn from_segments<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = (SegmentKind, S)>,
        I::IntoIter: Clone,
        S: IntoIterator<Item = Asn>,
        S::IntoIter: ExactSizeIterator,
    {
        let segments = segments.into_iter();
        let shape = segments.clone().map(|(kind, asns)| (kind, asns.into_iter().len()));
        Self::from_shape(shape, segments.flat_map(|(_, asns)| asns))
    }

    /// The path whose segments have the kinds and ASN counts of `shape`
    /// and whose ASNs, in wire order, are `asns`.
    fn from_shape<I>(shape: I, asns: impl IntoIterator<Item = Asn>) -> Self
    where
        I: Iterator<Item = (SegmentKind, usize)> + Clone,
    {
        let (mut count, mut total, mut single) = (0usize, 0usize, false);
        for (kind, len) in shape.clone() {
            single = count == 0 && kind == SegmentKind::Sequence && len > 0;
            count += 1;
            total += len;
        }
        let descriptors = if single { 0 } else { count };
        let mut words = Vec::with_capacity(total + descriptors);
        words.extend(asns);
        assert_eq!(words.len(), total, "an AS path's segments hold every ASN it is built from");
        if !single {
            words.extend(shape.map(|(kind, len)| descriptor(kind, len)));
        }
        let descriptors =
            u32::try_from(descriptors).expect("an AS path has fewer than 2^32 segments");
        AsPath { words: words.into_boxed_slice(), descriptors }
    }

    /// Every ASN, in wire order.
    fn asn_slice(&self) -> &[Asn] {
        &self.words[..self.words.len() - self.descriptors as usize]
    }

    /// The segments, in order, each its kind and its ASNs.
    pub fn segments(&self) -> impl Iterator<Item = (SegmentKind, &[Asn])> + Clone + '_ {
        let (asns, descriptors) = self.words.split_at(self.words.len() - self.descriptors as usize);
        Segments {
            asns,
            descriptors: descriptors.iter(),
            single: self.descriptors == 0 && !asns.is_empty(),
        }
    }

    /// True if the path holds no ASNs: no segments, or only empty ones.
    pub fn is_empty(&self) -> bool {
        self.asn_slice().is_empty()
    }

    /// All ASNs in wire order (sets contribute their members in stored
    /// order).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asn_slice().iter().copied()
    }

    /// The sorted, deduplicated set of ASNs on the path — the paper's
    /// "set of ASes" used to detect prepend-only changes.
    pub fn as_set(&self) -> Vec<Asn> {
        let mut v = self.asn_slice().to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True if `self` and `other` cover the same set of ASes — for paths
    /// that differ, the difference is (de-)prepending. Equal to comparing
    /// the two [`as_set`](Self::as_set)s, without building them: every ASN
    /// of each path must occur in the other.
    pub fn same_as_set(&self, other: &AsPath) -> bool {
        self.asns().all(|asn| other.contains(asn)) && other.asns().all(|asn| self.contains(asn))
    }

    /// The leftmost ASN: the peer the route was heard from.
    pub fn first(&self) -> Option<Asn> {
        self.asn_slice().first().copied()
    }

    /// The rightmost ASN: the origin of the route.
    pub fn origin(&self) -> Option<Asn> {
        self.asn_slice().last().copied()
    }

    /// True if `asn` appears anywhere on the path (loop detection, RFC 4271
    /// §9.1.2).
    pub fn contains(&self, asn: Asn) -> bool {
        self.asn_slice().contains(&asn)
    }

    /// Path length for the BGP decision process: each sequence member
    /// counts 1, an entire `AS_SET` counts 1 (RFC 4271 §9.1.2.2 a).
    pub fn decision_length(&self) -> usize {
        self.segments()
            .map(|(kind, asns)| match kind {
                SegmentKind::Sequence => asns.len(),
                SegmentKind::Set => usize::from(!asns.is_empty()),
                // Confederation segments do not count (RFC 5065 §5.3).
                SegmentKind::ConfedSequence | SegmentKind::ConfedSet => 0,
            })
            .sum()
    }

    /// Returns a new path with `asn` prepended `times` times, as a router
    /// does when advertising to an eBGP peer (possibly with export
    /// prepending): into a leading `AS_SEQUENCE`, else as a new leading
    /// one. One allocation.
    pub fn prepend(&self, asn: Asn, times: usize) -> AsPath {
        let (lead, kept) = match self.segments().next() {
            Some((SegmentKind::Sequence, asns)) => (asns.len() + times, 1),
            _ => (times, 0),
        };
        let rest = self.segments().skip(kept).map(|(kind, asns)| (kind, asns.len()));
        let shape = std::iter::once((SegmentKind::Sequence, lead)).chain(rest);
        Self::from_shape(shape, std::iter::repeat_n(asn, times).chain(self.asns()))
    }

    /// Heap bytes held by the path: its one allocation.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<Asn>()
    }
}

impl Hash for AsPath {
    /// Hashes the segment list — its length, then each segment's kind and
    /// ASNs — exactly as a `Vec` of owned segments hashes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.segments().count());
        for (kind, asns) in self.segments() {
            kind.hash(state);
            asns.hash(state);
        }
    }
}

impl fmt::Debug for AsPath {
    /// The derived text of a list of owned segments:
    /// `AsPath { segments: [PathSegment { kind: Sequence, asns: [Asn(3356)] }] }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Segment<'a>(SegmentKind, &'a [Asn]);
        impl fmt::Debug for Segment<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("PathSegment").field("kind", &self.0).field("asns", &self.1).finish()
            }
        }
        struct List<'a>(&'a AsPath);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.segments().map(|(kind, asns)| Segment(kind, asns)))
                    .finish()
            }
        }
        f.debug_struct("AsPath").field("segments", &List(self)).finish()
    }
}

impl fmt::Display for AsPath {
    /// Space-separated ASNs; `AS_SET`s in braces: `20205 3356 {174 209}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, asns) in self.segments() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            let set = matches!(kind, SegmentKind::Set | SegmentKind::ConfedSet);
            if set {
                write!(f, "{{")?;
            }
            let mut inner_first = true;
            for a in asns {
                if !inner_first {
                    write!(f, " ")?;
                }
                inner_first = false;
                write!(f, "{a}")?;
            }
            if set {
                write!(f, "}}")?;
            }
        }
        Ok(())
    }
}

/// Error parsing an AS path from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsPathError(String);

impl fmt::Display for ParseAsPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AS path: {:?}", self.0)
    }
}

impl std::error::Error for ParseAsPathError {}

impl FromStr for AsPath {
    type Err = ParseAsPathError;

    /// Parses the `Display` form: space-separated ASNs with `{...}` sets.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAsPathError(s.to_owned());
        let mut segments: Vec<(SegmentKind, Vec<Asn>)> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            if let Some(after) = rest.strip_prefix('{') {
                if !seq.is_empty() {
                    segments.push((SegmentKind::Sequence, std::mem::take(&mut seq)));
                }
                let (inner, tail) = after.split_once('}').ok_or_else(err)?;
                let asns: Result<Vec<Asn>, _> =
                    inner.split_whitespace().map(|t| t.parse::<Asn>()).collect();
                segments.push((SegmentKind::Set, asns.map_err(|_| err())?));
                rest = tail.trim_start();
            } else {
                let (tok, tail) = match rest.find(|c: char| c.is_whitespace() || c == '{') {
                    Some(pos) => rest.split_at(pos),
                    None => (rest, ""),
                };
                seq.push(tok.trim().parse::<Asn>().map_err(|_| err())?);
                rest = tail.trim_start();
            }
        }
        if !seq.is_empty() {
            segments.push((SegmentKind::Sequence, seq));
        }
        Ok(AsPath::from_segments(segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(asns: &[u32]) -> AsPath {
        AsPath::from_asns(asns.iter().map(|&a| Asn(a)))
    }

    #[test]
    fn display_and_parse_roundtrip() {
        // The path from the paper's Figure 4.
        let p = path(&[20_205, 3356, 174, 12_654]);
        assert_eq!(p.to_string(), "20205 3356 174 12654");
        assert_eq!("20205 3356 174 12654".parse::<AsPath>().unwrap(), p);
    }

    #[test]
    fn parse_with_as_set() {
        let p: AsPath = "20205 3356 {174 209}".parse().unwrap();
        assert_eq!(p.segments().count(), 2);
        assert_eq!(p.segments().nth(1).map(|(kind, _)| kind), Some(SegmentKind::Set));
        assert_eq!(p.to_string(), "20205 3356 {174 209}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("20205 x 174".parse::<AsPath>().is_err());
        assert!("20205 {174".parse::<AsPath>().is_err());
    }

    #[test]
    fn empty_path_parses() {
        let p: AsPath = "".parse().unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn first_and_origin() {
        let p = path(&[20_205, 3356, 174, 12_654]);
        assert_eq!(p.first(), Some(Asn(20_205)));
        assert_eq!(p.origin(), Some(Asn(12_654)));
        assert_eq!(AsPath::empty().origin(), None);
    }

    #[test]
    fn loop_detection() {
        let p = path(&[1, 2, 3]);
        assert!(p.contains(Asn(2)));
        assert!(!p.contains(Asn(9)));
    }

    #[test]
    fn decision_length_counts_set_as_one() {
        let p = AsPath::from_segments(vec![
            (SegmentKind::Sequence, vec![Asn(1), Asn(2)]),
            (SegmentKind::Set, vec![Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(p.decision_length(), 3);
    }

    #[test]
    fn confed_segments_do_not_count() {
        let p = AsPath::from_segments(vec![
            (SegmentKind::ConfedSequence, vec![Asn(65001), Asn(65002)]),
            (SegmentKind::Sequence, vec![Asn(1)]),
        ]);
        assert_eq!(p.decision_length(), 1);
    }

    #[test]
    fn prepend_repeats_head() {
        let p = path(&[3356, 12_654]);
        let q = p.prepend(Asn(20_205), 3);
        assert_eq!(q.to_string(), "20205 20205 20205 3356 12654");
    }

    #[test]
    fn prepend_onto_empty_path() {
        let p = AsPath::empty().prepend(Asn(7), 2);
        assert_eq!(p.to_string(), "7 7");
    }

    #[test]
    fn same_as_set_detects_prepend_only_change() {
        // The paper's x* rule: paths differ, AS sets equal.
        let a: AsPath = "20205 3356 12654".parse().unwrap();
        let b: AsPath = "20205 3356 3356 12654".parse().unwrap();
        let c: AsPath = "20205 174 12654".parse().unwrap();
        assert_ne!(a, b);
        assert!(a.same_as_set(&b));
        assert!(!a.same_as_set(&c));
    }

    #[test]
    fn heap_bytes_count_the_asns_and_any_descriptors() {
        let asn = std::mem::size_of::<Asn>();
        assert_eq!(AsPath::empty().heap_bytes(), 0);
        assert_eq!(path(&[1, 2, 3]).heap_bytes(), 3 * asn);
        assert_eq!(path(&[1, 2, 3]).prepend(Asn(9), 2).heap_bytes(), 5 * asn);
        // Not one sequence: a descriptor word per segment.
        let mixed: AsPath = "1 2 {3}".parse().unwrap();
        assert_eq!(mixed.heap_bytes(), (3 + 2) * asn);
    }

    #[test]
    fn as_set_sorted_unique() {
        let p: AsPath = "5 5 3 1 3".parse().unwrap();
        assert_eq!(p.as_set(), vec![Asn(1), Asn(3), Asn(5)]);
    }
}
