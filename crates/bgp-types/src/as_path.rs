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

use std::fmt;
use std::str::FromStr;

use crate::asn::Asn;

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

/// One AS-path segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathSegment {
    /// The segment kind.
    pub kind: SegmentKind,
    /// The ASNs in the segment (order meaningful only for sequences).
    pub asns: Vec<Asn>,
}

impl PathSegment {
    /// Creates an `AS_SEQUENCE` segment.
    pub fn sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        PathSegment { kind: SegmentKind::Sequence, asns: asns.into_iter().collect() }
    }

    /// Creates an `AS_SET` segment.
    pub fn set<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        PathSegment { kind: SegmentKind::Set, asns: asns.into_iter().collect() }
    }
}

/// A full AS path: a list of segments.
///
/// The common single-sequence case is constructed with [`AsPath::from_asns`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    segments: Vec<PathSegment>,
}

impl AsPath {
    /// An empty path (as sent between iBGP peers for locally originated
    /// routes).
    pub fn empty() -> Self {
        AsPath { segments: Vec::new() }
    }

    /// Builds the common single-`AS_SEQUENCE` path. The *first* ASN is the
    /// neighbor the route was heard from (leftmost), the *last* is the
    /// origin.
    pub fn from_asns<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let v: Vec<Asn> = asns.into_iter().collect();
        if v.is_empty() {
            return Self::empty();
        }
        AsPath { segments: vec![PathSegment::sequence(v)] }
    }

    /// Builds a path from raw segments.
    pub fn from_segments(segments: Vec<PathSegment>) -> Self {
        AsPath { segments }
    }

    /// The segments.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }

    /// True if the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns.is_empty())
    }

    /// All ASNs in wire order (sets contribute their members in stored
    /// order).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns.iter().copied())
    }

    /// The sorted, deduplicated set of ASNs on the path — the paper's
    /// "set of ASes" used to detect prepend-only changes.
    pub fn as_set(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.asns().collect();
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
        self.asns().next()
    }

    /// The rightmost ASN: the origin of the route.
    pub fn origin(&self) -> Option<Asn> {
        self.asns().last()
    }

    /// True if `asn` appears anywhere on the path (loop detection, RFC 4271
    /// §9.1.2).
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// Path length for the BGP decision process: each sequence member
    /// counts 1, an entire `AS_SET` counts 1 (RFC 4271 §9.1.2.2 a).
    pub fn decision_length(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s.kind {
                SegmentKind::Sequence => s.asns.len(),
                SegmentKind::Set => usize::from(!s.asns.is_empty()),
                // Confederation segments do not count (RFC 5065 §5.3).
                SegmentKind::ConfedSequence | SegmentKind::ConfedSet => 0,
            })
            .sum()
    }

    /// Returns a new path with `asn` prepended `times` times, as a router
    /// does when advertising to an eBGP peer (possibly with export
    /// prepending).
    pub fn prepend(&self, asn: Asn, times: usize) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(seg) if seg.kind == SegmentKind::Sequence => {
                for _ in 0..times {
                    seg.asns.insert(0, asn);
                }
            }
            _ => {
                segments.insert(0, PathSegment::sequence(std::iter::repeat_n(asn, times)));
            }
        }
        AsPath { segments }
    }

    /// Heap bytes held by the path: the segment vector plus every
    /// segment's ASN vector, counted at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<PathSegment>()
            + self
                .segments
                .iter()
                .map(|s| s.asns.capacity() * std::mem::size_of::<Asn>())
                .sum::<usize>()
    }
}

impl fmt::Display for AsPath {
    /// Space-separated ASNs; `AS_SET`s in braces: `20205 3356 {174 209}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg.kind {
                SegmentKind::Sequence | SegmentKind::ConfedSequence => {
                    let mut inner_first = true;
                    for a in &seg.asns {
                        if !inner_first {
                            write!(f, " ")?;
                        }
                        inner_first = false;
                        write!(f, "{a}")?;
                    }
                }
                SegmentKind::Set | SegmentKind::ConfedSet => {
                    write!(f, "{{")?;
                    let mut inner_first = true;
                    for a in &seg.asns {
                        if !inner_first {
                            write!(f, " ")?;
                        }
                        inner_first = false;
                        write!(f, "{a}")?;
                    }
                    write!(f, "}}")?;
                }
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
        let mut segments: Vec<PathSegment> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            if let Some(after) = rest.strip_prefix('{') {
                if !seq.is_empty() {
                    segments.push(PathSegment::sequence(std::mem::take(&mut seq)));
                }
                let (inner, tail) = after.split_once('}').ok_or_else(err)?;
                let asns: Result<Vec<Asn>, _> =
                    inner.split_whitespace().map(|t| t.parse::<Asn>()).collect();
                segments.push(PathSegment::set(asns.map_err(|_| err())?));
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
            segments.push(PathSegment::sequence(seq));
        }
        Ok(AsPath { segments })
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
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.segments()[1].kind, SegmentKind::Set);
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
            PathSegment::sequence([Asn(1), Asn(2)]),
            PathSegment::set([Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(p.decision_length(), 3);
    }

    #[test]
    fn confed_segments_do_not_count() {
        let p = AsPath::from_segments(vec![
            PathSegment { kind: SegmentKind::ConfedSequence, asns: vec![Asn(65001), Asn(65002)] },
            PathSegment::sequence([Asn(1)]),
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
    fn as_set_sorted_unique() {
        let p: AsPath = "5 5 3 1 3".parse().unwrap();
        assert_eq!(p.as_set(), vec![Asn(1), Asn(3), Asn(5)]);
    }
}
