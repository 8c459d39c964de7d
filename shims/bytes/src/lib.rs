//! Offline, API-compatible subset of the [`bytes`](https://docs.rs/bytes)
//! crate.
//!
//! The build environment for this workspace has no crates.io access, so the
//! exact surface the workspace uses — [`Bytes`], [`BytesMut`], [`Buf`] and
//! [`BufMut`] — is reimplemented here on top of `Vec<u8>`/`Arc`. Semantics
//! match upstream `bytes` 1.x for the implemented methods (including panics
//! on overruns); cheap zero-copy cloning of `Bytes` is preserved via `Arc`.
//! Like upstream, a [`BytesMut`] used as a FIFO (append at the tail,
//! [`Buf::advance`] at the head) reuses its consumed prefix when it needs
//! room, so its capacity tracks what is unread, not what ever passed
//! through it.
//! Swapping back to the upstream crate is a one-line change in the root
//! `Cargo.toml`.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Read access to a contiguous or segmented byte buffer with an internal
/// cursor.
pub trait Buf {
    /// Number of bytes between the cursor and the end of the buffer.
    fn remaining(&self) -> usize;
    /// The bytes remaining, starting at the cursor.
    fn chunk(&self) -> &[u8];
    /// Advance the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True when no bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A cheaply cloneable immutable byte buffer.
///
/// Backed by an `Arc<[u8]>` plus a window; `clone` and [`Bytes::slice`] are
/// O(1) and share the underlying allocation, like upstream `bytes`.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes { data: Arc::from(src), start: 0, end: src.len() }
    }

    /// Create a buffer from a static slice.
    pub fn from_static(src: &'static [u8]) -> Self {
        Self::copy_from_slice(src)
    }

    /// Length of the remaining view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view of this buffer; `range` is relative to the
    /// current view.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// The remaining bytes as a slice.
    fn view(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.view().to_vec()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.view()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.view()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.view()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.view()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::from(v.into_boxed_slice()), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.view() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.view().cmp(other.view())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.view() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable, uniquely owned byte buffer.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    read: usize,
}

// Like upstream `bytes`, equality is over the visible window only — a
// partially consumed buffer equals a fresh one with the same remaining
// bytes. The derive would also compare the consumed prefix.
impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}
impl Eq for BytesMut {}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap), read: 0 }
    }

    /// Number of unread bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.read
    }

    /// True when no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the buffer can hold from its read position without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity() - self.read
    }

    /// Reserve space for at least `additional` more bytes, reusing the
    /// consumed prefix before growing, as upstream does: a fully read
    /// buffer starts over at the front, and when the room at the back is
    /// short and the read part is at least as large as the unread tail,
    /// the tail moves to the front (a copy no larger than what was read
    /// since the last move).
    pub fn reserve(&mut self, additional: usize) {
        if self.read == self.data.len() {
            self.clear();
        }
        if self.data.capacity() - self.data.len() >= additional {
            return;
        }
        if self.read > 0 && self.read >= self.len() {
            self.data.drain(..self.read);
            self.read = 0;
        }
        self.data.reserve(additional);
    }

    /// Append the contents of another buffer.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        self.data.extend_from_slice(src);
    }

    /// Shorten the unread bytes to `len`; no-op if already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(self.read + len);
    }

    /// Clear the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
        self.read = 0;
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        if self.read > 0 {
            self.data.drain(..self.read);
        }
        Bytes::from(self.data)
    }

    /// The unread bytes as a slice.
    fn view(&self) -> &[u8] {
        &self.data[self.read..]
    }

    /// The unread bytes as a mutable slice.
    fn view_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.read..]
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.view()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.read += cnt;
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.view()
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.view_mut()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.view()
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.clone().freeze(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(0x0102);
        buf.put_u32(0xdead_beef);
        buf.put_u64(42);
        let b = buf.freeze();
        assert_eq!(b.len(), 15);
        assert_eq!(&b[..7], &[7, 1, 2, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(&b[7..], &42u64.to_be_bytes());
    }

    #[test]
    fn slice_is_relative_to_view() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        b.advance(2);
        let s = b.slice(1..3);
        assert_eq!(&s[..], &[3, 4]);
    }

    #[test]
    fn fifo_reuses_its_consumed_prefix() {
        let mut fifo = BytesMut::new();
        let chunk = [7u8; 1000];
        let mut next = 0u8;
        for round in 0..10_000usize {
            fifo.extend_from_slice(&chunk);
            // Read all but a ragged tail, like a framer leaving a partial
            // frame behind.
            let keep = round % 300;
            fifo.advance(fifo.len() - keep);
            fifo.put_u8(next);
            next = next.wrapping_add(1);
            assert_eq!(fifo[fifo.len() - 1], next.wrapping_sub(1), "appends land at the tail");
        }
        assert!(
            fifo.capacity() <= 4 * chunk.len(),
            "capacity {} grew with traffic",
            fifo.capacity()
        );
        fifo.advance(fifo.len());
        fifo.extend_from_slice(b"abc");
        assert_eq!(&fifo[..], b"abc", "a fully read buffer starts over at the front");
    }

    #[test]
    fn reuse_keeps_the_unread_bytes() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"0123456");
        b.advance(5);
        b.put_slice(b"789abc");
        assert_eq!(&b[..], b"56789abc");
        b.truncate(3);
        assert_eq!(&b[..], b"567");
    }
}
