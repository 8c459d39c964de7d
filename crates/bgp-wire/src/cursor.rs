//! Big-endian reads off the front of a `&[u8]`, and writes onto the
//! back of a `Vec<u8>`.
//!
//! Every decoder in this crate and in `kcc_mrt` reads a `&mut &[u8]`:
//! a read returns the leading bytes and re-points the slice past them,
//! and a sub-field is a sub-slice of the input, never a copy. The
//! decoders check the length before they read, so these helpers assume
//! the bytes are there and panic like an out-of-range index otherwise.
//! Every encoder appends to a `Vec<u8>` through [`Put`].

/// Splits off the first `n` bytes.
#[inline]
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    head
}

/// Reads the first `N` bytes as an array.
#[inline]
pub fn array<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk::<N>().expect("length checked by the caller");
    *buf = rest;
    *head
}

/// Reads one byte.
#[inline]
pub fn u8(buf: &mut &[u8]) -> u8 {
    array::<1>(buf)[0]
}

/// Reads a big-endian `u16`.
#[inline]
pub fn u16(buf: &mut &[u8]) -> u16 {
    u16::from_be_bytes(array(buf))
}

/// Reads a big-endian `u32`.
#[inline]
pub fn u32(buf: &mut &[u8]) -> u32 {
    u32::from_be_bytes(array(buf))
}

/// Big-endian appends, the write side of the helpers above.
pub trait Put {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl Put for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_past_what_they_return() {
        let bytes = [1u8, 0, 2, 0, 0, 0, 3, 9, 8, 7];
        let mut buf = &bytes[..];
        assert_eq!(u8(&mut buf), 1);
        assert_eq!(u16(&mut buf), 2);
        assert_eq!(u32(&mut buf), 3);
        assert_eq!(take(&mut buf, 2), &[9, 8]);
        assert_eq!(array::<1>(&mut buf), [7]);
        assert!(buf.is_empty());
    }

    #[test]
    fn puts_read_back() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16(0x0102);
        buf.put_u32(0xdead_beef);
        buf.put_slice(&[9, 8]);
        assert_eq!(buf, [7, 1, 2, 0xde, 0xad, 0xbe, 0xef, 9, 8]);
        let mut rest = &buf[..];
        assert_eq!(u8(&mut rest), 7);
        assert_eq!(u16(&mut rest), 0x0102);
        assert_eq!(u32(&mut rest), 0xdead_beef);
        assert_eq!(rest, [9, 8]);
    }

    #[test]
    #[should_panic]
    fn a_read_past_the_end_panics() {
        u32(&mut &[0u8, 1][..]);
    }
}
