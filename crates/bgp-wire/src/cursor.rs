//! Big-endian reads off the front of a `&[u8]`.
//!
//! Every decoder in this crate and in `kcc_mrt` reads a `&mut &[u8]`:
//! a read returns the leading bytes and re-points the slice past them,
//! and a sub-field is a sub-slice of the input, never a copy. The
//! decoders check the length before they read, so these helpers assume
//! the bytes are there and panic like an out-of-range index otherwise.

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
    #[should_panic]
    fn a_read_past_the_end_panics() {
        u32(&mut &[0u8, 1][..]);
    }
}
