//! The two cursors every header is read and written through, so that
//! each states its wire layout once and none can index past its bytes:
//! [`Cursor`] reads a `&[u8]` from the front, [`CursorMut`] writes a
//! `&mut [u8]`, and either fails with [`Error::Truncated`] where the
//! bytes run out. [`Cursor::take`] splits off the sub-cursor of a
//! structure whose length field says how far it reaches, so a parser
//! needs no length precheck and no arithmetic on what it consumed. The
//! OpenFlow codec reads its messages with the same [`Cursor`].

use crate::{Error, Result};

/// Checked big-endian reads from the front of a byte slice, advancing it.
pub trait Cursor<'a>: Sized {
    /// The next `n` bytes, as a cursor of their own.
    fn take(&mut self, n: usize) -> Result<&'a [u8]>;

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]>;

    /// Decode items with `item` until the cursor is used up: the
    /// structures behind a length field, or a multipart body. No item
    /// takes fewer than `min_len` bytes, so the vector is sized once,
    /// for as many items as the bytes can hold, and never grown.
    fn items<T, E: From<Error>>(
        self,
        min_len: usize,
        item: impl FnMut(&mut Self) -> core::result::Result<T, E>,
    ) -> core::result::Result<Vec<T>, E>;

    /// Step over `n` bytes (padding, fields this subset ignores).
    #[inline]
    fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }

    /// One byte.
    #[inline]
    fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    #[inline]
    fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_be_bytes)
    }
}

impl<'a> Cursor<'a> for &'a [u8] {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.split_at_checked(n).ok_or(Error::Truncated)?;
        *self = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.split_first_chunk().ok_or(Error::Truncated)?;
        *self = rest;
        Ok(*head)
    }

    fn items<T, E: From<Error>>(
        mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> core::result::Result<T, E>,
    ) -> core::result::Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(self.len() / min_len.max(1));
        while !self.is_empty() {
            out.push(item(&mut self)?);
        }
        Ok(out)
    }
}

/// Checked big-endian writes to the front of a mutable byte slice,
/// advancing it: the writing twin of [`Cursor`].
pub trait CursorMut {
    /// Copy `bytes` to the front.
    fn put(&mut self, bytes: &[u8]) -> Result<()>;

    /// One byte.
    #[inline]
    fn put_u8(&mut self, v: u8) -> Result<()> {
        self.put(&[v])
    }

    /// A big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) -> Result<()> {
        self.put(&v.to_be_bytes())
    }

    /// A big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) -> Result<()> {
        self.put(&v.to_be_bytes())
    }
}

impl CursorMut for &mut [u8] {
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        let (head, rest) = core::mem::take(self)
            .split_at_mut_checked(bytes.len())
            .ok_or(Error::Truncated)?;
        head.copy_from_slice(bytes);
        *self = rest;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_checked_and_take_bounds_a_sub_cursor() {
        let mut c: &[u8] = &[0, 1, 2, 3, 4, 5, 6];
        assert_eq!(c.u16(), Ok(1));
        let mut sub = c.take(3).unwrap();
        assert_eq!(sub.u16(), Ok(0x0203));
        assert_eq!(sub.u16(), Err(Error::Truncated));
        assert_eq!(c.u32(), Err(Error::Truncated));
        assert_eq!(c.skip(2), Ok(()));
        assert!(c.is_empty());
        assert_eq!(c.take(1), Err(Error::Truncated));
    }

    #[test]
    fn writes_are_checked_against_the_room_left() {
        let mut buf = [0u8; 5];
        let mut w = &mut buf[..];
        assert_eq!(w.put_u16(0x0102), Ok(()));
        assert_eq!(w.put_u8(3), Ok(()));
        assert_eq!(w.put_u32(0xdead_beef), Err(Error::Truncated));
        assert_eq!(buf, [1, 2, 3, 0, 0]);
    }
}
