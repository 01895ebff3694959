//! The codec's two primitives, so that every structure states its wire
//! layout once.
//!
//! * **Reading** goes through [`Cursor`], which `&[u8]` implements:
//!   every read is checked and fails with [`Error::Truncated`] where the
//!   bytes run out, and [`Cursor::take`] splits off the sub-cursor of a
//!   structure whose length field says how far it reaches. A decoder
//!   reads its fields in order and needs no length precheck and no
//!   arithmetic on the bytes it consumed.
//! * **Writing** never predicts a length: a length field is reserved
//!   ([`reserve_u16`]), the structure written, and the field patched
//!   from the bytes actually written ([`patch_u16`]).

use bytes::{BufMut, BytesMut};

use crate::{Error, Result};

/// Checked big-endian reads from the front of a byte slice, advancing it.
pub(crate) trait Cursor<'a>: Sized {
    /// The next `n` bytes, as a cursor of their own.
    fn take(&mut self, n: usize) -> Result<&'a [u8]>;

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]>;

    /// Decode items with `item` until the cursor is used up: the
    /// structures behind a length field, or a multipart body.
    fn items<T>(self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>>;

    /// Step over `n` bytes (padding, fields this subset ignores).
    fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }

    /// One byte.
    fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// A big-endian `u128`.
    fn u128(&mut self) -> Result<u128> {
        self.array().map(u128::from_be_bytes)
    }
}

impl<'a> Cursor<'a> for &'a [u8] {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.split_at_checked(n).ok_or(Error::Truncated)?;
        *self = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.split_first_chunk().ok_or(Error::Truncated)?;
        *self = rest;
        Ok(*head)
    }

    fn items<T>(mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = Vec::new();
        while !self.is_empty() {
            out.push(item(&mut self)?);
        }
        Ok(out)
    }
}

/// Append a zero `u16` length field and return where it sits, for
/// [`patch_u16`] once the structure it measures is written.
pub(crate) fn reserve_u16(out: &mut BytesMut) -> usize {
    let at = out.len();
    out.put_u16(0);
    at
}

/// Set the length field reserved at `at` to the bytes written since
/// offset `from`.
pub(crate) fn patch_u16(out: &mut BytesMut, at: usize, from: usize) {
    let len = (out.len() - from) as u16;
    if let Some(field) = out.get_mut(at..at + 2) {
        field.copy_from_slice(&len.to_be_bytes());
    }
}

/// Zeros up to the next multiple of 8 bytes counted from offset `from`.
pub(crate) fn pad8(out: &mut BytesMut, from: usize) {
    out.put_bytes(0, (8 - (out.len() - from) % 8) % 8);
}

/// The 8-byte aligned type-length-value shape of actions, instructions
/// and meter bands: `ty`, a `u16` length of the whole structure, what
/// `body` writes, zeros to the next multiple of 8.
pub(crate) fn put_tlv(out: &mut BytesMut, ty: u16, body: impl FnOnce(&mut BytesMut)) {
    let start = out.len();
    out.put_u16(ty);
    let len = reserve_u16(out);
    body(out);
    pad8(out, start);
    patch_u16(out, len, start);
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
    fn tlv_length_and_padding_come_from_the_bytes_written() {
        let mut out = BytesMut::new();
        out.put_u8(0xee); // a structure that does not start at 0
        put_tlv(&mut out, 7, |out| out.put_u16(0xabcd));
        assert_eq!(&out[..], &[0xee, 0, 7, 0, 8, 0xab, 0xcd, 0, 0]);
        put_tlv(&mut out, 9, |out| out.put_u64(1));
        assert_eq!(&out[9..13], &[0, 9, 0, 16]);
        assert_eq!(out.len(), 9 + 16);
    }
}
