//! The codec's two primitives, so that every structure states its wire
//! layout once.
//!
//! * **Reading** goes through [`Cursor`], the frame parsers' own
//!   ([`netpkt::wire`] states the rule): every read is checked, a read
//!   past the end is [`Error::Truncated`], and [`Cursor::take`] splits
//!   off the sub-cursor of a structure whose length field says how far
//!   it reaches. A decoder reads its fields in order and needs no length
//!   precheck and no arithmetic on the bytes it consumed.
//! * **Writing** never predicts a length: a length field is reserved
//!   ([`reserve_u16`]), the structure written, and the field patched
//!   from the bytes actually written ([`patch_u16`]).

use bytes::{BufMut, BytesMut};

pub(crate) use netpkt::wire::Cursor;

/// Append a zero `u16` length field and return where it sits, for
/// [`patch_u16`] once the structure it measures is written.
#[inline]
pub(crate) fn reserve_u16(out: &mut BytesMut) -> usize {
    let at = out.len();
    out.put_u16(0);
    at
}

/// Set the length field reserved at `at` to the bytes written since
/// offset `from`.
#[inline]
pub(crate) fn patch_u16(out: &mut BytesMut, at: usize, from: usize) {
    let len = (out.len() - from) as u16;
    if let Some(field) = out.get_mut(at..at + 2) {
        field.copy_from_slice(&len.to_be_bytes());
    }
}

/// Zeros up to the next multiple of 8 bytes counted from offset `from`.
#[inline]
pub(crate) fn pad8(out: &mut BytesMut, from: usize) {
    out.put_bytes(0, (8 - (out.len() - from) % 8) % 8);
}

/// The 8-byte aligned type-length-value shape of actions, instructions
/// and meter bands: `ty`, a `u16` length of the whole structure, what
/// `body` writes, zeros to the next multiple of 8.
#[inline]
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
    fn a_short_read_is_the_codec_s_truncated() {
        let decode = |mut c: &[u8]| -> crate::Result<u32> { Ok(c.u32()?) };
        assert_eq!(decode(&[0, 0, 0, 7]), Ok(7));
        assert_eq!(decode(&[0, 0, 7]), Err(crate::Error::Truncated));
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
