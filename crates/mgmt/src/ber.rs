//! A BER (Basic Encoding Rules) subset sufficient for SNMPv2c: definite
//! lengths only, the SMI universal/application types, and context-tagged
//! PDUs.
//!
//! Everything is written into one buffer. A constructed TLV whose length
//! is not known up front is [opened](open) with a one-byte length field
//! and [closed](close) once its contents are written; closing widens the
//! field in place when the contents need the long form.
//!
//! Everything is read through [`netpkt::wire::Cursor`]: [`get_tlv`]
//! hands out a TLV's contents as a cursor that ends where its length
//! says. Each reader accepts only the bytes its writer produces for
//! the value it returns — lengths in the form [`put_len`] picks, integers
//! and OID arcs in their shortest form — so what decodes re-encodes to
//! the bytes it was read from.

use bytes::{BufMut, BytesMut};
use netpkt::wire::Cursor;

use crate::oid::Oid;
use crate::{Error, Result};

/// BER tag bytes used by SNMP.
#[allow(missing_docs)]
pub mod tag {
    pub const INTEGER: u8 = 0x02;
    pub const OCTET_STRING: u8 = 0x04;
    pub const NULL: u8 = 0x05;
    pub const OID: u8 = 0x06;
    pub const SEQUENCE: u8 = 0x30;
    pub const IP_ADDRESS: u8 = 0x40;
    pub const COUNTER32: u8 = 0x41;
    pub const GAUGE32: u8 = 0x42;
    pub const TIMETICKS: u8 = 0x43;
    pub const COUNTER64: u8 = 0x46;
    pub const NO_SUCH_OBJECT: u8 = 0x80;
    pub const NO_SUCH_INSTANCE: u8 = 0x81;
    pub const END_OF_MIB_VIEW: u8 = 0x82;
}

/// The bytes of a BER length in the definite form written here: one
/// byte below 0x80, else 0x81, 0x82 or 0x84 and that many big-endian
/// bytes.
fn len_form(len: usize) -> impl ExactSizeIterator<Item = u8> {
    let [b0, b1, b2, b3] = (len as u32).to_be_bytes();
    let (form, n) = if len < 0x80 {
        ([b3, 0, 0, 0, 0], 1)
    } else if len <= 0xff {
        ([0x81, b3, 0, 0, 0], 2)
    } else if len <= 0xffff {
        ([0x82, b2, b3, 0, 0], 3)
    } else {
        ([0x84, b0, b1, b2, b3], 5)
    };
    form.into_iter().take(n)
}

/// Append a BER length (definite form).
#[inline]
pub fn put_len(out: &mut BytesMut, len: usize) {
    for b in len_form(len) {
        out.put_u8(b);
    }
}

/// Start a constructed TLV `t` whose contents follow: writes the tag and
/// a one-byte length field, and returns where the contents start, for
/// [`close`].
#[inline]
pub fn open(out: &mut BytesMut, t: u8) -> usize {
    out.put_u8(t);
    out.put_u8(0);
    out.len()
}

/// End the TLV whose contents [`open`] said start at `start`: set its
/// length to the bytes written since. A length that needs the long form
/// widens the field in place, moving the contents behind it.
#[inline]
pub fn close(out: &mut BytesMut, start: usize) {
    let len = out.len() - start;
    let form = len_form(len);
    let wider = form.len() - 1;
    if wider > 0 {
        out.resize(out.len() + wider, 0);
        out.copy_within(start..start + len, start + wider);
    }
    for (field, b) in out.iter_mut().skip(start - 1).zip(form) {
        *field = b;
    }
}

/// Read a BER length from the front of `c`, only in the form
/// [`put_len`] writes it.
pub fn get_len(c: &mut &[u8]) -> Result<usize> {
    let first = c.u8()?;
    let len = match first {
        0..=0x7f => return Ok(usize::from(first)),
        0x81 => usize::from(c.u8()?),
        0x82 => usize::from(c.u16()?),
        0x84 => c.u32()? as usize,
        _ => return Err(Error::Malformed("indefinite or oversized BER length")),
    };
    if len_form(len).len() != 1 + usize::from(first & 0x7f) {
        return Err(Error::Malformed("BER length in a longer form than needed"));
    }
    Ok(len)
}

/// Append a full TLV.
#[inline]
pub fn put_tlv(out: &mut BytesMut, t: u8, value: &[u8]) {
    out.put_u8(t);
    put_len(out, value.len());
    out.put_slice(value);
}

/// Read one TLV: its tag, and its contents as a cursor of their own.
pub fn get_tlv<'a>(c: &mut &'a [u8]) -> Result<(u8, &'a [u8])> {
    let t = c.u8()?;
    let len = get_len(c)?;
    Ok((t, c.take(len)?))
}

/// Read one TLV that must be tagged `t`, returning its contents; any
/// other tag is `Malformed(what)`.
pub fn expect<'a>(c: &mut &'a [u8], t: u8, what: &'static str) -> Result<&'a [u8]> {
    match get_tlv(c)? {
        (got, contents) if got == t => Ok(contents),
        _ => Err(Error::Malformed(what)),
    }
}

/// Append an integer TLV tagged `t`. INTEGER, Counter32, Gauge32,
/// TimeTicks and Counter64 are all the same minimal two's-complement
/// integer on the wire; only the tag and the range differ.
#[inline]
pub fn put_integer(out: &mut BytesMut, t: u8, v: i128) {
    let sign_run = if v < 0 {
        v.leading_ones()
    } else {
        v.leading_zeros()
    };
    // The bits below the run of sign bits, and one sign bit.
    let n = (129 - sign_run).div_ceil(8) as usize;
    out.put_u8(t);
    put_len(out, n);
    for b in v.to_be_bytes().into_iter().skip(16 - n) {
        out.put_u8(b);
    }
}

/// Decode the contents of an integer TLV and narrow it to the range of
/// its type: `i64` for INTEGER, `u32` for Counter32, Gauge32 and
/// TimeTicks, `u64` for Counter64. Only the shortest two's-complement
/// form is read, so the value re-encodes to these bytes.
pub fn parse_integer<T: TryFrom<i128>>(value: &[u8]) -> Result<T> {
    let first = match value {
        [a @ (0x00 | 0xff), b, ..] if (a ^ b) & 0x80 == 0 => {
            return Err(Error::Malformed("integer not in its shortest form"))
        }
        [first, ..] if value.len() <= 16 => *first,
        [] => return Err(Error::Malformed("empty integer")),
        _ => return Err(Error::Malformed("integer out of range")),
    };
    let sign = i128::from(first as i8 >> 7);
    let v = value.iter().fold(sign, |v, &b| v << 8 | i128::from(b));
    T::try_from(v).map_err(|_| Error::Malformed("integer out of range"))
}

/// Encode an OID value (X.690 §8.19: first two arcs packed, base-128
/// continuation for the rest).
pub fn put_oid(out: &mut BytesMut, oid: &Oid) {
    let start = open(out, tag::OID);
    match oid.arcs() {
        [] => out.put_u8(0),
        [arc1] => put_base128(out, arc1 * 40),
        // The first two arcs pack into one sub-identifier; arc2 may
        // exceed 39 only when arc1 == 2.
        [arc1, arc2, rest @ ..] => {
            put_base128(out, arc1 * 40 + arc2);
            for &arc in rest {
                put_base128(out, arc);
            }
        }
    }
    close(out, start);
}

/// Seven bits a byte, most significant first; every byte but the last
/// has its top bit set. A u32 takes at most five.
fn put_base128(out: &mut BytesMut, v: u32) {
    let groups = (32 - v.leading_zeros()).div_ceil(7).max(1);
    for g in (1..groups).rev() {
        out.put_u8((v >> (7 * g)) as u8 | 0x80);
    }
    out.put_u8(v as u8 & 0x7f);
}

/// Read one base-128 arc as [`put_base128`] writes it: no leading
/// `0x80`, at most 32 bits.
pub(crate) fn get_arc(c: &mut &[u8]) -> Result<u32> {
    let unterminated = |_| Error::Malformed("unterminated base-128 arc");
    let mut b = c.u8().map_err(unterminated)?;
    if b == 0x80 {
        return Err(Error::Malformed("OID arc not in its shortest form"));
    }
    let mut v: u32 = 0;
    loop {
        if v >> 25 != 0 {
            return Err(Error::Malformed("OID arc wider than 32 bits"));
        }
        v = v << 7 | u32::from(b & 0x7f);
        if b & 0x80 == 0 {
            return Ok(v);
        }
        b = c.u8().map_err(unterminated)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OidRef;

    #[test]
    fn lengths_round_trip() {
        for len in [0usize, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000] {
            let mut out = BytesMut::new();
            put_len(&mut out, len);
            let mut s = &out[..];
            assert_eq!(get_len(&mut s).unwrap(), len);
            assert!(s.is_empty());
        }
        // A length only reads back in the form it is written in.
        for longer in [
            &[0x81, 0x7f][..],
            &[0x82, 0, 0xff],
            &[0x84, 0, 0, 0xff, 0xff],
        ] {
            let mut s = longer;
            assert!(matches!(get_len(&mut s), Err(Error::Malformed(_))));
        }
        let mut s = &[0x83, 1, 0, 0][..];
        assert!(matches!(get_len(&mut s), Err(Error::Malformed(_))));
    }

    /// A TLV opened and closed in place is byte-identical to one written
    /// from a finished buffer, at every length form and nested inside
    /// another that widens too.
    #[test]
    fn closing_in_place_widens_the_length_as_put_tlv_writes_it() {
        for len in [0usize, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000] {
            let content: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut inner = BytesMut::new();
            put_tlv(&mut inner, tag::OCTET_STRING, &content);
            let mut want = BytesMut::from(&[0xee][..]);
            put_tlv(
                &mut want,
                tag::SEQUENCE,
                &[&[0x05, 0x00], &inner[..]].concat(),
            );

            let mut got = BytesMut::from(&[0xee][..]);
            let outer = open(&mut got, tag::SEQUENCE);
            got.put_slice(&[0x05, 0x00]);
            let at = open(&mut got, tag::OCTET_STRING);
            got.put_slice(&content);
            close(&mut got, at);
            close(&mut got, outer);
            assert!(got == want, "content of {len} bytes");
        }
    }

    #[test]
    fn integers_round_trip_minimally() {
        for v in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            255,
            256,
            65535,
            -65536,
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = BytesMut::new();
            put_integer(&mut out, tag::INTEGER, v.into());
            let mut s = &out[..];
            let (t, val) = get_tlv(&mut s).unwrap();
            assert_eq!(t, tag::INTEGER);
            assert_eq!(parse_integer::<i64>(val).unwrap(), v, "value {v}");
        }
        // Check minimality: 127 fits in one byte, 128 needs two.
        let mut out = BytesMut::new();
        put_integer(&mut out, tag::INTEGER, 127);
        assert_eq!(&out[..], &[0x02, 0x01, 0x7f]);
        let mut out = BytesMut::new();
        put_integer(&mut out, tag::INTEGER, 128);
        assert_eq!(&out[..], &[0x02, 0x02, 0x00, 0x80]);
        // A redundant leading byte is not read.
        for padded in [&[0x00, 0x7f][..], &[0xff, 0x80]] {
            assert!(parse_integer::<i64>(padded).is_err());
        }
    }

    /// The unsigned SMI types are the same integers: a value whose top
    /// bit is set carries a zero sign byte, and each type is narrowed
    /// to its range when read.
    #[test]
    fn unsigned_round_trip() {
        for v in [0u64, 1, 127, 128, 255, 0xffff_ffff, u64::MAX] {
            let mut out = BytesMut::new();
            put_integer(&mut out, tag::COUNTER64, v.into());
            let mut s = &out[..];
            let (t, val) = get_tlv(&mut s).unwrap();
            assert_eq!(t, tag::COUNTER64);
            assert_eq!(parse_integer::<u64>(val).unwrap(), v, "value {v}");
            assert_eq!(parse_integer::<u32>(val).ok(), u32::try_from(v).ok());
        }
        // 0x80000000 must carry a leading zero byte (it is positive).
        let mut out = BytesMut::new();
        put_integer(&mut out, tag::GAUGE32, 0x8000_0000);
        assert_eq!(&out[..], &[0x42, 0x05, 0x00, 0x80, 0x00, 0x00, 0x00]);
        assert!(parse_integer::<u32>(&[0xff]).is_err(), "negative");
    }

    #[test]
    fn oids_round_trip() {
        for s in ["1.3.6.1.2.1.1.1.0", "1.3", "2.100.3", "1.3.6.1.4.1.99999.1"] {
            let oid: Oid = s.parse().unwrap();
            let mut out = BytesMut::new();
            put_oid(&mut out, &oid);
            let mut sl = &out[..];
            let (t, val) = get_tlv(&mut sl).unwrap();
            assert_eq!(t, tag::OID);
            assert_eq!(OidRef::new(val).unwrap().to_owned(), oid, "oid {s}");
        }
        // The canonical 1.3.6.1 prefix byte is 0x2b.
        let mut out = BytesMut::new();
        put_oid(&mut out, &"1.3.6.1".parse().unwrap());
        assert_eq!(&out[..], &[0x06, 0x03, 0x2b, 0x06, 0x01]);
    }

    #[test]
    fn tlv_rejects_truncation() {
        let mut s = &[0x02u8][..];
        assert_eq!(get_tlv(&mut s).unwrap_err(), Error::Truncated);
        let mut s = &[0x02u8, 0x05, 0x01][..];
        assert_eq!(get_tlv(&mut s).unwrap_err(), Error::Truncated);
        let mut s = &[0x02u8, 0x80][..]; // indefinite length
        assert!(get_tlv(&mut s).is_err());
    }
}
