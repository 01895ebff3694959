//! A BER (Basic Encoding Rules) subset sufficient for SNMPv2c: definite
//! lengths only, the SMI universal/application types, and context-tagged
//! PDUs.
//!
//! Everything is written into one buffer. A constructed TLV whose length
//! is not known up front is [opened](open) with a one-byte length field
//! and [closed](close) once its contents are written; closing widens the
//! field in place when the contents need the long form.

use bytes::{BufMut, BytesMut};

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

/// A BER length (definite form): the bytes, and how many of them it
/// takes.
fn len_form(len: usize) -> ([u8; 5], usize) {
    let [b0, b1, b2, b3] = (len as u32).to_be_bytes();
    if len < 0x80 {
        ([b3, 0, 0, 0, 0], 1)
    } else if len <= 0xff {
        ([0x81, b3, 0, 0, 0], 2)
    } else if len <= 0xffff {
        ([0x82, b2, b3, 0, 0], 3)
    } else {
        ([0x84, b0, b1, b2, b3], 5)
    }
}

/// Append a BER length (definite form).
pub fn put_len(out: &mut BytesMut, len: usize) {
    let (form, n) = len_form(len);
    out.put_slice(&form[..n]);
}

/// Start a constructed TLV `t` whose contents follow: writes the tag and
/// a one-byte length field, and returns where the contents start, for
/// [`close`].
pub fn open(out: &mut BytesMut, t: u8) -> usize {
    out.put_u8(t);
    out.put_u8(0);
    out.len()
}

/// End the TLV whose contents [`open`] said start at `start`: set its
/// length to the bytes written since. A length that needs the long form
/// widens the field in place, moving the contents behind it.
pub fn close(out: &mut BytesMut, start: usize) {
    let len = out.len() - start;
    let (form, n) = len_form(len);
    let wider = n - 1;
    if wider > 0 {
        out.resize(out.len() + wider, 0);
        out.copy_within(start..start + len, start + wider);
    }
    out[start - 1..start + wider].copy_from_slice(&form[..n]);
}

/// Read a BER length from the front of `buf`.
pub fn get_len(buf: &mut &[u8]) -> Result<usize> {
    if buf.is_empty() {
        return Err(Error::Truncated);
    }
    let first = buf[0];
    *buf = &buf[1..];
    if first < 0x80 {
        return Ok(usize::from(first));
    }
    let n = usize::from(first & 0x7f);
    if n == 0 || n > 4 {
        return Err(Error::Malformed("indefinite or oversized BER length"));
    }
    if buf.len() < n {
        return Err(Error::Truncated);
    }
    let mut len = 0usize;
    for i in 0..n {
        len = (len << 8) | usize::from(buf[i]);
    }
    *buf = &buf[n..];
    Ok(len)
}

/// Append a full TLV.
pub fn put_tlv(out: &mut BytesMut, t: u8, value: &[u8]) {
    out.put_u8(t);
    put_len(out, value.len());
    out.put_slice(value);
}

/// Read one TLV header, returning `(tag, value-slice)` and advancing `buf`
/// past the whole TLV.
pub fn get_tlv<'a>(buf: &mut &'a [u8]) -> Result<(u8, &'a [u8])> {
    if buf.is_empty() {
        return Err(Error::Truncated);
    }
    let t = buf[0];
    *buf = &buf[1..];
    let len = get_len(buf)?;
    if buf.len() < len {
        return Err(Error::Truncated);
    }
    let value = &buf[..len];
    *buf = &buf[len..];
    Ok((t, value))
}

/// Encode a signed integer in minimal two's-complement form.
pub fn put_integer(out: &mut BytesMut, t: u8, v: i64) {
    let bytes = v.to_be_bytes();
    // Find the minimal representation: strip redundant leading bytes.
    let mut start = 0;
    while start < 7 {
        let b = bytes[start];
        let next_msb = bytes[start + 1] & 0x80;
        if (b == 0x00 && next_msb == 0) || (b == 0xff && next_msb != 0) {
            start += 1;
        } else {
            break;
        }
    }
    put_tlv(out, t, &bytes[start..]);
}

/// Decode a signed integer from a TLV value.
pub fn parse_integer(value: &[u8]) -> Result<i64> {
    if value.is_empty() || value.len() > 8 {
        return Err(Error::Malformed("bad integer length"));
    }
    let negative = value[0] & 0x80 != 0;
    let mut v: i64 = if negative { -1 } else { 0 };
    for &b in value {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

/// Encode an unsigned value (Counter/Gauge/TimeTicks) — BER still treats it
/// as an integer, so a guard zero byte is prepended when the MSB of the
/// minimal representation is set.
pub fn put_unsigned(out: &mut BytesMut, t: u8, v: u64) {
    let be = v.to_be_bytes();
    let first = be.iter().position(|&b| b != 0).unwrap_or(7);
    let guard = be[first] & 0x80 != 0;
    out.put_u8(t);
    put_len(out, usize::from(guard) + be.len() - first);
    if guard {
        out.put_u8(0);
    }
    out.put_slice(&be[first..]);
}

/// Decode an unsigned value from a TLV value.
pub fn parse_unsigned(value: &[u8]) -> Result<u64> {
    if value.is_empty() || value.len() > 9 || (value.len() == 9 && value[0] != 0) {
        return Err(Error::Malformed("bad unsigned length"));
    }
    let mut v: u64 = 0;
    for &b in value {
        v = (v << 8) | u64::from(b);
    }
    Ok(v)
}

/// Encode an OID value (X.690 §8.19: first two arcs packed, base-128
/// continuation for the rest).
pub fn put_oid(out: &mut BytesMut, oid: &Oid) {
    let arcs = oid.arcs();
    let start = open(out, tag::OID);
    match arcs.len() {
        0 => out.put_u8(0),
        1 => put_base128(out, arcs[0] * 40),
        _ => {
            // The first two arcs pack into one (base-128) sub-identifier;
            // arc2 may exceed 39 only when arc1 == 2.
            put_base128(out, arcs[0] * 40 + arcs[1]);
            for &arc in &arcs[2..] {
                put_base128(out, arc);
            }
        }
    }
    close(out, start);
}

fn put_base128(out: &mut BytesMut, mut v: u32) {
    // Seven bits a byte, most significant first; every byte but the
    // last has its top bit set. A u32 takes at most five.
    let mut tmp = [0u8; 5];
    let mut i = tmp.len();
    let mut more = 0;
    loop {
        i -= 1;
        tmp[i] = (v & 0x7f) as u8 | more;
        v >>= 7;
        more = 0x80;
        if v == 0 {
            break;
        }
    }
    out.put_slice(&tmp[i..]);
}

/// Decode an OID from a TLV value.
pub fn parse_oid(value: &[u8]) -> Result<Oid> {
    if value.is_empty() {
        return Err(Error::Malformed("empty OID"));
    }
    fn read_arc(value: &[u8], i: &mut usize) -> Result<u32> {
        let mut v: u32 = 0;
        loop {
            if *i >= value.len() {
                return Err(Error::Malformed("unterminated base-128 arc"));
            }
            let b = value[*i];
            *i += 1;
            v = (v << 7) | u32::from(b & 0x7f);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
    }
    let mut i = 0;
    let first = read_arc(value, &mut i)?;
    let mut arcs = Vec::new();
    // X.690 §8.19.4: arc1 is 0, 1 or 2; arc2 = first − 40·arc1.
    let arc1 = (first / 40).min(2);
    arcs.push(arc1);
    arcs.push(first - 40 * arc1);
    while i < value.len() {
        let v = read_arc(value, &mut i)?;
        arcs.push(v);
    }
    Ok(Oid(arcs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_round_trip() {
        for len in [0usize, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000] {
            let mut out = BytesMut::new();
            put_len(&mut out, len);
            let mut s = &out[..];
            assert_eq!(get_len(&mut s).unwrap(), len);
            assert!(s.is_empty());
        }
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
            put_integer(&mut out, tag::INTEGER, v);
            let mut s = &out[..];
            let (t, val) = get_tlv(&mut s).unwrap();
            assert_eq!(t, tag::INTEGER);
            assert_eq!(parse_integer(val).unwrap(), v, "value {v}");
        }
        // Check minimality: 127 fits in one byte, 128 needs two.
        let mut out = BytesMut::new();
        put_integer(&mut out, tag::INTEGER, 127);
        assert_eq!(&out[..], &[0x02, 0x01, 0x7f]);
        let mut out = BytesMut::new();
        put_integer(&mut out, tag::INTEGER, 128);
        assert_eq!(&out[..], &[0x02, 0x02, 0x00, 0x80]);
    }

    #[test]
    fn unsigned_round_trip() {
        for v in [0u64, 1, 127, 128, 255, 0xffff_ffff, u64::MAX] {
            let mut out = BytesMut::new();
            put_unsigned(&mut out, tag::COUNTER64, v);
            let mut s = &out[..];
            let (t, val) = get_tlv(&mut s).unwrap();
            assert_eq!(t, tag::COUNTER64);
            assert_eq!(parse_unsigned(val).unwrap(), v, "value {v}");
        }
        // 0x80000000 must carry a leading zero byte (it is positive).
        let mut out = BytesMut::new();
        put_unsigned(&mut out, tag::GAUGE32, 0x8000_0000);
        assert_eq!(&out[..], &[0x42, 0x05, 0x00, 0x80, 0x00, 0x00, 0x00]);
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
            assert_eq!(parse_oid(val).unwrap(), oid, "oid {s}");
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
