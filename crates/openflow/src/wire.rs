//! The codec's primitives, so that every structure states its wire
//! layout once, and one walk reads and writes it.
//!
//! * **Leaves** implement [`Wire`]: `put` appends a value and `get`
//!   reads one from the front of a [`Cursor`], the frame parsers' own
//!   ([`netpkt::wire`] states the rule): every read is checked, and a
//!   read past the end is [`Error::Truncated`]. The leaves are the
//!   integers, addresses, the wire enums ([`wire_enum!`]), matches,
//!   actions and instructions, and lists of any of them. A codec may
//!   also stand for a type it is not: [`Str`] lays out a `String` as a
//!   NUL-padded field.
//! * **Bodies** are ordered field lists: `datapath_id: u64, n_buffers:
//!   u32, n_tables: u8, pad 3, …`. [`layout!`] turns one list into both
//!   directions of a struct, and [`wire_union!`] turns a table of them,
//!   keyed by type code, into an enum's `put_body` and `get_body`. The
//!   encoder writes the items in order and the decoder reads them in
//!   the same order, so no layout is written twice.
//! * **Senders** may hold what they write in borrowed form: [`Put`] is
//!   the writing half of a codec alone. Every [`Wire`] codec has it,
//!   and a borrowed action list (`&[Action]`, built on a sender's
//!   stack) has only it, so one instruction layout writes an owned
//!   instruction and a borrowed one.
//! * **Lengths** are never predicted. [`put_sized`] reserves a length
//!   field, writes the structure and patches the field from the bytes
//!   written. [`get_sized`] reads the field back, checks it and splits
//!   off the structure as a sub-cursor that ends where the field says.
//!   A decoder needs no length precheck and no arithmetic on the bytes
//!   it consumed.
//!
//! Checks that are not layout stay beside the walk, one each: an
//! unknown type code, a length below its structure's header.

use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, Bytes, BytesMut};
use netpkt::MacAddr;

pub(crate) use netpkt::wire::Cursor;

use crate::{Error, Result};

/// How a `T` is laid out on the wire. A leaf type is its own codec
/// (`T = Self`); a codec type that stands for another, such as
/// [`Str`], is named in a field list where the field's own type would
/// be.
pub(crate) trait Wire<'a, T = Self> {
    /// Append `v` to `out`.
    fn put(v: &T, out: &mut BytesMut);
    /// Read a `T` from the front of `buf`.
    fn get(buf: &mut &'a [u8]) -> Result<T>;
}

/// The writing half of a codec: what a value that is only ever sent
/// needs. It is `pub` only so that a public bound can name it
/// ([`crate::instruction::ActionList`]); the module is private.
pub trait Put<T = Self> {
    /// Append `v` to `out`.
    fn put(v: &T, out: &mut BytesMut);
}

impl<'a, T, C: Wire<'a, T>> Put<T> for C {
    #[inline]
    fn put(v: &T, out: &mut BytesMut) {
        <C as Wire<'a, T>>::put(v, out);
    }
}

/// A structure that comes in lists: the fewest bytes one takes on the
/// wire. A list is read into a vector sized once for as many items as
/// its bytes can hold, so reading it never grows the vector.
pub(crate) trait ListItem {
    /// The shortest item the decoder accepts.
    const MIN_LEN: usize;
}

macro_rules! big_endian {
    ($($t:ty),*) => {$(
        impl Wire<'_> for $t {
            #[inline]
            fn put(v: &$t, out: &mut BytesMut) {
                out.put_slice(&v.to_be_bytes());
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> Result<$t> {
                Ok(<$t>::from_be_bytes(buf.array()?))
            }
        }
    )*};
}

big_endian!(u8, u16, u32, u64);

impl Wire<'_> for MacAddr {
    #[inline]
    fn put(v: &MacAddr, out: &mut BytesMut) {
        out.put_slice(&v.octets());
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<MacAddr> {
        Ok(MacAddr(buf.array()?))
    }
}

impl Wire<'_> for Ipv4Addr {
    #[inline]
    fn put(v: &Ipv4Addr, out: &mut BytesMut) {
        out.put_slice(&v.octets());
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Ipv4Addr> {
        Ok(Ipv4Addr::from(buf.array::<4>()?))
    }
}

impl Wire<'_> for Ipv6Addr {
    #[inline]
    fn put(v: &Ipv6Addr, out: &mut BytesMut) {
        out.put_slice(&v.octets());
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Ipv6Addr> {
        Ok(Ipv6Addr::from(buf.array::<16>()?))
    }
}

/// The rest of a body, copied: a message's trailing data.
impl Wire<'_> for Bytes {
    #[inline]
    fn put(v: &Bytes, out: &mut BytesMut) {
        out.put_slice(v);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Bytes> {
        Ok(Bytes::copy_from_slice(std::mem::take(buf)))
    }
}

/// The rest of a body, where the message holds it.
impl<'a> Wire<'a> for &'a [u8] {
    #[inline]
    fn put(v: &&'a [u8], out: &mut BytesMut) {
        out.put_slice(v);
    }
    #[inline]
    fn get(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
        Ok(std::mem::take(buf))
    }
}

/// Items to the end of the cursor: what a length field bounds, or the
/// rest of a body.
impl<'a, T: Wire<'a> + ListItem> Wire<'a> for Vec<T> {
    #[inline]
    fn put(v: &Vec<T>, out: &mut BytesMut) {
        v.iter().for_each(|item| <T as Wire>::put(item, out));
    }
    #[inline]
    fn get(buf: &mut &'a [u8]) -> Result<Vec<T>> {
        std::mem::take(buf).items(T::MIN_LEN, <T as Wire>::get)
    }
}

/// A NUL-padded string field `N` bytes wide; at most `N - 1` bytes of
/// the string are kept.
pub(crate) struct Str<const N: usize>;

impl<const N: usize> Wire<'_, String> for Str<N> {
    fn put(s: &String, out: &mut BytesMut) {
        let kept = s.len().min(N - 1);
        out.extend(s.bytes().take(kept));
        out.put_bytes(0, N - kept);
    }
    fn get(buf: &mut &[u8]) -> Result<String> {
        let field = buf.take(N)?;
        let text = field.split(|&b| b == 0).next().unwrap_or_default();
        Ok(String::from_utf8_lossy(text).into_owned())
    }
}

/// Write a structure behind a `u16` length field: `gap` zeros after the
/// field, then what `body` writes. The length counts `lead` bytes in
/// front of the body besides it (0: the body alone; 2: the field too;
/// 4: a type code in front of the field as well) and is patched in from
/// the bytes written.
#[inline]
pub(crate) fn put_sized(
    out: &mut BytesMut,
    lead: usize,
    gap: usize,
    body: impl FnOnce(&mut BytesMut),
) {
    let at = out.len();
    out.put_u16(0);
    if gap > 0 {
        out.put_bytes(0, gap);
    }
    let from = out.len() - lead;
    body(out);
    let len = (out.len() - from) as u16;
    if let Some(field) = out.get_mut(at..at + 2) {
        field.copy_from_slice(&len.to_be_bytes());
    }
}

/// Read the length field of a structure [`put_sized`] wrote, and split
/// off the structure. A length `valid` refuses, or one shorter than
/// `lead`, is [`Error::Malformed`] with `bad`.
#[inline]
pub(crate) fn get_sized<'a>(
    buf: &mut &'a [u8],
    lead: usize,
    gap: usize,
    valid: impl FnOnce(usize) -> bool,
    bad: &'static str,
) -> Result<&'a [u8]> {
    let len = usize::from(buf.u16()?);
    if len < lead || !valid(len) {
        return Err(Error::Malformed(bad));
    }
    buf.skip(gap)?;
    Ok(buf.take(len - lead)?)
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
    put_sized(out, 4, 0, |out| {
        body(out);
        pad8(out, start);
    });
}

/// Read the type code of a structure [`put_tlv`] wrote, and split off
/// the rest of it; `valid` and `bad` as for [`get_sized`].
#[inline]
pub(crate) fn get_tlv<'a>(
    buf: &mut &'a [u8],
    valid: impl FnOnce(usize) -> bool,
    bad: &'static str,
) -> Result<(u16, &'a [u8])> {
    let ty = buf.u16()?;
    Ok((ty, get_sized(buf, 4, 0, valid, bad)?))
}

/// One ordered field list, both directions. Its items, in wire order:
///
/// * `name: Codec` — a field, laid out by `Codec` ([`Wire`]), most
///   often the field's own type;
/// * `pad N` — `N` zero bytes, skipped when read;
/// * `_: Codec = value` — a field the subset does not keep: written as
///   `value`, read and dropped.
///
/// `layout!(Type { items })` implements [`Wire`] for a struct, and
/// `layout!(Type { items } sized lead, valid, "bad")` for one behind
/// a `u16` length ([`put_sized`], [`get_sized`]). [`wire_union!`]
/// lays out an enum's variants with the same items.
macro_rules! layout {
    ($ty:ident { $($items:tt)* }) => {
        impl $crate::wire::Wire<'_> for $ty {
            #[inline]
            fn put(v: &$ty, out: &mut ::bytes::BytesMut) {
                let $crate::wire::layout!(@pat [$ty] v { $($items)* }) = v;
                $crate::wire::layout!(@items out $($items)*)
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> $crate::Result<$ty> {
                Ok($crate::wire::layout!(@get buf [$ty] { $($items)* }))
            }
        }
    };
    ($ty:ident { $($items:tt)* } sized $lead:literal, $valid:expr, $bad:literal) => {
        impl $crate::wire::Wire<'_> for $ty {
            #[inline]
            fn put(v: &$ty, out: &mut ::bytes::BytesMut) {
                let $crate::wire::layout!(@pat [$ty] v { $($items)* }) = v;
                $crate::wire::put_sized(out, $lead, 0, |out| {
                    $crate::wire::layout!(@items out $($items)*)
                });
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> $crate::Result<$ty> {
                let body = &mut $crate::wire::get_sized(buf, $lead, 0, $valid, $bad)?;
                Ok($crate::wire::layout!(@get body [$ty] { $($items)* }))
            }
        }
    };

    // A variant laid out by a codec of the whole enum (`{ .. } as C`):
    // its pattern binds the value, and `C` writes and reads it.
    (@pat [$($p:tt)*] $v:ident { .. } as $c:ty) => { $v @ $($p)* { .. } };
    (@put $out:ident $v:ident { .. } as $c:ty) => { <$c as $crate::wire::Put<_>>::put($v, $out) };
    (@get $buf:ident $p:tt { .. } as $c:ty) => { <$c as $crate::wire::Wire<_>>::get($buf)? };

    // The pattern of a unit, tuple or struct body; `_` binds nothing.
    (@pat [$($p:tt)*] $v:tt) => { $($p)* };
    (@pat [$($p:tt)*] $v:tt ($($c:tt)*)) => { $($p)*($v) };
    (@pat [$($p:tt)*] _ { $($items:tt)* }) => { $($p)* { .. } };
    (@pat $p:tt $v:tt { $($items:tt)* }) => { $crate::wire::layout!(@names $p [] $($items)*) };
    (@names [$($p:tt)*] [$($n:ident)*]) => { $($p)* { $($n),* } };
    (@names $p:tt $n:tt pad $x:literal $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@names $p $n $($($rest)*)?)
    };
    (@names $p:tt $n:tt _: $c:ty = $v:expr $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@names $p $n $($($rest)*)?)
    };
    (@names $p:tt [$($n:ident)*] $name:ident: $c:ty $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@names $p [$($n)* $name] $($($rest)*)?)
    };

    // Write a body whose fields `@pat` bound.
    (@put $out:ident $v:tt) => {{}};
    (@put $out:ident $v:tt (pad $n:literal, $c:ty)) => {{
        ::bytes::BufMut::put_bytes($out, 0, $n);
        <$c as $crate::wire::Put<_>>::put($v, $out);
    }};
    (@put $out:ident $v:tt ($c:ty)) => { <$c as $crate::wire::Put<_>>::put($v, $out) };
    (@put $out:ident $v:tt { $($items:tt)* }) => { $crate::wire::layout!(@items $out $($items)*) };
    (@items $out:ident) => {{}};
    (@items $out:ident pad $n:literal $(, $($rest:tt)*)?) => {{
        ::bytes::BufMut::put_bytes($out, 0, $n);
        $crate::wire::layout!(@items $out $($($rest)*)?)
    }};
    (@items $out:ident _: $c:ty = $v:expr $(, $($rest:tt)*)?) => {{
        <$c as $crate::wire::Wire>::put(&$v, $out);
        $crate::wire::layout!(@items $out $($($rest)*)?)
    }};
    (@items $out:ident $name:ident: $c:ty $(, $($rest:tt)*)?) => {{
        <$c as $crate::wire::Wire<_>>::put($name, $out);
        $crate::wire::layout!(@items $out $($($rest)*)?)
    }};

    // Read a body, its items in order, into the value `[path]` names.
    (@get $buf:ident [$($p:tt)*]) => { $($p)* };
    (@get $buf:ident [$($p:tt)*] (pad $n:literal, $c:ty)) => {
        $($p)*({
            $crate::wire::Cursor::skip($buf, $n)?;
            <$c as $crate::wire::Wire<_>>::get($buf)?
        })
    };
    (@get $buf:ident [$($p:tt)*] ($c:ty)) => { $($p)*(<$c as $crate::wire::Wire<_>>::get($buf)?) };
    (@get $buf:ident $p:tt { $($items:tt)* }) => {
        $crate::wire::layout!(@read $buf $p [] [] $($items)*)
    };
    (@read $buf:ident [$($p:tt)*] [$($n:ident)*] [$($s:tt)*]) => {{
        $($s)*
        $($p)* { $($n),* }
    }};
    (@read $buf:ident $p:tt $n:tt [$($s:tt)*] pad $x:literal $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@read $buf $p $n [
            $($s)* $crate::wire::Cursor::skip($buf, $x)?;
        ] $($($rest)*)?)
    };
    (@read $buf:ident $p:tt $n:tt [$($s:tt)*] _: $c:ty = $v:expr $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@read $buf $p $n [
            $($s)* <$c as $crate::wire::Wire>::get($buf)?;
        ] $($($rest)*)?)
    };
    (@read $buf:ident $p:tt [$($n:ident)*] [$($s:tt)*] $name:ident: $c:ty $(, $($rest:tt)*)?) => {
        $crate::wire::layout!(@read $buf $p [$($n)* $name] [
            $($s)* let $name = <$c as $crate::wire::Wire<_>>::get($buf)?;
        ] $($($rest)*)?)
    };
}

/// An enum whose variants are bodies told apart by a type code that
/// travels in front of them: one table of `CODE => Variant body`, where
/// a body is nothing, `(Codec)` (after an optional `pad N,`),
/// `{ items }` as in [`layout!`], or `{ .. } as Codec` for a struct
/// variant that a codec of the whole enum writes and reads. It gives
/// the enum `kind` (the code a value is written under), `put_body` and
/// `get_body` (the body of a given code, or `unknown`'s error for a
/// code outside the table); the caller frames the code and the body.
/// A generic parameter is bounded by [`Put`] to write and by its
/// `bound` to read, so a value that is only sent need not be readable.
macro_rules! wire_union {
    (
        impl<$l:lifetime $(, $g:ident: $bound:path)?> $ty:ty, kind: $tag:ty,
        unknown $k:tt => $unknown:expr;
        $($kind:path => $var:ident $(($($tuple:tt)*))? $({$($fields:tt)*})? $(as $whole:ty)?,)*
    ) => {
        impl<$l $(, $g)?> $ty {
            /// The type code a value is written under.
            fn kind(&self) -> $tag {
                match self {
                    $($crate::wire::layout!(@pat [Self::$var] _ $(($($tuple)*))? $({$($fields)*})?) => $kind,)*
                }
            }

            /// Append the body, without its type code.
            #[inline]
            fn put_body(&self, out: &mut ::bytes::BytesMut) $(where $g: $crate::wire::Put)? {
                match self {
                    $($crate::wire::layout!(@pat [Self::$var] v $(($($tuple)*))? $({$($fields)*})? $(as $whole)?) => {
                        $crate::wire::layout!(@put out v $(($($tuple)*))? $({$($fields)*})? $(as $whole)?)
                    })*
                }
            }

            /// Read the body of a value of type code `kind`.
            #[inline]
            fn get_body(kind: $tag, buf: &mut &$l [u8]) -> $crate::Result<Self> $(where $g: $bound)? {
                Ok(match kind {
                    $($kind => $crate::wire::layout!(@get buf [Self::$var] $(($($tuple)*))? $({$($fields)*})? $(as $whole)?),)*
                    $k => return Err($unknown),
                })
            }
        }
    };
}

/// A fieldless enum and its wire values, in one table: the enum, its
/// `value` and `from_value` (a value outside the table is `else`'s
/// error), and its [`Wire`] impl over the `repr` integer.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $repr:ty {
            $($(#[$vmeta:meta])* $var:ident = $value:literal,)*
        } else $err:expr
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $var,)*
        }

        impl $name {
            /// Wire value.
            #[inline]
            pub fn value(&self) -> $repr {
                match self {
                    $($name::$var => $value,)*
                }
            }

            /// From wire value.
            #[inline]
            pub fn from_value(v: $repr) -> $crate::Result<$name> {
                match v {
                    $($value => Ok($name::$var),)*
                    _ => Err($err),
                }
            }
        }

        impl $crate::wire::Wire<'_> for $name {
            #[inline]
            fn put(v: &$name, out: &mut ::bytes::BytesMut) {
                <$repr as $crate::wire::Wire>::put(&v.value(), out);
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> $crate::Result<$name> {
                $name::from_value(<$repr as $crate::wire::Wire>::get(buf)?)
            }
        }
    };
}

pub(crate) use {layout, wire_enum, wire_union};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_read_is_the_codec_s_truncated() {
        let decode = |mut c: &[u8]| u32::get(&mut c);
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
        let mut read = &out[1..];
        let (ty, mut body) = get_tlv(&mut read, |len| len == 8, "bad").unwrap();
        assert_eq!((ty, u16::get(&mut body), read.len()), (7, Ok(0xabcd), 16));
        assert_eq!(
            get_tlv(&mut read, |len| len == 8, "bad"),
            Err(Error::Malformed("bad"))
        );
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u8,
        b: u32,
        name: String,
    }

    layout!(Sample { a: u8, pad 3, _: u16 = 0xffff, b: u32, name: Str<4> } sized 2, |len| len >= 4, "short");

    /// One field list gives both directions: the length counts the
    /// field itself, pads are zeros, a dropped field is its value, a
    /// string keeps `N - 1` bytes; reading it back skips what it must.
    #[test]
    fn one_field_list_writes_and_reads_a_structure() {
        let sample = Sample {
            a: 1,
            b: 0x0203_0405,
            name: "abcdef".into(),
        };
        let mut out = BytesMut::new();
        <Sample as Wire>::put(&sample, &mut out);
        assert_eq!(
            &out[..],
            &[0, 16, 1, 0, 0, 0, 0xff, 0xff, 2, 3, 4, 5, b'a', b'b', b'c', 0]
        );
        let mut read = &out[..];
        let back = Sample::get(&mut read).unwrap();
        assert_eq!(
            (back.a, back.b, back.name.as_str()),
            (1, 0x0203_0405, "abc")
        );
        assert!(read.is_empty());
        assert_eq!(
            Sample::get(&mut &[0u8, 3][..]),
            Err(Error::Malformed("short"))
        );
        assert_eq!(Sample::get(&mut &out[..8]), Err(Error::Truncated));
    }
}
