//! The ICMPv4 header (RFC 792) — echo request/reply and time exceeded,
//! which is all the examples and tests need.

use crate::checksum;
use crate::wire::{Cursor, CursorMut};
use crate::Result;

/// ICMP header length (type, code, checksum + 4 bytes rest-of-header).
pub const HEADER_LEN: usize = 8;
/// Where the checksum lies in the header.
const CHECKSUM_AT: usize = 2;

/// ICMPv4 message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Icmpv4Type {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3).
    DestUnreachable,
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11).
    TimeExceeded,
    /// Anything else.
    Other(u8),
}

impl Icmpv4Type {
    /// Wire value.
    pub fn value(&self) -> u8 {
        match self {
            Icmpv4Type::EchoReply => 0,
            Icmpv4Type::DestUnreachable => 3,
            Icmpv4Type::EchoRequest => 8,
            Icmpv4Type::TimeExceeded => 11,
            Icmpv4Type::Other(v) => *v,
        }
    }

    /// From wire value.
    pub fn from_value(v: u8) -> Self {
        match v {
            0 => Icmpv4Type::EchoReply,
            3 => Icmpv4Type::DestUnreachable,
            8 => Icmpv4Type::EchoRequest,
            11 => Icmpv4Type::TimeExceeded,
            v => Icmpv4Type::Other(v),
        }
    }
}

/// An ICMPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Message type.
    pub msg_type: Icmpv4Type,
    /// Message code.
    pub code: u8,
    /// Checksum over the message, as stored.
    pub checksum: u16,
    /// Echo identifier: the first half of the rest-of-header word
    /// (unused, zero, in a time-exceeded message).
    pub ident: u16,
    /// Echo sequence number: its second half.
    pub seq: u16,
}

impl Header {
    /// Read a header.
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        Ok(Header {
            msg_type: Icmpv4Type::from_value(h.u8()?),
            code: h.u8()?,
            checksum: h.u16()?,
            ident: h.u16()?,
            seq: h.u16()?,
        })
    }

    /// True for an echo request or reply.
    pub fn is_echo(&self) -> bool {
        matches!(
            self.msg_type,
            Icmpv4Type::EchoRequest | Icmpv4Type::EchoReply
        )
    }

    /// Write the header's 8 bytes.
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put_u8(self.msg_type.value())?;
        out.put_u8(self.code)?;
        out.put_u16(self.checksum)?;
        out.put_u16(self.ident)?;
        out.put_u16(self.seq)
    }
}

/// Recompute and store the checksum of `msg`: header and payload,
/// nothing behind it.
pub fn fill_checksum(msg: &mut [u8]) {
    checksum::fill(msg, CHECKSUM_AT, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(ident: u16, seq: u16) -> Header {
        Header {
            msg_type: Icmpv4Type::EchoRequest,
            code: 0,
            checksum: 0,
            ident,
            seq,
        }
    }

    #[test]
    fn echo_round_trip() {
        let mut buf = [0u8; HEADER_LEN + 4];
        buf[HEADER_LEN..].copy_from_slice(b"ping");
        echo(7, 3).write(&mut &mut buf[..]).unwrap();
        fill_checksum(&mut buf);

        let mut c = &buf[..];
        let icmp = Header::parse(&mut c).unwrap();
        assert_eq!(icmp.msg_type, Icmpv4Type::EchoRequest);
        assert!(icmp.is_echo());
        assert_eq!((icmp.ident, icmp.seq), (7, 3));
        assert_eq!(c, b"ping");
        assert!(checksum::verify(&buf));
    }

    #[test]
    fn corruption_detected() {
        let mut buf = [0u8; HEADER_LEN];
        Header {
            msg_type: Icmpv4Type::EchoReply,
            ..echo(0, 0)
        }
        .write(&mut &mut buf[..])
        .unwrap();
        fill_checksum(&mut buf);
        buf[7] ^= 1;
        assert!(!checksum::verify(&buf));
    }

    #[test]
    fn type_round_trip() {
        for v in 0..=255u8 {
            assert_eq!(Icmpv4Type::from_value(v).value(), v);
        }
    }
}
