//! The IPv4 header.

pub use std::net::Ipv4Addr;

use crate::checksum;
use crate::wire::{Cursor, CursorMut};
use crate::{Error, Result};

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;
/// The flags/fragment word of a whole packet that may not be fragmented.
pub const DONT_FRAGMENT: u16 = 0x4000;
/// Where the header checksum lies in the header.
const CHECKSUM_AT: usize = 10;

/// An 8-bit IP protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IpProto(pub u8);

impl IpProto {
    /// ICMP (1).
    pub const ICMP: IpProto = IpProto(1);
    /// TCP (6).
    pub const TCP: IpProto = IpProto(6);
    /// UDP (17).
    pub const UDP: IpProto = IpProto(17);
}

impl core::fmt::Display for IpProto {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Self::ICMP => write!(f, "ICMP"),
            Self::TCP => write!(f, "TCP"),
            Self::UDP => write!(f, "UDP"),
            IpProto(v) => write!(f, "proto-{v}"),
        }
    }
}

/// The fixed 20 bytes of an IPv4 header. Options are counted in
/// `header_len` but not kept: a rewrite writes the fixed part back over
/// itself and leaves them where they lie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Header length in bytes (IHL × 4), options included.
    pub header_len: usize,
    /// DSCP (top 6 bits of the ToS byte).
    pub dscp: u8,
    /// ECN (bottom 2 bits of the ToS byte).
    pub ecn: u8,
    /// Total length: header and payload.
    pub total_len: u16,
    /// Identification.
    pub ident: u16,
    /// Flags and fragment offset.
    pub frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Encapsulated protocol.
    pub proto: IpProto,
    /// Header checksum, as stored.
    pub checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Header {
    /// Read a header and step over its options. A version other than 4,
    /// an IHL under 5 or a total length shorter than the header is
    /// [`Error::Malformed`]. The checksum is not verified.
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        let ver_ihl = h.u8()?;
        let tos = h.u8()?;
        let header = Header {
            header_len: usize::from(ver_ihl & 0x0f) * 4,
            dscp: tos >> 2,
            ecn: tos & 0x03,
            total_len: h.u16()?,
            ident: h.u16()?,
            frag: h.u16()?,
            ttl: h.u8()?,
            proto: IpProto(h.u8()?),
            checksum: h.u16()?,
            src: Ipv4Addr::from(h.array::<4>()?),
            dst: Ipv4Addr::from(h.array::<4>()?),
        };
        if ver_ihl >> 4 != 4
            || header.header_len < HEADER_LEN
            || usize::from(header.total_len) < header.header_len
        {
            return Err(Error::Malformed);
        }
        c.skip(header.header_len - HEADER_LEN)?;
        Ok(header)
    }

    /// Write the fixed 20 bytes, the checksum as it stands.
    #[inline]
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put_u8(0x40 | ((self.header_len / 4) as u8 & 0x0f))?;
        out.put_u8((self.dscp << 2) | (self.ecn & 0x03))?;
        out.put_u16(self.total_len)?;
        out.put_u16(self.ident)?;
        out.put_u16(self.frag)?;
        out.put_u8(self.ttl)?;
        out.put_u8(self.proto.0)?;
        out.put_u16(self.checksum)?;
        out.put(&self.src.octets())?;
        out.put(&self.dst.octets())
    }

    /// Router-style TTL decrement: drop the TTL by one and patch the
    /// header checksum incrementally (RFC 1624) instead of recomputing
    /// it — the whole point of the routed fast path is not re-summing
    /// 20 bytes per hop. A TTL of 0 afterwards means the packet must
    /// not be forwarded (ICMP time-exceeded territory).
    ///
    /// # Panics
    /// Panics if the TTL is already 0 — callers check before routing.
    pub fn dec_ttl(&mut self) {
        assert!(self.ttl > 0, "dec_ttl on an expired packet");
        let word = |ttl: u8| u16::from_be_bytes([ttl, self.proto.0]);
        let (old, new) = (word(self.ttl), word(self.ttl - 1));
        self.checksum = checksum::incremental_update(self.checksum, old, new);
        self.ttl -= 1;
    }
}

/// Recompute and store the checksum of `header`, an IPv4 header as it
/// lies in a frame, options included.
#[inline]
pub fn fill_checksum(header: &mut [u8]) {
    checksum::fill(header, CHECKSUM_AT, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            header_len: HEADER_LEN,
            dscp: 0,
            ecn: 0,
            total_len: (HEADER_LEN + 8) as u16,
            ident: 0,
            frag: DONT_FRAGMENT,
            ttl: 64,
            proto: IpProto::UDP,
            checksum: 0,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    /// `header()` written into a packet of `len` bytes, checksum filled.
    fn packet(h: &Header, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        h.write(&mut &mut buf[..]).unwrap();
        fill_checksum(&mut buf[..h.header_len]);
        buf
    }

    #[test]
    fn emit_parse_round_trip() {
        let h = header();
        let buf = packet(&h, HEADER_LEN + 8);
        assert!(checksum::verify(&buf[..HEADER_LEN]));
        let mut c = &buf[..];
        let parsed = Header::parse(&mut c).unwrap();
        assert_eq!(
            Header {
                checksum: 0,
                ..parsed
            },
            h
        );
        assert_eq!(c.len(), 8, "the cursor stops at the payload");
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut buf = packet(&header(), HEADER_LEN + 8);
        buf[15] ^= 0x01; // flip a src-address bit
        assert!(
            Header::parse(&mut &buf[..]).is_ok(),
            "parse does not verify"
        );
        assert!(!checksum::verify(&buf[..HEADER_LEN]));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = packet(&header(), HEADER_LEN);
        buf[0] = 0x65; // version 6
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_short_ihl() {
        let mut buf = packet(&header(), HEADER_LEN);
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Malformed);
        buf[0] = 0x46; // 4 bytes of options that are not there
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        // A header whose total length is shorter than itself is
        // malformed; one longer than the bytes holds a payload the frame
        // walk cannot take (`layers::tests`).
        let mut h = header();
        h.total_len = 19;
        assert_eq!(
            Header::parse(&mut &packet(&h, HEADER_LEN)[..]).unwrap_err(),
            Error::Malformed
        );
        h.total_len = 100;
        let frame = crate::builder::ethernet(
            crate::MacAddr::host(2),
            crate::MacAddr::host(1),
            crate::EtherType::IPV4,
            &packet(&h, HEADER_LEN),
        );
        let walk = crate::layers::Layers::parse(&frame).unwrap();
        assert!(walk.ipv4().is_none());
    }

    #[test]
    fn dec_ttl_patches_checksum_incrementally() {
        let mut buf = packet(&header(), HEADER_LEN + 8);
        let mut h = Header::parse(&mut &buf[..]).unwrap();
        h.dec_ttl();
        assert_eq!(h.ttl, 63);
        h.write(&mut &mut buf[..]).unwrap();
        assert!(
            checksum::verify(&buf[..HEADER_LEN]),
            "incremental patch must verify"
        );
        // And it must agree with a full recompute.
        fill_checksum(&mut buf[..HEADER_LEN]);
        assert_eq!(Header::parse(&mut &buf[..]).unwrap().checksum, h.checksum);
    }

    #[test]
    #[should_panic(expected = "dec_ttl on an expired packet")]
    fn dec_ttl_rejects_expired() {
        Header { ttl: 0, ..header() }.dec_ttl();
    }

    #[test]
    fn payload_respects_total_len() {
        let frame = crate::builder::ethernet(
            crate::MacAddr::host(2),
            crate::MacAddr::host(1),
            crate::EtherType::IPV4,
            &packet(&header(), HEADER_LEN + 16), // 8 bytes of trailing padding
        );
        let walk = crate::layers::Layers::parse(&frame).unwrap();
        assert_eq!(walk.ipv4().unwrap().l4.len(), 8);
    }
}
