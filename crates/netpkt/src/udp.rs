//! The UDP header (RFC 768).

use std::net::Ipv4Addr;

use crate::checksum;
use crate::wire::{Cursor, CursorMut};
use crate::{Error, IpProto, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;
/// Where the checksum lies in the header.
const CHECKSUM_AT: usize = 6;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Datagram length: header and payload.
    pub len: u16,
    /// Checksum, as stored (0 = not computed).
    pub checksum: u16,
}

impl Header {
    /// Read a header whose length field is at least the header and at
    /// most the header and what follows it in `c`; anything else is
    /// [`Error::Truncated`]. The payload is the next
    /// [`payload_len`](Header::payload_len) bytes of `c`.
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        let header = Header {
            src_port: h.u16()?,
            dst_port: h.u16()?,
            len: h.u16()?,
            checksum: h.u16()?,
        };
        let len = usize::from(header.len);
        if len < HEADER_LEN || c.len() < len - HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(header)
    }

    /// Payload bytes, by the length field.
    pub fn payload_len(&self) -> usize {
        usize::from(self.len).saturating_sub(HEADER_LEN)
    }

    /// Write the header's 8 bytes.
    #[inline]
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put_u16(self.src_port)?;
        out.put_u16(self.dst_port)?;
        out.put_u16(self.len)?;
        out.put_u16(self.checksum)
    }
}

/// Recompute and store the checksum of `dgram` over the IPv4
/// pseudo-header: of its first length-field bytes, the datagram's own
/// (a computed zero is sent as `0xffff`, RFC 768).
#[inline]
pub fn fill_checksum_v4(dgram: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    let Ok(header) = Header::parse(&mut &dgram[..]) else {
        return;
    };
    let Some(dgram) = dgram.get_mut(..usize::from(header.len)) else {
        return;
    };
    let acc = checksum::pseudo_header_v4(src.octets(), dst.octets(), IpProto::UDP.0, header.len);
    if checksum::fill(dgram, CHECKSUM_AT, acc) == Some(0) {
        if let Some(ck) = dgram.get_mut(CHECKSUM_AT..CHECKSUM_AT + 2) {
            ck.copy_from_slice(&[0xff, 0xff]);
        }
    }
}

/// Whether the checksum of `dgram` holds over the IPv4 pseudo-header.
/// A zero stored checksum means "not computed" and holds trivially.
pub fn verify_checksum_v4(dgram: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> bool {
    let Ok(header) = Header::parse(&mut &dgram[..]) else {
        return false;
    };
    let acc = checksum::pseudo_header_v4(src.octets(), dst.octets(), IpProto::UDP.0, header.len);
    let summed = dgram.get(..usize::from(header.len)).unwrap_or_default();
    header.checksum == 0 || checksum::finish(checksum::sum(acc, summed)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_verify_round_trip() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 0, 2);
        let mut buf = [0u8; HEADER_LEN + 5 + 3]; // 3 bytes of trailer
        buf[HEADER_LEN..HEADER_LEN + 5].copy_from_slice(b"hello");
        let udp = Header {
            src_port: 1234,
            dst_port: 53,
            len: 13,
            checksum: 0,
        };
        udp.write(&mut &mut buf[..]).unwrap();
        fill_checksum_v4(&mut buf, src, dst);
        let mut c = &buf[..];
        let parsed = Header::parse(&mut c).unwrap();
        assert_eq!((parsed.src_port, parsed.dst_port), (1234, 53));
        assert_eq!(c.get(..parsed.payload_len()), Some(&b"hello"[..]));
        assert!(verify_checksum_v4(&buf, src, dst));
        // A different address (not a src/dst swap, which is sum-invariant)
        // must fail verification.
        assert!(!verify_checksum_v4(
            &buf,
            src,
            Ipv4Addr::new(192, 168, 0, 3)
        ));
    }

    #[test]
    fn zero_checksum_always_verifies() {
        let mut buf = [0u8; HEADER_LEN];
        let udp = Header {
            src_port: 0,
            dst_port: 0,
            len: 8,
            checksum: 0,
        };
        udp.write(&mut &mut buf[..]).unwrap();
        assert!(verify_checksum_v4(
            &buf,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED
        ));
    }

    #[test]
    fn rejects_len_field_below_header() {
        let mut buf = [0u8; HEADER_LEN];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Truncated);
        buf[4..6].copy_from_slice(&9u16.to_be_bytes()); // one byte past the end
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Truncated);
    }
}
