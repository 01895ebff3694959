//! The TCP header (RFC 793) — enough for switching, ACLs and the
//! parental-control use case; no reassembly or state machine.

use std::net::Ipv4Addr;

use crate::checksum;
use crate::wire::{Cursor, CursorMut};
use crate::{Error, IpProto, Result};

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;
/// Where the checksum lies in the header.
const CHECKSUM_AT: usize = 16;

/// TCP flag bits as stored in byte 13.
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
    /// URG.
    pub const URG: u8 = 0x20;
}

/// A TCP header, options not kept. The checksum is the segment's, so it
/// is filled in over the segment ([`fill_checksum_v4`]), not carried
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Header length in bytes (data offset × 4), options included.
    pub header_len: usize,
    /// The flag byte ([`flags`]).
    pub flags: u8,
    /// Window size.
    pub window: u16,
}

impl Header {
    /// Read a header and step over its options: a data offset under 5
    /// is [`Error::Malformed`].
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        let header = Header {
            src_port: h.u16()?,
            dst_port: h.u16()?,
            seq: h.u32()?,
            ack: h.u32()?,
            header_len: usize::from(h.u8()? >> 4) * 4,
            flags: h.u8()?,
            window: h.u16()?,
        }; // then the checksum and the urgent pointer
        if header.header_len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        c.skip(header.header_len - HEADER_LEN)?;
        Ok(header)
    }

    /// True if SYN set and ACK clear.
    pub fn is_syn(&self) -> bool {
        self.flags & (flags::SYN | flags::ACK) == flags::SYN
    }

    /// Write the 20 bytes of an option-less header, checksum and urgent
    /// pointer zero.
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put_u16(self.src_port)?;
        out.put_u16(self.dst_port)?;
        out.put_u32(self.seq)?;
        out.put_u32(self.ack)?;
        out.put_u8(((self.header_len / 4) as u8) << 4)?;
        out.put_u8(self.flags)?;
        out.put_u16(self.window)?;
        out.put(&[0; 4])
    }
}

/// Recompute and store the checksum of `segment` (header and payload,
/// nothing behind it) over the IPv4 pseudo-header. A segment whose
/// header does not parse is left as it is.
pub fn fill_checksum_v4(segment: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    if Header::parse(&mut &segment[..]).is_err() {
        return;
    }
    let acc = checksum::pseudo_header_v4(
        src.octets(),
        dst.octets(),
        IpProto::TCP.0,
        segment.len() as u16,
    );
    checksum::fill(segment, CHECKSUM_AT, acc);
}

/// Whether the checksum of `segment` holds over the IPv4 pseudo-header.
pub fn verify_checksum_v4(segment: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> bool {
    let len = segment.len() as u16;
    let acc = checksum::pseudo_header_v4(src.octets(), dst.octets(), IpProto::TCP.0, len);
    checksum::finish(checksum::sum(acc, segment)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(flags: u8) -> Header {
        Header {
            src_port: 40000,
            dst_port: 80,
            seq: 1,
            ack: 0,
            header_len: HEADER_LEN,
            flags,
            window: 65535,
        }
    }

    #[test]
    fn build_verify_round_trip() {
        let src = Ipv4Addr::new(10, 1, 0, 1);
        let dst = Ipv4Addr::new(10, 1, 0, 2);
        let mut buf = [0u8; HEADER_LEN + 3];
        buf[HEADER_LEN..].copy_from_slice(b"GET");
        let tcp = header(flags::PSH | flags::ACK);
        tcp.write(&mut &mut buf[..]).unwrap();
        fill_checksum_v4(&mut buf, src, dst);

        let mut c = &buf[..];
        assert_eq!(Header::parse(&mut c).unwrap(), tcp);
        assert_eq!(c, b"GET");
        assert!(!tcp.is_syn());
        assert!(verify_checksum_v4(&buf, src, dst));
        // A different address (not a src/dst swap, which is sum-invariant)
        // must fail verification.
        assert!(!verify_checksum_v4(&buf, src, Ipv4Addr::new(10, 1, 0, 9)));
    }

    #[test]
    fn syn_detection() {
        let mut buf = [0u8; HEADER_LEN];
        header(flags::SYN).write(&mut &mut buf[..]).unwrap();
        assert!(Header::parse(&mut &buf[..]).unwrap().is_syn());
        assert!(!header(flags::SYN | flags::ACK).is_syn());
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 0x30; // doff = 12 bytes < 20
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Malformed);
        buf[12] = 0xf0; // doff = 60 bytes > buffer
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Truncated);
    }
}
