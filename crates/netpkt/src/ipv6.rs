//! The fixed IPv6 header — address/proto extraction only, sufficient for
//! flow-key matching. HARMLESS itself is L2; IPv6 support exists so the
//! pipeline does not misclassify v6 traffic.

pub use std::net::Ipv6Addr;

use crate::wire::{Cursor, CursorMut};
use crate::{Error, IpProto, Result};

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// The fixed IPv6 header. Extension headers are not walked:
/// `next_header` reports the first one verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Traffic class.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length, extension headers included.
    pub payload_len: u16,
    /// Next-header field.
    pub next_header: IpProto,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Header {
    /// Read a header; a version other than 6 is [`Error::Malformed`].
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        let first = h.u32()?;
        if first >> 28 != 6 {
            return Err(Error::Malformed);
        }
        Ok(Header {
            traffic_class: (first >> 20) as u8,
            flow_label: first & 0x000f_ffff,
            payload_len: h.u16()?,
            next_header: IpProto(h.u8()?),
            hop_limit: h.u8()?,
            src: Ipv6Addr::from(h.array::<16>()?),
            dst: Ipv6Addr::from(h.array::<16>()?),
        })
    }

    /// Write the header's 40 bytes.
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put_u32(6 << 28 | u32::from(self.traffic_class) << 20 | self.flow_label & 0x000f_ffff)?;
        out.put_u16(self.payload_len)?;
        out.put_u8(self.next_header.0)?;
        out.put_u8(self.hop_limit)?;
        out.put(&self.src.octets())?;
        out.put(&self.dst.octets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(payload_len: u16) -> Header {
        Header {
            traffic_class: 0xb8,
            flow_label: 0x1_2345,
            payload_len,
            next_header: IpProto::UDP,
            hop_limit: 64,
            src: "fd00::1".parse().unwrap(),
            dst: "fd00::2".parse().unwrap(),
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let mut buf = [0u8; HEADER_LEN + 4];
        header(4).write(&mut &mut buf[..]).unwrap();
        buf[HEADER_LEN..].copy_from_slice(b"data");
        let mut c = &buf[..];
        assert_eq!(Header::parse(&mut c).unwrap(), header(4));
        assert_eq!(c, b"data");
    }

    #[test]
    fn rejects_v4() {
        let buf = [0x45u8; HEADER_LEN];
        assert_eq!(Header::parse(&mut &buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_truncated_payload() {
        // The header parses; the frame walk cannot take the 10 bytes of
        // payload it claims.
        let mut buf = [0u8; HEADER_LEN];
        header(10).write(&mut &mut buf[..]).unwrap();
        assert!(Header::parse(&mut &buf[..]).is_ok());
        assert_eq!(
            Header::parse(&mut &buf[..HEADER_LEN - 1]).unwrap_err(),
            Error::Truncated
        );
        let frame = crate::builder::ethernet(
            crate::MacAddr::host(2),
            crate::MacAddr::host(1),
            crate::EtherType::IPV6,
            &buf,
        );
        let walk = crate::layers::Layers::parse(&frame).unwrap();
        assert_eq!(walk.ipv6(), None);
    }
}
