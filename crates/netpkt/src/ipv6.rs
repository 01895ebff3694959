//! Minimal IPv6 view — address/proto extraction only, sufficient for
//! flow-key matching. HARMLESS itself is L2; IPv6 support exists so the
//! pipeline does not misclassify v6 traffic.

pub use std::net::Ipv6Addr;

use crate::{Error, IpProto, Result};

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// View over an IPv6 packet (fixed header only; extension headers are not
/// walked — `next_header` reports the first one verbatim).
#[derive(Debug, Clone)]
pub struct Ipv6Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv6Packet<T> {
    /// Wrap, validating version and length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 4 != 6 {
            return Err(Error::Malformed);
        }
        let payload_len = usize::from(u16::from_be_bytes([b[4], b[5]]));
        if b.len() < HEADER_LEN + payload_len {
            return Err(Error::Truncated);
        }
        Ok(Ipv6Packet { buffer })
    }

    /// Traffic class.
    pub fn traffic_class(&self) -> u8 {
        let b = self.buffer.as_ref();
        (b[0] << 4) | (b[1] >> 4)
    }

    /// Next-header field of the fixed header.
    pub fn next_header(&self) -> IpProto {
        IpProto(self.buffer.as_ref()[6])
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// Source address.
    pub fn src(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[8..24]);
        Ipv6Addr::from(o)
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[24..40]);
        Ipv6Addr::from(o)
    }

    /// Payload bytes (after the fixed header).
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let len = usize::from(u16::from_be_bytes([b[4], b[5]]));
        &b[HEADER_LEN..HEADER_LEN + len]
    }
}

/// Emit a minimal IPv6 header into `buf` (which must be at least
/// [`HEADER_LEN`] + payload long).
pub fn emit_header(
    buf: &mut [u8],
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: IpProto,
    payload_len: u16,
    hop_limit: u8,
) {
    buf[0] = 0x60;
    buf[1] = 0;
    buf[2] = 0;
    buf[3] = 0;
    buf[4..6].copy_from_slice(&payload_len.to_be_bytes());
    buf[6] = next_header.0;
    buf[7] = hop_limit;
    buf[8..24].copy_from_slice(&src.octets());
    buf[24..40].copy_from_slice(&dst.octets());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let src: Ipv6Addr = "fd00::1".parse().unwrap();
        let dst: Ipv6Addr = "fd00::2".parse().unwrap();
        let mut buf = vec![0u8; HEADER_LEN + 4];
        emit_header(&mut buf, src, dst, IpProto::UDP, 4, 64);
        buf[HEADER_LEN..].copy_from_slice(b"data");
        let pkt = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.src(), src);
        assert_eq!(pkt.dst(), dst);
        assert_eq!(pkt.next_header(), IpProto::UDP);
        assert_eq!(pkt.hop_limit(), 64);
        assert_eq!(pkt.payload(), b"data");
    }

    #[test]
    fn rejects_v4() {
        let buf = [0x45u8; HEADER_LEN];
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x60;
        buf[4..6].copy_from_slice(&10u16.to_be_bytes());
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
    }
}
