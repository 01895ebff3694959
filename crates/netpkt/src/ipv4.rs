//! IPv4 packet view and representation.

pub use std::net::Ipv4Addr;

use crate::checksum;
use crate::{Error, Result};

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;

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

mod field {
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLAGS_FRAG: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTO: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC: Range<usize> = 12..16;
    pub const DST: Range<usize> = 16..20;
}

/// Read/write view over an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap without validation.
    pub const fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wrap, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Ipv4Packet { buffer };
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<()> {
        let b = self.buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[field::VER_IHL] >> 4 != 4 {
            return Err(Error::Malformed);
        }
        let ihl = usize::from(b[field::VER_IHL] & 0x0f) * 4;
        if ihl < HEADER_LEN || b.len() < ihl {
            return Err(Error::Malformed);
        }
        let total = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if total < ihl || b.len() < total {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consume the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// DSCP (top 6 bits of the ToS byte).
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[field::DSCP_ECN] >> 2
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[field::LENGTH.start], b[field::LENGTH.start + 1]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Encapsulated protocol.
    pub fn proto(&self) -> IpProto {
        IpProto(self.buffer.as_ref()[field::PROTO])
    }

    /// Stored header checksum.
    pub fn header_checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[field::CHECKSUM.start], b[field::CHECKSUM.start + 1]])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let b = self.buffer.as_ref();
        checksum::verify(&b[..self.header_len()])
    }

    /// Payload after the header, bounded by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let total = usize::from(self.total_len()).min(b.len());
        &b[self.header_len()..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version=4 and the header length (in bytes, multiple of 4).
    pub fn set_ver_ihl(&mut self, header_len: usize) {
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | ((header_len / 4) as u8 & 0x0f);
    }

    /// Set the DSCP bits.
    pub fn set_dscp(&mut self, dscp: u8) {
        let b = &mut self.buffer.as_mut()[field::DSCP_ECN];
        *b = (*b & 0x03) | (dscp << 2);
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&id.to_be_bytes());
    }

    /// Set flags/fragment offset to "don't fragment, offset 0".
    pub fn set_dont_fragment(&mut self) {
        self.buffer.as_mut()[field::FLAGS_FRAG].copy_from_slice(&0x4000u16.to_be_bytes());
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the protocol.
    pub fn set_proto(&mut self, proto: IpProto) {
        self.buffer.as_mut()[field::PROTO] = proto.0;
    }

    /// Set the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&a.octets());
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&a.octets());
    }

    /// Router-style TTL decrement: drop the TTL by one and patch the
    /// header checksum incrementally (RFC 1624) instead of recomputing
    /// it — the whole point of the routed fast path is not re-summing
    /// 20 bytes per hop. Returns the *new* TTL; a return of 0 means the
    /// packet must not be forwarded (ICMP time-exceeded territory).
    ///
    /// # Panics
    /// Panics if the TTL is already 0 — callers check before routing.
    pub fn dec_ttl(&mut self) -> u8 {
        let b = self.buffer.as_mut();
        let ttl = b[field::TTL];
        assert!(ttl > 0, "dec_ttl on an expired packet");
        let old_word = u16::from_be_bytes([b[field::TTL], b[field::PROTO]]);
        b[field::TTL] = ttl - 1;
        let new_word = u16::from_be_bytes([b[field::TTL], b[field::PROTO]]);
        let old_ck = u16::from_be_bytes([b[field::CHECKSUM.start], b[field::CHECKSUM.start + 1]]);
        let new_ck = checksum::incremental_update(old_ck, old_word, new_word);
        b[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
        ttl - 1
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let hl = self.header_len();
        let ck = checksum::checksum(&self.buffer.as_ref()[..hl]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// Owned summary of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
    /// DSCP bits.
    pub dscp: u8,
}

impl Ipv4Repr {
    /// Parse and validate (including checksum) the header of `packet`.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Self> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Ipv4Repr {
            src: packet.src(),
            dst: packet.dst(),
            proto: packet.proto(),
            payload_len: usize::from(packet.total_len()) - packet.header_len(),
            ttl: packet.ttl(),
            dscp: packet.dscp(),
        })
    }

    /// Bytes `emit` writes (a 20-byte header).
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit the header (with checksum) into `packet`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Ipv4Packet<T>) {
        packet.set_ver_ihl(HEADER_LEN);
        packet.set_dscp(self.dscp);
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(0);
        packet.set_dont_fragment();
        packet.set_ttl(self.ttl);
        packet.set_proto(self.proto);
        packet.set_src(self.src);
        packet.set_dst(self.dst);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::UDP,
            payload_len: 8,
            ttl: 64,
            dscp: 0,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let r = repr();
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        r.emit(&mut pkt);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), r);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let r = repr();
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        r.emit(&mut pkt);
        buf[15] ^= 0x01; // flip a src-address bit
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn rejects_short_ihl() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn dec_ttl_patches_checksum_incrementally() {
        let r = repr();
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        r.emit(&mut pkt);
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        assert_eq!(pkt.dec_ttl(), 63);
        assert_eq!(pkt.ttl(), 63);
        assert!(pkt.verify_checksum(), "incremental patch must verify");
        // And it must agree with a full recompute.
        let patched_ck = pkt.header_checksum();
        pkt.fill_checksum();
        assert_eq!(pkt.header_checksum(), patched_ck);
    }

    #[test]
    #[should_panic(expected = "dec_ttl on an expired packet")]
    fn dec_ttl_rejects_expired() {
        let mut r = repr();
        r.ttl = 0;
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        r.emit(&mut pkt);
        Ipv4Packet::new_unchecked(&mut buf[..]).dec_ttl();
    }

    #[test]
    fn payload_respects_total_len() {
        let r = repr();
        let mut buf = [0u8; HEADER_LEN + 16]; // 8 bytes of trailing padding
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        r.emit(&mut pkt);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 8);
    }
}
