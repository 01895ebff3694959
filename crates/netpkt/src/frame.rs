//! Ethernet II frame view and representation.

use crate::{Error, EtherType, MacAddr, Result};

/// Length of an untagged Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;
/// Minimum payload of a classic Ethernet frame (frames are padded to this).
pub const MIN_PAYLOAD: usize = 46;
/// Minimum frame length excluding FCS.
pub const MIN_FRAME_LEN: usize = HEADER_LEN + MIN_PAYLOAD;

mod field {
    use core::ops::{Range, RangeFrom};
    pub const DST: Range<usize> = 0..6;
    pub const SRC: Range<usize> = 6..12;
    pub const ETHERTYPE: Range<usize> = 12..14;
    pub const PAYLOAD: RangeFrom<usize> = 14..;
}

/// A read (and optionally write) view over an Ethernet II frame.
///
/// The view does **not** include the 4-byte FCS; like most software
/// dataplanes we assume the NIC strips/appends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer without length checking. Accessors may panic if the
    /// buffer is shorter than [`HEADER_LEN`].
    pub const fn new_unchecked(buffer: T) -> Self {
        EthernetFrame { buffer }
    }

    /// Wrap a buffer, ensuring it is long enough for the header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(EthernetFrame { buffer })
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        MacAddr::from_slice(&self.buffer.as_ref()[field::DST])
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        MacAddr::from_slice(&self.buffer.as_ref()[field::SRC])
    }

    /// The EtherType field at offset 12. For VLAN-tagged frames this is the
    /// TPID (0x8100 / 0x88a8), not the encapsulated protocol; see
    /// [`crate::vlan::VlanView`] for tag-aware parsing.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        EtherType(u16::from_be_bytes([
            b[field::ETHERTYPE.start],
            b[field::ETHERTYPE.start + 1],
        ]))
    }

    /// Payload following the (untagged) header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[field::PAYLOAD]
    }

    /// Total frame length (header + payload, no FCS).
    pub fn len(&self) -> usize {
        self.buffer.as_ref().len()
    }

    /// True if the buffer holds nothing beyond the header.
    pub fn is_empty(&self) -> bool {
        self.len() <= HEADER_LEN
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC address.
    pub fn set_dst(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[field::DST].copy_from_slice(&addr.octets());
    }

    /// Set the source MAC address.
    pub fn set_src(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(&addr.octets());
    }

    /// Set the EtherType/TPID field.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        self.buffer.as_mut()[field::ETHERTYPE].copy_from_slice(&ty.0.to_be_bytes());
    }
}

/// Owned, validated summary of an Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    /// Destination address.
    pub dst: MacAddr,
    /// Source address.
    pub src: MacAddr,
    /// EtherType of the payload (TPID for tagged frames).
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse the header of `frame`.
    pub fn parse<T: AsRef<[u8]>>(frame: &EthernetFrame<T>) -> Result<Self> {
        Ok(EthernetRepr {
            dst: frame.dst(),
            src: frame.src(),
            ethertype: frame.ethertype(),
        })
    }

    /// Number of octets `emit` writes.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Write this header into `frame`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut EthernetFrame<T>) {
        frame.set_dst(self.dst);
        frame.set_src(self.src);
        frame.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut f = vec![0u8; HEADER_LEN + 4];
        f[0..6].copy_from_slice(&[0xff; 6]);
        f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f[14..].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        f
    }

    #[test]
    fn parse_fields() {
        let frame = EthernetFrame::new_checked(sample()).unwrap();
        assert_eq!(frame.dst(), MacAddr::BROADCAST);
        assert_eq!(frame.src(), MacAddr::host(1));
        assert_eq!(frame.ethertype(), EtherType::IPV4);
        assert_eq!(frame.payload(), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn checked_rejects_short_buffers() {
        assert_eq!(
            EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
        assert!(EthernetFrame::new_checked(&[0u8; 14][..]).is_ok());
    }

    #[test]
    fn mutators_round_trip() {
        let mut frame = EthernetFrame::new_checked(sample()).unwrap();
        frame.set_dst(MacAddr::host(9));
        frame.set_src(MacAddr::host(8));
        frame.set_ethertype(EtherType::ARP);
        assert_eq!(frame.dst(), MacAddr::host(9));
        assert_eq!(frame.src(), MacAddr::host(8));
        assert_eq!(frame.ethertype(), EtherType::ARP);
    }

    #[test]
    fn repr_emit_parse_round_trip() {
        let repr = EthernetRepr {
            dst: MacAddr::host(3),
            src: MacAddr::host(4),
            ethertype: EtherType::IPV6,
        };
        let mut buf = [0u8; HEADER_LEN];
        let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
        repr.emit(&mut frame);
        let parsed = EthernetRepr::parse(&EthernetFrame::new_checked(&buf[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }
}
