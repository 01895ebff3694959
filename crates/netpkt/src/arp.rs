//! ARP for IPv4-over-Ethernet (RFC 826).

use std::net::Ipv4Addr;

use crate::wire::{Cursor, CursorMut};
use crate::{Error, MacAddr, Result};

/// Byte length of an Ethernet/IPv4 ARP packet.
pub const PACKET_LEN: usize = 28;

/// The fixed prefix of every Ethernet/IPv4 ARP packet: hardware type 1
/// (Ethernet), protocol type 0x0800, address lengths 6 and 4.
const ETHERNET_IPV4: [u8; 6] = [0, 1, 0x08, 0x00, 6, 4];

/// ARP operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArpOp {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
    /// Any other opcode, preserved verbatim.
    Other(u16),
}

impl ArpOp {
    /// Wire value.
    pub fn value(&self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
            ArpOp::Other(v) => *v,
        }
    }

    /// From wire value.
    pub fn from_value(v: u16) -> Self {
        match v {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            v => ArpOp::Other(v),
        }
    }
}

/// An Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpRepr {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpRepr {
    /// Read a packet: [`Error::Truncated`] short of [`PACKET_LEN`] bytes,
    /// [`Error::Malformed`] for any hardware or protocol but Ethernet and
    /// IPv4.
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Self> {
        let mut p = c.take(PACKET_LEN)?;
        if p.array()? != ETHERNET_IPV4 {
            return Err(Error::Malformed);
        }
        Ok(ArpRepr {
            op: ArpOp::from_value(p.u16()?),
            sender_mac: MacAddr(p.array()?),
            sender_ip: Ipv4Addr::from(p.array::<4>()?),
            target_mac: MacAddr(p.array()?),
            target_ip: Ipv4Addr::from(p.array::<4>()?),
        })
    }

    /// Write the packet's [`PACKET_LEN`] bytes.
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put(&ETHERNET_IPV4)?;
        out.put_u16(self.op.value())?;
        out.put(&self.sender_mac.octets())?;
        out.put(&self.sender_ip.octets())?;
        out.put(&self.target_mac.octets())?;
        out.put(&self.target_ip.octets())
    }

    /// Build a who-has request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpRepr {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the reply answering `req`.
    pub fn reply_to(&self, my_mac: MacAddr) -> Self {
        ArpRepr {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: self.target_ip,
            target_mac: self.sender_mac,
            target_ip: self.sender_ip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let r = ArpRepr::request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let mut buf = [0u8; PACKET_LEN + 2];
        r.write(&mut &mut buf[..]).unwrap();
        let mut c = &buf[..];
        assert_eq!(ArpRepr::parse(&mut c).unwrap(), r);
        assert_eq!(c.len(), 2, "the cursor stops behind the packet");
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpRepr::request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let rep = req.reply_to(MacAddr::host(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.sender_mac, MacAddr::host(2));
        assert_eq!(rep.target_mac, MacAddr::host(1));
        assert_eq!(rep.target_ip, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn rejects_non_ethernet_arp() {
        let mut buf = [0u8; PACKET_LEN];
        buf[1] = 6; // htype = IEEE 802
        assert_eq!(ArpRepr::parse(&mut &buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            ArpRepr::parse(&mut &[0u8; 27][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn other_opcode_preserved() {
        assert_eq!(ArpOp::from_value(9).value(), 9);
    }
}
