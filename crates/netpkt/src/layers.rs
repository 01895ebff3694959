//! The one walk through a frame's headers: the Ethernet header and its
//! tags, the network header the EtherType announces, and — for IPv4 —
//! the transport bytes the total length bounds, Ethernet padding behind
//! them left out.
//!
//! Every reader of a frame beyond its link layer starts here (the flow
//! key, the softswitch's rewrites, the routed datapath's ICMP replies,
//! the simulator's hosts and sinks, the controller's ARP gate), so a
//! frame is walked by one set of rules, and a rewrite finds the bytes
//! it patches at the offsets the walk returns.

use core::ops::Range;

use crate::wire::Cursor;
use crate::{frame, ipv4, ipv6, ArpRepr, EtherType, Result};

/// A frame's link layer, and the way on from it: [`Layers::ipv4`],
/// [`Layers::ipv6`] and [`Layers::arp`] each read the network header
/// the EtherType announces, when a reader asks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers<'a> {
    /// The Ethernet header and its tags.
    pub eth: frame::Header,
    /// Where the network header starts: behind the Ethernet header and
    /// its tags.
    pub l3_at: usize,
    /// The bytes from there to the end of the frame.
    pub l3: &'a [u8],
}

/// An IPv4 packet within a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4<'a> {
    /// Its header.
    pub ip: ipv4::Header,
    /// Where the transport header starts in the frame.
    pub l4_at: usize,
    /// The transport bytes: from the end of the IPv4 header (options
    /// included) to its total length.
    pub l4: &'a [u8],
}

impl Ipv4<'_> {
    /// Where the transport bytes lie in the frame.
    pub fn l4_range(&self) -> Range<usize> {
        self.l4_at..self.l4_at + self.l4.len()
    }
}

impl<'a> Layers<'a> {
    /// Walk `frame`'s link layer: only it must parse. A network header
    /// that does not is `None` to the readers below, as a hardware
    /// parser treats a runt.
    #[inline(always)]
    pub fn parse(frame: &'a [u8]) -> Result<Layers<'a>> {
        let mut l3 = frame;
        let eth = frame::Header::parse(&mut l3)?;
        let l3_at = frame.len() - l3.len();
        Ok(Layers { eth, l3_at, l3 })
    }

    /// The IPv4 packet, if the frame carries one that parses and holds
    /// the payload its total length claims.
    #[inline(always)]
    pub fn ipv4(&self) -> Option<Ipv4<'a>> {
        let mut c = self.l3_of(EtherType::IPV4)?;
        let ip = ipv4::Header::parse(&mut c).ok()?;
        let l4 = c.take(usize::from(ip.total_len) - ip.header_len).ok()?;
        let l4_at = self.l3_at + ip.header_len;
        Some(Ipv4 { ip, l4_at, l4 })
    }

    /// The IPv6 packet's fixed header and the payload its length field
    /// bounds, if the frame carries one that parses.
    #[inline(always)]
    pub fn ipv6(&self) -> Option<(ipv6::Header, &'a [u8])> {
        let mut c = self.l3_of(EtherType::IPV6)?;
        let ip = ipv6::Header::parse(&mut c).ok()?;
        Some((ip, c.take(usize::from(ip.payload_len)).ok()?))
    }

    /// The ARP packet, if the frame carries one that parses.
    #[inline(always)]
    pub fn arp(&self) -> Option<ArpRepr> {
        ArpRepr::parse(&mut self.l3_of(EtherType::ARP)?).ok()
    }

    /// The network bytes, if the EtherType is `ty`.
    #[inline(always)]
    fn l3_of(&self, ty: EtherType) -> Option<&'a [u8]> {
        (self.eth.ethertype == ty).then_some(self.l3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlan::{push_vlan, VlanTag};
    use crate::{builder, IpProto, MacAddr};
    use std::net::Ipv4Addr;

    #[test]
    fn the_walk_sees_through_tags_and_stops_at_the_total_length() {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let udp = builder::udp_packet(MacAddr::host(1), MacAddr::host(2), a, b, 1, 2, b"x");
        let mut padded = push_vlan(&udp, VlanTag::new(5)).unwrap().to_vec();
        padded.resize(64, 0xa5);
        let walk = Layers::parse(&padded).unwrap();
        assert_eq!(walk.eth.outer, Some(VlanTag::new(5)));
        assert_eq!(walk.l3_at, 18);
        let v4 = walk.ipv4().unwrap();
        assert_eq!((v4.ip.proto, v4.ip.src, v4.ip.dst), (IpProto::UDP, a, b));
        assert_eq!((walk.ipv6(), walk.arp()), (None, None));
        assert_eq!(v4.l4_range(), 38..47, "8 bytes of UDP header, 1 of payload");
        assert_eq!(&padded[v4.l4_range()], v4.l4);
    }

    #[test]
    fn only_the_link_layer_must_parse() {
        let arp = builder::arp_request(MacAddr::host(1), Ipv4Addr::LOCALHOST, Ipv4Addr::BROADCAST);
        assert!(Layers::parse(&arp).unwrap().arp().is_some());
        assert_eq!(Layers::parse(&arp[..41]).unwrap().arp(), None);
        assert!(Layers::parse(&arp[..13]).is_err());
    }
}
