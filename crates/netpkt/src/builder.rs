//! Convenience constructors for complete, checksummed frames.
//!
//! These are what traffic generators, examples and tests use; the hot path
//! never allocates through here.
//!
//! Every frame is built with one tag's worth of spare bytes in front of
//! it, as a NIC driver leaves room in front of a packet: the first tag
//! the frame is given (an access port's, on its way onto a trunk) lands
//! there, in place, if nobody else holds the frame by then
//! ([`FrameBuf::push_vlan`](crate::FrameBuf::push_vlan)). A frame built
//! here is therefore allocated once however it is tagged and untagged
//! on its way.

use bytes::{Buf, Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::frame::{self, HEADER_LEN};
use crate::vlan::TAG_LEN;
use crate::{arp, icmp, ipv4, tcp, udp};
use crate::{ArpRepr, EtherType, Icmpv4Type, IpProto, MacAddr};

/// Spare bytes in front of every built frame: room for one tag.
const HEADROOM: usize = TAG_LEN;

/// A `len`-byte frame, zeroed and then written by `fill`, in a buffer
/// of its own with [`HEADROOM`] in front of it.
fn with_headroom(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADROOM + len);
    buf.resize(HEADROOM + len, 0);
    fill(&mut buf[HEADROOM..]);
    let mut frame = buf.freeze();
    frame.advance(HEADROOM);
    frame
}

/// Build a raw Ethernet II frame around an opaque payload.
pub fn ethernet(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Bytes {
    with_headroom(HEADER_LEN + payload.len(), |f| {
        f[..6].copy_from_slice(&dst.octets());
        f[6..12].copy_from_slice(&src.octets());
        f[12..HEADER_LEN].copy_from_slice(&ethertype.0.to_be_bytes());
        f[HEADER_LEN..].copy_from_slice(payload);
    })
}

/// Build an Ethernet/IPv4/UDP frame with valid checksums.
pub fn udp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Bytes {
    udp_packet_with(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload.len(),
        |p| p.copy_from_slice(payload),
    )
}

/// [`udp_packet`] whose `payload_len`-byte payload is written in place:
/// `fill` gets the zeroed payload bytes of the frame's own buffer before
/// the checksums are computed, so a caller that generates its payload
/// (a traffic generator's stamp) needs no staging vector.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet_with(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Bytes {
    let udp_len = udp::HEADER_LEN + payload_len;
    ipv4_frame_with(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IpProto::UDP,
        udp_len,
        |l4| {
            fill(&mut l4[udp::HEADER_LEN..]);
            let mut u = udp::UdpPacket::new_unchecked(l4);
            u.set_src_port(src_port);
            u.set_dst_port(dst_port);
            u.set_len_field(udp_len as u16);
            u.fill_checksum_v4(src_ip, dst_ip);
        },
    )
}

/// Build an Ethernet/IPv4/TCP frame with valid checksums.
#[allow(clippy::too_many_arguments)]
pub fn tcp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    tcp_flags: u8,
    payload: &[u8],
) -> Bytes {
    let tcp_len = tcp::HEADER_LEN + payload.len();
    let mut l4 = vec![0u8; tcp_len];
    l4[tcp::HEADER_LEN..].copy_from_slice(payload);
    let mut t = tcp::TcpPacket::new_unchecked(&mut l4[..]);
    t.set_src_port(src_port);
    t.set_dst_port(dst_port);
    t.set_seq(0);
    t.set_ack(0);
    t.set_header_len(tcp::HEADER_LEN);
    t.set_flags(tcp_flags);
    t.set_window(65535);
    t.fill_checksum_v4(src_ip, dst_ip);
    ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, IpProto::TCP, &l4)
}

/// Build an Ethernet/IPv4/ICMP echo-request frame.
pub fn icmp_echo_request(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Bytes {
    icmp_echo(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        Icmpv4Type::EchoRequest,
        ident,
        seq,
        payload,
    )
}

/// Build an Ethernet/IPv4/ICMP echo-reply frame.
pub fn icmp_echo_reply(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Bytes {
    icmp_echo(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        Icmpv4Type::EchoReply,
        ident,
        seq,
        payload,
    )
}

#[allow(clippy::too_many_arguments)]
fn icmp_echo(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    ty: Icmpv4Type,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Bytes {
    let len = icmp::HEADER_LEN + payload.len();
    let mut l4 = vec![0u8; len];
    l4[icmp::HEADER_LEN..].copy_from_slice(payload);
    let mut i = icmp::Icmpv4Packet::new_unchecked(&mut l4[..]);
    i.set_msg_type(ty);
    i.set_code(0);
    i.set_echo_ident(ident);
    i.set_echo_seq(seq);
    i.fill_checksum();
    ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, IpProto::ICMP, &l4)
}

/// Build the ICMP time-exceeded (type 11, code 0 "TTL exceeded in
/// transit") a router sends back when it drops an expired packet. Per
/// RFC 792 the body carries the original IP header plus the first 8
/// payload bytes, so the sender can match the notice to the flow it
/// killed. `orig_ip` is the dropped packet starting at its IPv4 header.
pub fn icmp_time_exceeded(
    router_mac: MacAddr,
    dst_mac: MacAddr,
    router_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    orig_ip: &[u8],
) -> Bytes {
    let quoted = orig_ip.len().min(ipv4::HEADER_LEN + 8);
    let len = icmp::HEADER_LEN + quoted;
    let mut l4 = vec![0u8; len];
    l4[icmp::HEADER_LEN..].copy_from_slice(&orig_ip[..quoted]);
    let mut i = icmp::Icmpv4Packet::new_unchecked(&mut l4[..]);
    i.set_msg_type(Icmpv4Type::TimeExceeded);
    i.set_code(0);
    // The "rest of header" word is unused for time-exceeded; the echo
    // accessors write exactly those 4 bytes.
    i.set_echo_ident(0);
    i.set_echo_seq(0);
    i.fill_checksum();
    ipv4_frame(router_mac, dst_mac, router_ip, dst_ip, IpProto::ICMP, &l4)
}

/// Build an Ethernet/IPv4 frame around a ready-made L4 payload.
pub fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    proto: IpProto,
    l4: &[u8],
) -> Bytes {
    ipv4_frame_with(src_mac, dst_mac, src_ip, dst_ip, proto, l4.len(), |b| {
        b.copy_from_slice(l4)
    })
}

/// Build an Ethernet/IPv4 frame in one buffer; `fill_l4` writes the
/// `l4_len` zeroed bytes after the IPv4 header.
fn ipv4_frame_with(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    proto: IpProto,
    l4_len: usize,
    fill_l4: impl FnOnce(&mut [u8]),
) -> Bytes {
    const L4: usize = HEADER_LEN + ipv4::HEADER_LEN;
    with_headroom(L4 + l4_len, |buf| {
        frame::EthernetRepr {
            dst: dst_mac,
            src: src_mac,
            ethertype: EtherType::IPV4,
        }
        .emit(&mut frame::EthernetFrame::new_unchecked(
            &mut buf[..HEADER_LEN],
        ));
        let repr = ipv4::Ipv4Repr {
            src: src_ip,
            dst: dst_ip,
            proto,
            payload_len: l4_len,
            ttl: 64,
            dscp: 0,
        };
        repr.emit(&mut ipv4::Ipv4Packet::new_unchecked(
            &mut buf[HEADER_LEN..L4],
        ));
        fill_l4(&mut buf[L4..]);
    })
}

/// Build a broadcast ARP who-has request.
pub fn arp_request(src_mac: MacAddr, src_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Bytes {
    let repr = ArpRepr::request(src_mac, src_ip, target_ip);
    let mut body = [0u8; arp::PACKET_LEN];
    repr.emit(&mut body);
    ethernet(MacAddr::BROADCAST, src_mac, EtherType::ARP, &body)
}

/// Build a unicast ARP reply answering `req` (which must be an ARP frame).
pub fn arp_reply(req_repr: &ArpRepr, my_mac: MacAddr) -> Bytes {
    let rep = req_repr.reply_to(my_mac);
    let mut body = [0u8; arp::PACKET_LEN];
    rep.emit(&mut body);
    ethernet(rep.target_mac, my_mac, EtherType::ARP, &body)
}

/// Pad or size a UDP test frame so the final Ethernet frame is exactly
/// `frame_len` bytes (64..=1518 in classic benchmarks, FCS excluded here so
/// pass e.g. 60 for the "64-byte" RFC 2544 point).
pub fn sized_udp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    frame_len: usize,
) -> Bytes {
    let overhead = HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
    let payload_len = frame_len.saturating_sub(overhead);
    let payload = vec![0u8; payload_len];
    udp_packet(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, &payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArpPacket, EthernetFrame, FlowKey, Ipv4Packet, TcpPacket, UdpPacket};

    #[test]
    fn udp_packet_is_well_formed() {
        let f = udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1000,
            2000,
            b"payload",
        );
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::IPV4);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = UdpPacket::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum_v4(ip.src(), ip.dst()));
        assert_eq!(u.payload(), b"payload");
    }

    #[test]
    fn tcp_packet_is_well_formed() {
        let f = tcp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1000,
            80,
            tcp::flags::SYN,
            b"",
        );
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(t.is_syn());
        assert!(t.verify_checksum_v4(ip.src(), ip.dst()));
    }

    #[test]
    fn arp_frames_parse_back() {
        let req = arp_request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let eth = EthernetFrame::new_checked(&req[..]).unwrap();
        assert_eq!(eth.dst(), MacAddr::BROADCAST);
        let a = ArpPacket::new_checked(eth.payload()).unwrap();
        let repr = ArpRepr::parse(&a).unwrap();
        let rep = arp_reply(&repr, MacAddr::host(2));
        let eth2 = EthernetFrame::new_checked(&rep[..]).unwrap();
        assert_eq!(eth2.dst(), MacAddr::host(1));
    }

    #[test]
    fn sized_frames_hit_exact_length() {
        for len in [60usize, 128, 512, 1514] {
            let f = sized_udp_packet(
                MacAddr::host(1),
                MacAddr::host(2),
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                1,
                2,
                len,
            );
            assert_eq!(f.len(), len);
            // And they must still carry an extractable flow key.
            let key = FlowKey::extract(1, &f).unwrap();
            assert_eq!(key.udp_dst, 2);
        }
    }

    #[test]
    fn time_exceeded_quotes_the_original_header() {
        let dropped = udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 3, 0, 1),
            1000,
            2000,
            b"a long payload that must not be quoted in full",
        );
        let eth = EthernetFrame::new_checked(&dropped[..]).unwrap();
        let te = icmp_time_exceeded(
            MacAddr::host(0xff),
            MacAddr::host(1),
            Ipv4Addr::new(10, 1, 255, 254),
            Ipv4Addr::new(10, 0, 0, 1),
            eth.payload(),
        );
        let key = FlowKey::extract(1, &te).unwrap();
        assert_eq!(key.ip_proto, 1);
        assert_eq!(key.icmp_type, 11);
        let teth = EthernetFrame::new_checked(&te[..]).unwrap();
        let tip = Ipv4Packet::new_checked(teth.payload()).unwrap();
        assert!(tip.verify_checksum());
        let icmp = crate::Icmpv4Packet::new_checked(tip.payload()).unwrap();
        assert!(icmp.verify_checksum());
        // Quoted: original IP header + 8 bytes = src/dst ports + len + ck.
        assert_eq!(icmp.payload().len(), ipv4::HEADER_LEN + 8);
        let quoted = Ipv4Packet::new_unchecked(icmp.payload());
        assert_eq!(quoted.src(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(quoted.dst(), Ipv4Addr::new(10, 3, 0, 1));
    }

    #[test]
    fn a_built_frame_takes_its_first_tag_in_its_own_storage() {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let udp = udp_packet(MacAddr::host(1), MacAddr::host(2), a, b, 1, 2, b"payload");
        for frame in [udp, arp_request(MacAddr::host(1), a, b)] {
            let wire = frame.to_vec();
            let ptr = frame.as_ptr();
            let mut buf = crate::FrameBuf::from_bytes(frame);
            buf.push_vlan(0x8100, 101).unwrap();
            assert_eq!(buf.as_ptr(), ptr.wrapping_sub(TAG_LEN), "pushed in place");
            let tag = crate::vlan::outer_tag(&buf);
            assert_eq!(tag, Some(crate::VlanTag::new(101)));
            assert_eq!(&buf[..12], &wire[..12]);
            assert_eq!(&buf[16..], &wire[12..]);
            // One tag's room: a second push has nowhere to go.
            buf.push_vlan(0x88a8, 7).unwrap();
            assert!(
                !(ptr.wrapping_sub(TAG_LEN)..ptr.wrapping_add(wire.len())).contains(&buf.as_ptr())
            );
        }
    }

    #[test]
    fn icmp_echo_parses() {
        let f = icmp_echo_request(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            77,
            3,
            b"abc",
        );
        let key = FlowKey::extract(1, &f).unwrap();
        assert_eq!(key.ip_proto, 1);
        assert_eq!(key.icmp_type, 8);
    }
}
