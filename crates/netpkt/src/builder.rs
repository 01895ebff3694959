//! Convenience constructors for complete, checksummed frames.
//!
//! These are what traffic generators, examples and tests use; the hot path
//! never allocates through here. Each writes its headers with their own
//! `write`, then fills in the checksums over the bytes written.
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
use crate::wire::CursorMut;
use crate::{arp, icmp, ipv4, tcp, udp};
use crate::{ArpRepr, Error, EtherType, Icmpv4Type, IpProto, MacAddr, Result};

/// Spare bytes in front of every built frame: room for one tag.
const HEADROOM: usize = TAG_LEN;

/// A `len`-byte frame, zeroed and then written by `fill`, in a buffer
/// of its own with [`HEADROOM`] in front of it.
///
/// # Panics
/// If `fill` writes past `len` bytes: each builder here sizes its frame
/// for what it writes.
fn with_headroom(len: usize, fill: impl FnOnce(&mut [u8]) -> Result<()>) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADROOM + len);
    buf.resize(HEADROOM + len, 0);
    fill(buf.get_mut(HEADROOM..).unwrap_or_default())
        .expect("a built frame holds what it is sized for");
    let mut frame = buf.freeze();
    frame.advance(HEADROOM);
    frame
}

/// Build a raw Ethernet II frame around an opaque payload.
pub fn ethernet(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Bytes {
    with_headroom(HEADER_LEN + payload.len(), |mut f| {
        frame::Header::new(dst, src, ethertype).write(&mut f)?;
        f.put(payload)
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
    let header = udp::Header {
        src_port,
        dst_port,
        len: udp_len as u16,
        checksum: 0,
    };
    ipv4_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IpProto::UDP,
        udp_len,
        |l4| {
            let mut w = &mut *l4;
            header.write(&mut w)?;
            fill(w);
            udp::fill_checksum_v4(l4, src_ip, dst_ip);
            Ok(())
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
    let header = tcp::Header {
        src_port,
        dst_port,
        seq: 0,
        ack: 0,
        header_len: tcp::HEADER_LEN,
        flags: tcp_flags,
        window: 65535,
    };
    let len = tcp::HEADER_LEN + payload.len();
    ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, IpProto::TCP, len, |l4| {
        let mut w = &mut *l4;
        header.write(&mut w)?;
        w.put(payload)?;
        tcp::fill_checksum_v4(l4, src_ip, dst_ip);
        Ok(())
    })
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
    let header = icmp_header(Icmpv4Type::EchoRequest, ident, seq);
    icmp_frame(src_mac, dst_mac, src_ip, dst_ip, header, payload)
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
    let header = icmp_header(Icmpv4Type::EchoReply, ident, seq);
    icmp_frame(src_mac, dst_mac, src_ip, dst_ip, header, payload)
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
    // The rest-of-header word is unused: ident and sequence zero.
    let header = icmp_header(Icmpv4Type::TimeExceeded, 0, 0);
    let quoted = orig_ip.get(..ipv4::HEADER_LEN + 8).unwrap_or(orig_ip);
    icmp_frame(router_mac, dst_mac, router_ip, dst_ip, header, quoted)
}

fn icmp_header(msg_type: Icmpv4Type, ident: u16, seq: u16) -> icmp::Header {
    icmp::Header {
        msg_type,
        code: 0,
        checksum: 0,
        ident,
        seq,
    }
}

/// An Ethernet/IPv4/ICMP frame of `header` and `payload`.
fn icmp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    header: icmp::Header,
    payload: &[u8],
) -> Bytes {
    let len = icmp::HEADER_LEN + payload.len();
    ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, IpProto::ICMP, len, |l4| {
        let mut w = &mut *l4;
        header.write(&mut w)?;
        w.put(payload)?;
        icmp::fill_checksum(l4);
        Ok(())
    })
}

/// Build an Ethernet/IPv4 frame in one buffer; `fill_l4` writes the
/// `l4_len` zeroed bytes after the IPv4 header.
fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    proto: IpProto,
    l4_len: usize,
    fill_l4: impl FnOnce(&mut [u8]) -> Result<()>,
) -> Bytes {
    let ip = ipv4::Header {
        header_len: ipv4::HEADER_LEN,
        dscp: 0,
        ecn: 0,
        total_len: (ipv4::HEADER_LEN + l4_len) as u16,
        ident: 0,
        frag: ipv4::DONT_FRAGMENT,
        ttl: 64,
        proto,
        checksum: 0,
        src: src_ip,
        dst: dst_ip,
    };
    with_headroom(HEADER_LEN + ipv4::HEADER_LEN + l4_len, |mut f| {
        frame::Header::new(dst_mac, src_mac, EtherType::IPV4).write(&mut f)?;
        let (header, l4) = f
            .split_at_mut_checked(ipv4::HEADER_LEN)
            .ok_or(Error::Truncated)?;
        ip.write(&mut &mut *header)?;
        ipv4::fill_checksum(header);
        fill_l4(l4)
    })
}

/// Build a broadcast ARP who-has request.
pub fn arp_request(src_mac: MacAddr, src_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Bytes {
    arp_frame(
        MacAddr::BROADCAST,
        &ArpRepr::request(src_mac, src_ip, target_ip),
    )
}

/// Build a unicast ARP reply answering `req` (which must be an ARP frame).
pub fn arp_reply(req_repr: &ArpRepr, my_mac: MacAddr) -> Bytes {
    let rep = req_repr.reply_to(my_mac);
    arp_frame(rep.target_mac, &rep)
}

/// An Ethernet frame from the ARP sender to `dst` carrying `packet`.
fn arp_frame(dst: MacAddr, packet: &ArpRepr) -> Bytes {
    with_headroom(HEADER_LEN + arp::PACKET_LEN, |mut f| {
        frame::Header::new(dst, packet.sender_mac, EtherType::ARP).write(&mut f)?;
        packet.write(&mut f)
    })
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
    let payload = vec![0u8; frame_len.saturating_sub(overhead)];
    udp_packet(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, &payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;
    use crate::layers::{Ipv4, Layers};
    use crate::FlowKey;

    /// The IPv4 packet of a built frame, its header checksum verified.
    fn ipv4_of(f: &[u8]) -> Ipv4<'_> {
        let walk = Layers::parse(f).unwrap();
        assert_eq!(walk.eth.ethertype, EtherType::IPV4);
        let v4 = walk.ipv4().unwrap();
        assert!(checksum::verify(&f[walk.l3_at..v4.l4_at]));
        v4
    }

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
        let Ipv4 { ip, mut l4, .. } = ipv4_of(&f);
        assert!(udp::verify_checksum_v4(l4, ip.src, ip.dst));
        let u = udp::Header::parse(&mut l4).unwrap();
        assert_eq!((u.src_port, u.dst_port), (1000, 2000));
        assert_eq!(l4, b"payload");
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
        let Ipv4 { ip, l4, .. } = ipv4_of(&f);
        let t = tcp::Header::parse(&mut &l4[..]).unwrap();
        assert!(t.is_syn());
        assert_eq!((t.seq, t.ack, t.window), (0, 0, 65535));
        assert!(tcp::verify_checksum_v4(l4, ip.src, ip.dst));
    }

    #[test]
    fn arp_frames_parse_back() {
        let req = arp_request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let walk = Layers::parse(&req).unwrap();
        assert_eq!(walk.eth.dst, MacAddr::BROADCAST);
        let repr = walk.arp().expect("an ARP frame");
        let rep = arp_reply(&repr, MacAddr::host(2));
        assert_eq!(Layers::parse(&rep).unwrap().eth.dst, MacAddr::host(1));
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
        let te = icmp_time_exceeded(
            MacAddr::host(0xff),
            MacAddr::host(1),
            Ipv4Addr::new(10, 1, 255, 254),
            Ipv4Addr::new(10, 0, 0, 1),
            &dropped[HEADER_LEN..],
        );
        let key = FlowKey::extract(1, &te).unwrap();
        assert_eq!(key.ip_proto, 1);
        assert_eq!(key.icmp_type, 11);
        let Ipv4 { mut l4, .. } = ipv4_of(&te);
        assert!(checksum::verify(l4));
        let icmp = icmp::Header::parse(&mut l4).unwrap();
        assert_eq!(icmp.msg_type, Icmpv4Type::TimeExceeded);
        // Quoted: original IP header + 8 bytes = src/dst ports + len + ck.
        assert_eq!(l4.len(), ipv4::HEADER_LEN + 8);
        let quoted = ipv4::Header::parse(&mut l4).unwrap();
        assert_eq!(quoted.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(quoted.dst, Ipv4Addr::new(10, 3, 0, 1));
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
        let Ipv4 { mut l4, .. } = ipv4_of(&f);
        let icmp = icmp::Header::parse(&mut l4).unwrap();
        assert_eq!((icmp.ident, icmp.seq, l4), (77, 3, &b"abc"[..]));
    }
}
