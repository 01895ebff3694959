//! Property tests for the packet formats: build→parse inverses, checksum
//! validity of everything the builders emit, and decode safety on
//! arbitrary bytes.

use proptest::prelude::*;

use netpkt::layers::{Ipv4, Layers};
use netpkt::vlan::{self, VlanTag};
use netpkt::{builder, checksum, frame, icmp, ipv4, ipv6, tcp, udp};
use netpkt::{ArpRepr, EtherType, FlowKey, MacAddr};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

/// The walk of a built IPv4 frame, its header checksum verified.
fn ipv4_of(f: &[u8]) -> (Layers<'_>, Ipv4<'_>) {
    let walk = Layers::parse(f).unwrap();
    let v4 = walk.ipv4().unwrap();
    assert!(
        checksum::verify(&f[walk.l3_at..v4.l4_at]),
        "IPv4 header checksum"
    );
    (walk, v4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn built_udp_packets_are_wire_valid(
        src_mac in arb_mac(),
        dst_mac in arb_mac(),
        src_ip in arb_ip(),
        dst_ip in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let f = builder::udp_packet(src_mac, dst_mac, src_ip, dst_ip, sport, dport, &payload);
        let (walk, Ipv4 { ip, mut l4, .. }) = ipv4_of(&f);
        prop_assert_eq!(walk.eth.src, src_mac);
        prop_assert_eq!(walk.eth.dst, dst_mac);
        prop_assert_eq!(ip.src, src_ip);
        prop_assert_eq!(ip.dst, dst_ip);
        prop_assert!(udp::verify_checksum_v4(l4, src_ip, dst_ip));
        let udp = udp::Header::parse(&mut l4).unwrap();
        prop_assert_eq!(udp.src_port, sport);
        prop_assert_eq!(udp.dst_port, dport);
        prop_assert_eq!(l4, &payload[..]);
        // And the flow key agrees with the construction parameters.
        let key = FlowKey::extract(5, &f).unwrap();
        prop_assert_eq!(key.in_port, 5);
        prop_assert_eq!(key.eth_src, src_mac);
        prop_assert_eq!(key.ip_proto, 17);
        prop_assert_eq!(key.udp_src, sport);
        prop_assert_eq!(key.udp_dst, dport);
    }

    #[test]
    fn built_tcp_packets_are_wire_valid(
        src_ip in arb_ip(),
        dst_ip in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let f = builder::tcp_packet(
            MacAddr::host(1), MacAddr::host(2), src_ip, dst_ip, sport, dport, flags, &payload,
        );
        let (_, Ipv4 { mut l4, .. }) = ipv4_of(&f);
        prop_assert!(tcp::verify_checksum_v4(l4, src_ip, dst_ip));
        let tcp = tcp::Header::parse(&mut l4).unwrap();
        prop_assert_eq!(tcp.flags, flags);
        prop_assert_eq!(l4, &payload[..]);
    }

    #[test]
    fn ethernet_repr_round_trips(
        dst in arb_mac(),
        src in arb_mac(),
        ty in any::<u16>(),
        tcis in proptest::collection::vec(any::<u16>(), 0..3),
    ) {
        // A TPID behind the tags would announce a tag that is not there.
        prop_assume!(!EtherType(ty).is_vlan());
        let tags: Vec<_> = tcis.iter().map(|&t| VlanTag::from_tci(t)).collect();
        let header = frame::Header {
            outer: tags.first().copied(),
            inner: tags.get(1).copied(),
            ..frame::Header::new(dst, src, EtherType(ty))
        };
        let mut buf = [0u8; 22];
        header.write(&mut &mut buf[..]).unwrap();
        let mut c = &buf[..];
        prop_assert_eq!(frame::Header::parse(&mut c).unwrap(), header);
        prop_assert_eq!(header.header_len(), buf.len() - c.len());
    }

    #[test]
    fn arp_repr_round_trips(
        smac in arb_mac(),
        sip in arb_ip(),
        tmac in arb_mac(),
        tip in arb_ip(),
        op in any::<u16>(),
    ) {
        let repr = ArpRepr {
            op: netpkt::ArpOp::from_value(op),
            sender_mac: smac,
            sender_ip: sip,
            target_mac: tmac,
            target_ip: tip,
        };
        let mut buf = [0u8; netpkt::arp::PACKET_LEN];
        repr.write(&mut &mut buf[..]).unwrap();
        prop_assert_eq!(ArpRepr::parse(&mut &buf[..]).unwrap(), repr);
    }

    #[test]
    fn vlan_stack_depth_two_round_trips(
        vid1 in 1u16..4095,
        vid2 in 1u16..4095,
        pcp in 0u8..8,
    ) {
        let base = builder::udp_packet(
            MacAddr::host(1), MacAddr::host(2),
            "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(),
            1, 2, b"payload",
        );
        let t1 = vlan::push_vlan(&base, VlanTag { vid: vid1, pcp, dei: false }).unwrap();
        let t2 = vlan::push_vlan_tpid(&t1, VlanTag::new(vid2), netpkt::EtherType::QINQ).unwrap();
        let eth = frame::Header::parse(&mut &t2[..]).unwrap();
        prop_assert_eq!(eth.outer, Some(VlanTag::new(vid2)));
        prop_assert_eq!(eth.inner, Some(VlanTag { vid: vid1, pcp, dei: false }));
        // Pop twice restores the original.
        let p1 = vlan::pop_vlan(&t2).unwrap();
        let p2 = vlan::pop_vlan(&p1).unwrap();
        prop_assert_eq!(&p2[..], &base[..]);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = frame::Header::parse(&mut &data[..]);
        let _ = ipv4::Header::parse(&mut &data[..]);
        let _ = ipv6::Header::parse(&mut &data[..]);
        let _ = udp::Header::parse(&mut &data[..]);
        let _ = tcp::Header::parse(&mut &data[..]);
        let _ = icmp::Header::parse(&mut &data[..]);
        let _ = ArpRepr::parse(&mut &data[..]);
        let _ = Layers::parse(&data);
        let _ = FlowKey::extract_lossy(0, &data);
    }

    #[test]
    fn checksum_incremental_equals_oneshot(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use netpkt::checksum;
        // Summing in two chunks must agree with one pass when the first
        // chunk has even length (ones-complement sums are 16-bit based).
        prop_assume!(a.len() % 2 == 0);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let two_step = checksum::finish(checksum::sum(checksum::sum(0, &a), &b));
        let one_step = checksum::checksum(&joined);
        prop_assert_eq!(two_step, one_step);
    }

    #[test]
    fn sized_frames_always_extractable(len in 60usize..1515) {
        let f = builder::sized_udp_packet(
            MacAddr::host(1), MacAddr::host(2),
            "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(),
            7, 9, len,
        );
        prop_assert_eq!(f.len(), len);
        let key = FlowKey::extract(1, &f).unwrap();
        prop_assert_eq!(key.udp_dst, 9);
    }
}
