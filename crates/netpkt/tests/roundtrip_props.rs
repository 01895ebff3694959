//! Property tests complementing `proptests.rs`: header round trips
//! (`ipv4::Header`), corruption detection for the IPv4/TCP/UDP checksums,
//! ICMP echo builder↔parser agreement, RFC 1071 algebra, and flow-key
//! masking identities.

use proptest::prelude::*;

use netpkt::ipv4::{self, IpProto};
use netpkt::layers::{Ipv4, Layers};
use netpkt::{builder, checksum, icmp, tcp, udp, FlowKey, Icmpv4Type, MacAddr};

fn arb_ip() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

/// The IPv4 packet of a built frame, its header checksum verified.
fn ipv4_of(f: &[u8]) -> Ipv4<'_> {
    let walk = Layers::parse(f).unwrap();
    let v4 = walk.ipv4().unwrap();
    assert!(
        checksum::verify(&f[walk.l3_at..v4.l4_at]),
        "IPv4 header checksum"
    );
    v4
}

/// A 20-byte header written with its checksum filled in.
fn written(h: &ipv4::Header) -> Vec<u8> {
    let mut buf = vec![0u8; ipv4::HEADER_LEN];
    h.write(&mut &mut buf[..]).unwrap();
    ipv4::fill_checksum(&mut buf);
    buf
}

fn arb_proto() -> impl Strategy<Value = IpProto> {
    prop_oneof![
        Just(IpProto::ICMP),
        Just(IpProto::TCP),
        Just(IpProto::UDP),
        any::<u8>().prop_map(IpProto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ipv4::Header::write` followed by `ipv4::Header::parse` is the
    /// identity on every field, and `fill_checksum` makes the header
    /// verify.
    #[test]
    fn ipv4_repr_round_trips(
        src in arb_ip(),
        dst in arb_ip(),
        proto in arb_proto(),
        payload_len in 0u16..1400,
        ttl in any::<u8>(),
        tos in any::<u8>(),
        ident in any::<u16>(),
        frag in any::<u16>(),
    ) {
        let mut header = ipv4::Header {
            header_len: ipv4::HEADER_LEN,
            dscp: tos >> 2,
            ecn: tos & 3,
            total_len: ipv4::HEADER_LEN as u16 + payload_len,
            ident,
            frag,
            ttl,
            proto,
            checksum: 0,
            src,
            dst,
        };
        let buf = written(&header);
        prop_assert!(checksum::verify(&buf));
        let parsed = ipv4::Header::parse(&mut &buf[..]).unwrap();
        header.checksum = parsed.checksum;
        prop_assert_eq!(parsed, header);
    }

    /// Any single-bit corruption of the emitted IPv4 header is caught by
    /// the RFC 1071 checksum (repr parse must refuse the packet).
    #[test]
    fn ipv4_checksum_catches_single_bit_flips(
        src in arb_ip(),
        dst in arb_ip(),
        bit in 0usize..(netpkt::ipv4::HEADER_LEN * 8),
    ) {
        let mut buf = written(&ipv4::Header {
            header_len: ipv4::HEADER_LEN,
            dscp: 0,
            ecn: 0,
            total_len: ipv4::HEADER_LEN as u16,
            ident: 0,
            frag: ipv4::DONT_FRAGMENT,
            ttl: 64,
            proto: IpProto::UDP,
            checksum: 0,
            src,
            dst,
        });
        buf[bit / 8] ^= 1 << (bit % 8);
        // Flipping the version/IHL nibble may make the header unparsable
        // outright; everything parsable must fail checksum verification.
        if ipv4::Header::parse(&mut &buf[..]).is_ok() {
            prop_assert!(!checksum::verify(&buf), "corrupted bit {} went undetected", bit);
        }
    }

    /// UDP's pseudo-header checksum catches payload corruption and
    /// source/destination address rewrites.
    #[test]
    fn udp_checksum_catches_corruption(
        src_ip in arb_ip(),
        dst_ip in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<(u16, u8)>(),
    ) {
        let f = builder::udp_packet(
            MacAddr::host(1), MacAddr::host(2), src_ip, dst_ip, sport, dport, &payload,
        );
        let dgram = ipv4_of(&f).l4;
        prop_assert!(udp::verify_checksum_v4(dgram, src_ip, dst_ip));
        // Corrupt one payload bit.
        let mut bad = dgram.to_vec();
        let byte = udp::HEADER_LEN + usize::from(flip.0) % payload.len();
        bad[byte] ^= 1 << (flip.1 % 8);
        prop_assert!(!udp::verify_checksum_v4(&bad, src_ip, dst_ip));
        // A rewritten source address invalidates the pseudo-header sum
        // (unless the rewrite is a ones'-complement alias of the original,
        // e.g. 0.0.0.0 vs 255.255.255.255 contribute identical sums).
        let other = std::net::Ipv4Addr::from(u32::from(src_ip) ^ 1);
        prop_assert!(!udp::verify_checksum_v4(dgram, other, dst_ip));
    }

    /// TCP header fields written by the builder survive a parse, and the
    /// TCP checksum also covers the payload.
    #[test]
    fn tcp_fields_and_checksum(
        src_ip in arb_ip(),
        dst_ip in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<u16>(),
    ) {
        let f = builder::tcp_packet(
            MacAddr::host(1), MacAddr::host(2), src_ip, dst_ip, sport, dport, flags, &payload,
        );
        let Ipv4 { ip, l4: seg, .. } = ipv4_of(&f);
        prop_assert_eq!(ip.proto, IpProto::TCP);
        let mut rest = seg;
        let tcp = tcp::Header::parse(&mut rest).unwrap();
        prop_assert_eq!(tcp.src_port, sport);
        prop_assert_eq!(tcp.dst_port, dport);
        prop_assert_eq!(tcp.flags, flags);
        prop_assert_eq!(tcp.header_len, tcp::HEADER_LEN);
        prop_assert_eq!(rest, &payload[..]);
        prop_assert!(tcp::verify_checksum_v4(seg, src_ip, dst_ip));
        let mut bad = seg.to_vec();
        let byte = tcp::HEADER_LEN + usize::from(flip) % payload.len();
        bad[byte] ^= 0x01;
        prop_assert!(!tcp::verify_checksum_v4(&bad, src_ip, dst_ip));
    }

    /// The ICMP echo builders emit frames the parsers fully agree with,
    /// and request/reply differ only in the message type.
    #[test]
    fn icmp_echo_round_trips(
        src_ip in arb_ip(),
        dst_ip in arb_ip(),
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let parse = |f: &[u8]| -> (Icmpv4Type, u16, u16, Vec<u8>) {
            let Ipv4 { ip, l4, .. } = ipv4_of(f);
            assert_eq!(ip.proto, IpProto::ICMP);
            assert!(checksum::verify(l4));
            let mut rest = l4;
            let icmp = icmp::Header::parse(&mut rest).unwrap();
            (icmp.msg_type, icmp.ident, icmp.seq, rest.to_vec())
        };
        let req = builder::icmp_echo_request(
            MacAddr::host(1), MacAddr::host(2), src_ip, dst_ip, ident, seq, &payload,
        );
        let (ty, i, s, p) = parse(&req);
        prop_assert_eq!(ty, Icmpv4Type::EchoRequest);
        prop_assert_eq!((i, s), (ident, seq));
        prop_assert_eq!(&p[..], &payload[..]);
        let rep = builder::icmp_echo_reply(
            MacAddr::host(2), MacAddr::host(1), dst_ip, src_ip, ident, seq, &payload,
        );
        let (ty, i, s, p) = parse(&rep);
        prop_assert_eq!(ty, Icmpv4Type::EchoReply);
        prop_assert_eq!((i, s), (ident, seq));
        prop_assert_eq!(&p[..], &payload[..]);
    }

    /// RFC 1071 inverse property: writing `checksum(buf with zeroed
    /// field)` into the field makes `verify(buf)` true.
    #[test]
    fn checksum_inverse_property(
        data in proptest::collection::vec(any::<u8>(), 2..128),
    ) {
        let mut data = data;
        data[0] = 0;
        data[1] = 0;
        let ck = checksum::checksum(&data);
        data[..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(checksum::verify(&data));
    }

    /// The pseudo-header seed composes additively with `sum`, matching a
    /// manual accumulation in either order.
    #[test]
    fn pseudo_header_sum_is_additive(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        proto in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let len = data.len() as u16;
        let seeded = checksum::finish(checksum::sum(
            checksum::pseudo_header_v4(src, dst, proto, len),
            &data,
        ));
        let manual = checksum::finish(
            checksum::pseudo_header_v4(src, dst, proto, len) + checksum::sum(0, &data),
        );
        prop_assert_eq!(seeded, manual);
    }

    /// Masking with the exact mask is the identity; masking with the
    /// empty mask yields the all-wildcard key (modulo ingress port).
    #[test]
    fn flowkey_mask_identities(
        src in any::<u32>(),
        dport in any::<u16>(),
        in_port in 1u32..48,
    ) {
        let f = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(2),
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dport,
            b"x",
        );
        let key = FlowKey::extract(in_port, &f).unwrap();
        prop_assert_eq!(key.masked(&FlowKey::exact_mask()), key);
        let blank = key.masked(&FlowKey::empty_mask());
        prop_assert_eq!(blank, FlowKey::default());
        // Mask union with self is idempotent.
        let mask = FlowKey::exact_mask();
        prop_assert_eq!(mask.mask_union(&mask), mask);
    }
}
