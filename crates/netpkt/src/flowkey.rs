//! Flow-key extraction: the OpenFlow 1.3 match tuple pulled out of a frame
//! in one pass.
//!
//! [`FlowKey`] is both the *key* (extracted from a packet) and, by reusing
//! the same shape with each field interpreted as a bitmask, the *mask*
//! ([`FieldMask`]). `key.masked(&mask)` is a field-wise AND — exactly the
//! operation OVS-style megaflow caches and OXM masked matches need.

use crate::layers::{Ipv4, Layers};
use crate::{icmp, tcp, udp, vlan};
use crate::{IpProto, MacAddr, Result};

/// OpenFlow 1.3 `OFPVID_PRESENT`: set in [`FlowKey::vlan_vid`] when the
/// frame carries an 802.1Q tag.
pub const OFPVID_PRESENT: u16 = 0x1000;
/// OpenFlow 1.3 `OFPVID_NONE`: the `vlan_vid` value of untagged frames.
pub const OFPVID_NONE: u16 = 0x0000;

/// Helper for the OpenFlow VLAN-VID encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VlanKey {
    /// Untagged frame.
    None,
    /// Tagged with this VLAN id.
    Tagged(u16),
}

impl VlanKey {
    /// The OXM `VLAN_VID` wire value.
    pub fn to_oxm(&self) -> u16 {
        match self {
            VlanKey::None => OFPVID_NONE,
            VlanKey::Tagged(vid) => OFPVID_PRESENT | (vid & vlan::VID_MASK),
        }
    }

    /// Decode an OXM `VLAN_VID` value.
    pub fn from_oxm(v: u16) -> Self {
        if v & OFPVID_PRESENT != 0 {
            VlanKey::Tagged(v & vlan::VID_MASK)
        } else {
            VlanKey::None
        }
    }
}

/// The extracted match tuple. Fields not applicable to the packet (e.g.
/// `tcp_dst` of an ARP frame) are zero; which fields are meaningful is
/// implied by `eth_type` / `ip_proto`, mirroring OXM prerequisites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Ingress port (switch-local numbering).
    pub in_port: u32,
    /// Destination MAC.
    pub eth_dst: MacAddr,
    /// Source MAC.
    pub eth_src: MacAddr,
    /// EtherType after any VLAN tags.
    pub eth_type: u16,
    /// VLAN id in OpenFlow encoding (`OFPVID_PRESENT | vid`, or 0).
    pub vlan_vid: u16,
    /// VLAN priority code point (0 when untagged).
    pub vlan_pcp: u8,
    /// IP protocol number (v4 proto or v6 next-header).
    pub ip_proto: u8,
    /// IP DSCP bits.
    pub ip_dscp: u8,
    /// IPv4 source, big-endian u32.
    pub ipv4_src: u32,
    /// IPv4 destination, big-endian u32.
    pub ipv4_dst: u32,
    /// IPv6 source, big-endian u128.
    pub ipv6_src: u128,
    /// IPv6 destination, big-endian u128.
    pub ipv6_dst: u128,
    /// TCP source port.
    pub tcp_src: u16,
    /// TCP destination port.
    pub tcp_dst: u16,
    /// UDP source port.
    pub udp_src: u16,
    /// UDP destination port.
    pub udp_dst: u16,
    /// ICMPv4 type.
    pub icmp_type: u8,
    /// ICMPv4 code.
    pub icmp_code: u8,
    /// ARP opcode.
    pub arp_op: u16,
    /// ARP sender protocol address.
    pub arp_spa: u32,
    /// ARP target protocol address.
    pub arp_tpa: u32,
    /// OpenFlow pipeline metadata register. Not a packet field: always 0
    /// after extraction, written by `WriteMetadata` instructions as the
    /// packet moves through a multi-table pipeline.
    pub metadata: u64,
}

/// The key whose every field is `$e` of that field of `$a` and of `$b`
/// (a MAC as its `u64`). The struct literal names every field, so a new
/// one fails to compile here until it is listed.
macro_rules! fieldwise {
    (|$x:ident, $y:ident| $e:expr; $a:expr, $b:expr) => {
        fieldwise!(@ |$x, $y| $e; $a, $b; eth_dst eth_src; in_port eth_type vlan_vid vlan_pcp
            ip_proto ip_dscp ipv4_src ipv4_dst ipv6_src ipv6_dst tcp_src tcp_dst udp_src
            udp_dst icmp_type icmp_code arp_op arp_spa arp_tpa metadata)
    };
    (@ |$x:ident, $y:ident| $e:expr; $a:expr, $b:expr; $($m:ident)*; $($f:ident)*) => {{
        let (a, b) = ($a, $b);
        FlowKey {
            $($m: MacAddr::from_u64({ let ($x, $y) = (a.$m.to_u64(), b.$m.to_u64()); $e }),)*
            $($f: { let ($x, $y) = (a.$f, b.$f); $e },)*
        }
    }};
}

/// A wildcard mask over [`FlowKey`]: each field is a bitmask ANDed with the
/// corresponding key field. All-ones = exact match on that field, zero =
/// wildcarded.
pub type FieldMask = FlowKey;

impl FlowKey {
    /// A mask matching every field exactly.
    pub fn exact_mask() -> FieldMask {
        fieldwise!(|_x, _y| !0; FlowKey::default(), FlowKey::default())
    }

    /// A mask that wildcards everything (matches any packet).
    pub fn empty_mask() -> FieldMask {
        FlowKey::default()
    }

    /// Field-wise AND with a mask.
    pub fn masked(&self, m: &FieldMask) -> FlowKey {
        fieldwise!(|x, y| x & y; self, m)
    }

    /// Union of two masks (bit-wise OR per field). Used when a megaflow
    /// entry must become *more* specific.
    pub fn mask_union(&self, m: &FieldMask) -> FieldMask {
        fieldwise!(|x, y| x | y; self, m)
    }

    /// The VLAN tag state as a [`VlanKey`].
    pub fn vlan(&self) -> VlanKey {
        VlanKey::from_oxm(self.vlan_vid)
    }

    /// Extract the flow key of `frame` as received on `in_port`.
    ///
    /// L2 must parse; deeper layers are extracted opportunistically (a
    /// malformed IP header simply leaves the IP fields zero, as a hardware
    /// parser would treat a runt).
    pub fn extract(in_port: u32, frame: &[u8]) -> Result<FlowKey> {
        Ok(Self::walked(in_port, &Layers::parse(frame)?))
    }

    /// Extraction that fails only on frames shorter than an Ethernet
    /// header, mapping truncation to a zero key — used
    /// by dataplanes that must never drop on parse errors.
    pub fn extract_lossy(in_port: u32, frame: &[u8]) -> FlowKey {
        match Layers::parse(frame) {
            Ok(walk) => Self::walked(in_port, &walk),
            Err(_) => FlowKey {
                in_port,
                ..FlowKey::default()
            },
        }
    }

    /// The key of a frame whose link layer `walk` read. Inlined into
    /// both extractions, so the hot one writes its key where it returns
    /// it rather than through a `Result`.
    #[inline(always)]
    fn walked(in_port: u32, walk: &Layers<'_>) -> FlowKey {
        let eth = walk.eth;
        let mut key = FlowKey {
            in_port,
            eth_dst: eth.dst,
            eth_src: eth.src,
            eth_type: eth.ethertype.0,
            ..FlowKey::default()
        };
        if let Some(tag) = eth.outer {
            key.vlan_vid = OFPVID_PRESENT | tag.vid;
            key.vlan_pcp = tag.pcp;
        }
        if let Some(Ipv4 { ip, l4, .. }) = walk.ipv4() {
            key.ip_proto = ip.proto.0;
            key.ip_dscp = ip.dscp;
            key.ipv4_src = u32::from(ip.src);
            key.ipv4_dst = u32::from(ip.dst);
            Self::extract_l4(&mut key, ip.proto, l4);
        } else if let Some((ip, l4)) = walk.ipv6() {
            key.ip_proto = ip.next_header.0;
            key.ip_dscp = ip.traffic_class >> 2;
            key.ipv6_src = u128::from(ip.src);
            key.ipv6_dst = u128::from(ip.dst);
            Self::extract_l4(&mut key, ip.next_header, l4);
        } else if let Some(a) = walk.arp() {
            key.arp_op = a.op.value();
            key.arp_spa = u32::from(a.sender_ip);
            key.arp_tpa = u32::from(a.target_ip);
        }
        key
    }

    #[inline(always)]
    fn extract_l4(key: &mut FlowKey, proto: IpProto, mut l4: &[u8]) {
        match proto {
            IpProto::TCP => {
                if let Ok(t) = tcp::Header::parse(&mut l4) {
                    key.tcp_src = t.src_port;
                    key.tcp_dst = t.dst_port;
                }
            }
            IpProto::UDP => {
                if let Ok(u) = udp::Header::parse(&mut l4) {
                    key.udp_src = u.src_port;
                    key.udp_dst = u.dst_port;
                }
            }
            IpProto::ICMP => {
                if let Ok(i) = icmp::Header::parse(&mut l4) {
                    key.icmp_type = i.msg_type.value();
                    key.icmp_code = i.code;
                }
            }
            _ => {}
        }
    }
}

/// A [`FieldMask`] compiled for the one question a flow cache asks of it
/// on every hit: does `key.masked(mask) == masked` hold? Which *lanes* of
/// fields the mask names at all is worked out once, here; the check then
/// folds `(key & mask) ^ masked` over those lanes only, with no branch
/// per field and no masked key built (the HARMLESS translator's masks
/// name two link-layer fields, an `eth_dst` route's a handful — neither
/// need look at an address or a port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledMask {
    mask: FieldMask,
    lanes: u8,
}

impl CompiledMask {
    const LINK: u8 = 1;
    const IPV4: u8 = 2;
    const IPV6: u8 = 4;
    const L4: u8 = 8;
    const ARP: u8 = 16;

    /// Compile `mask`.
    pub fn new(mask: FieldMask) -> CompiledMask {
        // Exhaustive destructure (no `..`): a new field fails to compile
        // here until it is given a lane — and then joins
        // [`CompiledMask::covers`] below.
        let FlowKey {
            in_port,
            eth_dst,
            eth_src,
            eth_type,
            vlan_vid,
            vlan_pcp,
            ip_proto,
            ip_dscp,
            ipv4_src,
            ipv4_dst,
            ipv6_src,
            ipv6_dst,
            tcp_src,
            tcp_dst,
            udp_src,
            udp_dst,
            icmp_type,
            icmp_code,
            arp_op,
            arp_spa,
            arp_tpa,
            metadata,
        } = mask;
        let link = in_port != 0
            || eth_dst != MacAddr::ZERO
            || eth_src != MacAddr::ZERO
            || eth_type | vlan_vid != 0
            || vlan_pcp != 0
            || metadata != 0;
        let ipv4 = ip_proto | ip_dscp != 0 || ipv4_src | ipv4_dst != 0;
        let ipv6 = ipv6_src | ipv6_dst != 0;
        let l4 = tcp_src | tcp_dst | udp_src | udp_dst != 0 || icmp_type | icmp_code != 0;
        let arp = arp_op != 0 || arp_spa | arp_tpa != 0;
        let lane = |named: bool, bit: u8| if named { bit } else { 0 };
        let lanes = lane(link, Self::LINK)
            | lane(ipv4, Self::IPV4)
            | lane(ipv6, Self::IPV6)
            | lane(l4, Self::L4)
            | lane(arp, Self::ARP);
        CompiledMask { mask, lanes }
    }

    /// The mask itself.
    #[inline]
    pub fn mask(&self) -> &FieldMask {
        &self.mask
    }

    /// `key.masked(self.mask()) == *masked`, for a `masked` that was
    /// itself produced under this mask (so it is zero wherever the mask
    /// is).
    #[inline]
    pub fn covers(&self, key: &FlowKey, masked: &FlowKey) -> bool {
        let mask = &self.mask;
        macro_rules! diff {
            ($($f:ident),*) => { 0u64 $(| u64::from((key.$f & mask.$f) ^ masked.$f))* };
        }
        // A MAC as two native-endian words: two loads, where a 48-bit
        // big-endian assembly is six.
        let mac = |m: MacAddr| {
            let [a, b, c, d, e, f] = m.0;
            u64::from(u32::from_ne_bytes([a, b, c, d])) << 16
                | u64::from(u16::from_ne_bytes([e, f]))
        };
        let mut d = 0;
        if self.lanes & Self::LINK != 0 {
            d |= diff!(in_port, eth_type, vlan_vid, vlan_pcp, metadata)
                | ((mac(key.eth_dst) & mac(mask.eth_dst)) ^ mac(masked.eth_dst))
                | ((mac(key.eth_src) & mac(mask.eth_src)) ^ mac(masked.eth_src));
        }
        if self.lanes & Self::IPV4 != 0 {
            d |= diff!(ip_proto, ip_dscp, ipv4_src, ipv4_dst);
        }
        if self.lanes & Self::IPV6 != 0 {
            let wide = ((key.ipv6_src & mask.ipv6_src) ^ masked.ipv6_src)
                | ((key.ipv6_dst & mask.ipv6_dst) ^ masked.ipv6_dst);
            d |= (wide | wide >> 64) as u64;
        }
        if self.lanes & Self::L4 != 0 {
            d |= diff!(tcp_src, tcp_dst, udp_src, udp_dst, icmp_type, icmp_code);
        }
        if self.lanes & Self::ARP != 0 {
            d |= diff!(arp_op, arp_spa, arp_tpa);
        }
        d == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::vlan::{push_vlan, VlanTag};
    use std::net::Ipv4Addr;

    fn udp_frame() -> bytes::Bytes {
        builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1111,
            53,
            b"q",
        )
    }

    #[test]
    fn extract_udp() {
        let key = FlowKey::extract(3, &udp_frame()).unwrap();
        assert_eq!(key.in_port, 3);
        assert_eq!(key.eth_src, MacAddr::host(1));
        assert_eq!(key.eth_dst, MacAddr::host(2));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.vlan(), VlanKey::None);
        assert_eq!(key.ip_proto, 17);
        assert_eq!(key.ipv4_src, u32::from(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(key.udp_src, 1111);
        assert_eq!(key.udp_dst, 53);
        assert_eq!(key.tcp_dst, 0);
    }

    #[test]
    fn extract_tagged_reports_inner_ethertype() {
        let tagged = push_vlan(
            &udp_frame(),
            VlanTag {
                vid: 101,
                pcp: 5,
                dei: false,
            },
        )
        .unwrap();
        let key = FlowKey::extract(1, &tagged).unwrap();
        assert_eq!(key.eth_type, 0x0800, "ETH_TYPE must look through the tag");
        assert_eq!(key.vlan(), VlanKey::Tagged(101));
        assert_eq!(key.vlan_pcp, 5);
        assert_eq!(
            key.udp_dst, 53,
            "L4 must still be reachable through the tag"
        );
    }

    #[test]
    fn extract_arp() {
        let frame = builder::arp_request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.eth_type, 0x0806);
        assert_eq!(key.arp_op, 1);
        assert_eq!(key.arp_tpa, u32::from(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn masked_wildcards_fields() {
        let key = FlowKey::extract(3, &udp_frame()).unwrap();
        let mut mask = FlowKey::empty_mask();
        mask.udp_dst = u16::MAX;
        let m = key.masked(&mask);
        assert_eq!(m.udp_dst, 53);
        assert_eq!(m.in_port, 0);
        assert_eq!(m.eth_src, MacAddr::ZERO);
    }

    #[test]
    fn compiled_mask_covers_what_masking_then_comparing_does() {
        let key = FlowKey::extract(3, &udp_frame()).unwrap();
        let exact = FlowKey::exact_mask();
        assert!(CompiledMask::new(exact).covers(&key, &key));
        assert!(CompiledMask::new(FlowKey::empty_mask()).covers(&key, &FlowKey::default()));
        // Flip a bit of each field in turn. A mask of that one bit (its
        // lane alone compiled in) must tell the two keys apart, as the
        // exact mask must; the exact mask less that bit must not.
        let flips: [fn(&mut FlowKey); 22] = [
            |k| k.in_port ^= 1,
            |k| k.eth_dst.0[0] ^= 1,
            |k| k.eth_src.0[5] ^= 1,
            |k| k.eth_type ^= 1,
            |k| k.vlan_vid ^= 1,
            |k| k.vlan_pcp ^= 1,
            |k| k.ip_proto ^= 1,
            |k| k.ip_dscp ^= 1,
            |k| k.ipv4_src ^= 1,
            |k| k.ipv4_dst ^= 1,
            |k| k.ipv6_src ^= 1 << 100,
            |k| k.ipv6_dst ^= 1,
            |k| k.tcp_src ^= 1,
            |k| k.tcp_dst ^= 1,
            |k| k.udp_src ^= 1,
            |k| k.udp_dst ^= 1,
            |k| k.icmp_type ^= 1,
            |k| k.icmp_code ^= 1,
            |k| k.arp_op ^= 1,
            |k| k.arp_spa ^= 1,
            |k| k.arp_tpa ^= 1,
            |k| k.metadata ^= 1 << 40,
        ];
        for (i, flip) in flips.iter().enumerate() {
            let (mut other, mut bit, mut rest) = (key, FlowKey::empty_mask(), exact);
            flip(&mut other);
            flip(&mut bit);
            flip(&mut rest);
            for (mask, same) in [(exact, false), (bit, false), (rest, true)] {
                let compiled = CompiledMask::new(mask);
                assert_eq!(compiled.mask(), &mask);
                assert!(compiled.covers(&key, &key.masked(&mask)), "field {i}");
                assert_eq!(
                    compiled.covers(&other, &key.masked(&mask)),
                    same,
                    "field {i}"
                );
                assert_eq!(other.masked(&mask) == key.masked(&mask), same, "field {i}");
            }
        }
    }

    #[test]
    fn exact_mask_is_identity() {
        let key = FlowKey::extract(3, &udp_frame()).unwrap();
        assert_eq!(key.masked(&FlowKey::exact_mask()), key);
    }

    #[test]
    fn mask_union_is_monotonic() {
        let mut a = FlowKey::empty_mask();
        a.udp_dst = u16::MAX;
        let mut b = FlowKey::empty_mask();
        b.in_port = u32::MAX;
        let u = a.mask_union(&b);
        assert_eq!(u.udp_dst, u16::MAX);
        assert_eq!(u.in_port, u32::MAX);
    }

    #[test]
    fn vlan_key_oxm_round_trip() {
        assert_eq!(
            VlanKey::from_oxm(VlanKey::Tagged(101).to_oxm()),
            VlanKey::Tagged(101)
        );
        assert_eq!(VlanKey::from_oxm(VlanKey::None.to_oxm()), VlanKey::None);
    }

    #[test]
    fn lossy_never_panics_on_garbage() {
        for len in 0..64 {
            let junk = vec![0xa5u8; len];
            let _ = FlowKey::extract_lossy(1, &junk);
        }
    }

    #[test]
    fn truncated_ip_leaves_l3_zero() {
        // Valid Ethernet header claiming IPv4, but only 4 payload bytes.
        let mut f = vec![0u8; 18];
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        let key = FlowKey::extract(1, &f).unwrap();
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.ipv4_src, 0);
        assert_eq!(key.ip_proto, 0);
    }
}
