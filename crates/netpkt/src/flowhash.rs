//! A hand-rolled flow hash for [`FlowKey`], in the style of OVS's
//! `lib/hash.h` (`mhash_add`/`mhash_finish`, i.e. the MurmurHash3 mixing
//! rounds over 32-bit words).
//!
//! The standard library's `HashMap` defaults to SipHash-1-3, which is a
//! keyed PRF: on the ~130-byte [`FlowKey`] one probe costs on the order
//! of 120 ns — more than an entire cached datapath replay (see the
//! `Notes for perf PRs` section of EXPERIMENTS.md). Software switches do
//! not need a PRF on this path: flow keys are already extracted from
//! attacker-controlled bytes by a parser that canonicalises them, and the
//! caches they index flush wholesale under churn, so OVS uses a short
//! multiply–rotate mix instead. This module reproduces that trade:
//! [`FlowKey::flow_hash`] is a direct 32-bit hash of a key — the
//! fingerprint every flow-cache probe in `softswitch::cache` runs on, a
//! bucket index, an RSS-style hash.
//!
//! The `flowhash` criterion group in `crates/bench/benches/flowhash.rs`
//! compares it against SipHash on real extracted keys.

use crate::FlowKey;

// MurmurHash3 mixing constants, as used by OVS's mhash.
const C1: u32 = 0xcc9e_2d51;
const C2: u32 = 0x1b87_3593;

/// One OVS `mhash_add` round: fold a 32-bit word into the running hash.
#[inline]
pub fn mix(hash: u32, data: u32) -> u32 {
    let mut d = data.wrapping_mul(C1);
    d = d.rotate_left(15);
    d = d.wrapping_mul(C2);
    let h = hash ^ d;
    h.rotate_left(13).wrapping_mul(5).wrapping_add(0xe654_6b64)
}

/// OVS `mhash_finish`: the avalanche finaliser.
#[inline]
pub fn finish(hash: u32) -> u32 {
    let mut h = hash;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

impl FlowKey {
    /// Hash the key with the OVS-style multiply–rotate mix, seeded with
    /// `basis` (use 0 unless you need distinct hash universes, e.g. for
    /// per-bucket RSS).
    ///
    /// Every field of the key participates, so two keys compare equal iff
    /// collisions aside they hash equal — the property the microflow
    /// cache needs. This is *not* a keyed/cryptographic hash; see the
    /// module docs for why that is the right trade here.
    #[inline]
    pub fn flow_hash(&self, basis: u32) -> u32 {
        // Exhaustive destructure (no `..`): adding a field to `FlowKey`
        // fails to compile here until the new field joins the mix — the
        // derived `Hash` path picks fields up automatically, and this
        // hand-walked path must never drift behind it.
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
        } = *self;
        let mut h = basis;
        h = mix(h, in_port);
        // The two MACs pack into three 32-bit words.
        let d = eth_dst.0;
        let s = eth_src.0;
        h = mix(h, u32::from_be_bytes([d[0], d[1], d[2], d[3]]));
        h = mix(h, u32::from_be_bytes([d[4], d[5], s[0], s[1]]));
        h = mix(h, u32::from_be_bytes([s[2], s[3], s[4], s[5]]));
        h = mix(h, u32::from(eth_type) << 16 | u32::from(vlan_vid));
        h = mix(
            h,
            u32::from(vlan_pcp) << 24 | u32::from(ip_proto) << 16 | u32::from(ip_dscp) << 8,
        );
        h = mix(h, ipv4_src);
        h = mix(h, ipv4_dst);
        // IPv6 addresses are zero for the dominant v4 traffic; skip the
        // eight extra rounds entirely in that case (OVS similarly hashes
        // the miniflow, i.e. only the populated words).
        if ipv6_src != 0 || ipv6_dst != 0 {
            for word in [ipv6_src, ipv6_dst] {
                h = mix(h, word as u32);
                h = mix(h, (word >> 32) as u32);
                h = mix(h, (word >> 64) as u32);
                h = mix(h, (word >> 96) as u32);
            }
        }
        h = mix(h, u32::from(tcp_src) << 16 | u32::from(tcp_dst));
        h = mix(h, u32::from(udp_src) << 16 | u32::from(udp_dst));
        h = mix(
            h,
            u32::from(icmp_type) << 24 | u32::from(icmp_code) << 16 | u32::from(arp_op),
        );
        h = mix(h, arp_spa);
        h = mix(h, arp_tpa);
        if metadata != 0 {
            h = mix(h, metadata as u32);
            h = mix(h, (metadata >> 32) as u32);
        }
        finish(h)
    }
}

/// RSS-style steering hash over a *raw* frame: a single cheap pass that
/// reads only the bytes a NIC's receive-side-scaling engine would — the
/// IPv4 5-tuple when present, the MAC/EtherType words otherwise — and
/// mixes them with the same MurmurHash3 rounds as [`FlowKey::flow_hash`].
///
/// This deliberately does *not* run the full [`FlowKey`] parser: the
/// steering stage sits in front of the datapath and must cost a fraction
/// of a lookup. The only property it needs is that all frames of one
/// transport flow hash identically (so `hash % n_cores` pins the flow to
/// one datapath instance and per-flow ordering is preserved); distinct
/// flows should spread. VLAN tags are skipped the way RSS does before
/// hashing the inner IP header, so tagged and untagged frames of the
/// same flow steer together.
pub fn rss_hash(frame: &[u8]) -> u32 {
    const VLAN: u16 = 0x8100;
    const QINQ: u16 = 0x88a8;
    const IPV4: u16 = 0x0800;
    let rd16 = |off: usize| -> Option<u16> {
        Some(u16::from_be_bytes([*frame.get(off)?, *frame.get(off + 1)?]))
    };
    let rd32 = |off: usize| -> Option<u32> {
        Some(u32::from_be_bytes([
            *frame.get(off)?,
            *frame.get(off + 1)?,
            *frame.get(off + 2)?,
            *frame.get(off + 3)?,
        ]))
    };
    let five_tuple = || -> Option<u32> {
        // Skip any stack of VLAN tags to the inner EtherType.
        let mut off = 12;
        let mut ety = rd16(off)?;
        while ety == VLAN || ety == QINQ {
            off += 4;
            ety = rd16(off)?;
        }
        if ety != IPV4 {
            return None;
        }
        let ip = off + 2;
        let ihl = (*frame.get(ip)? & 0x0f) as usize * 4;
        let proto = *frame.get(ip + 9)?;
        let src = rd32(ip + 12)?;
        let dst = rd32(ip + 16)?;
        // TCP=6 / UDP=17 start with src/dst ports; everything else
        // steers on the 3-tuple alone.
        let ports = if proto == 6 || proto == 17 {
            rd32(ip + ihl).unwrap_or(0)
        } else {
            0
        };
        let mut h = mix(0, src);
        h = mix(h, dst);
        h = mix(h, u32::from(proto));
        h = mix(h, ports);
        Some(finish(h))
    };
    five_tuple().unwrap_or_else(|| {
        // Non-IP (ARP, LLDP, runts): steer on the MAC + EtherType words
        // so the flow — such as it is — still lands on one core.
        let mut h = 0;
        for off in (0..12).step_by(4) {
            h = mix(h, rd32(off).unwrap_or(0));
        }
        h = mix(h, u32::from(rd16(12).unwrap_or(0)));
        finish(h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builder, MacAddr};
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    fn key(src: u32, dport: u16) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(2),
            Ipv4Addr::from(0x0a00_0000 + src),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dport,
            b"x",
        );
        FlowKey::extract(1, &f).unwrap()
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(key(7, 53).flow_hash(0), key(7, 53).flow_hash(0));
        assert_eq!(key(7, 53).flow_hash(9), key(7, 53).flow_hash(9));
    }

    #[test]
    fn basis_separates_universes() {
        assert_ne!(key(7, 53).flow_hash(0), key(7, 53).flow_hash(1));
    }

    #[test]
    fn distinct_microflows_spread() {
        // 4096 distinct flows must not collapse: the mix has to put
        // nearly all of them in distinct 32-bit slots (a couple of
        // birthday collisions would be ~one in a million here).
        let mut seen = HashSet::new();
        for src in 0..64u32 {
            for dport in 0..64u16 {
                seen.insert(key(src, dport).flow_hash(0));
            }
        }
        assert!(seen.len() >= 4095, "only {} distinct hashes", seen.len());
    }

    #[test]
    fn low_bits_spread_for_bucketing() {
        // HashMap uses the low bits for the bucket index; sequential
        // sources must not all land in a few buckets.
        let mut buckets = HashSet::new();
        for src in 0..256u32 {
            buckets.insert(key(src, 53).flow_hash(0) & 0xff);
        }
        assert!(
            buckets.len() > 128,
            "only {} low-byte values",
            buckets.len()
        );
    }

    #[test]
    fn every_field_is_significant() {
        let base = key(1, 53);
        let h0 = base.flow_hash(0);
        let mutations: Vec<FlowKey> = vec![
            FlowKey { in_port: 2, ..base },
            FlowKey {
                eth_src: MacAddr::host(99),
                ..base
            },
            FlowKey {
                vlan_vid: 0x1000 | 101,
                ..base
            },
            FlowKey {
                ipv4_dst: base.ipv4_dst ^ 1,
                ..base
            },
            FlowKey {
                udp_src: 1001,
                ..base
            },
            FlowKey {
                metadata: 3,
                ..base
            },
            FlowKey {
                ipv6_src: 1,
                ..base
            },
        ];
        for (i, m) in mutations.iter().enumerate() {
            assert_ne!(m.flow_hash(0), h0, "mutation {i} did not change the hash");
        }
    }

    #[test]
    fn rss_hash_is_per_flow_stable_and_spreads() {
        // Same 5-tuple, different payloads → same hash (flow pinning).
        let f1 = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
            b"first payload",
        );
        let f2 = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
            b"a completely different payload entirely",
        );
        assert_eq!(rss_hash(&f1), rss_hash(&f2));

        // A VLAN tag must not change where the flow steers.
        let tagged = crate::vlan::push_vlan(&f1, crate::VlanTag::new(101)).expect("taggable");
        assert_eq!(rss_hash(&f1), rss_hash(&tagged));

        // Distinct flows spread across hash space.
        let mut seen = HashSet::new();
        for src in 0..32u32 {
            for dport in 0..32u16 {
                let f = builder::udp_packet(
                    MacAddr::host(src),
                    MacAddr::host(2),
                    Ipv4Addr::from(0x0a00_0000 + src),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000,
                    dport,
                    b"x",
                );
                seen.insert(rss_hash(&f));
            }
        }
        assert!(seen.len() >= 1020, "only {} distinct hashes", seen.len());

        // Non-IP frames still produce a stable hash.
        let arp = builder::arp_request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        assert_eq!(rss_hash(&arp), rss_hash(&arp.to_vec()));
        // Runts don't panic.
        assert_eq!(rss_hash(&[]), rss_hash(&[]));
        assert_eq!(rss_hash(&[1, 2, 3]), rss_hash(&[1, 2, 3]));
    }
}
