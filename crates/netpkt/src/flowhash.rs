//! Hashes over flows: the fingerprint of a [`FlowKey`] that the flow
//! caches and the flow table index by, and the steering hash of a raw
//! frame.
//!
//! [`FlowKey::flow_hash64`] packs the key's fields into 64-bit words
//! and multiplies each word, XORed with a constant of its own and the
//! seed, by that constant: a full 64×64→128-bit product folded back to
//! 64 bits (wyhash's "mum", with a constant as the second operand). The
//! products do not depend on each other, so the processor overlaps
//! them, and XOR combines them: an IPv4 key is seven multiplies side by
//! side, then one xorshift-multiply finaliser, not a chain of rounds
//! each waiting on the last. The IPv6 words and the metadata word are
//! skipped when zero, as OVS hashes only the populated words of a
//! miniflow. No two key words are multiplied by each other: a zero
//! operand would erase the other word.
//!
//! It is not a PRF, and need not be: keys come out of a canonicalising
//! parser, the caches flush wholesale under churn, and every
//! fingerprint match is verified against a stored key, so a collision
//! costs a probe, never a wrong hit. SipHash-1-3 over the 96-byte
//! [`FlowKey`] costs many times as much (ledger rows `flowhash/*`,
//! written by `crates/bench/benches/flowhash.rs`).
//!
//! The datapath's fingerprint, [`FlowKey::flow_hash`]`(0)`, is unseeded
//! and part of the simulated model: two 5-tuples that share it under one
//! megaflow share a microflow slot and both hit (`softswitch::cache`),
//! which sets a frame's lookup path and so its simulated service time.
//! A seed that differed from run to run would make the simulator
//! non-deterministic. `openflow::FlowTable` seeds
//! [`FlowKey::flow_hash64`] once per table.
//!
//! [`rss_hash`] keeps OVS's `mhash` (MurmurHash3) rounds: steering picks
//! the core that serves a flow, so its values are simulated numbers, and
//! a golden test pins them.

use crate::FlowKey;

// MurmurHash3 mixing constants, as used by OVS's mhash.
const C1: u32 = 0xcc9e_2d51;
const C2: u32 = 0x1b87_3593;

/// One OVS `mhash_add` round: fold a 32-bit word into the running hash.
#[inline]
fn mix(hash: u32, data: u32) -> u32 {
    let mut d = data.wrapping_mul(C1);
    d = d.rotate_left(15);
    d = d.wrapping_mul(C2);
    let h = hash ^ d;
    h.rotate_left(13).wrapping_mul(5).wrapping_add(0xe654_6b64)
}

/// OVS `mhash_finish`: the avalanche finaliser.
#[inline]
fn finish(hash: u32) -> u32 {
    let mut h = hash;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^ (h >> 16)
}

/// Words in a packed key: seven that every key fills, the four of the
/// two IPv6 addresses, and the metadata word.
const WORDS: usize = 12;

/// Word `i` is XORed with `K[i]` and the seed, then multiplied by
/// `K[i]`: odd splitmix64 outputs with about half their bits set.
const K: [u64; WORDS] = [
    0xe220_a839_7b1d_cdaf,
    0x6e78_9e6a_a1b9_65f5,
    0xf88b_b8a8_724c_81ed,
    0x1b39_896a_51a8_749b,
    0x53cb_9f0c_747e_a2eb,
    0x2c82_9abe_1f45_32e1,
    0xc584_133a_c916_ab3d,
    0x3ee5_7890_41c9_8ac3,
    0xf3b8_488c_368c_b0a7,
    0x657e_ecdd_3cb1_3d09,
    0xc2d3_26e0_055b_def7,
    0x8621_a03f_e0bb_db7b,
];

/// The finaliser's multiplier (2^64 / φ, odd).
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `x` and `k`, its halves XORed.
#[inline(always)]
fn mum(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    p as u64 ^ (p >> 64) as u64
}

impl FlowKey {
    /// The key's fields side by side in 64-bit words, every field bit
    /// on a word bit of its own: words 0–5 are full, word 6 holds
    /// `ip_dscp`, `icmp_type` and `icmp_code`, words 7–10 the IPv6
    /// addresses and word 11 the metadata. The packing only places
    /// bits, so it is injective. Fields sit in the order rustc lays
    /// them out today, so most words are one load; nothing but speed
    /// depends on that.
    #[inline(always)]
    fn words(&self) -> [u64; WORDS] {
        // Exhaustive destructure (no `..`): a field added to `FlowKey`
        // fails to compile here until it is packed.
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
        let [d0, d1, d2, d3, d4, d5] = eth_dst.0;
        let [s0, s1, s2, s3, s4, s5] = eth_src.0;
        // Built as a `u32` of its own, this is one load.
        let op_pcp_proto =
            u32::from(arp_op) | u32::from(vlan_pcp) << 16 | u32::from(ip_proto) << 24;
        [
            u64::from(in_port) | u64::from(op_pcp_proto) << 32,
            u64::from_le_bytes([d0, d1, d2, d3, d4, d5, s0, s1]),
            u64::from(u32::from_le_bytes([s2, s3, s4, s5]))
                | u64::from(eth_type) << 32
                | u64::from(vlan_vid) << 48,
            u64::from(ipv4_src) | u64::from(ipv4_dst) << 32,
            u64::from(tcp_src)
                | u64::from(tcp_dst) << 16
                | u64::from(udp_src) << 32
                | u64::from(udp_dst) << 48,
            u64::from(arp_spa) | u64::from(arp_tpa) << 32,
            u64::from(ip_dscp) | u64::from(icmp_type) << 8 | u64::from(icmp_code) << 16,
            ipv6_src as u64,
            (ipv6_src >> 64) as u64,
            ipv6_dst as u64,
            (ipv6_dst >> 64) as u64,
            metadata,
        ]
    }

    /// The key's 64-bit fingerprint under `seed`, which enters every
    /// word hashed. Equal keys hash equal; a single flipped bit of any
    /// field changes the hash. Not a keyed hash in the cryptographic
    /// sense: see the module docs.
    #[inline]
    pub fn flow_hash64(&self, seed: u64) -> u64 {
        let w = self.words();
        let term = |i: usize| mum(w[i] ^ K[i] ^ seed, K[i]);
        let mut h = term(0) ^ term(1) ^ term(2) ^ term(3) ^ term(4) ^ term(5) ^ term(6);
        if self.ipv6_src | self.ipv6_dst != 0 {
            h ^= term(7) ^ term(8) ^ term(9) ^ term(10);
        }
        if self.metadata != 0 {
            h ^= term(11);
        }
        // A product by a constant keeps structure: a field in a word's
        // top bits hardly moves the product's top bits, and one in its
        // low bits moves them by multiples of the constant. One
        // xorshift-multiply-xorshift spreads every bit over all 64 —
        // the low byte the caches slot by and the top seven bits
        // hashbrown tags with included. Each step is a bijection, so
        // keys collide only where their products' XOR does.
        h ^= h >> 32;
        h = h.wrapping_mul(SPREAD);
        h ^ h >> 29
    }

    /// [`FlowKey::flow_hash64`] folded to 32 bits, seeded with `basis`
    /// (use 0 unless you need distinct hash universes). The datapath's
    /// flow caches index by `flow_hash(0)`.
    #[inline]
    pub fn flow_hash(&self, basis: u32) -> u32 {
        let h = self.flow_hash64(u64::from(basis));
        (h ^ h >> 32) as u32
    }
}

/// RSS-style steering hash over a *raw* frame: a single cheap pass that
/// reads only the bytes a NIC's receive-side-scaling engine would — the
/// IPv4 5-tuple when present, the MAC/EtherType words otherwise — and
/// mixes them with OVS's MurmurHash3 `mhash` rounds.
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
    use crate::vlan::{push_vlan, push_vlan_tpid};
    use crate::{builder, EtherType, MacAddr, VlanTag};
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

    /// A zero seed and one that is not.
    const SEEDS: [u64; 2] = [0, 0x5eed_0fca_11ab_1e57];

    /// Flips bit `b` of one field.
    type Flip = fn(&mut FlowKey, u32);

    /// Every field of a key: its width in bits, and how to flip one of
    /// its bits.
    const FIELDS: [(u32, Flip); 22] = [
        (32, |k, b| k.in_port ^= 1 << b),
        (48, |k, b| k.eth_dst.0[b as usize / 8] ^= 1 << (b % 8)),
        (48, |k, b| k.eth_src.0[b as usize / 8] ^= 1 << (b % 8)),
        (16, |k, b| k.eth_type ^= 1 << b),
        (16, |k, b| k.vlan_vid ^= 1 << b),
        (8, |k, b| k.vlan_pcp ^= 1 << b),
        (8, |k, b| k.ip_proto ^= 1 << b),
        (8, |k, b| k.ip_dscp ^= 1 << b),
        (32, |k, b| k.ipv4_src ^= 1 << b),
        (32, |k, b| k.ipv4_dst ^= 1 << b),
        (128, |k, b| k.ipv6_src ^= 1 << b),
        (128, |k, b| k.ipv6_dst ^= 1 << b),
        (16, |k, b| k.tcp_src ^= 1 << b),
        (16, |k, b| k.tcp_dst ^= 1 << b),
        (16, |k, b| k.udp_src ^= 1 << b),
        (16, |k, b| k.udp_dst ^= 1 << b),
        (8, |k, b| k.icmp_type ^= 1 << b),
        (8, |k, b| k.icmp_code ^= 1 << b),
        (16, |k, b| k.arp_op ^= 1 << b),
        (32, |k, b| k.arp_spa ^= 1 << b),
        (32, |k, b| k.arp_tpa ^= 1 << b),
        (64, |k, b| k.metadata ^= 1 << b),
    ];

    /// Every `(field, bit)` of a key.
    fn field_bits() -> impl Iterator<Item = (usize, u32)> {
        FIELDS
            .iter()
            .enumerate()
            .flat_map(|(f, &(width, _))| (0..width).map(move |b| (f, b)))
    }

    /// `key` with bit `b` of field `f` flipped.
    fn flipped(key: FlowKey, f: usize, b: u32) -> FlowKey {
        let mut k = key;
        FIELDS[f].1(&mut k, b);
        k
    }

    /// Each of a key's 728 field bits sets one word bit, and no two set
    /// the same one; the widths above are the fields' own, since all
    /// ones in every field sets exactly those bits. The packing only
    /// places bits (a key's words are the XOR of its set bits' words),
    /// so no two keys pack alike.
    #[test]
    fn word_packing_is_injective() {
        let zero = FlowKey::default();
        assert_eq!(zero.words(), [0; WORDS]);
        let mut taken = [0u64; WORDS];
        for (f, b) in field_bits() {
            let words = flipped(zero, f, b).words();
            let set: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, 1, "field {f} bit {b} sets {set} word bits");
            for (t, w) in taken.iter_mut().zip(words) {
                assert_eq!(*t & w, 0, "field {f} bit {b} shares a word bit");
                *t |= w;
            }
        }
        assert_eq!(field_bits().count(), 91 * 8);
        assert_eq!(FlowKey::exact_mask().words(), taken);
    }

    /// The key whose packed words equal the constants they are XORed
    /// with, in every bit a field owns (all of words 0–5 and 7–11, the
    /// low 24 bits of word 6): at seed 0 each of those words multiplies
    /// as zero.
    fn key_on_the_constants() -> FlowKey {
        let zero = FlowKey::default();
        let on = |f, b| {
            let words = flipped(zero, f, b).words();
            words.iter().zip(K).any(|(w, k)| w & k != 0)
        };
        field_bits()
            .filter(|&(f, b)| on(f, b))
            .fold(zero, |key, (f, b)| flipped(key, f, b))
    }

    #[test]
    fn flipping_any_bit_of_any_field_changes_the_wide_hash() {
        let on_constants = key_on_the_constants();
        let owned = FlowKey::exact_mask().words();
        for (i, w) in on_constants.words().into_iter().enumerate() {
            assert_eq!(w, K[i] & owned[i], "word {i}");
        }
        for base in [FlowKey::default(), on_constants] {
            for seed in SEEDS {
                let h = base.flow_hash64(seed);
                for (f, b) in field_bits() {
                    assert_ne!(
                        flipped(base, f, b).flow_hash64(seed),
                        h,
                        "field {f} bit {b}, seed {seed:#x}, base {base:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(key(7, 53).flow_hash(0), key(7, 53).flow_hash(0));
        assert_eq!(key(7, 53).flow_hash(9), key(7, 53).flow_hash(9));
        assert_eq!(
            key(7, 53).flow_hash64(SEEDS[1]),
            key(7, 53).flow_hash64(SEEDS[1])
        );
    }

    #[test]
    fn basis_separates_universes() {
        assert_ne!(key(7, 53).flow_hash(0), key(7, 53).flow_hash(1));
        assert_ne!(
            key(7, 53).flow_hash64(SEEDS[0]),
            key(7, 53).flow_hash64(SEEDS[1])
        );
    }

    #[test]
    fn distinct_microflows_spread() {
        // 4096 distinct flows must not collapse: the hash has to put
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
        // The flow caches take a slot from the fingerprint's low bits.
        // `FlowTable` hands its wide hash straight to hashbrown, which
        // takes a bucket from the low bits and a control byte from the
        // top 7. Sequential keys must not land on a few of either.
        let distinct = |hashes: Vec<u64>| hashes.into_iter().collect::<HashSet<_>>().len();
        let families: [fn(u32) -> FlowKey; 2] = [|i| key(i, 53), |i| key(1, i as u16)];
        for (n, family) in families.into_iter().enumerate() {
            let keys: Vec<FlowKey> = (0..256).map(family).collect();
            let low = distinct(
                keys.iter()
                    .map(|k| u64::from(k.flow_hash(0) & 0xff))
                    .collect(),
            );
            assert!(low > 128, "family {n}: only {low} low-byte values");
            for seed in SEEDS {
                let wide = keys.iter().map(|k| k.flow_hash64(seed));
                let low = distinct(wide.clone().map(|h| h & 0xff).collect());
                let top = distinct(wide.map(|h| h >> 57).collect());
                assert!(low > 128, "family {n}, seed {seed:#x}: {low} low bytes");
                assert!(top > 96, "family {n}, seed {seed:#x}: {top} top-7 values");
            }
        }
    }

    #[test]
    fn every_field_is_significant() {
        // The lowest and the highest bit of each of the 22 fields, on a
        // real key, through the datapath's 32-bit fingerprint.
        let base = key(1, 53);
        let h0 = base.flow_hash(0);
        for (f, &(width, _)) in FIELDS.iter().enumerate() {
            for b in [0, width - 1] {
                let h = flipped(base, f, b).flow_hash(0);
                assert_ne!(h, h0, "field {f} bit {b} did not change the hash");
            }
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
        let tagged = push_vlan(&f1, VlanTag::new(101)).expect("taggable");
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

    /// Steering picks the core that serves a flow, so `rss_hash` values
    /// are simulated numbers: these were recorded from the `mhash`
    /// rounds as they stood when the flow-key fingerprint stopped
    /// sharing them, and must not move.
    #[test]
    fn rss_hash_matches_golden_values() {
        let udp = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
            b"payload",
        );
        let tcp = builder::tcp_packet(
            MacAddr::host(3),
            MacAddr::host(4),
            Ipv4Addr::new(10, 0, 1, 3),
            Ipv4Addr::new(10, 0, 2, 4),
            40000,
            80,
            0x02,
            b"",
        );
        let icmp = builder::icmp_echo_request(
            MacAddr::host(5),
            MacAddr::host(6),
            Ipv4Addr::new(10, 0, 0, 5),
            Ipv4Addr::new(10, 0, 0, 6),
            7,
            1,
            b"ping",
        );
        let tagged = push_vlan(&udp, VlanTag::new(101)).unwrap();
        let qinq = push_vlan_tpid(&tagged, VlanTag::new(300), EtherType::QINQ).unwrap();
        let arp = builder::arp_request(
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let golden: [(&str, &[u8], u32); 8] = [
            ("udp", &udp, 0xf100_bc3b),
            ("tcp", &tcp, 0x3c2a_9d7c),
            ("icmp", &icmp, 0x9ea3_3331),
            ("one tag", &tagged, 0xf100_bc3b),
            ("qinq", &qinq, 0xf100_bc3b),
            ("arp", &arp, 0xc2bb_e85a),
            ("runt", &udp[..20], 0x735c_5f22),
            ("empty", &[], 0x1768_42cd),
        ];
        for (name, frame, want) in golden {
            assert_eq!(rss_hash(frame), want, "{name}");
        }
    }
}
