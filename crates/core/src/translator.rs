//! The OpenFlow Translator Component (SS_1 in the paper's Fig. 1).
//!
//! SS_1 is the adaptation layer that keeps controller programs portable:
//! it dispatches packets between the trunk (where access ports appear as
//! VLAN tags) and per-port patch links toward the main OpenFlow switch
//! SS_2, "based on the used VLAN ids". This module generates its flow
//! table.
//!
//! Port conventions on SS_1 (see [`crate::instance`]):
//! * port `1..=n_trunks` — trunk interconnect(s) to the legacy switch,
//! * port `PATCH_BASE + i` — patch link toward SS_2's port `i`.

use openflow::message::FlowMod;
use openflow::{Action, Match};

use crate::portmap::PortMap;

/// First patch port number on SS_1 (trunks occupy the low numbers).
pub const PATCH_BASE: u32 = 100;

/// SS_1 port number of the `i`-th patch link (towards SS_2 port `i`).
pub fn patch_port(access_port: u16) -> u32 {
    PATCH_BASE + u32::from(access_port)
}

/// The trunk, numbered `1..=n_trunks`, that is VLAN `vlan`'s home:
/// `1 + vlan % n_trunks`, which spreads VLANs over the trunks. Every
/// VLAN lives on exactly one trunk — SS_1's upstream rule sends it there
/// and the legacy switch carries it only there — because a VLAN on two
/// parallel trunks would form an L2 loop through the software switches.
pub fn home_trunk(vlan: u16, n_trunks: u16) -> u16 {
    1 + vlan % n_trunks
}

/// Generate SS_1's complete flow table for `map`, with `n_trunks` trunk
/// links (upstream traffic of a VLAN leaves on its [`home_trunk`]).
///
/// Two rule families, exactly the "Flow table of SS_1" in Fig. 1:
/// * downstream (`trunk → patch`): match the access VLAN, pop the tag,
///   output to the patch port;
/// * upstream (`patch → trunk`): push a fresh tag, set the access VLAN,
///   output to the trunk.
pub fn translator_rules(map: &PortMap, n_trunks: u16) -> Vec<FlowMod> {
    assert!(n_trunks >= 1, "need at least one trunk");
    let mut rules = Vec::with_capacity(2 * usize::from(map.n_ports()));
    for (port, vlan) in map.iter() {
        let trunk = u32::from(home_trunk(vlan, n_trunks));
        // Downstream: tagged frames from any trunk to the patch port.
        for t in 1..=n_trunks {
            rules.push(
                FlowMod::add(0)
                    .priority(100)
                    .match_(Match::new().in_port(u32::from(t)).vlan(vlan))
                    .apply(vec![Action::PopVlan, Action::output(patch_port(port))])
                    .cookie(u64::from(vlan)),
            );
        }
        // Upstream: untagged frames from the patch port, tag + trunk.
        rules.push(
            FlowMod::add(0)
                .priority(100)
                .match_(Match::new().in_port(patch_port(port)))
                .apply(vec![
                    Action::PushVlan(0x8100),
                    Action::set_vlan_vid(vlan),
                    Action::output(trunk),
                ])
                .cookie(u64::from(vlan)),
        );
    }
    rules
}

/// Rule count SS_1 needs for `n_ports` access ports over `n_trunks`
/// trunks (capacity planning).
pub fn rule_count(n_ports: u16, n_trunks: u16) -> usize {
    usize::from(n_ports) * (usize::from(n_trunks) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netpkt::vlan::{push_vlan, VlanTag};
    use netpkt::{builder, FlowKey, MacAddr};
    use softswitch::datapath::{Datapath, DpConfig};
    use softswitch::BatchResult;
    use std::net::Ipv4Addr;

    /// One frame as a batch of its own into a fresh arena: frame 0 of
    /// the result is the frame.
    fn run_one(dp: &mut Datapath, in_port: u32, frame: Bytes, now_ns: u64) -> BatchResult {
        let mut out = BatchResult::default();
        dp.process_batch_into(
            &mut [(in_port, frame)].into_iter().collect(),
            now_ns,
            &mut out,
        );
        out
    }

    fn frame() -> Bytes {
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

    fn ss1_for(n_ports: u16) -> Datapath {
        let map = PortMap::with_defaults(n_ports).unwrap();
        let mut dp = Datapath::new(DpConfig::software(0x51));
        dp.add_port(1, "trunk0", 10_000_000);
        for p in 1..=n_ports {
            dp.add_port(patch_port(p), format!("patch{p}"), 10_000_000);
        }
        for fm in translator_rules(&map, 1) {
            dp.apply_flow_mod(&fm, 0).unwrap();
        }
        dp
    }

    #[test]
    fn rule_count_matches() {
        let map = PortMap::with_defaults(48).unwrap();
        assert_eq!(translator_rules(&map, 1).len(), rule_count(48, 1));
        assert_eq!(translator_rules(&map, 2).len(), rule_count(48, 2));
        assert_eq!(rule_count(48, 1), 96);
    }

    #[test]
    fn downstream_pops_and_dispatches() {
        let mut dp = ss1_for(4);
        // VLAN 103 (access port 3) arrives on the trunk.
        let tagged = push_vlan(&frame(), VlanTag::new(103)).unwrap();
        let r = run_one(&mut dp, 1, tagged, 0);
        assert_eq!(r.outputs_of(0).len(), 1);
        assert_eq!(r.outputs_of(0)[0].0, patch_port(3));
        let key = FlowKey::extract(0, &r.outputs_of(0)[0].1).unwrap();
        assert_eq!(key.vlan_vid, 0, "tag must be removed toward SS_2");
        assert_eq!(key.udp_dst, 53);
    }

    #[test]
    fn upstream_tags_and_trunks() {
        let mut dp = ss1_for(4);
        // SS_2 hairpins a packet out its port 2 -> SS_1 patch port 102.
        let r = run_one(&mut dp, patch_port(2), frame(), 0);
        assert_eq!(r.outputs_of(0).len(), 1);
        assert_eq!(r.outputs_of(0)[0].0, 1, "must leave via the trunk");
        let key = FlowKey::extract(0, &r.outputs_of(0)[0].1).unwrap();
        assert_eq!(key.vlan(), netpkt::flowkey::VlanKey::Tagged(102));
    }

    #[test]
    fn round_trip_is_identity_on_the_frame() {
        let mut dp = ss1_for(4);
        let orig = frame();
        let tagged = push_vlan(&orig, VlanTag::new(101)).unwrap();
        let down = run_one(&mut dp, 1, tagged, 0);
        let at_patch = down.outputs_of(0)[0].1.clone();
        assert_eq!(&at_patch[..], &orig[..], "SS_2 must see the original frame");
        // Hairpin back through the same port pair.
        let up = run_one(&mut dp, patch_port(1), at_patch, 1);
        let back_on_trunk = &up.outputs_of(0)[0].1;
        let key = FlowKey::extract(0, back_on_trunk).unwrap();
        assert_eq!(key.vlan(), netpkt::flowkey::VlanKey::Tagged(101));
    }

    #[test]
    fn unknown_vlan_is_dropped() {
        let mut dp = ss1_for(4);
        let tagged = push_vlan(&frame(), VlanTag::new(999)).unwrap();
        let r = run_one(&mut dp, 1, tagged, 0);
        assert!(r.frame(0).dropped, "VLANs outside the map must not leak");
    }

    #[test]
    fn untagged_trunk_traffic_is_dropped() {
        let mut dp = ss1_for(4);
        let r = run_one(&mut dp, 1, frame(), 0);
        assert!(r.frame(0).dropped, "the trunk only carries tagged traffic");
    }

    #[test]
    fn multi_trunk_spreads_upstream_load() {
        let map = PortMap::with_defaults(8).unwrap();
        let rules = translator_rules(&map, 2);
        assert_eq!(rules.len(), rule_count(8, 2));
        let mut dp = Datapath::new(DpConfig::software(0x51));
        dp.add_port(1, "trunk0", 10_000_000);
        dp.add_port(2, "trunk1", 10_000_000);
        for p in 1..=8 {
            dp.add_port(patch_port(p), format!("patch{p}"), 10_000_000);
        }
        for fm in &rules {
            dp.apply_flow_mod(fm, 0).unwrap();
        }
        let mut trunks_used = std::collections::HashSet::new();
        for p in 1..=8u16 {
            let r = run_one(&mut dp, patch_port(p), frame(), 0);
            trunks_used.insert(r.outputs_of(0)[0].0);
        }
        assert_eq!(
            trunks_used.len(),
            2,
            "both trunks must carry upstream traffic"
        );
        // Downstream works from either trunk.
        let tagged = push_vlan(&frame(), VlanTag::new(105)).unwrap();
        for trunk in [1u32, 2] {
            let r = run_one(&mut dp, trunk, tagged.clone(), 0);
            assert_eq!(r.outputs_of(0)[0].0, patch_port(5));
        }
    }
}
