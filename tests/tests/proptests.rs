//! Property-based tests over the workspace's codecs and core invariants.
//!
//! Three families:
//! * round-trip properties (encode ∘ decode = id) for OpenFlow, SNMP/BER
//!   and packet formats;
//! * fuzz-decode safety (arbitrary bytes never panic, only error);
//! * semantic invariants (cache result = slow-path result, translator
//!   bijectivity, flow-table priority order).

use bytes::Bytes;
use harmless_tests::run_one;
use proptest::prelude::*;
use std::net::Ipv6Addr;

use netpkt::vlan::{pop_vlan, push_vlan, VlanTag};
use netpkt::{builder, FlowKey, MacAddr};
use openflow::message::{FlowMod, Message};
use openflow::{Action, Match, OxmField};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use softswitch::{BatchResult, FrameBatch};

/// One batched call into a fresh result arena.
fn run_batch(dp: &mut Datapath, batch: &mut FrameBatch, now_ns: u64) -> BatchResult {
    let mut out = BatchResult::default();
    dp.process_batch_into(batch, now_ns, &mut out);
    out
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ipv4() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

fn arb_oxm_field() -> impl Strategy<Value = OxmField> {
    prop_oneof![
        (1u32..48).prop_map(OxmField::InPort),
        (any::<u64>(), any::<Option<u64>>()).prop_map(|(v, m)| OxmField::Metadata(v, m)),
        (arb_mac(), proptest::option::of(arb_mac())).prop_map(|(v, m)| OxmField::EthDst(v, m)),
        (arb_mac(), proptest::option::of(arb_mac())).prop_map(|(v, m)| OxmField::EthSrc(v, m)),
        any::<u16>().prop_map(OxmField::EthType),
        (0u16..4096).prop_map(|v| OxmField::VlanVid(0x1000 | v, None)),
        (0u8..8).prop_map(OxmField::VlanPcp),
        any::<u8>().prop_map(OxmField::IpProto),
        (arb_ipv4(), proptest::option::of(arb_ipv4())).prop_map(|(v, m)| OxmField::Ipv4Src(v, m)),
        (arb_ipv4(), proptest::option::of(arb_ipv4())).prop_map(|(v, m)| OxmField::Ipv4Dst(v, m)),
        any::<u16>().prop_map(OxmField::TcpSrc),
        any::<u16>().prop_map(OxmField::TcpDst),
        any::<u16>().prop_map(OxmField::UdpSrc),
        any::<u16>().prop_map(OxmField::UdpDst),
        any::<u8>().prop_map(OxmField::Icmpv4Type),
        (any::<u16>()).prop_map(OxmField::ArpOp),
        (arb_ipv4(), proptest::option::of(arb_ipv4())).prop_map(|(v, m)| OxmField::ArpSpa(v, m)),
        (any::<u128>(), proptest::option::of(any::<u128>()))
            .prop_map(|(v, m)| OxmField::Ipv6Src(v.into(), m.map(Ipv6Addr::from))),
    ]
}

fn arb_match() -> impl Strategy<Value = Match> {
    proptest::collection::vec(arb_oxm_field(), 0..6)
        .prop_map(|fields| fields.into_iter().fold(Match::new(), |m, f| m.with(f)))
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..48).prop_map(Action::output),
        Just(Action::to_controller()),
        any::<u32>().prop_map(Action::Group),
        any::<u32>().prop_map(Action::SetQueue),
        Just(Action::PushVlan(0x8100)),
        Just(Action::PushVlan(0x88a8)),
        Just(Action::PopVlan),
        (0u16..4095).prop_map(Action::set_vlan_vid),
        arb_mac().prop_map(|m| Action::SetField(OxmField::EthDst(m, None))),
        arb_ipv4().prop_map(|a| Action::SetField(OxmField::Ipv4Dst(a, None))),
    ]
}

/// Groups the cache ≡ uncached property installs (ids `0..GROUPS`).
const GROUPS: usize = 3;

/// An action the datapath executes on the frame itself: outputs,
/// punts, and rewrites whose values later tables can match on.
fn arb_exec_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..5).prop_map(Action::output),
        (1u32..5).prop_map(Action::output),
        Just(Action::to_controller()),
        Just(Action::PushVlan(0x8100)),
        Just(Action::PopVlan),
        (1u16..4).prop_map(Action::set_vlan_vid),
        (0u32..4).prop_map(|h| Action::SetField(OxmField::EthDst(MacAddr::host(h), None))),
        (0u32..4).prop_map(|h| Action::SetField(OxmField::EthSrc(MacAddr::host(h), None))),
        arb_ipv4().prop_map(|a| Action::SetField(OxmField::Ipv4Dst(a, None))),
        (0u16..8).prop_map(|p| Action::SetField(OxmField::UdpDst(p))),
    ]
}

/// An apply-actions list: frame actions interleaved with groups, so
/// buckets are followed by trailing actions.
fn arb_program() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            arb_exec_action(),
            arb_exec_action(),
            (0..GROUPS as u32).prop_map(Action::Group),
        ],
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn of_match_round_trips(m in arb_match()) {
        let mut buf = bytes::BytesMut::new();
        m.encode(&mut buf);
        let mut s = &buf[..];
        let got = Match::decode(&mut s).unwrap();
        prop_assert!(s.is_empty());
        prop_assert_eq!(got, m);
    }

    #[test]
    fn of_flow_mod_round_trips(
        m in arb_match(),
        actions in proptest::collection::vec(arb_action(), 0..5),
        priority in any::<u16>(),
        cookie in any::<u64>(),
        idle in any::<u16>(),
        hard in any::<u16>(),
        xid in any::<u32>(),
    ) {
        let fm = FlowMod::add(0)
            .priority(priority)
            .match_(m)
            .apply(actions)
            .timeouts(idle, hard)
            .cookie(cookie);
        let wire = Message::FlowMod(fm.clone()).encode(xid);
        let (got_xid, got, used) = Message::decode(&wire).unwrap();
        prop_assert_eq!(got_xid, xid);
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(got, Message::FlowMod(fm));
    }

    #[test]
    fn of_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&data); // must not panic
    }

    #[test]
    fn snmp_message_round_trips(
        community in "[a-z]{1,12}",
        request_id in any::<i64>(),
        // X.690 §8.19: arc1 ∈ {0,1,2}; arc2 < 40 unless arc1 == 2. Keep
        // the generator inside the standard — OIDs like 0.40 are
        // inherently ambiguous on the wire.
        arc1 in 0u32..3,
        arc2 in 0u32..40,
        rest in proptest::collection::vec(0u32..100_000, 0..10),
        int_val in any::<i64>(),
        bytes_val in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use mgmt::pdu::{Pdu, PduType, SnmpMessage, Value};
        let mut arcs = vec![arc1, arc2];
        arcs.extend(rest);
        let oid = mgmt::Oid(arcs);
        let msg = SnmpMessage::new(
            community,
            Pdu::request(
                PduType::Set,
                request_id,
                vec![
                    (oid.clone(), Value::Integer(int_val)),
                    (oid.child(1), Value::OctetString(bytes_val)),
                    (oid.child(2), Value::Counter64(int_val as u64)),
                ],
            ),
        );
        let wire = msg.encode();
        prop_assert_eq!(SnmpMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn snmp_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = mgmt::SnmpMessage::decode(&data); // must not panic
    }

    #[test]
    fn flowkey_extract_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = FlowKey::extract_lossy(1, &data); // must not panic
    }

    #[test]
    fn vlan_push_pop_identity(
        src in any::<u32>(),
        dst in any::<u32>(),
        vid in 1u16..4095,
        payload_len in 0usize..512,
    ) {
        let frame = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(dst),
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::from(dst),
            1,
            2,
            &vec![0u8; payload_len],
        );
        let tagged = push_vlan(&frame, VlanTag::new(vid)).unwrap();
        let key = FlowKey::extract(1, &tagged).unwrap();
        prop_assert_eq!(key.vlan_vid, 0x1000 | vid);
        let popped = pop_vlan(&tagged).unwrap();
        prop_assert_eq!(&popped[..], &frame[..]);
    }

    #[test]
    fn masking_is_idempotent_and_monotone(
        src in any::<u32>(),
        dport in any::<u16>(),
    ) {
        let frame = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(2),
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dport,
            b"x",
        );
        let key = FlowKey::extract(1, &frame).unwrap();
        let mut mask = FlowKey::empty_mask();
        mask.ipv4_src = 0xffff_0000;
        mask.udp_dst = u16::MAX;
        let m1 = key.masked(&mask);
        prop_assert_eq!(m1.masked(&mask), m1, "masking twice = masking once");
        // Union with another mask only preserves or adds bits.
        let mut mask2 = FlowKey::empty_mask();
        mask2.eth_type = u16::MAX;
        let u = mask.mask_union(&mask2);
        prop_assert_eq!(key.masked(&u).masked(&mask), m1);
    }

    /// The cache hierarchy must be semantically invisible: for any mix of
    /// rules, groups and packets, `full` mode emits exactly the bytes,
    /// packet-ins, drop decisions and execution-side trace counters of
    /// `linear` mode — and a repeated frame (served from a cache in
    /// `full` mode) exactly those of its first occurrence.
    #[test]
    fn caches_preserve_forwarding_semantics(
        groups in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(
                proptest::collection::vec(arb_exec_action(), 1..4), 1..4)),
            GROUPS..GROUPS + 1),
        rules in proptest::collection::vec(
            (0u16..8, any::<bool>(), arb_program(),
             proptest::collection::vec(arb_exec_action(), 0..3), any::<bool>()),
            1..12),
        next_rules in proptest::collection::vec((0u16..8, arb_program()), 0..4),
        packets in proptest::collection::vec((0u32..4, 0u16..8, any::<bool>()), 1..40),
    ) {
        use openflow::Instruction;
        let build = |mode: PipelineMode| {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
            for p in 1..=4 {
                dp.add_port(p, format!("p{p}"), 1_000_000);
            }
            for (gid, (type_sel, buckets)) in groups.iter().enumerate() {
                let type_ = [
                    openflow::GroupType::All,
                    openflow::GroupType::Select,
                    openflow::GroupType::Indirect,
                ][*type_sel];
                let n = if type_ == openflow::GroupType::Indirect { 1 } else { buckets.len() };
                let buckets = buckets[..n].iter().cloned().map(openflow::Bucket::new).collect();
                dp.apply_group_mod(
                    openflow::group::GroupModCommand::Add, type_, gid as u32, buckets,
                ).unwrap();
            }
            let udp = |dport| Match::new().eth_type(0x0800).ip_proto(17).udp_dst(dport);
            // Table-0 rules name the tag state they serve: the frame
            // parser sees through two tags, so whether an L3/L4 rewrite
            // after a push still applies depends on the ingress tag
            // depth, which a megaflow can only tell apart by `vlan_vid`.
            for (i, (dport, tagged, apply, write, goto)) in rules.iter().enumerate() {
                let m = if *tagged { udp(*dport).vlan(7) } else { udp(*dport).untagged() };
                let mut insns = vec![Instruction::ApplyActions(apply.clone())];
                if !write.is_empty() {
                    insns.push(Instruction::WriteActions(write.clone()));
                }
                if *goto {
                    insns.push(Instruction::GotoTable(1));
                }
                dp.apply_flow_mod(
                    &FlowMod::add(0)
                        .priority(10 + (i % 3) as u16)
                        .match_(m)
                        .instructions(insns),
                    0,
                ).unwrap();
            }
            for (dport, apply) in &next_rules {
                dp.apply_flow_mod(
                    &FlowMod::add(1).priority(10).match_(udp(*dport)).apply(apply.clone()),
                    0,
                ).unwrap();
            }
            dp
        };
        // What a cache level must not change about one frame's service.
        let observe = |r: BatchResult| {
            let t = r.frame(0).trace.expect("datapath traces every frame");
            (r.outputs_of(0).to_vec(), r.packet_ins_of(0).to_vec(), r.frame(0).dropped,
             (t.vlan_ops, t.set_fields, t.outputs, t.packet_in))
        };
        let mut slow = build(PipelineMode::linear());
        let mut fast = build(PipelineMode::full());
        for (i, &(src, dport, tagged)) in packets.iter().enumerate() {
            let frame: Bytes = builder::udp_packet(
                MacAddr::host(src),
                MacAddr::host(2),
                std::net::Ipv4Addr::from(0x0a00_0000 + src),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                1000,
                dport,
                b"x",
            );
            let frame = if tagged { push_vlan(&frame, VlanTag::new(7)).unwrap() } else { frame };
            let now = i as u64;
            let reference = observe(run_one(&mut slow, 1, frame.clone(), now));
            prop_assert_eq!(&observe(run_one(&mut slow, 1, frame.clone(), now)), &reference,
                "packet {}: linear, repeated", i);
            prop_assert_eq!(&observe(run_one(&mut fast, 1, frame.clone(), now)), &reference,
                "packet {}: full, first", i);
            prop_assert_eq!(&observe(run_one(&mut fast, 1, frame, now)), &reference,
                "packet {}: full, repeated", i);
        }
    }

    /// The batched fast path must be semantically invisible: for any mix
    /// of rules, pipeline mode and packet sequence, one batch of N
    /// frames produces exactly the outputs, packet-ins, drop decisions
    /// and traces of N batches of one frame each, in the same per-frame
    /// order.
    #[test]
    fn process_batch_equals_sequential_process(
        rules in proptest::collection::vec((0u16..16, 1u32..4), 1..16),
        packets in proptest::collection::vec((0u32..6, 0u16..16), 1..80),
        mode_sel in 0usize..3,
        with_miss_to_controller in any::<bool>(),
    ) {
        let mode = [
            PipelineMode::linear(),
            PipelineMode::tss(),
            PipelineMode::full(),
        ][mode_sel];
        let build = || {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
            for p in 1..=4 {
                dp.add_port(p, format!("p{p}"), 1_000_000);
            }
            for (i, &(dport, out)) in rules.iter().enumerate() {
                dp.apply_flow_mod(
                    &FlowMod::add(0)
                        .priority(10 + (i % 3) as u16)
                        .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(dport))
                        .apply(vec![Action::output(out)]),
                    0,
                ).unwrap();
            }
            if with_miss_to_controller {
                dp.apply_flow_mod(
                    &FlowMod::add(0).priority(0).apply(vec![Action::to_controller()]),
                    0,
                ).unwrap();
            }
            dp
        };
        let frame = |&(src, dport): &(u32, u16)| -> Bytes {
            builder::udp_packet(
                MacAddr::host(src),
                MacAddr::host(2),
                std::net::Ipv4Addr::from(src),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                1000,
                dport,
                b"x",
            )
        };
        let now = 5u64;
        let mut seq_dp = build();
        let sequential: Vec<_> = packets
            .iter()
            .map(|p| run_one(&mut seq_dp, 1, frame(p), now))
            .collect();
        let mut batch_dp = build();
        let mut batch: FrameBatch = packets.iter().map(|p| (1u32, frame(p))).collect();
        let batched = run_batch(&mut batch_dp, &mut batch, now);
        prop_assert_eq!(batched.len(), sequential.len());
        for (i, s) in sequential.iter().enumerate() {
            prop_assert_eq!(s.outputs_of(0), batched.outputs_of(i), "outputs of packet {}", i);
            prop_assert_eq!(s.packet_ins_of(0), batched.packet_ins_of(i),
                "packet-ins of packet {}", i);
            prop_assert_eq!(s.frame(0).dropped, batched.frame(i).dropped,
                "drop decision of packet {}", i);
            prop_assert_eq!(s.frame(0).trace, batched.frame(i).trace, "trace of packet {}", i);
        }
        // Aggregate state agrees too: every frame was processed, every
        // cache layer and flow counter saw identical traffic.
        prop_assert_eq!(seq_dp.stats(), batch_dp.stats());
        prop_assert_eq!(
            seq_dp.table(0).unwrap().entries().iter().map(|e| e.packets).collect::<Vec<_>>(),
            batch_dp.table(0).unwrap().entries().iter().map(|e| e.packets).collect::<Vec<_>>()
        );
    }

    /// Copy-on-write equivalence for frame-rewriting actions: batched
    /// service of interleaved VLAN-push, VLAN-pop and pure-forward flows
    /// produces byte-identical frames to one-frame batches, and a flow's
    /// rewrite never leaks into a neighbouring frame that shares the
    /// same backing storage (the CoW copy must be private).
    #[test]
    fn vlan_rewrite_batch_equals_sequential_process(
        packets in proptest::collection::vec((0u32..6, 0u16..3), 1..60),
    ) {
        use netpkt::VlanTag;
        // The UDP destination port selects the treatment: 0 → push a
        // tag, 1 → pure forward (never copied), 2 → arrives tagged and
        // gets the tag popped.
        let build = || {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::full()));
            for p in 1..=4 {
                dp.add_port(p, format!("p{p}"), 1_000_000);
            }
            dp.apply_flow_mod(
                &FlowMod::add(0)
                    .priority(10)
                    .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(0))
                    .apply(vec![
                        Action::PushVlan(0x8100),
                        Action::set_vlan_vid(100),
                        Action::output(2),
                    ]),
                0,
            ).unwrap();
            dp.apply_flow_mod(
                &FlowMod::add(0)
                    .priority(10)
                    .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(1))
                    .apply(vec![Action::output(3)]),
                0,
            ).unwrap();
            dp.apply_flow_mod(
                &FlowMod::add(0)
                    .priority(5)
                    .apply(vec![Action::PopVlan, Action::output(4)]),
                0,
            ).unwrap();
            dp
        };
        let frame = |&(src, dport): &(u32, u16)| -> Bytes {
            let f = builder::udp_packet(
                MacAddr::host(src),
                MacAddr::host(2),
                std::net::Ipv4Addr::from(src),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                1000,
                dport,
                b"vlan",
            );
            if dport == 2 {
                netpkt::vlan::push_vlan(&f, VlanTag::new(101)).unwrap()
            } else {
                f
            }
        };
        let now = 3u64;
        let mut seq_dp = build();
        let sequential: Vec<_> = packets
            .iter()
            .map(|p| run_one(&mut seq_dp, 1, frame(p), now))
            .collect();
        let mut batch_dp = build();
        let originals: Vec<Bytes> = packets.iter().map(frame).collect();
        let mut batch: FrameBatch = originals.iter().map(|f| (1u32, f.clone())).collect();
        let batched = run_batch(&mut batch_dp, &mut batch, now);
        prop_assert_eq!(batched.len(), sequential.len());
        for (i, s) in sequential.iter().enumerate() {
            prop_assert_eq!(s.outputs_of(0), batched.outputs_of(i),
                "rewritten frames of packet {}", i);
            prop_assert_eq!(s.frame(0).dropped, batched.frame(i).dropped,
                "drop decision of packet {}", i);
            prop_assert_eq!(s.frame(0).trace, batched.frame(i).trace, "trace of packet {}", i);
        }
        // CoW isolation: the ingress frames the batch shared storage
        // with are bit-for-bit what was submitted.
        for (i, (orig, p)) in originals.iter().zip(&packets).enumerate() {
            prop_assert_eq!(orig, &frame(p), "ingress frame {} was mutated in place", i);
        }
        prop_assert_eq!(seq_dp.stats(), batch_dp.stats());
    }

    /// Translator invariant: any packet entering tagged with a mapped
    /// VLAN exits untagged on the right patch port, and vice versa.
    #[test]
    fn translator_is_a_bijection(
        port in 1u16..48,
        src in any::<u32>(),
    ) {
        let map = harmless::PortMap::with_defaults(48).unwrap();
        let mut dp = Datapath::new(DpConfig::software(0x51));
        dp.add_port(1, "trunk", 10_000_000);
        for p in 1..=48u16 {
            dp.add_port(harmless::translator::patch_port(p), format!("patch{p}"), 10_000_000);
        }
        for fm in harmless::translator::translator_rules(&map, 1) {
            dp.apply_flow_mod(&fm, 0).unwrap();
        }
        let vlan = map.vlan_of(port).unwrap();
        let frame = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(2),
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            b"x",
        );
        // Down: trunk → patch(port), untagged.
        let tagged = push_vlan(&frame, VlanTag::new(vlan)).unwrap();
        let down = run_one(&mut dp, 1, tagged, 0);
        prop_assert_eq!(down.outputs_of(0).len(), 1);
        prop_assert_eq!(down.outputs_of(0)[0].0, harmless::translator::patch_port(port));
        prop_assert_eq!(&down.outputs_of(0)[0].1[..], &frame[..]);
        // Up: patch(port) → trunk, tagged with the same VLAN.
        let up = run_one(&mut dp, harmless::translator::patch_port(port), frame, 1);
        prop_assert_eq!(up.outputs_of(0).len(), 1);
        prop_assert_eq!(up.outputs_of(0)[0].0, 1);
        let key = FlowKey::extract(1, &up.outputs_of(0)[0].1).unwrap();
        prop_assert_eq!(key.vlan_vid, 0x1000 | vlan);
    }

    /// Cross-pod forwarding equivalence: traffic between hosts in
    /// different pods arrives with identical application-visible content
    /// whether the network is plain legacy L2 (factory switches behind a
    /// spine, `Legacy`-direct) or a HARMLESS fabric (VLAN hairpinning,
    /// translators and a reactive SDN learning path). The retrofit must
    /// be invisible above L2.
    #[test]
    fn cross_pod_harmless_equals_legacy_direct(
        src_port in 1u16..5,
        dst_port in 1u16..5,
        dport in 1u16..1024,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        use harmless::fabric::{FabricSpec, Interconnect};
        use harmless::instance::HarmlessSpec;
        use netsim::host::Host;
        use netsim::{LinkSpec, Network, PortId, SimTime};

        let deliver = |net: &mut Network, a: netsim::NodeId, b: netsim::NodeId,
                       dst_ip: std::net::Ipv4Addr, dport: u16, payload: &[u8]| {
            net.run_until(SimTime::from_millis(100));
            let p = payload.to_vec();
            net.with_node_ctx::<Host, _>(a, move |h, ctx| {
                h.send_udp(dst_ip, dport, &p);
                h.ping(b"equivalence", dst_ip);
                h.flush(ctx);
            });
            net.run_until(SimTime::from_millis(600));
            let replies = net.node_ref::<Host>(a).echo_replies_received();
            let mail: Vec<(std::net::Ipv4Addr, u16, u16, Vec<u8>)> = net
                .node_ref::<Host>(b)
                .mailbox()
                .iter()
                .map(|d| (d.src_ip, d.src_port, d.dst_port, d.payload.to_vec()))
                .collect();
            (replies, mail)
        };

        // World 1: the HARMLESS fabric, SDN-controlled.
        let (harmless_replies, harmless_mail) = {
            let mut net = Network::new(4242);
            let ctrl = net.add_node(controller::ControllerNode::new(
                "ctrl",
                vec![Box::new(controller::apps::LearningSwitch::new())],
            ));
            let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
                .with_interconnect(Interconnect::SpineLegacy)
                .build(&mut net)
                .expect("valid fabric spec");
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let a = fx.attach_host(&mut net, 0, src_port).expect("free port");
            let b = fx.attach_host(&mut net, 1, dst_port).expect("free port");
            let dst_ip = fx.host_ip(1, dst_port);
            deliver(&mut net, a, b, dst_ip, dport, &payload)
        };

        // World 2: the same stations on plain factory-default legacy
        // switches behind the same spine — no VLANs, no SDN.
        let (legacy_replies, legacy_mail) = {
            let mut net = Network::new(4242);
            let sw0 = net.add_node(legacy_switch::LegacySwitchNode::new("sw0", 5));
            let sw1 = net.add_node(legacy_switch::LegacySwitchNode::new("sw1", 5));
            let spine = net.add_node(legacy_switch::LegacySwitchNode::new("spine", 2));
            net.connect(sw0, PortId(5), spine, PortId(1), LinkSpec::ten_gigabit());
            net.connect(sw1, PortId(5), spine, PortId(2), LinkSpec::ten_gigabit());
            // Identical station identities to the fabric world.
            let a = net.add_node(Host::new(
                "a",
                MacAddr::host(u32::from(src_port)),
                std::net::Ipv4Addr::new(10, 0, 0, src_port as u8),
            ));
            let b = net.add_node(Host::new(
                "b",
                MacAddr::host(1 << 16 | u32::from(dst_port)),
                std::net::Ipv4Addr::new(10, 1, 0, dst_port as u8),
            ));
            net.connect(a, PortId(0), sw0, PortId(src_port), LinkSpec::gigabit());
            net.connect(b, PortId(0), sw1, PortId(dst_port), LinkSpec::gigabit());
            let dst_ip = std::net::Ipv4Addr::new(10, 1, 0, dst_port as u8);
            deliver(&mut net, a, b, dst_ip, dport, &payload)
        };

        prop_assert_eq!(harmless_replies, 1, "fabric ping must complete");
        prop_assert_eq!(legacy_replies, 1, "legacy ping must complete");
        prop_assert_eq!(harmless_mail, legacy_mail,
            "datagrams must arrive identically in both worlds");
    }

    /// The sharded conservative engine is an *engine*, not a model: on
    /// any random small fabric with arbitrary ping traffic it must
    /// reproduce the classic single-queue loop's per-pod observable
    /// state — per-host reply/answer/rx counters, controller totals and
    /// the processed event count — for any thread count.
    #[test]
    fn sharded_engine_equals_single_queue_engine(
        n_pods in 1u16..=3,
        n_ports in 2u16..=4,
        ic_pick in 0u8..3,
        threads in 1usize..=4,
        pings in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()),
            1..6,
        ),
    ) {
        use harmless::fabric::{FabricSpec, Interconnect};
        use harmless::instance::HarmlessSpec;
        use netsim::host::Host;
        use netsim::{Network, NodeId, SimTime};

        let run = |threads: Option<usize>| -> (Vec<(u64, u64, u64)>, u64, u64, u64) {
            let mut net = Network::new(2026);
            let ctrl = net.add_node(controller::ControllerNode::new(
                "ctrl",
                vec![Box::new(controller::apps::LearningSwitch::new())],
            ));
            let ic = if n_pods == 1 {
                Interconnect::None
            } else {
                match ic_pick {
                    0 => Interconnect::Line,
                    1 => Interconnect::SpineSoft,
                    _ => Interconnect::SpineLegacy,
                }
            };
            let mut fx = FabricSpec::new(n_pods, HarmlessSpec::new(n_ports))
                .with_interconnect(ic)
                .build(&mut net)
                .expect("valid fabric spec");
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let mut hosts: Vec<NodeId> = Vec::new();
            for p in 0..usize::from(n_pods) {
                for i in 1..=n_ports {
                    hosts.push(fx.attach_host(&mut net, p, i).expect("free port"));
                }
            }
            if let Some(t) = threads {
                net.set_shards(&fx.shard_map());
                net.set_threads(t);
            }
            net.run_until(SimTime::from_millis(100));
            // Arbitrary (src, dst) ping pairs, staggered 50 µs apart.
            for (k, &(sp, spo, dp, dpo)) in pings.iter().enumerate() {
                let src_pod = usize::from(sp) % usize::from(n_pods);
                let src_port = 1 + spo % n_ports;
                let dst_pod = usize::from(dp) % usize::from(n_pods);
                let dst_port = 1 + dpo % n_ports;
                let h = hosts[src_pod * usize::from(n_ports) + usize::from(src_port) - 1];
                let target = fx.host_ip(dst_pod, dst_port);
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(format!("p{k}").as_bytes(), target);
                    h.flush(ctx);
                });
                net.run_for(SimTime::from_micros(50));
            }
            net.run_until(SimTime::from_millis(700));
            let per_host: Vec<(u64, u64, u64)> = hosts
                .iter()
                .map(|&h| {
                    let host = net.node_ref::<Host>(h);
                    (
                        host.echo_replies_received(),
                        host.echo_requests_answered(),
                        host.rx_frames(),
                    )
                })
                .collect();
            let c = net.node_ref::<controller::ControllerNode>(ctrl);
            (per_host, c.packet_ins(), c.flow_mods_sent(), net.events_processed())
        };

        let legacy = run(None);
        let sharded = run(Some(threads));
        prop_assert_eq!(&legacy.0, &sharded.0, "per-host observables diverged");
        prop_assert_eq!(legacy.1, sharded.1, "packet-in counts diverged");
        prop_assert_eq!(legacy.2, sharded.2, "flow-mod counts diverged");
        prop_assert_eq!(legacy.3, sharded.3, "event counts diverged");
        // Pings to other hosts must actually complete (self-pings cannot
        // resolve ARP and legitimately stay pending).
        let total: u64 = legacy.0.iter().map(|h| h.0).sum();
        let self_pings = pings.iter().filter(|&&(sp, spo, dp, dpo)| {
            usize::from(sp) % usize::from(n_pods) == usize::from(dp) % usize::from(n_pods)
                && spo % n_ports == dpo % n_ports
        }).count() as u64;
        prop_assert!(
            total + self_pings >= pings.len() as u64,
            "pings lost: {} replies + {} self of {}",
            total, self_pings, pings.len()
        );
    }

    /// Bridge invariant: frames never exit their ingress port and never
    /// leave their VLAN.
    #[test]
    fn bridge_isolation_invariant(
        in_port in 1u16..9,
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let mut bridge = legacy_switch::Bridge::new(9);
        for p in 1..=4u16 {
            bridge.make_access_port(p, 100 + p).unwrap();
        }
        bridge.make_trunk_port(9, &[101, 102, 103, 104]).unwrap();
        let frame = builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(dst),
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::from(dst),
            1,
            2,
            b"x",
        );
        let out = bridge.forward(in_port, &frame, 0);
        for (p, f) in &out.outputs {
            prop_assert_ne!(*p, in_port, "no hairpin to ingress");
            if out.vlan >= 101 && out.vlan <= 104 {
                // Members of per-port VLANs: only the access port + trunk.
                let access = (out.vlan - 100) as u16;
                prop_assert!(*p == access || *p == 9, "port {} outside VLAN {}", p, out.vlan);
            }
            // Egress tagging discipline: per-port VLANs leave the trunk
            // tagged and access ports untagged. (The factory VLAN 1 is
            // untagged everywhere, including the trunk, so it is exempt.)
            let tag = netpkt::vlan::outer_tag(f);
            if (101..=104).contains(&out.vlan) {
                if *p == 9 {
                    prop_assert!(tag.is_some());
                } else {
                    prop_assert!(tag.is_none());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// OpenFlow wire codec: the bytes every message encodes to, and decoder
// totality under structure-aware mutation (beside the random-bytes
// `of_decoder_never_panics` above).
// ---------------------------------------------------------------------

use openflow::group::GroupModCommand;
use openflow::message::{
    ControllerRole, FlowStatsEntry, MultipartReq, MultipartRes, PacketInReason, PortDesc,
    PortStatsEntry, TableStatsEntry,
};
use openflow::meter::MeterModCommand;
use openflow::{Bucket, GroupType, Instruction, MeterBand, NatDir};

/// One message of every type and multipart kind — the round-trip
/// samples of `openflow::message`'s unit tests — plus a flow-mod and a
/// two-entry flow-stats reply that carry every action, every
/// instruction and every OXM field the codec writes, masked where a
/// mask exists.
fn of_samples() -> Vec<(&'static str, Message)> {
    use std::net::Ipv4Addr;
    let sample_match = Match::new()
        .in_port(1)
        .eth_type(0x0800)
        .ipv4_dst(Ipv4Addr::new(10, 0, 0, 9));
    let every_field = [
        OxmField::InPort(3),
        OxmField::Metadata(0xdead_beef, Some(0xffff_ffff)),
        OxmField::EthDst(MacAddr::host(5), Some(MacAddr([0xff, 0xff, 0, 0, 0, 0]))),
        OxmField::EthSrc(MacAddr::host(6), None),
        OxmField::EthType(0x0800),
        OxmField::VlanVid(0x1000 | 7, Some(0x1fff)),
        OxmField::VlanPcp(3),
        OxmField::IpDscp(10),
        OxmField::IpProto(6),
        OxmField::Ipv4Src(
            Ipv4Addr::new(10, 1, 0, 0),
            Some(Ipv4Addr::new(255, 255, 0, 0)),
        ),
        OxmField::Ipv4Dst(Ipv4Addr::new(10, 0, 0, 9), None),
        OxmField::TcpSrc(1234),
        OxmField::TcpDst(80),
        OxmField::UdpSrc(53),
        OxmField::UdpDst(5353),
        OxmField::Icmpv4Type(8),
        OxmField::Icmpv4Code(0),
        OxmField::ArpOp(1),
        OxmField::ArpSpa(
            Ipv4Addr::new(10, 0, 0, 1),
            Some(Ipv4Addr::new(255, 0, 0, 0)),
        ),
        OxmField::ArpTpa(Ipv4Addr::new(10, 0, 0, 2), None),
        OxmField::Ipv6Src(
            Ipv6Addr::from(0x2001_0db8u128 << 96),
            Some(Ipv6Addr::from(u128::MAX << 64)),
        ),
        OxmField::Ipv6Dst(Ipv6Addr::from(2u128), None),
    ];
    let every_match = every_field.into_iter().fold(Match::new(), Match::with);
    let every_action = vec![
        Action::output(7),
        Action::to_controller(),
        Action::Group(42),
        Action::SetQueue(3),
        Action::PushVlan(0x88a8),
        Action::PopVlan,
        Action::set_vlan_vid(101),
        Action::SetField(OxmField::VlanPcp(5)),
        Action::SetField(OxmField::EthDst(MacAddr::host(9), None)),
        Action::SetField(OxmField::Ipv4Dst(Ipv4Addr::new(10, 0, 0, 9), None)),
        Action::SetField(OxmField::Ipv6Dst(Ipv6Addr::from(7u128), None)),
        Action::DecNwTtl,
        Action::Nat(NatDir::Egress),
        Action::Nat(NatDir::Ingress),
    ];
    let every_instruction = vec![
        Instruction::Meter(7),
        Instruction::ApplyActions(every_action),
        Instruction::ClearActions,
        Instruction::WriteActions(vec![Action::output(1)]),
        Instruction::WriteMetadata {
            metadata: 0xdead,
            mask: 0xffff,
        },
        Instruction::GotoTable(3),
    ];
    let port_desc = |port_no: u32, name: &str| PortDesc {
        port_no,
        hw_addr: MacAddr::host(port_no),
        name: name.into(),
        config: 0,
        state: 1,
        curr_speed: 1_000_000,
        max_speed: 10_000_000,
    };
    let flow_stats = |match_: Match, instructions: Vec<Instruction>| FlowStatsEntry {
        table_id: 0,
        duration_sec: 10,
        priority: 5,
        idle_timeout: 30,
        hard_timeout: 0,
        flags: 1,
        cookie: 3,
        packet_count: 100,
        byte_count: 6400,
        match_,
        instructions,
    };
    let flow_filter = |aggregate: bool, match_: Match| {
        let (table_id, out_port, out_group, cookie, cookie_mask) = (
            0xff,
            openflow::port_no::ANY,
            openflow::group_no::ANY,
            1,
            u64::MAX,
        );
        if aggregate {
            MultipartReq::Aggregate {
                table_id,
                out_port,
                out_group,
                cookie,
                cookie_mask,
                match_,
            }
        } else {
            MultipartReq::Flow {
                table_id,
                out_port,
                out_group,
                cookie,
                cookie_mask,
                match_,
            }
        }
    };
    vec![
        ("hello", Message::Hello),
        (
            "error",
            Message::Error {
                ty: 5,
                code: 1,
                data: Bytes::from_static(b"bad flow mod"),
            },
        ),
        (
            "echo_request",
            Message::EchoRequest(Bytes::from_static(b"ping")),
        ),
        (
            "echo_reply",
            Message::EchoReply(Bytes::from_static(b"ping")),
        ),
        ("features_request", Message::FeaturesRequest),
        (
            "features_reply",
            Message::FeaturesReply {
                datapath_id: 0x00aa_bb00_0000_0001,
                n_buffers: 256,
                n_tables: 4,
                capabilities: 0x47,
            },
        ),
        ("get_config_request", Message::GetConfigRequest),
        (
            "get_config_reply",
            Message::GetConfigReply {
                flags: 0,
                miss_send_len: 128,
            },
        ),
        (
            "set_config",
            Message::SetConfig {
                flags: 0,
                miss_send_len: 0xffff,
            },
        ),
        (
            "packet_in",
            Message::PacketIn {
                buffer_id: openflow::NO_BUFFER,
                total_len: 60,
                reason: PacketInReason::NoMatch,
                table_id: 0,
                cookie: 7,
                match_: Match::new().in_port(3),
                data: Bytes::from_static(&[0xaa; 60]),
            },
        ),
        (
            "flow_removed",
            Message::FlowRemoved {
                cookie: 9,
                priority: 10,
                reason: 0,
                table_id: 1,
                duration_sec: 42,
                idle_timeout: 30,
                hard_timeout: 0,
                packet_count: 1000,
                byte_count: 64000,
                match_: sample_match.clone(),
            },
        ),
        (
            "port_status",
            Message::PortStatus {
                reason: 2,
                desc: port_desc(4, "eth4"),
            },
        ),
        (
            "packet_out",
            Message::PacketOut {
                buffer_id: openflow::NO_BUFFER,
                in_port: openflow::port_no::CONTROLLER,
                actions: vec![Action::output(openflow::port_no::FLOOD)],
                data: Bytes::from_static(&[0x55; 64]),
            },
        ),
        (
            "flow_mod",
            Message::FlowMod(
                FlowMod::add(0)
                    .priority(100)
                    .match_(sample_match.clone())
                    .apply(vec![Action::set_vlan_vid(102), Action::output(7)])
                    .timeouts(30, 300)
                    .cookie(0xdeadbeef)
                    .flags(openflow::table::flow_flags::SEND_FLOW_REM),
            ),
        ),
        (
            "flow_mod_goto_metadata",
            Message::FlowMod(
                FlowMod::add(0)
                    .match_(Match::new().vlan(101))
                    .instructions(vec![
                        Instruction::WriteMetadata {
                            metadata: 101,
                            mask: 0xfff,
                        },
                        Instruction::GotoTable(1),
                    ]),
            ),
        ),
        (
            "flow_mod_every_tlv",
            Message::FlowMod(
                FlowMod::add(2)
                    .priority(7)
                    .match_(every_match.clone())
                    .instructions(every_instruction.clone()),
            ),
        ),
        (
            "group_mod",
            Message::GroupMod {
                command: GroupModCommand::Add,
                type_: GroupType::Select,
                group_id: 1,
                buckets: vec![
                    Bucket::new(vec![Action::output(1)]).with_weight(3),
                    Bucket::new(vec![Action::output(2)]),
                ],
            },
        ),
        (
            "meter_mod",
            Message::MeterMod {
                command: MeterModCommand::Add,
                meter_id: 5,
                pktps: false,
                band: Some(MeterBand {
                    rate: 10_000,
                    burst: 100,
                }),
            },
        ),
        (
            "meter_mod_delete",
            Message::MeterMod {
                command: MeterModCommand::Delete,
                meter_id: 5,
                pktps: false,
                band: None,
            },
        ),
        ("mp_req_desc", Message::MultipartRequest(MultipartReq::Desc)),
        (
            "mp_req_flow",
            Message::MultipartRequest(flow_filter(false, Match::any())),
        ),
        (
            "mp_req_aggregate",
            Message::MultipartRequest(flow_filter(true, sample_match.clone())),
        ),
        (
            "mp_req_table",
            Message::MultipartRequest(MultipartReq::Table),
        ),
        (
            "mp_req_port_stats",
            Message::MultipartRequest(MultipartReq::PortStats {
                port_no: openflow::port_no::ANY,
            }),
        ),
        (
            "mp_req_port_desc",
            Message::MultipartRequest(MultipartReq::PortDesc),
        ),
        (
            "mp_res_desc",
            Message::MultipartReply(MultipartRes::Desc {
                mfr: "harmless".into(),
                hw: "sim".into(),
                sw: "0.1".into(),
                serial: "42".into(),
                dp: "ss2".into(),
            }),
        ),
        (
            "mp_res_flow",
            Message::MultipartReply(MultipartRes::Flow(vec![
                flow_stats(sample_match, Instruction::apply(vec![Action::output(2)])),
                flow_stats(every_match, every_instruction),
            ])),
        ),
        (
            "mp_res_aggregate",
            Message::MultipartReply(MultipartRes::Aggregate {
                packet_count: 5,
                byte_count: 300,
                flow_count: 2,
            }),
        ),
        (
            "mp_res_table",
            Message::MultipartReply(MultipartRes::Table(vec![TableStatsEntry {
                table_id: 0,
                active_count: 3,
                lookup_count: 100,
                matched_count: 90,
            }])),
        ),
        (
            "mp_res_port_stats",
            Message::MultipartReply(MultipartRes::PortStats(vec![PortStatsEntry {
                port_no: 1,
                rx_packets: 10,
                tx_packets: 20,
                rx_bytes: 600,
                tx_bytes: 1200,
                rx_dropped: 0,
                tx_dropped: 1,
            }])),
        ),
        (
            "mp_res_port_desc",
            Message::MultipartReply(MultipartRes::PortDesc(vec![
                port_desc(1, "p1"),
                port_desc(2, "a-port-name-longer-than-fifteen-bytes"),
            ])),
        ),
        ("barrier_request", Message::BarrierRequest),
        ("barrier_reply", Message::BarrierReply),
        (
            "role_request",
            Message::RoleRequest {
                role: ControllerRole::Master,
                generation_id: 7,
            },
        ),
        (
            "role_reply",
            Message::RoleReply {
                role: ControllerRole::Slave,
                generation_id: u64::MAX,
            },
        ),
    ]
}

/// The xid every sample is encoded under.
const SAMPLE_XID: u32 = 0x1234_5678;

/// Every sample encodes to the bytes recorded in `data/of_golden.txt`
/// (one `name hex` line per sample, written by the codec before its
/// length fields were patched from the bytes written rather than
/// predicted), and decodes back to itself.
#[test]
fn of_encoding_matches_golden_bytes() {
    let golden: Vec<_> = include_str!("data/of_golden.txt")
        .lines()
        .map(|l| l.split_once(' ').expect("`name hex` lines"))
        .collect();
    let samples = of_samples();
    assert_eq!(golden.len(), samples.len());
    for ((want_name, want_hex), (name, msg)) in golden.into_iter().zip(samples) {
        assert_eq!(want_name, name);
        let wire = msg.encode(SAMPLE_XID);
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex, want_hex,
            "{name}: bytes differ from the recorded encoding"
        );
        let (xid, back, used) = Message::decode(&wire).unwrap();
        assert_eq!((xid, used), (SAMPLE_XID, wire.len()), "{name}");
        // Not `back == msg`: a port name longer than its field is cut.
        assert_eq!(
            back.encode(SAMPLE_XID),
            wire,
            "{name}: decode, encode again"
        );
    }
}

/// Structure-aware mutation of every sample: each byte set to each of
/// the 256 values, and each cut with the header length patched to it.
/// Nothing panics; a frame whose header says it has fully arrived is
/// never `Truncated` (the channel would wait for bytes that are not
/// coming); and a session fed such a frame and a `HELLO` never stalls:
/// once drained, the next message pushed is the next one out. Every
/// complete frame is then handed to an `OfAgent` over a datapath with
/// a few ports (a fresh pair per mutated byte, and per sample for the
/// cuts): nothing panics there either, and every reply decodes. Every
/// mutant the agent sees is also read as a flow-mod view
/// (`view_agrees`): it rejects exactly what the owned decode rejects,
/// with the same error, and reads as the owned flow-mod.
///
/// What the agent does with each mutant — its replies' bytes and the
/// rules its datapath holds after it — is folded into a second digest,
/// compared with `AGENT_APPLY_DIGEST`, recorded before a flow-mod's
/// match was read once on apply: a change to how a switch applies what
/// it is sent must answer and install exactly as before.
///
/// The decoder's verdict on every mutant and every cut, in order — the
/// `Debug` of `Message::decode`'s whole result, the message with its
/// xid and length or the error — is folded into one digest and
/// compared with the value recorded before the codec's layouts were
/// stated once: a codec change that keeps the bytes keeps every accept
/// and every error exactly.
#[test]
fn of_decoder_is_total_under_mutation() {
    let (mut verdicts, mut text) = (Fold::default(), String::new());
    let mut verdict = |frame: &[u8]| {
        use std::fmt::Write;
        text.clear();
        write!(text, "{:?}", Message::decode(frame)).expect("formatting cannot fail");
        verdicts.add(text.as_bytes());
    };
    let mut applied = Fold::default();
    let hello = Message::Hello.encode(1);
    let echo = Message::EchoRequest(Bytes::new());
    let mut session = openflow::Session::default();
    let mut check = |frame: &[u8], what: &dyn Fn() -> String| {
        let truncated = |frame| Message::decode(frame).err() == Some(openflow::Error::Truncated);
        if frame.len() < 8 {
            assert!(
                truncated(frame),
                "{}: a partial header is Truncated",
                what()
            );
            return;
        }
        let claimed = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
        if claimed == frame.len() {
            // The session's first decode is the frame's own.
            session.push(Bytes::copy_from_slice(frame));
            session.push(hello.clone());
            while session.next_message().is_some() {}
            session.push(echo.encode(9));
            assert_eq!(
                session.next_message(),
                Some(Ok((9, echo.clone()))),
                "{}: bytes stall",
                what()
            );
            assert_eq!(session.next_message(), None);
        } else if claimed < frame.len() {
            assert!(
                !truncated(frame),
                "{}: a complete frame is Truncated",
                what()
            );
        }
    };
    // The agent sees every value in release, a stride of them in debug.
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    for (name, msg) in of_samples() {
        let mut wire = msg.encode(SAMPLE_XID).to_vec();
        for i in 0..wire.len() {
            let orig = wire[i];
            let mut switch = mutant_switch();
            for v in 0..=u8::MAX {
                wire[i] = v;
                let what = || format!("{name}: byte {i} = {v:#04x}");
                check(&wire, &what);
                verdict(&wire);
                if v % stride == 0 {
                    view_agrees(&wire, &what);
                    through_agent(&mut switch, &wire, &what, &mut applied);
                }
            }
            wire[i] = orig;
        }
        let mut switch = mutant_switch();
        for cut in 0..wire.len() {
            let mut short = wire[..cut].to_vec();
            if cut >= 8 {
                short[2..4].copy_from_slice(&(cut as u16).to_be_bytes());
            }
            let what = || format!("{name}: cut at {cut}");
            check(&short, &what);
            verdict(&short);
            view_agrees(&short, &what);
            through_agent(&mut switch, &short, &what, &mut applied);
        }
    }
    assert_eq!(
        verdicts.0, OF_VERDICT_DIGEST,
        "the decoder accepts or rejects some mutant otherwise"
    );
    // A debug build hands the agent a stride of the values, so it sees
    // other mutants, in another order, and has its own digest.
    let want = if cfg!(debug_assertions) {
        AGENT_APPLY_DIGEST.1
    } else {
        AGENT_APPLY_DIGEST.0
    };
    assert_eq!(
        applied.0, want,
        "the agent answers or installs some mutant otherwise"
    );
}

/// [`of_decoder_is_total_under_mutation`]'s verdict digest.
const OF_VERDICT_DIGEST: u64 = 0x7263_aa63_1996_00da;

/// [`of_decoder_is_total_under_mutation`]'s digest of the agent's
/// replies and rule counts: `--release` (every value), then debug (a
/// stride of them).
const AGENT_APPLY_DIGEST: (u64, u64) = (0x8c9a_0afa_e0c7_cb60, 0xe063_3425_9828_4916);

/// A 64-bit FNV-1a-style fold of byte strings, eight bytes at a time
/// (a debug build formats and folds every mutant), each string ended
/// by its length.
struct Fold(u64);

impl Default for Fold {
    fn default() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    fn add(&mut self, bytes: &[u8]) {
        let mut mix = |word: u64| self.0 = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        words.remainder().iter().for_each(|&b| mix(u64::from(b)));
        mix(bytes.len() as u64);
    }
}

/// A mutant read as the switch reads it: a flow-mod's view rejects
/// exactly what the owned decode rejects, with the same error, and one
/// it accepts gives the owned flow-mod's program, key, mask and verdict.
/// (Every other type decodes owned either way.)
fn view_agrees(frame: &[u8], what: &dyn Fn() -> String) {
    if frame.get(1) != Some(&openflow::message::msg_type::FLOW_MOD) {
        return;
    }
    let owned = Message::decode(frame);
    match (Message::decode_ref(frame), &owned) {
        (
            Ok((xid, MessageRef::FlowMod(view), n)),
            Ok((owned_xid, Message::FlowMod(fm), owned_n)),
        ) => {
            assert_eq!((xid, n), (*owned_xid, *owned_n), "{}", what());
            assert_eq!(&view.to_owned(), fm, "{}: the view reads otherwise", what());
            let program = openflow::Program::from_wire(&view.instructions);
            assert_eq!(program.to_vec(), fm.instructions, "{}: program", what());
            assert_eq!(
                view.match_.to_key_mask(),
                fm.match_.to_key_mask(),
                "{}: key",
                what()
            );
            let verdict = view.match_.validate();
            assert_eq!(verdict, fm.match_.validate(), "{}: prerequisites", what());
            assert_eq!(
                view.checked_match(true),
                fm.checked_match(true),
                "{}: the match as a switch applies it",
                what()
            );
        }
        (viewed, _) => assert_eq!(
            viewed.map(|(xid, m, n)| (xid, m.into_owned(), n)),
            owned,
            "{}: the view and the owned decode differ",
            what()
        ),
    }
}

/// The switch a mutant is applied to: an agent over a four-port
/// datapath.
fn mutant_switch() -> (softswitch::agent::OfAgent, Datapath) {
    let mut dp = Datapath::new(DpConfig::software(0x5a).with_mode(PipelineMode::full()));
    for port in 1..=4 {
        dp.add_port(port, format!("p{port}"), 1_000_000);
    }
    (softswitch::agent::OfAgent::new("mutant"), dp)
}

/// A frame whose header says it has fully arrived, handed to the
/// agent: it applies the message without panicking, and every reply
/// (an error, if the frame does not decode) decodes. The replies' bytes
/// and the rules the datapath then holds go into `applied`.
fn through_agent(
    (agent, dp): &mut (softswitch::agent::OfAgent, Datapath),
    frame: &[u8],
    what: &dyn Fn() -> String,
    applied: &mut Fold,
) {
    if frame.len() < 8 || usize::from(u16::from_be_bytes([frame[2], frame[3]])) != frame.len() {
        return;
    }
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        agent.handle(dp, Bytes::copy_from_slice(frame), 0)
    }));
    let out = handled.unwrap_or_else(|_| panic!("{}: the agent panics", what()));
    for reply in &out.replies {
        assert!(
            Message::decode(reply).is_ok(),
            "{}: the agent's reply does not decode",
            what()
        );
        applied.add(reply);
    }
    let rules: usize = (0..dp.n_tables())
        .filter_map(|t| dp.table(t))
        .map(|t| t.len())
        .sum();
    applied.add(&(rules as u64).to_le_bytes());
}

/// The session's chunking oracle. Every message sample, each under its
/// own xid, then a complete frame of an unknown type: pushed as one
/// chunk, they come out as every sample and one error. Cut in two at
/// every byte, and cut into single bytes, they come out exactly so too:
/// a chunk is decoded where it lies, and a message split across chunks
/// is completed from the next one.
#[test]
fn session_cut_anywhere_equals_one_push() {
    let mut stream: Vec<u8> = of_samples()
        .iter()
        .enumerate()
        .flat_map(|(i, (_, msg))| msg.encode(i as u32).to_vec())
        .collect();
    stream.extend_from_slice(&[openflow::OFP_VERSION, 77, 0, 8, 0, 0, 0, 0]);
    let stream = Bytes::from(stream);
    let through = |chunks: &mut dyn Iterator<Item = Bytes>| {
        let mut session = openflow::Session::default();
        let mut out = Vec::new();
        for chunk in chunks {
            session.push(chunk);
            out.extend(std::iter::from_fn(|| session.next_message()));
        }
        out
    };
    let whole = through(&mut std::iter::once(stream.clone()));
    assert_eq!(whole.len(), of_samples().len() + 1);
    assert!(
        whole.last().is_some_and(Result::is_err),
        "{:?}",
        whole.last()
    );
    for cut in 0..=stream.len() {
        let mut two = [stream.slice(..cut), stream.slice(cut..)].into_iter();
        assert!(through(&mut two) == whole, "cut at {cut}");
    }
    let mut bytes = (0..stream.len()).map(|i| stream.slice(i..i + 1));
    assert!(through(&mut bytes) == whole, "one byte at a time");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A channel endpoint reassembles whatever chunking the transport
    /// chose. Random samples, each under its own xid, are concatenated
    /// and cut at random points. Pushed chunk by chunk into a `Session`
    /// and drained, they come out as the list that decoding each message
    /// alone gives. After every chunk, exactly the messages that have
    /// fully arrived are out: a partial trailing one waits. A bad frame
    /// in the middle (complete, of an unknown type) comes out as an error
    /// at the chunk that completes it, after every message ahead of it —
    /// however many of them share its chunk — and the session reads on
    /// afterwards.
    #[test]
    fn session_reassembles_any_chunking_of_a_message_stream(
        picks in proptest::collection::vec(0usize..1024, 1..40),
        cuts in proptest::collection::vec(any::<u16>(), 0..16),
        bad_at in 0usize..80,
    ) {
        let samples = of_samples();
        // The stream, and each frame's end in it with the message it
        // decodes to alone (`None` for the bad frame).
        let (mut stream, mut frames) = (Vec::new(), Vec::new());
        for (i, p) in picks.iter().enumerate() {
            if i == bad_at {
                stream.extend_from_slice(&[openflow::OFP_VERSION, 77, 0, 8, 0, 0, 0, 0]);
                frames.push((stream.len(), None));
            }
            let wire = samples[p % samples.len()].1.encode(i as u32);
            let (xid, alone, _) = Message::decode(&wire).unwrap();
            stream.extend_from_slice(&wire);
            frames.push((stream.len(), Some((xid, alone))));
        }
        let stream = Bytes::from(stream);
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % (stream.len() + 1))
            .chain([stream.len()])
            .collect();
        ends.sort_unstable();
        let mut session = openflow::Session::default();
        let (mut got, mut fed) = (Vec::new(), 0);
        for end in ends {
            session.push(stream.slice(fed..end));
            fed = end;
            got.extend(std::iter::from_fn(|| session.next_message()).map(|m| m.map_err(drop)));
            // What has fully arrived, up to and including the bad frame:
            // what follows it in its chunk is dropped with it.
            let arrived = frames.iter().take_while(|(at, _)| *at <= fed);
            let mut want: Vec<_> = arrived.map(|(_, m)| m.clone().ok_or(())).collect();
            let bad = want.iter().position(Result::is_err);
            want.truncate(bad.map_or(want.len(), |i| i + 1));
            prop_assert_eq!(&got, &want, "after {} of {} bytes", fed, stream.len());
            if bad.is_some() {
                let echo = Message::EchoRequest(Bytes::new());
                session.push(echo.encode(9));
                prop_assert_eq!(
                    session.next_message().map(|m| m.map_err(drop)),
                    Some(Ok((9, echo))),
                    "the session reads on after the error"
                );
                return Ok(());
            }
        }
        prop_assert!(bad_at >= picks.len(), "no bad frame was fed");
    }
}

// ---------------------------------------------------------------------
// A flow entry's program: the instruction list it replaced, read back.
// ---------------------------------------------------------------------

use openflow::table::FlowEntry;
use openflow::{group_no, port_no, InstructionRef};

/// Every instruction kind, in any order and any number: more than a
/// flow-mod should carry, so the program holds any list a decoder
/// yields.
fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        any::<u8>().prop_map(Instruction::GotoTable),
        (any::<u64>(), any::<u64>())
            .prop_map(|(metadata, mask)| Instruction::WriteMetadata { metadata, mask }),
        proptest::collection::vec(arb_action(), 0..4).prop_map(Instruction::WriteActions),
        arb_program().prop_map(Instruction::ApplyActions),
        Just(Instruction::ApplyActions(vec![])),
        Just(Instruction::ClearActions),
        any::<u32>().prop_map(Instruction::Meter),
    ]
}

/// An entry built from `insns` holds them: read back through the view
/// they are the list, they print as the list, and the delete filters
/// select by the list's actions.
fn assert_program_is(insns: &[Instruction], port: u32, group: u32) {
    let e = FlowEntry::new(1, Match::any(), openflow::Program::new(insns), 0);
    assert_eq!(e.instructions.to_vec(), insns);
    assert_eq!(e.instructions.iter().count(), insns.len());
    assert_eq!(format!("{:?}", e.instructions), format!("{insns:?}"));
    assert_eq!(format!("{:#?}", e.instructions), format!("{insns:#?}"));
    for (view, insn) in e.instructions.iter().zip(insns) {
        assert_eq!(format!("{view:?}"), format!("{insn:?}"));
        assert_eq!(&view.to_instruction(), insn);
    }
    let any_action = |f: &dyn Fn(&Action) -> bool| {
        insns.iter().any(|i| match i {
            Instruction::WriteActions(a) | Instruction::ApplyActions(a) => a.iter().any(f),
            _ => false,
        })
    };
    let to_port = |a: &Action| matches!(a, Action::Output { port: p, .. } if *p == port);
    let to_group = |a: &Action| matches!(a, Action::Group(g) if *g == group);
    assert_eq!(
        e.outputs_to(port),
        port == port_no::ANY || any_action(&to_port),
        "outputs_to({port}) of {insns:?}"
    );
    assert_eq!(
        e.outputs_to_group(group),
        group == group_no::ANY || any_action(&to_group),
        "outputs_to_group({group}) of {insns:?}"
    );
    // An action list is borrowed in place, and reads the same from
    // either end.
    for (view, insn) in e.instructions.iter().zip(insns) {
        if let (
            InstructionRef::ApplyActions(a) | InstructionRef::WriteActions(a),
            Instruction::ApplyActions(want) | Instruction::WriteActions(want),
        ) = (view, insn)
        {
            assert_eq!(a.iter().len(), want.len());
            assert!(a.iter().rev().eq(want.iter().rev()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_program_is_the_instruction_list_it_replaced(
        insns in proptest::collection::vec(arb_instruction(), 0..7),
        port in prop_oneof![1u32..6, Just(port_no::CONTROLLER), Just(port_no::ANY)],
        group in prop_oneof![0u32..4, Just(group_no::ANY)],
    ) {
        assert_program_is(&insns, port, group);
    }
}

/// The instruction lists of the wire samples, `every_instruction`
/// among them, and the lists the cache property installs.
#[test]
fn a_program_is_every_sample_instruction_list() {
    let mut lists: Vec<Vec<Instruction>> = Vec::new();
    for (_, msg) in of_samples() {
        match msg {
            Message::FlowMod(fm) => lists.push(fm.instructions),
            Message::MultipartReply(MultipartRes::Flow(entries)) => {
                lists.extend(entries.into_iter().map(|e| e.instructions));
            }
            _ => {}
        }
    }
    assert!(
        lists.iter().any(|l| l.len() == 6),
        "the sample with every instruction is among them"
    );
    lists.push(vec![
        Instruction::ApplyActions(vec![Action::PopVlan, Action::output(2)]),
        Instruction::WriteActions(vec![Action::Group(1)]),
        Instruction::GotoTable(1),
    ]);
    lists.push(Vec::new());
    for insns in &lists {
        for port in [1, 2, 7, port_no::CONTROLLER, port_no::ANY] {
            assert_program_is(insns, port, 42);
            assert_program_is(insns, port, group_no::ANY);
        }
    }
}

// ---------------------------------------------------------------------
// A flow-mod read where it lies: the view is the owned decode.
// ---------------------------------------------------------------------

use openflow::message::{FlowModRef, FlowModSource, MessageRef};

/// `wire` read as a flow-mod view, if it decodes as one.
fn flow_mod_view(wire: &[u8]) -> Option<FlowModRef<'_>> {
    match Message::decode_ref(wire) {
        Ok((_, MessageRef::FlowMod(view), _)) => Some(view),
        _ => None,
    }
}

/// What a switch reads of a flow-mod, from the view and from the owned
/// flow-mod it decodes to, agree: the owned decode, the match and its
/// key, mask and verdict, and the program (compared by `Debug`, which
/// is the instruction list's).
fn assert_view_is(view: FlowModRef<'_>, fm: &FlowMod) {
    assert_eq!(&view.to_owned(), fm);
    assert_eq!(view.header, fm.header());
    assert_eq!(view.match_.to_owned(), fm.match_);
    assert_eq!(view.match_.fields().collect::<Vec<_>>(), fm.match_.fields());
    assert_eq!(view.match_.to_key_mask(), fm.match_.to_key_mask());
    assert_eq!(view.match_.validate(), fm.match_.validate());
    let (key, mask) = fm.match_.to_key_mask();
    let verdict = fm.match_.validate();
    assert_eq!(
        view.checked_match(true),
        verdict
            .clone()
            .map(|()| (key, mask, Some(fm.match_.clone())))
    );
    assert_eq!(
        view.checked_match(false),
        verdict.map(|()| (key, mask, None))
    );
    assert_eq!(fm.checked_match(true), view.checked_match(true));
    assert_eq!(view.instructions.to_vec(), fm.instructions);
    assert_eq!(
        format!("{:?}", openflow::Program::from_wire(&view.instructions)),
        format!("{:?}", openflow::Program::new(&fm.instructions)),
    );
}

/// A field of a match whose prerequisites (OF 1.3 §7.2.3.8) are the
/// point: one that provides a fact another needs (a tagged VLAN; an
/// IPv4, IPv6 or ARP EtherType; a TCP, UDP or ICMP protocol), a near
/// miss of one, or one that needs a fact. Together with
/// `arb_oxm_field` they cover every `OxmField` variant.
fn prerequisite_field(rand: &mut impl FnMut(u64) -> u64) -> OxmField {
    use std::net::Ipv4Addr;
    let v4 = Ipv4Addr::from(rand(1 << 32) as u32);
    let v6 = Ipv6Addr::from(u128::from(rand(u64::MAX)) << 64 | u128::from(rand(u64::MAX)));
    let prefix = Ipv4Addr::new(255, 255, 0, 0);
    match rand(27) {
        0 => OxmField::VlanVid(0x1000 | 101, None),
        1 => OxmField::VlanVid(0x1000, Some(0x1000)),
        2 => OxmField::VlanVid(0, None),
        3 => OxmField::EthType(0x0800),
        4 => OxmField::EthType(0x86dd),
        5 => OxmField::EthType(0x0806),
        6 => OxmField::EthType(0x8100),
        7 => OxmField::IpProto(6),
        8 => OxmField::IpProto(17),
        9 => OxmField::IpProto(1),
        10 => OxmField::IpProto(58),
        11 => OxmField::VlanPcp(rand(8) as u8),
        12 => OxmField::IpDscp(rand(64) as u8),
        13 => OxmField::Ipv4Src(v4, None),
        14 => OxmField::Ipv4Dst(v4, Some(prefix)),
        15 => OxmField::Ipv6Src(v6, None),
        16 => OxmField::Ipv6Dst(v6, Some(Ipv6Addr::from(u128::MAX << 64))),
        17 => OxmField::TcpSrc(rand(1 << 16) as u16),
        18 => OxmField::TcpDst(80),
        19 => OxmField::UdpSrc(rand(1 << 16) as u16),
        20 => OxmField::UdpDst(53),
        21 => OxmField::Icmpv4Type(8),
        22 => OxmField::Icmpv4Code(rand(16) as u8),
        23 => OxmField::ArpOp(1),
        24 => OxmField::ArpSpa(v4, Some(prefix)),
        25 => OxmField::ArpTpa(v4, None),
        _ => OxmField::InPort(1 + rand(4) as u32),
    }
}

/// A protocol stack's fields, most of them, in random order: a list
/// that is often valid, with its prerequisites before or after the
/// fields that need them, and sometimes missing one.
fn shuffled_stack(rand: &mut impl FnMut(u64) -> u64) -> Vec<OxmField> {
    use std::net::Ipv4Addr;
    let (v4, v6) = (Ipv4Addr::new(10, 0, 0, 1), Ipv6Addr::from(1u128));
    let stack: &[OxmField] = match rand(6) {
        0 => &[
            OxmField::VlanVid(0x1000 | 7, None),
            OxmField::VlanPcp(5),
            OxmField::InPort(2),
        ],
        1 => &[
            OxmField::EthType(0x0800),
            OxmField::IpProto(6),
            OxmField::TcpSrc(1024),
            OxmField::TcpDst(80),
            OxmField::Ipv4Src(v4, None),
        ],
        2 => &[
            OxmField::EthType(0x0800),
            OxmField::IpProto(17),
            OxmField::UdpDst(53),
            OxmField::Ipv4Dst(v4, None),
            OxmField::IpDscp(46),
        ],
        3 => &[
            OxmField::EthType(0x0800),
            OxmField::IpProto(1),
            OxmField::Icmpv4Type(8),
            OxmField::Icmpv4Code(0),
        ],
        4 => &[
            OxmField::EthType(0x86dd),
            OxmField::IpProto(6),
            OxmField::TcpDst(443),
            OxmField::Ipv6Src(v6, None),
            OxmField::Ipv6Dst(v6, Some(Ipv6Addr::from(u128::MAX << 64))),
        ],
        _ => &[
            OxmField::EthType(0x0806),
            OxmField::ArpOp(2),
            OxmField::ArpSpa(v4, None),
            OxmField::ArpTpa(v4, Some(Ipv4Addr::new(255, 255, 255, 0))),
        ],
    };
    let mut fields: Vec<OxmField> = stack.iter().copied().filter(|_| rand(6) != 0).collect();
    for i in (1..fields.len()).rev() {
        fields.swap(i, rand(i as u64 + 1) as usize);
    }
    fields
}

/// A match's verdict and its key and mask, pinned on a fixed stream of
/// field lists: `arb_match` draws as they are, with one of their fields
/// repeated somewhere, lists of `prerequisite_field`s in random order
/// (so a prerequisite comes before or after the field that needs it,
/// or not at all), the two shuffled together, and `shuffled_stack`s. `Match::validate`'s
/// result and `Match::to_key_mask` of every list, valid or not, fold
/// into one digest, compared with `MATCH_VERDICT_DIGEST`, recorded when
/// the verdict and the key were two walks of the fields: one walk must
/// give the same first error, in author order, and the same key and
/// mask, last field winning, for every list.
#[test]
fn match_verdicts_and_keys_hold_their_recorded_digest() {
    let mut rng = TestRng::for_test("match_verdicts_and_keys");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rand = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let drawn = arb_match();
    let (mut digest, mut outcomes) = (Fold::default(), std::collections::BTreeMap::new());
    // Valid lists in which some field needs an EtherType that only a
    // later field provides.
    let mut provided_later = 0;
    for case in 0..6_000 {
        let mut fields = drawn.new_value(&mut rng).fields().to_vec();
        match case % 5 {
            0 => {}
            1 => {
                if !fields.is_empty() {
                    let again = fields[rand(fields.len() as u64) as usize];
                    fields.insert(rand(fields.len() as u64 + 1) as usize, again);
                }
            }
            2 => {
                fields = (0..1 + rand(7))
                    .map(|_| prerequisite_field(&mut rand))
                    .collect()
            }
            3 => fields = shuffled_stack(&mut rand),
            _ => {
                for _ in 0..1 + rand(5) {
                    let at = rand(fields.len() as u64 + 1) as usize;
                    fields.insert(at, prerequisite_field(&mut rand));
                }
            }
        }
        let m = fields.iter().fold(Match::new(), |m, f| m.with(*f));
        let verdict = m.validate();
        digest.add(format!("{:?} {:?} {:?}", m.fields(), verdict, m.to_key_mask()).as_bytes());
        let first = |is: fn(&OxmField) -> bool| fields.iter().position(is);
        let needs_eth_type = first(|f| {
            matches!(
                f,
                OxmField::IpProto(_)
                    | OxmField::IpDscp(_)
                    | OxmField::Ipv4Src(..)
                    | OxmField::Ipv4Dst(..)
                    | OxmField::Ipv6Src(..)
                    | OxmField::Ipv6Dst(..)
                    | OxmField::ArpOp(_)
                    | OxmField::ArpSpa(..)
                    | OxmField::ArpTpa(..)
            )
        });
        let eth_type = first(|f| matches!(f, OxmField::EthType(_)));
        if verdict.is_ok() && needs_eth_type < eth_type && needs_eth_type.is_some() {
            provided_later += 1;
        }
        *outcomes.entry(format!("{verdict:?}")).or_insert(0) += 1;
    }
    assert!(
        provided_later >= 200,
        "{provided_later} lists with a later prerequisite"
    );
    for (outcome, at_least) in [
        ("Ok(())", 1_000),
        ("duplicate field", 300),
        ("VLAN_PCP requires tagged VLAN_VID", 50),
        ("IP field requires ETH_TYPE ip", 50),
        ("IPv4 field requires ETH_TYPE 0x0800", 50),
        ("IPv6 field requires ETH_TYPE 0x86dd", 50),
        ("TCP field requires IP_PROTO 6", 50),
        ("UDP field requires IP_PROTO 17", 50),
        ("ICMP field requires IP_PROTO 1", 50),
        ("ARP field requires ETH_TYPE 0x0806", 50),
    ] {
        let seen: u32 = outcomes
            .iter()
            .filter(|(o, _)| o.contains(outcome))
            .map(|(_, n)| n)
            .sum();
        assert!(seen >= at_least, "{outcome}: {seen} of {outcomes:?}");
    }
    assert_eq!(
        digest.0, MATCH_VERDICT_DIGEST,
        "some field list validates or keys otherwise"
    );
}

/// [`match_verdicts_and_keys_hold_their_recorded_digest`]'s digest.
const MATCH_VERDICT_DIGEST: u64 = 0xab7b_bbeb_ed93_26d9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any match and instruction list, encoded and read back as a view:
    /// the view is the flow-mod, and `Message::decode` is its owned
    /// form.
    #[test]
    fn a_flow_mod_view_is_the_owned_decode(
        m in arb_match(),
        insns in proptest::collection::vec(arb_instruction(), 0..7),
        cookie in any::<u64>(),
        priority in any::<u16>(),
    ) {
        let fm = FlowMod::add(1).priority(priority).cookie(cookie).match_(m).instructions(insns);
        let wire = Message::FlowMod(fm.clone()).encode(7);
        let view = flow_mod_view(&wire).expect("a flow-mod decodes as a view");
        assert_view_is(view, &fm);
        prop_assert_eq!(Message::decode(&wire), Ok((7, Message::FlowMod(fm), wire.len())));
    }
}

/// Every sample flow-mod, `flow_mod_every_tlv` among them.
#[test]
fn every_sample_flow_mod_reads_the_same_as_a_view() {
    let mut seen = 0;
    for (name, msg) in of_samples() {
        let wire = msg.encode(SAMPLE_XID);
        if let Message::FlowMod(fm) = msg {
            let view = flow_mod_view(&wire).unwrap_or_else(|| panic!("{name}"));
            assert_view_is(view, &fm);
            seen += 1;
        } else {
            assert!(flow_mod_view(&wire).is_none(), "{name}");
        }
    }
    assert_eq!(seen, 3);
}

// ---------------------------------------------------------------------
// A flow-mod sent from borrowed parts: the owned flow-mod's bytes.
// ---------------------------------------------------------------------

use bytes::BytesMut;
use openflow::instruction::Insn;
use openflow::message::{FlowModHeader, FlowModParts};
use openflow::FlowModCommand;

/// `insn` with its actions borrowed, as a sender builds it on its stack.
fn borrowed(insn: &Instruction) -> Insn<&[Action]> {
    match insn {
        Insn::GotoTable(t) => Insn::GotoTable(*t),
        &Insn::WriteMetadata { metadata, mask } => Insn::WriteMetadata { metadata, mask },
        Insn::WriteActions(a) => Insn::WriteActions(a),
        Insn::ApplyActions(a) => Insn::ApplyActions(a),
        Insn::ClearActions => Insn::ClearActions,
        Insn::Meter(id) => Insn::Meter(*id),
    }
}

/// Any fixed fields: every command, any table, filters and flags.
fn arb_flow_mod_header() -> impl Strategy<Value = FlowModHeader> {
    let ids = (any::<u64>(), any::<u64>(), any::<u8>(), 0u8..5);
    let rest = (
        (any::<u16>(), any::<u16>(), any::<u16>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u16>()),
    );
    (ids, rest).prop_map(
        |((cookie, cookie_mask, table_id, command), (times, filters))| {
            let (idle_timeout, hard_timeout, priority) = times;
            let (buffer_id, out_port, out_group, flags) = filters;
            FlowModHeader {
                cookie,
                cookie_mask,
                table_id,
                command: FlowModCommand::from_value(command).expect("a command value"),
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                out_group,
                flags,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A flow-mod written from borrowed parts (the match's fields, and
    /// instructions whose action lists are borrowed, as a controller
    /// builds them on its stack) is byte for byte the owned flow-mod's
    /// encoding under the same xid, and reads back as its view.
    #[test]
    fn a_flow_mod_sent_from_borrowed_parts_is_the_owned_encoding(
        header in arb_flow_mod_header(),
        m in arb_match(),
        insns in proptest::collection::vec(arb_instruction(), 0..7),
        xid in any::<u32>(),
    ) {
        let fm = FlowMod { header, match_: m, instructions: insns };
        let lent: Vec<Insn<&[Action]>> = fm.instructions.iter().map(borrowed).collect();
        let parts = FlowModParts { header, match_: fm.match_.fields(), instructions: &lent };
        let mut sent = BytesMut::new();
        parts.encode_into(&mut sent, xid);
        let owned = Message::FlowMod(fm.clone()).encode(xid);
        prop_assert_eq!(&sent[..], &owned[..]);
        match Message::decode_ref(&sent) {
            Ok((got, MessageRef::FlowMod(view), used)) => {
                prop_assert_eq!((got, used), (xid, sent.len()));
                assert_view_is(view, &fm);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// SNMP wire codec: the bytes every message encodes to.
// ---------------------------------------------------------------------

use mgmt::pdu::{ErrorStatus, Pdu, PduType, SnmpMessage, Value};

/// One message of every PDU type, every `Value` variant, the short and
/// both long BER length forms (`0x81`, `0x82`) at every nesting level,
/// and OID arcs of one to five base-128 bytes.
fn snmp_samples() -> Vec<(&'static str, SnmpMessage)> {
    let oid = |s: &str| -> mgmt::Oid { s.parse().expect("dotted OID") };
    let request = |ty, id, bindings| SnmpMessage::new("public", Pdu::request(ty, id, bindings));
    let every_value = vec![
        (oid("1.3.6.1.2.1.1.1.0"), Value::Integer(-129)),
        (oid("1.3.6.1.2.1.1.2.0"), Value::Integer(i64::MAX)),
        (
            oid("1.3.6.1.2.1.1.5.0"),
            Value::OctetString(b"pod-7".to_vec()),
        ),
        (oid("1.3.6.1.2.1.1.6.0"), Value::Null),
        (
            oid("1.3.6.1.2.1.1.2.0"),
            Value::Oid(oid("1.3.6.1.4.1.8072.3.2.10")),
        ),
        (oid("1.3.6.1.2.1.4.20.1.1"), Value::IpAddress([10, 0, 0, 1])),
        (oid("1.3.6.1.2.1.2.2.1.10.1"), Value::Counter32(0x8000_0000)),
        (oid("1.3.6.1.2.1.2.2.1.5.1"), Value::Gauge32(1_000_000_000)),
        (oid("1.3.6.1.2.1.1.3.0"), Value::TimeTicks(8_640_000)),
        (oid("1.3.6.1.2.1.31.1.1.1.6.1"), Value::Counter64(u64::MAX)),
        (oid("1.3.6.1.2.1.1.9.0"), Value::NoSuchObject),
        (oid("1.3.6.1.2.1.1.9.1"), Value::NoSuchInstance),
        (oid("1.3.6.1.2.1.99"), Value::EndOfMibView),
    ];
    // A dot1qVlanStaticTable row write, as the manager's plan issues it.
    let vlan_row = |vid: u32| {
        let row = oid("1.3.6.1.2.1.17.7.1.4.3.1");
        vec![
            (
                row.extend(&[1, vid]),
                Value::OctetString(format!("v{vid}").into_bytes()),
            ),
            (row.extend(&[2, vid]), Value::OctetString(vec![0xf0, 0x00])),
            (row.extend(&[4, vid]), Value::OctetString(vec![0x80, 0x00])),
            (row.extend(&[5, vid]), Value::Integer(4)),
        ]
    };
    vec![
        (
            "get",
            request(
                PduType::Get,
                1,
                vec![
                    (oid("1.3.6.1.2.1.1.1.0"), Value::Null),
                    (oid("1.3.6.1.2.1.1.5.0"), Value::Null),
                    (oid("1.3.6.1.2.1.2.1.0"), Value::Null),
                ],
            ),
        ),
        (
            "get_next",
            request(
                PduType::GetNext,
                2,
                vec![(oid("1.3.6.1.2.1.17"), Value::Null)],
            ),
        ),
        ("set_vlan_row", request(PduType::Set, 300, vlan_row(101))),
        (
            "response_every_value",
            SnmpMessage::new(
                "private",
                Pdu {
                    ty: PduType::Response,
                    request_id: -7,
                    error_status: ErrorStatus::NoError,
                    error_index: 0,
                    bindings: every_value,
                },
            ),
        ),
        (
            "response_error",
            SnmpMessage::new(
                "public",
                Pdu {
                    ty: PduType::Response,
                    request_id: 9,
                    error_status: ErrorStatus::NotWritable,
                    error_index: 2,
                    bindings: vlan_row(102),
                },
            ),
        ),
        (
            "oid_arcs_of_every_width",
            request(
                PduType::Get,
                0x7fff_ffff,
                vec![
                    (oid("1.3.6.1.4.1.127.128.16383.16384"), Value::Null),
                    (oid("2.999.2097151.2097152.4294967295"), Value::Null),
                ],
            ),
        ),
        // 128..256 bytes: the message's own length takes the 0x81 form.
        (
            "set_two_rows",
            request(PduType::Set, 4, [vlan_row(103), vlan_row(104)].concat()),
        ),
        // 256 bytes and more: 0x82 at the message, the PDU, the binding
        // list and the binding, 0x81 inside.
        (
            "response_long_string",
            SnmpMessage::new(
                "public",
                Pdu {
                    ty: PduType::Response,
                    request_id: 5,
                    error_status: ErrorStatus::NoError,
                    error_index: 0,
                    bindings: vec![(
                        oid("1.3.6.1.2.1.1.1.0"),
                        Value::OctetString(vec![b'x'; 300]),
                    )],
                },
            ),
        ),
    ]
}

/// Every sample encodes to the bytes recorded in `data/snmp_golden.txt`
/// (one `name hex` line per sample, written by the codec that nested a
/// fresh buffer per constructed TLV), and decodes back to itself.
#[test]
fn snmp_encoding_matches_golden_bytes() {
    let golden: Vec<_> = include_str!("data/snmp_golden.txt")
        .lines()
        .map(|l| l.split_once(' ').expect("`name hex` lines"))
        .collect();
    let samples = snmp_samples();
    assert_eq!(golden.len(), samples.len());
    for ((want_name, want_hex), (name, msg)) in golden.into_iter().zip(samples) {
        assert_eq!(want_name, name);
        let wire = msg.encode();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex, want_hex,
            "{name}: bytes differ from the recorded encoding"
        );
        assert_eq!(SnmpMessage::decode(&wire).unwrap(), msg, "{name}");
    }
}

/// A UDP datagram (40000 → 53, no payload) from `src` to `fd00::2`.
fn ipv6_udp(src: Ipv6Addr) -> Bytes {
    use netpkt::{ipv6, EtherType, IpProto};
    let mut v6 = [0u8; ipv6::HEADER_LEN + 8];
    let header = ipv6::Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: 8,
        next_header: IpProto::UDP,
        hop_limit: 64,
        src,
        dst: "fd00::2".parse().unwrap(),
    };
    header.write(&mut &mut v6[..]).unwrap();
    v6[ipv6::HEADER_LEN..].copy_from_slice(&[0x9c, 0x40, 0, 53, 0, 8, 0, 0]);
    builder::ethernet(MacAddr::host(2), MacAddr::host(1), EtherType::IPV6, &v6)
}

/// An IPv6 source prefix rule takes the frames whose leading octets it
/// names, in every pipeline mode: the OXM field holds the address as
/// octets, the flow key as a big-endian word, and `Match::to_key_mask`
/// must carry the one into the other. The address outside the /64
/// shares the inside one's low 64 bits, so a mask or value that landed
/// on the wrong half would let it hit.
#[test]
fn an_ipv6_prefix_rule_matches_its_leading_octets() {
    let inside: Ipv6Addr = "fd00::1".parse().unwrap();
    let outside: Ipv6Addr = "fd00:0:0:1::1".parse().unwrap();
    let slash_64 = Ipv6Addr::from(u128::MAX << 64);
    let rule = Match::new()
        .eth_type(0x86dd)
        .with(OxmField::Ipv6Src(inside, Some(slash_64)));
    for mode in [
        PipelineMode::linear(),
        PipelineMode::tss(),
        PipelineMode::full(),
    ] {
        let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
        for p in 1..=2 {
            dp.add_port(p, format!("p{p}"), 1_000_000);
        }
        let fm = FlowMod::add(0)
            .priority(10)
            .match_(rule.clone())
            .apply(vec![Action::output(2)]);
        dp.apply_flow_mod(&fm, 0).unwrap();
        // Twice each, so the cached modes also answer from their caches.
        let frames = [(inside, true), (outside, false)].repeat(2);
        for (now, (src, hits)) in frames.into_iter().enumerate() {
            let out = run_one(&mut dp, 1, ipv6_udp(src), now as u64);
            let ports: Vec<u32> = out.outputs_of(0).iter().map(|o| o.0).collect();
            let want = if hits { vec![2] } else { vec![] };
            assert_eq!(ports, want, "{mode:?}: frame {now} from {src}");
        }
    }
}

/// The SNMP path is total (the management-plane twin of
/// `frame_path_is_total_under_mutation`): every byte of every sample set
/// to each value — in debug builds a stride of them — and every cut go
/// through `SnmpMessage::decode`, the `MessageRef` view, an agent over a
/// `BridgeMib` and a manager's `SnmpClient::accept`. Nothing panics,
/// every cut is `Truncated`, the view fails exactly where the owned
/// decode fails, with the same error, and is the owned decode when made
/// owned, the agent's answers round-trip, and a mutant that decodes
/// re-encodes to exactly its own bytes — but for the exceptions counted
/// by name below, which are the decoder's, not the sweep's.
///
/// The decoder's verdict on every mutant (all 256 values in both
/// builds) and every cut — the `Debug` of `SnmpMessage::decode`'s whole
/// result — is folded into one digest and compared with the value the
/// owned decoder gave before messages were read as views: every accept
/// and every error is kept.
#[test]
fn snmp_path_is_total_under_mutation() {
    use legacy_switch::mib::{BridgeMib, SysInfo};
    use mgmt::pdu::MessageRef as SnmpView;
    use mgmt::{agent_respond, SnmpClient};
    let sys = SysInfo::default();
    let mut bridge = legacy_switch::Bridge::new(4);
    bridge.make_access_port(1, 101).unwrap();
    bridge.make_trunk_port(4, &[101, 102]).unwrap();
    let mut client = SnmpClient::new("public");
    let _pending = client.get(&[]);
    let mut exceptions = std::collections::BTreeMap::<&str, usize>::new();
    let (mut verdicts, mut text) = (Fold::default(), String::new());
    let mut verdict = |wire: &[u8]| {
        use std::fmt::Write;
        match SnmpMessage::decode(wire) {
            Ok(msg) => verdicts.add(&msg.encode()),
            Err(e) => {
                text.clear();
                write!(text, "{e:?}").expect("formatting cannot fail");
                verdicts.add(text.as_bytes());
            }
        }
    };
    let mut check = |wire: &[u8], what: &dyn Fn() -> String| {
        let _ = client.accept(wire);
        let owned = SnmpMessage::decode(wire);
        let view = SnmpView::decode(wire);
        assert_eq!(
            view.clone().map(SnmpView::to_owned),
            owned,
            "{}: the view reads otherwise",
            what()
        );
        let (Ok(msg), Ok(request)) = (owned, view) else {
            return;
        };
        let again = msg.encode();
        if *again != *wire {
            // The subset names eight codes; any other reads as genErr.
            assert!(
                error_status_outside_subset(wire),
                "{}: re-encodes to other bytes",
                what()
            );
            *exceptions.entry("error_status_outside_subset").or_default() += 1;
            assert_eq!(SnmpMessage::decode(&again), Ok(msg.clone()), "{}", what());
        }
        let mut mib = BridgeMib {
            bridge: &mut bridge,
            sys: &sys,
            uptime_cs: 1,
        };
        if let Some(response) = agent_respond(&mut mib, request.community, &request) {
            let back = SnmpMessage::decode(&response).expect("the agent's answer decodes");
            assert_eq!(back.encode(), response, "{}", what());
            let _ = client.accept(&response);
        }
    };
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    let samples = snmp_samples();
    for (name, msg) in &samples {
        let mut wire = msg.encode().to_vec();
        for i in 0..wire.len() {
            let orig = wire[i];
            for v in 0..=u8::MAX {
                wire[i] = v;
                verdict(&wire);
                if v % stride == 0 {
                    check(&wire, &|| format!("{name}: byte {i} = {v:#04x}"));
                }
            }
            wire[i] = orig;
        }
        for cut in 0..wire.len() {
            let what = || format!("{name}: cut at {cut}");
            assert_eq!(
                SnmpMessage::decode(&wire[..cut]),
                Err(mgmt::Error::Truncated),
                "{}",
                what()
            );
            verdict(&wire[..cut]);
            check(&wire[..cut], &what);
        }
    }
    // Each sample's error-status byte, set to every code outside the
    // subset that the sweep reaches: 248 of 256, in debug 84 of 86.
    let per_sample = if stride == 1 { 248 } else { 84 };
    assert_eq!(
        exceptions,
        [("error_status_outside_subset", samples.len() * per_sample)].into(),
    );
    assert_eq!(
        verdicts.0, SNMP_VERDICT_DIGEST,
        "the decoder accepts or rejects some mutant otherwise"
    );
}

/// [`snmp_path_is_total_under_mutation`]'s verdict digest.
const SNMP_VERDICT_DIGEST: u64 = 0xb820_4594_6260_6e31;

/// A random request to a legacy switch of `n_ports` ports: Get, GetNext
/// or Set, now and then a Response (which an agent does not answer) or
/// a wrong community. Names are instances of every column the switch
/// serves, at indices in and around its ports and VLANs, and names that
/// are no instance; a Set's values are right, of the wrong type, or out
/// of range, and some name what is not writable.
fn random_snmp_request(rand: &mut impl FnMut(u64) -> u64, n_ports: u16, id: i64) -> SnmpMessage {
    use mgmt::{mibs, Oid};
    const COLUMNS: [&[u32]; 12] = [
        mibs::SYS_DESCR,
        mibs::SYS_UPTIME,
        mibs::SYS_NAME,
        mibs::IF_NUMBER,
        mibs::IF_DESCR,
        mibs::IF_OPER_STATUS,
        mibs::IF_IN_OCTETS,
        mibs::IF_OUT_OCTETS,
        mibs::VLAN_STATIC_EGRESS_PORTS,
        mibs::VLAN_STATIC_UNTAGGED_PORTS,
        mibs::VLAN_STATIC_ROW_STATUS,
        mibs::PVID,
    ];
    let n = u32::from(n_ports);
    let indices = [
        0,
        1,
        2,
        3,
        5,
        n,
        n + 1,
        101,
        4094,
        4095,
        4096,
        65537,
        u32::MAX,
    ];
    let name = |rand: &mut dyn FnMut(u64) -> u64, ty: PduType| -> (usize, Oid) {
        // A Set mostly names a writable instance that exists.
        if ty == PduType::Set && rand(4) != 0 {
            let column = 8 + rand(4) as usize;
            let index = [1, 2, n, 101][rand(4) as usize];
            return (column, Oid::instance(COLUMNS[column], index));
        }
        let column = rand(COLUMNS.len() as u64) as usize;
        let instance = Oid::instance(
            COLUMNS[column],
            indices[rand(indices.len() as u64) as usize],
        );
        let oid = match rand(10) {
            0 => Oid::new(COLUMNS[column]),
            1 => instance.child(rand(3) as u32),
            2 => Oid::new(&[1, 3, 6, 1, 2, 1, 99, rand(3) as u32]),
            3 => Oid::new(&[rand(3) as u32]),
            _ => instance,
        };
        (column, oid)
    };
    let ty = match rand(16) {
        0 => PduType::Response,
        1..=4 => PduType::Get,
        5..=7 => PduType::GetNext,
        _ => PduType::Set,
    };
    let bindings = (0..rand(4) + u64::from(ty != PduType::Get))
        .map(|_| {
            let (column, oid) = name(rand, ty);
            if ty != PduType::Set {
                return (oid, Value::Null);
            }
            let ports: Vec<u16> = (0..=n_ports + 1).filter(|_| rand(3) == 0).collect();
            let portlist = Value::OctetString(mibs::encode_portlist(&ports, n_ports + 1));
            let vid = [1, 1, 101, 101, 5, 4095, 70000][rand(7) as usize];
            let value = match (rand(12), column) {
                (0, _) => Value::Null,
                (1, _) => Value::OctetString(b"x".to_vec()),
                // A port list naming port 65537, past any u16.
                (2, _) => Value::OctetString([vec![0; 8192], vec![0x40]].concat()),
                (_, 8 | 9) => portlist,
                (3, 10) => Value::Integer(rand(8) as i64),
                (_, 10) => {
                    Value::Integer([mibs::ROW_CREATE_AND_GO, mibs::ROW_DESTROY][rand(2) as usize])
                }
                (3, _) => Value::Integer(vid),
                _ => Value::Gauge32(vid as u32),
            };
            (oid, value)
        })
        .collect();
    let community = if rand(10) == 0 { "private" } else { "public" };
    SnmpMessage::new(community, Pdu::request(ty, id, bindings))
}

/// The agent answers in place as the owned agent did: random requests
/// (`random_snmp_request`) to random bridges through `agent_respond` and
/// a `BridgeMib`, every request's bytes, the response's bytes (or its
/// absence) and the bridge's VLAN table and PVIDs after it folded into
/// one digest. The value pinned is what the owned path gave — decode the
/// request, build the response PDU (cloning a Set's bindings into it),
/// encode it — on the same stream, so every byte answered and every
/// change made is as it was. Bad values, unwritable names, wrong types
/// and wrong communities are all drawn, and counted below.
#[test]
fn the_agent_answers_as_the_owned_agent_did() {
    use legacy_switch::mib::{BridgeMib, SysInfo};
    use legacy_switch::Bridge;
    use mgmt::pdu::MessageRef as SnmpView;
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut rand = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let sys = SysInfo::default();
    let (mut digest, mut outcomes) = (Fold::default(), std::collections::BTreeMap::new());
    for case in 0..60 {
        let n = 1 + rand(6) as u16;
        let mut bridge = Bridge::new(n);
        for _ in 0..rand(5) {
            let port = 1 + rand(u64::from(n)) as u16;
            let _ = bridge.make_access_port(port, 100 + rand(4) as u16);
        }
        for id in 0..100 {
            let wire = random_snmp_request(&mut rand, n, case * 100 + id).encode();
            let mut mib = BridgeMib {
                bridge: &mut bridge,
                sys: &sys,
                uptime_cs: 4321,
            };
            let request = SnmpView::decode(&wire).expect("a request decodes");
            let response = mgmt::agent_respond(&mut mib, "public", &request);
            let outcome = match &response {
                None => "dropped".to_string(),
                Some(r) => {
                    let pdu = SnmpMessage::decode(r).expect("the answer decodes").pdu;
                    format!("{:?} {:?}", request.ty, pdu.error_status)
                }
            };
            *outcomes.entry(outcome).or_insert(0) += 1;
            digest.add(&wire);
            digest.add(response.as_deref().unwrap_or(b"none"));
            let pvids: Vec<u16> = (1..=n).map(|p| bridge.pvid(p)).collect();
            digest.add(format!("{:?} {pvids:?}", bridge.vlans()).as_bytes());
        }
    }
    for (outcome, at_least) in [
        ("dropped", 500),
        ("Get NoError", 800),
        ("GetNext NoError", 800),
        ("Set NoError", 100),
        ("Set NotWritable", 500),
        ("Set WrongType", 100),
        ("Set WrongValue", 100),
    ] {
        let seen = outcomes.get(outcome).copied().unwrap_or(0);
        assert!(seen >= at_least, "{outcome}: {seen} of {outcomes:?}");
    }
    assert_eq!(
        digest.0, SNMP_AGENT_DIGEST,
        "the agent answers or changes the bridge otherwise"
    );
}

/// [`the_agent_answers_as_the_owned_agent_did`]'s digest.
const SNMP_AGENT_DIGEST: u64 = 0xbf21_86e5_91da_d0e7;

/// Whether `wire`'s error-status is an INTEGER outside the codes
/// `ErrorStatus` names.
fn error_status_outside_subset(wire: &[u8]) -> bool {
    use mgmt::ber::{get_tlv, parse_integer};
    let status = || -> mgmt::Result<i64> {
        let (_, mut msg) = get_tlv(&mut &wire[..])?;
        let _version = get_tlv(&mut msg)?;
        let _community = get_tlv(&mut msg)?;
        let (_, mut pdu) = get_tlv(&mut msg)?;
        let _request_id = get_tlv(&mut pdu)?;
        parse_integer(get_tlv(&mut pdu)?.1)
    };
    status().is_ok_and(|code| ErrorStatus::from_value(code).value() != code)
}

// ---------------------------------------------------------------------
// L3 pipeline properties (routing, NAT, TTL/checksum) — the oracle
// suites pinning the edge-router datapath of the `exp_l3` scenarios.
// ---------------------------------------------------------------------

use softswitch::actions::{dec_ttl, TtlResult};
use softswitch::nat::{NatProto, NatTable};
use softswitch::NatConfig;

/// Set the TTL of an untagged IPv4 frame, checksum recomputed.
fn set_ttl(frame: &mut [u8], ttl: u8) {
    let mut ip = netpkt::ipv4::Header::parse(&mut &frame[14..]).unwrap();
    ip.ttl = ttl;
    ip.write(&mut &mut frame[14..]).unwrap();
    netpkt::ipv4::fill_checksum(&mut frame[14..14 + ip.header_len]);
}

/// One step of the NAT state machine:
/// `0` = egress(host, id), `1` = ingress(ext), `2` = sweep, `3` = wait.
fn arb_nat_op() -> impl Strategy<Value = (u8, u8, u16, u64)> {
    (0u8..4, any::<u8>(), any::<u16>(), 0u64..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// NAT connection table vs an exact model, under arbitrary
    /// egress/ingress/sweep/wait interleavings: every live mapping
    /// round-trips, no two live connections share an external
    /// identifier, and idle/LRU eviction behaves deterministically.
    #[test]
    fn nat_state_machine_matches_model_under_interleavings(
        ops in proptest::collection::vec(arb_nat_op(), 1..80),
    ) {
        const IDLE_NS: u64 = 1_000;
        const MAX_CONNS: usize = 4;
        let mut nat = NatTable::new();
        nat.configure(NatConfig {
            external_ip: std::net::Ipv4Addr::new(198, 18, 0, 254),
            port_lo: 49152,
            port_hi: 49159, // 8 ids for 4 conns: allocation never starves
            idle_timeout_ns: IDLE_NS,
            max_conns: MAX_CONNS,
        });
        // Model: token → (proto, int_ip, int_id, ext_id, last_used).
        let mut model: std::collections::BTreeMap<u64, (NatProto, std::net::Ipv4Addr, u16, u16, u64)> =
            std::collections::BTreeMap::new();
        let mut now = 0u64;
        let protos = [NatProto::Tcp, NatProto::Udp, NatProto::Icmp];
        for &(kind, host, id16, dt) in &ops {
            match kind {
                0 => {
                    // Egress from a small key space (2 ips × 4 ids × 3
                    // protos) to force reuse and LRU churn.
                    let proto = protos[usize::from(host) % 3];
                    let int_ip = std::net::Ipv4Addr::new(10, 0, 0, 1 + host % 2);
                    let int_id = id16 % 4;
                    let existing = model
                        .iter()
                        .find(|(_, c)| (c.0, c.1, c.2) == (proto, int_ip, int_id))
                        .map(|(&t, _)| t);
                    let m = nat.egress(proto, int_ip, int_id, now).expect("configured");
                    match existing {
                        Some(t) => {
                            let c = model.get_mut(&t).unwrap();
                            prop_assert_eq!(m.ext_id, c.3, "stable mapping for a live flow");
                            prop_assert!(!m.evicted);
                            c.4 = now;
                        }
                        None => {
                            let full = model.len() == MAX_CONNS;
                            prop_assert_eq!(m.evicted, full, "evict exactly when full");
                            if full {
                                // LRU = least (last_used, token), as documented.
                                let lru = *model
                                    .iter()
                                    .min_by_key(|(&t, c)| (c.4, t))
                                    .map(|(t, _)| t)
                                    .unwrap();
                                model.remove(&lru);
                            }
                            prop_assert!(
                                model.values().all(|c| c.3 != m.ext_id),
                                "external id {} handed out twice", m.ext_id
                            );
                            model.insert(m.token, (proto, int_ip, int_id, m.ext_id, now));
                        }
                    }
                    // Round-trip: the mapping must reverse immediately.
                    let back = nat.ingress(proto, m.ext_id, now).expect("fresh mapping reverses");
                    prop_assert_eq!((back.int_ip, back.int_id), (int_ip, int_id));
                    prop_assert_eq!(back.token, m.token);
                }
                1 => {
                    // Ingress for an arbitrary external id (sometimes a
                    // live one, sometimes garbage / wrong protocol).
                    let proto = protos[usize::from(host) % 3];
                    let ext = 49152 + id16 % 10;
                    let want = model
                        .iter()
                        .find(|(_, c)| c.3 == ext)
                        .map(|(&t, c)| (c.0 == proto).then_some((t, c.1, c.2)));
                    let got = nat.ingress(proto, ext, now);
                    match want {
                        Some(Some((t, ip, id))) => {
                            let got = got.expect("live mapping answers");
                            prop_assert_eq!((got.token, got.int_ip, got.int_id), (t, ip, id));
                            model.get_mut(&t).unwrap().4 = now;
                        }
                        _ => prop_assert!(got.is_none(), "dead/mismatched ext id must drop"),
                    }
                }
                2 => {
                    let dead: Vec<u64> = model
                        .iter()
                        .filter(|(_, c)| now.saturating_sub(c.4) >= IDLE_NS)
                        .map(|(&t, _)| t)
                        .collect();
                    prop_assert_eq!(nat.sweep(now), dead.len(), "idle reclaim count");
                    for t in dead {
                        model.remove(&t);
                    }
                }
                _ => now += dt,
            }
            prop_assert_eq!(nat.live_conns(), model.len());
            let exts: std::collections::HashSet<u16> = model.values().map(|c| c.3).collect();
            prop_assert_eq!(exts.len(), model.len(), "live external ids must be unique");
        }
    }

    /// The edge-router pipeline (classifier → NAT → LPM routes) must
    /// behave identically whether frames arrive one per batch or as one
    /// batch: same rewritten bytes, same drops, same traces, same TTL
    /// expiries, same NAT connection state — also when the pool is small
    /// enough that connections evict each other (and bump the epoch)
    /// in the middle of the batch.
    #[test]
    fn routed_nat_pipeline_batch_equals_one_frame_batches(
        packets in proptest::collection::vec((0u8..4, 0u8..3, 0u16..8, any::<bool>()), 1..60),
        mode_sel in 0usize..3,
        small_pool in any::<bool>(),
    ) {
        use openflow::{Instruction, NatDir};
        let mode = [
            PipelineMode::linear(),
            PipelineMode::tss(),
            PipelineMode::full(),
        ][mode_sel];
        let ext = std::net::Ipv4Addr::new(198, 18, 0, 254);
        let router_mac = MacAddr::host(0x4e);
        let build = || {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
            for p in 1..=4 {
                dp.add_port(p, format!("p{p}"), 1_000_000);
            }
            dp.set_router(std::net::Ipv4Addr::new(10, 0, 255, 254), router_mac);
            let mut nat = softswitch::NatConfig::new(ext);
            if small_pool {
                nat.port_hi = nat.port_lo + 1;
            }
            dp.configure_nat(nat);
            // Table 0: IPv4 classifier. Table 1: reverse NAT for the
            // external address, else fall through. Table 2: LPM routes.
            dp.apply_flow_mod(
                &FlowMod::add(0).priority(10).match_(Match::new().eth_type(0x0800)).goto(1),
                0,
            ).unwrap();
            dp.apply_flow_mod(
                &FlowMod::add(1).priority(50)
                    .match_(Match::new().eth_type(0x0800).ipv4_dst(ext))
                    .instructions(vec![
                        Instruction::ApplyActions(vec![Action::Nat(NatDir::Ingress)]),
                        Instruction::GotoTable(2),
                    ]),
                0,
            ).unwrap();
            dp.apply_flow_mod(&FlowMod::add(1).priority(0).goto(2), 0).unwrap();
            let route = |prefix: [u8; 4], len: u8, prio: u16, nat: Option<NatDir>, out: u32| {
                let mask = std::net::Ipv4Addr::from(controller::apps::router::prefix_mask(len));
                let m = if len == 0 {
                    Match::new().eth_type(0x0800)
                } else {
                    Match::new().eth_type(0x0800)
                        .ipv4_dst_masked(std::net::Ipv4Addr::from(prefix), mask)
                };
                let mut acts = vec![Action::DecNwTtl];
                if let Some(dir) = nat {
                    acts.push(Action::Nat(dir));
                }
                acts.push(Action::SetField(OxmField::EthSrc(router_mac, None)));
                acts.push(Action::SetField(OxmField::EthDst(MacAddr::host(0x77), None)));
                acts.push(Action::output(out));
                FlowMod::add(2).priority(prio).match_(m).apply(acts)
            };
            dp.apply_flow_mod(&route([10, 0, 0, 2], 32, 72, None, 2), 0).unwrap();
            dp.apply_flow_mod(&route([10, 1, 0, 0], 16, 56, None, 3), 0).unwrap();
            dp.apply_flow_mod(&route([0, 0, 0, 0], 0, 40, Some(NatDir::Egress), 4), 0).unwrap();
            dp
        };
        let frame = |&(kind, host, port, low_ttl): &(u8, u8, u16, bool)| -> Bytes {
            let src = std::net::Ipv4Addr::new(10, 0, 0, 1 + host);
            // Local /32, aggregate /16, NAT'd default route, and
            // inbound-to-external (reverse NAT, drops unless a prior
            // egress packet established the connection).
            let dst = match kind {
                0 => std::net::Ipv4Addr::new(10, 0, 0, 2),
                1 => std::net::Ipv4Addr::new(10, 1, 0, 5),
                2 => std::net::Ipv4Addr::new(8, 8, 8, 8),
                _ => ext,
            };
            let f = builder::udp_packet(
                MacAddr::host(u32::from(host)), router_mac, src, dst,
                1000 + port, 49152 + port, b"pl",
            );
            if low_ttl {
                let mut buf = bytes::BytesMut::from(&f[..]);
                set_ttl(&mut buf, 1);
                buf.freeze()
            } else {
                f
            }
        };
        let now = 7u64;
        let mut seq_dp = build();
        let sequential: Vec<_> =
            packets.iter().map(|p| run_one(&mut seq_dp, 1, frame(p), now)).collect();
        let mut batch_dp = build();
        let mut batch: FrameBatch = packets.iter().map(|p| (1u32, frame(p))).collect();
        let batched = run_batch(&mut batch_dp, &mut batch, now);
        prop_assert_eq!(batched.len(), sequential.len());
        for (i, s) in sequential.iter().enumerate() {
            prop_assert_eq!(s.outputs_of(0), batched.outputs_of(i),
                "rewritten frames of packet {}", i);
            prop_assert_eq!(s.frame(0).dropped, batched.frame(i).dropped,
                "drop decision of packet {}", i);
            prop_assert_eq!(s.packet_ins_of(0), batched.packet_ins_of(i),
                "packet-ins of packet {}", i);
            prop_assert_eq!(s.frame(0).trace, batched.frame(i).trace, "trace of packet {}", i);
        }
        prop_assert_eq!(seq_dp.stats(), batch_dp.stats());
        prop_assert_eq!(seq_dp.nat().created(), batch_dp.nat().created());
        prop_assert_eq!(seq_dp.nat().evicted_lru(), batch_dp.nat().evicted_lru());
        prop_assert_eq!(seq_dp.nat().live_conns(), batch_dp.nat().live_conns());
    }

    /// The routing stage's incremental TTL/checksum patch produces, at
    /// every hop, exactly the checksum a full `netpkt::checksum`
    /// recompute over the header yields — until the TTL hits 1, at
    /// which point the frame is left untouched.
    #[test]
    fn ttl_decrement_patches_checksum_like_a_full_recompute(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let frame = builder::udp_packet(
            MacAddr::host(1), MacAddr::host(2), src, dst, sport, dport, &payload,
        );
        let mut buf = bytes::BytesMut::from(&frame[..]);
        set_ttl(&mut buf, ttl);
        let ip_of = |buf: &[u8]| netpkt::ipv4::Header::parse(&mut &buf[14..]).unwrap();
        for hop in 0..4u8 {
            let before = ip_of(&buf).ttl;
            let res = dec_ttl(&mut buf);
            let ip = ip_of(&buf);
            if before <= 1 {
                prop_assert_eq!(res, TtlResult::Expired);
                prop_assert_eq!(ip.ttl, before, "expired frames stay untouched");
                break;
            }
            prop_assert_eq!(res, TtlResult::Decremented, "hop {}", hop);
            prop_assert_eq!(ip.ttl, before - 1);
            // Oracle: zero the checksum field and recompute from scratch.
            let mut hdr = buf[14..14 + ip.header_len].to_vec();
            hdr[10] = 0;
            hdr[11] = 0;
            prop_assert_eq!(
                netpkt::checksum::checksum(&hdr),
                ip.checksum,
                "incremental patch diverged from full recompute at hop {}", hop
            );
            prop_assert!(netpkt::checksum::verify(&buf[14..14 + ip.header_len]));
        }
    }
}

/// The rule digest of every software datapath of `fx` (each pod's SS_2,
/// a soft spine), in that order: what two runs that claim the same
/// converged state must share.
fn rule_fingerprint(net: &netsim::Network, fx: &harmless::fabric::Fabric) -> Vec<u64> {
    let mut nodes: Vec<_> = fx.pods().map(|p| p.ss2).collect();
    if let Some(harmless::fabric::Spine::Soft(spine)) = fx.spine() {
        nodes.push(spine);
    }
    nodes
        .iter()
        .map(|&n| {
            net.node_ref::<softswitch::SoftSwitchNode>(n)
                .datapath()
                .rule_digest()
        })
        .collect()
}

/// One rule of the table-digest property: priority, `eth_dst` value and
/// mask, cookie, idle and hard timeouts, flags and program.
type DigestRule = (u16, [u8; 6], [u8; 6], u64, u16, u16, u16, Vec<Action>);

/// [`openflow::FlowTable::digest`] of a table that installed `rules` in
/// the order `order` names them.
fn table_digest(rules: &[DigestRule], order: impl Iterator<Item = usize>) -> u64 {
    let mut table = openflow::FlowTable::new(openflow::TableId(0));
    for i in order {
        let (priority, mac, mask, cookie, idle, hard, flags, ref actions) = rules[i];
        let m = Match::new().with(OxmField::EthDst(MacAddr(mac), Some(MacAddr(mask))));
        let (key, mask) = m.to_key_mask();
        let program = openflow::Program::new(&Instruction::apply(actions.clone()));
        let mut e = openflow::FlowEntry::new(priority, m, program, 0);
        (e.cookie, e.idle_timeout, e.hard_timeout, e.flags) = (cookie, idle, hard, flags);
        table.add(e, key, mask).expect("no overlap check");
    }
    table.digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The rule digest reads the rules, not how they arrived: two
    /// insertion orders of one rule set give one digest, and any one
    /// field of one rule changed gives another.
    #[test]
    fn table_digest_is_order_free_and_sees_every_field(
        drawn in proptest::collection::vec(
            (
                any::<u8>(),
                any::<[u8; 6]>(),
                any::<[u8; 6]>(),
                (any::<u64>(), any::<u16>(), any::<u16>(), any::<u16>()),
                arb_program(),
            ),
            1..16,
        ),
        shift in any::<usize>(),
        pick in any::<usize>(),
        field in 0usize..8,
    ) {
        // Distinct priorities: no add replaces another, whatever the order.
        let rules: Vec<DigestRule> = drawn
            .into_iter()
            .enumerate()
            .map(|(i, (low, mac, mut mask, (cookie, idle, hard, flags), actions))| {
                // The last bit of the MAC is always matched, so flipping
                // it moves the key.
                mask[5] |= 1;
                let flags = flags & !openflow::table::flow_flags::CHECK_OVERLAP;
                ((i as u16) << 8 | u16::from(low), mac, mask, cookie, idle, hard, flags, actions)
            })
            .collect();
        let n = rules.len();
        let digest = table_digest(&rules, 0..n);
        let shuffled = (0..n).rev().map(|i| (i + shift % n) % n);
        prop_assert_eq!(table_digest(&rules, shuffled), digest, "insertion order");

        let mut changed = rules.clone();
        let r = &mut changed[pick % n];
        match field {
            0 => r.0 ^= 1,
            1 => r.1[5] ^= 1,
            2 => r.2[0] ^= 0x80,
            3 => r.3 ^= 1,
            4 => r.4 ^= 1,
            5 => r.5 ^= 1,
            6 => r.6 ^= openflow::table::flow_flags::SEND_FLOW_REM,
            _ => r.7.push(Action::PopVlan),
        }
        prop_assert_ne!(table_digest(&changed, 0..n), digest, "field {} of rule {}", field, pick % n);
    }
}

/// The controller of [`run_lossy_fabric`]: the fabric ARP proxy ahead
/// of a learning switch.
fn fabric_controller() -> controller::ControllerNode {
    controller::ControllerNode::new(
        "ctrl",
        vec![
            Box::new(controller::apps::ArpProxy::new()),
            Box::new(controller::apps::LearningSwitch::new()),
        ],
    )
}

/// Build a two-pod soft-spine fabric around the controller `ctrl`, with
/// a host on the first access port of each pod, run it for 3 s on a
/// control channel impaired by `profile` (on `threads` worker threads,
/// if given), then heal the channel and let it quiesce until 6 s.
fn run_lossy_fabric(
    net: &mut netsim::Network,
    ctrl: netsim::NodeId,
    profile: netsim::CtrlProfile,
    threads: Option<usize>,
) -> harmless::fabric::Fabric {
    use harmless::fabric::{FabricSpec, Interconnect};
    use harmless::instance::HarmlessSpec;
    use netsim::{CtrlProfile, SimTime};

    let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true)
        .build(net)
        .expect("valid fabric spec");
    fx.configure_direct(net);
    fx.connect_controller(net, ctrl);
    fx.attach_host(net, 0, 1).expect("free port");
    fx.attach_host(net, 1, 1).expect("free port");
    // Keepalives as E9 sets them: two missed 50 ms probes end a
    // session, which a retransmission stall alone never does.
    fx.for_each_softswitch(net, |sw| {
        sw.set_keepalive(SimTime::from_millis(50), 2);
        sw.set_backoff(SimTime::from_millis(50), SimTime::from_millis(200));
    });
    net.set_ctrl_profile(profile);
    if let Some(t) = threads {
        net.set_shards(&fx.shard_map());
        net.set_threads(t);
    }
    net.run_until(SimTime::from_secs(3));
    // Heal the channel and let it quiesce: the convergence claim is
    // about where the state settles once the impairment ends, not about
    // a snapshot taken while a stalled flush is still on its way.
    net.set_ctrl_profile(CtrlProfile::lossless());
    net.run_until(SimTime::from_secs(6));
    fx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fail-standalone equivalence: with the controller unreachable
    /// from the first instant and every software switch in
    /// `FailMode::Standalone`, cross-pod traffic must arrive with
    /// identical application-visible content to the plain legacy-L2
    /// world — the local flood fallback stands in for the reactive SDN
    /// path, invisibly above L2.
    #[test]
    fn fail_standalone_equals_legacy_direct(
        src_port in 1u16..5,
        dst_port in 1u16..5,
        dport in 1u16..1024,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        use harmless::fabric::{FabricSpec, Interconnect};
        use harmless::instance::HarmlessSpec;
        use netsim::host::Host;
        use netsim::{LinkSpec, Network, PortId, SimTime};
        use softswitch::FailMode;

        let deliver = |net: &mut Network, a: netsim::NodeId, b: netsim::NodeId,
                       dst_ip: std::net::Ipv4Addr, dport: u16, payload: &[u8]| {
            net.run_until(SimTime::from_millis(100));
            let p = payload.to_vec();
            net.with_node_ctx::<Host, _>(a, move |h, ctx| {
                h.send_udp(dst_ip, dport, &p);
                h.ping(b"equivalence", dst_ip);
                h.flush(ctx);
            });
            net.run_until(SimTime::from_millis(600));
            let replies = net.node_ref::<Host>(a).echo_replies_received();
            let mail: Vec<(std::net::Ipv4Addr, u16, u16, Vec<u8>)> = net
                .node_ref::<Host>(b)
                .mailbox()
                .iter()
                .map(|d| (d.src_ip, d.src_port, d.dst_port, d.payload.to_vec()))
                .collect();
            (replies, mail)
        };

        // World 1: the HARMLESS fabric whose controller is partitioned
        // away before anything runs. Fast keepalives declare it dead
        // well inside the warm-up window; fail-standalone takes over.
        let (standalone_replies, standalone_mail) = {
            let mut net = Network::new(4242);
            let ctrl = net.add_node(controller::ControllerNode::new(
                "ctrl",
                vec![Box::new(controller::apps::LearningSwitch::new())],
            ));
            let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
                .with_interconnect(Interconnect::SpineLegacy)
                .build(&mut net)
                .expect("valid fabric spec");
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            fx.for_each_softswitch(&mut net, |sw| {
                sw.set_fail_mode(FailMode::Standalone);
                sw.set_keepalive(SimTime::from_millis(20), 2);
                sw.set_backoff(SimTime::from_millis(20), SimTime::from_millis(80));
            });
            net.schedule_ctrl_down(net.now(), ctrl);
            let a = fx.attach_host(&mut net, 0, src_port).expect("free port");
            let b = fx.attach_host(&mut net, 1, dst_port).expect("free port");
            let dst_ip = fx.host_ip(1, dst_port);
            deliver(&mut net, a, b, dst_ip, dport, &payload)
        };

        // World 2: the same stations on plain factory-default legacy
        // switches behind the same spine — no VLANs, no SDN.
        let (legacy_replies, legacy_mail) = {
            let mut net = Network::new(4242);
            let sw0 = net.add_node(legacy_switch::LegacySwitchNode::new("sw0", 5));
            let sw1 = net.add_node(legacy_switch::LegacySwitchNode::new("sw1", 5));
            let spine = net.add_node(legacy_switch::LegacySwitchNode::new("spine", 2));
            net.connect(sw0, PortId(5), spine, PortId(1), LinkSpec::ten_gigabit());
            net.connect(sw1, PortId(5), spine, PortId(2), LinkSpec::ten_gigabit());
            let a = net.add_node(Host::new(
                "a",
                MacAddr::host(u32::from(src_port)),
                std::net::Ipv4Addr::new(10, 0, 0, src_port as u8),
            ));
            let b = net.add_node(Host::new(
                "b",
                MacAddr::host(1 << 16 | u32::from(dst_port)),
                std::net::Ipv4Addr::new(10, 1, 0, dst_port as u8),
            ));
            net.connect(a, PortId(0), sw0, PortId(src_port), LinkSpec::gigabit());
            net.connect(b, PortId(0), sw1, PortId(dst_port), LinkSpec::gigabit());
            let dst_ip = std::net::Ipv4Addr::new(10, 1, 0, dst_port as u8);
            deliver(&mut net, a, b, dst_ip, dport, &payload)
        };

        prop_assert_eq!(standalone_replies, 1, "standalone ping must complete");
        prop_assert_eq!(legacy_replies, 1, "legacy ping must complete");
        prop_assert_eq!(standalone_mail, legacy_mail,
            "datagrams must arrive identically with a dead controller");
    }

    /// Convergence on an impaired channel: on a control channel that
    /// randomly stalls (a loss sent again one RTO later) and jitters
    /// messages, every datapath must converge to the *exact* rule set
    /// of a lossless run — and the whole impaired run must be
    /// bit-identical for any worker-thread count.
    #[test]
    fn lossy_ctrl_resync_converges_to_fault_free_rules(
        seed in any::<u64>(),
        drop in 0.02f64..0.15,
        jitter in 0.0f64..0.10,
        threads in 2usize..=4,
    ) {
        use netsim::{CtrlProfile, Network, SimTime};

        let run = |profile: CtrlProfile, threads: Option<usize>| {
            let mut net = Network::new(seed);
            let ctrl = net.add_node(fabric_controller());
            let fx = run_lossy_fabric(&mut net, ctrl, profile, threads);
            let rules = rule_fingerprint(&net, &fx);
            (rules, net.events_processed(), net.ctrl_stats().dropped)
        };

        let profile = CtrlProfile::lossy(drop).with_jitter(jitter, SimTime::from_micros(200));
        let clean = run(CtrlProfile::lossless(), None);
        let lossy = run(profile, Some(1));
        prop_assert_eq!(&lossy.0, &clean.0,
            "impaired control channel must converge to the fault-free rule set");
        let sharded = run(profile, Some(threads));
        prop_assert_eq!(
            (&sharded.0, sharded.1, sharded.2),
            (&lossy.0, lossy.1, lossy.2),
            "impaired run must be bit-identical for any thread count"
        );
    }
}

/// One step of a random attachment history, already checked against a
/// model of the table so that every world replays the same valid steps.
#[derive(Debug, Clone, Copy)]
enum FabricOp {
    Host((usize, u16)),
    Station((usize, u16)),
    Detach((usize, u16)),
    Migrate((usize, u16), (usize, u16)),
}

/// Turn raw `(kind, pod, port, pod, port)` draws into the steps that are
/// valid when applied in order. Identities stay unique: a port whose
/// identity travelled away with a migrated host takes no new station
/// until that host is detached.
fn plan_fabric_ops(raw: &[(u8, usize, u16, usize, u16)]) -> Vec<FabricOp> {
    // occupied port → (home port of the identity it carries, is a host)
    let mut table = std::collections::BTreeMap::<(usize, u16), ((usize, u16), bool)>::new();
    let mut ops = Vec::new();
    for &(kind, p, i, q, j) in raw {
        let (a, b) = ((p, i), (q, j));
        match kind {
            0 | 1 => {
                if !table.contains_key(&a) && !table.values().any(|&(home, _)| home == a) {
                    table.insert(a, (a, kind == 0));
                    ops.push(if kind == 0 {
                        FabricOp::Host(a)
                    } else {
                        FabricOp::Station(a)
                    });
                }
            }
            2 => {
                if table.remove(&a).is_some() {
                    ops.push(FabricOp::Detach(a));
                }
            }
            _ => {
                if !table.contains_key(&b) && matches!(table.get(&a), Some((_, true))) {
                    let row = table.remove(&a).expect("checked above");
                    table.insert(b, row);
                    ops.push(FabricOp::Migrate(a, b));
                }
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rule-set convergence, whatever the order things arrive in: over a
    /// random attach / attach_station / detach / migrate history, a
    /// controller wired before it (every step an incremental sync), a
    /// controller wired after it (one replay of the table), and a warm
    /// standby that joined somewhere in the middle and was then promoted
    /// by a master crash all leave every datapath with the same rules.
    #[test]
    fn every_controller_converges_to_the_same_rules(
        interconnect in 0usize..3,
        l3 in any::<bool>(),
        raw in proptest::collection::vec((0u8..4, 0usize..3, 1u16..4, 0usize..3, 1u16..4), 1..12),
        join in 0usize..12,
    ) {
        use controller::apps::{ArpProxy, LearningSwitch, Router};
        use controller::ControllerNode;
        use harmless::fabric::{FabricSpec, Interconnect};
        use harmless::instance::HarmlessSpec;
        use netsim::traffic::Sink;
        use netsim::{Network, SimTime};
        use openflow::ControllerRole;

        #[derive(Clone, Copy, PartialEq)]
        enum Wired { First, Last, StandbyJoinsAt(usize) }

        let ops = plan_fabric_ops(&raw);
        let interconnect =
            [Interconnect::Line, Interconnect::SpineSoft, Interconnect::SpineLegacy][interconnect];
        let run = |wired: Wired| -> Vec<u64> {
            let mut net = Network::new(7);
            let apps = || -> Vec<Box<dyn controller::App>> {
                if l3 {
                    vec![Box::new(ArpProxy::new()), Box::new(Router::new())]
                } else {
                    vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
                }
            };
            let primary = net.add_node(
                ControllerNode::new("primary", apps()).with_role(ControllerRole::Master, 1),
            );
            let standby = net.add_node(
                ControllerNode::new("standby", apps()).with_role(ControllerRole::Slave, 2),
            );
            let mut spec = FabricSpec::new(3, HarmlessSpec::new(3))
                .with_interconnect(interconnect)
                .with_arp_proxy(true);
            if l3 {
                spec = spec.with_l3_routing();
            }
            let mut fx = spec.build(&mut net).expect("valid fabric spec");
            fx.configure_direct(&mut net);
            fx.for_each_softswitch(&mut net, |sw| {
                sw.set_keepalive(SimTime::from_millis(50), 2);
                sw.set_backoff(SimTime::from_millis(50), SimTime::from_millis(200));
            });
            if wired != Wired::Last {
                // Handshakes complete before the first step, so every
                // step reaches the datapaths as an incremental sync.
                fx.connect_controller(&mut net, primary);
                net.run_for(SimTime::from_millis(100));
            }
            for i in 0..=ops.len() {
                if wired == Wired::StandbyJoinsAt(i) {
                    fx.connect_backup_controller(&mut net, standby);
                }
                let Some(&op) = ops.get(i) else { break };
                match op {
                    FabricOp::Host((pod, port)) => {
                        fx.attach_host(&mut net, pod, port).expect("planned step");
                    }
                    FabricOp::Station((pod, port)) => {
                        let sink = net.add_node(Sink::new("sink"));
                        fx.attach_station(&mut net, pod, port, sink).expect("planned step");
                    }
                    FabricOp::Detach((pod, port)) => {
                        fx.detach_host(&mut net, pod, port).expect("planned step");
                    }
                    FabricOp::Migrate(from, to) => {
                        fx.migrate_host(&mut net, from, to).expect("planned step");
                    }
                }
                if wired != Wired::Last {
                    net.run_for(SimTime::from_millis(10));
                }
            }
            match wired {
                Wired::First => {}
                // Wired before the network first runs, as the HELLOs go
                // out on start.
                Wired::Last => fx.connect_controller(&mut net, primary),
                Wired::StandbyJoinsAt(_) => {
                    net.run_for(SimTime::from_millis(200));
                    net.schedule_ctrl_down(net.now(), primary);
                }
            }
            net.run_for(SimTime::from_millis(1500));
            if let Wired::StandbyJoinsAt(_) = wired {
                let c = net.node_ref::<ControllerNode>(standby);
                assert_eq!(c.role(), ControllerRole::Master, "standby promoted");
                let datapaths = fx.n_pods() + usize::from(interconnect == Interconnect::SpineSoft);
                assert_eq!(c.ready_switches(), datapaths, "every datapath failed over");
            }
            rule_fingerprint(&net, &fx)
        };

        let first = run(Wired::First);
        prop_assert_eq!(&run(Wired::Last), &first,
            "a controller wired after the history must be told what one wired before it was");
        prop_assert_eq!(&run(Wired::StandbyJoinsAt(join.min(ops.len()))), &first,
            "a promoted standby must rebuild the primary's rule set");
    }
}

// ---------------------------------------------------------------------------
// The link serializer against its closed form
// ---------------------------------------------------------------------------

/// Link-oracle nodes: a sender that offers frame `i` (its index in the
/// first four bytes) to port 0 at a scheduled instant, and a receiver
/// that records what arrives and when.
mod link_oracle {
    use bytes::Bytes;
    use netsim::{Node, NodeCtx, PortId, SimTime};

    pub struct Sender {
        /// `(offer time, frame length)` in offer order.
        pub frames: Vec<(SimTime, usize)>,
    }

    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            for (i, (at, _)) in self.frames.iter().enumerate() {
                ctx.schedule(*at, i as u64);
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
            let mut frame = vec![0u8; self.frames[token as usize].1];
            frame[..4].copy_from_slice(&(token as u32).to_be_bytes());
            ctx.transmit(PortId(0), Bytes::from(frame));
        }
        fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {}
    }

    #[derive(Default)]
    pub struct Receiver {
        /// `(arrival ns, frame index)` in arrival order.
        pub arrivals: Vec<(u64, u32)>,
    }

    impl Node for Receiver {
        fn on_packet(&mut self, _port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
            let idx = u32::from_be_bytes(frame[..4].try_into().expect("four bytes"));
            self.arrivals.push((ctx.now().as_nanos(), idx));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One link direction against its closed form. Frame `i`, offered at
    /// `t_i`, starts at `max(t_i, done_{i-1})`, is done one serialization
    /// time later and arrives one propagation delay after that; a frame
    /// waits in the egress queue from its offer to its start, and an
    /// offer that would push the waiting bytes over `queue_bytes` is
    /// tail-dropped. A link-down blackholes what waits, what is offered
    /// while it lasts and what is still in flight when it arrives. Every
    /// delivery instant and every `LinkStats` field must match — the
    /// serializer keeps no event for an idle link, so this is what pins
    /// that it still is one.
    ///
    /// Offers, serialization times and the delay are even numbers of ns
    /// and fault instants odd, so no fault ties with a frame event. With
    /// `grid` set, offers and serialization times are whole microseconds,
    /// so offers keep landing on the instant a queued frame starts: it
    /// has left the queue by then, whichever event the simulator ran
    /// first.
    #[test]
    fn link_matches_closed_form_serializer(
        offers in proptest::collection::vec((0u64..6_000, 60usize..=1514), 1..40),
        grid in any::<bool>(),
        delay_half in 0u64..2_000,
        queue_bytes in 1_514usize..6_000,
        fault in proptest::option::of((0u64..100_000, 1u64..50_000)),
    ) {
        use link_oracle::{Receiver, Sender};
        use netsim::{LinkSpec, Network, PortId, SimTime};

        let spec = LinkSpec::gigabit()
            .with_delay(SimTime::from_nanos(2 * delay_half))
            .with_queue_bytes(queue_bytes);
        let ser = |len: usize| spec.ser_time(len).as_nanos();
        let delay = spec.delay.as_nanos();
        let mut t = 0;
        let frames: Vec<(u64, usize)> = offers
            .iter()
            .map(|&(gap_half, len)| {
                // On the grid: gaps of 0..6 µs, (len + 24) * 8 ns = 1..12 µs.
                let (gap, len) = if grid {
                    (1_000 * (gap_half % 7), 125 * (1 + len % 12) - 24)
                } else {
                    (2 * gap_half, len)
                };
                t += gap;
                (t, len)
            })
            .collect();
        let (down_at, up_at) = match fault {
            Some((d, lasts)) => (2 * d + 1, 2 * d + 1 + 2 * lasts),
            None => (u64::MAX, u64::MAX),
        };

        // The model. `sent` holds the frames the queue accepted, with
        // their start and done instants; those starting after `now` wait.
        struct Sent { idx: u32, len: usize, start: u64, done: u64 }
        let mut sent: Vec<Sent> = Vec::new();
        let (mut dropped, mut blackholed, mut max_queue) = (0u64, 0u64, 0usize);
        // The link-down, applied once: what still waits then is lost.
        let mut cut = Some(|sent: &mut Vec<Sent>| {
            let waiting = sent.iter().filter(|s| s.start > down_at).count();
            sent.truncate(sent.len() - waiting);
            waiting as u64
        });
        for (i, &(at, len)) in frames.iter().enumerate() {
            if at > down_at {
                blackholed += cut.take().map_or(0, |cut| cut(&mut sent));
            }
            if at > down_at && at < up_at {
                blackholed += 1;
                continue;
            }
            let queued: usize = sent.iter().filter(|s| s.start > at).map(|s| s.len).sum();
            if queued + len > queue_bytes {
                dropped += 1;
                continue;
            }
            max_queue = max_queue.max(queued + len);
            let start = at.max(sent.last().map_or(0, |s| s.done));
            sent.push(Sent { idx: i as u32, len, start, done: start + ser(len) });
        }
        blackholed += cut.take().map_or(0, |cut| cut(&mut sent));
        let (arrived, lost_in_flight): (Vec<&Sent>, Vec<&Sent>) = sent
            .iter()
            .partition(|s| !(s.done + delay > down_at && s.done + delay < up_at));
        let expected: Vec<(u64, u32)> = arrived.iter().map(|s| (s.done + delay, s.idx)).collect();

        // The simulator.
        let mut net = Network::new(1);
        let tx = net.add_node(Sender {
            frames: frames.iter().map(|&(at, len)| (SimTime::from_nanos(at), len)).collect(),
        });
        let rx = net.add_node(Receiver::default());
        net.connect(tx, PortId(0), rx, PortId(0), spec);
        if fault.is_some() {
            net.schedule_link_down(SimTime::from_nanos(down_at), tx, PortId(0));
            net.schedule_link_up(SimTime::from_nanos(up_at), tx, PortId(0));
        }
        net.run_until_idle();

        prop_assert_eq!(&net.node_ref::<Receiver>(rx).arrivals, &expected);
        let stats = net.link_stats(tx, PortId(0)).expect("connected");
        prop_assert_eq!(stats.tx_frames, sent.len() as u64);
        prop_assert_eq!(stats.tx_bytes, sent.iter().map(|s| s.len as u64).sum::<u64>());
        prop_assert_eq!(stats.dropped_frames, dropped);
        prop_assert_eq!(stats.blackholed_frames, blackholed);
        prop_assert_eq!(stats.max_queue_bytes, max_queue);
        prop_assert_eq!(net.blackholed_frames(), blackholed + lost_in_flight.len() as u64);
        // Offer timers, deliveries (lost ones included), at most one
        // wake-up per frame sent, the two fault events per direction.
        let floor = (frames.len() + sent.len()) as u64 + if fault.is_some() { 4 } else { 0 };
        let events = net.events_processed();
        prop_assert!(events >= floor && events <= floor + sent.len() as u64,
            "{events} events for {} offers, {} sent", frames.len(), sent.len());
    }
}

// ---------------------------------------------------------------------------
// Frame ownership: rewritten in place only when nobody else can see it
// ---------------------------------------------------------------------------

/// Who else holds the frames a datapath is handed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Handover {
    /// Nobody: the datapath gets the only handle and may rewrite in place.
    Unique,
    /// The test keeps a clone of every frame it hands over.
    Retained,
}

/// Every handle the test still holds, beside the bytes it had when taken.
#[derive(Default)]
struct Ledger(Vec<(Bytes, Vec<u8>)>);

impl Ledger {
    fn hold(&mut self, frame: &Bytes) {
        self.0.push((frame.clone(), frame.to_vec()));
    }

    fn hold_emitted(&mut self, r: &BatchResult) {
        r.all_outputs().iter().for_each(|(_, f)| self.hold(f));
        r.all_packet_ins().iter().for_each(|(_, _, f)| self.hold(f));
    }

    /// Position of the first held frame whose bytes moved, if any.
    fn first_changed(&self) -> Option<usize> {
        self.0
            .iter()
            .position(|(held, bytes)| held[..] != bytes[..])
    }
}

/// One frame's service with no handle left in it: emitted bytes by port,
/// punted bytes, the drop decision, the execution-side trace counters.
type Seen = (
    Vec<(u32, Vec<u8>)>,
    Vec<Vec<u8>>,
    bool,
    (u32, u32, u32, bool),
);

fn see(r: &BatchResult, i: usize) -> Seen {
    let t = r.frame(i).trace.expect("datapath traces every frame");
    (
        r.outputs_of(i)
            .iter()
            .map(|(p, f)| (*p, f.to_vec()))
            .collect(),
        r.packet_ins_of(i)
            .iter()
            .map(|(_, _, f)| f.to_vec())
            .collect(),
        r.frame(i).dropped,
        (t.vlan_ops, t.set_fields, t.outputs, t.packet_in),
    )
}

/// Every frame of every arena, in service order.
fn see_all(arenas: &[BatchResult]) -> impl Iterator<Item = Seen> + '_ {
    arenas
        .iter()
        .flat_map(|r| (0..r.len()).map(move |i| see(r, i)))
}

/// Serve `inputs` as one batch, or as a batch of one frame each;
/// returns the arena of every call. Under [`Handover::Retained`] the
/// ledger holds a clone of every input from before the call; when
/// `hold_emitted`, of every emitted frame from as soon as the engine
/// returns it.
fn serve(
    dp: &mut Datapath,
    batched: bool,
    handover: Handover,
    inputs: Vec<(u32, Bytes)>,
    hold_emitted: bool,
    ledger: &mut Ledger,
) -> Vec<BatchResult> {
    if handover == Handover::Retained {
        inputs.iter().for_each(|(_, f)| ledger.hold(f));
    }
    let mut keep = |r: BatchResult| {
        if hold_emitted {
            ledger.hold_emitted(&r);
        }
        r
    };
    if batched {
        let mut batch: FrameBatch = inputs.into_iter().collect();
        vec![keep(run_batch(dp, &mut batch, 0))]
    } else {
        inputs
            .into_iter()
            .map(|(port, f)| keep(run_one(dp, port, f, 0)))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ownership rule behind in-place rewrites: whoever else holds a
    /// frame — the sender's clone, a flood sibling, a frame emitted
    /// earlier — never sees it change, and what a datapath emits does
    /// not depend on whether it was the frame's only holder. One frame
    /// per batch and batched, cached (`full`) and uncached (`linear`), with frames
    /// handed over uniquely or with a clone retained, all emit the same
    /// bytes over three rounds: fresh frames (slow path), the same
    /// frames again (cache replay), and what the first round
    /// emitted fed back in — moved, under `Unique`, so a pop's output
    /// meets the push that re-tags it as its sole holder.
    #[test]
    fn ownership_regimes_emit_identical_bytes_and_never_alias(
        groups in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(
                proptest::collection::vec(arb_exec_action(), 1..4), 1..4)),
            GROUPS..GROUPS + 1),
        rules in proptest::collection::vec((0u16..8, any::<bool>(), arb_program()), 1..12),
        packets in proptest::collection::vec((0u32..4, 0u16..8, any::<bool>()), 1..24),
    ) {
        let build = |mode: PipelineMode| {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
            for p in 1..=4 {
                dp.add_port(p, format!("p{p}"), 1_000_000);
            }
            for (gid, (type_sel, buckets)) in groups.iter().enumerate() {
                let type_ = [
                    openflow::GroupType::All,
                    openflow::GroupType::Select,
                    openflow::GroupType::Indirect,
                ][*type_sel];
                let n = if type_ == openflow::GroupType::Indirect { 1 } else { buckets.len() };
                let buckets = buckets[..n].iter().cloned().map(openflow::Bucket::new).collect();
                dp.apply_group_mod(
                    openflow::group::GroupModCommand::Add, type_, gid as u32, buckets,
                ).unwrap();
            }
            // As in `caches_preserve_forwarding_semantics`, a rule names
            // the tag state it serves.
            for (i, (dport, tagged, apply)) in rules.iter().enumerate() {
                let m = Match::new().eth_type(0x0800).ip_proto(17).udp_dst(*dport);
                let m = if *tagged { m.vlan(7) } else { m.untagged() };
                dp.apply_flow_mod(
                    &FlowMod::add(0).priority(10 + (i % 3) as u16).match_(m).apply(apply.clone()),
                    0,
                ).unwrap();
            }
            dp
        };
        let fresh = || -> Vec<(u32, Bytes)> {
            packets.iter().map(|&(src, dport, tagged)| {
                let frame = builder::udp_packet(
                    MacAddr::host(src),
                    MacAddr::host(2),
                    std::net::Ipv4Addr::from(0x0a00_0000 + src),
                    std::net::Ipv4Addr::new(10, 0, 0, 2),
                    1000,
                    dport,
                    b"whose bytes are these",
                );
                // A frame tagged through the borrowing API is a fresh
                // buffer with no room in front; an untagged one is the
                // builder's. Either way this is the only handle.
                (1, if tagged { push_vlan(&frame, VlanTag::new(7)).unwrap() } else { frame })
            }).collect()
        };
        let run = |mode: PipelineMode, batched: bool, handover: Handover| {
            let mut dp = build(mode);
            let mut ledger = Ledger::default();
            let retained = handover == Handover::Retained;
            let first = serve(&mut dp, batched, handover, fresh(), retained, &mut ledger);
            let mut seen: Vec<Seen> = see_all(&first).collect();
            let again = serve(&mut dp, batched, handover, fresh(), true, &mut ledger);
            seen.extend(see_all(&again));
            // Frames that went out with two tags or more stay out: a
            // flow key names the outer tag only, so a cache (rightly)
            // cannot tell ingress tag depths apart that the parser can.
            let fed_back: Vec<(u32, Bytes)> = first
                .iter()
                .flat_map(|r| r.all_outputs().iter().cloned())
                .filter(|(_, f)| {
                    netpkt::frame::Header::parse(&mut &f[..]).is_ok_and(|eth| eth.inner.is_none())
                })
                .collect();
            // The arenas let go: under `Unique` each fed-back frame is
            // down to one holder again.
            drop(first);
            let back = serve(&mut dp, batched, handover, fed_back, true, &mut ledger);
            seen.extend(see_all(&back));
            (seen, ledger.first_changed())
        };
        let (reference, changed) = run(PipelineMode::linear(), false, Handover::Retained);
        prop_assert_eq!(changed, None, "linear, single, retained: a held frame changed");
        for batched in [false, true] {
            for handover in [Handover::Unique, Handover::Retained] {
                let (seen, changed) = run(PipelineMode::full(), batched, handover);
                prop_assert_eq!(changed, None,
                    "full, batched {}, {:?}: a held frame changed", batched, handover);
                prop_assert_eq!(&seen, &reference, "full, batched {}, {:?}", batched, handover);
            }
        }
        let (seen, changed) = run(PipelineMode::linear(), false, Handover::Unique);
        prop_assert_eq!(changed, None, "linear, single, unique: a held frame changed");
        prop_assert_eq!(&seen, &reference, "linear, single, unique");
    }
}

/// The cache-less modes are cache-less in a batch too: repeats of a key
/// walk the tables every time (nothing resolved for one frame serves
/// the next), which is what makes `linear()` the oracle of the
/// properties above and the baseline of E11's ablation.
#[test]
fn cacheless_modes_walk_the_tables_for_every_frame_of_a_batch() {
    use softswitch::trace::LookupPath;
    let frame = |src: u32, dport: u16| {
        let (a, b) = (MacAddr::host(src), MacAddr::host(2));
        let ip = |h: u8| std::net::Ipv4Addr::new(10, 0, 0, h);
        builder::udp_packet(a, b, ip(src as u8), ip(2), 1000, dport, b"x")
    };
    for mode in [PipelineMode::linear(), PipelineMode::tss()] {
        let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
        for p in 1..=3 {
            dp.add_port(p, format!("p{p}"), 1_000_000);
        }
        for (dport, out) in [(53, 2), (80, 3)] {
            let m = Match::new().eth_type(0x0800).ip_proto(17).udp_dst(dport);
            let fm = FlowMod::add(0).priority(10).match_(m);
            dp.apply_flow_mod(&fm.apply(vec![Action::output(out)]), 0)
                .unwrap();
        }
        let mut batch: FrameBatch = [(1, 53), (1, 53), (2, 80), (1, 53), (2, 80)]
            .into_iter()
            .map(|(src, dport)| (1u32, frame(src, dport)))
            .collect();
        let r = run_batch(&mut dp, &mut batch, 0);
        assert!(batch.is_empty(), "processing drains the batch");
        let ports: Vec<u32> = (0..r.len()).map(|i| r.outputs_of(i)[0].0).collect();
        assert_eq!(ports, [2, 2, 3, 2, 3], "{mode:?}");
        let by_port = r.outputs_by_port();
        assert_eq!((by_port[&2].len(), by_port[&3].len()), (3, 2));
        for f in r.frames() {
            let path = f.trace.unwrap().path;
            assert!(
                matches!(path, LookupPath::SlowPath { tables: 1, .. }),
                "{mode:?}: {path:?}"
            );
        }
        assert_eq!(dp.table(0).unwrap().lookups(), 5, "{mode:?}");
    }
}

/// A frame too short for the rewrite its rule carries leaves as it came
/// (the dataplane is total: `FlowKey::extract_lossy` gives a runt a
/// zero key with the real `in_port`, so a port-only match is enough to
/// reach the action). Slow path and cached replay, alone and batched.
#[test]
fn runt_frames_pass_tag_actions_untouched() {
    const VID: u16 = 101;
    // A push needs the 14-byte header and finds no tag to inherit from
    // (every length here is too short to parse as tagged, or to pop);
    // an address rewrite needs the address to be there.
    type Expect = fn(&mut Vec<u8>);
    fn push(vid: u16, f: &mut Vec<u8>) {
        if f.len() >= 14 {
            f.splice(12..12, [0x81, 0x00, (vid >> 8) as u8, vid as u8]);
        }
    }
    fn set_mac(at: usize, f: &mut [u8]) {
        if let Some(mac) = f.get_mut(at..at + 6) {
            mac.copy_from_slice(&MacAddr::host(9).octets());
        }
    }
    let host9 = MacAddr::host(9);
    let programs: [(Vec<Action>, Expect); 5] = [
        (vec![Action::PopVlan], |_| {}),
        (vec![Action::PushVlan(0x8100)], |f| push(0, f)),
        (
            vec![Action::PushVlan(0x8100), Action::set_vlan_vid(VID)],
            |f| push(VID, f),
        ),
        (vec![Action::SetField(OxmField::EthDst(host9, None))], |f| {
            set_mac(0, f)
        }),
        (vec![Action::SetField(OxmField::EthSrc(host9, None))], |f| {
            set_mac(6, f)
        }),
    ];
    // Address bytes, then a tag (or an EtherType and payload) cut short.
    let tagged = [
        2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x81, 0x00, 0x00, 0x65, 0x08, 0x00,
    ];
    let plain = [
        2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00, 0x45, 0x00, 0x00, 0x1c,
    ];
    for (program, expect) in &programs {
        let program = [&program[..], &[Action::output(2)]].concat();
        let build = || {
            let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::full()));
            dp.add_port(1, "in", 1_000_000);
            dp.add_port(2, "out", 1_000_000);
            dp.apply_flow_mod(
                &FlowMod::add(0)
                    .priority(1)
                    .match_(Match::new().in_port(1))
                    .apply(program.clone()),
                0,
            )
            .unwrap();
            dp
        };
        for wire in [&tagged[..], &plain[..]] {
            for len in 0..=17 {
                let wire = &wire[..len];
                let mut expected = wire.to_vec();
                expect(&mut expected);
                let frame = || Bytes::from(wire.to_vec());
                let what = format!("{program:?} on {len} bytes");

                let mut dp = build();
                let slow = see(&run_one(&mut dp, 1, frame(), 0), 0);
                assert_eq!(slow.0, vec![(2, expected.clone())], "{what}");
                assert!(!slow.2, "{what}");
                assert_eq!(
                    see(&run_one(&mut dp, 1, frame(), 1), 0),
                    slow,
                    "cached, {what}"
                );

                let mut dp = build();
                for round in 0..2 {
                    let mut batch: FrameBatch = (0..3).map(|_| (1, frame())).collect();
                    let r = run_batch(&mut dp, &mut batch, round);
                    for i in 0..r.len() {
                        assert_eq!(see(&r, i), slow, "batch {round} frame {i}, {what}");
                    }
                }
            }
        }
    }
}

/// The frame path is total (the data-plane twin of
/// `of_decoder_is_total_under_mutation`): every byte of every sample set
/// to each value — in debug builds a stride of them — and every cut go
/// through the flow key, the legacy bridge both ways, and one datapath
/// per `PipelineMode` running a program with every action (push and
/// pop, set-field, TTL, NAT both ways, a select group). Nothing panics,
/// and every cached mode serves each mutant exactly as the table walk
/// of `linear` does. NAT translates TCP, UDP and ICMP echoes (an echo
/// by its identifier, which the key does not carry, so a NAT'd echo is
/// never cached). One hole the flow key leaves is kept out, on ROADMAP:
/// the group is chosen before anything pops, so the key decides it (tag
/// depth, direction 6). The jumbo's payload is opaque bytes: its
/// headers are swept and all of it is cut.
#[test]
fn frame_path_is_total_under_mutation() {
    use netpkt::{frame, ipv4, EtherType};
    use openflow::group::GroupModCommand;
    use openflow::{Bucket, GroupType, Instruction, NatDir};
    let ip = std::net::Ipv4Addr::new;
    let (inside, outside, ext) = (ip(10, 0, 0, 1), ip(8, 8, 8, 8), ip(198, 18, 0, 254));
    let (h1, h2) = (MacAddr::host(1), MacAddr::host(2));
    // The sample with four option bytes (NOP, NOP, NOP, EOL) in its
    // IPv4 header.
    let with_options = |f: &Bytes| -> Bytes {
        let at = frame::HEADER_LEN;
        let mut ip = ipv4::Header::parse(&mut &f[at..]).unwrap();
        ip.header_len += 4;
        ip.total_len += 4;
        let mut out = f[..at + ipv4::HEADER_LEN].to_vec();
        out.extend_from_slice(&[1, 1, 1, 0]);
        out.extend_from_slice(&f[at + ipv4::HEADER_LEN..]);
        ip.write(&mut &mut out[at..]).unwrap();
        ipv4::fill_checksum(&mut out[at..at + ip.header_len]);
        Bytes::from(out)
    };
    let udp = builder::udp_packet(h1, h2, inside, outside, 40000, 53, b"query");
    let syn = netpkt::tcp::flags::SYN;
    let tcp = builder::tcp_packet(h1, h2, inside, outside, 40001, 80, syn, b"");
    let icmp = builder::icmp_echo_request(h1, h2, inside, outside, 7, 1, b"ping");
    let one_tag = push_vlan(&udp, VlanTag::new(101)).unwrap();
    let qinq = EtherType::QINQ;
    let two_tags = netpkt::vlan::push_vlan_tpid(&one_tag, VlanTag::new(7), qinq).unwrap();
    let samples = [
        ("arp", builder::arp_request(h1, inside, outside)),
        ("udp_options", with_options(&udp)),
        ("tcp_options", with_options(&tcp)),
        ("icmp_options", with_options(&icmp)),
        ("ipv6", ipv6_udp("fd00::1".parse().unwrap())),
        ("one_tag", one_tag),
        ("two_tags", two_tags),
        ("runt", udp.slice(..10)),
        ("udp", udp),
        ("tcp", tcp),
        ("icmp", icmp),
        (
            "jumbo",
            builder::sized_udp_packet(h1, h2, inside, outside, 40002, 53, 9000),
        ),
    ];

    let modes = [
        PipelineMode::linear(),
        PipelineMode::tss(),
        PipelineMode::full(),
    ];
    let build = |mode: PipelineMode| {
        let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
        for p in 1..=4 {
            dp.add_port(p, format!("p{p}"), 1_000_000);
        }
        dp.set_router(ip(10, 0, 255, 254), MacAddr::host(0x4e));
        dp.configure_nat(softswitch::NatConfig::new(ext));
        let buckets = vec![
            Bucket::new(vec![
                Action::SetField(OxmField::UdpDst(5353)),
                Action::output(3),
            ]),
            Bucket::new(vec![
                Action::SetField(OxmField::TcpSrc(1234)),
                Action::output(4),
            ]),
        ];
        dp.apply_group_mod(GroupModCommand::Add, GroupType::Select, 1, buckets)
            .unwrap();
        let ipv4_from = |port| Match::new().in_port(port).eth_type(0x0800);
        let then_table_1 = |actions| {
            vec![
                Instruction::ApplyActions(actions),
                Instruction::GotoTable(1),
            ]
        };
        let to_inside = Action::SetField(OxmField::Ipv4Dst(inside, None));
        let mut rules = vec![FlowMod::add(0)
            .priority(30)
            .match_(ipv4_from(1))
            .instructions(then_table_1(vec![Action::DecNwTtl]))];
        for proto in [1, 6, 17] {
            let egress = vec![Action::DecNwTtl, Action::Nat(NatDir::Egress)];
            let ingress = vec![Action::Nat(NatDir::Ingress), to_inside.clone()];
            for (port, actions) in [(1, egress), (2, ingress)] {
                let m = ipv4_from(port).ip_proto(proto);
                let fm = FlowMod::add(0).priority(40).match_(m);
                rules.push(fm.instructions(then_table_1(actions)));
            }
        }
        for fm in rules.into_iter().chain([
            // Everything else, runts included.
            FlowMod::add(0).priority(10).goto(1),
            FlowMod::add(1).priority(10).apply(vec![
                Action::Group(1),
                Action::PushVlan(0x8100),
                Action::set_vlan_vid(5),
                Action::SetField(OxmField::VlanPcp(3)),
                Action::SetField(OxmField::EthDst(MacAddr::host(0x77), None)),
                Action::SetField(OxmField::IpDscp(46)),
                Action::output(2),
                Action::PopVlan,
                Action::output(1),
            ]),
        ]) {
            dp.apply_flow_mod(&fm, 0).unwrap();
        }
        dp
    };
    let mut dps: Vec<Datapath> = modes.iter().map(|&m| build(m)).collect();
    let mut bridge = legacy_switch::Bridge::new(3);
    bridge.make_access_port(1, 101).unwrap();
    bridge.make_trunk_port(2, &[7, 101]).unwrap();
    let (mut out, mut now) = (Vec::new(), 0u64);
    let mut check = |wire: &[u8], what: &dyn Fn() -> String| {
        now += 1;
        let frame = Bytes::copy_from_slice(wire);
        let _ = FlowKey::extract(1, &frame);
        for port in [1, 2] {
            bridge.forward_into(port, frame.clone(), now, &mut out);
            out.clear();
        }
        // Odd mutants leave by NAT egress, even ones come back in.
        let in_port = 1 + (now % 2) as u32;
        let mut seen = dps
            .iter_mut()
            .map(|dp| see(&run_one(dp, in_port, frame.clone(), now), 0));
        let linear = seen.next().unwrap();
        for (mode, cached) in modes[1..].iter().zip(seen) {
            assert_eq!(cached, linear, "{}: {mode:?} differs from linear", what());
        }
    };
    let debug = cfg!(debug_assertions);
    let values: Vec<u8> = (0..=u8::MAX).step_by(if debug { 3 } else { 1 }).collect();
    for (name, sample) in &samples {
        let mut wire = sample.to_vec();
        let jumbo = *name == "jumbo";
        for i in 0..if jumbo { 64 } else { wire.len() } {
            let orig = wire[i];
            for &v in values.iter().chain([orig ^ 1].iter()) {
                wire[i] = v;
                check(&wire, &|| format!("{name}: byte {i} = {v:#04x}"));
            }
            wire[i] = orig;
        }
        for cut in (0..wire.len()).step_by(if debug && jumbo { 61 } else { 1 }) {
            check(&wire[..cut], &|| format!("{name}: cut at {cut}"));
        }
    }
}
