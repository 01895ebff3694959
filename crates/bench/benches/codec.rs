//! Wire-codec microbenchmarks: OpenFlow 1.3 message encode/decode and
//! SNMP BER encode/decode — the per-operation control-plane costs behind
//! E3a and E6 — and a channel endpoint draining a chunk of messages.
//!
//! Each benchmark is timed by `bench::timing` and recorded as a `codec/*`
//! row of `BENCH_netsim.json`. The
//! `codec/openflow/decode_stream/{1,512,4096}_flow_mods` rows push one
//! chunk of that many flow-mods into a `Session` and take each message
//! as it decodes, in ns per message. The buffer is cut once per chunk
//! and only one decoded message is alive at a time, so nothing grows
//! with the chunk. Their `decode_into_vec` twins decode the same
//! messages into a vector with no channel: those grow with n, because
//! all of a chunk's messages are alive at once and stop fitting in
//! cache. The `codec/openflow/encode_into/{1,512}_flow_mods` rows append
//! n flow-mods to one send buffer, in ns per message, beside the
//! buffer-per-message `flow_mod_encode`. `codec/openflow/flow_mod_view`
//! reads the flow-mod `flow_mod_decode` decodes as the switch does,
//! as a view of its frame, and
//! `codec/openflow/agent_handle/512_route_flow_mods` pushes a chunk of
//! 512 host-route flow-mods through a switch's `OfAgent` into its
//! datapath, in ns per flow-mod: after the first call each one
//! replaces its own route, so the table stays at 512 rules. Its
//! `512_route_deletes` twin times a chunk of `DELETE_STRICT`s of the
//! same routes emptying the table, in ns per flow-mod; the adds that
//! refill it between steps are not timed.
//! `codec/openflow/route_build_encode/512` and `route_send/512` price a
//! controller's side of the same 512 routes, appended to one send
//! buffer, in ns per route: built with the `FlowMod` builder, encoded
//! and dropped, against written from parts on the stack, as the ARP
//! proxy sends them. `codec/snmp/set_round_trip` is one VLAN row write
//! end to end beside `set_encode` and `set_decode`: an `SnmpClient`
//! writes the Set, a legacy switch's agent reads it where it lies,
//! applies it to its bridge through a `BridgeMib` and answers, and the
//! client reads the answer.

use std::hint::black_box;
use std::time::Instant;

use bench::timing::Ledger;
use bytes::{Bytes, BytesMut};
use legacy_switch::mib::{BridgeMib, SysInfo};
use legacy_switch::Bridge;
use mgmt::pdu::{MessageRef, Pdu, PduType, SnmpMessage, Value};
use mgmt::{agent_respond, mibs, Oid, SnmpClient};
use netpkt::MacAddr;
use openflow::instruction::Insn;
use openflow::message::{FlowMod, FlowModHeader, FlowModParts, Message};
use openflow::{Action, FlowModCommand, Match, OxmField, Session};
use softswitch::agent::OfAgent;
use softswitch::datapath::{Datapath, DpConfig};

fn sample_flow_mod() -> Message {
    Message::FlowMod(
        FlowMod::add(0)
            .priority(100)
            .match_(
                Match::new()
                    .in_port(3)
                    .eth_type(0x0800)
                    .ip_proto(6)
                    .ipv4_dst("10.0.0.9".parse().unwrap())
                    .tcp_dst(80),
            )
            .apply(vec![Action::set_vlan_vid(101), Action::output(7)])
            .timeouts(30, 300)
            .cookie(0xdead_beef),
    )
}

fn sample_packet_in() -> Message {
    Message::PacketIn {
        buffer_id: openflow::NO_BUFFER,
        total_len: 128,
        reason: openflow::message::PacketInReason::NoMatch,
        table_id: 0,
        cookie: 0,
        match_: Match::new().in_port(5),
        data: Bytes::from(vec![0xa5u8; 128]),
    }
}

fn bench_openflow(rep: &mut Ledger) {
    let fm = sample_flow_mod();
    rep.calls("openflow/flow_mod_encode", 1, || {
        black_box(fm.encode(42));
    });
    // A controller's flush: n flow-mods appended to one send buffer,
    // which is then frozen for the channel.
    for n in [1u32, 512] {
        let name = format!("openflow/encode_into/{n}_flow_mods");
        rep.calls(&name, n.into(), || {
            let mut buf = BytesMut::new();
            for xid in 0..n {
                fm.encode_into(&mut buf, xid);
            }
            black_box(buf.freeze());
        });
    }
    let wire = fm.encode(42);
    rep.calls("openflow/flow_mod_decode", 1, || {
        black_box(Message::decode(&wire).unwrap());
    });
    rep.calls("openflow/flow_mod_view", 1, || {
        black_box(Message::decode_ref(&wire).unwrap());
    });
    bench_agent(rep);
    bench_route_send(rep);
    let pi = sample_packet_in();
    rep.calls("openflow/packet_in_encode", 1, || {
        black_box(pi.encode(43));
    });
    let wire = pi.encode(43);
    rep.calls("openflow/packet_in_decode", 1, || {
        black_box(Message::decode(&wire).unwrap());
    });
    // A chunk as the transport hands it over: a controller's burst of
    // flow-mods, whole.
    for n in [1u32, 512, 4096] {
        let chunk: Bytes = (0..n).flat_map(|xid| fm.encode(xid).to_vec()).collect();
        let mut session = Session::default();
        let name = format!("openflow/decode_stream/{n}_flow_mods");
        rep.calls(&name, n.into(), || {
            session.push(chunk.clone());
            while let Some(next) = session.next_message() {
                black_box(next.unwrap());
            }
        })
        .with(&[("chunk_bytes", chunk.len() as f64)]);
        // The same messages decoded one by one into a vector, with no
        // channel buffer: what holding n decoded messages costs.
        let name = format!("openflow/decode_into_vec/{n}_flow_mods");
        rep.calls(&name, n.into(), || {
            let (mut rest, mut msgs) = (&chunk[..], Vec::new());
            while let Ok((xid, msg, used)) = Message::decode(rest) {
                msgs.push((xid, msg));
                rest = &rest[used..];
            }
            black_box(msgs);
        });
    }
}

/// A switch's agent taking a controller's burst of host routes
/// (`eth_dst → output`, as the ARP proxy installs them) in one chunk.
fn bench_agent(rep: &mut Ledger) {
    const ROUTES: u32 = 512;
    let mut dp = Datapath::new(DpConfig::software(1));
    for p in 1..=4 {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    let mut agent = OfAgent::new("ss2");
    let mut chunk = BytesMut::new();
    for h in 0..ROUTES {
        let route = FlowMod::add(0)
            .priority(100)
            .match_(Match::new().eth_dst(MacAddr::host(h)))
            .apply(vec![Action::output(1 + h % 4)]);
        Message::FlowMod(route).encode_into(&mut chunk, h);
    }
    let chunk = chunk.freeze();
    let name = format!("openflow/agent_handle/{ROUTES}_route_flow_mods");
    rep.calls(&name, ROUTES.into(), || {
        let out = agent.handle(&mut dp, chunk.clone(), 0);
        black_box(out);
    });
    assert_eq!(dp.table(0).map(|t| t.len()), Some(ROUTES as usize));
    // The same routes taken out by DELETE_STRICT, one chunk per step;
    // the adds that put them back are not timed.
    let mut deletes = BytesMut::new();
    for h in 0..ROUTES {
        let route = FlowMod::add(0)
            .priority(100)
            .match_(Match::new().eth_dst(MacAddr::host(h)))
            .command(FlowModCommand::DeleteStrict);
        Message::FlowMod(route).encode_into(&mut deletes, h);
    }
    let deletes = deletes.freeze();
    let name = format!("openflow/agent_handle/{ROUTES}_route_deletes");
    rep.rounds(&name, || {
        let start = Instant::now();
        black_box(agent.handle(&mut dp, deletes.clone(), 0));
        let took = start.elapsed();
        assert_eq!(dp.table(0).map(|t| t.len()), Some(0));
        agent.handle(&mut dp, chunk.clone(), 0);
        (took, ROUTES.into())
    });
}

/// A controller's burst of host routes (`eth_dst → output`) appended to
/// one send buffer: each route built as an owned `FlowMod`, encoded and
/// dropped, against written from parts on the stack.
fn bench_route_send(rep: &mut Ledger) {
    const ROUTES: u32 = 512;
    let name = format!("openflow/route_build_encode/{ROUTES}");
    rep.calls(&name, ROUTES.into(), || {
        let mut buf = BytesMut::new();
        for h in 0..ROUTES {
            let route = FlowMod::add(0)
                .priority(20)
                .match_(Match::new().eth_dst(MacAddr::host(h)))
                .apply(vec![Action::output(1 + h % 4)]);
            Message::FlowMod(route).encode_into(&mut buf, h);
        }
        black_box(buf.freeze());
    });
    let name = format!("openflow/route_send/{ROUTES}");
    rep.calls(&name, ROUTES.into(), || {
        let mut buf = BytesMut::new();
        for h in 0..ROUTES {
            let route = FlowModParts::<&[Action]> {
                header: FlowModHeader {
                    priority: 20,
                    ..FlowModHeader::add(0)
                },
                match_: &[OxmField::EthDst(MacAddr::host(h), None)],
                instructions: &[Insn::ApplyActions(&[Action::output(1 + h % 4)])],
            };
            route.encode_into(&mut buf, h);
        }
        black_box(buf.freeze());
    });
}

fn sample_snmp_set() -> SnmpMessage {
    SnmpMessage::new(
        "public",
        Pdu::request(
            PduType::Set,
            1,
            vec![
                (
                    Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 101),
                    Value::OctetString(mibs::encode_portlist(&[1, 49], 49)),
                ),
                (
                    Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, 101),
                    Value::OctetString(mibs::encode_portlist(&[1], 49)),
                ),
                (
                    Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101),
                    Value::Integer(4),
                ),
            ],
        ),
    )
}

fn bench_snmp(rep: &mut Ledger) {
    let msg = sample_snmp_set();
    rep.calls("snmp/set_encode", 1, || {
        black_box(msg.encode());
    });
    let wire = msg.encode();
    rep.calls("snmp/set_decode", 1, || {
        black_box(SnmpMessage::decode(&wire).unwrap());
    });
    let mut bridge = Bridge::new(49);
    let sys = SysInfo::default();
    let mut client = SnmpClient::new("public");
    rep.calls("snmp/set_round_trip", 1, || {
        let request = client.set(&msg.pdu.bindings);
        let mut mib = BridgeMib {
            bridge: &mut bridge,
            sys: &sys,
            uptime_cs: 1,
        };
        let view = MessageRef::decode(&request).unwrap();
        let response = agent_respond(&mut mib, "public", &view).unwrap();
        black_box(client.accept(&response).unwrap().unwrap().error_status);
    });
    let oid: Oid = "1.3.6.1.2.1.17.7.1.4.3.1.5.101".parse().unwrap();
    rep.calls("snmp/oid_encode", 1, || {
        let mut out = BytesMut::new();
        mgmt::ber::put_oid(&mut out, &oid);
        black_box(out);
    });
}

fn main() {
    let mut rep = Ledger::open("codec", "ns_per_iter");
    bench_openflow(&mut rep);
    bench_snmp(&mut rep);
    rep.save();
}
