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
//! buffer-per-message `flow_mod_encode`.

use std::hint::black_box;

use bench::timing::Ledger;
use bytes::{Bytes, BytesMut};
use mgmt::pdu::{Pdu, PduType, SnmpMessage, Value};
use mgmt::{mibs, Oid};
use openflow::message::{FlowMod, Message};
use openflow::{Action, Match, Session};

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
