//! The control channel's framing, seen from both ends: the switch's
//! agent and the controller share one reassembly implementation
//! (`openflow::Session`), and however the transport cuts the byte stream,
//! each end must see the same messages and answer the same way.

use bytes::Bytes;
use controller::ControllerNode;
use netsim::{Network, Node, NodeCtx, NodeId, PortId, SimTime};
use openflow::message::{FlowMod, Message, MultipartReq, Xid};
use openflow::{Action, Match};
use softswitch::agent::OfAgent;
use softswitch::datapath::{Datapath, DpConfig};

/// Records every control message it receives.
struct Recorder(Vec<Bytes>);

impl Node for Recorder {
    fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {}
    fn on_ctrl(&mut self, _from: NodeId, data: Bytes, _ctx: &mut NodeCtx) {
        self.0.push(data);
    }
}

fn concat(frames: &[Bytes]) -> Vec<u8> {
    frames.iter().flat_map(|f| f.iter().copied()).collect()
}

fn decode_all(mut bytes: &[u8]) -> Vec<(Xid, Message)> {
    let mut msgs = Vec::new();
    while !bytes.is_empty() {
        let (xid, msg, len) = Message::decode(bytes).expect("whole, well-formed messages");
        msgs.push((xid, msg));
        bytes = &bytes[len..];
    }
    msgs
}

/// Feed `chunks` to a fresh agent; what it answered and how many rules
/// it ended up with.
fn through_agent(chunks: &[&[u8]]) -> (Vec<(Xid, Message)>, usize) {
    let mut dp = Datapath::new(DpConfig::software(0x51));
    dp.add_port(1, "p1", 1_000_000);
    dp.add_port(2, "p2", 1_000_000);
    let mut agent = OfAgent::new("sw");
    let mut replies = Vec::new();
    for chunk in chunks {
        let chunk = Bytes::copy_from_slice(chunk);
        replies.extend(agent.handle(&mut dp, chunk, 0).replies);
    }
    assert!(agent.handshaken());
    let rules = dp.table(0).expect("table 0").len();
    (decode_all(&concat(&replies)), rules)
}

/// What a controller knows of a switch: ready, dpid, port count — and
/// how many echo replies it found stale.
type View = (bool, u64, usize, u64);

/// Feed `chunks` to a fresh, app-less controller as coming from one
/// switch; what it sent back and what it knows about the switch.
fn through_controller(chunks: &[&[u8]]) -> (Vec<(Xid, Message)>, View) {
    let mut net = Network::new(1);
    let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
    let sw = net.add_node(Recorder(Vec::new()));
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        for chunk in chunks {
            c.on_ctrl(sw, Bytes::copy_from_slice(chunk), ctx);
        }
    });
    net.run_until(SimTime::from_millis(1));
    let c = net.node_ref::<ControllerNode>(ctrl);
    let st = c.switch(sw).expect("session exists");
    let view = (st.ready, st.dpid, st.ports.len(), c.stale_echo_replies());
    (decode_all(&concat(&net.node_ref::<Recorder>(sw).0)), view)
}

#[test]
fn split_and_coalesced_streams_reassemble_at_both_ends() {
    // Controller → switch: a handshake, a probe, a rule under a barrier.
    let to_switch: Vec<Bytes> = vec![
        Message::Hello.encode(1),
        Message::FeaturesRequest.encode(2),
        Message::MultipartRequest(MultipartReq::PortDesc).encode(3),
        Message::EchoRequest(Bytes::from_static(b"abc")).encode(4),
        Message::FlowMod(
            FlowMod::add(0)
                .priority(5)
                .match_(Match::new().in_port(1))
                .apply(vec![Action::output(2)]),
        )
        .encode(5),
        Message::BarrierRequest.encode(6),
    ];
    let (replies, rules) = through_agent(&to_switch.iter().map(|m| &m[..]).collect::<Vec<_>>());
    assert_eq!(replies.len(), 4, "features, port-desc, echo, barrier");
    assert_eq!(rules, 1);

    // Switch → controller: the switch's HELLO, what the agent answered
    // above (an echo *reply* among it, which the controller never asked
    // for), and a probe of its own.
    let mut to_controller = vec![Message::Hello.encode(1)];
    to_controller.extend(replies.iter().map(|(xid, m)| m.encode(*xid)));
    to_controller.push(Message::EchoRequest(Bytes::from_static(b"ping")).encode(77));
    let (answers, view) =
        through_controller(&to_controller.iter().map(|m| &m[..]).collect::<Vec<_>>());
    assert_eq!(view, (true, 0x51, 2, 1));
    assert!(answers.contains(&(77, Message::EchoReply(Bytes::from_static(b"ping")))));

    // Coalesced into one delivery, and cut in two at every byte: the same
    // messages come out at each end, and the same answers go back.
    let stream = concat(&to_switch);
    assert_eq!(through_agent(&[&stream]), (replies.clone(), rules));
    for cut in 1..stream.len() {
        let got = through_agent(&[&stream[..cut], &stream[cut..]]);
        assert_eq!(got, (replies.clone(), rules), "agent, cut at {cut}");
    }
    let stream = concat(&to_controller);
    assert_eq!(through_controller(&[&stream]), (answers.clone(), view));
    for cut in 1..stream.len() {
        let got = through_controller(&[&stream[..cut], &stream[cut..]]);
        assert_eq!(got, (answers.clone(), view), "controller, cut at {cut}");
    }
}
