//! Probes: single public functions of a layer, timed in isolation on
//! inputs sampled from the workload. They give the per-call cost the
//! spans cannot see inside of, and a floor under the simulator.

use std::any::Any;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use bytes::Bytes;
use mgmt::{Oid, Pdu, PduType, SnmpMessage, Value};
use netpkt::vlan::{pop_vlan, push_vlan};
use netpkt::{FlowKey, MacAddr, VlanTag};
use netsim::{LinkSpec, Network, Node, NodeCtx, PortId, SimTime};
use openflow::message::FlowMod;
use openflow::{Action, Match, Message, PacketInReason, NO_BUFFER};
use softswitch::{Datapath, DpConfig};

use crate::noise::Clock;
use crate::run::{Outcome, Scale};

/// Mean host ns of `f` over `iters` calls, cycling through `n` inputs.
fn time_ns(iters: u32, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters as usize {
        f(i % n);
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// A host route as `ArpProxy` pushes it: the shape of nearly every
/// flow-mod the control-plane workload sends.
fn route(i: u32) -> FlowMod {
    FlowMod::add(0)
        .priority(10)
        .match_(Match::new().eth_dst(MacAddr::host(i)))
        .apply(vec![Action::output(1 + i % 48)])
}

/// Bounces every frame back out of the port it came in on.
struct Echo;

impl Node for Echo {
    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        ctx.transmit(port, frame);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Host ns per simulator event with no datapath work: two nodes bounce
/// one frame over a link for `events` events.
fn event_idle_ns(frame: &Bytes, events: u32) -> f64 {
    let mut net = Network::new(1);
    let a = net.add_node(Echo);
    let b = net.add_node(Echo);
    net.connect(a, PortId(0), b, PortId(0), LinkSpec::ten_gigabit());
    net.inject(a, PortId(0), frame.clone());
    net.run_until(SimTime::from_millis(1));
    let e0 = net.events_processed();
    let t = Instant::now();
    while net.events_processed() - e0 < u64::from(events) {
        net.run_for(SimTime::from_millis(1));
    }
    t.elapsed().as_nanos() as f64 / (net.events_processed() - e0) as f64
}

/// Host ns of one `apply_flow_mod` adding a route to a table of
/// `rules` routes — what a proactive push pays per rule once the table
/// is that full. The table grows by at most 512 entries meanwhile.
fn flow_mod_apply_ns(rules: u32, iters: u32) -> f64 {
    let mut dp = Datapath::new(DpConfig::software(9));
    for i in 0..rules {
        dp.apply_flow_mod(&route(i), 0).expect("route");
    }
    let adds: Vec<FlowMod> = (0..(iters / 400).clamp(2, 512))
        .map(|i| route(rules + i))
        .collect();
    time_ns(adds.len() as u32, adds.len(), |i| {
        black_box(dp.apply_flow_mod(&adds[i], 0).expect("probe flow-mod"));
    })
}

struct Reference<'a> {
    out: &'a mut Outcome,
    clock: &'a mut Clock,
}

impl Reference<'_> {
    fn set(&mut self, name: &'static str, host_ns: f64) {
        self.out.set(name, host_ns * self.clock.factor_now());
    }
}

/// Run every probe and record its per-layer metric. `frames` are
/// sampled from the workload (at its frame size).
pub fn run_all(out: &mut Outcome, frames: &[Bytes], scale: &Scale, clock: &mut Clock) {
    // Each probe's mean host ns goes in as reference ns, at the speed
    // a canary pass sees right after it.
    let mut out = Reference { out, clock };
    let iters = scale.probe_iters;
    let n = frames.len();

    out.set(
        "netpkt.parse_ns",
        time_ns(iters, n, |i| {
            black_box(FlowKey::extract_lossy(1, black_box(&frames[i])));
        }),
    );
    let keys: Vec<FlowKey> = frames
        .iter()
        .map(|f| FlowKey::extract_lossy(1, f))
        .collect();
    out.set(
        "netpkt.flow_hash_ns",
        time_ns(iters, n, |i| {
            black_box(black_box(&keys[i]).flow_hash(0));
        }),
    );
    let tagged: Vec<Bytes> = frames
        .iter()
        .map(|f| push_vlan(f, VlanTag::new(101)).expect("taggable frame"))
        .collect();
    out.set(
        "netpkt.vlan_push_ns",
        time_ns(iters, n, |i| {
            black_box(push_vlan(black_box(&frames[i]), VlanTag::new(101)).ok());
        }),
    );
    out.set(
        "netpkt.vlan_pop_ns",
        time_ns(iters, n, |i| {
            black_box(pop_vlan(black_box(&tagged[i])).ok());
        }),
    );

    let fm = Message::FlowMod(route(7));
    let fm_wire = fm.encode(1);
    let pi = Message::PacketIn {
        buffer_id: NO_BUFFER,
        total_len: frames[0].len() as u16,
        reason: PacketInReason::NoMatch,
        table_id: 0,
        cookie: 0,
        match_: Match::new().in_port(3),
        data: frames[0].clone(),
    };
    let pi_wire = pi.encode(2);
    let mut codec = |enc: &'static str, dec: &'static str, msg: &Message, wire: &Bytes| {
        out.set(
            enc,
            time_ns(iters, 1, |_| {
                black_box(black_box(msg).encode(3));
            }),
        );
        out.set(
            dec,
            time_ns(iters, 1, |_| {
                black_box(Message::decode(black_box(wire)).ok());
            }),
        );
    };
    codec(
        "openflow.flow_mod_encode_ns",
        "openflow.flow_mod_decode_ns",
        &fm,
        &fm_wire,
    );
    codec(
        "openflow.packet_in_encode_ns",
        "openflow.packet_in_decode_ns",
        &pi,
        &pi_wire,
    );

    // A Q-BRIDGE row write as the migration manager issues them: one
    // SetRequest carrying a port bitmap and a row status.
    let snmp = SnmpMessage::new(
        "private",
        Pdu::request(
            PduType::Set,
            42,
            vec![
                (
                    Oid::new(&[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1, 2, 101]),
                    Value::OctetString(vec![0x80; 34]),
                ),
                (
                    Oid::new(&[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1, 5, 101]),
                    Value::Integer(4),
                ),
            ],
        ),
    );
    let snmp_wire = snmp.encode();
    out.set(
        "mgmt.snmp_encode_ns",
        time_ns(iters, 1, |_| {
            black_box(black_box(&snmp).encode());
        }),
    );
    out.set(
        "mgmt.snmp_decode_ns",
        time_ns(iters, 1, |_| {
            black_box(SnmpMessage::decode(black_box(&snmp_wire)).ok());
        }),
    );

    out.set("netsim.event_idle_ns", event_idle_ns(&frames[0], iters));
    out.set(
        "softswitch.flow_mod_apply_ns_8k",
        flow_mod_apply_ns(scale.churn_flows as u32, iters),
    );
}

/// A station frame of the fabric workloads, for their probes.
pub fn station_frame(len: usize) -> Bytes {
    netpkt::builder::sized_udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 1, 0, 1),
        1_000,
        20_000,
        len,
    )
}
