//! The controller core: channel management and app dispatch.

use bytes::{Bytes, BytesMut};
use std::any::Any;
use std::collections::BTreeMap;

use netpkt::FlowKey;
use netsim::{Node, NodeCtx, NodeId, PortId};
use openflow::instruction::ActionList;
use openflow::message::{
    ControllerRole, FlowMod, FlowModParts, Message, MultipartReq, MultipartRes, PacketOutParts,
    PortDesc, Xid,
};
use openflow::oxm::OxmField;
use openflow::{Action, Session, NO_BUFFER};

/// A packet-in, pre-parsed for apps.
#[derive(Debug)]
pub struct PacketInEvent {
    /// Ingress port (from the match's IN_PORT).
    pub in_port: u32,
    /// Why it came up.
    pub reason: openflow::message::PacketInReason,
    /// The frame (possibly truncated to miss_send_len).
    pub data: Bytes,
    /// Extracted flow key of the frame.
    pub key: FlowKey,
}

impl PacketInEvent {
    /// Parse the punted frame as an ARP *request*, if that is what it
    /// is — the shared gate of every proxy-ARP app (VIP proxying, the
    /// fabric ARP proxy). Returns `None` for anything else, including
    /// malformed ARP.
    pub fn arp_request(&self) -> Option<netpkt::ArpRepr> {
        if self.key.eth_type != 0x0806 || self.key.arp_op != netpkt::ArpOp::Request.value() {
            return None;
        }
        netpkt::Layers::parse(&self.data).ok()?.arp()
    }
}

/// Per-switch connection state.
#[derive(Debug, Default)]
pub struct SwitchState {
    /// Datapath id (0 until features arrive).
    pub dpid: u64,
    /// Ports reported by PORT_DESC.
    pub ports: Vec<PortDesc>,
    /// True once features + port-desc completed.
    pub ready: bool,
    /// Stream reassembly and the keepalive probes awaiting their reply.
    session: Session,
}

impl SwitchState {
    /// Forget everything tied to the current connection (a reconnecting
    /// switch starts from a clean slate; apps re-push state on ready).
    fn reset_session(&mut self) {
        self.ready = false;
        self.session.reset();
    }

    fn handle<'a>(&'a self, out: &'a mut Outbox) -> SwitchHandle<'a> {
        SwitchHandle {
            dpid: self.dpid,
            ports: &self.ports,
            out,
        }
    }

    /// Send what `out` queued to this switch (`node`); if a flow-mod is
    /// among it, append a barrier, the flush's fence: the switch applies
    /// everything ahead of it before what follows. This is the one place
    /// a barrier is written: apps queue flow-mods and packet-outs, and
    /// each flush carries at most one barrier, as its last frame.
    fn flush(&mut self, node: NodeId, out: &mut Outbox, ctx: &mut NodeCtx) {
        if out.durable {
            out.send(Message::BarrierRequest);
        }
        out.transmit(node, ctx);
    }
}

/// The controller's send side: the xid counter every message draws from
/// (one across all switches) and the send buffer of the switch being
/// served. Apps reach it through a [`SwitchHandle`].
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    xid: Xid,
    flow_mods_sent: u64,
    /// Messages for the switch being served, encoded back to back in
    /// send order: the next channel write.
    pub(crate) buf: BytesMut,
    /// A `FLOW_MOD` is in `buf`: the flush ends in a barrier.
    durable: bool,
}

impl Outbox {
    fn next_xid(&mut self) -> Xid {
        self.xid += 1;
        self.xid
    }

    /// Queue one of the node's own channel messages under a fresh xid.
    fn send(&mut self, msg: Message) {
        let x = self.next_xid();
        msg.encode_into(&mut self.buf, x);
    }

    /// Put the buffer, if anything was queued, on the channel to `node`
    /// as one coalesced message. The channel delivers a switch's
    /// messages in order or holds them, like OpenFlow's TCP session, so
    /// nothing sent needs to be kept.
    fn transmit(&mut self, node: NodeId, ctx: &mut NodeCtx) {
        self.durable = false;
        if !self.buf.is_empty() {
            ctx.ctrl_send(node, std::mem::take(&mut self.buf).freeze());
        }
    }
}

/// What apps use to talk to one switch: queues messages for sending when
/// the callback returns.
pub struct SwitchHandle<'a> {
    /// The switch's datapath id.
    pub dpid: u64,
    /// The switch's ports.
    pub ports: &'a [PortDesc],
    out: &'a mut Outbox,
}

impl SwitchHandle<'_> {
    /// Send a flow-mod written from its parts, which the caller may
    /// build on its stack (`FlowModParts::<&[Action]>`): its bytes go
    /// straight into the send buffer and nothing is allocated for them.
    /// The flush that carries it ends in a barrier.
    pub fn send_flow_mod<A: ActionList>(&mut self, fm: FlowModParts<'_, A>) {
        self.out.flow_mods_sent += 1;
        self.out.durable = true;
        let x = self.out.next_xid();
        fm.encode_into(&mut self.out.buf, x);
    }

    /// Send an owned flow-mod: [`Self::send_flow_mod`] of its parts.
    pub fn flow_mod(&mut self, fm: FlowMod) {
        self.send_flow_mod(fm.parts());
    }

    /// Emit a frame out of a specific port (or FLOOD).
    pub fn packet_out(&mut self, out_port: u32, data: Bytes) {
        self.send_packet_out(openflow::port_no::CONTROLLER, out_port, &data);
    }

    /// Flood a punted frame, preserving its original ingress port so the
    /// switch excludes it. Flooding with a fake ingress (e.g. CONTROLLER)
    /// would mirror the frame back out of the port it came from; one hop
    /// upstream that re-teaches bridges the source MAC on the wrong port
    /// and black-holes the host ("MAC flapping").
    pub fn packet_out_flood(&mut self, in_port: u32, data: Bytes) {
        self.send_packet_out(in_port, openflow::port_no::FLOOD, &data);
    }

    /// Queue a packet-out of `data` with its one output action on the
    /// stack.
    fn send_packet_out(&mut self, in_port: u32, out_port: u32, data: &[u8]) {
        let x = self.out.next_xid();
        let po = PacketOutParts {
            buffer_id: NO_BUFFER,
            in_port,
            actions: &[Action::output(out_port)],
            data,
        };
        po.encode_into(&mut self.out.buf, x);
    }
}

/// A free-standing [`SwitchHandle`] over a caller-owned outbox, for app
/// unit tests that drive callbacks without a running network and read
/// back `out.buf`.
#[cfg(test)]
pub(crate) fn test_handle(dpid: u64, out: &mut Outbox) -> SwitchHandle<'_> {
    SwitchHandle {
        dpid,
        ports: &[],
        out,
    }
}

/// What an app decided about a packet-in it was offered.
///
/// Apps are dispatched in registration order; the first app to return
/// [`PacketInVerdict::Consumed`] ends the chain for that event. This is
/// how a specific app (e.g. the fabric ARP proxy) can answer a punted
/// frame *instead of* the general-purpose apps behind it — without the
/// verdict, a learning switch later in the chain would still flood the
/// frame the proxy already answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacketInVerdict {
    /// Not (or only partially) handled: offer the event to the next app.
    #[default]
    Continue,
    /// Fully handled: apps later in the chain never see the event.
    Consumed,
}

/// A controller application.
///
/// Apps must be [`Send`] because the controller node (like every
/// [`netsim::Node`]) can be moved onto a worker thread by the sharded
/// simulator; only one thread ever touches an app at a time. They are
/// [`Any`] so that [`ControllerNode::app_mut`] can downcast them.
pub trait App: Any + Send {
    /// Name for diagnostics.
    fn name(&self) -> &str;

    /// The switch finished its handshake (features + ports known).
    fn on_switch_ready(&mut self, _sw: &mut SwitchHandle) {}

    /// A packet was punted to the controller. Return
    /// [`PacketInVerdict::Consumed`] to stop the event from reaching
    /// apps later in the chain.
    fn on_packet_in(&mut self, _sw: &mut SwitchHandle, _ev: &PacketInEvent) -> PacketInVerdict {
        PacketInVerdict::Continue
    }

    /// The switch stopped answering keepalive probes and was declared
    /// down; its state will be rebuilt on the next handshake.
    fn on_switch_down(&mut self, _dpid: u64) {}

    /// Periodic tick from the controller (1 s period), for apps that need
    /// to reissue rules.
    fn on_tick(&mut self, _sw: &mut SwitchHandle) {}
}

/// A switch message the apps get to see, as the [`App`] callback it
/// turns into.
enum AppEvent {
    SwitchReady,
    PacketIn(PacketInEvent),
}

impl AppEvent {
    /// Offer the event to one app. Only a packet-in can end the chain;
    /// a ready switch is offered to every app.
    fn offer(&self, app: &mut dyn App, sw: &mut SwitchHandle) -> PacketInVerdict {
        match self {
            AppEvent::SwitchReady => {
                app.on_switch_ready(sw);
                PacketInVerdict::Continue
            }
            AppEvent::PacketIn(ev) => app.on_packet_in(sw, ev),
        }
    }
}

const TOKEN_TICK: u64 = 1;
const TICK: netsim::SimTime = netsim::SimTime::from_secs(1);
/// Keepalive probes a switch may leave unanswered (one sent per tick)
/// before the controller declares it down.
const MAX_MISSED_ECHOES: usize = 3;

/// The controller as a simulator node.
pub struct ControllerNode {
    name: String,
    apps: Vec<Box<dyn App>>,
    /// Connected switches. Ordered by node id: bulk sends iterate the
    /// map, and send order feeds the simulator's event sequence numbers,
    /// so it must not vary between runs.
    switches: BTreeMap<NodeId, SwitchState>,
    out: Outbox,
    role: ControllerRole,
    generation_id: u64,
    packet_ins: u64,
    errors_seen: u64,
    switch_deaths: u64,
    promotions: u64,
}

impl ControllerNode {
    /// A controller running the given apps (dispatched in order).
    pub fn new(name: impl Into<String>, apps: Vec<Box<dyn App>>) -> ControllerNode {
        ControllerNode {
            name: name.into(),
            apps,
            switches: BTreeMap::new(),
            out: Outbox::default(),
            role: ControllerRole::Equal,
            generation_id: 0,
            packet_ins: 0,
            errors_seen: 0,
            switch_deaths: 0,
            promotions: 0,
        }
    }

    /// Builder-style role override. A `Master` asserts its role (with
    /// `generation_id`) on every switch that completes a handshake; a
    /// `Slave` is a warm standby: it ignores packet-ins and self-promotes
    /// to master the moment a switch dials it — in this model a switch
    /// only dials a backup after declaring its master dead, so an
    /// incoming handshake *is* the fail-over signal.
    pub fn with_role(mut self, role: ControllerRole, generation_id: u64) -> Self {
        self.set_role(role, generation_id);
        self
    }

    /// Runtime variant of [`Self::with_role`], for controllers already
    /// placed in a network.
    pub fn set_role(&mut self, role: ControllerRole, generation_id: u64) {
        self.role = role;
        self.generation_id = generation_id;
    }

    /// The controller's current role.
    pub fn role(&self) -> ControllerRole {
        self.role
    }

    /// Times a slave self-promoted to master.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Always 0: the control channel loses nothing on its own, so the
    /// controller re-sends nothing. Kept only for `hbench`, which reads
    /// it as `controller.retransmits` and `netsim.ctrl_retx`.
    pub fn retransmits(&self) -> u64 {
        0
    }

    /// Switches declared down after unanswered keepalive probes.
    pub fn switch_deaths(&self) -> u64 {
        self.switch_deaths
    }

    /// Echo replies whose xid matched no outstanding probe.
    pub fn stale_echo_replies(&self) -> u64 {
        self.switches
            .values()
            .map(|st| st.session.stale_replies())
            .sum()
    }

    /// Packet-ins received so far.
    pub fn packet_ins(&self) -> u64 {
        self.packet_ins
    }

    /// Flow-mods sent so far.
    pub fn flow_mods_sent(&self) -> u64 {
        self.out.flow_mods_sent
    }

    /// OpenFlow errors received.
    pub fn errors_seen(&self) -> u64 {
        self.errors_seen
    }

    /// Connected switch state (for assertions).
    pub fn switch(&self, node: NodeId) -> Option<&SwitchState> {
        self.switches.get(&node)
    }

    /// Number of switches that completed the handshake (features +
    /// port-desc). A fabric controller serves one datapath per pod, plus
    /// a soft spine when the interconnect has one.
    pub fn ready_switches(&self) -> usize {
        self.switches.values().filter(|s| s.ready).count()
    }

    /// Typed access to an app (for runtime policy updates).
    pub fn app_mut<T: App>(&mut self) -> Option<&mut T> {
        self.apps
            .iter_mut()
            .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// Run `f` against every connected, ready switch — used with
    /// [`netsim::Network::with_node_ctx`] to push policy changes mid-run.
    pub fn for_each_switch(
        &mut self,
        ctx: &mut NodeCtx,
        mut f: impl FnMut(&mut Vec<Box<dyn App>>, &mut SwitchHandle),
    ) {
        // Every switch is served before any is flushed: the barriers of a
        // round draw their xids after all of the round's app messages.
        let mut queued = Vec::new();
        for st in self.switches.values().filter(|st| st.ready) {
            f(&mut self.apps, &mut st.handle(&mut self.out));
            queued.push((
                std::mem::take(&mut self.out.buf),
                std::mem::take(&mut self.out.durable),
            ));
        }
        let ready = self.switches.iter_mut().filter(|(_, st)| st.ready);
        for ((&node, st), (buf, durable)) in ready.zip(queued) {
            (self.out.buf, self.out.durable) = (buf, durable);
            st.flush(node, &mut self.out, ctx);
        }
    }

    /// Run every app's periodic sync ([`App::on_tick`]) against every
    /// ready switch *now*. This is the first step of the 1 s tick; call
    /// it through [`netsim::Network::with_node_ctx`] when state fed into
    /// the apps (host routes, router configs) must reach the datapaths
    /// without waiting for that tick.
    pub fn sync_now(&mut self, ctx: &mut NodeCtx) {
        self.for_each_switch(ctx, |apps, handle| {
            for app in apps.iter_mut() {
                app.on_tick(handle);
            }
        });
    }
}

impl Node for ControllerNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        ctx.schedule(TICK, TOKEN_TICK);
    }

    fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {
        // Controllers are out-of-band in this model.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token != TOKEN_TICK {
            return;
        }
        self.sync_now(ctx);
        for (&node, st) in self.switches.iter_mut().filter(|(_, st)| st.ready) {
            // Keepalive: probe the switch, unless it has left
            // MAX_MISSED_ECHOES probes unanswered — then it is declared
            // down and its session state dropped; the next handshake
            // rebuilds it.
            if st.session.peer_dead(MAX_MISSED_ECHOES) {
                st.reset_session();
                self.switch_deaths += 1;
                for app in self.apps.iter_mut() {
                    app.on_switch_down(st.dpid);
                }
            } else {
                ctx.ctrl_send(node, st.session.probe(self.out.next_xid()));
            }
        }
        ctx.schedule(TICK, TOKEN_TICK);
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        let st = self.switches.entry(from).or_default();
        st.session.push(data);
        let out = &mut self.out;
        // Each message is handled as it decodes; an undecodable frame
        // ends the chunk (the session drops it and what follows).
        while let Some(Ok((xid, msg))) = st.session.next_message() {
            let event = match msg {
                Message::Hello => {
                    // A HELLO on an existing session is a reconnect: the
                    // switch starts from scratch, so does our view of it.
                    // Apps rebuild its state on `on_switch_ready`.
                    st.reset_session();
                    // A slave being dialed means the switches gave up on
                    // their master: promote and assert the role below.
                    if self.role == ControllerRole::Slave {
                        self.role = ControllerRole::Master;
                        self.promotions += 1;
                    }
                    out.send(Message::Hello);
                    out.send(Message::FeaturesRequest);
                    None
                }
                Message::EchoRequest(d) => {
                    // Echo replies must mirror the request xid — the
                    // switch matches them against its outstanding probes
                    // and discards replies with unknown xids as stale.
                    Message::EchoReply(d).encode_into(&mut out.buf, xid);
                    None
                }
                Message::EchoReply(_) => {
                    st.session.ack(xid);
                    None
                }
                Message::FeaturesReply { datapath_id, .. } => {
                    st.dpid = datapath_id;
                    out.send(Message::MultipartRequest(MultipartReq::PortDesc));
                    None
                }
                Message::MultipartReply(MultipartRes::PortDesc(ports)) => {
                    st.ports = ports;
                    st.ready = true;
                    if self.role == ControllerRole::Master {
                        out.send(Message::RoleRequest {
                            role: ControllerRole::Master,
                            generation_id: self.generation_id,
                        });
                    }
                    Some(AppEvent::SwitchReady)
                }
                Message::PacketIn {
                    reason,
                    match_,
                    data,
                    ..
                } => {
                    self.packet_ins += 1;
                    // Slaves are warm standbys: they watch but must not
                    // program switches another master owns.
                    (self.role != ControllerRole::Slave).then(|| {
                        let in_port = match_
                            .fields()
                            .iter()
                            .find_map(|f| match f {
                                OxmField::InPort(p) => Some(*p),
                                _ => None,
                            })
                            .unwrap_or(0);
                        AppEvent::PacketIn(PacketInEvent {
                            in_port,
                            reason,
                            key: FlowKey::extract_lossy(in_port, &data),
                            data,
                        })
                    })
                }
                Message::Error { ty, .. } => {
                    self.errors_seen += 1;
                    if ty == 11 {
                        // ROLE_REQUEST_FAILED/STALE: a newer master holds
                        // this switch. Step down.
                        self.role = ControllerRole::Slave;
                    }
                    None
                }
                _ => None,
            };
            // Offer the event to every app in chain order; an app that
            // consumes a packet-in ends the chain.
            if let Some(event) = event {
                let mut handle = st.handle(out);
                for app in self.apps.iter_mut() {
                    if event.offer(app.as_mut(), &mut handle) == PacketInVerdict::Consumed {
                        break;
                    }
                }
            }
        }
        st.flush(from, out, ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::message::{msg_type, PacketInReason};

    /// First app in the chain: returns a configured verdict.
    struct Gate {
        verdict: PacketInVerdict,
        seen: u64,
    }
    impl App for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn on_packet_in(&mut self, _sw: &mut SwitchHandle, _ev: &PacketInEvent) -> PacketInVerdict {
            self.seen += 1;
            self.verdict
        }
    }

    /// Second app in the chain: counts what reaches it.
    struct Observer {
        seen: u64,
    }
    impl App for Observer {
        fn name(&self) -> &str {
            "observer"
        }
        fn on_packet_in(&mut self, _sw: &mut SwitchHandle, _ev: &PacketInEvent) -> PacketInVerdict {
            self.seen += 1;
            PacketInVerdict::Continue
        }
    }

    /// Feed one encoded PACKET_IN through `on_ctrl` and report how many
    /// events each app in the chain saw.
    fn run_chain(verdict: PacketInVerdict) -> (u64, u64) {
        let mut net = netsim::Network::new(1);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![
                Box::new(Gate { verdict, seen: 0 }),
                Box::new(Observer { seen: 0 }),
            ],
        ));
        let pi = Message::PacketIn {
            buffer_id: openflow::NO_BUFFER,
            total_len: 1,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: openflow::Match::new().in_port(1),
            data: Bytes::from_static(b"x"),
        }
        .encode(1);
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            c.on_ctrl(ctx.self_id(), pi, ctx);
        });
        let c = net.node_mut::<ControllerNode>(ctrl);
        let gate = c.app_mut::<Gate>().unwrap().seen;
        let observer = c.app_mut::<Observer>().unwrap().seen;
        (gate, observer)
    }

    #[test]
    fn consumed_packet_ins_stop_the_app_chain() {
        assert_eq!(run_chain(PacketInVerdict::Continue), (1, 1));
        assert_eq!(
            run_chain(PacketInVerdict::Consumed),
            (1, 0),
            "a consumed event must never reach later apps"
        );
    }

    /// Records every control message it receives.
    struct Recorder {
        frames: Vec<Bytes>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {}
        fn on_ctrl(&mut self, _from: NodeId, data: Bytes, _ctx: &mut NodeCtx) {
            self.frames.push(data);
        }
    }

    #[test]
    fn echo_reply_mirrors_the_request_xid() {
        // A liveness probe is only answered if the reply carries the
        // *probe's* xid — a reply under a fresh xid would never match
        // the prober's pending set and read as a dead peer.
        let mut net = netsim::Network::new(1);
        let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
        let sw = net.add_node(Recorder { frames: Vec::new() });
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            c.on_ctrl(
                sw,
                Message::EchoRequest(Bytes::from_static(b"ping")).encode(77),
                ctx,
            );
        });
        net.run_until(netsim::SimTime::from_millis(1));
        let mut rx = Session::default();
        for f in &net.node_ref::<Recorder>(sw).frames {
            rx.push(f.clone());
        }
        let msgs: Vec<_> = std::iter::from_fn(|| rx.next_message())
            .map(|m| m.expect("well-formed replies"))
            .collect();
        assert!(
            msgs.iter()
                .any(|(xid, m)| *xid == 77 && *m == Message::EchoReply(Bytes::from_static(b"ping"))),
            "echo reply must mirror xid and payload, got {msgs:?}"
        );
    }

    /// The borrowed sends queue what the owned messages encode to, under
    /// the same xids; a flow-mod makes the flush durable and is counted,
    /// and the owned wrapper queues the same as its parts.
    #[test]
    fn borrowed_sends_queue_the_owned_messages_bytes() {
        use openflow::instruction::Insn;
        let mac = netpkt::MacAddr::host(9);
        let owned = FlowMod::add(0)
            .priority(20)
            .match_(openflow::Match::new().eth_dst(mac))
            .apply(vec![Action::output(3)]);
        let data = Bytes::from_static(b"frame");
        let mut lent = Outbox::default();
        let mut sw = test_handle(1, &mut lent);
        sw.send_flow_mod(FlowModParts::<&[Action]> {
            header: owned.header,
            match_: &[OxmField::EthDst(mac, None)],
            instructions: &[Insn::ApplyActions(&[Action::output(3)])],
        });
        sw.packet_out(3, data.clone());
        sw.packet_out_flood(2, data.clone());

        let flow_mod = Message::FlowMod(owned.clone()).encode(1);
        let packet_out = |xid, in_port, port| {
            Message::PacketOut {
                buffer_id: NO_BUFFER,
                in_port,
                actions: vec![Action::output(port)],
                data: data.clone(),
            }
            .encode(xid)
        };
        let want = [
            flow_mod.clone(),
            packet_out(2, openflow::port_no::CONTROLLER, 3),
            packet_out(3, 2, openflow::port_no::FLOOD),
        ]
        .concat();
        assert_eq!(&lent.buf[..], &want[..]);
        assert_eq!((lent.durable, lent.flow_mods_sent), (true, 1));

        let mut sent = Outbox::default();
        test_handle(1, &mut sent).flow_mod(owned);
        assert_eq!(&sent.buf[..], &flow_mod[..]);
        assert_eq!((sent.durable, sent.flow_mods_sent), (true, 1));

        let mut none = Outbox::default();
        test_handle(1, &mut none).packet_out(3, data);
        assert!(!none.durable, "a packet-out alone needs no barrier");
    }

    /// The frames of one control chunk, as `(type, xid, bytes)`.
    fn frames(chunk: &Bytes) -> Vec<(u8, Xid, Bytes)> {
        let mut rx = Session::default();
        rx.push(chunk.clone());
        std::iter::from_fn(|| rx.next_frame())
            .map(|f| {
                let f = f.expect("whole frames");
                let xid = u32::from_be_bytes([f[4], f[5], f[6], f[7]]);
                (f[1], xid, f)
            })
            .collect()
    }

    /// Hand the controller `msg` from `sw` under `xid`.
    fn deliver(net: &mut netsim::Network, ctrl: NodeId, sw: NodeId, msg: Message, xid: Xid) {
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| c.on_ctrl(sw, msg.encode(xid), ctx));
    }

    /// A network of `ctrl` and a recording switch, datapath 7, that has
    /// completed its handshake; the controller's ready flush is the
    /// recorder's last chunk.
    fn handshake(ctrl: ControllerNode) -> (netsim::Network, NodeId, NodeId) {
        let mut net = netsim::Network::new(1);
        let ctrl = net.add_node(ctrl);
        let sw = net.add_node(Recorder { frames: Vec::new() });
        deliver(&mut net, ctrl, sw, Message::Hello, 1);
        let features = Message::FeaturesReply {
            datapath_id: 7,
            n_buffers: 0,
            n_tables: 1,
            capabilities: 0,
        };
        deliver(&mut net, ctrl, sw, features, 2);
        let ports = Message::MultipartReply(MultipartRes::PortDesc(vec![]));
        deliver(&mut net, ctrl, sw, ports, 3);
        net.run_until(netsim::SimTime::from_millis(1));
        (net, ctrl, sw)
    }

    /// The message types of the recorder's last chunk.
    fn last_flush(net: &netsim::Network, sw: NodeId) -> Vec<u8> {
        let chunks = &net.node_ref::<Recorder>(sw).frames;
        frames(chunks.last().expect("a flush"))
            .iter()
            .map(|f| f.0)
            .collect()
    }

    /// Each flush the node sends carries at most one barrier, its last
    /// frame: the ready flush of a proxy-and-learning chain (each app
    /// queues flow-mods), a router config change pushed through
    /// `sync_now`, and none in a flush of packet-outs alone.
    #[test]
    fn a_flush_carries_one_barrier_and_only_after_a_flow_mod() {
        use crate::apps::{ArpProxy, LearningSwitch, Router, RouterConfig};
        use msg_type::{BARRIER_REQUEST, FLOW_MOD, PACKET_OUT};
        let barriers = |types: &[u8]| types.iter().filter(|&&t| t == BARRIER_REQUEST).count();
        let host = netpkt::MacAddr::host(2);
        let host_ip = std::net::Ipv4Addr::new(10, 0, 0, 2);
        let mut proxy = ArpProxy::new();
        proxy.add_host(crate::apps::HostRoute {
            ip: host_ip,
            mac: host,
            ports: vec![(7, 2)],
            guards: vec![],
        });
        let apps: Vec<Box<dyn App>> = vec![Box::new(proxy), Box::new(LearningSwitch::new())];
        let (mut net, ctrl, sw) = handshake(ControllerNode::new("ctrl", apps));
        let ready = last_flush(&net, sw);
        assert_eq!(ready.iter().filter(|&&t| t == FLOW_MOD).count(), 3);
        assert_eq!(barriers(&ready), 1, "{ready:?}");
        assert_eq!(ready.last(), Some(&BARRIER_REQUEST));

        // An ARP request the proxy answers: one packet-out, no barrier.
        let who_has =
            netpkt::builder::arp_request(netpkt::MacAddr::host(1), [10, 0, 0, 1].into(), host_ip);
        let pi = Message::PacketIn {
            buffer_id: NO_BUFFER,
            total_len: who_has.len() as u16,
            reason: openflow::message::PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: openflow::Match::new().in_port(1),
            data: who_has,
        };
        deliver(&mut net, ctrl, sw, pi, 4);
        net.run_until(netsim::SimTime::from_millis(2));
        assert_eq!(last_flush(&net, sw), [PACKET_OUT]);

        let (mut net, ctrl, sw) =
            handshake(ControllerNode::new("ctrl", vec![Box::new(Router::new())]));
        let config = RouterConfig {
            mac: netpkt::MacAddr::host(99),
            routes: vec![],
            nat_external: None,
            uplink_guards: vec![1],
        };
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            c.app_mut::<Router>()
                .expect("a router")
                .set_config(7, config);
            c.sync_now(ctx);
        });
        net.run_until(netsim::SimTime::from_millis(2));
        let pushed = last_flush(&net, sw);
        assert_eq!(pushed.iter().filter(|&&t| t == FLOW_MOD).count(), 4);
        assert_eq!(barriers(&pushed), 1, "{pushed:?}");
        assert_eq!(pushed.last(), Some(&BARRIER_REQUEST));
    }

    /// A host route for `host`, out of port `host` of datapath 7.
    fn host_route(host: u32) -> crate::apps::HostRoute {
        crate::apps::HostRoute {
            ip: std::net::Ipv4Addr::new(10, 0, 0, host as u8),
            mac: netpkt::MacAddr::host(host),
            ports: vec![(7, host)],
            guards: vec![],
        }
    }

    /// A tick's own sync leaves once. The proxy's ready flush is
    /// confirmed; a host registered afterwards reaches the switch with
    /// the next tick's sync, in one flush under one barrier, and the
    /// tick's echo probe follows in a chunk of its own. While the
    /// controller replayed unconfirmed flushes, the replay ran right
    /// after the sync and found it unconfirmed (no reply can arrive in
    /// between): the flow-mods per chunk read `[1, 1, 0]`.
    #[test]
    fn a_tick_sends_its_own_sync_once() {
        use crate::apps::ArpProxy;
        let (mut net, ctrl, sw) =
            handshake(ControllerNode::new("ctrl", vec![Box::new(ArpProxy::new())]));
        let ready = frames(
            net.node_ref::<Recorder>(sw)
                .frames
                .last()
                .expect("ready flush"),
        );
        let barrier = ready.last().expect("a barrier").1;
        deliver(&mut net, ctrl, sw, Message::BarrierReply, barrier);
        net.node_mut::<ControllerNode>(ctrl)
            .app_mut::<ArpProxy>()
            .expect("a proxy")
            .add_host(host_route(2));
        let before = net.node_ref::<Recorder>(sw).frames.len();
        net.run_until(netsim::SimTime::from_millis(1001));
        let flow_mods: Vec<usize> = net.node_ref::<Recorder>(sw).frames[before..]
            .iter()
            .map(|c| {
                frames(c)
                    .iter()
                    .filter(|f| f.0 == msg_type::FLOW_MOD)
                    .count()
            })
            .collect();
        assert_eq!(flow_mods, [1, 0], "flow-mods per chunk the tick sent");
    }

    /// Whether the switch `sw` holds the proxy's route to `host`.
    fn has_route(net: &netsim::Network, sw: NodeId, host: u32) -> bool {
        let mac = netpkt::MacAddr::host(host);
        let dp = net.node_ref::<softswitch::SoftSwitchNode>(sw).datapath();
        dp.table(0)
            .expect("table 0")
            .entries()
            .iter()
            .any(|e| e.match_.fields().contains(&OxmField::EthDst(mac, None)))
    }

    /// Two syncs in one tick on a lossy channel both install. A switch
    /// completes its handshake on a clean channel; then, on one that
    /// loses half its messages, the proxy pushes host 2's route and,
    /// 1 ms later, host 3's, each through `sync_now`, so each in a flush
    /// of its own under its own barrier. After the channel heals and
    /// two ticks pass, the switch holds both routes.
    ///
    /// While the channel lost messages on their own and the controller
    /// replayed flushes no barrier reply had covered, a reply to the
    /// second flush confirmed the first, lost one too: host 2's route
    /// was never sent again. Seeds 3 and 15 of these lost it then.
    #[test]
    fn two_syncs_in_one_tick_both_install_on_a_lossy_channel() {
        use crate::apps::ArpProxy;
        use netsim::{CtrlProfile, SimTime};
        use softswitch::{CostModel, DpConfig, SoftSwitchNode};
        let mut stalled = 0;
        for seed in 1..=16 {
            let mut net = netsim::Network::new(seed);
            let ctrl = net.add_node(ControllerNode::new("ctrl", vec![Box::new(ArpProxy::new())]));
            let mut soft =
                SoftSwitchNode::new("ss", DpConfig::software(7), 1, 4096, CostModel::default());
            for p in 1..=3 {
                soft.add_port(p, format!("p{p}"), 1_000_000);
            }
            soft.connect_controller(ctrl);
            let sw = net.add_node(soft);
            net.run_until(SimTime::from_millis(100));
            net.set_ctrl_profile(CtrlProfile::lossy(0.5));
            for host in [2, 3] {
                net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
                    c.app_mut::<ArpProxy>()
                        .expect("a proxy")
                        .add_host(host_route(host));
                    c.sync_now(ctx);
                });
                net.run_for(SimTime::from_millis(1));
            }
            net.run_until(SimTime::from_millis(200));
            stalled += net.ctrl_stats().dropped;
            net.set_ctrl_profile(CtrlProfile::lossless());
            net.run_until(SimTime::from_millis(2500));
            assert!(
                has_route(&net, sw, 2) && has_route(&net, sw, 3),
                "seed {seed}: both routes installed"
            );
        }
        assert!(stalled > 0, "the channel lost messages");
    }

    #[test]
    fn stale_echo_replies_are_counted_not_acked() {
        // A reply whose xid matches no outstanding probe (e.g. from a
        // previous session, delayed by the channel) must not feed the
        // liveness state machine.
        let mut net = netsim::Network::new(1);
        let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
        let sw = net.add_node(Recorder { frames: Vec::new() });
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            c.on_ctrl(sw, Message::EchoReply(Bytes::new()).encode(9999), ctx);
        });
        let c = net.node_ref::<ControllerNode>(ctrl);
        assert_eq!(c.stale_echo_replies(), 1);
    }
}
