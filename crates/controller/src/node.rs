//! The controller core: channel management and app dispatch.

use bytes::{Bytes, BytesMut};
use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;

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
    /// Flow-mods sent but not yet covered by a BARRIER_REPLY, tagged
    /// with the covering barrier's xid: each a slice of the buffer it
    /// was sent in. The periodic tick re-sends whatever lingers here, so
    /// rule pushes survive a lossy control channel.
    inflight: Vec<(Xid, Bytes)>,
}

impl SwitchState {
    /// Forget everything tied to the current connection (a reconnecting
    /// switch starts from a clean slate; apps re-push state on ready).
    fn reset_session(&mut self) {
        self.ready = false;
        self.session.reset();
        self.inflight.clear();
    }

    fn handle<'a>(&'a self, out: &'a mut Outbox) -> SwitchHandle<'a> {
        SwitchHandle {
            dpid: self.dpid,
            ports: &self.ports,
            out,
        }
    }

    /// Send what `out` queued to this switch (`node`); if any of it was
    /// state-mutating, append a barrier and track those frames until its
    /// reply confirms delivery.
    fn flush(&mut self, node: NodeId, out: &mut Outbox, ctx: &mut NodeCtx) {
        let barrier = (!out.durable.is_empty()).then(|| out.send(Message::BarrierRequest));
        let sent = out.transmit(node, ctx);
        if let Some(b) = barrier {
            self.inflight
                .extend(out.durable.drain(..).map(|at| (b, sent.slice(at))));
        }
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
    /// Where in `buf` the state-mutating messages lie, to be tracked
    /// until a barrier reply confirms the switch applied them.
    durable: Vec<Range<usize>>,
}

impl Outbox {
    fn next_xid(&mut self) -> Xid {
        self.xid += 1;
        self.xid
    }

    /// Queue `msg` under a fresh xid, which is returned.
    fn send(&mut self, msg: Message) -> Xid {
        let x = self.next_xid();
        msg.encode_into(&mut self.buf, x);
        x
    }

    /// Put the buffer on the channel to `node` as one coalesced message,
    /// and return what was sent (empty if nothing was queued).
    /// Fate sharing is load-bearing on lossy channels: the trailing
    /// barrier of a flush must be dropped or delivered *together with*
    /// the state it confirms — sent separately, a dropped flow mod whose
    /// barrier survived would confirm state the switch never applied.
    fn transmit(&mut self, node: NodeId, ctx: &mut NodeCtx) -> Bytes {
        let sent = std::mem::take(&mut self.buf).freeze();
        if !sent.is_empty() {
            ctx.ctrl_send(node, sent.clone());
        }
        sent
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
    /// Send a raw message.
    pub fn send(&mut self, msg: Message) {
        self.out.send(msg);
    }

    /// Send a flow-mod written from its parts, which the caller may
    /// build on its stack (`FlowModParts::<&[Action]>`): its bytes go
    /// straight into the send buffer and nothing is allocated for them.
    /// It must survive channel loss: it is tracked until a barrier reply
    /// confirms the switch applied it, and re-sent by the controller
    /// tick otherwise.
    pub fn send_flow_mod<A: ActionList>(&mut self, fm: FlowModParts<'_, A>) {
        self.out.flow_mods_sent += 1;
        let start = self.out.buf.len();
        let x = self.out.next_xid();
        fm.encode_into(&mut self.out.buf, x);
        self.out.durable.push(start..self.out.buf.len());
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

    /// Send a barrier.
    pub fn barrier(&mut self) {
        self.send(Message::BarrierRequest);
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

    /// A flow entry was removed.
    fn on_flow_removed(&mut self, _sw: &mut SwitchHandle, _msg: &Message) {}

    /// A multipart (statistics) reply arrived.
    fn on_stats(&mut self, _sw: &mut SwitchHandle, _msg: &Message) {}

    /// Periodic tick from the controller (1 s period), for apps that need
    /// to reissue rules or poll stats.
    fn on_tick(&mut self, _sw: &mut SwitchHandle) {}
}

/// A switch message the apps get to see, as the [`App`] callback it
/// turns into.
enum AppEvent {
    SwitchReady,
    PacketIn(PacketInEvent),
    FlowRemoved(Message),
    Stats(Message),
}

impl AppEvent {
    /// Offer the event to one app. Only a packet-in can end the chain;
    /// the other callbacks always let the next app see the event.
    fn offer(&self, app: &mut dyn App, sw: &mut SwitchHandle) -> PacketInVerdict {
        match self {
            AppEvent::SwitchReady => app.on_switch_ready(sw),
            AppEvent::PacketIn(ev) => return app.on_packet_in(sw, ev),
            AppEvent::FlowRemoved(m) => app.on_flow_removed(sw, m),
            AppEvent::Stats(m) => app.on_stats(sw, m),
        }
        PacketInVerdict::Continue
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
    retransmits: u64,
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
            retransmits: 0,
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
        self.role = role;
        self.generation_id = generation_id;
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

    /// Frames re-sent because no barrier reply confirmed them.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
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
            self.out.buf = buf;
            self.out.durable = durable;
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
        let out = &mut self.out;
        for (&node, st) in self.switches.iter_mut() {
            if !st.ready {
                // Handshake re-drive: a switch whose FEATURES_REPLY or
                // PORT_DESC reply was lost sits mid-handshake forever —
                // HELLOs crossed and echoes flow, so neither side sees a
                // dead link and nobody redials. Re-ask for the missing
                // step each tick; both replies are idempotent, so a
                // duplicate answer is harmless.
                out.send(if st.dpid == 0 {
                    Message::FeaturesRequest
                } else {
                    Message::MultipartRequest(MultipartReq::PortDesc)
                });
                out.transmit(node, ctx);
                continue;
            }
            if !st.inflight.is_empty() {
                // Re-sync: anything pushed but never barrier-acked (lost
                // on the channel, or acked by a reply that was itself
                // lost) is re-sent under a fresh barrier. Flow mods are
                // idempotent, so a spurious re-send converges to the same
                // tables.
                for (_, frame) in &st.inflight {
                    out.buf.extend_from_slice(frame);
                }
                self.retransmits += st.inflight.len() as u64;
                let b = out.send(Message::BarrierRequest);
                st.inflight.iter_mut().for_each(|e| e.0 = b);
                out.transmit(node, ctx);
            }
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
                ctx.ctrl_send(node, st.session.probe(out.next_xid()));
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
                Message::BarrierReply => {
                    // Everything covered by this barrier (or an earlier
                    // one) reached the switch; stop tracking it.
                    st.inflight.retain(|(b, _)| *b > xid);
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
                m @ Message::FlowRemoved { .. } => Some(AppEvent::FlowRemoved(m)),
                m @ Message::MultipartReply(_) => Some(AppEvent::Stats(m)),
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
    use openflow::message::PacketInReason;

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
    /// the same xids; a flow-mod either way is counted and filed as
    /// durable, and the owned wrapper queues the same as its parts.
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
        assert_eq!(lent.durable, vec![(0..flow_mod.len())]);
        assert_eq!(lent.flow_mods_sent, 1);

        let mut sent = Outbox::default();
        test_handle(1, &mut sent).flow_mod(owned);
        assert_eq!(&sent.buf[..], &flow_mod[..]);
        assert_eq!((sent.durable, sent.flow_mods_sent), (lent.durable, 1));
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
