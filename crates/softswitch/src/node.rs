//! The simulator node wrapping a [`Datapath`]: a multi-core CPU service
//! queue in front of the pipeline, an [`OfAgent`] on the control plane,
//! and periodic flow expiry.
//!
//! Packet service is batched the way a poll-mode core batches: a frame
//! that finds its core idle starts a service period of its own; frames
//! that arrive while the core is busy wait in the RX ring, and when the
//! period ends the core drains up to [`SoftSwitchNode::batch_size`] of
//! them into the next one and runs them through
//! [`Datapath::process_batch_into`]. Frames that land at one instant on
//! an idle core are therefore served as the first alone, then the rest
//! as one batch. A frame's service time is the same in a batch as alone
//! (every frame pays its own cache probe); the period lasts the sum of
//! them and its outputs leave together. Under light load every frame
//! gets a service period, and a batch, of its own. The drain buffer and
//! each slot's result arena are owned by the node and recycled across
//! service periods, so steady-state service allocates nothing.
//!
//! With [`SoftSwitchNode::with_datapath_cores`] the RX path switches
//! from shared-queue work conservation to RSS-style flow steering:
//! each frame's 5-tuple hash ([`netpkt::flowhash::rss_hash`]) pins its
//! flow to one service slot, so parallel service periods never put the
//! frames of a flow out of order. One steered core is bit-identical to
//! the unsteered single-core switch.
//!
//! Sim port numbering is 1:1 with OpenFlow port numbers (`PortId(n)` ↔
//! OF port `n`), which keeps the wiring in experiment topologies legible.

use bytes::Bytes;
use std::collections::HashMap;

use netpkt::wire::Cursor;
use netpkt::{frame, MacAddr};
use netsim::service::{ServiceQueue, Submit};
use netsim::{Node, NodeCtx, NodeId, PortId, SimTime};
use openflow::message::FlowMod;
use openflow::Action;

use crate::agent::OfAgent;
use crate::batch::{BatchResult, FrameBatch};
use crate::datapath::{Datapath, DpConfig};
use crate::trace::CostModel;

/// Timer token for periodic flow expiry.
const TOKEN_EXPIRE: u64 = 1;
/// Timer tokens `TOKEN_SVC + (generation << 16) + slot` mark service
/// completions. The generation is bumped by a reset so completions of
/// batches flushed by the power cycle are recognised as stale.
const TOKEN_SVC: u64 = 1000;
/// Timer tokens `TOKEN_CTRL + generation` drive the control-channel
/// liveness state machine (keepalive probes, connect timeouts, reconnect
/// backoff). The generation is bumped on every connection transition so
/// ticks scheduled for a torn-down connection are recognised as stale.
/// The base sits far above the service-token space, which grows as
/// `TOKEN_SVC + (svc_gen << 16) + slot`, so the two cannot collide.
const TOKEN_CTRL: u64 = 1 << 48;

/// Magic prefix of local administration messages (the analogue of the
/// switch's local management socket, à la `ovs-vsctl`).
pub const ADMIN_MAGIC: &[u8; 8] = b"HXADMIN\0";
/// Admin command: set the controller to the node id that follows (u64
/// big-endian) and initiate the OpenFlow connection.
pub const ADMIN_SET_CONTROLLER: u8 = 1;

/// Build a set-controller admin message.
pub fn admin_set_controller(controller: NodeId) -> Bytes {
    let mut b = Vec::with_capacity(17);
    b.extend_from_slice(ADMIN_MAGIC);
    b.push(ADMIN_SET_CONTROLLER);
    b.extend_from_slice(&(controller.0 as u64).to_be_bytes());
    Bytes::from(b)
}

/// How often the switch sweeps for expired flows.
const EXPIRE_PERIOD: SimTime = SimTime::from_millis(500);

/// Default maximum frames drained into one service period (the DPDK
/// burst size).
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Default keepalive probe period; doubles as the connect timeout for an
/// unanswered HELLO.
pub const DEFAULT_KEEPALIVE: SimTime = SimTime::from_millis(500);
/// Default number of keepalive probes that may go unanswered before the
/// controller connection is declared dead.
pub const DEFAULT_MAX_MISSED: u32 = 3;
/// Default initial reconnect backoff; doubled per failed attempt.
pub const DEFAULT_BACKOFF: SimTime = SimTime::from_millis(250);
/// Default reconnect backoff cap.
pub const DEFAULT_BACKOFF_CAP: SimTime = SimTime::from_secs(4);

/// What the switch does with slow-path misses while its controller is
/// unreachable — the OF 1.3 §6.4 fail modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// Keep the installed rules and drop slow-path misses ("fail secure
    /// mode"). The spec default for OpenFlow-only switches.
    #[default]
    Secure,
    /// Keep the installed rules but serve slow-path misses with a local
    /// MAC-learning flooding fallback ("fail standalone mode").
    Standalone,
}

/// Control-channel connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// No controller configured, or none reachable yet.
    Idle,
    /// HELLO sent, waiting for the controller's HELLO.
    Connecting,
    /// Handshaken; keepalive probes in flight.
    Up,
    /// Declared dead; waiting out the reconnect backoff.
    Backoff,
}

struct Work {
    in_port: u32,
    frame: Bytes,
}

/// A software switch attached to the simulator.
pub struct SoftSwitchNode {
    name: String,
    dp: Datapath,
    agent: OfAgent,
    cost: CostModel,
    /// Configured controllers: the primary first, then backups in
    /// promotion order. `active_ctrl` points at the one currently dialed.
    controllers: Vec<NodeId>,
    active_ctrl: usize,
    fail_mode: FailMode,
    link: LinkState,
    /// Bumped on every connection transition; liveness timers carry the
    /// generation they were scheduled under and are ignored when stale.
    ctrl_gen: u64,
    keepalive: SimTime,
    max_missed: u32,
    backoff: SimTime,
    backoff_base: SimTime,
    backoff_cap: SimTime,
    ctrl_failures: u64,
    failovers: u64,
    sessions: u64,
    standalone_frames: u64,
    secure_dropped: u64,
    /// MAC-learning table of the fail-standalone fallback bridge.
    fallback_macs: HashMap<MacAddr, u32>,
    sq: ServiceQueue<Work>,
    /// Each service slot's result arena: the outputs of the batch it
    /// serves, held until the period's completion timer fires.
    results: Vec<BatchResult>,
    batch_size: usize,
    /// RX ring depth, kept so [`Self::with_datapath_cores`] can rebuild
    /// the service queue with the same tail-drop bound.
    rx_queue: usize,
    /// When set, RX frames are flow-hash-steered to a fixed service
    /// slot instead of taking any free worker.
    steered: bool,
    /// Drain buffer reused across service periods.
    batch: FrameBatch,
    packet_ins_sent: u64,
    /// Bumped by every reset; stale service-completion timers carry the
    /// old generation and are ignored.
    svc_gen: u64,
    resets: u64,
}

impl SoftSwitchNode {
    /// Create a switch node.
    ///
    /// * `cores` — parallel packet-processing workers;
    /// * `rx_queue` — frames that may wait for a worker before tail drop
    ///   (the vhost/NIC RX ring).
    pub fn new(
        name: impl Into<String>,
        config: DpConfig,
        cores: usize,
        rx_queue: usize,
        cost: CostModel,
    ) -> SoftSwitchNode {
        let name = name.into();
        SoftSwitchNode {
            agent: OfAgent::new(name.clone()),
            name,
            dp: Datapath::new(config),
            cost,
            controllers: Vec::new(),
            active_ctrl: 0,
            fail_mode: FailMode::default(),
            link: LinkState::Idle,
            ctrl_gen: 0,
            keepalive: DEFAULT_KEEPALIVE,
            max_missed: DEFAULT_MAX_MISSED,
            backoff: DEFAULT_BACKOFF,
            backoff_base: DEFAULT_BACKOFF,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            ctrl_failures: 0,
            failovers: 0,
            sessions: 0,
            standalone_frames: 0,
            secure_dropped: 0,
            fallback_macs: HashMap::new(),
            sq: ServiceQueue::new(cores, rx_queue),
            results: (0..cores).map(|_| BatchResult::default()).collect(),
            batch_size: DEFAULT_BATCH_SIZE,
            rx_queue,
            steered: false,
            batch: FrameBatch::new(),
            packet_ins_sent: 0,
            svc_gen: 0,
            resets: 0,
        }
    }

    /// Number of power cycles this switch has been through.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Builder-style override of the maximum frames per service period
    /// (clamped to at least 1; 1 disables batching entirely).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Maximum frames drained into one service period.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Builder-style switch to RSS flow steering over `n` datapath
    /// cores (clamped to at least 1): each flow's 5-tuple hash pins it
    /// to one service slot, preserving per-flow frame order under
    /// parallel service. `n = 1` behaves bit-identically to the default
    /// single-core shared queue.
    pub fn with_datapath_cores(mut self, n: usize) -> Self {
        let n = n.max(1);
        self.sq = ServiceQueue::new(n, self.rx_queue);
        self.results = (0..n).map(|_| BatchResult::default()).collect();
        self.steered = true;
        self
    }

    /// Number of service slots frames are steered across (1 when flow
    /// steering is off and the shared queue is in use).
    pub fn datapath_cores(&self) -> usize {
        self.sq.servers()
    }

    /// Attach the controller this switch should speak OpenFlow to,
    /// replacing any previously configured controller set.
    pub fn connect_controller(&mut self, controller: NodeId) {
        self.controllers = vec![controller];
        self.active_ctrl = 0;
    }

    /// Add a backup controller; the switch dials it (in order) only after
    /// declaring the active controller dead.
    pub fn add_backup_controller(&mut self, controller: NodeId) {
        if !self.controllers.contains(&controller) {
            self.controllers.push(controller);
        }
    }

    /// The controller this switch is currently dialing, if any.
    pub fn controller(&self) -> Option<NodeId> {
        self.controllers.get(self.active_ctrl).copied()
    }

    /// Change the fail mode.
    pub fn set_fail_mode(&mut self, mode: FailMode) {
        self.fail_mode = mode;
    }

    /// Change the keepalive cadence: probe every `period`, declare the
    /// controller dead after `max_missed` unanswered probes.
    pub fn set_keepalive(&mut self, period: SimTime, max_missed: u32) {
        self.keepalive = period;
        self.max_missed = max_missed.max(1);
    }

    /// Change the reconnect backoff (initial delay and cap).
    pub fn set_backoff(&mut self, base: SimTime, cap: SimTime) {
        self.backoff = base;
        self.backoff_base = base;
        self.backoff_cap = cap;
    }

    /// True while the OpenFlow session is handshaken and probes are
    /// being answered.
    pub fn controller_link_up(&self) -> bool {
        self.link == LinkState::Up
    }

    /// Times the switch declared its controller connection dead.
    pub fn ctrl_failures(&self) -> u64 {
        self.ctrl_failures
    }

    /// Times the switch promoted a backup controller after a death.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Completed handshakes beyond the first — i.e. successful reconnects.
    pub fn reconnects(&self) -> u64 {
        self.sessions.saturating_sub(1)
    }

    /// Slow-path misses served by the fail-standalone fallback bridge.
    pub fn standalone_frames(&self) -> u64 {
        self.standalone_frames
    }

    /// Slow-path misses dropped in fail-secure mode.
    pub fn secure_dropped(&self) -> u64 {
        self.secure_dropped
    }

    /// Register an OpenFlow/sim port.
    pub fn add_port(&mut self, no: u32, name: impl Into<String>, speed_kbps: u32) {
        self.dp.add_port(no, name, speed_kbps);
    }

    /// Direct dataplane access (used by tests and by the HARMLESS manager
    /// for translator-rule installation without a full controller).
    pub fn datapath_mut(&mut self) -> &mut Datapath {
        &mut self.dp
    }

    /// Read-only dataplane access.
    pub fn datapath(&self) -> &Datapath {
        &self.dp
    }

    /// Frames tail-dropped at the RX queue (CPU overload).
    pub fn rx_dropped(&self) -> u64 {
        self.sq.drops()
    }

    /// Packet-in messages sent to the controller so far. Part of the
    /// quiescence signal: in cache-less pipeline modes it is the only
    /// per-frame evidence of an unconverged flow.
    pub fn packet_ins_sent(&self) -> u64 {
        self.packet_ins_sent
    }

    fn start_service(&mut self, slot: usize, ctx: &mut NodeCtx) {
        // Process the whole drained batch immediately to learn its cost,
        // hold the results until the (summed) service time elapses. The
        // drain buffer and the slot's result arena are recycled from
        // previous periods — a steady-state period performs no
        // allocations here.
        // The frames are moved out of the slot, not cloned: the slot
        // only counts its items from here on, and a datapath that is
        // the frame's sole holder may rewrite it in place.
        self.batch.clear();
        for w in self.sq.batch_mut(slot) {
            self.batch.push(w.in_port, std::mem::take(&mut w.frame));
        }
        let result = &mut self.results[slot];
        self.dp
            .process_batch_into(&mut self.batch, ctx.now().as_nanos(), result);
        let svc_ns: u64 = result
            .frames()
            .iter()
            .map(|r| {
                r.trace
                    .as_ref()
                    .map(|t| self.cost.cost_ns(t))
                    .unwrap_or(100)
            })
            .sum();
        ctx.schedule(
            SimTime::from_nanos(svc_ns),
            TOKEN_SVC + (self.svc_gen << 16) + slot as u64,
        );
    }

    /// (Re)start the OpenFlow connection to the active controller: forget
    /// the old session, send HELLO, arm the connect timeout.
    fn start_connect(&mut self, ctx: &mut NodeCtx) {
        let Some(c) = self.controller() else {
            self.link = LinkState::Idle;
            return;
        };
        self.ctrl_gen += 1;
        self.agent.reset_connection();
        self.link = LinkState::Connecting;
        let hello = self.agent.hello();
        ctx.ctrl_send(c, hello);
        ctx.schedule(self.keepalive, TOKEN_CTRL + self.ctrl_gen);
    }

    /// The active controller stopped answering: promote the next backup
    /// (if any) and wait out the current backoff before redialing. The
    /// backoff doubles per consecutive failure up to the cap.
    fn ctrl_dead(&mut self, ctx: &mut NodeCtx) {
        self.ctrl_failures += 1;
        if self.fail_mode == FailMode::Standalone {
            self.ensure_miss_punt(ctx.now().as_nanos());
        }
        if self.controllers.len() > 1 {
            self.active_ctrl = (self.active_ctrl + 1) % self.controllers.len();
            self.failovers += 1;
        }
        self.link = LinkState::Backoff;
        self.ctrl_gen += 1;
        ctx.schedule(self.backoff, TOKEN_CTRL + self.ctrl_gen);
        let next = self
            .backoff
            .as_nanos()
            .saturating_mul(2)
            .min(self.backoff_cap.as_nanos());
        self.backoff = SimTime::from_nanos(next);
    }

    /// The handshake completed (first connect, reconnect, or failover).
    fn link_established(&mut self, ctx: &mut NodeCtx) {
        self.sessions += 1;
        self.link = LinkState::Up;
        self.backoff = self.backoff_base;
        self.fallback_macs.clear();
        self.ctrl_gen += 1;
        ctx.schedule(self.keepalive, TOKEN_CTRL + self.ctrl_gen);
    }

    /// One liveness tick for the current connection generation.
    fn ctrl_tick(&mut self, ctx: &mut NodeCtx) {
        match self.link {
            LinkState::Idle => {}
            // The HELLO went unanswered for a whole keepalive period.
            LinkState::Connecting => self.ctrl_dead(ctx),
            LinkState::Backoff => self.start_connect(ctx),
            LinkState::Up => {
                if self.agent.controller_dead(self.max_missed) {
                    self.ctrl_dead(ctx);
                } else if let Some(c) = self.controller() {
                    let probe = self.agent.echo_probe();
                    ctx.ctrl_send(c, probe);
                    ctx.schedule(self.keepalive, TOKEN_CTRL + self.ctrl_gen);
                }
            }
        }
    }

    /// Fail-standalone serves slow-path misses — but a datapath that
    /// never completed a handshake has an empty table 0, and OF 1.3 §5.4
    /// drops misses that hit no table-miss entry, so they would never
    /// surface as punts for [`Self::fallback_forward`] to serve. On
    /// declared death, install the same priority-0 punt the controller's
    /// handshake would have installed; a later (re)connect re-adds an
    /// identical entry, so the rule set still matches a never-failed run.
    fn ensure_miss_punt(&mut self, now_ns: u64) {
        let has_miss = self.dp.table(0).is_some_and(|t| {
            t.entries()
                .iter()
                .any(|e| e.priority == 0 && e.match_.fields().is_empty())
        });
        if has_miss {
            return;
        }
        let fm = FlowMod::add(0)
            .priority(0)
            .apply(vec![Action::to_controller()]);
        let _ = self.dp.apply_flow_mod(&fm, now_ns);
    }

    /// Serve a slow-path miss as a plain learning bridge would: learn the
    /// source MAC, forward to the learned port or flood. Only reachable in
    /// fail-standalone mode with the controller unreachable.
    fn fallback_forward(&mut self, in_port: u32, frame: &Bytes, ctx: &mut NodeCtx) {
        let Ok(eth) = frame::Header::parse(&mut &frame[..]) else {
            return;
        };
        self.standalone_frames += 1;
        self.fallback_macs.insert(eth.src, in_port);
        if eth.dst.is_unicast() {
            if let Some(&p) = self.fallback_macs.get(&eth.dst) {
                if p != in_port {
                    ctx.transmit(PortId(p as u16), frame.clone());
                }
                return;
            }
        }
        for pd in self.dp.port_descs() {
            if pd.port_no != in_port && pd.port_no <= openflow::port_no::MAX {
                ctx.transmit(PortId(pd.port_no as u16), frame.clone());
            }
        }
    }

    /// Emit the outputs and punts of the batch `slot` just finished.
    fn emit_result(&mut self, slot: usize, ctx: &mut NodeCtx) {
        let mut result = std::mem::take(&mut self.results[slot]);
        for i in 0..result.len() {
            for (port, frame) in result.take_outputs_of(i) {
                ctx.transmit(PortId(port as u16), frame);
            }
            if result.packet_ins_of(i).is_empty() {
                continue;
            }
            // Punts go to the controller while the session is up — and
            // during the *initial* handshake, where the channel usually
            // works and the controller buffers early punts. After a
            // declared death they go to the configured fail mode until a
            // session is re-established.
            let ctrl_ok = self.link == LinkState::Up
                || (self.ctrl_failures == 0 && self.link == LinkState::Connecting);
            if ctrl_ok {
                let controller = self.controller().expect("link state implies a controller");
                for (reason, in_port, data) in result.packet_ins_of(i) {
                    let msg = self.agent.packet_in(*reason, *in_port, data);
                    self.packet_ins_sent += 1;
                    ctx.ctrl_send(controller, msg);
                }
            } else {
                for (_reason, in_port, data) in result.packet_ins_of(i) {
                    match self.fail_mode {
                        FailMode::Secure => self.secure_dropped += 1,
                        FailMode::Standalone => self.fallback_forward(*in_port, data, ctx),
                    }
                }
            }
        }
        // Keep the arena for the slot's next service period.
        result.clear();
        self.results[slot] = result;
    }

    /// Pick the service slot for a frame: its RSS flow hash when
    /// steering is on, the shared work-conserving queue otherwise.
    fn submit_rx(&mut self, in_port: u32, frame: Bytes) -> Submit {
        if self.steered {
            let slot = netpkt::flowhash::rss_hash(&frame) as usize % self.sq.servers();
            self.sq.submit_to(slot, Work { in_port, frame })
        } else {
            self.sq.submit(Work { in_port, frame })
        }
    }
}

impl Node for SoftSwitchNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        ctx.schedule(EXPIRE_PERIOD, TOKEN_EXPIRE);
        if self.controller().is_some() {
            self.start_connect(ctx);
        }
    }

    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        match self.submit_rx(u32::from(port.0), frame) {
            Submit::Start(slot) => self.start_service(slot, ctx),
            Submit::Queued | Submit::Dropped => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token >= TOKEN_CTRL {
            if token - TOKEN_CTRL == self.ctrl_gen {
                self.ctrl_tick(ctx);
            }
            return;
        }
        if token == TOKEN_EXPIRE {
            let notices = self.agent.expire_flows(&mut self.dp, ctx.now().as_nanos());
            if let Some(c) = self.controller() {
                for msg in notices {
                    ctx.ctrl_send(c, msg);
                }
            }
            // Idle NAT connections age out on the same cadence; the
            // sweep flushes the caches itself when anything dies.
            self.dp.sweep_nat(ctx.now().as_nanos());
            ctx.schedule(EXPIRE_PERIOD, TOKEN_EXPIRE);
            return;
        }
        if token >= TOKEN_SVC {
            let v = token - TOKEN_SVC;
            // A completion from before the last reset is stale: its
            // batch was flushed by the power cycle and the slot may
            // already serve post-reset work. A current one always finds
            // its slot busy.
            if (v >> 16) != self.svc_gen {
                return;
            }
            let slot = (v & 0xFFFF) as usize;
            self.sq.finish(slot);
            self.emit_result(slot, ctx);
            // Drain whatever backed up while this core was busy, as one
            // batched service period.
            if self.sq.start_queued_batch(slot, self.batch_size) > 0 {
                self.start_service(slot, ctx);
            }
        }
    }

    fn on_reset(&mut self, ctx: &mut NodeCtx) {
        // A power cycle: pipeline tables, caches and all in-flight work
        // are RAM and vanish; the port inventory and the configured
        // controller target are persistent config (the OVSDB analogue)
        // and survive. Reconnect to the controller like a fresh boot.
        self.resets += 1;
        self.svc_gen += 1;
        self.dp.reset_tables();
        self.sq.clear();
        self.agent = OfAgent::new(self.name.clone());
        self.link = LinkState::Idle;
        self.backoff = self.backoff_base;
        self.fallback_macs.clear();
        if self.controller().is_some() {
            self.start_connect(ctx);
        }
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        // Local administration (set-controller) arrives on the same
        // management plane with a magic prefix.
        let mut admin = &data[..];
        if admin.array() == Ok(*ADMIN_MAGIC) {
            if let (Ok(ADMIN_SET_CONTROLLER), Ok(id)) = (admin.u8(), admin.u64()) {
                self.connect_controller(NodeId(id as usize));
                self.start_connect(ctx);
            }
            return;
        }
        // Only the attached controller (or a manager acting as one) is
        // honoured; OpenFlow has no in-band peer auth in this model.
        let was_handshaken = self.agent.handshaken();
        let out = self.agent.handle(&mut self.dp, data, ctx.now().as_nanos());
        if !was_handshaken && self.agent.handshaken() {
            self.link_established(ctx);
        }
        for reply in out.replies {
            ctx.ctrl_send(from, reply);
        }
        for (port, frame) in out.transmits {
            ctx.transmit(PortId(port as u16), frame);
        }
    }

    fn flow_resident(&self, port: PortId, frame: &[u8]) -> Option<bool> {
        self.dp.flow_resident(u32::from(port.0), frame)
    }

    fn quiescence(&self) -> Option<u64> {
        // Datapath disturbances (epoch, slow-path entries, NAT drops,
        // TTL expiries) plus node-level ones: RX tail drops, power
        // cycles, and packet-ins — the latter being the only per-frame
        // convergence evidence in cache-less pipeline modes.
        Some(
            self.dp.quiescence()
                + self.sq.drops()
                + self.resets
                + self.packet_ins_sent
                + self.ctrl_failures
                + self.standalone_frames
                + self.secure_dropped,
        )
    }

    fn credit_modeled(&mut self, frames: u64, _bytes: u64) {
        self.dp.credit_modeled(frames);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::PipelineMode;
    use netpkt::MacAddr;
    use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
    use netsim::{LinkSpec, Network};
    use openflow::message::FlowMod;
    use openflow::{Action, Match};
    use std::net::Ipv4Addr;

    fn switch() -> SoftSwitchNode {
        let mut s = SoftSwitchNode::new(
            "ss",
            DpConfig::software(1).with_mode(PipelineMode::full()),
            1,
            4096,
            CostModel::default(),
        );
        s.add_port(1, "p1", 1_000_000);
        s.add_port(2, "p2", 1_000_000);
        s
    }

    #[test]
    fn forwards_traffic_between_ports() {
        let mut net = Network::new(1);
        let mut sw = switch();
        sw.datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(1)
                    .match_(Match::new().in_port(1))
                    .apply(vec![Action::output(2)]),
                0,
            )
            .unwrap();
        let s = net.add_node(sw);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 100_000.0 },
            vec![FlowSpec::simple(1, 2, 128)],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let sink = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(50));
        let rx = net.node_ref::<Sink>(sink).received();
        assert_eq!(rx, 1000, "100 kpps × 10 ms, no loss expected");
        // Latency includes the switch's processing time.
        let lat = net.node_ref::<Sink>(sink).latency();
        assert!(
            lat.p50() > 2_000,
            "p50 {}ns must exceed raw wire latency",
            lat.p50()
        );
    }

    /// A poll-mode core batches only its backlog: k frames that land at
    /// one instant on an idle one-core switch are served as the first
    /// alone, then the other k − 1 as one batch. Without batching they
    /// take k service periods.
    #[test]
    fn same_instant_frames_are_served_alone_then_as_one_backlog_batch() {
        let frame = netpkt::builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            53,
            b"x",
        );
        // Returns the frames the first service period carried and the
        // number of service periods in all.
        let run = |k: u64, batch_size: usize| {
            let mut net = Network::new(1);
            let mut sw = switch().with_batch_size(batch_size);
            sw.datapath_mut()
                .apply_flow_mod(
                    &FlowMod::add(0)
                        .priority(1)
                        .match_(Match::new().in_port(1))
                        .apply(vec![Action::output(2)]),
                    0,
                )
                .unwrap();
            // Port 2 is left unconnected, so the only events besides
            // the k deliveries are the completion timers, one per
            // service period.
            let s = net.add_node(sw);
            for _ in 0..k {
                net.inject(s, PortId(1), frame.clone());
            }
            net.run_until(SimTime::ZERO);
            let first = net.node_ref::<SoftSwitchNode>(s).datapath().stats().packets;
            net.run_until(SimTime::from_millis(1));
            assert_eq!(net.unconnected_drops(), k, "every frame was forwarded");
            (first, net.events_processed() - k)
        };
        for k in [2, 8, 32] {
            assert_eq!(run(k, DEFAULT_BATCH_SIZE), (1, 2), "k = {k}");
            assert_eq!(run(k, 1), (1, k), "k = {k}, unbatched");
        }
    }

    /// One steered core must be bit-identical to the default shared
    /// queue: same delivery count, same latency distribution, same
    /// datapath counters.
    #[test]
    fn one_steered_core_equals_unsteered_shared_queue() {
        let run = |cores: Option<usize>| {
            let mut net = Network::new(5);
            let mut sw = switch();
            if let Some(n) = cores {
                sw = sw.with_datapath_cores(n);
            }
            sw.datapath_mut()
                .apply_flow_mod(
                    &FlowMod::add(0)
                        .priority(1)
                        .match_(Match::new().in_port(1))
                        .apply(vec![Action::output(2)]),
                    0,
                )
                .unwrap();
            let s = net.add_node(sw);
            let g = net.add_node(Generator::new(
                "gen",
                PortId(0),
                Pattern::Cbr { pps: 200_000.0 },
                vec![
                    FlowSpec::simple(1, 2, 128),
                    FlowSpec::simple(3, 4, 256),
                    FlowSpec::simple(5, 6, 512),
                ],
                SimTime::ZERO,
                SimTime::from_millis(10),
            ));
            let sink = net.add_node(Sink::new("sink"));
            net.connect(g, PortId(0), s, PortId(1), LinkSpec::gigabit());
            net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());
            net.run_until(SimTime::from_millis(50));
            let rx = net.node_ref::<Sink>(sink).received();
            let p50 = net.node_ref::<Sink>(sink).latency().p50();
            let sw = net.node_ref::<SoftSwitchNode>(s);
            (rx, p50, sw.datapath().stats(), sw.rx_dropped())
        };
        let unsteered = run(None);
        assert_eq!(unsteered, run(Some(1)), "N=1 steering must be invisible");
        assert!(unsteered.0 > 0, "traffic must actually flow");
    }

    /// RSS steering pins each flow to one service slot: with four
    /// datapath cores serving an interleaved mix of flows, every flow's
    /// frames arrive in submission order.
    #[test]
    fn steering_preserves_per_flow_order_across_cores() {
        let mut net = Network::new(11);
        let mut sw = switch().with_datapath_cores(4);
        assert_eq!(sw.datapath_cores(), 4);
        sw.datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(1)
                    .match_(Match::new().in_port(1))
                    .apply(vec![Action::output(2)]),
                0,
            )
            .unwrap();
        let s = net.add_node(sw);
        let h = net.add_node(netsim::host::Host::new(
            "h",
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        net.connect(s, PortId(2), h, PortId(0), LinkSpec::gigabit());
        const FLOWS: u16 = 4;
        const SEQ: u8 = 8;
        for i in 0..SEQ {
            for flow in 0..FLOWS {
                net.inject(
                    s,
                    PortId(1),
                    netpkt::builder::udp_packet(
                        MacAddr::host(1),
                        MacAddr::host(2),
                        Ipv4Addr::new(10, 0, 0, 1),
                        Ipv4Addr::new(10, 0, 0, 2),
                        1000 + flow,
                        53,
                        &[i],
                    ),
                );
            }
        }
        net.run_until(SimTime::from_millis(20));
        let mb = net.node_ref::<netsim::host::Host>(h).mailbox();
        assert_eq!(mb.len(), usize::from(FLOWS) * usize::from(SEQ));
        for flow in 0..FLOWS {
            let seqs: Vec<u8> = mb
                .iter()
                .filter(|d| d.src_port == 1000 + flow)
                .map(|d| d.payload[0])
                .collect();
            assert_eq!(
                seqs,
                (0..SEQ).collect::<Vec<u8>>(),
                "flow {flow} must stay in order"
            );
        }
    }

    #[test]
    fn cpu_saturation_drops_at_rx_queue() {
        let mut net = Network::new(1);
        let mut sw = SoftSwitchNode::new(
            "slow",
            DpConfig::software(1).with_mode(PipelineMode::linear()),
            1,
            16,                      // tiny RX ring
            CostModel::scaled(50.0), // ~deliberately slow CPU
        );
        sw.add_port(1, "p1", 1_000_000);
        sw.add_port(2, "p2", 1_000_000);
        sw.datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0).priority(1).apply(vec![Action::output(2)]),
                0,
            )
            .unwrap();
        let s = net.add_node(sw);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 500_000.0 },
            vec![FlowSpec::simple(1, 2, 60)],
            SimTime::ZERO,
            SimTime::from_millis(20),
        ));
        let sink = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(100));
        let sw = net.node_ref::<SoftSwitchNode>(s);
        assert!(sw.rx_dropped() > 0, "an overloaded core must shed load");
        let rx = net.node_ref::<Sink>(sink).received();
        assert!(rx > 0 && rx < 10_000, "some but not all forwarded: {rx}");
    }

    /// A scripted controller: sends a canned list of messages on first
    /// contact, records everything it receives. With `live` set it also
    /// answers HELLOs and echo probes (mirroring the xid) like a real
    /// controller, so switch-side liveness sees it as healthy.
    struct MiniController {
        to_send: Vec<Bytes>,
        target: Option<NodeId>,
        received: Vec<openflow::Message>,
        live: bool,
    }

    impl Node for MiniController {
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _ctx: &mut NodeCtx) {}
        fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
            let mut rx = openflow::Session::default();
            rx.push(data);
            while let Some(next) = rx.next_message() {
                let (xid, m) = next.expect("well-formed");
                if self.live {
                    match &m {
                        openflow::Message::Hello => {
                            ctx.ctrl_send(from, openflow::Message::Hello.encode(xid));
                        }
                        openflow::Message::EchoRequest(d) => {
                            ctx.ctrl_send(
                                from,
                                openflow::Message::EchoReply(d.clone()).encode(xid),
                            );
                        }
                        _ => {}
                    }
                }
                self.received.push(m);
            }
            if self.target.is_none() {
                self.target = Some(from);
                for m in std::mem::take(&mut self.to_send) {
                    ctx.ctrl_send(from, m);
                }
            }
        }
    }

    #[test]
    fn of_channel_end_to_end() {
        let mut net = Network::new(1);
        let fm = FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)]);
        let ctrl = net.add_node(MiniController {
            to_send: vec![
                openflow::Message::Hello.encode(1),
                openflow::Message::FeaturesRequest.encode(2),
                openflow::Message::FlowMod(fm).encode(3),
                openflow::Message::BarrierRequest.encode(4),
            ],
            target: None,
            received: Vec::new(),
            live: false,
        });
        let mut sw = switch();
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        let h = net.add_node(netsim::host::Host::new(
            "h",
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        let sink = net.add_node(Sink::new("sink"));
        net.connect(h, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(10));
        // Controller saw features + barrier.
        let ctrl_node = net.node_ref::<MiniController>(ctrl);
        assert!(ctrl_node
            .received
            .iter()
            .any(|m| matches!(m, openflow::Message::FeaturesReply { .. })));
        assert!(ctrl_node
            .received
            .iter()
            .any(|m| matches!(m, openflow::Message::BarrierReply)));
        // The installed rule forwards.
        net.with_node_ctx::<netsim::host::Host, _>(h, |host, ctx| {
            host.send_udp(Ipv4Addr::new(10, 0, 0, 2), 53, b"q");
            host.flush(ctx);
        });
        net.run_until(SimTime::from_millis(20));
        // The ARP for 10.0.0.2 gets forwarded to the sink (port 2).
        assert!(net.node_ref::<Sink>(sink).received() > 0);
    }

    #[test]
    fn idle_flow_expiry_flushes_caches_and_reports_flow_removed() {
        use openflow::table::flow_flags;
        let mut net = Network::new(1);
        // The controller installs one idle-timeout rule that asks for a
        // FLOW_REMOVED notification.
        let fm = FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)])
            .timeouts(1, 0) // 1 s idle
            .flags(flow_flags::SEND_FLOW_REM);
        let ctrl = net.add_node(MiniController {
            to_send: vec![
                openflow::Message::Hello.encode(1),
                openflow::Message::FlowMod(fm).encode(2),
                openflow::Message::BarrierRequest.encode(3),
            ],
            target: None,
            received: Vec::new(),
            live: false,
        });
        let mut sw = switch();
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 10_000.0 },
            vec![FlowSpec::simple(1, 2, 128)],
            SimTime::from_millis(5), // after the rule + barrier landed
            SimTime::from_millis(15),
        ));
        let sink = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());

        // Burst: the rule forwards and the repeated flow populates the
        // micro/megaflow caches.
        net.run_until(SimTime::from_millis(100));
        let forwarded = net.node_ref::<Sink>(sink).received();
        assert_eq!(
            forwarded, 100,
            "10 kpps over [5 ms, 15 ms) through the rule"
        );
        let epoch_before;
        {
            let dp = net.node_ref::<SoftSwitchNode>(s).datapath();
            assert_eq!(dp.table(0).unwrap().len(), 1);
            assert!(
                dp.micro_cache().hits() + dp.mega_cache().hits() > 0,
                "the repeated flow must be served from a cache"
            );
            epoch_before = dp.epoch();
        }

        // Idle past the timeout; the 500 ms sweep that crosses the
        // deadline retires the rule, bumps the epoch (wholesale cache
        // flush) and notifies the controller.
        net.run_until(SimTime::from_millis(1700));
        {
            let dp = net.node_ref::<SoftSwitchNode>(s).datapath();
            assert_eq!(dp.table(0).unwrap().len(), 0, "rule expired");
            assert!(dp.epoch() > epoch_before, "expiry must flush the caches");
        }
        let removed: Vec<_> = net
            .node_ref::<MiniController>(ctrl)
            .received
            .iter()
            .filter_map(|m| match m {
                openflow::Message::FlowRemoved {
                    reason, priority, ..
                } => Some((*reason, *priority)),
                _ => None,
            })
            .collect();
        assert_eq!(
            removed,
            vec![(openflow::table::RemovedReason::IdleTimeout.value(), 1)],
            "exactly one FLOW_REMOVED, for our rule, reason idle-timeout"
        );

        // End to end: with the rule gone and the caches flushed, the
        // same flow is dropped, not forwarded from a stale cache line.
        net.inject(
            s,
            PortId(1),
            netpkt::builder::udp_packet(
                MacAddr::host(1),
                MacAddr::host(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000,
                53,
                b"late",
            ),
        );
        net.run_until(SimTime::from_millis(1800));
        assert_eq!(
            net.node_ref::<Sink>(sink).received(),
            forwarded,
            "no stale forwarding after the epoch flush"
        );
    }

    #[test]
    fn packet_in_reaches_controller() {
        let mut net = Network::new(1);
        let ctrl = net.add_node(MiniController {
            to_send: vec![openflow::Message::Hello.encode(1)],
            target: None,
            received: Vec::new(),
            live: false,
        });
        let mut sw = switch();
        sw.connect_controller(ctrl);
        sw.datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(0)
                    .apply(vec![Action::to_controller()]),
                0,
            )
            .unwrap();
        let s = net.add_node(sw);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 1000.0 },
            vec![FlowSpec::simple(1, 2, 60)],
            SimTime::ZERO,
            SimTime::from_millis(2),
        ));
        net.connect(g, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(10));
        let ctrl_node = net.node_ref::<MiniController>(ctrl);
        let pis = ctrl_node
            .received
            .iter()
            .filter(|m| matches!(m, openflow::Message::PacketIn { .. }))
            .count();
        assert_eq!(pis, 2);
    }

    /// Wire up a switch (with a punt-everything miss rule) to a live
    /// MiniController, plus a sink on port 2 to observe fallback floods.
    fn resilience_rig(fail_mode: FailMode) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(7);
        let ctrl = net.add_node(MiniController {
            to_send: Vec::new(),
            target: None,
            received: Vec::new(),
            live: true,
        });
        let mut sw = switch();
        sw.set_fail_mode(fail_mode);
        sw.set_keepalive(SimTime::from_millis(50), 2);
        sw.set_backoff(SimTime::from_millis(100), SimTime::from_millis(400));
        sw.connect_controller(ctrl);
        sw.datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(0)
                    .apply(vec![Action::to_controller()]),
                0,
            )
            .unwrap();
        let s = net.add_node(sw);
        let sink = net.add_node(Sink::new("sink"));
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::gigabit());
        (net, ctrl, s, sink)
    }

    fn miss_frame(payload: &'static [u8]) -> Bytes {
        netpkt::builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            53,
            payload,
        )
    }

    #[test]
    fn agent_observes_ctrl_down_and_standalone_floods() {
        let (mut net, ctrl, s, sink) = resilience_rig(FailMode::Standalone);
        // Healthy phase: handshake completes and probes are answered.
        net.run_until(SimTime::from_millis(150));
        {
            let sw = net.node_ref::<SoftSwitchNode>(s);
            assert!(sw.controller_link_up(), "live controller must stay up");
            assert_eq!(sw.ctrl_failures(), 0);
        }
        // Explicit control-channel teardown: the agent must observe it
        // (via missed probes), not silently keep a dead channel "up".
        net.schedule_ctrl_down(net.now(), ctrl);
        net.run_until(SimTime::from_millis(500));
        {
            let sw = net.node_ref::<SoftSwitchNode>(s);
            assert!(!sw.controller_link_up(), "keepalive must notice the cut");
            assert!(sw.ctrl_failures() >= 1);
        }
        // Slow-path misses are now served by the learning-bridge
        // fallback: an unknown destination floods out of port 2.
        net.inject(s, PortId(1), miss_frame(b"standalone"));
        net.run_until(SimTime::from_millis(600));
        {
            let sw = net.node_ref::<SoftSwitchNode>(s);
            assert!(sw.standalone_frames() >= 1, "fallback must engage");
            assert_eq!(net.node_ref::<Sink>(sink).received(), 1);
        }
        // Heal the channel: backoff redial completes a fresh handshake.
        net.schedule_ctrl_up(net.now(), ctrl);
        net.run_until(SimTime::from_secs(3));
        {
            let sw = net.node_ref::<SoftSwitchNode>(s);
            assert!(sw.controller_link_up(), "must redial after ctrl_up");
            assert!(sw.reconnects() >= 1);
        }
    }

    #[test]
    fn secure_mode_keeps_rules_and_drops_misses() {
        let (mut net, ctrl, s, sink) = resilience_rig(FailMode::Secure);
        // Give the switch a live forwarding rule alongside the miss rule.
        net.node_mut::<SoftSwitchNode>(s)
            .datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(5)
                    .match_(Match::new().eth_type(0x0800))
                    .apply(vec![Action::output(2)]),
                0,
            )
            .unwrap();
        net.run_until(SimTime::from_millis(150));
        net.schedule_ctrl_down(net.now(), ctrl);
        net.run_until(SimTime::from_millis(500));
        assert!(!net.node_ref::<SoftSwitchNode>(s).controller_link_up());
        // The installed rule keeps forwarding (IPv4 frame hits it)…
        net.inject(s, PortId(1), miss_frame(b"ipv4"));
        // …while a miss (ARP frame, not matching the IPv4 rule) is
        // dropped rather than flooded.
        net.inject(
            s,
            PortId(1),
            netpkt::builder::arp_request(
                MacAddr::host(1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        );
        net.run_until(SimTime::from_millis(700));
        let sw = net.node_ref::<SoftSwitchNode>(s);
        assert_eq!(sw.standalone_frames(), 0, "secure mode never floods");
        assert!(sw.secure_dropped() >= 1, "the miss must be dropped");
        assert_eq!(
            net.node_ref::<Sink>(sink).received(),
            1,
            "installed rules must keep forwarding in fail-secure mode"
        );
    }

    #[test]
    fn failover_promotes_backup_controller() {
        let mut net = Network::new(9);
        let primary = net.add_node(MiniController {
            to_send: Vec::new(),
            target: None,
            received: Vec::new(),
            live: true,
        });
        let backup = net.add_node(MiniController {
            to_send: Vec::new(),
            target: None,
            received: Vec::new(),
            live: true,
        });
        let mut sw = switch();
        sw.set_keepalive(SimTime::from_millis(50), 2);
        sw.set_backoff(SimTime::from_millis(100), SimTime::from_millis(400));
        sw.connect_controller(primary);
        sw.add_backup_controller(backup);
        let s = net.add_node(sw);
        net.run_until(SimTime::from_millis(150));
        assert_eq!(
            net.node_ref::<SoftSwitchNode>(s).controller(),
            Some(primary)
        );
        // Kill the primary; the switch must promote the backup and
        // complete a full re-handshake with it.
        net.schedule_ctrl_down(net.now(), primary);
        net.run_until(SimTime::from_secs(2));
        let sw = net.node_ref::<SoftSwitchNode>(s);
        assert_eq!(sw.controller(), Some(backup), "backup must be promoted");
        assert!(sw.failovers() >= 1);
        assert!(sw.controller_link_up(), "handshaken with the backup");
        let b = net.node_ref::<MiniController>(backup);
        assert!(
            b.received
                .iter()
                .any(|m| matches!(m, openflow::Message::Hello)),
            "the backup saw a fresh handshake"
        );
    }
}
