//! The COTS hardware OpenFlow switch model — the device HARMLESS competes
//! with on price and the paper criticises for "not scaling \[and\] offering
//! unpredictable performance" (ref 13 in the paper).
//!
//! Modelled properties, taken from public switch datasheets and the
//! vendor-limitation survey the paper cites:
//!
//! * **Line-rate matching** regardless of rule count — a fixed, small
//!   pipeline latency and no CPU bottleneck;
//! * **Tiny rule table** — flow-mods beyond `tcam_entries` are rejected
//!   with `TABLE_FULL`;
//! * **Slow, serialized rule installation** — each table write costs
//!   `install_delay` (hundreds of rules/second is typical), so barriers
//!   and bulk policy pushes take visible time;
//! * **Limited match/action support** — masked MAC matches and QinQ
//!   pushes are refused (`BAD_MATCH`), a nod to the standards-compliance
//!   complaints.

use bytes::Bytes;
use std::collections::VecDeque;

use netsim::{Node, NodeCtx, NodeId, PortId, SimTime};
use openflow::message::Message;
use openflow::oxm::OxmField;
use softswitch::agent::{AgentOutput, OfAgent};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use softswitch::{BatchResult, FrameBatch};

const TOKEN_INSTALL: u64 = 1;
const TOKEN_EXPIRE: u64 = 2;
const EXPIRE_PERIOD: SimTime = SimTime::from_millis(500);

/// Hardware model parameters.
#[derive(Debug, Clone)]
pub struct CotsConfig {
    /// OpenFlow datapath id.
    pub datapath_id: u64,
    /// TCAM capacity per table.
    pub tcam_entries: usize,
    /// Fixed forwarding latency (cut-through ASIC pipeline).
    pub pipeline_latency: SimTime,
    /// Cost of installing/removing one rule.
    pub install_delay: SimTime,
    /// Processing time of non-table control messages.
    pub ctrl_delay: SimTime,
}

impl Default for CotsConfig {
    fn default() -> Self {
        CotsConfig {
            datapath_id: 0xC075,
            // Typical commodity OF 1.3 silicon: 2-4k TCAM flows [13, 14].
            tcam_entries: 2048,
            pipeline_latency: SimTime::from_nanos(800),
            // ~250 flow-mods/second, a common figure for TCAM writes.
            install_delay: SimTime::from_micros(4000),
            ctrl_delay: SimTime::from_micros(100),
        }
    }
}

/// A commodity hardware OpenFlow switch attached to the simulator.
pub struct CotsSwitchNode {
    name: String,
    dp: Datapath,
    agent: OfAgent,
    config: CotsConfig,
    controller: Option<NodeId>,
    /// Control messages waiting for the management CPU, with their source.
    install_queue: VecDeque<(NodeId, u32, Message)>,
    busy: bool,
    flow_mods_applied: u64,
    /// The frame on its way into the ASIC and the arena it comes out
    /// in, recycled across frames.
    batch: FrameBatch,
    result: BatchResult,
}

impl CotsSwitchNode {
    /// Build the switch with `n_ports` ports.
    pub fn new(name: impl Into<String>, n_ports: u16, config: CotsConfig) -> CotsSwitchNode {
        let name = name.into();
        let mut dp = Datapath::new(DpConfig {
            datapath_id: config.datapath_id,
            n_tables: 2, // hardware pipelines are shallow
            mode: PipelineMode::tss(),
            micro_capacity: 0,
            mega_capacity: 0,
            table_capacity: config.tcam_entries,
        });
        for p in 1..=n_ports {
            dp.add_port(u32::from(p), format!("te{p}"), 10_000_000);
        }
        CotsSwitchNode {
            agent: OfAgent::new(name.clone()),
            name,
            dp,
            config,
            controller: None,
            install_queue: VecDeque::new(),
            busy: false,
            flow_mods_applied: 0,
            batch: FrameBatch::with_capacity(1),
            result: BatchResult::default(),
        }
    }

    /// Attach the controller.
    pub fn connect_controller(&mut self, controller: NodeId) {
        self.controller = Some(controller);
    }

    /// Direct dataplane access for tests.
    pub fn datapath_mut(&mut self) -> &mut Datapath {
        &mut self.dp
    }

    /// Read-only dataplane access.
    pub fn datapath(&self) -> &Datapath {
        &self.dp
    }

    /// Flow-mods the management CPU has applied.
    pub fn flow_mods_applied(&self) -> u64 {
        self.flow_mods_applied
    }

    /// Control messages still queued for the management CPU.
    pub fn install_backlog(&self) -> usize {
        self.install_queue.len()
    }

    /// Hardware capability screening: refuse matches/actions the ASIC
    /// cannot program, per the standards-compliance complaints (ref 13).
    fn hardware_supports(msg: &Message) -> bool {
        if let Message::FlowMod(fm) = msg {
            for f in fm.match_.fields() {
                match f {
                    OxmField::EthDst(_, Some(_)) | OxmField::EthSrc(_, Some(_)) => return false,
                    OxmField::Metadata(..) => return false,
                    OxmField::Ipv6Src(..) | OxmField::Ipv6Dst(..) => return false,
                    _ => {}
                }
            }
            for insn in &fm.instructions {
                if let openflow::Instruction::ApplyActions(actions)
                | openflow::Instruction::WriteActions(actions) = insn
                {
                    for a in actions {
                        if matches!(a, openflow::Action::PushVlan(tpid) if *tpid != 0x8100) {
                            return false; // no QinQ S-tags
                        }
                    }
                }
            }
        }
        true
    }

    fn schedule_next_install(&mut self, ctx: &mut NodeCtx) {
        if self.busy {
            return;
        }
        let Some((_, _, msg)) = self.install_queue.front() else {
            return;
        };
        let delay = match msg {
            Message::FlowMod(_) | Message::GroupMod { .. } | Message::MeterMod { .. } => {
                self.config.install_delay
            }
            _ => self.config.ctrl_delay,
        };
        self.busy = true;
        ctx.schedule(delay, TOKEN_INSTALL);
    }
}

impl Node for CotsSwitchNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        ctx.schedule(EXPIRE_PERIOD, TOKEN_EXPIRE);
        if let Some(c) = self.controller {
            let hello = self.agent.hello();
            ctx.ctrl_send(c, hello);
        }
    }

    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        // The ASIC forwards at line rate with a fixed pipeline latency.
        self.batch.push(u32::from(port.0), frame);
        self.dp
            .process_batch_into(&mut self.batch, ctx.now().as_nanos(), &mut self.result);
        for (p, f) in self.result.all_outputs() {
            ctx.transmit_after(self.config.pipeline_latency, PortId(*p as u16), f.clone());
        }
        if let Some(c) = self.controller {
            for (reason, in_port, data) in self.result.all_packet_ins() {
                let msg = self.agent.packet_in(*reason, *in_port, data);
                ctx.ctrl_send(c, msg);
            }
        }
        // Let go of the frames: a handle left here until the next
        // frame would deny the next hop its in-place rewrite.
        self.result.clear();
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        match token {
            TOKEN_EXPIRE => {
                let notices = self.agent.expire_flows(&mut self.dp, ctx.now().as_nanos());
                if let Some(c) = self.controller {
                    for msg in notices {
                        ctx.ctrl_send(c, msg);
                    }
                }
                ctx.schedule(EXPIRE_PERIOD, TOKEN_EXPIRE);
            }
            TOKEN_INSTALL => {
                self.busy = false;
                if let Some((from, xid, msg)) = self.install_queue.pop_front() {
                    if matches!(msg, Message::FlowMod(_)) {
                        self.flow_mods_applied += 1;
                    }
                    let mut out = AgentOutput::default();
                    let now_ns = ctx.now().as_nanos();
                    self.agent.apply(&mut self.dp, xid, msg, now_ns, &mut out);
                    for reply in out.replies {
                        ctx.ctrl_send(from, reply);
                    }
                    for (port, frame) in out.transmits {
                        ctx.transmit_after(
                            self.config.pipeline_latency,
                            PortId(port as u16),
                            frame,
                        );
                    }
                }
                self.schedule_next_install(ctx);
            }
            _ => {}
        }
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        // Decode eagerly; unsupported features bounce immediately, the
        // rest crawls through the management CPU's queue.
        self.agent.push(data);
        while let Some(next) = self.agent.next_message() {
            match next {
                Ok((xid, msg)) if !Self::hardware_supports(&msg) => ctx.ctrl_send(
                    from,
                    Message::Error {
                        ty: 4,
                        code: 8,
                        data: Bytes::new(),
                    }
                    .encode(xid),
                ),
                Ok((xid, msg)) => self.install_queue.push_back((from, xid, msg)),
                Err(error) => ctx.ctrl_send(from, error),
            }
        }
        self.schedule_next_install(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
    use netsim::{LinkSpec, Network};
    use openflow::message::FlowMod;
    use openflow::{Action, Match};

    struct ScriptedController {
        to_send: Vec<Bytes>,
        received: Vec<Message>,
        target: Option<NodeId>,
    }

    impl Node for ScriptedController {
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
            let mut rx = openflow::Session::default();
            rx.push(data);
            while let Some(next) = rx.next_message() {
                self.received.push(next.expect("well-formed").1);
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
    fn line_rate_forwarding_with_fixed_latency() {
        let mut net = Network::new(5);
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
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
            vec![FlowSpec::simple(1, 2, 512)],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let sink = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(1), LinkSpec::ten_gigabit());
        net.connect(s, PortId(2), sink, PortId(0), LinkSpec::ten_gigabit());
        net.run_until(SimTime::from_millis(50));
        let sink = net.node_ref::<Sink>(sink);
        assert_eq!(sink.received(), 1000);
        // ser 2×(536×0.8ns)≈858 + 2µs prop + 800ns pipeline ≈ 3.7µs;
        // "unpredictable performance" does not apply to the dataplane.
        let p50 = sink.latency().p50();
        assert!((3_000..5_000).contains(&p50), "p50 = {p50}ns");
        assert_eq!(
            sink.latency().max() - sink.latency().min(),
            0,
            "hardware jitter = 0"
        );
    }

    #[test]
    fn tcam_fills_up() {
        let mut sw = CotsSwitchNode::new(
            "cots",
            4,
            CotsConfig {
                tcam_entries: 10,
                ..CotsConfig::default()
            },
        );
        for i in 0..10u16 {
            sw.datapath_mut()
                .apply_flow_mod(
                    &FlowMod::add(0)
                        .priority(10)
                        .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(i))
                        .apply(vec![Action::output(2)]),
                    0,
                )
                .unwrap();
        }
        let err = sw
            .datapath_mut()
            .apply_flow_mod(
                &FlowMod::add(0)
                    .priority(10)
                    .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(999))
                    .apply(vec![Action::output(2)]),
                0,
            )
            .unwrap_err();
        assert_eq!(err, openflow::Error::TableFull);
    }

    #[test]
    fn rule_install_is_slow_and_serialized() {
        let mut net = Network::new(5);
        net.set_ctrl_delay(SimTime::from_micros(10));
        // 50 rules at 4 ms each ≈ 200 ms before the barrier returns.
        let mut msgs = vec![Message::Hello.encode(1)];
        for i in 0..50u16 {
            msgs.push(
                Message::FlowMod(
                    FlowMod::add(0)
                        .priority(10)
                        .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(i))
                        .apply(vec![Action::output(2)]),
                )
                .encode(u32::from(i) + 2),
            );
        }
        msgs.push(Message::BarrierRequest.encode(99));
        let ctrl = net.add_node(ScriptedController {
            to_send: msgs,
            received: Vec::new(),
            target: None,
        });
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        net.run_until(SimTime::from_millis(100));
        // Not done yet at 100 ms.
        assert!(net.node_ref::<CotsSwitchNode>(s).install_backlog() > 0);
        assert!(!net
            .node_ref::<ScriptedController>(ctrl)
            .received
            .iter()
            .any(|m| matches!(m, Message::BarrierReply)));
        net.run_until(SimTime::from_millis(300));
        assert_eq!(net.node_ref::<CotsSwitchNode>(s).flow_mods_applied(), 50);
        assert!(net
            .node_ref::<ScriptedController>(ctrl)
            .received
            .iter()
            .any(|m| matches!(m, Message::BarrierReply)));
    }

    #[test]
    fn expired_rules_report_flow_removed_only_when_asked() {
        use openflow::table::flow_flags;
        let rule = |in_port: u32, cookie: u64| {
            FlowMod::add(0)
                .priority(1)
                .match_(Match::new().in_port(in_port))
                .apply(vec![Action::output(2)])
                .timeouts(1, 0) // 1 s idle
                .cookie(cookie)
        };
        let mut net = Network::new(5);
        let ctrl = net.add_node(ScriptedController {
            to_send: vec![
                Message::Hello.encode(1),
                Message::FlowMod(rule(1, 0xa).flags(flow_flags::SEND_FLOW_REM)).encode(2),
                Message::FlowMod(rule(3, 0xb)).encode(3),
            ],
            received: Vec::new(),
            target: None,
        });
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        net.run_until(SimTime::from_millis(100));
        let table_len = |net: &Network| {
            let dp = net.node_ref::<CotsSwitchNode>(s).datapath();
            dp.table(0).unwrap().len()
        };
        assert_eq!(table_len(&net), 2, "both rules installed");

        // Both idle out; only the one that asked is reported.
        net.run_until(SimTime::from_millis(2000));
        assert_eq!(table_len(&net), 0, "both rules expired");
        let removed: Vec<u64> = net
            .node_ref::<ScriptedController>(ctrl)
            .received
            .iter()
            .filter_map(|m| match m {
                Message::FlowRemoved { cookie, .. } => Some(*cookie),
                _ => None,
            })
            .collect();
        assert_eq!(removed, [0xa]);
    }

    /// The control channel is a byte stream, reassembled by the agent's
    /// session as on the soft switch: a message split across two
    /// deliveries still arrives, and an undecodable stream is answered
    /// with the error the soft switch's agent answers it with.
    #[test]
    fn split_flow_mod_installs_and_garbage_is_answered() {
        let fm = FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)]);
        let wire = Message::FlowMod(fm).encode(2);
        // A complete frame of no known version.
        let garbage = Bytes::from_static(&[0x7f, 9, 0, 8, 0, 0, 0, 3]);
        let mut net = Network::new(5);
        let ctrl = net.add_node(ScriptedController {
            to_send: vec![
                Message::Hello.encode(1),
                wire.slice(..11),
                wire.slice(11..),
                garbage.clone(),
            ],
            received: Vec::new(),
            target: None,
        });
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        net.run_until(SimTime::from_millis(50));
        let sw = net.node_ref::<CotsSwitchNode>(s);
        assert_eq!(sw.flow_mods_applied(), 1);
        assert_eq!(sw.datapath().table(0).unwrap().len(), 1);

        let mut dp = Datapath::new(DpConfig::software(1));
        let soft = OfAgent::new("soft").handle(&mut dp, garbage, 0);
        let (_, want, _) = Message::decode(&soft.replies[0]).unwrap();
        let received = &net.node_ref::<ScriptedController>(ctrl).received;
        assert!(received.contains(&want), "{received:?} lacks {want:?}");
    }

    #[test]
    fn unsupported_features_bounce_with_bad_match() {
        let mut net = Network::new(5);
        let fm = FlowMod::add(0)
            .priority(1)
            .match_(Match::new().with(OxmField::EthDst(
                netpkt::MacAddr::host(1),
                Some(netpkt::MacAddr([0xff, 0xff, 0, 0, 0, 0])),
            )))
            .apply(vec![Action::output(2)]);
        let ctrl = net.add_node(ScriptedController {
            to_send: vec![Message::Hello.encode(1), Message::FlowMod(fm).encode(2)],
            received: Vec::new(),
            target: None,
        });
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        net.run_until(SimTime::from_millis(50));
        let ctrl_node = net.node_ref::<ScriptedController>(ctrl);
        assert!(ctrl_node
            .received
            .iter()
            .any(|m| matches!(m, Message::Error { ty: 4, .. })));
        assert_eq!(net.node_ref::<CotsSwitchNode>(s).flow_mods_applied(), 0);
    }
}
