//! The HARMLESS Manager — the automation the paper describes in §2:
//! "automatically manages and queries the legacy Ethernet switch via SNMP
//! through NAPALM [...] According to the desired OpenFlow-enabled
//! port-setting, the manager configures the legacy switch, then
//! instantiates HARMLESS-S4. Finally, it installs the corresponding flow
//! rules into SS_1 and connects SS_2 to the SDN controller."
//!
//! The manager runs as a simulator node and performs, over the live
//! management plane:
//!
//! 1. **Discover** — SNMP Get of sysDescr/sysName/ifNumber; NAPALM-style
//!    dialect detection from sysDescr;
//! 2. **Configure** — compile the tagging plan with the detected dialect
//!    and execute it (Sets + Verifies), with per-request timeout/retry
//!    and full rollback if verification fails;
//! 3. **Install** — push the translator flow table into SS_1 over
//!    OpenFlow and fence with a barrier;
//! 4. **Connect** — point SS_2 at the SDN controller (admin channel) and
//!    health-check the OpenFlow session with an echo.
//!
//! Every phase transition is timestamped; the E6 experiment reads the
//! timeline and the SNMP/OpenFlow operation counts off this node.

use bytes::{Bytes, BytesMut};

use mgmt::driver::{detect_dialect, DesiredVlanConfig, Driver, SnmpOp, VlanDef};
use mgmt::pdu::{MessageRef, ValueRef};
use mgmt::{mibs, Oid, SnmpClient};
use netsim::{Node, NodeCtx, NodeId, PortId, SimTime};
use openflow::message::Message;
use softswitch::node::admin_set_controller;

use crate::portmap::PortMap;
use crate::translator;

/// Static configuration of a migration run.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The legacy switch to migrate.
    pub legacy: NodeId,
    /// The translator switch.
    pub ss1: NodeId,
    /// The main OpenFlow switch.
    pub ss2: NodeId,
    /// The SDN controller SS_2 should connect to.
    pub controller: NodeId,
    /// Access-port ↔ VLAN plan.
    pub map: PortMap,
    /// Trunk count.
    pub n_trunks: u16,
    /// SNMP community.
    pub community: String,
    /// Fault injection: pretend the `k`-th Verify read back a wrong value
    /// (tests the rollback path).
    pub fail_verify_at: Option<usize>,
}

impl ManagerConfig {
    /// Config for a built [`crate::HarmlessInstance`].
    pub fn for_instance(hx: &crate::HarmlessInstance, controller: NodeId) -> ManagerConfig {
        ManagerConfig {
            legacy: hx.legacy,
            ss1: hx.ss1.expect("manager drives the two-switch variant"),
            ss2: hx.ss2,
            controller,
            map: hx.map.clone(),
            n_trunks: hx.spec.n_trunks,
            community: "public".into(),
            fail_verify_at: None,
        }
    }
}

/// Where the migration stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagerPhase {
    /// Not started.
    Idle,
    /// Reading device facts.
    Discovering,
    /// Executing the SNMP plan.
    Configuring,
    /// Undoing a partially applied plan.
    RollingBack,
    /// Pushing translator rules into SS_1.
    InstallingTranslator,
    /// Connecting SS_2 to the controller and health-checking.
    Connecting,
    /// Migration complete.
    Done,
    /// Migration aborted; legacy config restored.
    RolledBack(String),
    /// Migration aborted hard (management plane unreachable).
    Failed(String),
}

const TOKEN_TIMEOUT: u64 = 1;
/// High bit keeps the monitor token clear of `TOKEN_TIMEOUT + req_gen`.
const TOKEN_MONITOR: u64 = 1 << 62;
const REQUEST_TIMEOUT: SimTime = SimTime::from_millis(500);
/// sysUpTime poll period once migration is [`ManagerPhase::Done`].
const MONITOR_PERIOD: SimTime = SimTime::from_millis(500);
const MAX_RETRIES: u32 = 3;

enum Await {
    None,
    SnmpResponse,
    BarrierReply,
    EchoReply,
    /// A sysUpTime health poll of the migrated legacy switch.
    UptimePoll,
}

/// The manager node.
pub struct HarmlessManager {
    config: ManagerConfig,
    phase: ManagerPhase,
    snmp: SnmpClient,
    driver: Option<Driver>,
    plan: Vec<SnmpOp>,
    plan_idx: usize,
    verifies_done: usize,
    awaiting: Await,
    last_sent: Option<(NodeId, Bytes)>,
    retries: u32,
    req_gen: u64,
    timeline: Vec<(SimTime, String)>,
    flow_mods_sent: u64,
    facts_descr: String,
    /// Last sysUpTime (centiseconds) read from the legacy switch; a
    /// reading *below* the previous one means the device rebooted — the
    /// classic SNMP reboot heuristic.
    last_uptime: Option<u32>,
    /// True while re-executing the SNMP plan after a detected reboot
    /// (skips the translator/controller phases — those devices did not
    /// reboot).
    reprovisioning: bool,
    reprovisions: u64,
}

impl HarmlessManager {
    /// Build a manager; it starts migrating when the simulation starts.
    pub fn new(config: ManagerConfig) -> HarmlessManager {
        HarmlessManager {
            snmp: SnmpClient::new(config.community.clone()),
            config,
            phase: ManagerPhase::Idle,
            driver: None,
            plan: Vec::new(),
            plan_idx: 0,
            verifies_done: 0,
            awaiting: Await::None,
            last_sent: None,
            retries: 0,
            req_gen: 0,
            timeline: Vec::new(),
            flow_mods_sent: 0,
            facts_descr: String::new(),
            last_uptime: None,
            reprovisioning: false,
            reprovisions: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> &ManagerPhase {
        &self.phase
    }

    /// Phase transitions with timestamps.
    pub fn timeline(&self) -> &[(SimTime, String)] {
        &self.timeline
    }

    /// SNMP requests issued.
    pub fn snmp_ops(&self) -> u64 {
        self.snmp.ops_sent()
    }

    /// OpenFlow flow-mods pushed into SS_1.
    pub fn flow_mods_sent(&self) -> u64 {
        self.flow_mods_sent
    }

    /// sysDescr discovered in phase 1.
    pub fn discovered_descr(&self) -> &str {
        &self.facts_descr
    }

    /// Legacy-switch reboots detected (and reprovisioned) since
    /// migration completed. A COTS switch boots into factory defaults —
    /// VLANs, PVIDs and FDB gone — so every reboot without a config
    /// re-push leaves the pod silently unbridged.
    pub fn reprovisions(&self) -> u64 {
        self.reprovisions
    }

    /// Dialect the driver chose.
    pub fn dialect(&self) -> Option<&str> {
        self.driver.as_ref().map(|d| d.dialect_name())
    }

    fn enter(&mut self, phase: ManagerPhase, ctx: &mut NodeCtx) {
        self.timeline.push((ctx.now(), format!("{phase:?}")));
        self.phase = phase;
    }

    fn send_tracked(&mut self, to: NodeId, data: Bytes, awaiting: Await, ctx: &mut NodeCtx) {
        self.awaiting = awaiting;
        self.last_sent = Some((to, data.clone()));
        self.retries = 0;
        self.req_gen += 1;
        ctx.ctrl_send(to, data);
        ctx.schedule(REQUEST_TIMEOUT, TOKEN_TIMEOUT + self.req_gen);
    }

    fn start_discovery(&mut self, ctx: &mut NodeCtx) {
        self.enter(ManagerPhase::Discovering, ctx);
        let req = self.snmp.get(&[
            Oid::instance(mibs::SYS_DESCR, 0),
            Oid::instance(mibs::SYS_NAME, 0),
            Oid::instance(mibs::IF_NUMBER, 0),
        ]);
        let legacy = self.config.legacy;
        self.send_tracked(legacy, req, Await::SnmpResponse, ctx);
    }

    fn build_plan(&mut self) {
        let n_ports = self.config.map.n_ports() + self.config.n_trunks;
        let vlans = self
            .config
            .map
            .iter()
            .map(|(port, vid)| {
                let home_trunk =
                    self.config.map.n_ports() + translator::home_trunk(vid, self.config.n_trunks);
                VlanDef {
                    vid,
                    egress: vec![port, home_trunk],
                    untagged: vec![port],
                }
            })
            .collect();
        let cfg = DesiredVlanConfig {
            n_ports,
            vlans,
            pvids: self.config.map.iter().collect(),
        };
        let mut driver = Driver::new(detect_dialect(&self.facts_descr));
        driver.load_merge_candidate(cfg);
        self.plan = driver.commit_plan();
        self.driver = Some(driver);
        self.plan_idx = 0;
        self.verifies_done = 0;
    }

    fn step_plan(&mut self, ctx: &mut NodeCtx) {
        if self.plan_idx >= self.plan.len() {
            if self.reprovisioning {
                // Reboot recovery: only the legacy switch lost state, so
                // configuring it is the whole job — back to monitoring.
                self.reprovisioning = false;
                self.enter(ManagerPhase::Done, ctx);
                ctx.schedule(MONITOR_PERIOD, TOKEN_MONITOR);
            } else {
                self.start_translator_install(ctx);
            }
            return;
        }
        // The step is written from the plan where it lies.
        let req = match &self.plan[self.plan_idx] {
            SnmpOp::Set(bindings) => self.snmp.set(bindings),
            SnmpOp::Verify(oid, _expect) => self.snmp.get(std::slice::from_ref(oid)),
        };
        let legacy = self.config.legacy;
        self.send_tracked(legacy, req, Await::SnmpResponse, ctx);
    }

    fn start_rollback(&mut self, reason: String, ctx: &mut NodeCtx) {
        self.enter(ManagerPhase::RollingBack, ctx);
        self.plan = self
            .driver
            .as_mut()
            .map(|d| d.rollback_plan())
            .unwrap_or_default();
        self.plan_idx = 0;
        // The timeline entry stashes the reason for rollback_reason().
        self.timeline
            .push((ctx.now(), format!("rollback because: {reason}")));
        self.step_rollback(ctx, reason);
    }

    fn step_rollback(&mut self, ctx: &mut NodeCtx, reason: String) {
        if self.plan_idx >= self.plan.len() {
            self.enter(ManagerPhase::RolledBack(reason), ctx);
            return;
        }
        let legacy = self.config.legacy;
        if let SnmpOp::Set(bindings) = &self.plan[self.plan_idx] {
            let req = self.snmp.set(bindings);
            self.send_tracked(legacy, req, Await::SnmpResponse, ctx);
        } else {
            self.plan_idx += 1;
            self.step_rollback(ctx, reason);
        }
    }

    fn rollback_reason(&self) -> String {
        for (_, line) in self.timeline.iter().rev() {
            if let Some(r) = line.strip_prefix("rollback because: ") {
                return r.to_string();
            }
        }
        "unknown".into()
    }

    fn start_translator_install(&mut self, ctx: &mut NodeCtx) {
        self.enter(ManagerPhase::InstallingTranslator, ctx);
        // The manager acts as SS_1's provisioning controller: hello,
        // rules, barrier — all in one channel write.
        let mut blob = BytesMut::new();
        let mut xid = 1u32;
        Message::Hello.encode_into(&mut blob, xid);
        for fm in translator::translator_rules(&self.config.map, self.config.n_trunks) {
            xid += 1;
            self.flow_mods_sent += 1;
            Message::FlowMod(fm).encode_into(&mut blob, xid);
        }
        Message::BarrierRequest.encode_into(&mut blob, xid + 1);
        let ss1 = self.config.ss1;
        self.send_tracked(ss1, blob.freeze(), Await::BarrierReply, ctx);
    }

    fn start_connect(&mut self, ctx: &mut NodeCtx) {
        self.enter(ManagerPhase::Connecting, ctx);
        // Point SS_2 at the controller, then health-check the channel.
        ctx.ctrl_send(
            self.config.ss2,
            admin_set_controller(self.config.controller),
        );
        let echo = Message::EchoRequest(Bytes::from_static(b"harmless-health")).encode(0x7fff);
        let ss2 = self.config.ss2;
        self.send_tracked(ss2, echo, Await::EchoReply, ctx);
    }

    /// Issue a sysUpTime read; the response (or its timeout) drives the
    /// reboot monitor.
    fn poll_uptime(&mut self, ctx: &mut NodeCtx) {
        let req = self.snmp.get(&[Oid::instance(mibs::SYS_UPTIME, 0)]);
        let legacy = self.config.legacy;
        self.send_tracked(legacy, req, Await::UptimePoll, ctx);
    }

    /// React to a sysUpTime reading: a value below the previous one
    /// means the switch rebooted into factory defaults, so re-run the
    /// SNMP configuration plan against it.
    fn handle_uptime(&mut self, response: &MessageRef<'_>, ctx: &mut NodeCtx) {
        let got = response.bindings.first().and_then(|vb| match vb.value {
            ValueRef::TimeTicks(t) => Some(t),
            _ => None,
        });
        if let Some(t) = got {
            let rebooted = self.last_uptime.is_some_and(|prev| t < prev);
            self.last_uptime = Some(t);
            if rebooted {
                self.reprovisions += 1;
                self.timeline
                    .push((ctx.now(), "reboot detected: reprovisioning".into()));
                self.reprovisioning = true;
                // Facts (dialect) are already known; rebuild the plan
                // and push it again.
                self.build_plan();
                self.enter(ManagerPhase::Configuring, ctx);
                self.step_plan(ctx);
                return;
            }
        }
        ctx.schedule(MONITOR_PERIOD, TOKEN_MONITOR);
    }

    fn handle_snmp(&mut self, data: &Bytes, ctx: &mut NodeCtx) {
        // The response is read where it lies.
        let Ok(Some(response)) = self.snmp.accept(data) else {
            return;
        };
        let was_awaiting = std::mem::replace(&mut self.awaiting, Await::None);
        if matches!(was_awaiting, Await::UptimePoll) {
            self.handle_uptime(&response, ctx);
            return;
        }
        let status = response.error_status;
        match self.phase.clone() {
            ManagerPhase::Discovering => {
                if status != mgmt::ErrorStatus::NoError || response.bindings.len() < 3 {
                    self.enter(ManagerPhase::Failed("discovery failed".into()), ctx);
                    return;
                }
                let descr = response.bindings.first().and_then(|vb| vb.value.as_bytes());
                self.facts_descr = String::from_utf8_lossy(descr.unwrap_or_default()).into_owned();
                self.build_plan();
                self.enter(ManagerPhase::Configuring, ctx);
                self.step_plan(ctx);
            }
            ManagerPhase::Configuring => {
                let op = &self.plan[self.plan_idx];
                match op {
                    SnmpOp::Set(_) => {
                        if status != mgmt::ErrorStatus::NoError {
                            self.start_rollback(format!("set rejected: {status:?}"), ctx);
                            return;
                        }
                    }
                    SnmpOp::Verify(oid, expect) => {
                        self.verifies_done += 1;
                        let injected = self.config.fail_verify_at == Some(self.verifies_done);
                        // The value read back is compared where it lies.
                        let first = response.bindings.first();
                        let matches = first.is_some_and(|vb| vb.value == *expect);
                        if injected || !matches {
                            self.start_rollback(format!("verification mismatch at {oid}"), ctx);
                            return;
                        }
                    }
                }
                self.plan_idx += 1;
                self.step_plan(ctx);
            }
            ManagerPhase::RollingBack => {
                // Best effort: keep going regardless of individual errors.
                self.plan_idx += 1;
                let reason = self.rollback_reason();
                self.step_rollback(ctx, reason);
            }
            _ => {}
        }
    }

    fn handle_of(&mut self, data: &Bytes, ctx: &mut NodeCtx) {
        // Every chunk holds whole replies: each is decoded in place and
        // handled before the next, up to the first that does not decode.
        let mut rest = &data[..];
        while let Ok((_, msg, len)) = Message::decode(rest) {
            rest = rest.get(len..).unwrap_or_default();
            match (&self.phase, &msg) {
                (ManagerPhase::InstallingTranslator, Message::BarrierReply) => {
                    self.awaiting = Await::None;
                    self.start_connect(ctx);
                }
                (ManagerPhase::Connecting, Message::EchoReply(_)) => {
                    self.awaiting = Await::None;
                    self.enter(ManagerPhase::Done, ctx);
                    // Keep watching the device we migrated: a COTS
                    // reboot silently drops the whole VLAN config.
                    ctx.schedule(MONITOR_PERIOD, TOKEN_MONITOR);
                }
                (_, Message::Error { ty, code, .. }) => {
                    self.enter(
                        ManagerPhase::Failed(format!("OpenFlow error {ty}/{code}")),
                        ctx,
                    );
                }
                _ => {}
            }
        }
    }
}

impl Node for HarmlessManager {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.start_discovery(ctx);
    }

    fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {}

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token == TOKEN_MONITOR {
            if matches!(self.phase, ManagerPhase::Done) && matches!(self.awaiting, Await::None) {
                self.poll_uptime(ctx);
            } else if !matches!(
                self.phase,
                ManagerPhase::Failed(_) | ManagerPhase::RolledBack(_)
            ) {
                // Busy (e.g. mid-reprovision): try again next period.
                ctx.schedule(MONITOR_PERIOD, TOKEN_MONITOR);
            }
            return;
        }
        // Stale timeout timers carry an old generation; ignore them.
        if token != TOKEN_TIMEOUT + self.req_gen {
            return;
        }
        if matches!(self.awaiting, Await::None) {
            return;
        }
        if self.retries >= MAX_RETRIES {
            self.enter(
                ManagerPhase::Failed("management plane unreachable (timeout)".into()),
                ctx,
            );
            return;
        }
        self.retries += 1;
        if let Some((to, data)) = self.last_sent.clone() {
            self.req_gen += 1;
            ctx.ctrl_send(to, data);
            ctx.schedule(REQUEST_TIMEOUT, TOKEN_TIMEOUT + self.req_gen);
        }
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        if from == self.config.legacy {
            self.handle_snmp(&data, ctx);
        } else {
            self.handle_of(&data, ctx);
        }
    }

    fn name(&self) -> &str {
        "harmless-manager"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::HarmlessSpec;
    use controller::apps::LearningSwitch;
    use controller::ControllerNode;
    use legacy_switch::LegacySwitchNode;
    use netsim::host::Host;
    use netsim::Network;

    fn migrated_network(
        fail_verify_at: Option<usize>,
        sys_descr: Option<&str>,
    ) -> (Network, crate::HarmlessInstance, NodeId, NodeId) {
        let mut net = Network::new(99);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(LearningSwitch::new())],
        ));
        let mut spec = HarmlessSpec::new(4);
        if let Some(d) = sys_descr {
            spec.legacy_sys_descr = Some(d.to_string());
        }
        let hx = spec.build(&mut net);
        let mut cfg = ManagerConfig::for_instance(&hx, ctrl);
        cfg.fail_verify_at = fail_verify_at;
        let mgr = net.add_node(HarmlessManager::new(cfg));
        (net, hx, ctrl, mgr)
    }

    #[test]
    fn full_migration_end_to_end() {
        let (mut net, hx, ctrl, mgr) = migrated_network(None, None);
        let a = hx.attach_host(&mut net, 1);
        let _b = hx.attach_host(&mut net, 3);
        net.run_until(SimTime::from_secs(2));
        {
            let m = net.node_ref::<HarmlessManager>(mgr);
            assert_eq!(
                *m.phase(),
                ManagerPhase::Done,
                "timeline: {:?}",
                m.timeline()
            );
            assert_eq!(m.dialect(), Some("qbridge"));
            assert!(m.snmp_ops() > 10);
            assert_eq!(m.flow_mods_sent(), 8); // 4 ports × (1 down + 1 up)
        }
        // The migrated switch now behaves as an OpenFlow switch: ping works
        // through legacy → SS_1 → SS_2(+controller) and back.
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"migrated!", "10.0.0.3".parse().unwrap());
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        assert!(net.node_ref::<ControllerNode>(ctrl).packet_ins() > 0);
        // The legacy switch's config matches the plan.
        let legacy = net.node_ref::<LegacySwitchNode>(hx.legacy);
        assert_eq!(legacy.bridge().pvid(1), 101);
        assert!(
            legacy.bridge().vlan(104).unwrap().egress.contains(5),
            "trunk is a member"
        );
    }

    #[test]
    fn legacy_dialect_uses_more_ops() {
        let (mut net1, _, _, mgr1) = migrated_network(None, None);
        net1.run_until(SimTime::from_secs(2));
        let qbridge_ops = net1.node_ref::<HarmlessManager>(mgr1).snmp_ops();

        let (mut net2, _, _, mgr2) =
            migrated_network(None, Some("AcmeOS LegacyOS 9.1 vintage stack"));
        net2.run_until(SimTime::from_secs(2));
        let m2 = net2.node_ref::<HarmlessManager>(mgr2);
        assert_eq!(*m2.phase(), ManagerPhase::Done);
        assert_eq!(m2.dialect(), Some("legacy-cli"));
        assert!(
            m2.snmp_ops() > qbridge_ops,
            "legacy dialect {} ops vs qbridge {} ops",
            m2.snmp_ops(),
            qbridge_ops
        );
    }

    #[test]
    fn legacy_reboot_is_detected_and_reprovisioned() {
        let (mut net, hx, _, mgr) = migrated_network(None, None);
        let a = hx.attach_host(&mut net, 1);
        let _b = hx.attach_host(&mut net, 3);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(
            *net.node_ref::<HarmlessManager>(mgr).phase(),
            ManagerPhase::Done
        );
        // Power-cycle the legacy switch: per the COTS model it boots
        // into factory defaults — the VLAN plan is gone and sysUpTime
        // restarts from zero.
        net.schedule_reset(SimTime::from_millis(2500), hx.legacy);
        net.run_until(SimTime::from_secs(4));
        {
            let m = net.node_ref::<HarmlessManager>(mgr);
            assert_eq!(m.reprovisions(), 1, "timeline: {:?}", m.timeline());
            assert_eq!(*m.phase(), ManagerPhase::Done);
        }
        assert_eq!(net.node_ref::<LegacySwitchNode>(hx.legacy).reboots(), 1);
        // The manager pushed the plan again: tagging config restored...
        let pvid = net.node_ref::<LegacySwitchNode>(hx.legacy).bridge().pvid(1);
        assert_eq!(pvid, 101, "PVID must be re-provisioned, not factory 1");
        // ...and the pod forwards end to end again.
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"post-reboot", "10.0.0.3".parse().unwrap());
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
    }

    #[test]
    fn verification_failure_rolls_back() {
        let (mut net, hx, _, mgr) = migrated_network(Some(3), None);
        net.run_until(SimTime::from_secs(2));
        let m = net.node_ref::<HarmlessManager>(mgr);
        assert!(
            matches!(m.phase(), ManagerPhase::RolledBack(_)),
            "got {:?}",
            m.phase()
        );
        // Rollback restored factory state: PVIDs back to 1, plan VLANs
        // destroyed.
        let legacy = net.node_ref::<LegacySwitchNode>(hx.legacy);
        for p in 1..=4 {
            assert_eq!(
                legacy.bridge().pvid(p),
                1,
                "port {p} must be back on VLAN 1"
            );
        }
        for vid in 101..=104 {
            assert!(
                legacy.bridge().vlan(vid).is_none(),
                "VLAN {vid} must be gone"
            );
        }
    }

    #[test]
    fn unreachable_switch_fails_cleanly() {
        let mut net = Network::new(99);
        let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
        let hx = HarmlessSpec::new(2).build(&mut net);
        let mut cfg = ManagerConfig::for_instance(&hx, ctrl);
        cfg.community = "wrong-community".into(); // agent will drop us
        let mgr = net.add_node(HarmlessManager::new(cfg));
        net.run_until(SimTime::from_secs(5));
        let m = net.node_ref::<HarmlessManager>(mgr);
        assert!(
            matches!(m.phase(), ManagerPhase::Failed(_)),
            "got {:?}",
            m.phase()
        );
    }

    #[test]
    fn timeline_is_ordered_and_complete() {
        let (mut net, _, _, mgr) = migrated_network(None, None);
        net.run_until(SimTime::from_secs(2));
        let m = net.node_ref::<HarmlessManager>(mgr);
        let phases: Vec<&str> = m.timeline().iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(
            phases,
            vec![
                "Discovering",
                "Configuring",
                "InstallingTranslator",
                "Connecting",
                "Done"
            ]
        );
        // Strictly increasing times.
        for w in m.timeline().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
