//! The legacy switch as a simulator node: hardware store-and-forward
//! timing, periodic FDB aging, and an SNMP agent on the control plane.

use bytes::Bytes;

use mgmt::pdu::MessageRef;
use mgmt::store::agent_respond;
use netsim::{Node, NodeCtx, NodeId, PortId, SimTime};

use crate::bridge::Bridge;
use crate::mib::{BridgeMib, SysInfo};

const TOKEN_AGE: u64 = 1;
const AGE_PERIOD: SimTime = SimTime::from_secs(10);

/// Internal forwarding latency of a store-and-forward GbE switch
/// (the frame is fully received before this; serialization is the link's
/// job).
pub const DEFAULT_LATENCY: SimTime = SimTime::from_micros(3);

/// A legacy Ethernet switch attached to the simulator. Sim ports map 1:1
/// to bridge ports (`PortId(n)` ↔ bridge port `n`, 1-based).
pub struct LegacySwitchNode {
    name: String,
    bridge: Bridge,
    sys: SysInfo,
    community: String,
    snmp_requests: u64,
    /// When the box last booted; `sysUpTime` restarts from here, which
    /// is how an SNMP manager detects the reboot.
    boot_at: SimTime,
    reboots: u64,
    /// The outputs of the pass in progress: lent to the bridge and
    /// drained onto the ports, frame after frame, so a pass allocates
    /// no vector.
    outputs: Vec<(u16, Bytes)>,
}

impl LegacySwitchNode {
    /// A factory-default switch with `n_ports` ports.
    pub fn new(name: impl Into<String>, n_ports: u16) -> LegacySwitchNode {
        let name = name.into();
        LegacySwitchNode {
            sys: SysInfo {
                name: name.clone(),
                ..SysInfo::default()
            },
            name,
            bridge: Bridge::new(n_ports),
            community: "public".into(),
            snmp_requests: 0,
            boot_at: SimTime::ZERO,
            reboots: 0,
            outputs: Vec::new(),
        }
    }

    /// Number of reboots this box has been through.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Override the advertised `sysDescr` (drives NAPALM dialect
    /// detection).
    pub fn with_sys_descr(mut self, descr: impl Into<String>) -> Self {
        self.sys.descr = descr.into();
        self
    }

    /// Override the SNMP community.
    pub fn with_community(mut self, community: impl Into<String>) -> Self {
        self.community = community.into();
        self
    }

    /// Direct access to the bridge (tests, out-of-band config).
    pub fn bridge_mut(&mut self) -> &mut Bridge {
        &mut self.bridge
    }

    /// Read-only bridge access.
    pub fn bridge(&self) -> &Bridge {
        &self.bridge
    }

    /// SNMP requests served.
    pub fn snmp_requests(&self) -> u64 {
        self.snmp_requests
    }
}

impl Node for LegacySwitchNode {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        ctx.schedule(AGE_PERIOD, TOKEN_AGE);
    }

    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        let now_ns = ctx.now().as_nanos();
        self.bridge
            .forward_into(port.0, frame, now_ns, &mut self.outputs);
        for (p, f) in self.outputs.drain(..) {
            ctx.transmit_after(DEFAULT_LATENCY, PortId(p), f);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token == TOKEN_AGE {
            self.bridge.age_fdb(ctx.now().as_nanos());
            ctx.schedule(AGE_PERIOD, TOKEN_AGE);
        }
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        // The management plane speaks SNMP to this box; anything else is
        // silently ignored, like a real closed appliance. The request is
        // read where it lies and answered straight into the response.
        let Ok(request) = MessageRef::decode(&data) else {
            return;
        };
        self.snmp_requests += 1;
        let uptime_cs = (ctx.now().saturating_sub(self.boot_at).as_millis() / 10) as u32;
        let mut mib = BridgeMib {
            bridge: &mut self.bridge,
            sys: &self.sys,
            uptime_cs,
        };
        if let Some(response) = agent_respond(&mut mib, &self.community, &request) {
            ctx.ctrl_send(from, response);
        }
    }

    fn on_reset(&mut self, ctx: &mut NodeCtx) {
        // COTS boxes keep their config in volatile RAM unless an
        // operator wrote it to NVRAM — the paper's COTS model. A reboot
        // therefore reverts the whole bridge to factory defaults: VLAN
        // config, PVIDs, the learned FDB and the MIB counters all go;
        // the management plane must re-push the desired config.
        self.reboots += 1;
        self.bridge = Bridge::new(self.bridge.n_ports());
        // sysUpTime restarts, which is how SNMP managers spot reboots.
        self.boot_at = ctx.now();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgmt::pdu::{Pdu, PduType, SnmpMessage, Value};
    use mgmt::{mibs, Oid};
    use netpkt::MacAddr;
    use netsim::host::Host;
    use netsim::{LinkSpec, Network};
    use std::net::Ipv4Addr;

    fn lan() -> (Network, netsim::NodeId, Vec<netsim::NodeId>) {
        let mut net = Network::new(11);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 4));
        let mut hosts = Vec::new();
        for i in 1..=4u16 {
            let h = net.add_node(Host::new(
                format!("h{i}"),
                MacAddr::host(u32::from(i)),
                Ipv4Addr::new(10, 0, 0, i as u8),
            ));
            net.connect(h, PortId(0), sw, PortId(i), LinkSpec::gigabit());
            hosts.push(h);
        }
        (net, sw, hosts)
    }

    #[test]
    fn hosts_ping_through_the_switch() {
        let (mut net, sw, hosts) = lan();
        net.node_mut::<Host>(hosts[0])
            .ping(b"hello", Ipv4Addr::new(10, 0, 0, 3));
        net.run_until(SimTime::from_millis(50));
        assert_eq!(net.node_ref::<Host>(hosts[0]).echo_replies_received(), 1);
        assert_eq!(net.node_ref::<Host>(hosts[2]).echo_requests_answered(), 1);
        // The bridge learned both hosts.
        assert!(net.node_ref::<LegacySwitchNode>(sw).bridge().fdb_len() >= 2);
    }

    #[test]
    fn vlan_isolation_blocks_ping() {
        let (mut net, sw, hosts) = lan();
        {
            let b = net.node_mut::<LegacySwitchNode>(sw).bridge_mut();
            b.make_access_port(1, 10).unwrap();
            b.make_access_port(2, 10).unwrap();
            b.make_access_port(3, 20).unwrap();
        }
        net.node_mut::<Host>(hosts[0])
            .ping(b"ok", Ipv4Addr::new(10, 0, 0, 2));
        net.node_mut::<Host>(hosts[0])
            .ping(b"blocked", Ipv4Addr::new(10, 0, 0, 3));
        net.run_until(SimTime::from_millis(50));
        // Same VLAN works, cross-VLAN does not.
        assert_eq!(net.node_ref::<Host>(hosts[0]).echo_replies_received(), 1);
        assert_eq!(net.node_ref::<Host>(hosts[2]).echo_requests_answered(), 0);
    }

    #[test]
    fn forwarding_latency_applied() {
        let (mut net, _sw, hosts) = lan();
        net.node_mut::<Host>(hosts[0])
            .ping(b"x", Ipv4Addr::new(10, 0, 0, 2));
        net.run_until(SimTime::from_millis(50));
        // ARP exchange + ICMP round trip all crossed the switch; just
        // assert the reply arrived (timing is covered by netsim tests).
        assert_eq!(net.node_ref::<Host>(hosts[0]).echo_replies_received(), 1);
    }

    #[test]
    fn reboot_factory_resets_and_refloods_until_relearned() {
        let (mut net, sw, hosts) = lan();
        // Learn: an h1 ↔ h3 ping populates the FDB.
        net.node_mut::<Host>(hosts[0])
            .ping(b"a", Ipv4Addr::new(10, 0, 0, 3));
        net.run_until(SimTime::from_millis(50));
        assert!(net.node_ref::<LegacySwitchNode>(sw).bridge().fdb_len() >= 2);
        // Power-cycle the box.
        net.schedule_reset(SimTime::from_millis(60), sw);
        net.run_until(SimTime::from_millis(70));
        let swn = net.node_ref::<LegacySwitchNode>(sw);
        assert_eq!(swn.reboots(), 1);
        assert_eq!(swn.bridge().fdb_len(), 0, "reboot loses the learned FDB");
        assert_eq!(swn.bridge().flood_frames(), 0, "MIB state resets too");
        // Post-reboot traffic floods as unknown unicast until the bridge
        // re-learns, then converges and the ping still succeeds.
        net.with_node_ctx::<Host, _>(hosts[0], |h, ctx| {
            h.ping(b"b", Ipv4Addr::new(10, 0, 0, 3));
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(120));
        let swn = net.node_ref::<LegacySwitchNode>(sw);
        assert!(swn.bridge().flood_frames() > 0, "unknown unicast re-floods");
        assert!(swn.bridge().fdb_len() >= 2, "the FDB re-learns");
        assert_eq!(net.node_ref::<Host>(hosts[0]).echo_replies_received(), 2);
    }

    /// SNMP manager node for tests: fires one request, stores the reply.
    struct OneShotSnmp {
        target: netsim::NodeId,
        request: Bytes,
        reply: Option<SnmpMessage>,
    }

    impl Node for OneShotSnmp {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            ctx.ctrl_send(self.target, self.request.clone());
        }
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        fn on_ctrl(&mut self, _from: NodeId, data: Bytes, _ctx: &mut NodeCtx) {
            self.reply = Some(SnmpMessage::decode(&data).unwrap());
        }
    }

    #[test]
    fn snmp_get_over_ctrl_plane() {
        let mut net = Network::new(2);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 8));
        let req = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Get,
                42,
                vec![(Oid::instance(mibs::IF_NUMBER, 0), Value::Null)],
            ),
        )
        .encode();
        let mgr = net.add_node(OneShotSnmp {
            target: sw,
            request: req,
            reply: None,
        });
        net.run_until(SimTime::from_millis(10));
        let reply = net.node_ref::<OneShotSnmp>(mgr).reply.as_ref().unwrap();
        assert_eq!(reply.pdu.request_id, 42);
        assert_eq!(reply.pdu.bindings[0].1, Value::Integer(8));
        assert_eq!(net.node_ref::<LegacySwitchNode>(sw).snmp_requests(), 1);
    }

    #[test]
    fn snmp_set_reconfigures_live_switch() {
        let mut net = Network::new(2);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 4));
        let bindings = vec![
            (
                Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 101),
                Value::OctetString(mibs::encode_portlist(&[1, 4], 4)),
            ),
            (
                Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, 101),
                Value::OctetString(mibs::encode_portlist(&[1], 4)),
            ),
            (
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101),
                Value::Integer(mibs::ROW_CREATE_AND_GO),
            ),
            (Oid::instance(mibs::PVID, 1), Value::Gauge32(101)),
        ];
        let req = SnmpMessage::new("public", Pdu::request(PduType::Set, 7, bindings)).encode();
        let mgr = net.add_node(OneShotSnmp {
            target: sw,
            request: req,
            reply: None,
        });
        net.run_until(SimTime::from_millis(10));
        let reply = net.node_ref::<OneShotSnmp>(mgr).reply.as_ref().unwrap();
        assert_eq!(reply.pdu.error_status, mgmt::ErrorStatus::NoError);
        let b = net.node_ref::<LegacySwitchNode>(sw).bridge();
        assert_eq!(b.pvid(1), 101);
        assert!(b.vlan(101).unwrap().egress.contains(4));
    }

    #[test]
    fn wrong_community_gets_no_reply() {
        let mut net = Network::new(2);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 4).with_community("secret"));
        let req = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Get,
                1,
                vec![(Oid::instance(mibs::SYS_DESCR, 0), Value::Null)],
            ),
        )
        .encode();
        let mgr = net.add_node(OneShotSnmp {
            target: sw,
            request: req,
            reply: None,
        });
        net.run_until(SimTime::from_millis(10));
        assert!(net.node_ref::<OneShotSnmp>(mgr).reply.is_none());
    }

    #[test]
    fn garbage_ctrl_data_ignored() {
        let mut net = Network::new(2);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 4));
        let mgr = net.add_node(OneShotSnmp {
            target: sw,
            request: Bytes::from_static(b"not snmp at all"),
            reply: None,
        });
        net.run_until(SimTime::from_millis(10));
        assert!(net.node_ref::<OneShotSnmp>(mgr).reply.is_none());
        assert_eq!(net.node_ref::<LegacySwitchNode>(sw).snmp_requests(), 0);
    }

    #[test]
    fn oid_walk_terminates_over_network() {
        // Walk the whole agent over the simulated control plane.
        struct Walker2 {
            target: netsim::NodeId,
            client: mgmt::SnmpClient,
            walker: Option<mgmt::client::Walker>,
            items: Vec<(Oid, Value)>,
            done: bool,
        }
        impl Node for Walker2 {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                let mut w = mgmt::client::Walker::new("1.3.6.1.2.1.17".parse().unwrap());
                let req = w.first_request(&mut self.client);
                self.walker = Some(w);
                ctx.ctrl_send(self.target, req);
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
                let Some(pdu) = self.client.accept(&data).unwrap() else {
                    return;
                };
                let w = self.walker.as_mut().unwrap();
                match w.accept(&mut self.client, &pdu) {
                    (mgmt::client::WalkStep::Item(o, v), Some(next)) => {
                        self.items.push((o, v));
                        ctx.ctrl_send(from, next);
                    }
                    _ => self.done = true,
                }
            }
        }
        let mut net = Network::new(2);
        let sw = net.add_node(LegacySwitchNode::new("sw1", 4));
        net.node_mut::<LegacySwitchNode>(sw)
            .bridge_mut()
            .make_access_port(1, 101)
            .unwrap();
        let mgr = net.add_node(Walker2 {
            target: sw,
            client: mgmt::SnmpClient::new("public"),
            walker: None,
            items: Vec::new(),
            done: false,
        });
        net.run_until(SimTime::from_secs(1));
        let w = net.node_ref::<Walker2>(mgr);
        assert!(w.done);
        // Q-BRIDGE subtree: 2 VLANs × 3 columns + 4 PVIDs = 10 instances.
        assert_eq!(w.items.len(), 10);
    }
}
