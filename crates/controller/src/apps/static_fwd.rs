//! Proactive static forwarding: a fixed port-to-port wiring installed at
//! handshake time. The throughput/latency experiments use this so the
//! controller never sits in the steady-state path.

use openflow::message::FlowMod;
use openflow::{Action, Match};

use crate::node::{App, SwitchHandle};

/// Installs `in_port → out_port` rules once the switch is ready.
pub struct StaticForwarder {
    /// The wiring: `(in_port, out_port)` pairs.
    pub wiring: Vec<(u32, u32)>,
}

impl StaticForwarder {
    /// Forward each pair both ways.
    pub fn bidirectional(pairs: &[(u32, u32)]) -> StaticForwarder {
        let mut wiring = Vec::new();
        for &(a, b) in pairs {
            wiring.push((a, b));
            wiring.push((b, a));
        }
        StaticForwarder { wiring }
    }
}

impl App for StaticForwarder {
    fn name(&self) -> &str {
        "static-forwarder"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        for &(inp, out) in &self.wiring {
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(10)
                    .match_(Match::new().in_port(inp))
                    .apply(vec![Action::output(out)]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ControllerNode;
    use netsim::host::Host;
    use netsim::{LinkSpec, Network, PortId, SimTime};
    use softswitch::{CostModel, DpConfig, SoftSwitchNode};
    use std::net::Ipv4Addr;

    /// Full loop: controller wires a softswitch, two hosts ping through.
    #[test]
    fn static_wiring_end_to_end() {
        let mut net = Network::new(3);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(StaticForwarder::bidirectional(&[(1, 2)]))],
        ));
        let mut sw =
            SoftSwitchNode::new("ss", DpConfig::software(1), 1, 4096, CostModel::default());
        sw.add_port(1, "p1", 1_000_000);
        sw.add_port(2, "p2", 1_000_000);
        sw.connect_controller(ctrl);
        let s = net.add_node(sw);
        let a = net.add_node(Host::new(
            "a",
            netpkt::MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        let b = net.add_node(Host::new(
            "b",
            netpkt::MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        net.connect(a, PortId(0), s, PortId(1), LinkSpec::gigabit());
        net.connect(b, PortId(0), s, PortId(2), LinkSpec::gigabit());
        // Let the handshake + installation settle, then ping.
        net.run_until(SimTime::from_millis(100));
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"x", Ipv4Addr::new(10, 0, 0, 2));
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(200));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        let c = net.node_ref::<ControllerNode>(ctrl);
        assert!(c.flow_mods_sent() >= 2);
        assert_eq!(c.errors_seen(), 0);
    }
}
