//! Reactive L2 learning switch — the canonical OpenFlow app, and the
//! forwarding stage the policy apps chain to.

use std::collections::HashMap;

use netpkt::MacAddr;
use openflow::message::FlowMod;
use openflow::{Action, Match};

use crate::node::{App, PacketInEvent, PacketInVerdict, SwitchHandle};

/// Reactive MAC learning over one pipeline table.
pub struct LearningSwitch {
    /// The table this app owns.
    table: u8,
    /// Idle timeout for installed entries.
    idle_timeout: u16,
    /// `(dpid, mac) → port`.
    macs: HashMap<(u64, MacAddr), u32>,
}

impl LearningSwitch {
    /// Learning on table 0 with a 60 s idle timeout.
    pub fn new() -> LearningSwitch {
        LearningSwitch {
            table: 0,
            idle_timeout: 60,
            macs: HashMap::new(),
        }
    }

    /// Run in a different table (used behind ACL tables).
    pub fn in_table(mut self, table: u8) -> Self {
        self.table = table;
        self
    }

    /// Learned port for a MAC on a switch.
    pub fn lookup(&self, dpid: u64, mac: MacAddr) -> Option<u32> {
        self.macs.get(&(dpid, mac)).copied()
    }
}

impl Default for LearningSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl App for LearningSwitch {
    fn name(&self) -> &str {
        "l2-learning"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        // A handshake means the datapath's tables are empty — either a
        // first connect or a reboot. Forget what this dpid had learned:
        // the cache no longer mirrors any installed rule, and a stale
        // port mapping would short-circuit packet_out toward a port the
        // topology may no longer serve. Re-learning costs one flood per
        // destination, exactly like a cold start.
        self.macs.retain(|&(d, _), _| d != sw.dpid);
        // Table-miss: punt to the controller.
        sw.flow_mod(
            FlowMod::add(self.table)
                .priority(0)
                .apply(vec![Action::to_controller()]),
        );
    }

    fn on_packet_in(&mut self, sw: &mut SwitchHandle, ev: &PacketInEvent) -> PacketInVerdict {
        let dpid = sw.dpid;
        let src = ev.key.eth_src;
        let dst = ev.key.eth_dst;
        if src.is_unicast() {
            self.macs.insert((dpid, src), ev.in_port);
        }
        match self.macs.get(&(dpid, dst)) {
            Some(&out) if dst.is_unicast() => {
                // Proactive pair of rules so the reverse path is ready too.
                sw.flow_mod(
                    FlowMod::add(self.table)
                        .priority(10)
                        .match_(Match::new().eth_dst(dst))
                        .apply(vec![Action::output(out)])
                        .timeouts(self.idle_timeout, 0),
                );
                sw.flow_mod(
                    FlowMod::add(self.table)
                        .priority(10)
                        .match_(Match::new().eth_dst(src))
                        .apply(vec![Action::output(ev.in_port)])
                        .timeouts(self.idle_timeout, 0),
                );
                sw.packet_out(out, ev.data.clone());
            }
            _ => {
                // Unknown or multicast: flood, excluding the ingress port.
                sw.packet_out_flood(ev.in_port, ev.data.clone());
            }
        }
        // Learning is a terminal forwarding stage, but policy apps may
        // still want to observe the event — leave the chain open.
        PacketInVerdict::Continue
    }
}
