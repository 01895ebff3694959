//! Use case (b) from the demo: "implement and fine-tune VM-level access
//! policies in a multi-tenant cloud" — a DMZ with default-deny IP policy
//! and explicitly permitted address pairs (the `DMZ` row of Fig. 1).
//!
//! Table 0 is the policy table: permitted pairs continue to the learning
//! stage in table 1, ARP is allowed (hosts must resolve each other), and
//! all remaining IP traffic drops.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use openflow::message::FlowMod;
use openflow::Match;

use crate::node::{App, SwitchHandle};

/// The DMZ policy app.
pub struct Dmz {
    /// Bidirectionally permitted `(a, b)` pairs. Ordered: the handshake
    /// installs them in iteration order, which must not vary between runs.
    allowed: BTreeSet<(Ipv4Addr, Ipv4Addr)>,
    /// True once the base rules are installed (used to apply runtime
    /// changes incrementally).
    installed: bool,
}

impl Dmz {
    /// Build a policy from allowed (bidirectional) pairs.
    pub fn new(pairs: &[(Ipv4Addr, Ipv4Addr)]) -> Dmz {
        let mut allowed = BTreeSet::new();
        for &(a, b) in pairs {
            allowed.insert((a, b));
            allowed.insert((b, a));
        }
        Dmz {
            allowed,
            installed: false,
        }
    }

    fn pair_rule(a: Ipv4Addr, b: Ipv4Addr) -> FlowMod {
        FlowMod::add(0)
            .priority(100)
            .match_(Match::new().eth_type(0x0800).ipv4_src(a).ipv4_dst(b))
            .goto(1)
    }

    /// Permit a new pair at runtime (installs immediately through `sw`).
    pub fn permit(&mut self, sw: &mut SwitchHandle, a: Ipv4Addr, b: Ipv4Addr) {
        for (x, y) in [(a, b), (b, a)] {
            if self.allowed.insert((x, y)) && self.installed {
                sw.flow_mod(Self::pair_rule(x, y));
            }
        }
    }

    /// Revoke a pair at runtime.
    pub fn revoke(&mut self, sw: &mut SwitchHandle, a: Ipv4Addr, b: Ipv4Addr) {
        for (x, y) in [(a, b), (b, a)] {
            if self.allowed.remove(&(x, y)) && self.installed {
                let mut fm = FlowMod::delete(0);
                fm.match_ = Match::new().eth_type(0x0800).ipv4_src(x).ipv4_dst(y);
                sw.flow_mod(fm);
            }
        }
    }
}

impl App for Dmz {
    fn name(&self) -> &str {
        "dmz"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        for &(a, b) in &self.allowed {
            sw.flow_mod(Self::pair_rule(a, b));
        }
        // ARP is a prerequisite for any IP exchange; police at L3 only.
        sw.flow_mod(
            FlowMod::add(0)
                .priority(50)
                .match_(Match::new().eth_type(0x0806))
                .goto(1),
        );
        // Default deny for IP: drop by matching with no actions.
        sw.flow_mod(
            FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .apply(vec![]),
        );
        // Anything else (LLDP etc.): drop quietly at priority 0 by having
        // no table-miss entry in table 0... but we *do* need nothing here:
        // absent miss entry means drop per OF 1.3.
        self.installed = true;
    }
}

/// Render the policy as the flow-table rows shown in Fig. 1 (for the demo
/// binary's output).
pub fn render_policy(dmz: &Dmz) -> Vec<String> {
    let mut rows: Vec<String> = dmz
        .allowed
        .iter()
        .map(|(a, b)| format!("prio=100 ip src={a} dst={b} -> goto L2"))
        .collect();
    rows.sort();
    rows.push("prio=50  arp -> goto L2".into());
    rows.push("prio=10  ip  -> drop (default deny)".into());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{test_handle, Outbox};

    #[test]
    fn handshake_rules_do_not_depend_on_insertion_order() {
        let pairs: Vec<_> = (1..=12)
            .map(|i| (Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(10, 0, 1, 13 - i)))
            .collect();
        let reversed: Vec<_> = pairs.iter().rev().copied().collect();
        let handshake = |pairs: &[(Ipv4Addr, Ipv4Addr)]| {
            let mut q = Outbox::default();
            Dmz::new(pairs).on_switch_ready(&mut test_handle(1, &mut q));
            q.buf
        };
        assert_eq!(handshake(&pairs), handshake(&reversed));
    }
}
