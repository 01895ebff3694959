//! Use case (c) from the demo: Parental Control — "selectively deny access
//! to specific users to certain web pages on-the-fly".
//!
//! Users are identified by source IP, web pages by server IP (the demo's
//! granularity). Blocks are high-priority drop rules in table 0 over a
//! goto-learning default, so they apply instantly and can be added or
//! removed mid-run without touching the forwarding state.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use openflow::message::FlowMod;
use openflow::Match;

use crate::node::{App, SwitchHandle};

/// The parental-control app.
pub struct ParentalControl {
    /// Active `(user, blocked destination)` rules. Ordered: the
    /// handshake installs them in iteration order, which must not vary
    /// between runs.
    blocked: BTreeSet<(Ipv4Addr, Ipv4Addr)>,
    installed: bool,
    blocks_installed: u64,
    unblocks_installed: u64,
}

impl ParentalControl {
    /// Start with an initial blocklist.
    pub fn new(blocklist: &[(Ipv4Addr, Ipv4Addr)]) -> ParentalControl {
        ParentalControl {
            blocked: blocklist.iter().copied().collect(),
            installed: false,
            blocks_installed: 0,
            unblocks_installed: 0,
        }
    }

    /// Blocks pushed to switches so far.
    pub fn blocks_installed(&self) -> u64 {
        self.blocks_installed
    }

    /// Unblocks pushed to switches so far.
    pub fn unblocks_installed(&self) -> u64 {
        self.unblocks_installed
    }

    fn block_rule(user: Ipv4Addr, dst: Ipv4Addr) -> FlowMod {
        FlowMod::add(0)
            .priority(200)
            .match_(Match::new().eth_type(0x0800).ipv4_src(user).ipv4_dst(dst))
            .apply(vec![]) // match, no output = drop
    }

    /// Deny `user` access to `dst`, effective immediately.
    pub fn block(&mut self, sw: &mut SwitchHandle, user: Ipv4Addr, dst: Ipv4Addr) {
        if self.blocked.insert((user, dst)) && self.installed {
            self.blocks_installed += 1;
            sw.flow_mod(Self::block_rule(user, dst));
        }
    }

    /// Re-allow `user` access to `dst`.
    pub fn unblock(&mut self, sw: &mut SwitchHandle, user: Ipv4Addr, dst: Ipv4Addr) {
        if self.blocked.remove(&(user, dst)) && self.installed {
            self.unblocks_installed += 1;
            let fm = FlowMod::delete(0)
                .command(openflow::table::FlowModCommand::DeleteStrict)
                .priority(200)
                .match_(Match::new().eth_type(0x0800).ipv4_src(user).ipv4_dst(dst));
            sw.flow_mod(fm);
        }
    }
}

impl App for ParentalControl {
    fn name(&self) -> &str {
        "parental-control"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        for &(user, dst) in &self.blocked {
            self.blocks_installed += 1;
            sw.flow_mod(Self::block_rule(user, dst));
        }
        // Everything not blocked flows to the learning stage.
        sw.flow_mod(FlowMod::add(0).priority(1).goto(1));
        self.installed = true;
    }
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
            ParentalControl::new(pairs).on_switch_ready(&mut test_handle(1, &mut q));
            q.buf
        };
        assert_eq!(handshake(&pairs), handshake(&reversed));
    }
}
