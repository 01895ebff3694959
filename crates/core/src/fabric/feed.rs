//! The one way out of the attachment table ([`Fabric::feed`]), and the
//! controller wiring that seeds late joiners by replaying it.

use std::net::Ipv4Addr;

use controller::apps::{ArpProxy, Router};
use controller::ControllerNode;
use netsim::{Network, NodeId};
use softswitch::SoftSwitchNode;

use super::topology::Spine;
use super::Fabric;

/// One change to the attachment table, as a controller sees it.
pub(super) enum Change {
    /// The row at `(pod, port)` appeared, or moved there (re-registering
    /// an IP retires whatever the proxy held for it).
    Learn((usize, u16)),
    /// An identity left the fabric.
    Forget(Ipv4Addr),
}

impl Fabric {
    /// The only code in `harmless::fabric` that touches a controller's
    /// host table or router configs: apply `changes` to the [`ArpProxy`]
    /// of every controller in `to`, re-derive every datapath's [`Router`]
    /// config from the table as it now stands (identical configs are
    /// no-ops end to end), and flush each controller to its ready
    /// datapaths now rather than on its next tick — deletes before
    /// installs, one barrier.
    ///
    /// # Panics
    /// Panics if a controller lacks an app the spec asks for: skipping
    /// the proxy would quietly restore the O(hosts²) flood, skipping the
    /// router would blackhole inter-pod traffic at the first classifier.
    pub(super) fn feed(&self, net: &mut Network, to: &[NodeId], changes: &[Change]) {
        if !self.spec.arp_proxy || to.is_empty() {
            return;
        }
        let configs = self.spec.l3_routing.then(|| self.router_configs());
        for &ctrl in to {
            let node = net.node_mut::<ControllerNode>(ctrl);
            let proxy = node.app_mut::<ArpProxy>().expect(
                "FabricSpec::arp_proxy is set, but the fabric controller \
                 has no ArpProxy app (chain one before the learning app)",
            );
            for change in changes {
                match *change {
                    Change::Learn(at) => {
                        if let Some(route) = self.proxy_route(at) {
                            proxy.add_host(route);
                        }
                    }
                    Change::Forget(ip) => drop(proxy.remove_host(ip)),
                }
            }
            if let Some(configs) = &configs {
                let router = node.app_mut::<Router>().expect(
                    "FabricSpec::l3_routing is set, but the fabric controller \
                     has no Router app (chain one after the ArpProxy)",
                );
                for (dpid, config) in configs {
                    router.set_config(*dpid, config.clone());
                }
            }
            net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| c.sync_now(ctx));
        }
    }

    /// List `ctrl` at `rank` (0 is the primary) and seed it with the
    /// whole table: the same [`Self::feed`], replayed for one consumer.
    fn enlist(&mut self, net: &mut Network, ctrl: NodeId, rank: usize) {
        self.controllers.insert(rank, ctrl);
        let table: Vec<Change> = self.attached.keys().map(|&at| Change::Learn(at)).collect();
        self.feed(net, &[ctrl], &table);
    }

    /// Register every pod's SS_2 — and a soft spine, if present — with
    /// the one fabric controller. Like the instance's own
    /// `connect_controller`, call before the first `run_*` so the
    /// OpenFlow HELLOs go out on start; mid-run connections go through
    /// the manager's admin path instead. With the ARP proxy on,
    /// everything attached so far is registered with the controller's
    /// [`ArpProxy`] app, and whatever attaches afterwards registers as
    /// it attaches.
    pub fn connect_controller(&mut self, net: &mut Network, controller: NodeId) {
        for pod in &self.pods {
            pod.connect_controller(net, controller);
        }
        self.register_controller(net, controller);
    }

    /// Adopt `controller` as the fabric controller — spine hookup, and
    /// the whole attachment table fed to it — **without touching the
    /// pods**. Migration-wave scenarios use this: the pods join the
    /// controller later through their managers, and the routes
    /// registered here flow to each datapath when it eventually
    /// handshakes ([`ArpProxy`] replays its table on `on_switch_ready`).
    pub fn register_controller(&mut self, net: &mut Network, controller: NodeId) {
        // A soft spine is server infrastructure: connected from the
        // start even when the pods join through managers.
        if let Some(Spine::Soft(spine)) = self.spine {
            net.node_mut::<SoftSwitchNode>(spine)
                .connect_controller(controller);
        }
        self.enlist(net, controller, 0);
    }

    /// Register `backup` as the warm-standby controller of every software
    /// switch (all SS_2s and a soft spine). A switch dials it only after
    /// declaring the primary dead; the backup then rebuilds each
    /// datapath's rules from the resulting re-handshakes. Give the backup
    /// [`ControllerNode`] the primary's app chain and a higher role
    /// generation: seeded from the table here and fed every later change
    /// like the primary, it rebuilds the primary's exact rule set.
    pub fn connect_backup_controller(&mut self, net: &mut Network, backup: NodeId) {
        self.for_each_softswitch(net, |sw| sw.add_backup_controller(backup));
        self.enlist(net, backup, self.controllers.len());
    }
}
