//! The attachment table — what sits behind every occupied `(pod, access
//! port)` — and the lifecycle calls that change it and hand each change
//! to the feed.

use std::net::Ipv4Addr;

use netpkt::MacAddr;
use netsim::host::Host;
use netsim::{Network, NodeId, PortId};

use super::feed::Change;
use super::spec::{FabricError, INTERNET_MAC};
use super::Fabric;

/// What an [`Attachment`] is — decides what controllers are told of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// [`Fabric::attach_host`]: proxied, routed to, and may migrate.
    Host,
    /// [`Fabric::attach_station`]: proxied and routed to like a host.
    Station,
    /// [`Fabric::attach_internet`]: proxied only — reaching it is the
    /// default route's job.
    Upstream,
    /// [`Fabric::attach_node`]: occupies the port; never fed.
    Device,
}

/// One row of the attachment table.
#[derive(Debug, Clone, Copy)]
pub(super) struct Attachment {
    pub node: NodeId,
    pub kind: Kind,
    /// Identity captured at attach — for a migrated host, *not* that
    /// of the port it now occupies.
    pub ip: Ipv4Addr,
    pub mac: MacAddr,
}

impl Fabric {
    /// `(pod, port)` is an access port with nothing attached.
    fn check_vacant(&self, pod: usize, port: u16) -> Result<(), FabricError> {
        self.check_access(pod, port)?;
        if self.attached.contains_key(&(pod, port)) {
            return Err(FabricError::DuplicateHostPort { pod, port });
        }
        Ok(())
    }

    /// [`Self::check_vacant`], and the port's own identity is free to
    /// hand to a new station: a host that migrated away from the port
    /// took the identity with it and carries it until it is detached.
    fn check_free(&self, pod: usize, port: u16) -> Result<(), FabricError> {
        self.check_vacant(pod, port)?;
        if self.away.contains(&self.host_mac(pod, port)) {
            return Err(FabricError::IdentityInUse { pod, port });
        }
        Ok(())
    }

    /// The fabric identity of access port `(pod, port)` itself.
    fn port_identity(&self, pod: usize, port: u16) -> (Ipv4Addr, MacAddr) {
        (self.host_ip(pod, port), self.host_mac(pod, port))
    }

    /// Link `node` to the free access port `at`, record it in the table
    /// under `identity`, and tell the controllers.
    fn place(
        &mut self,
        net: &mut Network,
        at: (usize, u16),
        node: NodeId,
        kind: Kind,
        (ip, mac): (Ipv4Addr, MacAddr),
    ) {
        let row = Attachment {
            node,
            kind,
            ip,
            mac,
        };
        self.attached.insert(at, row);
        self.pods[at.0].attach_node(net, at.1, node);
        if kind != Kind::Device {
            self.feed(net, &self.controllers, &[Change::Learn(at)]);
        }
    }

    /// [`Self::place`] under the identity of the port itself.
    fn place_as(&mut self, net: &mut Network, at: (usize, u16), node: NodeId, kind: Kind) {
        self.place(net, at, node, kind, self.port_identity(at.0, at.1));
    }

    /// Attach a host to access port `port` of pod `pod`, with the
    /// fabric-wide identity of [`Self::host_ip`] / [`Self::host_mac`].
    /// Duplicate `(pod, port)` attachments are rejected — each access
    /// port carries exactly one station. With the ARP proxy on, the
    /// host's identity and route reach every controller of the fabric,
    /// whether it was connected before or after.
    pub fn attach_host(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
    ) -> Result<NodeId, FabricError> {
        self.check_free(pod, port)?;
        let (ip, mac) = self.port_identity(pod, port);
        let name = format!("{}h{port}", self.pods[pod].spec.name_prefix);
        let h = net.add_node(Host::new(name, mac, ip));
        self.place_as(net, (pod, port), h, Kind::Host);
        Ok(h)
    }

    /// Attach an arbitrary node (generator/sink) to `(pod, port)` on its
    /// port 0, with the same duplicate-port bookkeeping as
    /// [`Self::attach_host`].
    pub fn attach_node(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
        node: NodeId,
    ) -> Result<(), FabricError> {
        self.check_vacant(pod, port)?;
        self.place_as(net, (pod, port), node, Kind::Device);
        Ok(())
    }

    /// Attach a measurement station (traffic generator or sink) at
    /// `(pod, port)` and, with the ARP proxy on, register the port's
    /// fabric identity ([`Self::host_ip`] / [`Self::host_mac`]) with the
    /// proxy. Sinks never transmit, so reactive learning alone would
    /// flood every frame destined to them fabric-wide forever; the
    /// proactive route keeps station traffic unicast. The station's
    /// flows should use the port's fabric identity as their addresses.
    pub fn attach_station(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
        node: NodeId,
    ) -> Result<(), FabricError> {
        self.check_free(pod, port)?;
        self.place_as(net, (pod, port), node, Kind::Station);
        Ok(())
    }

    /// Place the upstream "internet" host at the gateway's access
    /// port: a plain [`Host`] with the gateway spec's `internet_ip`
    /// identity, answering from behind nothing while the fabric's
    /// hosts answer from behind the NAT. The ARP proxy answers who-has
    /// for it, but no `eth_dst` routes are installed anywhere: reaching
    /// it is the default route's job.
    pub fn attach_internet(&mut self, net: &mut Network) -> Result<NodeId, FabricError> {
        let Some(gw) = self.spec.gateway else {
            return Err(FabricError::NoGateway);
        };
        self.check_vacant(gw.pod, gw.port)?;
        let (ip, mac) = (gw.internet_ip, INTERNET_MAC);
        let h = net.add_node(Host::new("internet", mac, ip));
        self.place(net, (gw.pod, gw.port), h, Kind::Upstream, (ip, mac));
        Ok(h)
    }

    /// Detach the station on `(pod, port)`: cut its access link (frames
    /// queued on it are blackholed, as on any cable pull) and free the
    /// port for a new attachment. Whatever identity the station carried
    /// leaves every controller's ARP table, and its proactive routes
    /// are retracted fabric-wide right away — leaving them would
    /// blackhole every frame for that MAC at its old edge. Returns the
    /// detached node.
    pub fn detach_host(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
    ) -> Result<NodeId, FabricError> {
        self.check_access(pod, port)?;
        let Some(a) = self.attached.remove(&(pod, port)) else {
            return Err(FabricError::NothingAttached { pod, port });
        };
        self.away.remove(&a.mac);
        net.disconnect(a.node, PortId(0));
        if a.kind != Kind::Device {
            self.feed(net, &self.controllers, &[Change::Forget(a.ip)]);
        }
        Ok(a.node)
    }

    /// Move the host on `from` to the access port `to` — possibly in a
    /// different pod — keeping its `(IP, MAC)` identity, as a migrating
    /// VM does. The old access link is cut, the host re-attaches at
    /// `to`, and with the ARP proxy on its routes are *retracted and
    /// re-installed for the new location in one sync*, deletes first —
    /// stale `eth_dst` routes at the old pod would otherwise keep
    /// matching and silently blackhole all traffic to the moved host.
    ///
    /// The vacated port stays closed to [`Self::attach_host`] /
    /// [`Self::attach_station`] ([`FabricError::IdentityInUse`]) until
    /// the moved host is detached: its identity is still in the fabric.
    ///
    /// Callable between `run_*` calls. On a sharded network the host's
    /// node stays on the shard of the pod it left (a network is sharded
    /// once): results are the same for any shard map, but the host's
    /// frames now cross shards on their first hop.
    pub fn migrate_host(
        &mut self,
        net: &mut Network,
        from: (usize, u16),
        to: (usize, u16),
    ) -> Result<NodeId, FabricError> {
        self.check_access(from.0, from.1)?;
        self.check_vacant(to.0, to.1)?;
        let Some(&a) = self.attached.get(&from).filter(|a| a.kind == Kind::Host) else {
            return Err(FabricError::NothingAttached {
                pod: from.0,
                port: from.1,
            });
        };
        self.attached.remove(&from);
        if a.mac == self.host_mac(to.0, to.1) {
            self.away.remove(&a.mac);
        } else {
            self.away.insert(a.mac);
        }
        net.disconnect(a.node, PortId(0));
        self.place(net, to, a.node, a.kind, (a.ip, a.mac));
        Ok(a.node)
    }

    /// The node attached to `(pod, port)`, if any.
    pub fn attached_node(&self, pod: usize, port: u16) -> Option<NodeId> {
        self.attached.get(&(pod, port)).map(|a| a.node)
    }
}
