//! Everything a controller is told — a [`HostRoute`] per attachment, a
//! [`RouterConfig`] per datapath on routed fabrics — derived from
//! `(spec, pods, attachment table)` alone. Nothing here reads the
//! `Network`: identities were captured into the table at attach.

use std::net::Ipv4Addr;

use controller::apps::{HostRoute, PrefixRoute, RouterConfig};
use netpkt::MacAddr;
use openflow::NatDir;

use super::attach::{Attachment, Kind};
use super::spec::*;
use super::topology::{spine_port, Spine};
use super::Fabric;

/// `(dpid, port)` pairs: one half of a [`HostRoute`]'s location.
type DpidPorts = Vec<(u64, u32)>;

/// A plain (un-NATted) routing-table entry toward `(out_port, next_hop)`.
fn route(prefix: Ipv4Addr, len: u8, (out_port, next_hop): (u32, MacAddr)) -> PrefixRoute {
    PrefixRoute {
        prefix,
        len,
        out_port,
        next_hop,
        nat: None,
    }
}

/// Pod `q`'s `/16` aggregate.
fn pod_prefix(q: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, q as u8, 0, 0)
}

impl Fabric {
    /// What the ARP proxy is told about the attachment at `at`: its
    /// captured identity, and where it lives now. `None` for plain
    /// devices, which controllers never hear of.
    pub(super) fn proxy_route(&self, at: (usize, u16)) -> Option<HostRoute> {
        let a = &self.attached[&at];
        let (ports, guards) = match a.kind {
            Kind::Device => return None,
            Kind::Upstream => Default::default(),
            Kind::Host | Kind::Station => self.route_location(at.0, at.1),
        };
        Some(HostRoute {
            ip: a.ip,
            mac: a.mac,
            ports,
            guards,
        })
    }

    /// The location half of a [`HostRoute`] for a station at `(pod,
    /// port)`, as `(dpid, out_port)` routes and `(dpid, in_port)` guards:
    /// its access port at the home SS_2, the uplink toward it everywhere
    /// else, the pod-facing port on a soft spine. Across a legacy spine
    /// the uplink routes carry reflection guards: the spine floods
    /// unknown destinations, and a flood copy reaching a pod that does
    /// not host the MAC must be dropped, not bounced back out of the
    /// uplink it came in on.
    fn route_location(&self, pod: usize, port: u16) -> (DpidPorts, DpidPorts) {
        let home = (self.pods[pod].spec.ss2_dpid, u32::from(port));
        // Per-prefix routing shrinks per-host state to the home pod:
        // inter-pod delivery rides the /16 aggregates, so the only
        // eth_dst rule a host needs is its own access port (pod-local
        // L2 traffic short-circuits the routed pipeline there).
        if self.spec.l3_routing {
            return (vec![home], Vec::new());
        }
        let mut ports = Vec::with_capacity(self.pods.len() + 1);
        let mut guards = Vec::new();
        for (p, px) in self.pods.iter().enumerate() {
            if p == pod {
                ports.push(home);
                continue;
            }
            // On a line, transit frames enter on one uplink and leave
            // on the other, so no reflection guard is needed.
            let toward = (px.spec.ss2_dpid, u32::from(self.spec.uplink(p, pod)));
            ports.push(toward);
            if self.spec.interconnect == Interconnect::SpineLegacy {
                guards.push(toward);
            }
        }
        if let Some(Spine::Soft(_)) = self.spine {
            ports.push((SPINE_DPID, spine_port(pod)));
        }
        (ports, guards)
    }

    /// Next hop from pod `p` toward pod `q`: the uplink out-port and
    /// the MAC the routed frame is re-addressed to. Hop-by-hop on a
    /// [`Interconnect::Line`] (each transited pod routes onward), via
    /// the spine's own routing stage on [`Interconnect::SpineSoft`],
    /// and straight to the target pod's router MAC across a flooding
    /// [`Interconnect::SpineLegacy`] (the bridge learns router MACs
    /// like any others; guard rules contain its flood copies).
    pub(super) fn next_hop(&self, p: usize, q: usize) -> (u32, MacAddr) {
        let mac = match self.spec.interconnect {
            Interconnect::None => {
                unreachable!("single-pod fabrics route no inter-pod traffic")
            }
            Interconnect::Line if q > p => router_mac(p + 1),
            Interconnect::Line => router_mac(p - 1),
            Interconnect::SpineSoft => SPINE_ROUTER_MAC,
            Interconnect::SpineLegacy => router_mac(q),
        };
        (u32::from(self.spec.uplink(p, q)), mac)
    }

    /// The attachments that are routed to: hosts and stations.
    fn routed(&self) -> impl Iterator<Item = ((usize, u16), &Attachment)> {
        self.attached
            .iter()
            .filter(|(_, a)| matches!(a.kind, Kind::Host | Kind::Station))
            .map(|(&at, a)| (at, a))
    }

    /// Hosts that migrated out of their address's home `/16`, as `(ip,
    /// current pod)`: each needs a fabric-wide `/32` exception punching
    /// through the aggregate (longest prefix wins) toward where it lives.
    fn exceptions(&self) -> impl Iterator<Item = (Ipv4Addr, usize)> + '_ {
        self.routed()
            .filter(|((pod, _), a)| usize::from(a.ip.octets()[1]) != *pod)
            .map(|((pod, _), a)| (a.ip, pod))
    }

    /// Pod `p`'s routing personality under the current topology and
    /// attachment table: one `/16` per remote pod, one `/32` per
    /// locally attached station (under the identity it attached with),
    /// one `/32` exception per host that migrated away from its home
    /// prefix, and — with a gateway — the default route (NAT'd at the
    /// gateway pod itself).
    fn pod_config(&self, p: usize) -> RouterConfig {
        let mut routes: Vec<PrefixRoute> = (0..self.pods.len())
            .filter(|&q| q != p)
            .map(|q| route(pod_prefix(q), 16, self.next_hop(p, q)))
            .collect();
        routes.extend(
            self.routed()
                .filter(|((pod, _), _)| *pod == p)
                .map(|((_, port), a)| route(a.ip, 32, (u32::from(port), a.mac))),
        );
        routes.extend(
            self.exceptions()
                .filter(|&(_, pod)| pod != p)
                .map(|(ip, pod)| route(ip, 32, self.next_hop(p, pod))),
        );
        let mut nat_external = None;
        match self.spec.gateway {
            Some(gw) if gw.pod == p => {
                routes.push(PrefixRoute {
                    nat: Some(NatDir::Egress),
                    ..route(Ipv4Addr::UNSPECIFIED, 0, (u32::from(gw.port), INTERNET_MAC))
                });
                nat_external = Some(gw.external_ip);
            }
            Some(gw) => routes.push(route(Ipv4Addr::UNSPECIFIED, 0, self.next_hop(p, gw.pod))),
            None => {}
        }
        let guarded = self.spec.interconnect == Interconnect::SpineLegacy;
        RouterConfig {
            mac: router_mac(p),
            routes,
            nat_external,
            uplink_guards: Vec::from_iter(guarded.then(|| u32::from(self.spec.uplink(p, p)))),
        }
    }

    /// A soft spine's routing personality: one `/16` per pod out of
    /// its pod-facing port, plus `/32` exceptions for migrated hosts
    /// and the default route toward the gateway pod. The spine is a
    /// real routed hop (TTL decrement, ICMP time-exceeded under its
    /// own identity).
    fn spine_config(&self) -> RouterConfig {
        let down = |pod: usize| (spine_port(pod), router_mac(pod));
        let mut routes: Vec<PrefixRoute> = (0..self.pods.len())
            .map(|q| route(pod_prefix(q), 16, down(q)))
            .collect();
        routes.extend(self.exceptions().map(|(ip, pod)| route(ip, 32, down(pod))));
        if let Some(gw) = self.spec.gateway {
            routes.push(route(Ipv4Addr::UNSPECIFIED, 0, down(gw.pod)));
        }
        RouterConfig {
            mac: SPINE_ROUTER_MAC,
            routes,
            nat_external: None,
            uplink_guards: Vec::new(),
        }
    }

    /// Every datapath's routing personality, as `(dpid, config)`.
    pub(super) fn router_configs(&self) -> Vec<(u64, RouterConfig)> {
        let mut configs: Vec<(u64, RouterConfig)> = (0..self.pods.len())
            .map(|p| (self.pods[p].spec.ss2_dpid, self.pod_config(p)))
            .collect();
        if let Some(Spine::Soft(_)) = self.spine {
            configs.push((SPINE_DPID, self.spine_config()));
        }
        configs
    }
}
