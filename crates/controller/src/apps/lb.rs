//! Use case (a) from the demo: a Load Balancer that "equally distributes
//! ingress web traffic between multiple backends based on matching of the
//! source IP address".
//!
//! Clients address a virtual IP (VIP). The app answers ARP for the VIP
//! (proxy-ARP via packet-out), and partitions the client source-address
//! space into `N` buckets by masking the low bits of the source address —
//! exactly the "matching of the source IP address" phrasing in the paper.
//! Each bucket's rule rewrites the destination MAC/IP to one backend and
//! forwards to its port; return traffic is rewritten back to the VIP.

use std::net::Ipv4Addr;

use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::oxm::OxmField;
use openflow::{Action, Match};

use crate::node::{App, PacketInEvent, PacketInVerdict, SwitchHandle};

/// One backend server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// Switch port the backend hangs off.
    pub port: u32,
    /// Backend MAC (for destination rewrite).
    pub mac: MacAddr,
    /// Backend IP (for destination rewrite).
    pub ip: Ipv4Addr,
}

/// The load-balancer app.
pub struct LoadBalancer {
    /// The virtual service address.
    pub vip: Ipv4Addr,
    /// MAC answered in proxy-ARP for the VIP.
    pub vip_mac: MacAddr,
    /// L4 port of the balanced service.
    pub service_port: u16,
    /// IP protocol of the service: 6 (TCP, default) or 17 (UDP).
    pub service_proto: u8,
    /// Backends (bucket count = backend count, must be a power of two for
    /// clean masking).
    pub backends: Vec<Backend>,
    arps_answered: u64,
}

impl LoadBalancer {
    /// Build the app. `backends.len()` must be a power of two (2, 4, 8...)
    /// so source-space partitioning is exact.
    pub fn new(vip: Ipv4Addr, service_port: u16, backends: Vec<Backend>) -> LoadBalancer {
        assert!(
            backends.len().is_power_of_two(),
            "backend count must be a power of two"
        );
        LoadBalancer {
            vip,
            vip_mac: MacAddr::host(0xbbbb),
            service_port,
            service_proto: 6,
            backends,
            arps_answered: 0,
        }
    }

    /// Balance a UDP service instead of TCP.
    pub fn udp(mut self) -> Self {
        self.service_proto = 17;
        self
    }

    /// Proxy-ARP replies sent.
    pub fn arps_answered(&self) -> u64 {
        self.arps_answered
    }

    fn service_match(&self) -> Match {
        let m = Match::new().eth_type(0x0800);
        if self.service_proto == 6 {
            m.ip_proto(6).tcp_dst(self.service_port)
        } else {
            m.ip_proto(17).udp_dst(self.service_port)
        }
    }

    fn return_match(&self, b: &Backend) -> Match {
        let m = Match::new().in_port(b.port).eth_type(0x0800).ipv4_src(b.ip);
        if self.service_proto == 6 {
            m.ip_proto(6).with(OxmField::TcpSrc(self.service_port))
        } else {
            m.ip_proto(17).with(OxmField::UdpSrc(self.service_port))
        }
    }
}

impl App for LoadBalancer {
    fn name(&self) -> &str {
        "load-balancer"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        let n = self.backends.len() as u32;
        let low_mask = n - 1; // e.g. 4 backends -> mask 0x3 of the src IP
        for (i, b) in self.backends.iter().enumerate() {
            // Forward direction: src-IP bucket i, dst VIP -> backend i.
            let fwd = self
                .service_match()
                .with(OxmField::Ipv4Src(
                    Ipv4Addr::from(i as u32),
                    Some(Ipv4Addr::from(low_mask)),
                ))
                .ipv4_dst(self.vip);
            sw.flow_mod(FlowMod::add(0).priority(100).match_(fwd).apply(vec![
                Action::SetField(OxmField::EthDst(b.mac, None)),
                Action::SetField(OxmField::Ipv4Dst(b.ip, None)),
                Action::output(b.port),
            ]));
            // Return direction: backend i's service traffic gets re-sourced
            // as the VIP before the learning stage forwards it.
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(100)
                    .match_(self.return_match(b))
                    .instructions(vec![
                        openflow::Instruction::ApplyActions(vec![
                            Action::SetField(OxmField::EthSrc(self.vip_mac, None)),
                            Action::SetField(OxmField::Ipv4Src(self.vip, None)),
                        ]),
                        openflow::Instruction::GotoTable(1),
                    ]),
            );
        }
        // Everything else goes to the learning stage in table 1.
        sw.flow_mod(FlowMod::add(0).priority(1).goto(1));
    }

    fn on_packet_in(&mut self, sw: &mut SwitchHandle, ev: &PacketInEvent) -> PacketInVerdict {
        // Proxy-ARP for the VIP.
        let Some(repr) = ev.arp_request() else {
            return PacketInVerdict::Continue;
        };
        if repr.target_ip != self.vip {
            return PacketInVerdict::Continue;
        }
        self.arps_answered += 1;
        let reply = builder::arp_reply(&repr, self.vip_mac);
        sw.packet_out(ev.in_port, reply);
        // Answered, but kept visible downstream: the learning stage uses
        // the same punt to learn the requester's port, exactly as before
        // the verdict chain existed.
        PacketInVerdict::Continue
    }
}
