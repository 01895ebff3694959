//! A minimal end host: one NIC, an ARP resolver/responder, an ICMP echo
//! responder, UDP send/receive with a mailbox, and a TCP SYN counter.
//!
//! Hosts are the endpoints of the use-case demos (DMZ, parental control,
//! quickstart ping) — they generate *correct* protocol exchanges so the
//! switches under test see realistic traffic.

use bytes::Bytes;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use netpkt::layers::Ipv4;
use netpkt::wire::Cursor;
use netpkt::{builder, icmp, tcp, udp, ArpOp, ArpRepr, Icmpv4Type, IpProto, Layers, MacAddr};

use crate::node::{Node, NodeCtx, PortId};
use crate::time::SimTime;

/// The single NIC port of every host.
pub const NIC: PortId = PortId(0);

/// A frame waiting for ARP resolution.
enum Pending {
    Udp {
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        payload: Vec<u8>,
    },
    Ping {
        dst_ip: Ipv4Addr,
        payload: Vec<u8>,
    },
    TcpSyn {
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
    },
}

/// A received UDP datagram kept in the mailbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Arrival time.
    pub at: SimTime,
    /// Sender IP.
    pub src_ip: Ipv4Addr,
    /// Sender UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// Payload bytes — a zero-copy slice of the delivered frame's
    /// backing storage (refcount bump, no allocation per datagram).
    pub payload: Bytes,
}

/// A simulated end host.
pub struct Host {
    name: String,
    mac: MacAddr,
    ip: Ipv4Addr,
    arp_table: HashMap<Ipv4Addr, MacAddr>,
    pending: Vec<Pending>,
    mailbox: Vec<Datagram>,
    echo_replies: u64,
    echo_requests_answered: u64,
    syns_received: u64,
    syn_acks_received: u64,
    rx_frames: u64,
    ping_seq: u16,
    udp_src_seq: u16,
}

impl Host {
    /// Create a host with the given L2/L3 identity.
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr) -> Host {
        Host {
            name: name.into(),
            mac,
            ip,
            arp_table: HashMap::new(),
            pending: Vec::new(),
            mailbox: Vec::new(),
            echo_replies: 0,
            echo_requests_answered: 0,
            syns_received: 0,
            syn_acks_received: 0,
            rx_frames: 0,
            ping_seq: 0,
            udp_src_seq: 40_000,
        }
    }

    /// This host's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Echo replies received (successful pings).
    pub fn echo_replies_received(&self) -> u64 {
        self.echo_replies
    }

    /// Echo requests this host answered.
    pub fn echo_requests_answered(&self) -> u64 {
        self.echo_requests_answered
    }

    /// TCP SYNs received (the host always answers SYN+ACK).
    pub fn syns_received(&self) -> u64 {
        self.syns_received
    }

    /// TCP SYN+ACKs received (successful "connections" initiated by us).
    pub fn syn_acks_received(&self) -> u64 {
        self.syn_acks_received
    }

    /// Total frames delivered to this host.
    pub fn rx_frames(&self) -> u64 {
        self.rx_frames
    }

    /// Received UDP datagrams addressed to us.
    pub fn mailbox(&self) -> &[Datagram] {
        &self.mailbox
    }

    /// The learned ARP table.
    pub fn arp_table(&self) -> &HashMap<Ipv4Addr, MacAddr> {
        &self.arp_table
    }

    /// Queue an ICMP echo request to `dst_ip` (resolving ARP first if
    /// needed). Effective on the next simulation event; typically called
    /// through [`crate::Network::with_node_ctx`].
    pub fn ping(&mut self, payload: &[u8], dst_ip: Ipv4Addr) {
        self.pending.push(Pending::Ping {
            dst_ip,
            payload: payload.to_vec(),
        });
    }

    /// Queue a UDP datagram to `dst_ip:dst_port`.
    pub fn send_udp(&mut self, dst_ip: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        self.udp_src_seq = self.udp_src_seq.wrapping_add(1).max(1024);
        self.pending.push(Pending::Udp {
            dst_ip,
            dst_port,
            src_port: self.udp_src_seq,
            payload: payload.to_vec(),
        });
    }

    /// Queue a TCP SYN ("connection attempt") to `dst_ip:dst_port`.
    pub fn connect_tcp(&mut self, dst_ip: Ipv4Addr, dst_port: u16) {
        self.udp_src_seq = self.udp_src_seq.wrapping_add(1).max(1024);
        self.pending.push(Pending::TcpSyn {
            dst_ip,
            dst_port,
            src_port: self.udp_src_seq,
        });
    }

    /// Flush queued sends now. Needed when queueing traffic from outside
    /// an event (e.g. through [`crate::Network::with_node_ctx`]) after the
    /// simulation has started; `on_start`/`on_packet`/`on_timer` flush
    /// automatically.
    pub fn flush(&mut self, ctx: &mut NodeCtx) {
        self.flush_pending(ctx, true);
    }

    /// Flush any queued sends whose next hop is resolved. With `arp`,
    /// broadcast an ARP request for each unresolved destination.
    ///
    /// Only *send-time* flushes pass `arp = true`. Frame-triggered
    /// flushes must not: broadcast ARP traffic reaches every host in the
    /// broadcast domain, and hosts that re-ARP for their own unresolved
    /// destinations on every incoming ARP frame amplify each other —
    /// in a multi-pod fabric where all hosts resolve at once, that
    /// cascade grows combinatorially with the pod count (observed as
    /// hundreds of thousands of spurious packet-ins on a 4-pod fabric).
    /// Real stacks queue on the ARP entry and retransmit on a timer, not
    /// on receipt of unrelated ARP frames.
    ///
    /// Consequence: the host itself never retries — if the one
    /// send-time ARP request (or its reply) is tail-dropped, the
    /// pending send waits until the next send-time flush. This host has
    /// no autonomous timers, so drivers that run hosts into sustained
    /// overload should either provision queues for the ARP burst (as
    /// the fabric experiments do) or schedule a retry timer —
    /// [`Node::on_timer`] re-flushes with `arp = true`. Convergence
    /// assertions in the experiments catch a stranded send loudly.
    fn flush_pending(&mut self, ctx: &mut NodeCtx, arp: bool) {
        let mut keep = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        let mut arped: Vec<Ipv4Addr> = Vec::new();
        for p in pending {
            let dst_ip = match &p {
                Pending::Udp { dst_ip, .. } => *dst_ip,
                Pending::Ping { dst_ip, .. } => *dst_ip,
                Pending::TcpSyn { dst_ip, .. } => *dst_ip,
            };
            match self.arp_table.get(&dst_ip).copied() {
                Some(dst_mac) => self.send_now(p, dst_mac, ctx),
                None => {
                    if arp && !arped.contains(&dst_ip) {
                        arped.push(dst_ip);
                        ctx.transmit(NIC, builder::arp_request(self.mac, self.ip, dst_ip));
                    }
                    keep.push(p);
                }
            }
        }
        self.pending = keep;
    }

    fn send_now(&mut self, p: Pending, dst_mac: MacAddr, ctx: &mut NodeCtx) {
        match p {
            Pending::Udp {
                dst_ip,
                dst_port,
                src_port,
                payload,
            } => {
                let f = builder::udp_packet(
                    self.mac, dst_mac, self.ip, dst_ip, src_port, dst_port, &payload,
                );
                ctx.transmit(NIC, f);
            }
            Pending::Ping { dst_ip, payload } => {
                self.ping_seq = self.ping_seq.wrapping_add(1);
                let f = builder::icmp_echo_request(
                    self.mac,
                    dst_mac,
                    self.ip,
                    dst_ip,
                    1,
                    self.ping_seq,
                    &payload,
                );
                ctx.transmit(NIC, f);
            }
            Pending::TcpSyn {
                dst_ip,
                dst_port,
                src_port,
            } => {
                let f = builder::tcp_packet(
                    self.mac,
                    dst_mac,
                    self.ip,
                    dst_ip,
                    src_port,
                    dst_port,
                    netpkt::tcp::flags::SYN,
                    b"",
                );
                ctx.transmit(NIC, f);
            }
        }
    }

    fn handle_arp(&mut self, repr: ArpRepr, ctx: &mut NodeCtx) {
        // Learn the sender either way.
        self.arp_table.insert(repr.sender_ip, repr.sender_mac);
        match repr.op {
            ArpOp::Request if repr.target_ip == self.ip => {
                ctx.transmit(NIC, builder::arp_reply(&repr, self.mac));
            }
            _ => {}
        }
        // Send queued traffic the learned sender unblocks — without
        // re-ARPing for unrelated destinations (see `flush_pending`).
        self.flush_pending(ctx, false);
    }

    fn handle_ipv4(&mut self, frame: &Bytes, src_mac: MacAddr, v4: Ipv4<'_>, ctx: &mut NodeCtx) {
        let Ipv4 { ip, mut l4, .. } = v4;
        if ip.dst != self.ip {
            return; // promiscuous traffic (e.g. flooded); not for us
        }
        match ip.proto {
            IpProto::ICMP => {
                let Ok(icmp) = icmp::Header::parse(&mut l4) else {
                    return;
                };
                match icmp.msg_type {
                    Icmpv4Type::EchoRequest => {
                        self.echo_requests_answered += 1;
                        let reply = builder::icmp_echo_reply(
                            self.mac, src_mac, self.ip, ip.src, icmp.ident, icmp.seq, l4,
                        );
                        ctx.transmit(NIC, reply);
                    }
                    Icmpv4Type::EchoReply => {
                        self.echo_replies += 1;
                    }
                    _ => {}
                }
            }
            IpProto::UDP => {
                let Ok(udp) = udp::Header::parse(&mut l4) else {
                    return;
                };
                let Ok(payload) = l4.take(udp.payload_len()) else {
                    return;
                };
                self.mailbox.push(Datagram {
                    at: ctx.now(),
                    src_ip: ip.src,
                    src_port: udp.src_port,
                    dst_port: udp.dst_port,
                    payload: frame.slice_ref(payload),
                });
            }
            IpProto::TCP => {
                let Ok(tcp) = tcp::Header::parse(&mut l4) else {
                    return;
                };
                let syn_ack = tcp::flags::SYN | tcp::flags::ACK;
                if tcp.is_syn() {
                    self.syns_received += 1;
                    // Answer SYN+ACK so the initiator can count success.
                    let f = builder::tcp_packet(
                        self.mac,
                        src_mac,
                        self.ip,
                        ip.src,
                        tcp.dst_port,
                        tcp.src_port,
                        syn_ack,
                        b"",
                    );
                    ctx.transmit(NIC, f);
                } else if tcp.flags & syn_ack == syn_ack {
                    self.syn_acks_received += 1;
                }
            }
            _ => {}
        }
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.flush_pending(ctx, true);
    }

    fn on_packet(&mut self, _port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        self.rx_frames += 1;
        let Ok(walk) = Layers::parse(&frame) else {
            return;
        };
        // Hosts are access devices: a VLAN tag reaching a host means the
        // switch misdelivered; count it by ignoring.
        if walk.eth.outer.is_some() {
            return;
        }
        if let Some(repr) = walk.arp() {
            self.handle_arp(repr, ctx);
        } else if let Some(v4) = walk.ipv4() {
            self.handle_ipv4(&frame, walk.eth.src, v4, ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx) {
        self.flush_pending(ctx, true);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::net::Network;

    fn two_hosts() -> (Network, crate::net::NodeId, crate::net::NodeId) {
        let mut net = Network::new(5);
        let a = net.add_node(Host::new("a", MacAddr::host(1), Ipv4Addr::new(10, 0, 0, 1)));
        let b = net.add_node(Host::new("b", MacAddr::host(2), Ipv4Addr::new(10, 0, 0, 2)));
        net.connect(a, NIC, b, NIC, LinkSpec::gigabit());
        (net, a, b)
    }

    #[test]
    fn ping_back_to_back() {
        let (mut net, a, b) = two_hosts();
        net.node_mut::<Host>(a)
            .ping(b"hello", Ipv4Addr::new(10, 0, 0, 2));
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 1);
        // ARP was learned both ways.
        assert_eq!(
            net.node_ref::<Host>(a).arp_table()[&Ipv4Addr::new(10, 0, 0, 2)],
            MacAddr::host(2)
        );
        assert_eq!(
            net.node_ref::<Host>(b).arp_table()[&Ipv4Addr::new(10, 0, 0, 1)],
            MacAddr::host(1)
        );
    }

    #[test]
    fn udp_lands_in_mailbox() {
        let (mut net, a, b) = two_hosts();
        net.node_mut::<Host>(a)
            .send_udp(Ipv4Addr::new(10, 0, 0, 2), 5353, b"query");
        net.run_until(SimTime::from_millis(10));
        let mb = net.node_ref::<Host>(b).mailbox();
        assert_eq!(mb.len(), 1);
        assert_eq!(&mb[0].payload[..], b"query");
        assert_eq!(mb[0].dst_port, 5353);
        assert_eq!(mb[0].src_ip, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn tcp_syn_gets_syn_ack() {
        let (mut net, a, b) = two_hosts();
        net.node_mut::<Host>(a)
            .connect_tcp(Ipv4Addr::new(10, 0, 0, 2), 80);
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.node_ref::<Host>(b).syns_received(), 1);
        assert_eq!(net.node_ref::<Host>(a).syn_acks_received(), 1);
    }

    #[test]
    fn host_ignores_foreign_ip() {
        let (mut net, a, b) = two_hosts();
        // a pings an address that belongs to nobody; b must not answer.
        net.node_mut::<Host>(a)
            .ping(b"x", Ipv4Addr::new(10, 0, 0, 99));
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 0);
    }

    #[test]
    fn multiple_pings_resolve_arp_once() {
        let (mut net, a, b) = two_hosts();
        {
            let h = net.node_mut::<Host>(a);
            h.ping(b"1", Ipv4Addr::new(10, 0, 0, 2));
            h.ping(b"2", Ipv4Addr::new(10, 0, 0, 2));
            h.ping(b"3", Ipv4Addr::new(10, 0, 0, 2));
        }
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 3);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 3);
    }
}
