//! Per-pod ARP proxy with proactive host routes — flood containment for
//! hybrid-SDN fabrics.
//!
//! In a multi-pod fabric every round of fresh traffic starts with ARP:
//! each host broadcasts a who-has, the pod's edge datapath punts it,
//! and a reactive learning controller floods it fabric-wide — every
//! datapath punts the same broadcast again, and the round-1 control
//! load grows as O(hosts²). This is the classic packet-in bottleneck of
//! keeping legacy L2 flooding alive during an SDN migration (HARMLESS
//! §5; the hybrid-SDN surveys make the same point).
//!
//! The fix is that the controller already *knows* every host: the
//! fabric layer registers each attached host's `(IP, MAC)` identity and
//! its location — which port of which datapath leads to it
//! ([`HostRoute`]). With that table this app:
//!
//! * **answers ARP requests at the pod edge**: a punted who-has for a
//!   known host is answered with a forged unicast reply out of the
//!   ingress port and **consumed** ([`PacketInVerdict::Consumed`]), so
//!   no app behind it floods the broadcast — the request never leaves
//!   the pod, turning round-1 broadcast cost into O(hosts) packet-ins
//!   (one per requesting host);
//! * **installs proactive routes**: when a datapath completes its
//!   handshake (and on every tick, for hosts registered later), a
//!   `eth_dst → output` rule per known host is installed, so the
//!   unicast traffic that follows the ARP exchange never punts at all —
//!   without these, suppressing the ARP flood would just move the
//!   flooding to the first data frame, since nothing would have
//!   learned remote MACs;
//! * **installs reflection guards** where the fabric asks for them
//!   (legacy-spine interconnects): a flood copy arriving *from* the
//!   fabric at a pod that does not host the destination would match the
//!   uplink route and reflect back out of its ingress port; the guard
//!   drops it instead;
//! * **retracts stale routes**: when a host is re-registered (a pod
//!   move) or removed ([`ArpProxy::remove_host`]), the rules installed
//!   for the superseded entry are deleted from every datapath they
//!   reached — proactive routes that outlive the host they point at
//!   silently blackhole its traffic at the old location.
//!
//! Chain this app *before* a [`crate::apps::LearningSwitch`]: the proxy
//! consumes what it can answer, the learning switch handles any MAC the
//! host table does not know (and is free to flood it, as before).
//!
//! Every rule is sent from parts on the stack
//! ([`SwitchHandle::send_flow_mod`]): its match fields and action list
//! are arrays the sync loop builds per host, so a route costs the
//! controller no allocation, only its bytes in the send buffer.
//!
//! The app is fabric-agnostic: it only sees `(dpid, port)` pairs. The
//! `harmless` crate's fabric layer derives them from its topology and
//! attachment table, and `FabricSpec`'s `arp_proxy` flag wires the
//! whole thing up.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use netpkt::{builder, MacAddr};
use openflow::instruction::Insn;
use openflow::message::{FlowModHeader, FlowModParts};
use openflow::{Action, FlowModCommand, OxmField};

use crate::node::{App, PacketInEvent, PacketInVerdict, SwitchHandle};

/// Priority of the proactive `eth_dst → output` host routes — above the
/// learning switch's reactive rules (10), below the guards.
pub const ROUTE_PRIORITY: u16 = 20;
/// Priority of the reflection-guard drop rules.
pub const GUARD_PRIORITY: u16 = 30;

/// One host's fabric-wide identity and location: how to answer ARP for
/// it, and which port of each datapath leads to it.
#[derive(Debug, Clone)]
pub struct HostRoute {
    /// The host's IPv4 address (the ARP table key).
    pub ip: Ipv4Addr,
    /// The host's MAC address (the ARP answer, and the route match).
    pub mac: MacAddr,
    /// `(dpid, out_port)`: the proactive route installed on each
    /// datapath that carries traffic toward this host.
    pub ports: Vec<(u64, u32)>,
    /// `(dpid, in_port)`: drop frames for this host that arrive on
    /// `in_port` of `dpid` (reflection guards for flooding
    /// interconnects; empty for spine datapaths the controller owns).
    pub guards: Vec<(u64, u32)>,
}

impl HostRoute {
    /// Whether the route or a guard is on `dpid`.
    fn touches(&self, dpid: u64) -> bool {
        self.ports
            .iter()
            .chain(&self.guards)
            .any(|&(d, _)| d == dpid)
    }
}

/// What the proxy knows of one datapath synced since its handshake.
#[derive(Default)]
struct Synced {
    /// Number of `hosts` entries already installed there.
    pushed: usize,
    /// MACs of the entries naming it that were retired since its last
    /// sync, in retirement order: each is deleted there on its next sync.
    deletes: Vec<MacAddr>,
}

/// The ARP-proxy / proactive-routing app. See the module docs.
///
/// The proxy keeps one record per datapath synced since its handshake
/// (or first sync): how far into `hosts` it has been pushed, and the
/// MACs it must delete. Retiring an entry appends its MAC to the queue
/// of each such datapath it names; a sync drains that queue, then
/// pushes past the watermark. A handshake resets the record (the tables
/// are empty: nothing to delete, everything to push), and a datapath
/// declared down loses it, so a switch that is down or has never been
/// seen holds nothing.
///
/// A superseded or removed entry leaves a tombstone in `hosts`, so no
/// index or push watermark moves while datapaths catch up; once every
/// synced datapath has pushed past them and they number an eighth of
/// the live entries, they go in one sweep, and `by_ip` and the
/// watermarks shift down to match.
pub struct ArpProxy {
    /// Entries in registration order; `None` for a superseded or removed
    /// one.
    hosts: Vec<Option<HostRoute>>,
    /// How many of `hosts` are `None`.
    tombstones: usize,
    by_ip: HashMap<Ipv4Addr, usize>,
    /// dpid → its record, for every datapath synced since its handshake.
    synced: BTreeMap<u64, Synced>,
    answered: u64,
    routes_retracted: u64,
}

impl ArpProxy {
    /// An empty proxy; populate it with [`ArpProxy::add_host`] (the
    /// fabric layer does this when `FabricSpec::arp_proxy` is set).
    pub fn new() -> ArpProxy {
        ArpProxy {
            hosts: Vec::new(),
            tombstones: 0,
            by_ip: HashMap::new(),
            synced: BTreeMap::new(),
            answered: 0,
            routes_retracted: 0,
        }
    }

    /// Register a host. Routes reach already-connected datapaths on the
    /// next controller tick (1 s) or switch handshake, whichever comes
    /// first — register hosts before the simulation starts to have the
    /// routes in place from the first handshake.
    ///
    /// Re-registering an IP replaces its table entry. The replacement is
    /// appended past every datapath's push watermark, so its routes are
    /// (re)installed everywhere, and the superseded entry's rules are
    /// *retracted* (a delete flow-mod per datapath they reached) in the
    /// same sync — deletes go out before installs, so a host that moved
    /// pods ends up with exactly its new route, never a stale one
    /// blackholing traffic at the old location.
    pub fn add_host(&mut self, route: HostRoute) {
        self.retire(route.ip);
        self.by_ip.insert(route.ip, self.hosts.len());
        self.hosts.push(Some(route));
    }

    /// Drop a host from the table: its ARP entries stop being answered
    /// and every rule installed for it is retracted on the next sync
    /// (tick, handshake, or an explicit [`ArpProxy::sync_switch`]).
    /// Returns true if the IP was known.
    pub fn remove_host(&mut self, ip: Ipv4Addr) -> bool {
        let known = self.retire(ip);
        self.by_ip.remove(&ip);
        known
    }

    /// Tombstone `ip`'s current entry (indices and push watermarks stay
    /// valid) and queue its MAC for deletion on every synced datapath it
    /// names.
    fn retire(&mut self, ip: Ipv4Addr) -> bool {
        let Some(&i) = self.by_ip.get(&ip) else {
            return false;
        };
        if let Some(old) = self.hosts.get_mut(i).and_then(Option::take) {
            self.tombstones += 1;
            for (&dpid, s) in &mut self.synced {
                if old.touches(dpid) {
                    s.deletes.push(old.mac);
                }
            }
        }
        true
    }

    /// Number of registered hosts (live IPs, not superseded entries).
    pub fn hosts_known(&self) -> usize {
        self.by_ip.len()
    }

    /// ARP requests answered (and consumed) at the pod edge.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// Delete flow-mods issued for retired routes so far.
    pub fn routes_retracted(&self) -> u64 {
        self.routes_retracted
    }

    /// The registered MAC for an IP, if any.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        let &i = self.by_ip.get(&ip)?;
        self.hosts.get(i)?.as_ref().map(|h| h.mac)
    }

    /// Bring `sw`'s datapath up to date with the host table *now*:
    /// retract rules of retired entries, then install pending routes.
    /// The same sync runs on every handshake and controller tick; call
    /// this via [`crate::ControllerNode::for_each_switch`] when a host
    /// move must converge without waiting for the next tick.
    ///
    /// One non-strict `eth_dst` delete per queued MAC sweeps the retired
    /// entry's route, its guards and any stale reactive rules for that
    /// MAC, while matching nothing the table-miss entry covers. Deletes
    /// go first, so a same-MAC move deletes the old rule, then installs
    /// the new one.
    pub fn sync_switch(&mut self, sw: &mut SwitchHandle) {
        let s = self.synced.entry(sw.dpid).or_default();
        for mac in s.deletes.drain(..) {
            self.routes_retracted += 1;
            sw.send_flow_mod(FlowModParts::<&[Action]> {
                header: FlowModHeader {
                    command: FlowModCommand::Delete,
                    ..FlowModHeader::add(0)
                },
                match_: &[OxmField::EthDst(mac, None)],
                instructions: &[],
            });
        }
        let from = std::mem::replace(&mut s.pushed, self.hosts.len());
        push_routes(&self.hosts[from..], sw);
        self.forget_tombstones();
    }

    /// Sweep the tombstones out of `hosts` once every synced datapath
    /// has pushed the whole table and they number an eighth of the live
    /// entries: a sweep re-points `by_ip` at every entry that moved
    /// down, so it waits until it frees that many. Every watermark is
    /// then the table's end, so each moves down by the same count.
    fn forget_tombstones(&mut self) {
        let len = self.hosts.len();
        if self.tombstones == 0 || self.tombstones * 8 < len - self.tombstones {
            return;
        }
        if self.synced.values().any(|s| s.pushed < len) {
            return;
        }
        self.hosts.retain(Option::is_some);
        for (i, h) in self.hosts.iter().enumerate() {
            if let Some(h) = h {
                self.by_ip.insert(h.ip, i);
            }
        }
        let swept = len - self.hosts.len();
        self.synced.values_mut().for_each(|s| s.pushed -= swept);
        self.tombstones = 0;
    }
}

/// Install on `sw` the guards and routes `hosts` name on its datapath.
fn push_routes(hosts: &[Option<HostRoute>], sw: &mut SwitchHandle) {
    let dpid = sw.dpid;
    for h in hosts.iter().flatten() {
        for &(d, in_port) in &h.guards {
            if d != dpid {
                continue;
            }
            sw.send_flow_mod(FlowModParts::<&[Action]> {
                header: rule(GUARD_PRIORITY),
                match_: &[OxmField::InPort(in_port), OxmField::EthDst(h.mac, None)],
                // match with no actions = drop
                instructions: &[Insn::ApplyActions(&[])],
            });
        }
        for &(d, out) in &h.ports {
            if d != dpid {
                continue;
            }
            sw.send_flow_mod(FlowModParts::<&[Action]> {
                header: rule(ROUTE_PRIORITY),
                match_: &[OxmField::EthDst(h.mac, None)],
                instructions: &[Insn::ApplyActions(&[Action::output(out)])],
            });
        }
    }
}

/// The fixed fields of one of the proxy's `ADD`s to table 0.
fn rule(priority: u16) -> FlowModHeader {
    FlowModHeader {
        priority,
        ..FlowModHeader::add(0)
    }
}

impl Default for ArpProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl App for ArpProxy {
    fn name(&self) -> &str {
        "arp-proxy"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        // A handshake means empty tables — a first connect, or a device
        // that rebooted and lost everything. Reset its record: every
        // live route gets (re)installed, and deletes queued for rules
        // that no longer exist are dropped (deleting into a fresh table
        // would be a harmless no-op, but it is dead traffic).
        self.synced.insert(sw.dpid, Synced::default());
        // Table-miss punt, so ARP broadcasts (which no dst-MAC route
        // matches) reach the proxy. Idempotent with the learning
        // switch's identical entry.
        sw.send_flow_mod(FlowModParts::<&[Action]> {
            header: rule(0),
            match_: &[],
            instructions: &[Insn::ApplyActions(&[Action::to_controller()])],
        });
        self.sync_switch(sw);
    }

    fn on_tick(&mut self, sw: &mut SwitchHandle) {
        // Hosts registered (or retired) after a datapath's handshake
        // catch up here.
        self.sync_switch(sw);
    }

    fn on_switch_down(&mut self, dpid: u64) {
        // Its next handshake brings empty tables: nothing is queued for
        // it from now, and no sweep waits on its push watermark.
        self.synced.remove(&dpid);
    }

    fn on_packet_in(&mut self, sw: &mut SwitchHandle, ev: &PacketInEvent) -> PacketInVerdict {
        let Some(repr) = ev.arp_request() else {
            return PacketInVerdict::Continue;
        };
        let Some(mac) = self.lookup(repr.target_ip) else {
            return PacketInVerdict::Continue;
        };
        // Answer from the host table with the target's real MAC, out of
        // the port the request came in on — the broadcast itself goes no
        // further than this datapath.
        self.answered += 1;
        sw.packet_out(ev.in_port, builder::arp_reply(&repr, mac));
        PacketInVerdict::Consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{test_handle, Outbox};
    use openflow::message::Message;
    use openflow::Match;

    fn route(ip: [u8; 4], mac: u32) -> HostRoute {
        HostRoute {
            ip: Ipv4Addr::from(ip),
            mac: MacAddr::host(mac),
            ports: vec![(0x52, 1)],
            guards: Vec::new(),
        }
    }

    /// Decode a send buffer into `(command, match)` pairs for the
    /// flow-mods, in order.
    fn flow_mods(buf: &[u8]) -> Vec<(FlowModCommand, Match)> {
        let mut rx = openflow::Session::default();
        rx.push(bytes::Bytes::copy_from_slice(buf));
        std::iter::from_fn(|| rx.next_message())
            .filter_map(|m| match m.expect("well-formed").1 {
                Message::FlowMod(fm) => Some((fm.header.command, fm.match_)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn add_host_replaces_existing_ips() {
        let mut p = ArpProxy::new();
        p.add_host(route([10, 0, 0, 1], 1));
        p.add_host(route([10, 0, 0, 2], 2));
        assert_eq!(p.hosts_known(), 2);
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(MacAddr::host(1)));
        // Re-registering the same IP with a new MAC replaces the entry.
        p.add_host(route([10, 0, 0, 1], 7));
        assert_eq!(p.hosts_known(), 2);
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(MacAddr::host(7)));
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 9)), None);
    }

    #[test]
    fn move_deletes_stale_rules_before_installing_new_ones() {
        let mut p = ArpProxy::new();
        let mac = MacAddr::host(1);
        p.add_host(HostRoute {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac,
            ports: vec![(0x52, 1), (0x53, 9)],
            guards: vec![(0x53, 9)],
        });
        let (mut q52, mut q53) = (Outbox::default(), Outbox::default());
        p.sync_switch(&mut test_handle(0x52, &mut q52));
        p.sync_switch(&mut test_handle(0x53, &mut q53));
        assert_eq!(flow_mods(&q52.buf).len(), 1);
        assert_eq!(flow_mods(&q53.buf).len(), 2);
        assert_eq!(p.routes_retracted(), 0);

        // The host moves: same identity, new location.
        p.add_host(HostRoute {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac,
            ports: vec![(0x53, 2), (0x52, 7)],
            guards: Vec::new(),
        });
        q52.buf.clear();
        p.sync_switch(&mut test_handle(0x52, &mut q52));
        let mods = flow_mods(&q52.buf);
        // Delete of the old rule first, then the add of the new route —
        // the reverse order would delete the fresh rule.
        assert_eq!(mods[0].0, FlowModCommand::Delete);
        assert_eq!(mods[0].1, Match::new().eth_dst(mac));
        assert_eq!(mods[1].0, FlowModCommand::Add);
        assert_eq!(mods.len(), 2);
        // 0x53 held a route *and* a guard, swept by the one delete.
        q53.buf.clear();
        p.sync_switch(&mut test_handle(0x53, &mut q53));
        let mods = flow_mods(&q53.buf);
        assert_eq!(mods[0].0, FlowModCommand::Delete);
        assert_eq!(mods.len(), 2);
        assert_eq!(p.routes_retracted(), 2);
        // Syncing again is a no-op: both watermarks caught up.
        q52.buf.clear();
        p.sync_switch(&mut test_handle(0x52, &mut q52));
        assert!(q52.buf.is_empty());
    }

    #[test]
    fn remove_host_retracts_and_stops_answering() {
        let mut p = ArpProxy::new();
        p.add_host(route([10, 0, 0, 1], 1));
        let mut q = Outbox::default();
        p.sync_switch(&mut test_handle(0x52, &mut q));
        assert!(p.remove_host(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!p.remove_host(Ipv4Addr::new(10, 0, 0, 1)), "already gone");
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 1)), None);
        assert_eq!(p.hosts_known(), 0);
        q.buf.clear();
        p.sync_switch(&mut test_handle(0x52, &mut q));
        let mods = flow_mods(&q.buf);
        assert_eq!(mods.len(), 1);
        assert_eq!(mods[0].0, FlowModCommand::Delete);
    }

    #[test]
    fn rehandshake_reinstalls_routes_and_skips_stale_deletes() {
        let mut p = ArpProxy::new();
        p.add_host(route([10, 0, 0, 1], 1));
        p.add_host(route([10, 0, 0, 2], 2));
        let mut q = Outbox::default();
        p.sync_switch(&mut test_handle(0x52, &mut q));
        p.remove_host(Ipv4Addr::new(10, 0, 0, 2));
        // The datapath reboots before the tick that would retract: its
        // tables are empty, so the handshake must re-install host 1 and
        // not bother deleting rules that no longer exist.
        q.buf.clear();
        p.on_switch_ready(&mut test_handle(0x52, &mut q));
        let mods = flow_mods(&q.buf);
        assert!(
            mods.iter().all(|(c, _)| *c == FlowModCommand::Add),
            "no deletes into a fresh table: {mods:?}"
        );
        // Table-miss + host 1's route; host 2's tombstone installs nothing.
        assert_eq!(mods.len(), 2);
    }

    /// A large table is swept once its tombstones number an eighth of its
    /// live entries: 1 000 moves among 512 hosts, each synced, never
    /// leave more,
    /// and every host still answers with its latest entry.
    #[test]
    fn a_large_table_keeps_at_most_an_eighth_in_tombstones() {
        let mut p = ArpProxy::new();
        let mut q = Outbox::default();
        p.on_switch_ready(&mut test_handle(0x52, &mut q));
        let ip = |h: u32| Ipv4Addr::from(0x0a00_0000 + h);
        for h in 0..512 {
            p.add_host(route(ip(h).octets(), h));
        }
        for i in 0..1_000u32 {
            let h = i * 7 % 512;
            p.add_host(route(ip(h).octets(), 1_000 + i));
            q.buf.clear();
            p.sync_switch(&mut test_handle(0x52, &mut q));
            assert!(
                p.hosts.len() <= 512 + 512 / 8,
                "move {i}: {}",
                p.hosts.len()
            );
        }
        assert_eq!(p.hosts_known(), 512);
        assert_eq!(p.hosts.iter().flatten().count(), 512);
        for i in 1_000 - 512..1_000u32 {
            assert_eq!(p.lookup(ip(i * 7 % 512)), Some(MacAddr::host(1_000 + i)));
        }
    }

    /// A long-lived proxy holds only what a datapath may still need: 1 000
    /// re-registrations of seven hosts, moving between two datapaths and
    /// each followed by a sync of both, leave one entry per host and no
    /// delete queued, while every superseded route was retracted where it
    /// was installed.
    #[test]
    fn re_registrations_leave_no_superseded_entry_behind() {
        let mut p = ArpProxy::new();
        let (mut q52, mut q53) = (Outbox::default(), Outbox::default());
        p.on_switch_ready(&mut test_handle(0x52, &mut q52));
        p.on_switch_ready(&mut test_handle(0x53, &mut q53));
        let mut deletes = 0;
        for i in 0..1_000u32 {
            let at = if i % 2 == 0 { 0x52 } else { 0x53 };
            p.add_host(HostRoute {
                ip: Ipv4Addr::new(10, 0, 0, (i % 7) as u8),
                mac: MacAddr::host(i % 7),
                ports: vec![(at, 1 + i % 3)],
                guards: vec![(0x53, 9)],
            });
            q52.buf.clear();
            q53.buf.clear();
            p.sync_switch(&mut test_handle(0x52, &mut q52));
            p.sync_switch(&mut test_handle(0x53, &mut q53));
            deletes += [&q52, &q53]
                .iter()
                .flat_map(|q| flow_mods(&q.buf))
                .filter(|(c, _)| *c == FlowModCommand::Delete)
                .count();
        }
        assert_eq!(p.hosts_known(), 7);
        assert_eq!(p.hosts.len(), p.hosts_known());
        assert!(p.synced.values().all(|s| s.deletes.is_empty()));
        for i in 0..7 {
            let ip = Ipv4Addr::new(10, 0, 0, i);
            assert_eq!(p.lookup(ip), Some(MacAddr::host(u32::from(i))));
        }
        // 993 superseded entries, each guarded on 0x53; the 497 of them
        // routed on 0x52 are retracted there too.
        assert_eq!(deletes, 993 + 497);
        assert_eq!(p.routes_retracted(), 993 + 497);
    }

    /// A datapath declared down, or one that never handshook, holds
    /// nothing: with one of two switches down and a third never seen,
    /// 1 000 moves synced on the live one leave one entry per host and
    /// no delete queued, and the downed switch's next handshake
    /// installs the live routes and deletes nothing.
    #[test]
    fn a_switch_that_is_down_holds_nothing_back() {
        let mut p = ArpProxy::new();
        let (mut q52, mut q53) = (Outbox::default(), Outbox::default());
        p.on_switch_ready(&mut test_handle(0x52, &mut q52));
        p.on_switch_ready(&mut test_handle(0x53, &mut q53));
        let host = |i: u32| HostRoute {
            ip: Ipv4Addr::new(10, 0, 0, (i % 7) as u8),
            mac: MacAddr::host(i % 7),
            ports: vec![(0x52, 1 + i % 3), (0x53, 4), (0x54, 5)],
            guards: vec![(0x53, 9)],
        };
        for i in 0..7 {
            p.add_host(host(i));
        }
        p.sync_switch(&mut test_handle(0x52, &mut q52));
        p.sync_switch(&mut test_handle(0x53, &mut q53));
        p.on_switch_down(0x53);
        for i in 7..1_007u32 {
            p.add_host(host(i));
            q52.buf.clear();
            p.sync_switch(&mut test_handle(0x52, &mut q52));
            assert!(p.hosts.len() <= 7 + 1, "move {i}: {}", p.hosts.len());
            assert!(p.synced.values().all(|s| s.deletes.is_empty()), "move {i}");
        }
        assert_eq!(p.hosts.len(), p.hosts_known());
        // Only the live switch was asked to delete.
        assert_eq!(p.routes_retracted(), 1_000);
        q53.buf.clear();
        p.on_switch_ready(&mut test_handle(0x53, &mut q53));
        let mods = flow_mods(&q53.buf);
        assert!(
            mods.iter().all(|(c, _)| *c == FlowModCommand::Add),
            "{mods:?}"
        );
        // Table-miss, then a guard and a route per host.
        assert_eq!(mods.len(), 1 + 7 * 2);
    }

    /// The proxy queues what it always queued: 200 random streams of 400
    /// `add_host` / `remove_host` / `sync_switch` / `on_switch_ready` /
    /// `on_switch_down` calls over four datapaths — synced before their
    /// handshake, after it, after going down — with every byte queued,
    /// `routes_retracted()`, `hosts_known()` and one lookup folded into
    /// one digest after each call, and the same with the queued bytes'
    /// barriers cut out and xids zeroed into a second. The bytes were
    /// first pinned from the proxy that kept a shared log of retired
    /// entries with reader counts and a retraction watermark per
    /// datapath.
    #[test]
    fn an_op_stream_queues_what_the_parent_queued() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        fn fnv(digest: &mut u64, bytes: &[u8]) {
            for &b in bytes.iter().chain(&(bytes.len() as u64).to_le_bytes()) {
                *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        // The queued bytes with every BARRIER_REQUEST cut out and every
        // xid zeroed: what the proxy asked for, whoever numbered it.
        fn stripped(buf: &[u8]) -> Vec<u8> {
            let mut rx = openflow::Session::default();
            rx.push(bytes::Bytes::copy_from_slice(buf));
            let mut out = Vec::with_capacity(buf.len());
            while let Some(frame) = rx.next_frame() {
                let frame = frame.expect("whole frames");
                if frame[1] != openflow::message::msg_type::BARRIER_REQUEST {
                    out.extend_from_slice(&frame[..4]);
                    out.extend_from_slice(&[0; 4]);
                    out.extend_from_slice(&frame[8..]);
                }
            }
            out
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut requests = digest;
        let mut fold = |bytes: &[u8], queued: bool| {
            fnv(&mut digest, bytes);
            if queued {
                fnv(&mut requests, &stripped(bytes));
            } else {
                fnv(&mut requests, bytes);
            }
        };
        let (mut deletes, mut adds) = (0, 0);
        for _ in 0..200 {
            let mut p = ArpProxy::new();
            let mut q = Outbox::default();
            for _ in 0..400 {
                let dpid = 0x51 + rand(4);
                let ip = Ipv4Addr::new(10, 0, 0, rand(12) as u8);
                match rand(10) {
                    0..=2 => {
                        let (n_ports, n_guards) = (1 + rand(3), rand(3));
                        let mut at = || (0x51 + rand(4), 1 + rand(4) as u32);
                        let ports = (0..n_ports).map(|_| at()).collect();
                        let guards = (0..n_guards).map(|_| at()).collect();
                        p.add_host(HostRoute {
                            ip,
                            mac: MacAddr::host(rand(40) as u32),
                            ports,
                            guards,
                        });
                    }
                    3 => {
                        p.remove_host(ip);
                    }
                    4..=6 => p.sync_switch(&mut test_handle(dpid, &mut q)),
                    7..=8 => p.on_switch_ready(&mut test_handle(dpid, &mut q)),
                    _ => p.on_switch_down(dpid),
                }
                for (c, _) in flow_mods(&q.buf) {
                    match c {
                        FlowModCommand::Delete => deletes += 1,
                        _ => adds += 1,
                    }
                }
                fold(&q.buf, true);
                q.buf.clear();
                fold(&p.routes_retracted().to_le_bytes(), false);
                fold(&p.hosts_known().to_le_bytes(), false);
                let mac = p.lookup(Ipv4Addr::new(10, 0, 0, rand(12) as u8));
                fold(&mac.map_or([0xff; 6], |m| m.0), false);
            }
        }
        // The streams reach both kinds of flow-mod in numbers.
        assert!(deletes > 10_000 && adds > 50_000, "{deletes} {adds}");
        assert_eq!(
            requests, OP_STREAM_REQUESTS_DIGEST,
            "the proxy asks for other rules or counts otherwise"
        );
        assert_eq!(
            digest, OP_STREAM_DIGEST,
            "the proxy queues other bytes or counts otherwise"
        );
    }

    /// [`an_op_stream_queues_what_the_parent_queued`]'s digest, xids
    /// included: re-pinned when a sync stopped queueing a barrier of its
    /// own (every later xid moved down), with the fold below unchanged.
    const OP_STREAM_DIGEST: u64 = 0xf46f_bae1_ebce_6e54;

    /// The same fold over the queued bytes with barriers cut out and
    /// xids zeroed, recorded from the proxy that ended each sync that
    /// queued a flow-mod with a barrier of its own.
    const OP_STREAM_REQUESTS_DIGEST: u64 = 0x95ac_dc1f_78f1_d02d;
}
