//! Per-prefix L3 routing — graduating the pod edge from L2 fabric to
//! edge router.
//!
//! [`crate::apps::ArpProxy`] keeps inter-pod traffic flowing with one
//! `eth_dst → output` rule *per host per datapath*: rule state grows as
//! O(hosts × pods), which is exactly the flow-table pressure a hybrid
//! deployment is trying to escape (HARMLESS §5 measures edge switches
//! by megaflow capacity, not host count). The fabric's addressing plan
//! (`10.<pod>.<hi>.<lo>`) makes the aggregation obvious: every remote
//! pod is one `/16`, the internet is one default route, and only the
//! *local* pod needs per-host granularity.
//!
//! This app installs that aggregated view as a three-stage pipeline on
//! each configured datapath:
//!
//! * **table 0** (shared with the L2 apps): one classifier rule at
//!   priority [`CLASSIFY_PRIORITY`] sends IPv4 to the NAT stage.
//!   ArpProxy's intra-pod `eth_dst` routes sit *above* it, so pod-local
//!   traffic stays pure L2 and never burns a TTL hop;
//! * **table 1** ([`NAT_TABLE`]): on gateway datapaths, traffic for the
//!   NAT's external address is reverse-translated
//!   ([`openflow::Action::Nat`] ingress) before routing; everything
//!   else falls through a priority-0 miss to the route stage;
//! * **table 2** ([`ROUTE_TABLE`]): longest-prefix-match over
//!   [`PrefixRoute`]s, encoded as masked `ipv4_dst` entries whose
//!   priority is `ROUTE_PRIORITY_BASE + prefix_len` — the datapath's
//!   priority order *is* the longest-match order. Each route
//!   decrements TTL (the datapath answers ICMP time-exceeded itself),
//!   rewrites the MAC pair for the next hop, optionally source-NATs
//!   (the gateway's default route), and outputs.
//!
//! Configuration is per-dpid and wholesale ([`Router::set_config`]):
//! the fabric layer computes each edge datapath's route list once from
//! the topology. Like `ArpProxy`, the router keeps what it installed
//! per datapath, here the config version: a sync sends deletes before
//! adds, and a handshake resets the datapath to nothing installed, so
//! the whole config goes into the fresh table and no delete does.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netpkt::{EtherType, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match, NatDir, OxmField};

use crate::node::{App, SwitchHandle};

/// Priority of the table-0 `eth_type == IPv4 → goto NAT stage`
/// classifier — above the table-miss punt (0) and the learning
/// switch's reactive rules (10 is shared: the classifier is matched
/// first only because learning rules also match `eth_dst`, which
/// pod-local frames hit at [`crate::apps::arp_proxy::ROUTE_PRIORITY`]
/// anyway), below ArpProxy's pod-local routes (20).
pub const CLASSIFY_PRIORITY: u16 = 10;
/// Priority of the table-0 guard *accept* on guarded uplinks (IPv4 to
/// this router's own MAC enters the routed pipeline).
pub const GUARD_ACCEPT_PRIORITY: u16 = 16;
/// Priority of the table-0 guard *drop* on guarded uplinks (all other
/// IPv4 from that port is a stray flood copy).
pub const GUARD_DROP_PRIORITY: u16 = 15;
/// Priority of the gateway's table-1 reverse-NAT rule.
pub const NAT_INGRESS_PRIORITY: u16 = 50;
/// Table-2 route priority is this base plus the prefix length, so a
/// /32 (72) always beats a /16 (56) beats the default route (40).
pub const ROUTE_PRIORITY_BASE: u16 = 40;
/// The NAT classification stage.
pub const NAT_TABLE: u8 = 1;
/// The longest-prefix-match routing stage.
pub const ROUTE_TABLE: u8 = 2;

/// One routing-table entry: send `prefix/len` out `out_port`, MACs
/// rewritten for the next hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRoute {
    /// Network address (host bits ignored by the masked match).
    pub prefix: Ipv4Addr,
    /// Prefix length, 0 (default route) to 32 (host route).
    pub len: u8,
    /// Egress port on this datapath.
    pub out_port: u32,
    /// `eth_dst` rewrite: the next-hop router's MAC, or the host's own
    /// MAC for a directly-attached /32.
    pub next_hop: MacAddr,
    /// Source-NAT this route's traffic (the gateway's default route
    /// carries [`NatDir::Egress`]).
    pub nat: Option<NatDir>,
}

/// One datapath's routing personality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The router's own MAC — `eth_src` of every routed frame.
    pub mac: MacAddr,
    /// The routing table, any order; priorities encode prefix length.
    pub routes: Vec<PrefixRoute>,
    /// When set, this datapath is a NAT gateway: traffic *to* this
    /// external address is reverse-translated before routing.
    pub nat_external: Option<Ipv4Addr>,
    /// Uplink in-ports to guard on flooding interconnects: a legacy
    /// spine floods frames for a MAC it has not learned, and a flood
    /// copy arriving at the wrong pod would be *routed back out* (the
    /// classifier matches any IPv4), looping until TTL death. Each
    /// guarded port accepts only IPv4 addressed to this router's own
    /// MAC and drops the rest.
    pub uplink_guards: Vec<u32>,
}

/// The per-prefix routing app. See the module docs.
pub struct Router {
    configs: HashMap<u64, (u64, RouterConfig)>,
    /// dpid → config version already installed there.
    pushed: HashMap<u64, u64>,
    routes_retracted: u64,
}

impl Router {
    /// An empty router; give datapaths a personality with
    /// [`Router::set_config`] (the fabric layer does this when
    /// `FabricSpec` enables L3 routing).
    pub fn new() -> Router {
        Router {
            configs: HashMap::new(),
            pushed: HashMap::new(),
            routes_retracted: 0,
        }
    }

    /// Install or replace `dpid`'s routing config. An already-connected
    /// datapath converges on the next tick (or an explicit
    /// [`Router::sync_switch`]): its previous routing rules are deleted
    /// first, then the new set installed — never both, never neither.
    /// Setting a config identical to the current one is a no-op, so
    /// callers can recompute-and-set wholesale without churning rules.
    pub fn set_config(&mut self, dpid: u64, config: RouterConfig) {
        let v = match self.configs.get(&dpid) {
            Some((v, c)) if *c == config => *v,
            Some((v, _)) => *v + 1,
            None => 1,
        };
        self.configs.insert(dpid, (v, config));
    }

    /// `dpid`'s current config, if any.
    pub fn config(&self, dpid: u64) -> Option<&RouterConfig> {
        self.configs.get(&dpid).map(|(_, c)| c)
    }

    /// Flow-mod deletes issued for superseded routing state so far.
    pub fn routes_retracted(&self) -> u64 {
        self.routes_retracted
    }

    /// Rules the current config implies for one datapath: classifier +
    /// NAT-stage entries + one per route. What a test should count.
    pub fn rules_for(&self, dpid: u64) -> usize {
        self.config(dpid)
            .map(|c| {
                2 + usize::from(c.nat_external.is_some())
                    + 2 * c.uplink_guards.len()
                    + c.routes.len()
            })
            .unwrap_or(0)
    }

    /// Bring `sw`'s datapath up to date with its config *now*. Stale
    /// rules (an older config version) are deleted before the new set
    /// is installed; an up-to-date datapath is left untouched.
    pub fn sync_switch(&mut self, sw: &mut SwitchHandle) {
        let dpid = sw.dpid;
        let Some((version, config)) = self.configs.get(&dpid).cloned() else {
            return;
        };
        let installed = *self.pushed.get(&dpid).unwrap_or(&0);
        if installed == version {
            return;
        }
        if installed != 0 {
            self.retract(sw);
        }
        self.push(sw, &config);
        self.pushed.insert(dpid, version);
    }

    /// Delete every rule this app owns on `sw`: the tables it has to
    /// itself wholesale, the shared table 0 by the classifier's exact
    /// match (a non-strict `eth_type` delete matches no `eth_dst`
    /// route and not the table-miss entry).
    fn retract(&mut self, sw: &mut SwitchHandle) {
        self.routes_retracted += 3;
        let ipv4 = Match::new().eth_type(EtherType::IPV4.0);
        sw.flow_mod(FlowMod::delete(0).match_(ipv4));
        sw.flow_mod(FlowMod::delete(NAT_TABLE));
        sw.flow_mod(FlowMod::delete(ROUTE_TABLE));
    }

    fn push(&mut self, sw: &mut SwitchHandle, config: &RouterConfig) {
        // Table 0: IPv4 enters the routed pipeline (unless a pod-local
        // eth_dst route above this priority short-circuits it).
        sw.flow_mod(
            FlowMod::add(0)
                .priority(CLASSIFY_PRIORITY)
                .match_(Match::new().eth_type(EtherType::IPV4.0))
                .goto(NAT_TABLE),
        );
        // Guarded uplinks (flooding interconnects): accept only IPv4
        // addressed to this router, drop stray flood copies that would
        // otherwise be reflected back into the fabric.
        for &port in &config.uplink_guards {
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(GUARD_ACCEPT_PRIORITY)
                    .match_(
                        Match::new()
                            .in_port(port)
                            .eth_dst(config.mac)
                            .eth_type(EtherType::IPV4.0),
                    )
                    .goto(NAT_TABLE),
            );
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(GUARD_DROP_PRIORITY)
                    .match_(Match::new().in_port(port).eth_type(EtherType::IPV4.0))
                    .apply(vec![]), // match with no actions = drop
            );
        }
        // Table 1: reverse-NAT traffic addressed to the external IP on
        // gateways; everything falls through to the route stage.
        if let Some(ext) = config.nat_external {
            sw.flow_mod(
                FlowMod::add(NAT_TABLE)
                    .priority(NAT_INGRESS_PRIORITY)
                    .match_(Match::new().eth_type(EtherType::IPV4.0).ipv4_dst(ext))
                    .apply(vec![Action::Nat(NatDir::Ingress)])
                    .goto(ROUTE_TABLE),
            );
        }
        sw.flow_mod(FlowMod::add(NAT_TABLE).priority(0).goto(ROUTE_TABLE));
        // Table 2: the routing table. No table-miss entry: a routed
        // packet no prefix covers is dropped, as a router should.
        for r in &config.routes {
            let mask = prefix_mask(r.len);
            let m = if r.len == 0 {
                Match::new().eth_type(EtherType::IPV4.0)
            } else {
                Match::new()
                    .eth_type(EtherType::IPV4.0)
                    .ipv4_dst_masked(mask_addr(r.prefix, mask), Ipv4Addr::from(mask))
            };
            let mut actions = vec![Action::DecNwTtl];
            if let Some(dir) = r.nat {
                actions.push(Action::Nat(dir));
            }
            actions.push(Action::SetField(OxmField::EthSrc(config.mac, None)));
            actions.push(Action::SetField(OxmField::EthDst(r.next_hop, None)));
            actions.push(Action::output(r.out_port));
            sw.flow_mod(
                FlowMod::add(ROUTE_TABLE)
                    .priority(ROUTE_PRIORITY_BASE + u16::from(r.len))
                    .match_(m)
                    .apply(actions),
            );
        }
    }
}

/// The 32-bit netmask for a prefix length (0 → `0.0.0.0`).
pub fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len.min(32)))
    }
}

fn mask_addr(a: Ipv4Addr, mask: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(a) & mask)
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl App for Router {
    fn name(&self) -> &str {
        "router"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        // Handshake means empty tables: rewind the watermark so the
        // whole config is (re)installed, with no deletes into a table
        // that lost everything anyway.
        self.pushed.insert(sw.dpid, 0);
        self.sync_switch(sw);
    }

    fn on_tick(&mut self, sw: &mut SwitchHandle) {
        // Configs set (or replaced) after a datapath's handshake catch
        // up here.
        self.sync_switch(sw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{test_handle, Outbox};
    use openflow::message::Message;
    use openflow::{FlowModCommand, Instruction};

    fn decode(buf: &[u8]) -> Vec<FlowMod> {
        let mut rx = openflow::Session::default();
        rx.push(bytes::Bytes::copy_from_slice(buf));
        std::iter::from_fn(|| rx.next_message())
            .filter_map(|m| match m.expect("well-formed").1 {
                Message::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect()
    }

    fn pod_config() -> RouterConfig {
        RouterConfig {
            mac: MacAddr::host(0x4e00_0001),
            routes: vec![
                PrefixRoute {
                    prefix: Ipv4Addr::new(10, 2, 0, 0),
                    len: 16,
                    out_port: 9,
                    next_hop: MacAddr::host(0x4e00_0002),
                    nat: None,
                },
                PrefixRoute {
                    prefix: Ipv4Addr::new(10, 1, 0, 1),
                    len: 32,
                    out_port: 1,
                    next_hop: MacAddr::host(1),
                    nat: None,
                },
                PrefixRoute {
                    prefix: Ipv4Addr::new(0, 0, 0, 0),
                    len: 0,
                    out_port: 9,
                    next_hop: MacAddr::host(0x4e00_0002),
                    nat: Some(NatDir::Egress),
                },
            ],
            nat_external: None,
            uplink_guards: Vec::new(),
        }
    }

    #[test]
    fn pushes_classifier_miss_and_length_ranked_routes() {
        let mut r = Router::new();
        r.set_config(0x52, pod_config());
        let mut q = Outbox::default();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        let mods = decode(&q.buf);
        // Classifier + NAT miss + 3 routes, all adds.
        assert_eq!(mods.len(), 5);
        assert!(mods.iter().all(|m| m.header.command == FlowModCommand::Add));
        assert_eq!(r.rules_for(0x52), 5);
        assert_eq!(mods[0].header.table_id, 0);
        assert_eq!(mods[0].header.priority, CLASSIFY_PRIORITY);
        assert_eq!(
            mods[0].instructions,
            vec![Instruction::GotoTable(NAT_TABLE)]
        );
        assert_eq!(mods[1].header.table_id, NAT_TABLE);
        assert_eq!(
            mods[1].instructions,
            vec![Instruction::GotoTable(ROUTE_TABLE)]
        );
        // Route priorities rank by prefix length: /16 < /32, default lowest.
        let prios: Vec<u16> = mods[2..].iter().map(|m| m.header.priority).collect();
        assert_eq!(
            prios,
            vec![
                ROUTE_PRIORITY_BASE + 16,
                ROUTE_PRIORITY_BASE + 32,
                ROUTE_PRIORITY_BASE
            ]
        );
        assert!(mods[2..].iter().all(|m| m.header.table_id == ROUTE_TABLE));
        // The default route NATs on the way out.
        let Instruction::ApplyActions(acts) = &mods[4].instructions[0] else {
            panic!("default route must apply actions");
        };
        assert_eq!(acts[0], Action::DecNwTtl);
        assert_eq!(acts[1], Action::Nat(NatDir::Egress));
        assert!(matches!(acts.last(), Some(Action::Output { port: 9, .. })));
        // Re-sync is a no-op: the watermark caught up.
        q.buf.clear();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        assert!(q.buf.is_empty());
    }

    #[test]
    fn gateway_installs_reverse_nat_before_the_miss() {
        let mut r = Router::new();
        let mut c = pod_config();
        c.nat_external = Some(Ipv4Addr::new(198, 18, 0, 254));
        r.set_config(0x52, c);
        let mut q = Outbox::default();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        let mods = decode(&q.buf);
        assert_eq!(mods.len(), 6);
        assert_eq!(mods[1].header.table_id, NAT_TABLE);
        assert_eq!(mods[1].header.priority, NAT_INGRESS_PRIORITY);
        assert_eq!(
            mods[1].instructions,
            vec![
                Instruction::ApplyActions(vec![Action::Nat(NatDir::Ingress)]),
                Instruction::GotoTable(ROUTE_TABLE),
            ]
        );
    }

    #[test]
    fn reconfigure_deletes_before_reinstalling() {
        let mut r = Router::new();
        r.set_config(0x52, pod_config());
        let mut q = Outbox::default();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        // New personality: one route fewer.
        let mut c = pod_config();
        c.routes.truncate(2);
        r.set_config(0x52, c);
        q.buf.clear();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        let mods = decode(&q.buf);
        // Three deletes (shared table by classifier match, own tables
        // wholesale) strictly before any add.
        assert_eq!(mods.len(), 3 + 4);
        assert!(mods[..3]
            .iter()
            .all(|m| m.header.command == FlowModCommand::Delete));
        assert_eq!(mods[0].match_, Match::new().eth_type(EtherType::IPV4.0));
        assert_eq!(mods[1].header.table_id, NAT_TABLE);
        assert_eq!(mods[2].header.table_id, ROUTE_TABLE);
        assert!(mods[3..]
            .iter()
            .all(|m| m.header.command == FlowModCommand::Add));
        assert_eq!(r.routes_retracted(), 3);
    }

    #[test]
    fn guarded_uplinks_accept_own_mac_and_drop_strays() {
        let mut r = Router::new();
        let mut c = pod_config();
        c.uplink_guards = vec![9];
        r.set_config(0x52, c.clone());
        let mut q = Outbox::default();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        let mods = decode(&q.buf);
        assert_eq!(mods.len(), 7);
        assert_eq!(r.rules_for(0x52), 7);
        // Accept (to the router's own MAC) outranks the drop.
        assert_eq!(mods[1].header.priority, GUARD_ACCEPT_PRIORITY);
        assert_eq!(
            mods[1].match_,
            Match::new()
                .in_port(9)
                .eth_dst(c.mac)
                .eth_type(EtherType::IPV4.0)
        );
        assert_eq!(
            mods[1].instructions,
            vec![Instruction::GotoTable(NAT_TABLE)]
        );
        assert_eq!(mods[2].header.priority, GUARD_DROP_PRIORITY);
        assert_eq!(
            mods[2].instructions,
            vec![Instruction::ApplyActions(vec![])],
            "stray flood copies are dropped, not reflected"
        );
        // Re-setting the identical config does not churn the rules.
        r.set_config(0x52, c);
        q.buf.clear();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        assert!(q.buf.is_empty(), "identical config must be a no-op");
    }

    #[test]
    fn rehandshake_reinstalls_without_deletes() {
        let mut r = Router::new();
        r.set_config(0x52, pod_config());
        let mut q = Outbox::default();
        r.sync_switch(&mut test_handle(0x52, &mut q));
        q.buf.clear();
        r.on_switch_ready(&mut test_handle(0x52, &mut q));
        let mods = decode(&q.buf);
        assert_eq!(mods.len(), 5);
        assert!(
            mods.iter().all(|m| m.header.command == FlowModCommand::Add),
            "no deletes into a fresh table"
        );
        // An unconfigured datapath gets nothing.
        let mut q2 = Outbox::default();
        r.on_switch_ready(&mut test_handle(0x99, &mut q2));
        assert!(q2.buf.is_empty());
        assert_eq!(r.rules_for(0x99), 0);
    }
}
