//! Topology construction: wire a legacy switch, the translator SS_1 and
//! the main OpenFlow switch SS_2 into a simulated network exactly as in
//! the paper's Fig. 1.
//!
//! Port conventions:
//! * legacy switch — ports `1..=n` are access ports; ports `n+1..=n+t`
//!   are trunk ports toward the server;
//! * SS_1 — ports `1..=t` are the trunk side; port `100+i` is the patch
//!   link toward SS_2's port `i`;
//! * SS_2 — port `i` corresponds 1:1 to legacy access port `i`, which is
//!   what makes the architecture "fully data plane-transparent" to the
//!   controller.

use netsim::host::Host;
use netsim::{LinkSpec, Network, NodeId, PortId};
use openflow::message::FlowMod;
use openflow::{Action, Instruction, Match};
use softswitch::datapath::{DpConfig, PipelineMode};
use softswitch::{CostModel, SoftSwitchNode};

use legacy_switch::LegacySwitchNode;

use crate::portmap::PortMap;
use crate::translator::{self, patch_port};

/// Deployment variant — the E11 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's design: a dedicated translator switch (SS_1) in front
    /// of the main OpenFlow switch (SS_2), joined by patch ports. The
    /// controller sees clean port numbers.
    TwoSwitch,
    /// A single merged datapath doing translation and policy in one
    /// pipeline (table 0 translates VLAN→metadata, policy lives in table
    /// 1 and must emit VLAN-rewriting actions itself). Faster, but the
    /// controller program is no longer portable.
    Merged,
}

/// Default datapath id of the translator switch SS_1.
pub const SS1_DPID: u64 = 0x51;
/// Default datapath id of the main OpenFlow switch SS_2.
pub const SS2_DPID: u64 = 0x52;
/// Default datapath id of the merged single-datapath variant — distinct
/// from [`SS2_DPID`] so a two-switch and a merged instance can face the
/// same controller without colliding.
pub const MERGED_DPID: u64 = 0x5A;

/// Everything needed to build a HARMLESS deployment (one *pod* in fabric
/// terms: a legacy switch plus its server-side software switches).
#[derive(Debug, Clone)]
pub struct HarmlessSpec {
    /// Managed access ports on the legacy switch.
    pub n_access_ports: u16,
    /// Trunk links between the legacy switch and the server.
    pub n_trunks: u16,
    /// VLAN base for the port map.
    pub vlan_base: u16,
    /// Link model of host↔legacy access links.
    pub access_link: LinkSpec,
    /// Link model of the trunk interconnect(s).
    pub trunk_link: LinkSpec,
    /// CPU cores per software switch instance.
    pub cores: usize,
    /// RX ring size per software switch.
    pub rx_queue: usize,
    /// Software datapath cost model.
    pub cost_model: CostModel,
    /// Software datapath lookup machinery.
    pub pipeline_mode: PipelineMode,
    /// Two-switch (paper) or merged (ablation).
    pub variant: Variant,
    /// Override the legacy switch's sysDescr (dialect detection).
    pub legacy_sys_descr: Option<String>,
    /// Prefix for node names (`"pod3/"` → `"pod3/legacy"`, `"pod3/ss2"`).
    /// The fabric layer sets this so multi-pod traces stay legible.
    pub name_prefix: String,
    /// Datapath id of SS_1 (the fabric gives every pod distinct ids).
    pub ss1_dpid: u64,
    /// Datapath id of SS_2 / the merged datapath.
    pub ss2_dpid: u64,
    /// Fabric uplink ports added to SS_2, numbered
    /// `n_access_ports + 1 ..= n_access_ports + uplinks`. Zero for the
    /// classic standalone instance; [`crate::fabric::FabricSpec`] sets it
    /// to what its interconnect needs.
    pub uplinks: u16,
}

impl HarmlessSpec {
    /// Defaults: one 10 G trunk, gigabit access links, VLAN base 100, one
    /// core per software switch, full caching, two-switch variant.
    pub fn new(n_access_ports: u16) -> HarmlessSpec {
        HarmlessSpec {
            n_access_ports,
            n_trunks: 1,
            vlan_base: PortMap::DEFAULT_BASE,
            access_link: LinkSpec::gigabit(),
            trunk_link: LinkSpec::ten_gigabit(),
            cores: 1,
            rx_queue: 4096,
            cost_model: CostModel::default(),
            pipeline_mode: PipelineMode::full(),
            variant: Variant::TwoSwitch,
            legacy_sys_descr: None,
            name_prefix: String::new(),
            ss1_dpid: SS1_DPID,
            ss2_dpid: SS2_DPID,
            uplinks: 0,
        }
    }

    /// Builder-style trunk count.
    pub fn with_trunks(mut self, n: u16) -> Self {
        self.n_trunks = n;
        self
    }

    /// Builder-style variant.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Builder-style pipeline mode.
    pub fn with_pipeline_mode(mut self, m: PipelineMode) -> Self {
        self.pipeline_mode = m;
        self
    }

    /// Builder-style core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style access link override.
    pub fn with_access_link(mut self, l: LinkSpec) -> Self {
        self.access_link = l;
        self
    }

    /// Builder-style node-name prefix (used by the fabric layer to tell
    /// pods apart in traces and panics).
    pub fn with_name_prefix(mut self, p: impl Into<String>) -> Self {
        self.name_prefix = p.into();
        self
    }

    /// Builder-style datapath-id override for SS_1 and SS_2.
    pub fn with_dpids(mut self, ss1: u64, ss2: u64) -> Self {
        self.ss1_dpid = ss1;
        self.ss2_dpid = ss2;
        self
    }

    /// Builder-style fabric uplink count on SS_2.
    pub fn with_uplinks(mut self, n: u16) -> Self {
        self.uplinks = n;
        self
    }

    /// A software switch shaped by this spec (shared by SS_1, SS_2 and
    /// the merged datapath; the fabric layer reuses it for spines).
    pub(crate) fn soft_switch_node(&self, suffix: &str, dpid: u64) -> SoftSwitchNode {
        SoftSwitchNode::new(
            format!("{}{}", self.name_prefix, suffix),
            DpConfig::software(dpid).with_mode(self.pipeline_mode),
            self.cores,
            self.rx_queue,
            self.cost_model,
        )
    }

    /// Instantiate the topology in `net`. The legacy switch starts in its
    /// factory configuration; call
    /// [`HarmlessInstance::configure_legacy_directly`] (or run the
    /// [`crate::manager::HarmlessManager`]) to set up tagging, and
    /// [`HarmlessInstance::install_translator_rules`] for SS_1.
    pub fn build(self, net: &mut Network) -> HarmlessInstance {
        let map =
            PortMap::new(self.vlan_base, self.n_access_ports).expect("spec within VLAN budget");
        let n = self.n_access_ports;
        let t = self.n_trunks;

        let mut legacy = LegacySwitchNode::new(format!("{}legacy", self.name_prefix), n + t);
        if let Some(d) = &self.legacy_sys_descr {
            legacy = legacy.with_sys_descr(d.clone());
        }
        let legacy = net.add_node(legacy);

        match self.variant {
            Variant::TwoSwitch => {
                let mut ss1 = self.soft_switch_node("ss1", self.ss1_dpid);
                for tr in 1..=t {
                    ss1.add_port(u32::from(tr), format!("trunk{tr}"), 10_000_000);
                }
                for p in 1..=n {
                    ss1.add_port(patch_port(p), format!("patch{p}"), 10_000_000);
                }
                let ss1 = net.add_node(ss1);

                let mut ss2 = self.soft_switch_node("ss2", self.ss2_dpid);
                for p in 1..=n {
                    ss2.add_port(u32::from(p), format!("vport{p}"), 1_000_000);
                }
                for u in 1..=self.uplinks {
                    ss2.add_port(u32::from(n + u), format!("fabric{u}"), 10_000_000);
                }
                let ss2 = net.add_node(ss2);

                for tr in 1..=t {
                    net.connect(legacy, PortId(n + tr), ss1, PortId(tr), self.trunk_link);
                }
                for p in 1..=n {
                    net.connect(
                        ss1,
                        PortId(patch_port(p) as u16),
                        ss2,
                        PortId(p),
                        LinkSpec::instant(),
                    );
                }
                HarmlessInstance {
                    spec: self,
                    map,
                    legacy,
                    ss1: Some(ss1),
                    ss2,
                }
            }
            Variant::Merged => {
                // Explicit overrides win; the default maps to the
                // merged variant's own id, not SS_2's.
                let dpid = if self.ss2_dpid == SS2_DPID {
                    MERGED_DPID
                } else {
                    self.ss2_dpid
                };
                let mut ssm = self.soft_switch_node("ssm", dpid);
                for tr in 1..=t {
                    ssm.add_port(u32::from(tr), format!("trunk{tr}"), 10_000_000);
                }
                for u in 1..=self.uplinks {
                    ssm.add_port(u32::from(n + u), format!("fabric{u}"), 10_000_000);
                }
                let ssm = net.add_node(ssm);
                for tr in 1..=t {
                    net.connect(legacy, PortId(n + tr), ssm, PortId(tr), self.trunk_link);
                }
                HarmlessInstance {
                    spec: self,
                    map,
                    legacy,
                    ss1: None,
                    ss2: ssm,
                }
            }
        }
    }
}

/// A built HARMLESS deployment.
pub struct HarmlessInstance {
    /// The spec it was built from.
    pub spec: HarmlessSpec,
    /// The access-port ↔ VLAN map.
    pub map: PortMap,
    /// The legacy switch node.
    pub legacy: NodeId,
    /// The translator switch (absent in the merged variant).
    pub ss1: Option<NodeId>,
    /// The main OpenFlow switch (the merged datapath in `Merged`).
    pub ss2: NodeId,
}

impl HarmlessInstance {
    /// SS_2 (OpenFlow) port number of fabric uplink `k` (1-based).
    /// Uplinks sit directly above the access-port range, so the
    /// controller sees them as ordinary high-numbered ports.
    pub fn uplink_port(&self, k: u16) -> u32 {
        assert!(
            (1..=self.spec.uplinks).contains(&k),
            "pod has {} uplinks, asked for {k}",
            self.spec.uplinks
        );
        u32::from(self.spec.n_access_ports + k)
    }

    /// The legacy-switch port of VLAN `vlan`'s
    /// [`translator::home_trunk`].
    pub fn home_trunk_for(&self, vlan: u16) -> u16 {
        self.spec.n_access_ports + translator::home_trunk(vlan, self.spec.n_trunks)
    }

    /// Configure the legacy switch's VLANs directly (bypassing the SNMP
    /// path — experiments that are not about migration use this).
    pub fn configure_legacy_directly(&self, net: &mut Network) {
        let assignments: Vec<(u16, u16, u16)> = self
            .map
            .iter()
            .map(|(port, vlan)| (port, vlan, self.home_trunk_for(vlan)))
            .collect();
        let legacy = net.node_mut::<LegacySwitchNode>(self.legacy);
        let bridge = legacy.bridge_mut();
        for &(port, vlan, trunk) in &assignments {
            bridge
                .make_access_port(port, vlan)
                .expect("spec-validated config");
            bridge
                .make_trunk_port(trunk, &[vlan])
                .expect("spec-validated config");
        }
    }

    /// Install the translator flow table into SS_1 (or the translation
    /// tables of the merged datapath) via direct dataplane access.
    pub fn install_translator_rules(&self, net: &mut Network) {
        match (self.spec.variant, self.ss1) {
            (Variant::TwoSwitch, Some(ss1)) => {
                let rules = translator::translator_rules(&self.map, self.spec.n_trunks);
                let dp = net.node_mut::<SoftSwitchNode>(ss1).datapath_mut();
                for fm in &rules {
                    dp.apply_flow_mod(fm, 0)
                        .expect("translator rules are valid");
                }
            }
            (Variant::Merged, _) => {
                let dp = net.node_mut::<SoftSwitchNode>(self.ss2).datapath_mut();
                for (port, vlan) in self.map.iter() {
                    for tr in 1..=self.spec.n_trunks {
                        dp.apply_flow_mod(
                            &FlowMod::add(0)
                                .priority(100)
                                .match_(Match::new().in_port(u32::from(tr)).vlan(vlan))
                                .instructions(vec![
                                    Instruction::ApplyActions(vec![Action::PopVlan]),
                                    Instruction::WriteMetadata {
                                        metadata: u64::from(port),
                                        mask: 0xffff,
                                    },
                                    Instruction::GotoTable(1),
                                ]),
                            0,
                        )
                        .expect("translation rules are valid");
                    }
                }
            }
            _ => unreachable!("two-switch always has ss1"),
        }
    }

    /// Point SS_2 at its SDN controller. Must be called before the first
    /// `run_*` so the OpenFlow HELLO goes out at start; the manager path
    /// uses the admin message instead.
    pub fn connect_controller(&self, net: &mut Network, controller: NodeId) {
        net.node_mut::<SoftSwitchNode>(self.ss2)
            .connect_controller(controller);
    }

    /// Merged-variant helper: the table-1 rule forwarding traffic that
    /// entered access port `in_access` out of access port `out_access`.
    /// This is what controller programs must look like without SS_1 —
    /// VLAN-aware and HARMLESS-specific.
    pub fn merged_wiring_rule(&self, in_access: u16, out_access: u16) -> FlowMod {
        let out_vlan = self.map.vlan_of(out_access).expect("valid access port");
        let trunk = u32::from(translator::home_trunk(out_vlan, self.spec.n_trunks));
        FlowMod::add(1)
            .priority(10)
            .match_(Match::new().with(openflow::OxmField::Metadata(
                u64::from(in_access),
                Some(0xffff),
            )))
            .apply(vec![
                Action::PushVlan(0x8100),
                Action::set_vlan_vid(out_vlan),
                Action::output(trunk),
            ])
    }

    /// Attach a host to legacy access port `i` (MAC `host(i)`, IP
    /// `10.0.0.i`).
    ///
    /// # Panics
    /// Panics if `i` is not an access port or `i > 250`.
    pub fn attach_host(&self, net: &mut Network, i: u16) -> NodeId {
        assert!(
            (1..=self.spec.n_access_ports).contains(&i),
            "not an access port: {i}"
        );
        assert!(i <= 250, "host IP scheme supports up to 250 hosts");
        let h = net.add_node(Host::new(
            format!("h{i}"),
            netpkt::MacAddr::host(u32::from(i)),
            std::net::Ipv4Addr::new(10, 0, 0, i as u8),
        ));
        net.connect(h, PortId(0), self.legacy, PortId(i), self.spec.access_link);
        h
    }

    /// Attach an arbitrary node (generator/sink) to access port `i` on
    /// its `port` 0.
    pub fn attach_node(&self, net: &mut Network, i: u16, node: NodeId) {
        assert!(
            (1..=self.spec.n_access_ports).contains(&i),
            "not an access port: {i}"
        );
        net.connect(
            node,
            PortId(0),
            self.legacy,
            PortId(i),
            self.spec.access_link,
        );
    }

    /// End-to-end readiness check used by examples: true once SS_2 has a
    /// controller connection configured — either via
    /// [`Self::connect_controller`] or the manager's admin message.
    pub fn ss2_has_controller(&self, net: &Network) -> bool {
        net.node_ref::<SoftSwitchNode>(self.ss2)
            .controller()
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::apps::{LearningSwitch, StaticForwarder};
    use controller::ControllerNode;
    use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
    use netsim::SimTime;

    #[test]
    fn hosts_ping_through_full_harmless_stack() {
        let mut net = Network::new(42);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(LearningSwitch::new())],
        ));
        let hx = HarmlessSpec::new(4).build(&mut net);
        hx.configure_legacy_directly(&mut net);
        hx.install_translator_rules(&mut net);
        hx.connect_controller(&mut net, ctrl);
        let a = hx.attach_host(&mut net, 1);
        let b = hx.attach_host(&mut net, 2);
        net.run_until(SimTime::from_millis(100));
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"through harmless", "10.0.0.2".parse().unwrap());
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(300));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 1);
        // The controller actually did the work (learning via packet-ins).
        let c = net.node_ref::<ControllerNode>(ctrl);
        assert!(c.packet_ins() > 0, "reactive path must have been exercised");
        assert!(c.flow_mods_sent() > 0);
    }

    #[test]
    fn isolation_without_controller_rules() {
        // With the translator installed but no policy in SS_2 (no
        // table-miss entry), access ports cannot reach each other: the
        // policy plane is authoritative.
        let mut net = Network::new(42);
        let hx = HarmlessSpec::new(4).build(&mut net);
        hx.configure_legacy_directly(&mut net);
        hx.install_translator_rules(&mut net);
        let a = hx.attach_host(&mut net, 1);
        let b = hx.attach_host(&mut net, 2);
        net.node_mut::<Host>(a)
            .ping(b"x", "10.0.0.2".parse().unwrap());
        net.run_until(SimTime::from_millis(200));
        assert_eq!(net.node_ref::<Host>(b).rx_frames(), 0);
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
    }

    #[test]
    fn merged_variant_forwards_with_one_switch() {
        let mut net = Network::new(42);
        let hx = HarmlessSpec::new(4)
            .with_variant(Variant::Merged)
            .build(&mut net);
        assert!(hx.ss1.is_none());
        hx.configure_legacy_directly(&mut net);
        hx.install_translator_rules(&mut net);
        // Wire 1 -> 2 and 2 -> 1 in the merged pipeline.
        {
            let dp = net.node_mut::<SoftSwitchNode>(hx.ss2).datapath_mut();
            dp.apply_flow_mod(&hx.merged_wiring_rule(1, 2), 0).unwrap();
            dp.apply_flow_mod(&hx.merged_wiring_rule(2, 1), 0).unwrap();
        }
        let a = hx.attach_host(&mut net, 1);
        let b = hx.attach_host(&mut net, 2);
        net.node_mut::<Host>(a)
            .ping(b"merged", "10.0.0.2".parse().unwrap());
        net.run_until(SimTime::from_millis(200));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 1);
    }

    #[test]
    fn static_wiring_carries_line_rate_traffic() {
        let mut net = Network::new(7);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(StaticForwarder::bidirectional(&[(1, 2)]))],
        ));
        let hx = HarmlessSpec::new(2).build(&mut net);
        hx.configure_legacy_directly(&mut net);
        hx.install_translator_rules(&mut net);
        hx.connect_controller(&mut net, ctrl);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 50_000.0 },
            vec![FlowSpec::simple(1, 2, 512)],
            SimTime::from_millis(100), // after control plane settles
            SimTime::from_millis(200),
        ));
        let s = net.add_node(Sink::new("sink"));
        hx.attach_node(&mut net, 1, g);
        hx.attach_node(&mut net, 2, s);
        net.run_until(SimTime::from_millis(400));
        let sink = net.node_ref::<Sink>(s);
        assert_eq!(sink.received(), 5_000, "no loss at 50 kpps");
        // Latency through legacy → SS_1 → SS_2 → SS_1 → legacy.
        assert!(
            sink.latency().p50() > 8_000,
            "p50={}ns",
            sink.latency().p50()
        );
        assert!(
            sink.latency().p50() < 50_000,
            "p50={}ns",
            sink.latency().p50()
        );
    }

    #[test]
    fn trunk_numbering() {
        let mut net = Network::new(1);
        let hx = HarmlessSpec::new(8).with_trunks(2).build(&mut net);
        // The trunks sit right above the 8 access ports of the legacy
        // switch, and the VLANs spread over both.
        assert_eq!(hx.home_trunk_for(102), 9);
        assert_eq!(hx.home_trunk_for(101), 10);
    }

    #[test]
    fn merged_and_two_switch_dpids_stay_distinct() {
        let mut net = Network::new(1);
        let two = HarmlessSpec::new(2).build(&mut net);
        let merged = HarmlessSpec::new(2)
            .with_variant(Variant::Merged)
            .build(&mut net);
        let d_two = net
            .node_ref::<SoftSwitchNode>(two.ss2)
            .datapath()
            .datapath_id();
        let d_merged = net
            .node_ref::<SoftSwitchNode>(merged.ss2)
            .datapath()
            .datapath_id();
        assert_eq!(d_two, SS2_DPID);
        assert_eq!(d_merged, MERGED_DPID);
        // An explicit override still wins.
        let custom = HarmlessSpec::new(2)
            .with_variant(Variant::Merged)
            .with_dpids(0x9991, 0x9992)
            .build(&mut net);
        assert_eq!(
            net.node_ref::<SoftSwitchNode>(custom.ss2)
                .datapath()
                .datapath_id(),
            0x9992
        );
    }

    #[test]
    fn ss2_has_controller_reflects_configuration() {
        let mut net = Network::new(1);
        let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
        let hx = HarmlessSpec::new(2).build(&mut net);
        assert!(!hx.ss2_has_controller(&net));
        hx.connect_controller(&mut net, ctrl);
        assert!(hx.ss2_has_controller(&net));
    }

    #[test]
    #[should_panic(expected = "not an access port")]
    fn attach_host_validates_port() {
        let mut net = Network::new(1);
        let hx = HarmlessSpec::new(4).build(&mut net);
        hx.attach_host(&mut net, 5);
    }
}
