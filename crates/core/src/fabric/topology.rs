//! Building the network a [`FabricSpec`] describes, and the [`Fabric`]
//! handle with everything that depends on the topology alone.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use legacy_switch::LegacySwitchNode;
use netpkt::MacAddr;
use netsim::{LinkSpec, Network, NodeId, PortId, ShardMap};
use softswitch::{NatConfig, SoftSwitchNode};

use super::attach::Attachment;
use super::spec::*;
use crate::instance::HarmlessInstance;
use crate::manager::{HarmlessManager, ManagerConfig, ManagerPhase};

impl FabricSpec {
    /// Instantiate the fabric in `net`: build every pod, add the uplink
    /// ports, and wire the interconnect. Hosts, direct configuration,
    /// controller connections and migration waves are driven off the
    /// returned [`Fabric`].
    pub fn build(self, net: &mut Network) -> Result<Fabric, FabricError> {
        self.validate()?;
        // A pinned `pod.uplinks` passed validation, so it equals this.
        let uplinks = self.required_uplinks();
        let mut pods = Vec::with_capacity(usize::from(self.n_pods));
        for p in 0..self.n_pods {
            let mut spec = self.pod.clone().with_uplinks(uplinks);
            if self.n_pods > 1 {
                // Per-pod identities; the single-pod fabric keeps the
                // classic names/dpids so it is a drop-in for the
                // standalone instance.
                spec = spec
                    .with_name_prefix(format!("{}pod{p}/", self.pod.name_prefix))
                    .with_dpids(
                        POD_SS1_DPID_BASE + u64::from(p),
                        POD_SS2_DPID_BASE + u64::from(p),
                    );
            }
            pods.push(spec.build(net));
        }
        let link = LinkSpec::ten_gigabit();
        let spine = match self.interconnect {
            Interconnect::None => None,
            Interconnect::Line => {
                for p in 1..pods.len() {
                    net.connect(
                        pods[p - 1].ss2,
                        PortId(self.uplink(p - 1, p)),
                        pods[p].ss2,
                        PortId(self.uplink(p, p - 1)),
                        link,
                    );
                }
                None
            }
            Interconnect::SpineSoft => {
                let mut spine = self
                    .pod
                    .clone()
                    .with_name_prefix(String::new())
                    .soft_switch_node("spine", SPINE_DPID);
                for p in 1..=self.n_pods {
                    spine.add_port(u32::from(p), format!("pod{}", p - 1), 10_000_000);
                }
                Some(Spine::Soft(net.add_node(spine)))
            }
            Interconnect::SpineLegacy => Some(Spine::Legacy(
                net.add_node(LegacySwitchNode::new("spine", self.n_pods)),
            )),
        };
        if let Some(spine) = spine {
            for (p, pod) in pods.iter().enumerate() {
                let (down, up) = (spine_port(p), self.uplink(p, p));
                net.connect(spine.node(), PortId(down as u16), pod.ss2, PortId(up), link);
            }
        }
        if self.l3_routing {
            // Router MAC/IP (for ICMP errors) and the gateway's NAT
            // table are persistent switch configuration: set once.
            for (p, pod) in pods.iter().enumerate() {
                let dp = net.node_mut::<SoftSwitchNode>(pod.ss2).datapath_mut();
                dp.set_router(router_ip(p), router_mac(p));
                if let Some(gw) = self.gateway.filter(|g| g.pod == p) {
                    dp.configure_nat(NatConfig::new(gw.external_ip));
                }
            }
            if let Some(Spine::Soft(s)) = spine {
                net.node_mut::<SoftSwitchNode>(s)
                    .datapath_mut()
                    .set_router(SPINE_ROUTER_IP, SPINE_ROUTER_MAC);
            }
        }
        Ok(Fabric {
            spec: self,
            pods,
            spine,
            attached: BTreeMap::new(),
            away: BTreeSet::new(),
            controllers: Vec::new(),
        })
    }
}

/// The spine port facing pod `pod` (ports are 1-based, pods 0-based).
pub(super) fn spine_port(pod: usize) -> u32 {
    pod as u32 + 1
}

/// The fabric's interconnect switch, when it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spine {
    /// A software-switch spine (one more datapath of the controller).
    Soft(NodeId),
    /// A legacy Ethernet spine (self-learning, controller-free).
    Legacy(NodeId),
}

impl Spine {
    /// The spine's simulator node.
    pub fn node(&self) -> NodeId {
        match self {
            Spine::Soft(n) | Spine::Legacy(n) => *n,
        }
    }
}

/// A built multi-pod HARMLESS fabric.
pub struct Fabric {
    /// The spec it was built from.
    pub spec: FabricSpec,
    pub(super) pods: Vec<HarmlessInstance>,
    pub(super) spine: Option<Spine>,
    /// The attachment table: the single source of truth for everything
    /// a controller is told.
    pub(super) attached: BTreeMap<(usize, u16), Attachment>,
    /// MACs of the access ports whose identity is attached somewhere
    /// else: it left with a migrated host. Such a port takes no new
    /// station until that host is detached (or moves back).
    pub(super) away: BTreeSet<MacAddr>,
    /// Every controller fed from the table: the primary, then standbys.
    pub(super) controllers: Vec<NodeId>,
}

impl Fabric {
    /// Number of pods.
    pub fn n_pods(&self) -> usize {
        self.pods.len()
    }

    /// Handle of pod `i`; panics if `i` is out of range.
    pub fn pod(&self, i: usize) -> &HarmlessInstance {
        &self.pods[i]
    }

    /// Iterate over all pods.
    pub fn pods(&self) -> impl Iterator<Item = &HarmlessInstance> {
        self.pods.iter()
    }

    /// The interconnect switch, if the fabric has one.
    pub fn spine(&self) -> Option<Spine> {
        self.spine
    }

    pub(super) fn check_pod(&self, pod: usize) -> Result<&HarmlessInstance, FabricError> {
        self.pods.get(pod).ok_or(FabricError::NoSuchPod {
            pod,
            n_pods: self.pods.len(),
        })
    }

    pub(super) fn check_access(&self, pod: usize, port: u16) -> Result<(), FabricError> {
        let px = self.check_pod(pod)?;
        if !(1..=px.spec.n_access_ports).contains(&port) {
            return Err(FabricError::NotAnAccessPort { pod, port });
        }
        Ok(())
    }

    /// Fabric-wide IPv4 address of the host on `(pod, port)`:
    /// `10.<pod>.<(port-1)/250>.<1+(port-1)%250>`. Pod 0 matches the
    /// classic single-instance `10.0.0.<port>` scheme for the first 250
    /// ports.
    ///
    /// # Panics
    /// Panics on a pod index or access port this fabric does not have —
    /// silently aliasing a neighbouring host's address would be worse.
    pub fn host_ip(&self, pod: usize, port: u16) -> Ipv4Addr {
        self.check_access(pod, port)
            .expect("host_ip of an existing (pod, access port)");
        let i = u32::from(port) - 1;
        Ipv4Addr::new(10, pod as u8, (i / 250) as u8, (1 + i % 250) as u8)
    }

    /// Fabric-wide MAC address of the host on `(pod, port)` — the pod
    /// index in the third-lowest octet keeps MACs unique across pods
    /// while pod 0 matches the classic `MacAddr::host(port)` scheme.
    ///
    /// # Panics
    /// Panics on a pod index or access port this fabric does not have.
    pub fn host_mac(&self, pod: usize, port: u16) -> MacAddr {
        self.check_access(pod, port)
            .expect("host_mac of an existing (pod, access port)");
        MacAddr::host((pod as u32) << 16 | u32::from(port))
    }

    /// The natural [`ShardMap`] of this fabric for the sharded event
    /// engine (`Network::set_shards`): pod `p`'s switches and attached
    /// stations go to shard `p + 1`; shard 0 — the *system shard* — keeps
    /// everything else (the spine, the controller, managers and any node
    /// this fabric does not know about). Uplinks and the control channel
    /// are then the only cross-shard edges, so the engine's lookahead is
    /// `min(uplink delay, ctrl delay)`.
    ///
    /// Call after all hosts are attached; nodes attached later default to
    /// shard 0, which is correct for management nodes but serializes
    /// data-plane traffic of late-attached stations.
    pub fn shard_map(&self) -> ShardMap {
        let mut map = ShardMap::new(self.pods.len() + 1);
        for (p, pod) in self.pods.iter().enumerate() {
            map.assign(pod.legacy, p + 1);
            if let Some(ss1) = pod.ss1 {
                map.assign(ss1, p + 1);
            }
            map.assign(pod.ss2, p + 1);
        }
        for (&(pod, _port), a) in &self.attached {
            map.assign(a.node, pod + 1);
        }
        map
    }

    /// Configure every pod through the direct (non-SNMP) path: legacy
    /// VLAN tagging plus translator rules. Experiments that are not
    /// about migration call this once instead of running managers.
    pub fn configure_direct(&self, net: &mut Network) {
        for pod in &self.pods {
            pod.configure_legacy_directly(net);
            pod.install_translator_rules(net);
        }
    }

    /// Run `f` over every software switch of the fabric — each pod's SS_2
    /// and the soft spine, if present — e.g. to tune resilience knobs
    /// (fail mode, keepalive cadence, reconnect backoff) after the build.
    pub fn for_each_softswitch(&self, net: &mut Network, mut f: impl FnMut(&mut SoftSwitchNode)) {
        for pod in &self.pods {
            f(net.node_mut::<SoftSwitchNode>(pod.ss2));
        }
        if let Some(Spine::Soft(spine)) = self.spine {
            f(net.node_mut::<SoftSwitchNode>(spine));
        }
    }

    /// True once every pod's SS_2 has a controller configured.
    pub fn all_pods_connected(&self, net: &Network) -> bool {
        self.pods.iter().all(|p| p.ss2_has_controller(net))
    }

    /// Launch one [`HarmlessManager`] per listed pod, migrating those
    /// pods to SDN control over the live management plane (SNMP
    /// configure + verify, translator install, controller hookup).
    /// Returns the manager nodes, in `pods` order; poll them with
    /// [`Self::wave_done`]. Callable mid-run (managers start with the
    /// next processed event), which is what makes staged waves possible.
    pub fn run_migration_wave(
        &self,
        net: &mut Network,
        pods: &[usize],
        controller: NodeId,
    ) -> Result<Vec<NodeId>, FabricError> {
        let mut managers = Vec::with_capacity(pods.len());
        for &p in pods {
            let pod = self.check_pod(p)?;
            if pod.ss1.is_none() {
                return Err(FabricError::MergedVariant);
            }
            let cfg = ManagerConfig::for_instance(pod, controller);
            managers.push(net.add_node(HarmlessManager::new(cfg)));
        }
        Ok(managers)
    }

    /// True once every manager of a wave reports [`ManagerPhase::Done`].
    pub fn wave_done(&self, net: &Network, managers: &[NodeId]) -> bool {
        managers
            .iter()
            .all(|&m| *net.node_ref::<HarmlessManager>(m).phase() == ManagerPhase::Done)
    }
}
