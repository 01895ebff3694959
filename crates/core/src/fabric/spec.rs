//! What a fabric *is*, before anything is built: the addressing plan,
//! the interconnect and gateway choices, [`FabricSpec`] and its errors.

use std::net::Ipv4Addr;

use netpkt::MacAddr;

#[cfg(doc)]
use super::Fabric;
use crate::instance::{HarmlessSpec, Variant};
use crate::portmap::{PortMap, PortMapError};
#[cfg(doc)]
use controller::apps::{ArpProxy, Router};

/// Datapath id of a software spine switch.
pub const SPINE_DPID: u64 = 0x5F;
/// Base datapath id of per-pod translator switches (`0x5100 + pod`).
pub const POD_SS1_DPID_BASE: u64 = 0x5100;
/// Base datapath id of per-pod main switches (`0x5200 + pod`).
pub const POD_SS2_DPID_BASE: u64 = 0x5200;
/// Pod count ceiling — the host addressing scheme spends one IPv4 octet
/// on the pod index and reserves `10.200.0.0/13` for service addresses
/// (VIPs and the like).
pub const MAX_PODS: u16 = 200;

/// MAC identity of the soft spine's routing stage in L3 mode.
pub const SPINE_ROUTER_MAC: MacAddr = MacAddr::host(0x4e00_ff00);
/// IPv4 identity of the soft spine's routing stage (service space) —
/// the source address of its ICMP time-exceeded replies.
pub const SPINE_ROUTER_IP: Ipv4Addr = Ipv4Addr::new(10, 200, 255, 254);
/// MAC of the upstream "internet" host a gateway pod NATs toward.
pub const INTERNET_MAC: MacAddr = MacAddr::host(0x4e01_0001);

/// MAC identity of pod `p`'s routing stage — the `eth_src` of every
/// frame it routes and the `eth_dst` next hops address it by. Disjoint
/// from the host MAC space ([`Fabric::host_mac`] third-lowest octet
/// caps at [`MAX_PODS`]).
pub fn router_mac(pod: usize) -> MacAddr {
    MacAddr::host(0x4e00_0000 + pod as u32)
}

/// IPv4 identity of pod `p`'s routing stage — the source address of
/// its ICMP time-exceeded replies. Lives in the pod's own `/16`, past
/// any address [`Fabric::host_ip`] can produce.
pub fn router_ip(pod: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, pod as u8, 255, 254)
}

/// How the pods' SS_2 uplinks are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// No interconnect: a standalone pod (single-pod fabrics only).
    None,
    /// A chain: pod `i` ↔ pod `i+1`. Two uplink ports per pod; frames
    /// between distant pods transit the SS_2 of every pod in between.
    Line,
    /// Leaf–spine over a dedicated spine `SoftSwitchNode` — the spine is
    /// one more datapath of the fabric's controller (connect it with
    /// [`Fabric::connect_controller`] or [`Fabric::register_controller`]).
    SpineSoft,
    /// Leaf–spine over a plain legacy/COTS Ethernet switch in factory
    /// configuration — a flat learning bridge, no controller needed.
    /// This is the cheapest interconnect the cost model allows.
    SpineLegacy,
}

/// Where a fabric meets the internet: one pod hosts the NAT gateway.
///
/// Egress traffic from every pod follows the default route to
/// `pod`, is source-NATted behind `external_ip`
/// ([`softswitch::NatTable`] on the gateway's SS_2), and leaves
/// through access port `port` — where [`Fabric::attach_internet`]
/// places the upstream host answering as `internet_ip`. Return
/// traffic addressed to `external_ip` is reverse-translated at the
/// gateway before routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewaySpec {
    /// The pod whose SS_2 runs the NAT stage.
    pub pod: usize,
    /// Gateway-pod access port the upstream host occupies.
    pub port: u16,
    /// The NAT's public face — what egress flows are translated to.
    pub external_ip: Ipv4Addr,
    /// Address of the upstream host (what internal hosts dial).
    pub internet_ip: Ipv4Addr,
}

impl GatewaySpec {
    /// A gateway at `(pod, port)` with the default `198.18.0.0/24`
    /// (RFC 2544 benchmarking space) upstream addressing.
    pub fn new(pod: usize, port: u16) -> GatewaySpec {
        GatewaySpec {
            pod,
            port,
            external_ip: Ipv4Addr::new(198, 18, 0, 254),
            internet_ip: Ipv4Addr::new(198, 18, 0, 1),
        }
    }
}

/// Errors validating or using a [`FabricSpec`] / [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// A fabric needs at least one pod.
    NoPods,
    /// More pods than the addressing scheme supports.
    TooManyPods {
        /// The [`MAX_PODS`] ceiling.
        max: u16,
        /// What the spec asked for.
        got: u16,
    },
    /// A multi-pod fabric needs an interconnect other than
    /// [`Interconnect::None`].
    MissingInterconnect,
    /// The merged single-datapath variant has no clean uplink port space
    /// and cannot be manager-migrated; fabrics of more than one pod
    /// require [`Variant::TwoSwitch`] pods.
    MergedVariant,
    /// The pod spec pins an uplink count that disagrees with what the
    /// chosen interconnect wires (leave `HarmlessSpec::uplinks` at 0 to
    /// let the fabric pick).
    UplinkMismatch {
        /// Uplinks the interconnect needs per pod.
        expected: u16,
        /// Uplinks the pod spec pinned.
        got: u16,
    },
    /// Pod index out of range.
    NoSuchPod {
        /// The requested pod.
        pod: usize,
        /// How many pods the fabric has.
        n_pods: usize,
    },
    /// The port is not a managed access port of that pod.
    NotAnAccessPort {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// Something is already attached to that `(pod, port)`.
    DuplicateHostPort {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// The identity of that free `(pod, port)` left with a host that
    /// migrated away and is still attached elsewhere.
    IdentityInUse {
        /// Pod index.
        pod: usize,
        /// The vacated port.
        port: u16,
    },
    /// Detach/migrate of a `(pod, port)` with no host attached.
    NothingAttached {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// The per-pod port map does not fit the VLAN budget.
    PortMap(PortMapError),
    /// Per-prefix routing needs the ARP proxy: something must answer
    /// who-has for hosts the first hop no longer floods toward.
    L3NeedsArpProxy,
    /// A NAT gateway only makes sense on a routed fabric.
    GatewayNeedsL3,
    /// [`Fabric::attach_internet`] on a spec without a gateway.
    NoGateway,
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricError::NoPods => write!(f, "a fabric needs at least one pod"),
            FabricError::TooManyPods { max, got } => {
                write!(f, "at most {max} pods are addressable, spec has {got}")
            }
            FabricError::MissingInterconnect => {
                write!(f, "a multi-pod fabric needs an interconnect")
            }
            FabricError::MergedVariant => {
                write!(f, "merged-variant pods cannot join a fabric interconnect")
            }
            FabricError::UplinkMismatch { expected, got } => {
                write!(
                    f,
                    "interconnect needs {expected} uplink(s) per pod, pod spec pins {got}"
                )
            }
            FabricError::NoSuchPod { pod, n_pods } => {
                write!(f, "pod {pod} out of range (fabric has {n_pods})")
            }
            FabricError::NotAnAccessPort { pod, port } => {
                write!(f, "port {port} is not an access port of pod {pod}")
            }
            FabricError::DuplicateHostPort { pod, port } => {
                write!(f, "pod {pod} port {port} already has a host attached")
            }
            FabricError::IdentityInUse { pod, port } => {
                write!(
                    f,
                    "the identity of pod {pod} port {port} is still carried by a migrated host"
                )
            }
            FabricError::NothingAttached { pod, port } => {
                write!(f, "pod {pod} port {port} has no host attached")
            }
            FabricError::PortMap(e) => write!(f, "pod port map invalid: {e}"),
            FabricError::L3NeedsArpProxy => {
                write!(f, "l3_routing requires arp_proxy (who answers who-has?)")
            }
            FabricError::GatewayNeedsL3 => {
                write!(f, "a NAT gateway requires l3_routing")
            }
            FabricError::NoGateway => {
                write!(f, "attach_internet needs FabricSpec::gateway")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// A declarative description of a multi-pod HARMLESS fabric.
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// Number of pods.
    pub n_pods: u16,
    /// Template for every pod (name prefixes and datapath ids are
    /// assigned per pod by the builder).
    pub pod: HarmlessSpec,
    /// How the pods are joined.
    pub interconnect: Interconnect,
    /// Contain round-1 ARP floods with a controller-side proxy: when
    /// set, every attachment's identity and location is fed to the
    /// [`ArpProxy`] app of each fabric controller, which answers who-has
    /// punts at the pod edge and installs proactive `eth_dst` routes —
    /// O(hosts) round-1 packet-ins instead of O(hosts²). Every
    /// controller wired to the fabric must then chain an [`ArpProxy`]
    /// (before any learning app).
    pub arp_proxy: bool,
    /// Route between pods instead of bridging them: the controller's
    /// [`Router`] app installs per-prefix rules (one `/16` per remote
    /// pod, `/32`s only for the *local* pod's hosts) so inter-pod rule
    /// state is O(pods), not O(hosts), per datapath. Requires
    /// [`FabricSpec::arp_proxy`] (the proxy still answers who-has with
    /// the target's real MAC; per-host `eth_dst` routes shrink to the
    /// home pod). The controller must chain a [`Router`] app; a
    /// learning app must *not* be chained — a router drops what it has
    /// no route for, it does not flood.
    pub l3_routing: bool,
    /// NAT'd internet egress through one gateway pod (implies nothing
    /// by itself — see [`GatewaySpec`]; requires `l3_routing`).
    pub gateway: Option<GatewaySpec>,
}

impl FabricSpec {
    /// A fabric of `n_pods` copies of `pod`, joined by a legacy spine
    /// (override with [`Self::with_interconnect`]).
    pub fn new(n_pods: u16, pod: HarmlessSpec) -> FabricSpec {
        FabricSpec {
            n_pods,
            pod,
            interconnect: if n_pods <= 1 {
                Interconnect::None
            } else {
                Interconnect::SpineLegacy
            },
            arp_proxy: false,
            l3_routing: false,
            gateway: None,
        }
    }

    /// The single-pod fabric: exactly the paper's Fig. 1, with the same
    /// node names, datapath ids and host addressing the standalone
    /// [`HarmlessSpec::build`] produces.
    pub fn single(pod: HarmlessSpec) -> FabricSpec {
        FabricSpec::new(1, pod)
    }

    /// Builder-style interconnect selection.
    pub fn with_interconnect(mut self, i: Interconnect) -> Self {
        self.interconnect = i;
        self
    }

    /// Builder-style ARP-proxy flood containment (see
    /// [`FabricSpec::arp_proxy`]).
    pub fn with_arp_proxy(mut self, on: bool) -> Self {
        self.arp_proxy = on;
        self
    }

    /// Builder-style per-prefix routing (see [`FabricSpec::l3_routing`]);
    /// also turns the ARP proxy on — routing depends on it.
    pub fn with_l3_routing(mut self) -> Self {
        self.l3_routing = true;
        self.arp_proxy = true;
        self
    }

    /// Builder-style NAT gateway (see [`GatewaySpec`]); implies
    /// [`FabricSpec::with_l3_routing`].
    pub fn with_gateway(mut self, gw: GatewaySpec) -> Self {
        self.gateway = Some(gw);
        self.with_l3_routing()
    }

    /// SS_2 port of the uplink that carries pod `from`'s traffic toward
    /// pod `to`. Uplinks sit directly above the access ports: uplink 1
    /// faces the spine, or the next-higher pod of a
    /// [`Interconnect::Line`]; only a line's lower-numbered pods sit
    /// behind uplink 2 (so on a spine any `to` names the one uplink).
    pub(super) fn uplink(&self, from: usize, to: usize) -> u16 {
        let down_the_line = self.interconnect == Interconnect::Line && to < from;
        self.pod.n_access_ports + if down_the_line { 2 } else { 1 }
    }

    /// Uplink ports per pod the chosen interconnect wires.
    pub(super) fn required_uplinks(&self) -> u16 {
        match self.interconnect {
            Interconnect::Line if self.n_pods > 1 => 2,
            Interconnect::None | Interconnect::Line => 0,
            Interconnect::SpineSoft | Interconnect::SpineLegacy => 1,
        }
    }

    /// Check the spec without building anything.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.n_pods == 0 {
            return Err(FabricError::NoPods);
        }
        if self.n_pods > MAX_PODS {
            return Err(FabricError::TooManyPods {
                max: MAX_PODS,
                got: self.n_pods,
            });
        }
        if self.n_pods > 1 && self.interconnect == Interconnect::None {
            return Err(FabricError::MissingInterconnect);
        }
        if self.n_pods > 1 && self.pod.variant == Variant::Merged {
            return Err(FabricError::MergedVariant);
        }
        let required = self.required_uplinks();
        if self.pod.uplinks != 0 && self.pod.uplinks != required {
            return Err(FabricError::UplinkMismatch {
                expected: required,
                got: self.pod.uplinks,
            });
        }
        if self.l3_routing && !self.arp_proxy {
            return Err(FabricError::L3NeedsArpProxy);
        }
        if let Some(gw) = self.gateway {
            if !self.l3_routing {
                return Err(FabricError::GatewayNeedsL3);
            }
            if gw.pod >= usize::from(self.n_pods) {
                return Err(FabricError::NoSuchPod {
                    pod: gw.pod,
                    n_pods: usize::from(self.n_pods),
                });
            }
            if !(1..=self.pod.n_access_ports).contains(&gw.port) {
                return Err(FabricError::NotAnAccessPort {
                    pod: gw.pod,
                    port: gw.port,
                });
            }
        }
        PortMap::new(self.pod.vlan_base, self.pod.n_access_ports).map_err(FabricError::PortMap)?;
        Ok(())
    }
}
