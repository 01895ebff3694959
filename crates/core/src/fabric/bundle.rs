//! Measurement-side derivations over the attachment table: the
//! flow-level bundle of a station pair and per-pod rollups.

use std::sync::Arc;

use bytes::Bytes;
use netpkt::vlan::{push_vlan, VlanTag};
use netsim::flowsim::{FlowBundleSpec, FlowHop};
use netsim::stats::Rollup;
use netsim::traffic::{Generator, Sink};
use netsim::{Network, NodeId, PortId};

use super::spec::Interconnect;
use super::topology::{spine_port, Spine};
use super::Fabric;
use crate::translator::patch_port;

/// One hop of a bundle: frames enter `node` on `in_port`.
fn hop(node: NodeId, in_port: u16, probe: Option<Arc<[Bytes]>>) -> FlowHop {
    FlowHop {
        node,
        in_port: PortId(in_port),
        probe,
    }
}

impl Fabric {
    /// The promotable flow-level bundle of a station pair: the ordered
    /// hops frames traverse from the [`Generator`] at `src = (pod,
    /// port)` to the [`Sink`] at `dst`, cache-residency probes for
    /// every hop whose ingress frames are reconstructible, and one
    /// endpoint per link on the path — everything
    /// [`netsim::flowsim::FlowSim::add_bundle`] needs.
    ///
    /// Probes are the generator's [`Generator::probe_frame`] templates:
    /// VLAN-tagged with the source port's access VLAN at the source
    /// SS_1 (that is what the legacy switch puts on the trunk),
    /// untagged at the source SS_2. Past the source pod the frames stay
    /// byte-identical only without `FabricSpec::with_l3_routing` —
    /// per-hop L3 rewrites (MAC re-addressing, TTL) make downstream
    /// ingress frames non-reconstructible, so those hops carry no probe
    /// and are gated by their quiescence counters alone. Legacy
    /// switches never carry probes (no flow cache to probe).
    ///
    /// # Panics
    /// Panics if either end is not an existing access port with an
    /// attached node, if the generator at `src` is not a
    /// [`Generator`], or on a `Variant::Merged` pod — bundles assume
    /// the paper's two-switch data path.
    pub fn flow_bundle(
        &self,
        net: &Network,
        src: (usize, u16),
        dst: (usize, u16),
    ) -> FlowBundleSpec {
        let (sp, spt) = src;
        let (dp, dpt) = dst;
        let generator = self
            .attached_node(sp, spt)
            .expect("flow_bundle src has an attached generator");
        let sink = self
            .attached_node(dp, dpt)
            .expect("flow_bundle dst has an attached sink");
        let spod = &self.pods[sp];
        let dpod = &self.pods[dp];
        let src_ss1 = spod.ss1.expect("flow bundles need the two-switch variant");
        let dst_ss1 = dpod.ss1.expect("flow bundles need the two-switch variant");
        let gen = net.node_ref::<Generator>(generator);
        let untagged: Arc<[_]> = (0..gen.flows().len()).map(|i| gen.probe_frame(i)).collect();
        let vlan_src = spod.map.vlan_of(spt).expect("access port has a VLAN");
        let vlan_dst = dpod.map.vlan_of(dpt).expect("access port has a VLAN");
        let tagged: Arc<[_]> = untagged
            .iter()
            .map(|f| push_vlan(f, VlanTag::new(vlan_src)).expect("probe frames are well-formed"))
            .collect();
        // Downstream of the source pod, probes exist only while frames
        // stay byte-identical (no L3 rewrites).
        let downstream = || (!self.spec.l3_routing).then(|| untagged.clone());
        let n = self.spec.pod.n_access_ports;
        let t = self.spec.pod.n_trunks;
        let tr_src = 1 + (vlan_src % t);
        let tr_dst = 1 + (vlan_dst % t);
        let mut hops = vec![
            hop(spod.legacy, spt, None),
            hop(src_ss1, tr_src, Some(tagged)),
            hop(spod.ss2, spt, Some(untagged.clone())),
        ];
        let mut links = vec![
            (generator, PortId(0)),
            (spod.legacy, PortId(n + tr_src)),
            (spod.ss2, PortId(spt)),
        ];
        if sp != dp {
            match self.spec.interconnect {
                Interconnect::None => {
                    unreachable!("multi-pod fabrics always have an interconnect")
                }
                Interconnect::Line => {
                    // Transit pods route the frame onward; it arrives on
                    // the uplink facing the source side.
                    let mut p = sp;
                    while p != dp {
                        p = if dp > sp { p + 1 } else { p - 1 };
                        hops.push(hop(self.pods[p].ss2, self.spec.uplink(p, sp), downstream()));
                    }
                    for p in sp.min(dp)..sp.max(dp) {
                        links.push((self.pods[p].ss2, PortId(self.spec.uplink(p, p + 1))));
                    }
                }
                Interconnect::SpineSoft | Interconnect::SpineLegacy => {
                    let spine = self.spine.expect("spine interconnects build a spine");
                    let probe = match spine {
                        Spine::Soft(_) => downstream(),
                        Spine::Legacy(_) => None,
                    };
                    let (up, down) = (self.spec.uplink(sp, dp), self.spec.uplink(dp, sp));
                    hops.push(hop(spine.node(), spine_port(sp) as u16, probe));
                    hops.push(hop(dpod.ss2, down, downstream()));
                    links.push((spod.ss2, PortId(up)));
                    links.push((dpod.ss2, PortId(down)));
                }
            }
        }
        hops.push(hop(dst_ss1, patch_port(dpt) as u16, downstream()));
        hops.push(hop(dpod.legacy, n + tr_dst, None));
        links.push((dpod.ss2, PortId(dpt)));
        links.push((dpod.legacy, PortId(n + tr_dst)));
        links.push((sink, PortId(0)));
        FlowBundleSpec {
            generator,
            sink,
            hops,
            links,
        }
    }

    /// Aggregate measurement rollup of pod `pod`: every attached
    /// [`Sink`]'s frames, bytes and latency folded into one [`Rollup`].
    /// Flow-level engine counters are per-driver, not per-pod — fold
    /// them in with [`netsim::flowsim::HybridStats::roll_into`].
    pub fn pod_rollup(&self, net: &Network, pod: usize) -> Rollup {
        let mut r = Rollup::new();
        for (&(p, _port), a) in &self.attached {
            if p == pod {
                if let Some(sink) = net.try_node_ref::<Sink>(a.node) {
                    sink.roll_into(&mut r);
                }
            }
        }
        r
    }
}
