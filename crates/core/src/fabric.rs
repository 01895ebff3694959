//! Declarative multi-pod fabric construction — HARMLESS at *network*
//! scale.
//!
//! The paper retrofits one legacy switch at a time; the interesting
//! hybrid-SDN questions (partial deployment, per-pod migration waves,
//! traffic crossing the SDN/legacy boundary) only appear when many such
//! retrofits compose into one network. A [`FabricSpec`] describes that
//! network declaratively:
//!
//! * **N pods**, each the classic HARMLESS unit built by
//!   [`HarmlessSpec`] — a legacy access switch, the translator SS_1 and
//!   the main OpenFlow switch SS_2;
//! * an **interconnect** joining the pods' SS_2 uplink ports: a
//!   [`Interconnect::Line`] chain, a software-switch spine
//!   ([`Interconnect::SpineSoft`]), or a plain legacy/COTS Ethernet
//!   spine ([`Interconnect::SpineLegacy`]);
//! * **hosts** attached per `(pod, access port)` with globally unique
//!   MAC/IP identities ([`Fabric::attach_host`]);
//! * **one controller** for the whole fabric
//!   ([`Fabric::connect_controller`]) — every SS_2 (and a soft spine) is
//!   a separate datapath of the same controller node, so dpid-keyed apps
//!   such as the learning switch converge across pods;
//! * **migration waves** ([`Fabric::run_migration_wave`]): one
//!   [`HarmlessManager`] per pod drives the SNMP/OpenFlow migration of a
//!   subset of pods while the rest stay legacy.
//!
//! The single-pod path is [`FabricSpec::single`], which builds exactly
//! the topology `HarmlessSpec::build` always built — the fabric layer is
//! a superset, not a replacement, of the paper's Fig. 1.
//!
//! Pods are also the natural *shard boundary* of the simulator — only
//! inter-pod frames cross an uplink — see [`Fabric::shard_map`].
//!
//! # What controllers know: one table, one feed
//!
//! Which identity sits behind which port is the state everything else
//! hangs off, so it lives in one place and has one way out:
//!
//! ```text
//!  attach_* / detach_host / migrate_host
//!        ▼
//!  attachment table   (pod, port) → { node, kind, (ip, mac) captured at attach }
//!        ▼   pure derivation: reads spec, pods and the table, never the Network
//!  HostRoute per identity; RouterConfig per datapath on L3 fabrics
//!        ▼   one feed function, the only caller of ArpProxy::add_host /
//!        ▼   remove_host and Router::set_config in this module
//!  every listed controller alike, primary first, then ControllerNode::sync_now
//! ```
//!
//! A controller that joins late (a primary wired after the hosts, a
//! warm standby) is seeded by the same function replayed over the whole
//! table: in whatever order attachments and controllers arrive, every
//! controller holds the same picture, so a promoted standby rebuilds
//! the byte-exact fault-free rule set.
//!
//! ```
//! use harmless::fabric::{FabricSpec, Interconnect};
//! use harmless::instance::HarmlessSpec;
//! use netsim::host::Host;
//! use netsim::{Network, SimTime};
//!
//! let mut net = Network::new(7);
//! let ctrl = net.add_node(controller::ControllerNode::new(
//!     "ctrl",
//!     vec![Box::new(controller::apps::LearningSwitch::new())],
//! ));
//! // Two 2-port pods joined by a legacy spine.
//! let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
//!     .with_interconnect(Interconnect::SpineLegacy)
//!     .build(&mut net)
//!     .unwrap();
//! fx.configure_direct(&mut net);
//! fx.connect_controller(&mut net, ctrl);
//! let a = fx.attach_host(&mut net, 0, 1).unwrap();
//! let b = fx.attach_host(&mut net, 1, 1).unwrap();
//! net.run_until(SimTime::from_millis(100));
//! let b_ip = fx.host_ip(1, 1);
//! net.with_node_ctx::<Host, _>(a, |h, ctx| {
//!     h.ping(b"cross-pod", b_ip);
//!     h.flush(ctx);
//! });
//! net.run_until(SimTime::from_millis(500));
//! assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
//! # let _ = b;
//! ```
//!
//! [`HarmlessSpec`]: crate::instance::HarmlessSpec
//! [`HarmlessManager`]: crate::manager::HarmlessManager

mod attach;
mod bundle;
mod feed;
mod routes;
mod spec;
mod topology;

pub use spec::{
    router_ip, router_mac, FabricError, FabricSpec, GatewaySpec, Interconnect, INTERNET_MAC,
    MAX_PODS, POD_SS1_DPID_BASE, POD_SS2_DPID_BASE, SPINE_DPID, SPINE_ROUTER_IP, SPINE_ROUTER_MAC,
};
pub use topology::{Fabric, Spine};

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::instance::{HarmlessSpec, Variant};
    use crate::portmap::PortMapError;
    use controller::apps::{ArpProxy, HostRoute, LearningSwitch, Router};
    use controller::ControllerNode;
    use legacy_switch::LegacySwitchNode;
    use netsim::host::Host;
    use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
    use netsim::{Network, NodeId, PortId, SimTime};
    use openflow::Match;
    use softswitch::SoftSwitchNode;

    fn learning_ctrl(net: &mut Network) -> NodeId {
        net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(LearningSwitch::new())],
        ))
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let pod = HarmlessSpec::new(4);
        assert_eq!(
            FabricSpec::new(0, pod.clone()).validate(),
            Err(FabricError::NoPods)
        );
        assert!(matches!(
            FabricSpec::new(201, pod.clone()).validate(),
            Err(FabricError::TooManyPods { max: 200, got: 201 })
        ));
        assert_eq!(
            FabricSpec::new(2, pod.clone())
                .with_interconnect(Interconnect::None)
                .validate(),
            Err(FabricError::MissingInterconnect)
        );
        assert_eq!(
            FabricSpec::new(2, pod.clone().with_variant(Variant::Merged)).validate(),
            Err(FabricError::MergedVariant)
        );
        // Pinned uplink count disagreeing with the interconnect.
        assert_eq!(
            FabricSpec::new(2, pod.clone().with_uplinks(2))
                .with_interconnect(Interconnect::SpineLegacy)
                .validate(),
            Err(FabricError::UplinkMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            FabricSpec::new(3, pod.clone().with_uplinks(1))
                .with_interconnect(Interconnect::Line)
                .validate(),
            Err(FabricError::UplinkMismatch {
                expected: 2,
                got: 1
            })
        );
        // VLAN budget propagates.
        let mut big = HarmlessSpec::new(4000);
        big.vlan_base = 100;
        assert_eq!(
            FabricSpec::single(big).validate(),
            Err(FabricError::PortMap(PortMapError::VlanSpaceExhausted))
        );
        // And a good spec passes.
        assert_eq!(FabricSpec::new(2, pod).validate(), Ok(()));
    }

    #[test]
    fn attach_host_rejects_bad_and_duplicate_ports() {
        let mut net = Network::new(1);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .build(&mut net)
            .unwrap();
        assert!(matches!(
            fx.attach_host(&mut net, 5, 1),
            Err(FabricError::NoSuchPod { pod: 5, n_pods: 2 })
        ));
        assert_eq!(
            fx.attach_host(&mut net, 1, 3).unwrap_err(),
            FabricError::NotAnAccessPort { pod: 1, port: 3 }
        );
        fx.attach_host(&mut net, 1, 2).unwrap();
        assert_eq!(
            fx.attach_host(&mut net, 1, 2).unwrap_err(),
            FabricError::DuplicateHostPort { pod: 1, port: 2 }
        );
        // Same port on the *other* pod is fine.
        fx.attach_host(&mut net, 0, 2).unwrap();
    }

    #[test]
    fn host_identities_are_globally_unique() {
        let mut net = Network::new(1);
        let fx = FabricSpec::new(3, HarmlessSpec::new(300))
            .build(&mut net)
            .unwrap();
        // Pod 0 keeps the classic scheme.
        assert_eq!(fx.host_ip(0, 2), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(fx.host_mac(0, 2), netpkt::MacAddr::host(2));
        // Other pods move to their own /16.
        assert_eq!(fx.host_ip(2, 1), Ipv4Addr::new(10, 2, 0, 1));
        assert_eq!(fx.host_ip(1, 251), Ipv4Addr::new(10, 1, 1, 1));
        let mut ips = std::collections::HashSet::new();
        let mut macs = std::collections::HashSet::new();
        for pod in 0..3usize {
            for port in 1..=4u16 {
                assert!(ips.insert(fx.host_ip(pod, port)));
                assert!(macs.insert(fx.host_mac(pod, port)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "host_ip of an existing")]
    fn host_ip_rejects_addresses_outside_the_fabric() {
        let mut net = Network::new(1);
        let fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .build(&mut net)
            .unwrap();
        let _ = fx.host_ip(2, 1); // no such pod
    }

    #[test]
    fn single_pod_fabric_matches_the_classic_instance() {
        let mut net = Network::new(42);
        let ctrl = learning_ctrl(&mut net);
        let mut fx = FabricSpec::single(HarmlessSpec::new(4))
            .build(&mut net)
            .unwrap();
        assert_eq!(fx.n_pods(), 1);
        assert!(fx.spine().is_none());
        // Classic dpid + no uplink ports.
        assert_eq!(fx.pod(0).spec.ss2_dpid, crate::instance::SS2_DPID);
        assert_eq!(fx.pod(0).spec.uplinks, 0);
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        assert!(fx.all_pods_connected(&net));
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let _b = fx.attach_host(&mut net, 0, 2).unwrap();
        net.run_until(SimTime::from_millis(100));
        let ip = fx.host_ip(0, 2);
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"single", ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
    }

    #[test]
    fn cross_pod_ping_over_every_interconnect() {
        for ic in [
            Interconnect::Line,
            Interconnect::SpineSoft,
            Interconnect::SpineLegacy,
        ] {
            let mut net = Network::new(77);
            let ctrl = learning_ctrl(&mut net);
            let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
                .with_interconnect(ic)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let a = fx.attach_host(&mut net, 0, 1).unwrap();
            let b = fx.attach_host(&mut net, 2, 1).unwrap();
            net.run_until(SimTime::from_millis(100));
            let ip = fx.host_ip(2, 1);
            net.with_node_ctx::<Host, _>(a, |h, ctx| {
                h.ping(b"cross-pod", ip);
                h.flush(ctx);
            });
            net.run_until(SimTime::from_millis(600));
            assert_eq!(
                net.node_ref::<Host>(a).echo_replies_received(),
                1,
                "{ic:?}: pod 0 must reach pod 2"
            );
            assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 1);
            // The controller really serves several datapaths.
            let c = net.node_ref::<ControllerNode>(ctrl);
            assert!(c.packet_ins() > 0);
        }
    }

    #[test]
    fn shard_map_puts_pods_on_their_own_shards() {
        let mut net = Network::new(3);
        let ctrl = learning_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .build(&mut net)
            .unwrap();
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();
        let map = fx.shard_map();
        assert_eq!(map.n_shards(), 3);
        assert_eq!(map.shard_of(ctrl), 0, "controller stays on system shard");
        assert_eq!(map.shard_of(fx.spine().unwrap().node()), 0);
        assert_eq!(map.shard_of(fx.pod(0).legacy), 1);
        assert_eq!(map.shard_of(fx.pod(0).ss2), 1);
        assert_eq!(map.shard_of(a), 1);
        assert_eq!(map.shard_of(fx.pod(1).ss2), 2);
        assert_eq!(map.shard_of(b), 2);
        assert_eq!(fx.attached_node(0, 1), Some(a));
        assert_eq!(fx.attached_node(0, 2), None);
    }

    #[test]
    fn sharded_fabric_pings_cross_pod_on_any_thread_count() {
        let run = |threads: Option<usize>| -> (u64, u64, u64) {
            let mut net = Network::new(77);
            let ctrl = learning_ctrl(&mut net);
            let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
                .with_interconnect(Interconnect::SpineSoft)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let a = fx.attach_host(&mut net, 0, 1).unwrap();
            let b = fx.attach_host(&mut net, 2, 1).unwrap();
            if let Some(t) = threads {
                net.set_shards(&fx.shard_map());
                net.set_threads(t);
            }
            net.run_until(SimTime::from_millis(100));
            let ip = fx.host_ip(2, 1);
            net.with_node_ctx::<Host, _>(a, |h, ctx| {
                h.ping(b"sharded", ip);
                h.flush(ctx);
            });
            net.run_until(SimTime::from_millis(600));
            (
                net.node_ref::<Host>(a).echo_replies_received(),
                net.node_ref::<Host>(b).echo_requests_answered(),
                net.events_processed(),
            )
        };
        let (r1, a1, e1) = run(Some(1));
        for threads in [2, 4] {
            assert_eq!(run(Some(threads)), (r1, a1, e1), "threads={threads}");
        }
        assert_eq!(r1, 1);
        assert_eq!(a1, 1);
        // And the sharded engine reaches the same converged state as the
        // classic single-queue loop.
        let (lr, la, _) = run(None);
        assert_eq!((lr, la), (r1, a1));
    }

    #[test]
    fn faulted_fabric_is_bit_identical_for_any_thread_count() {
        use netsim::FaultPlan;
        // A 4-pod fabric under live cross-pod traffic with an uplink
        // flap, a softswitch power-cycle and a legacy reboot. The fault
        // events ride the shard machinery, so every thread count — and
        // the classic unsharded loop — must produce the same replies,
        // the same blackhole count and the same event total.
        let run = |threads: Option<usize>| -> (u64, u64, u64, u64) {
            let mut net = Network::new(21);
            let ctrl = net.add_node(ControllerNode::new(
                "ctrl",
                vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
            ));
            let mut fx = FabricSpec::new(4, HarmlessSpec::new(2))
                .with_interconnect(Interconnect::SpineSoft)
                .with_arp_proxy(true)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let hosts: Vec<NodeId> = (0..4)
                .map(|p| fx.attach_host(&mut net, p, 1).unwrap())
                .collect();
            if let Some(t) = threads {
                net.set_shards(&fx.shard_map());
                net.set_threads(t);
            }
            let uplink = PortId(fx.pod(1).uplink_port(1) as u16);
            let plan = FaultPlan::new()
                .link_flap(
                    SimTime::from_millis(200),
                    SimTime::from_millis(100),
                    fx.pod(1).ss2,
                    uplink,
                )
                .reset(SimTime::from_millis(350), fx.pod(2).ss2)
                .reset(SimTime::from_millis(400), fx.pod(3).legacy);
            net.apply_faults(&plan);
            net.run_until(SimTime::from_millis(100));
            // Ping rounds spanning the whole fault window.
            for _ in 0..6 {
                for (p, &h) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % 4, 1);
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"fault", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_millis(100));
            }
            net.run_until(SimTime::from_millis(1500));
            let replies: u64 = hosts
                .iter()
                .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
                .sum();
            let resets = net.node_ref::<SoftSwitchNode>(fx.pod(2).ss2).resets()
                + net.node_ref::<LegacySwitchNode>(fx.pod(3).legacy).reboots();
            (
                replies,
                net.blackholed_frames(),
                net.events_processed(),
                resets,
            )
        };
        let baseline = run(Some(1));
        assert_eq!(baseline.3, 2, "both scheduled resets fired");
        assert!(baseline.0 > 0, "traffic still flows around the faults");
        for threads in [2, 4] {
            assert_eq!(run(Some(threads)), baseline, "threads={threads}");
        }
        // The unsharded loop reaches the same converged state.
        let (ur, ub, _, ures) = run(None);
        assert_eq!((ur, ub, ures), (baseline.0, baseline.1, baseline.3));
    }

    #[test]
    fn backup_controller_takes_over_after_primary_crash() {
        use openflow::ControllerRole;
        // A warm-standby backup with the same app chain. Crash the
        // primary mid-run: every software switch must declare it dead,
        // fail over, and the backup must self-promote to master and
        // rebuild the exact fault-free rule set — bounded downtime,
        // zero stale rules, and the data plane keeps forwarding on its
        // proactive routes throughout the outage. That includes a pair
        // of stations attached *before* either controller was wired:
        // both controllers must have been told about them all the same.
        let run = |crash: bool| {
            let mut net = Network::new(33);
            let apps = || -> Vec<Box<dyn controller::App>> {
                vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
            };
            let primary = net.add_node(
                ControllerNode::new("primary", apps()).with_role(ControllerRole::Master, 1),
            );
            let backup = net.add_node(
                ControllerNode::new("backup", apps()).with_role(ControllerRole::Slave, 2),
            );
            let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
                .with_interconnect(Interconnect::SpineSoft)
                .with_arp_proxy(true)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            let flow = FlowSpec {
                src_mac: fx.host_mac(0, 2),
                dst_mac: fx.host_mac(1, 2),
                src_ip: fx.host_ip(0, 2),
                dst_ip: fx.host_ip(1, 2),
                src_port: 10_000,
                dst_port: 20_000,
                frame_len: 200,
            };
            let gen = net.add_node(Generator::new(
                "gen",
                PortId(0),
                Pattern::Cbr { pps: 1000.0 },
                vec![flow],
                SimTime::from_millis(150),
                SimTime::from_millis(1200),
            ));
            let sink = net.add_node(Sink::new("sink"));
            fx.attach_station(&mut net, 0, 2, gen).unwrap();
            fx.attach_station(&mut net, 1, 2, sink).unwrap();
            fx.connect_controller(&mut net, primary);
            fx.connect_backup_controller(&mut net, backup);
            fx.for_each_softswitch(&mut net, |sw| {
                sw.set_keepalive(SimTime::from_millis(50), 2);
                sw.set_backoff(SimTime::from_millis(50), SimTime::from_millis(200));
            });
            let hosts: Vec<NodeId> = (0..2)
                .map(|p| fx.attach_host(&mut net, p, 1).unwrap())
                .collect();
            net.run_until(SimTime::from_millis(100));
            let round = |net: &mut Network| {
                for (p, &h) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % 2, 1);
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"failover", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_millis(100));
            };
            round(&mut net);
            round(&mut net);
            if crash {
                net.ctrl_down(primary);
                // Outage window: detection (2 × 50 ms of unanswered
                // probes), backoff, redial and re-handshake.
                net.run_for(SimTime::from_millis(400));
            }
            round(&mut net);
            round(&mut net);
            net.run_until(SimTime::from_millis(1500));
            let replies: u64 = hosts
                .iter()
                .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
                .sum();
            // Canonical rule set of every software datapath: the
            // converged state must not depend on which controller
            // installed it.
            let switches = [fx.pod(0).ss2, fx.pod(1).ss2, fx.spine().unwrap().node()];
            let rules: Vec<Vec<String>> = switches
                .iter()
                .map(|&n| {
                    let mut v: Vec<String> = net
                        .node_ref::<SoftSwitchNode>(n)
                        .datapath()
                        .table(0)
                        .unwrap()
                        .entries()
                        .iter()
                        .map(|e| format!("{}|{:?}|{:?}", e.priority, e.match_, e.instructions))
                        .collect();
                    v.sort();
                    v
                })
                .collect();
            let mut failovers = 0u64;
            let mut all_up = true;
            let mut on_backup = true;
            fx.for_each_softswitch(&mut net, |sw| {
                failovers += sw.failovers();
                all_up &= sw.controller_link_up();
                on_backup &= sw.controller() == Some(backup);
            });
            let promoted = net.node_ref::<ControllerNode>(backup).promotions();
            let backup_role = net.node_ref::<ControllerNode>(backup).role();
            let station_frames = (
                net.node_ref::<Generator>(gen).sent(),
                net.node_ref::<Sink>(sink).received(),
            );
            (
                replies,
                rules,
                failovers,
                all_up,
                on_backup,
                promoted,
                backup_role,
                station_frames,
            )
        };
        let base = run(false);
        assert_eq!(base.0, 8, "fault-free: all pings answered");
        assert_eq!(base.7, (1050, 1050), "fault-free: every station frame");
        assert_eq!(base.2, 0, "fault-free: no failovers");
        assert_eq!(base.5, 0, "fault-free: the backup is never dialed");
        let crashed = run(true);
        assert_eq!(
            crashed.2, 3,
            "every software switch failed over exactly once"
        );
        assert!(crashed.3, "all control links re-established");
        assert!(crashed.4, "every switch now dials the backup");
        assert!(
            crashed.5 >= 1,
            "backup self-promoted on the first re-handshake"
        );
        assert_eq!(crashed.6, ControllerRole::Master);
        assert_eq!(
            crashed.0, base.0,
            "proactive routes keep the data plane forwarding through the outage"
        );
        assert_eq!(
            crashed.7, base.7,
            "stations attached before the controllers lose nothing to the outage"
        );
        assert_eq!(
            crashed.1, base.1,
            "rule sets converge to the fault-free state — no stale, no missing rules"
        );
    }

    /// Build a pods × hosts fabric (optionally with the ARP proxy),
    /// stagger one all-hosts cross-pod ping round, then a second
    /// (converged) round. Returns
    /// `(round-1 replies, round-1 packet-ins, round-2 packet-ins,
    ///   proxied answers, total hosts)`.
    fn ping_rounds(
        proxy: bool,
        interconnect: Interconnect,
        n_pods: u16,
        n_hosts: u16,
    ) -> (u64, u64, u64, u64, u64) {
        let mut net = Network::new(5);
        let apps: Vec<Box<dyn controller::App>> = if proxy {
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
        } else {
            vec![Box::new(LearningSwitch::new())]
        };
        let ctrl = net.add_node(ControllerNode::new("ctrl", apps));
        let mut fx = FabricSpec::new(n_pods, HarmlessSpec::new(n_hosts))
            .with_interconnect(interconnect)
            .with_arp_proxy(proxy)
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts: Vec<Vec<NodeId>> = Vec::new();
        for p in 0..usize::from(n_pods) {
            hosts.push(
                (1..=n_hosts)
                    .map(|i| fx.attach_host(&mut net, p, i).unwrap())
                    .collect(),
            );
        }
        net.run_until(SimTime::from_millis(100));
        let round = |net: &mut Network| {
            for i in 1..=n_hosts {
                for (p, pod_hosts) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % usize::from(n_pods), i);
                    let h = pod_hosts[usize::from(i) - 1];
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"proxy", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_micros(400));
            }
            net.run_for(SimTime::from_millis(400));
        };
        round(&mut net);
        let replies1: u64 = hosts
            .iter()
            .flatten()
            .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
            .sum();
        let pi1 = net.node_ref::<ControllerNode>(ctrl).packet_ins();
        round(&mut net);
        let pi2 = net.node_ref::<ControllerNode>(ctrl).packet_ins() - pi1;
        let answered = if proxy {
            net.node_mut::<ControllerNode>(ctrl)
                .app_mut::<ArpProxy>()
                .unwrap()
                .answered()
        } else {
            0
        };
        let total = u64::from(n_pods) * u64::from(n_hosts);
        (replies1, pi1, pi2, answered, total)
    }

    #[test]
    fn arp_proxy_contains_round1_floods() {
        // Without the proxy: reactive learning, broadcast punts at every
        // datapath — packet-ins grow superlinearly with hosts.
        let (replies, pi1, pi2, _, total) = ping_rounds(false, Interconnect::SpineSoft, 3, 4);
        assert_eq!(replies, total);
        assert_eq!(pi2, 0);
        assert!(
            pi1 > total + 3,
            "reactive baseline floods: {pi1} packet-ins for {total} hosts"
        );
        // With the proxy: one ARP punt per host, answered at the pod
        // edge; proactive routes keep the unicast path silent.
        let (replies, pi1, pi2, answered, total) = ping_rounds(true, Interconnect::SpineSoft, 3, 4);
        assert_eq!(replies, total, "convergence is unchanged");
        assert_eq!(pi2, 0, "round 2 stays silent");
        assert!(
            pi1 <= total + 3,
            "round-1 packet-ins must be O(hosts): {pi1} > {total} + pods"
        );
        assert_eq!(answered, total, "every host's one ARP was proxied");
    }

    #[test]
    fn arp_proxy_guards_legacy_spine_reflections() {
        // A legacy spine floods unknown destinations; without the
        // reflection guards the proactive uplink routes would bounce
        // flood copies straight back and storm the fabric. The guarded
        // routes must converge with pod-edge-only punts.
        let (replies, pi1, pi2, answered, total) =
            ping_rounds(true, Interconnect::SpineLegacy, 3, 2);
        assert_eq!(replies, total);
        assert_eq!(pi2, 0);
        assert!(pi1 <= total + 3, "{pi1} packet-ins for {total} hosts");
        assert_eq!(answered, total);
    }

    #[test]
    fn host_routes_follow_the_interconnect() {
        let mut net = Network::new(1);
        let mut fx = FabricSpec::new(3, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineSoft)
            .build(&mut net)
            .unwrap();
        // Host (pod 1, port 2): home access port, uplinks elsewhere,
        // pod-facing port on the spine.
        fx.attach_host(&mut net, 1, 2).unwrap();
        let r = fx.proxy_route((1, 2)).expect("hosts are routed to");
        assert_eq!(r.ip, fx.host_ip(1, 2));
        assert_eq!(r.mac, fx.host_mac(1, 2));
        assert_eq!(
            r.ports,
            vec![
                (POD_SS2_DPID_BASE, 5),     // pod 0: uplink (4 access + 1)
                (POD_SS2_DPID_BASE + 1, 2), // home pod: access port
                (POD_SS2_DPID_BASE + 2, 5), // pod 2: uplink
                (SPINE_DPID, 2),            // spine: port pod+1
            ]
        );
        assert!(r.guards.is_empty(), "soft spines need no guards");

        // Line interconnect: direction-aware uplinks, no spine entry.
        let mut fx = FabricSpec::new(3, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::Line)
            .build(&mut net)
            .unwrap();
        fx.attach_host(&mut net, 1, 3).unwrap();
        let r = fx.proxy_route((1, 3)).expect("hosts are routed to");
        assert_eq!(
            r.ports,
            vec![
                (POD_SS2_DPID_BASE, 5),     // pod 0 reaches pod 1 rightward
                (POD_SS2_DPID_BASE + 1, 3), // home
                (POD_SS2_DPID_BASE + 2, 6), // pod 2 reaches pod 1 leftward
            ]
        );

        // Legacy spine: uplink routes carry reflection guards.
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineLegacy)
            .build(&mut net)
            .unwrap();
        fx.attach_host(&mut net, 0, 1).unwrap();
        let r = fx.proxy_route((0, 1)).expect("hosts are routed to");
        assert_eq!(r.guards, vec![(POD_SS2_DPID_BASE + 1, 5)]);
    }

    #[test]
    #[should_panic(expected = "no ArpProxy app")]
    fn arp_proxy_flag_requires_the_app() {
        let mut net = Network::new(1);
        let ctrl = learning_ctrl(&mut net); // no ArpProxy in the chain
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_arp_proxy(true)
            .build(&mut net)
            .unwrap();
        fx.connect_controller(&mut net, ctrl);
        let _ = fx.attach_host(&mut net, 0, 1);
    }

    #[test]
    fn migrating_a_host_retracts_stale_routes_and_reroutes_traffic() {
        use controller::apps::arp_proxy::ROUTE_PRIORITY;
        use openflow::{Action, Instruction, Match};
        let mut net = Network::new(11);
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
        ));
        let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        let b_ip = fx.host_ip(1, 1);
        let b_mac = fx.host_mac(1, 1);
        // Warm the path: proxied ARP, then pod 0 → spine → pod 1.
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"before", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);

        // Live-migrate b to pod 2, access port 2; its IP/MAC travel
        // with it. The proxy retracts the pod-1 routes and installs the
        // pod-2 ones in the same sync.
        fx.migrate_host(&mut net, (1, 1), (2, 2)).unwrap();
        net.run_until(SimTime::from_millis(450)); // control plane lands
        let blackholed_at_reconvergence = net.blackholed_frames();

        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"after", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(
            net.node_ref::<Host>(a).echo_replies_received(),
            2,
            "ping must reach the migrated host without re-ARPing"
        );
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
        assert_eq!(
            net.blackholed_frames(),
            blackholed_at_reconvergence,
            "zero packets blackholed after reconvergence"
        );

        // Every datapath holds exactly one prio-20 route for b's MAC,
        // and it points at the *new* location — in particular the old
        // home pod now routes b out of its uplink, not access port 1.
        let uplink = 3u32; // 2 access ports + 1
        for (node, expected_out, what) in [
            (fx.pod(0).ss2, uplink, "pod 0 uplink"),
            (
                fx.pod(1).ss2,
                uplink,
                "old home: uplink, not the stale access port",
            ),
            (fx.pod(2).ss2, 2, "new home: access port 2"),
            (fx.spine().unwrap().node(), 3, "spine: pod-2-facing port"),
        ] {
            let dp = net.node_ref::<SoftSwitchNode>(node);
            let routes: Vec<_> = dp
                .datapath()
                .table(0)
                .unwrap()
                .entries()
                .iter()
                .filter(|e| e.priority == ROUTE_PRIORITY && e.match_ == Match::new().eth_dst(b_mac))
                .collect();
            assert_eq!(routes.len(), 1, "{what}: one live route, no stale ones");
            assert_eq!(
                routes[0].instructions.to_vec(),
                vec![Instruction::ApplyActions(vec![Action::output(
                    expected_out
                )])],
                "{what}"
            );
        }
    }

    #[test]
    fn detach_host_retracts_routes_and_frees_the_port() {
        let mut net = Network::new(4);
        let apps = || -> Vec<Box<dyn controller::App>> {
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
        };
        let ctrl = net.add_node(ControllerNode::new("ctrl", apps()));
        let standby = net.add_node(
            ControllerNode::new("standby", apps()).with_role(openflow::ControllerRole::Slave, 2),
        );
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        fx.connect_backup_controller(&mut net, standby);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let _b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        assert_eq!(
            fx.detach_host(&mut net, 1, 2).unwrap_err(),
            FabricError::NothingAttached { pod: 1, port: 2 }
        );
        fx.detach_host(&mut net, 1, 1).unwrap();
        assert_eq!(fx.attached_node(1, 1), None);
        // The proxy no longer answers for the detached IP...
        let gone = fx.host_ip(1, 1);
        assert_eq!(
            net.node_mut::<ControllerNode>(ctrl)
                .app_mut::<ArpProxy>()
                .unwrap()
                .lookup(gone),
            None
        );
        // ...pings toward it stall at ARP (the host queues them and
        // keeps retrying)...
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"ghost", gone);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(600));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
        // ...and the port takes a fresh attachment, which revives the
        // IP: the queued ping resolves and both pings go through.
        let b2 = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(700));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"reborn", gone);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(1500));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b2).echo_requests_answered(), 2);

        // A station carries an identity too: detaching it must take the
        // identity out of every controller's proxy and its proactive
        // route off every datapath, not leave it pointing at a vacated
        // port.
        let sink = net.add_node(Sink::new("sink"));
        fx.attach_station(&mut net, 0, 2, sink).unwrap();
        net.run_for(SimTime::from_secs(1));
        let known = |net: &mut Network| {
            [ctrl, standby].map(|c| {
                let proxy = net.node_mut::<ControllerNode>(c).app_mut::<ArpProxy>();
                proxy.unwrap().hosts_known()
            })
        };
        let station_route = Match::new().eth_dst(fx.host_mac(0, 2));
        let datapaths = [fx.pod(0).ss2, fx.pod(1).ss2, fx.spine().unwrap().node()];
        let routes = |net: &Network| -> usize {
            datapaths
                .iter()
                .flat_map(|&n| {
                    let dp = net.node_ref::<SoftSwitchNode>(n).datapath();
                    dp.table(0).unwrap().entries().to_vec()
                })
                .filter(|e| e.match_ == station_route)
                .count()
        };
        assert_eq!(known(&mut net), [3, 3]);
        assert_eq!(routes(&net), 3, "one route per datapath");
        fx.detach_host(&mut net, 0, 2).unwrap();
        net.run_for(SimTime::from_secs(1));
        assert_eq!(known(&mut net), [2, 2], "identity left every proxy");
        assert_eq!(routes(&net), 0, "no route toward the vacated port");
    }

    #[test]
    fn a_vacated_port_takes_no_station_while_its_identity_lives_elsewhere() {
        let mut net = Network::new(4);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(&mut net)
            .unwrap();
        fx.attach_host(&mut net, 0, 1).unwrap();
        // The host takes (0, 1)'s IP and MAC with it to (1, 2) ...
        fx.migrate_host(&mut net, (0, 1), (1, 2)).unwrap();
        // ... so a new station at (0, 1) would be its double.
        let in_use = FabricError::IdentityInUse { pod: 0, port: 1 };
        assert_eq!(fx.attach_host(&mut net, 0, 1).unwrap_err(), in_use);
        let sink = net.add_node(Sink::new("sink"));
        assert_eq!(fx.attach_station(&mut net, 0, 1, sink).unwrap_err(), in_use);
        // Another host may still move in: it brings its own identity.
        fx.attach_host(&mut net, 0, 2).unwrap();
        fx.migrate_host(&mut net, (0, 2), (0, 1)).unwrap();
        fx.migrate_host(&mut net, (0, 1), (0, 2)).unwrap();
        // Once the migrated host is gone, so is the claim on (0, 1).
        fx.detach_host(&mut net, 1, 2).unwrap();
        fx.attach_host(&mut net, 0, 1).unwrap();
    }

    /// A controller for routed fabrics: proxy answers who-has, router
    /// installs the per-prefix pipeline. No learning app — a router
    /// drops what it has no route for.
    fn l3_ctrl(net: &mut Network) -> NodeId {
        net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(ArpProxy::new()), Box::new(Router::new())],
        ))
    }

    /// Build an l3 (or l2 baseline) fabric of `n_pods`×`n_hosts`, run
    /// an all-pairs ping round, and report
    /// `(replies, blackholed frames, net, fabric, hosts)`.
    fn all_pairs_pings(
        l3: bool,
        interconnect: Interconnect,
        n_pods: u16,
        n_hosts: u16,
    ) -> (u64, u64, Network, Fabric) {
        let mut net = Network::new(13);
        let ctrl = if l3 {
            l3_ctrl(&mut net)
        } else {
            net.add_node(ControllerNode::new(
                "ctrl",
                vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
            ))
        };
        let mut spec = FabricSpec::new(n_pods, HarmlessSpec::new(n_hosts))
            .with_interconnect(interconnect)
            .with_arp_proxy(true);
        if l3 {
            spec = spec.with_l3_routing();
        }
        let mut fx = spec.build(&mut net).unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts = Vec::new();
        for p in 0..usize::from(n_pods) {
            for i in 1..=n_hosts {
                hosts.push(((p, i), fx.attach_host(&mut net, p, i).unwrap()));
            }
        }
        net.run_until(SimTime::from_millis(100));
        for &((sp, si), h) in &hosts {
            for &((dp, di), _) in &hosts {
                if (sp, si) == (dp, di) {
                    continue;
                }
                let target = fx.host_ip(dp, di);
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(b"pairs", target);
                    h.flush(ctx);
                });
            }
            net.run_for(SimTime::from_millis(2));
        }
        net.run_for(SimTime::from_millis(900));
        let replies: u64 = hosts
            .iter()
            .map(|&(_, h)| net.node_ref::<Host>(h).echo_replies_received())
            .sum();
        (replies, net.blackholed_frames(), net, fx)
    }

    #[test]
    fn l3_routing_matches_the_l2_fabric_on_every_interconnect() {
        for ic in [
            Interconnect::Line,
            Interconnect::SpineSoft,
            Interconnect::SpineLegacy,
        ] {
            let (l2_replies, l2_bh, _, _) = all_pairs_pings(false, ic, 3, 2);
            let (l3_replies, l3_bh, net, fx) = all_pairs_pings(true, ic, 3, 2);
            // 6 hosts, 30 directed pairs: identical reply sets, nothing
            // blackholed in either fabric.
            assert_eq!(l2_replies, 30, "{ic:?}: l2 baseline must converge");
            assert_eq!(l3_replies, l2_replies, "{ic:?}: l3 ≡ l2");
            assert_eq!((l2_bh, l3_bh), (0, 0), "{ic:?}: zero blackholes");
            // And the routed fabric did it with per-prefix state: every
            // SS_2's route table holds 2 inter-pod /16s + 2 local /32s,
            // no per-host inter-pod rules.
            for p in 0..fx.n_pods() {
                let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
                let routes = dp
                    .datapath()
                    .table(controller::apps::router::ROUTE_TABLE)
                    .unwrap();
                let aggregates = routes
                    .entries()
                    .iter()
                    .filter(|e| e.priority < controller::apps::router::ROUTE_PRIORITY_BASE + 32)
                    .count();
                assert_eq!(aggregates, 2, "{ic:?} pod {p}: one /16 per remote pod");
                assert_eq!(routes.entries().len(), 4, "{ic:?} pod {p}: plus local /32s");
            }
        }
    }

    #[test]
    fn sixteen_pod_fabric_routes_with_per_prefix_state() {
        // The scaling claim: inter-pod reachability on a 16-pod fabric
        // out of ≤ pods+1 aggregate rules per datapath, where per-host
        // routing would need hosts×pods rules.
        let mut net = Network::new(4);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(16, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_gateway(GatewaySpec::new(0, 2))
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts = Vec::new();
        for p in 0..16 {
            hosts.push(fx.attach_host(&mut net, p, 1).unwrap());
        }
        fx.attach_internet(&mut net).unwrap();
        net.run_until(SimTime::from_millis(200));
        // Far corner to far corner, and out through the NAT.
        let far = fx.host_ip(15, 1);
        let inet = fx.spec.gateway.unwrap().internet_ip;
        net.with_node_ctx::<Host, _>(hosts[3], move |h, ctx| {
            h.ping(b"far", far);
            h.ping(b"out", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(net.node_ref::<Host>(hosts[3]).echo_replies_received(), 2);
        for p in 0..16 {
            let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
            let routes = dp
                .datapath()
                .table(controller::apps::router::ROUTE_TABLE)
                .unwrap();
            let aggregates = routes
                .entries()
                .iter()
                .filter(|e| e.priority < controller::apps::router::ROUTE_PRIORITY_BASE + 32)
                .count();
            // 15 remote /16s + the default route.
            assert!(
                aggregates <= 16 + 1,
                "pod {p}: {aggregates} aggregate rules, want ≤ pods+1"
            );
            // Against the L2 alternative: 16 hosts + internet would put
            // 17 eth_dst rules on *every* datapath; here non-local state
            // is bounded by the pod count, local state by pod size.
            assert!(
                routes.entries().len() <= 16 + 1 + 2,
                "pod {p}: routing table must stay per-prefix"
            );
        }
    }

    #[test]
    fn nat_gateway_round_trips_and_offloads_to_the_caches() {
        let mut net = Network::new(8);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::Line)
            .with_gateway(GatewaySpec::new(1, 2))
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let inet_node = fx.attach_internet(&mut net).unwrap();
        net.run_until(SimTime::from_millis(100));
        let inet = fx.spec.gateway.unwrap().internet_ip;
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"first", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        let hits = |net: &Network, node| {
            let dp = net.node_ref::<SoftSwitchNode>(node).datapath();
            dp.micro_cache().hits() + dp.mega_cache().hits()
        };
        let gw_dp = net.node_ref::<SoftSwitchNode>(fx.pod(1).ss2).datapath();
        assert_eq!(gw_dp.nat().created(), 1, "one ICMP connection");
        assert_eq!(gw_dp.nat().live_conns(), 1);
        let (warm_access, warm_gw) = (hits(&net, fx.pod(0).ss2), hits(&net, fx.pod(1).ss2));
        // Established connection: the routed hops replay the next
        // packets from the caches — the offload-on-first-packet shape.
        // The gateway translates an echo by its identifier, which a
        // cache entry does not key on, so it walks its tables for each.
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"second", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        let gw_dp = net.node_ref::<SoftSwitchNode>(fx.pod(1).ss2).datapath();
        assert_eq!(gw_dp.nat().created(), 1, "no new connection state");
        assert!(
            hits(&net, fx.pod(0).ss2) >= warm_access + 2,
            "request and reply must both hit the access pod's caches on round 2"
        );
        assert_eq!(
            hits(&net, fx.pod(1).ss2),
            warm_gw,
            "a NAT'd echo is not cached"
        );
        assert_eq!(net.node_ref::<Host>(inet_node).echo_requests_answered(), 2);
        assert_eq!(net.blackholed_frames(), 0);
    }

    #[test]
    fn l3_migration_reconverges_with_zero_stale_routes() {
        let mut net = Network::new(19);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_l3_routing()
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        let b_ip = fx.host_ip(1, 1);
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"before", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);

        // b moves to pod 2; its IP/MAC travel with it. The router
        // recomputes wholesale: pod 1 loses the /32, pod 2 gains it.
        fx.migrate_host(&mut net, (1, 1), (2, 2)).unwrap();
        net.run_until(SimTime::from_millis(500));
        let blackholed_at_reconvergence = net.blackholed_frames();
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"after", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(1000));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
        assert_eq!(net.blackholed_frames(), blackholed_at_reconvergence);
        // Zero stale rules: b kept its 10.1.* address, so every pod
        // holds exactly one /32 exception for it — pods 0 and 1 steer
        // up toward pod 2, pod 2 delivers on the new access port. No
        // leftover rule points at the old port.
        let host_prio = controller::apps::router::ROUTE_PRIORITY_BASE + 32;
        let b_match = Match::new()
            .eth_type(netpkt::EtherType::IPV4.0)
            .ipv4_dst_masked(b_ip, Ipv4Addr::BROADCAST);
        let uplink = u32::from(fx.spec.pod.n_access_ports + 1);
        for (p, want_port) in [(0usize, uplink), (1, uplink), (2, 2)] {
            let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
            let found: Vec<_> = dp
                .datapath()
                .table(controller::apps::router::ROUTE_TABLE)
                .unwrap()
                .entries()
                .iter()
                .filter(|e| e.priority == host_prio && e.match_ == b_match)
                .cloned()
                .collect();
            assert_eq!(found.len(), 1, "pod {p}: exactly one /32 for b");
            assert!(
                matches!(
                    found[0].instructions.iter().next(),
                    Some(openflow::InstructionRef::ApplyActions(acts))
                        if matches!(acts.iter().next_back(), Some(openflow::Action::Output { port, .. }) if *port == want_port)
                ),
                "pod {p}: /32 must steer out port {want_port}"
            );
        }
    }

    #[test]
    fn route_loops_die_by_ttl_not_by_meltdown() {
        use controller::apps::router::PrefixRoute;
        let mut net = Network::new(23);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::Line)
            .with_l3_routing()
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        // Sabotage: both pods claim 10.99.0.0/16 points at the other —
        // a classic transient routing loop, made permanent.
        let phantom = Ipv4Addr::new(10, 99, 0, 1);
        {
            let c = net.node_mut::<ControllerNode>(ctrl);
            let r = c.app_mut::<Router>().unwrap();
            for (p, q) in [(0usize, 1usize), (1, 0)] {
                let dpid = fx.pod(p).spec.ss2_dpid;
                let mut cfg = r.config(dpid).unwrap().clone();
                let (out_port, next_hop) = fx.next_hop(p, q);
                cfg.routes.push(PrefixRoute {
                    prefix: Ipv4Addr::new(10, 99, 0, 0),
                    len: 16,
                    out_port,
                    next_hop,
                    nat: None,
                });
                r.set_config(dpid, cfg);
            }
            // The proxy must answer who-has for the phantom or the ping
            // never leaves the host.
            c.app_mut::<ArpProxy>().unwrap().add_host(HostRoute {
                ip: phantom,
                mac: netpkt::MacAddr::host(0xbeef),
                ports: Vec::new(),
                guards: Vec::new(),
            });
        }
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| c.sync_now(ctx));
        net.run_until(SimTime::from_millis(200));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"looped", phantom);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(2000));
        let expiries: u64 = (0..2)
            .map(|p| {
                net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2)
                    .datapath()
                    .stats()
                    .ttl_expired
            })
            .sum();
        assert_eq!(expiries, 1, "the looped frame dies exactly once, by TTL");
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
        // Bounded damage: one TTL's worth of hops, not a meltdown. A
        // frame looping without TTL protection would cross links until
        // the horizon and swamp the event count.
        assert!(
            net.events_processed() < 100_000,
            "loop must be TTL-bounded: {} events",
            net.events_processed()
        );
    }

    #[test]
    fn l3_spec_validation_and_attach_internet_guards() {
        let pod = HarmlessSpec::new(2);
        let mut spec = FabricSpec::new(2, pod.clone());
        spec.l3_routing = true; // bypass the builder's auto-enable
        assert_eq!(spec.validate(), Err(FabricError::L3NeedsArpProxy));
        let mut spec = FabricSpec::new(2, pod.clone());
        spec.gateway = Some(GatewaySpec::new(0, 1));
        assert_eq!(spec.validate(), Err(FabricError::GatewayNeedsL3));
        assert!(matches!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(7, 1))
                .validate(),
            Err(FabricError::NoSuchPod { pod: 7, .. })
        ));
        assert!(matches!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(0, 9))
                .validate(),
            Err(FabricError::NotAnAccessPort { port: 9, .. })
        ));
        assert_eq!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(1, 2))
                .validate(),
            Ok(())
        );
        // attach_internet needs a gateway in the spec.
        let mut net = Network::new(1);
        let mut fx = FabricSpec::new(2, pod).build(&mut net).unwrap();
        assert_eq!(
            fx.attach_internet(&mut net).unwrap_err(),
            FabricError::NoGateway
        );
    }

    #[test]
    fn migration_waves_bring_pods_under_sdn_one_at_a_time() {
        let mut net = Network::new(99);
        let ctrl = learning_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineLegacy)
            .build(&mut net)
            .unwrap();
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();

        // Wave 1: migrate pod 0 only.
        let w1 = fx.run_migration_wave(&mut net, &[0], ctrl).unwrap();
        net.run_until(SimTime::from_secs(2));
        assert!(fx.wave_done(&net, &w1));
        assert!(fx.pod(0).ss2_has_controller(&net));
        assert!(!fx.pod(1).ss2_has_controller(&net));

        // Pod 1 is still an unmigrated island: cross-pod traffic dies at
        // its unconfigured translator.
        let ip_b = fx.host_ip(1, 1);
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"too early", ip_b);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);

        // Wave 2: migrate pod 1 mid-run, then pinging works — including
        // the queued "too early" ping, whose ARP now resolves.
        let w2 = fx.run_migration_wave(&mut net, &[1], ctrl).unwrap();
        net.run_until(SimTime::from_secs(6));
        assert!(fx.wave_done(&net, &w2));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"post wave 2", ip_b);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(8));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
    }
}
