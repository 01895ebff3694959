//! E7 — L3 at the edge: per-prefix routing state, stateful NAT offload
//! and reconvergence after migration.
//!
//! Three scenarios on the same fabric family:
//!
//! * **rule state** — the same all-pairs workload on the L2 fabric
//!   (per-host `eth_dst` rules everywhere) and the L3 fabric (one `/16`
//!   per remote pod + local `/32`s): flow-table entries per datapath as
//!   the fabric grows, the HARMLESS cost argument applied to rule-table
//!   capacity.
//! * **NAT gateway** — every host pings through the gateway pod's NAT
//!   twice; round 1 creates one NAT connection per host and round 2
//!   reuses it. NAT translates an echo by its identifier, which a cache
//!   entry is not keyed on, so the gateway walks its tables for every
//!   NAT'd echo: round 2 has no cache hits there. (A NAT'd TCP or UDP
//!   connection is offloaded to the caches after its first packet.)
//! * **migration** — a host moves pods mid-run; the router recomputes
//!   wholesale and the fabric must reconverge with exactly one `/32`
//!   exception per datapath and zero stale rules.
//!
//! `cargo run --release -p bench --bin exp_l3 -- [pods] [hosts-per-pod]`
//! (add `--quick` for the CI smoke subset: 4 pods, gateway + migration
//! assertions only).

use bench::render_table;
use controller::apps::router::{Router, ROUTE_PRIORITY_BASE, ROUTE_TABLE};
use controller::apps::{ArpProxy, LearningSwitch};
use controller::ControllerNode;
use harmless::fabric::{Fabric, FabricSpec, GatewaySpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, NodeId, SimTime};
use softswitch::SoftSwitchNode;

const SEED: u64 = 29;

struct Harness {
    net: Network,
    fx: Fabric,
    hosts: Vec<((usize, u16), NodeId)>,
}

fn build(l3: bool, pods: u16, hosts_per_pod: u16, gateway: Option<GatewaySpec>) -> Harness {
    let mut net = Network::new(SEED);
    let apps: Vec<Box<dyn controller::App>> = if l3 {
        vec![Box::new(ArpProxy::new()), Box::new(Router::new())]
    } else {
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
    };
    let ctrl = net.add_node(ControllerNode::new("ctrl", apps));
    let mut spec = FabricSpec::new(pods, HarmlessSpec::new(hosts_per_pod.max(2)))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true);
    if let Some(gw) = gateway {
        spec = spec.with_gateway(gw);
    } else if l3 {
        spec = spec.with_l3_routing();
    }
    let mut fx = spec.build(&mut net).expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let mut hosts = Vec::new();
    for p in 0..usize::from(pods) {
        for i in 1..=hosts_per_pod {
            hosts.push(((p, i), fx.attach_host(&mut net, p, i).expect("free port")));
        }
    }
    net.run_until(SimTime::from_millis(200));
    Harness { net, fx, hosts }
}

/// One ping from every host to one peer per remote pod, staggered, then
/// drain. Returns (expected, received) reply counts.
fn converge_all_pods(hx: &mut Harness) -> (u64, u64) {
    let mut expected = 0u64;
    let targets: Vec<(usize, u16)> = hx.hosts.iter().map(|&(k, _)| k).collect();
    for &((sp, _), h) in &hx.hosts {
        for &(dp, di) in &targets {
            if dp == sp || di != 1 {
                continue;
            }
            let ip = hx.fx.host_ip(dp, di);
            hx.net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"e7", ip);
                h.flush(ctx);
            });
            expected += 1;
        }
        hx.net.run_for(SimTime::from_millis(2));
    }
    let deadline = hx.net.now() + SimTime::from_millis(800);
    hx.net.run_until(deadline);
    let received = hx
        .hosts
        .iter()
        .map(|&(_, h)| hx.net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    (expected, received)
}

/// Flow-table entries per pod datapath (all tables), min/max across pods.
fn rule_counts(hx: &Harness) -> (usize, usize) {
    let per_dp: Vec<usize> = (0..hx.fx.n_pods())
        .map(|p| {
            let dp = hx.net.node_ref::<SoftSwitchNode>(hx.fx.pod(p).ss2);
            (0..4)
                .filter_map(|t| dp.datapath().table(t))
                .map(|t| t.entries().len())
                .sum()
        })
        .collect();
    (
        per_dp.iter().copied().min().unwrap_or(0),
        per_dp.iter().copied().max().unwrap_or(0),
    )
}

fn rule_state(pods: u16, hosts_per_pod: u16) -> Vec<String> {
    let mut l2 = build(false, pods, hosts_per_pod, None);
    let (l2_want, l2_got) = converge_all_pods(&mut l2);
    let (l2_min, l2_max) = rule_counts(&l2);
    let mut l3 = build(true, pods, hosts_per_pod, None);
    let (l3_want, l3_got) = converge_all_pods(&mut l3);
    let (l3_min, l3_max) = rule_counts(&l3);
    assert_eq!(l2_got, l2_want, "L2 baseline must converge");
    assert_eq!(l3_got, l3_want, "L3 fabric must converge");
    assert_eq!(l3.net.blackholed_frames(), 0, "no blackholes under L3");
    // The scaling claim: aggregate routes stay bounded by the pod
    // count, not the host count.
    for p in 0..l3.fx.n_pods() {
        let dp = l3.net.node_ref::<SoftSwitchNode>(l3.fx.pod(p).ss2);
        let aggregates = dp
            .datapath()
            .table(ROUTE_TABLE)
            .expect("route table")
            .entries()
            .iter()
            .filter(|e| e.priority < ROUTE_PRIORITY_BASE + 32)
            .count();
        assert!(
            aggregates <= usize::from(pods) + 1,
            "pod {p}: {aggregates} aggregate routes on a {pods}-pod fabric"
        );
    }
    vec![
        format!("{pods}x{hosts_per_pod}"),
        format!("{l2_got}/{l2_want}"),
        format!("{l2_min}-{l2_max}"),
        format!("{l3_got}/{l3_want}"),
        format!("{l3_min}-{l3_max}"),
    ]
}

fn nat_gateway(pods: u16) -> Vec<String> {
    let gw = GatewaySpec::new(0, 2);
    let mut hx = build(true, pods, 1, Some(gw));
    let inet_ip = gw.internet_ip;
    hx.fx.attach_internet(&mut hx.net).expect("gateway fabric");
    hx.net.run_until(SimTime::from_millis(300));
    let round = |hx: &mut Harness| {
        for &(_, h) in &hx.hosts {
            hx.net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"nat", inet_ip);
                h.flush(ctx);
            });
            hx.net.run_for(SimTime::from_millis(2));
        }
        let deadline = hx.net.now() + SimTime::from_millis(800);
        hx.net.run_until(deadline);
        hx.hosts
            .iter()
            .map(|&(_, h)| hx.net.node_ref::<Host>(h).echo_replies_received())
            .sum::<u64>()
    };
    let n = hx.hosts.len() as u64;
    let r1 = round(&mut hx);
    let gw_dp = hx
        .net
        .node_ref::<SoftSwitchNode>(hx.fx.pod(0).ss2)
        .datapath();
    let conns = gw_dp.nat().live_conns();
    let warm = gw_dp.micro_cache().hits() + gw_dp.mega_cache().hits();
    let r2 = round(&mut hx);
    let gw_dp = hx
        .net
        .node_ref::<SoftSwitchNode>(hx.fx.pod(0).ss2)
        .datapath();
    let hits = gw_dp.micro_cache().hits() + gw_dp.mega_cache().hits() - warm;
    assert_eq!(r1, n, "round 1: every host NATs out and back");
    assert_eq!(r2, 2 * n, "round 2: established flows keep working");
    assert_eq!(conns as u64, n, "one NAT connection per host");
    assert_eq!(
        gw_dp.nat().created(),
        n,
        "round 2 must not create connections"
    );
    assert_eq!(hits, 0, "a NAT'd echo must not replay from the caches");
    assert_eq!(hx.net.blackholed_frames(), 0);
    vec![
        format!("{pods} pods"),
        format!("{r2}/{}", 2 * n),
        conns.to_string(),
        hits.to_string(),
    ]
}

fn migration(pods: u16) -> Vec<String> {
    let mut hx = build(true, pods, 1, None);
    let (want, got) = converge_all_pods(&mut hx);
    assert_eq!(got, want, "pre-migration convergence");
    // Host (1,1) moves to the last pod, keeping its 10.1.* identity.
    let last = hx.fx.n_pods() - 1;
    let moved_ip = hx.fx.host_ip(1, 1);
    hx.fx
        .migrate_host(&mut hx.net, (1, 1), (last, 2))
        .expect("free destination port");
    hx.net.run_for(SimTime::from_millis(300));
    let pinger = hx.hosts[0].1;
    let before = hx.net.node_ref::<Host>(pinger).echo_replies_received();
    hx.net.with_node_ctx::<Host, _>(pinger, move |h, ctx| {
        h.ping(b"mig", moved_ip);
        h.flush(ctx);
    });
    let deadline = hx.net.now() + SimTime::from_millis(800);
    hx.net.run_until(deadline);
    let after = hx.net.node_ref::<Host>(pinger).echo_replies_received();
    assert_eq!(after, before + 1, "fabric must reconverge after migration");
    // Zero stale rules: every datapath holds exactly one /32 for the
    // migrated address, none of them pointing at the old access port.
    let host_prio = ROUTE_PRIORITY_BASE + 32;
    let mut stale = 0usize;
    for p in 0..hx.fx.n_pods() {
        let dp = hx.net.node_ref::<SoftSwitchNode>(hx.fx.pod(p).ss2);
        let for_moved: Vec<_> =
            dp.datapath()
                .table(ROUTE_TABLE)
                .expect("route table")
                .entries()
                .iter()
                .filter(|e| {
                    e.priority == host_prio
                        && e.match_.fields().iter().any(
                            |f| matches!(f, openflow::OxmField::Ipv4Dst(ip, _) if *ip == moved_ip),
                        )
                })
                .cloned()
                .collect();
        assert_eq!(
            for_moved.len(),
            1,
            "pod {p}: want exactly one /32 for the migrated host"
        );
        if p == 1 {
            // The old home pod must steer up the fabric, not at the
            // vacated access port.
            let out_is_access = for_moved[0].instructions.iter().any(|i| {
                matches!(i, openflow::InstructionRef::ApplyActions(acts)
                    if acts.iter().any(|a| matches!(a, openflow::Action::Output { port, .. } if *port == 1)))
            });
            if out_is_access {
                stale += 1;
            }
        }
    }
    assert_eq!(stale, 0, "stale /32 at the old location");
    vec![
        format!("{pods} pods"),
        format!("1 -> {last}"),
        "1".into(),
        "0 stale".into(),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let nums: Vec<u16> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let pods = nums.first().copied().unwrap_or(if quick { 4 } else { 8 });
    let hosts = nums.get(1).copied().unwrap_or(2);
    println!("E7: L3 routing + NAT at the edge, seed {SEED}");

    if !quick {
        let rows = vec![rule_state(4, hosts), rule_state(pods, hosts)];
        println!(
            "{}",
            render_table(
                "per-prefix vs per-host rule state (entries per datapath)",
                &["fabric", "l2 replies", "l2 rules", "l3 replies", "l3 rules"],
                &rows,
            )
        );
    }

    let nat_rows = vec![nat_gateway(pods)];
    println!(
        "{}",
        render_table(
            "NAT gateway (2 echo rounds per host)",
            &["fabric", "replies", "nat conns", "round-2 cache hits"],
            &nat_rows,
        )
    );

    let mig_rows = vec![migration(pods)];
    println!(
        "{}",
        render_table(
            "migration reconvergence under L3",
            &["fabric", "move", "/32 per dp", "stale rules"],
            &mig_rows,
        )
    );
    println!("ok: reconverged with per-prefix state, zero stale rules");
}
