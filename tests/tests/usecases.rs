//! Regression tests for the three Fig. 1 use cases and the switch admin
//! channel — the behaviours the examples demonstrate, pinned as tests.

use controller::apps::lb::Backend;
use controller::apps::{Dmz, LearningSwitch, LoadBalancer, ParentalControl};
use controller::ControllerNode;
use harmless::fabric::FabricSpec;
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, NodeId, SimTime};
use softswitch::node::admin_set_controller;
use softswitch::SoftSwitchNode;
use std::any::Any;
use std::net::Ipv4Addr;

fn ip(i: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8)
}

fn ping_works(net: &mut Network, from: NodeId, to: u16) -> bool {
    let before = net.node_ref::<Host>(from).echo_replies_received();
    net.with_node_ctx::<Host, _>(from, |h, ctx| {
        h.ping(b"probe", ip(to));
        h.flush(ctx);
    });
    net.run_for(SimTime::from_millis(300));
    net.node_ref::<Host>(from).echo_replies_received() > before
}

fn tcp_works(net: &mut Network, from: NodeId, to: Ipv4Addr, port: u16) -> bool {
    let before = net.node_ref::<Host>(from).syn_acks_received();
    net.with_node_ctx::<Host, _>(from, move |h, ctx| {
        h.connect_tcp(to, port);
        h.flush(ctx);
    });
    net.run_for(SimTime::from_millis(300));
    net.node_ref::<Host>(from).syn_acks_received() > before
}

/// Load balancer: proxy-ARP answers for the VIP, connections complete
/// through address rewriting, and distinct client source addresses land
/// on distinct backends.
#[test]
fn lb_proxy_arp_and_rewriting() {
    let mut net = Network::new(2001);
    let vip: Ipv4Addr = "10.0.0.100".parse().unwrap();
    let backends: Vec<Backend> = (2..=3u16)
        .map(|p| Backend {
            port: u32::from(p),
            mac: netpkt::MacAddr::host(u32::from(p)),
            ip: ip(p),
        })
        .collect();
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![
            Box::new(LoadBalancer::new(vip, 80, backends)),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(6))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    // Clients on ports 1 and 6: src .1 -> bucket 1, src .6 -> bucket 0.
    let c1 = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let c6 = fx.attach_host(&mut net, 0, 6).expect("free access port");
    let b2 = fx.attach_host(&mut net, 0, 2).expect("free access port");
    let b3 = fx.attach_host(&mut net, 0, 3).expect("free access port");
    net.run_until(SimTime::from_millis(100));

    assert!(tcp_works(&mut net, c1, vip, 80), "client 1 reaches the VIP");
    assert!(tcp_works(&mut net, c6, vip, 80), "client 6 reaches the VIP");
    // Proxy-ARP was exercised (hosts had to resolve the VIP).
    let mut arps = 0;
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, _| {
        if let Some(lb) = c.app_mut::<LoadBalancer>() {
            arps = lb.arps_answered();
        }
    });
    assert!(
        arps >= 2,
        "VIP ARP must be answered by the controller, got {arps}"
    );
    // Both backends served exactly one client each (srcs 1 and 6 hash to
    // different low bits).
    assert_eq!(net.node_ref::<Host>(b2).syns_received(), 1);
    assert_eq!(net.node_ref::<Host>(b3).syns_received(), 1);
}

/// DMZ: runtime permit/revoke reshape reachability immediately.
#[test]
fn dmz_runtime_policy_updates() {
    let mut net = Network::new(2002);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![
            Box::new(Dmz::new(&[(ip(1), ip(2))])),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(4))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let h1 = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let h2 = fx.attach_host(&mut net, 0, 2).expect("free access port");
    let h3 = fx.attach_host(&mut net, 0, 3).expect("free access port");
    net.run_until(SimTime::from_millis(100));

    assert!(ping_works(&mut net, h1, 2), "permitted pair connects");
    assert!(!ping_works(&mut net, h1, 3), "default deny holds");

    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let dmz = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<Dmz>())
                .unwrap();
            dmz.permit(handle, ip(1), ip(3));
            dmz.revoke(handle, ip(1), ip(2));
        });
    });
    net.run_for(SimTime::from_millis(50));

    assert!(ping_works(&mut net, h1, 3), "newly permitted pair connects");
    assert!(!ping_works(&mut net, h1, 2), "revoked pair is cut");
    let _ = (h2, h3);
}

/// Parental control: block/unblock cycle with counters.
#[test]
fn parental_control_block_cycle() {
    let mut net = Network::new(2003);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![
            Box::new(ParentalControl::new(&[(ip(1), ip(4))])),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(4))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let kid = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let _other = fx.attach_host(&mut net, 0, 2).expect("free access port");
    let _site = fx.attach_host(&mut net, 0, 3).expect("free access port");
    let _blocked_site = fx.attach_host(&mut net, 0, 4).expect("free access port");
    net.run_until(SimTime::from_millis(100));

    // Initial blocklist applies from handshake.
    assert!(!ping_works(&mut net, kid, 4), "pre-seeded block enforced");
    assert!(ping_works(&mut net, kid, 3), "other destinations fine");

    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let pc = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<ParentalControl>())
                .unwrap();
            pc.unblock(handle, ip(1), ip(4));
        });
    });
    net.run_for(SimTime::from_millis(50));
    assert!(ping_works(&mut net, kid, 4), "unblock restores access");

    let mut counts = (0u64, 0u64);
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, _| {
        if let Some(pc) = c.app_mut::<ParentalControl>() {
            counts = (pc.blocks_installed(), pc.unblocks_installed());
        }
    });
    assert_eq!(counts, (1, 1));
}

/// The admin channel: a manager-style node can point a running switch at
/// a controller mid-simulation and the handshake completes.
#[test]
fn admin_set_controller_mid_run() {
    let mut net = Network::new(2004);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut sw = SoftSwitchNode::new(
        "ss",
        softswitch::datapath::DpConfig::software(0x99),
        1,
        1024,
        softswitch::CostModel::default(),
    );
    sw.add_port(1, "p1", 1_000_000);
    let s = net.add_node(sw);
    // No controller configured; run for a while.
    net.run_until(SimTime::from_millis(50));
    assert!(net.node_ref::<ControllerNode>(ctrl).switch(s).is_none());
    // Any node can deliver the admin message; use the controller node's
    // context for convenience.
    net.with_node_ctx::<ControllerNode, _>(ctrl, |_c, ctx| {
        ctx.ctrl_send(s, admin_set_controller(ctrl));
    });
    net.run_for(SimTime::from_millis(50));
    let st = net
        .node_ref::<ControllerNode>(ctrl)
        .switch(s)
        .expect("handshake happened");
    assert!(st.ready, "features + port-desc exchange completed");
    assert_eq!(st.dpid, 0x99);
}
