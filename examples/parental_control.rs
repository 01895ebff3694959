//! Use case (c) from the demo: Parental Control — "selectively deny
//! access to specific users to certain web pages on-the-fly".
//!
//! A home-office network on a migrated legacy switch: a kid's device, a
//! parent's device, and two "web servers". The parent's policy blocks the
//! kid from one site at runtime and lifts the block later; the parent's
//! own access is never affected.
//!
//! Run with: `cargo run --release -p harmless --example parental_control`

use controller::apps::{LearningSwitch, ParentalControl};
use controller::ControllerNode;
use harmless::fabric::FabricSpec;
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, NodeId, SimTime};
use std::any::Any;
use std::net::Ipv4Addr;

fn ip(i: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8)
}

fn fetch(net: &mut Network, from: NodeId, to: u16) -> bool {
    let before = net.node_ref::<Host>(from).syn_acks_received();
    net.with_node_ctx::<Host, _>(from, |h, ctx| {
        h.connect_tcp(ip(to), 80);
        h.flush(ctx);
    });
    net.run_for(SimTime::from_millis(300));
    net.node_ref::<Host>(from).syn_acks_received() > before
}

fn main() {
    let mut net = Network::new(12);
    let ctrl = net.add_node(ControllerNode::new(
        "controller",
        vec![
            Box::new(ParentalControl::new(&[])),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(4))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    let kid = fx.attach_host(&mut net, 0, 1).expect("free port"); // 10.0.0.1
    let parent = fx.attach_host(&mut net, 0, 2).expect("free port"); // 10.0.0.2
    let _site_a = fx.attach_host(&mut net, 0, 3).expect("free port"); // "videos.example"
    let _site_b = fx.attach_host(&mut net, 0, 4).expect("free port"); // "homework.example"
    net.run_until(SimTime::from_millis(100));

    let show = |who: &str, what: &str, ok: bool| {
        println!(
            "  {who:<7} -> {what:<16} {}",
            if ok { "HTTP 200" } else { "timeout (blocked)" }
        )
    };

    println!("phase 1: no policy");
    show("kid", "videos.example", fetch(&mut net, kid, 3));
    show("kid", "homework.example", fetch(&mut net, kid, 4));
    show("parent", "videos.example", fetch(&mut net, parent, 3));

    println!("\nphase 2: parent blocks videos.example for the kid (on-the-fly)");
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let pc = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<ParentalControl>())
                .expect("parental-control app");
            pc.block(handle, ip(1), ip(3));
        });
    });
    net.run_for(SimTime::from_millis(10));
    let kid_videos_blocked = !fetch(&mut net, kid, 3);
    let kid_homework = fetch(&mut net, kid, 4);
    let parent_videos = fetch(&mut net, parent, 3);
    show("kid", "videos.example", !kid_videos_blocked);
    show("kid", "homework.example", kid_homework);
    show("parent", "videos.example", parent_videos);

    println!("\nphase 3: block lifted");
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let pc = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<ParentalControl>())
                .expect("parental-control app");
            pc.unblock(handle, ip(1), ip(3));
        });
    });
    net.run_for(SimTime::from_millis(10));
    let kid_videos_again = fetch(&mut net, kid, 3);
    show("kid", "videos.example", kid_videos_again);

    assert!(kid_videos_blocked, "block must take effect");
    assert!(kid_homework && parent_videos, "other traffic untouched");
    assert!(kid_videos_again, "unblock must restore access");
    println!("\nPer-user, per-destination control applied and lifted live, in-network.");
}
