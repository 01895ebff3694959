//! E5 — the three use cases showcased in the demo (Fig. 1), each run as a
//! measured experiment over a migrated HARMLESS switch:
//!
//! * **a) Load Balancer** — ingress web traffic from 1024 client IPs is
//!   spread over 4 backends by source-IP matching; we report per-backend
//!   shares and Jain's fairness index.
//! * **b) DMZ** — a pairwise access policy over 8 tenant VMs,
//!   default-deny; we count reachable pairs before/after.
//! * **c) Parental Control** — per-user destination blocks applied and
//!   lifted on-the-fly; we report enforcement latency in pings.
//!
//! `cargo run --release -p bench --bin exp_usecases [lb|dmz|pc]`

use controller::apps::lb::Backend;
use controller::apps::{Dmz, LearningSwitch, LoadBalancer, ParentalControl};
use controller::ControllerNode;
use harmless::fabric::FabricSpec;
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{Network, NodeId, PortId, SimTime};
use std::any::Any;

use bench::{jain_index, render_table};

fn lb() {
    println!("\nE5a: Load Balancer over HARMLESS (1024 client IPs, 4 backends)");
    let mut net = Network::new(55);
    let n_backends = 4u16;
    let vip: std::net::Ipv4Addr = "10.0.0.100".parse().unwrap();
    let backends: Vec<Backend> = (1..=n_backends)
        .map(|i| Backend {
            port: u32::from(i) + 1, // SS_2 ports 2..=5
            mac: netpkt::MacAddr::host(u32::from(i) + 1),
            ip: std::net::Ipv4Addr::new(10, 0, 0, (i + 1) as u8),
        })
        .collect();
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![
            Box::new(LoadBalancer::new(vip, 80, backends).udp()),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(5)) // port 1 uplink, 2..=5 backends
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    // Client uplink: 1024 distinct source IPs sending to the VIP.
    let flows: Vec<FlowSpec> = (0..1024u32)
        .map(|i| FlowSpec {
            src_mac: netpkt::MacAddr::host(0x1000 + i),
            dst_mac: netpkt::MacAddr::host(0xbbbb), // VIP MAC
            src_ip: std::net::Ipv4Addr::from(0xc0a8_0000 + i), // 192.168.x.x
            dst_ip: vip,
            src_port: 30000 + (i % 1000) as u16,
            dst_port: 80,
            frame_len: 128,
        })
        .collect();
    let g = net.add_node(
        Generator::new(
            "clients",
            PortId(0),
            Pattern::Cbr { pps: 20_000.0 },
            flows,
            SimTime::from_millis(100),
            SimTime::from_millis(600),
        )
        .with_random_flows(),
    );
    fx.attach_node(&mut net, 0, 1, g).expect("free access port");
    let sinks: Vec<NodeId> = (2..=5u16)
        .map(|p| {
            let s = net.add_node(Sink::new(format!("backend{p}")));
            fx.attach_node(&mut net, 0, p, s).expect("free access port");
            s
        })
        .collect();
    net.run_until(SimTime::from_secs(1));

    let counts: Vec<u64> = sinks
        .iter()
        .map(|&s| net.node_ref::<Sink>(s).received())
        .collect();
    let total: u64 = counts.iter().sum();
    let shares: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / total.max(1) as f64)
        .collect();
    let rows: Vec<Vec<String>> = counts
        .iter()
        .zip(&shares)
        .enumerate()
        .map(|(i, (c, s))| {
            vec![
                format!("backend{}", i + 1),
                c.to_string(),
                format!("{:.1}%", s * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table("per-backend share", &["backend", "frames", "share"], &rows)
    );
    println!(
        "delivered {total} frames; Jain fairness index = {:.4} (1.0 = perfect)",
        jain_index(&shares)
    );
}

fn dmz() {
    println!("\nE5b: DMZ policy over HARMLESS (8 tenant VMs, default deny)");
    let mut net = Network::new(56);
    // Policy: VM1<->VM2 and VM3<->VM4 may talk; everything else denied.
    let ip = |i: u16| std::net::Ipv4Addr::new(10, 0, 0, i as u8);
    let pairs = vec![(ip(1), ip(2)), (ip(3), ip(4))];
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![
            Box::new(Dmz::new(&pairs)),
            Box::new(LearningSwitch::new().in_table(1)),
        ],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(8))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let hosts: Vec<NodeId> = (1..=8)
        .map(|i| fx.attach_host(&mut net, 0, i).expect("free access port"))
        .collect();
    net.run_until(SimTime::from_millis(200));

    // Every ordered pair pings once.
    for (i, &a) in hosts.iter().enumerate() {
        for j in 1..=8u16 {
            if (i + 1) as u16 == j {
                continue;
            }
            net.with_node_ctx::<Host, _>(a, |h, ctx| {
                h.ping(b"dmz probe", ip(j));
                h.flush(ctx);
            });
        }
    }
    net.run_until(SimTime::from_secs(2));

    let mut rows = Vec::new();
    let mut reachable = 0;
    for (i, &a) in hosts.iter().enumerate() {
        let replies = net.node_ref::<Host>(a).echo_replies_received();
        reachable += replies;
        rows.push(vec![format!("VM{}", i + 1), replies.to_string()]);
    }
    println!(
        "{}",
        render_table(
            "echo replies received per VM (out of 7 probes each)",
            &["vm", "replies"],
            &rows
        )
    );
    println!(
        "reachable directed pairs: {reachable} of 56 probed; policy allows exactly 4\n\
         (VM1<->VM2, VM3<->VM4). Everything else was dropped by SS_2's DMZ table."
    );
}

fn pc() {
    println!("\nE5c: Parental Control over HARMLESS (on-the-fly blocking)");
    let mut net = Network::new(57);
    let ip = |i: u16| std::net::Ipv4Addr::new(10, 0, 0, i as u8);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
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
    let kid = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let _other = fx.attach_host(&mut net, 0, 2).expect("free access port");
    let _site_a = fx.attach_host(&mut net, 0, 3).expect("free access port"); // "the web page"
    let _site_b = fx.attach_host(&mut net, 0, 4).expect("free access port");
    net.run_until(SimTime::from_millis(200));

    let probe = |net: &mut Network, from: NodeId, to: u16| -> u64 {
        let before = net.node_ref::<Host>(from).echo_replies_received();
        net.with_node_ctx::<Host, _>(from, |h, ctx| {
            h.ping(b"probe", ip(to));
            h.flush(ctx);
        });
        net.run_for(SimTime::from_millis(300));
        net.node_ref::<Host>(from).echo_replies_received() - before
    };

    let phase1_site_a = probe(&mut net, kid, 3);
    let phase1_site_b = probe(&mut net, kid, 4);

    // The parent blocks site A for the kid, mid-run.
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let pc = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<ParentalControl>())
                .expect("app registered");
            pc.block(handle, ip(1), ip(3));
        });
    });
    net.run_for(SimTime::from_millis(50));
    let phase2_site_a = probe(&mut net, kid, 3);
    let phase2_site_b = probe(&mut net, kid, 4);

    // And lifts it again.
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        c.for_each_switch(ctx, |apps, handle| {
            let pc = apps
                .iter_mut()
                .find_map(|a| (a.as_mut() as &mut dyn Any).downcast_mut::<ParentalControl>())
                .expect("app registered");
            pc.unblock(handle, ip(1), ip(3));
        });
    });
    net.run_for(SimTime::from_millis(50));
    let phase3_site_a = probe(&mut net, kid, 3);

    let rows = vec![
        vec![
            "before block".into(),
            phase1_site_a.to_string(),
            phase1_site_b.to_string(),
        ],
        vec![
            "blocked".into(),
            phase2_site_a.to_string(),
            phase2_site_b.to_string(),
        ],
        vec!["unblocked".into(), phase3_site_a.to_string(), "-".into()],
    ];
    println!(
        "{}",
        render_table(
            "kid's ping success per phase (1 = reachable, 0 = denied)",
            &["phase", "site-A", "site-B"],
            &rows,
        )
    );
    println!(
        "policy propagation is one control-channel round-trip (~100 µs\n\
         simulated); only the (user, destination) pair is affected."
    );
}

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("lb") => lb(),
        Some("dmz") => dmz(),
        Some("pc") => pc(),
        _ => {
            lb();
            dmz();
            pc();
        }
    }
}
