//! E3 — the paper's criticism of COTS SDN: "notorious for … not scaling,
//! and offering unpredictable performance" (ref 13 in the paper).
//!
//! Three sub-experiments:
//!
//! * **E3a — rule-install latency vs rule count.** The management CPU of
//!   a hardware switch writes TCAM entries serially (~250/s); a software
//!   switch takes flow-mods at channel speed. We measure simulated
//!   wall-clock from first flow-mod to barrier-reply, plus the point
//!   where the COTS TCAM overflows (`TABLE_FULL`).
//! * **E3b — forwarding throughput vs installed rules.** ACL-style rule
//!   sets of growing size; traffic spread uniformly across the rules.
//!   Software modes: linear scan collapses, TSS/full stay flat.
//! * **E3c — fabric-scale controller convergence.** A multi-pod
//!   [`FabricSpec`] topology (default 2 pods × 512 hosts behind a
//!   software spine) where every host pings a cross-pod partner and the
//!   single learning controller must converge over all datapaths.
//!
//! `cargo run --release -p bench --bin exp_scaling [install|forwarding|fabric] [pods] [hosts]`
//! — no argument runs all three; `fabric 2 16` is the CI smoke size.

use bytes::Bytes;

use bench::{fmt_mpps, render_table};
use controller::apps::{ArpProxy, LearningSwitch};
use controller::{App, ControllerNode};
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use legacy_switch::{CotsConfig, CotsSwitchNode};
use netsim::host::Host;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{LinkSpec, Network, Node, NodeCtx, NodeId, PortId, SimTime};
use openflow::message::{FlowMod, Message};
use openflow::{Action, Match};
use softswitch::datapath::{DpConfig, PipelineMode};
use softswitch::{CostModel, SoftSwitchNode};

/// ACL rule i: match (src /16 block, udp_dst) -> output 2. The first
/// 30000 rules cover the generator's 10.0.0.0/16 sources.
fn acl_rule(i: u32) -> FlowMod {
    FlowMod::add(0)
        .priority(10)
        .match_(
            Match::new()
                .eth_type(0x0800)
                .ip_proto(17)
                .udp_dst(1000 + (i % 30000) as u16)
                .ipv4_src_masked(
                    std::net::Ipv4Addr::from(0x0a00_0000 + ((i / 30000) << 16)),
                    std::net::Ipv4Addr::new(255, 255, 0, 0),
                ),
        )
        .apply(vec![Action::output(2)])
}

/// A controller that pushes n rules + barrier and records completion time.
struct RuleLoader {
    n_rules: u32,
    done_at: Option<SimTime>,
    errors: u64,
    started: bool,
}

impl Node for RuleLoader {
    fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        // Every chunk holds whole messages: decode them in place.
        let mut rest = &data[..];
        while let Ok((_, m, len)) = Message::decode(rest) {
            rest = rest.get(len..).unwrap_or_default();
            match m {
                Message::Hello if !self.started => {
                    self.started = true;
                    let mut blob = bytes::BytesMut::new();
                    Message::Hello.encode_into(&mut blob, 1);
                    for i in 0..self.n_rules {
                        Message::FlowMod(acl_rule(i)).encode_into(&mut blob, i + 2);
                    }
                    Message::BarrierRequest.encode_into(&mut blob, self.n_rules + 2);
                    ctx.ctrl_send(from, blob.freeze());
                }
                Message::BarrierReply => self.done_at = Some(ctx.now()),
                Message::Error { .. } => self.errors += 1,
                _ => {}
            }
        }
    }
}

fn install_latency(n_rules: u32, cots: bool) -> (Option<SimTime>, u64) {
    let mut net = Network::new(3);
    let loader = net.add_node(RuleLoader {
        n_rules,
        done_at: None,
        errors: 0,
        started: false,
    });
    if cots {
        let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
        sw.connect_controller(loader);
        net.add_node(sw);
    } else {
        let mut sw =
            SoftSwitchNode::new("ss", DpConfig::software(1), 1, 4096, CostModel::default());
        sw.add_port(1, "p1", 1_000_000);
        sw.add_port(2, "p2", 1_000_000);
        sw.connect_controller(loader);
        net.add_node(sw);
    }
    net.run_until(SimTime::from_secs(120));
    let l = net.node_ref::<RuleLoader>(loader);
    (l.done_at, l.errors)
}

fn throughput_with_rules(n_rules: u32, mode: PipelineMode) -> f64 {
    let mut net = Network::new(4);
    let mut sw = SoftSwitchNode::new(
        "ss",
        DpConfig::software(1).with_mode(mode),
        1,
        4096,
        CostModel::default(),
    );
    sw.add_port(1, "p1", 10_000_000);
    sw.add_port(2, "p2", 10_000_000);
    {
        let dp = sw.datapath_mut();
        for i in 0..n_rules {
            dp.apply_flow_mod(&acl_rule(i), 0).unwrap();
        }
    }
    let sw = net.add_node(sw);
    // Traffic spread across min(n_rules, 512) distinct rules so caches
    // cannot collapse everything into one path.
    let n_flows = n_rules.clamp(1, 512);
    let flows: Vec<FlowSpec> = (0..n_flows)
        .map(|i| {
            let mut f = FlowSpec::simple(1, 2, 60);
            f.dst_port = 1000 + (i % 30000) as u16;
            f
        })
        .collect();
    let g = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps: 2_000_000.0 },
        flows,
        SimTime::from_millis(5),
        SimTime::from_millis(55),
    ));
    let s = net.add_node(Sink::new("sink"));
    net.connect(g, PortId(0), sw, PortId(1), LinkSpec::ten_gigabit());
    net.connect(sw, PortId(2), s, PortId(0), LinkSpec::ten_gigabit());
    net.run_until(SimTime::from_millis(150));
    let received = net.node_ref::<Sink>(s).received();
    received as f64 / 0.050
}

/// E3c: pods × hosts fabric, every host pings its partner in the next
/// pod, one learning controller over all datapaths.
///
/// With `threads = None` the classic single-queue loop runs the whole
/// fabric; with `Some(n)` the network is sharded along
/// [`harmless::Fabric::shard_map`] (one shard per pod + the system
/// shard) and executed on the persistent worker pool (`n == 0`
/// auto-detects via `available_parallelism`). Simulation results are
/// identical either way — the engine only changes wall-clock.
///
/// With `arp_proxy` the fabric's host table feeds a controller-side
/// [`ArpProxy`] chained before the learning app: who-has punts are
/// answered at the pod edge and proactive routes keep unicast traffic
/// off the control channel, so round-1 packet-ins collapse from
/// O(hosts²) to one per host (asserted: ≤ hosts + pods).
///
/// `rounds` ≥ 2 staggered all-hosts ping rounds run back to back;
/// rounds past the first must be lossless with zero packet-ins. Round
/// counts above 2 exercise the runtime's pool reuse — hundreds of
/// `run_for` windows on the same parked workers.
fn fabric_convergence(
    n_pods: u16,
    hosts_per_pod: u16,
    threads: Option<usize>,
    arp_proxy: bool,
    rounds: u32,
) {
    if n_pods < 2 || hosts_per_pod == 0 {
        eprintln!(
            "E3c needs at least 2 pods and 1 host per pod \
             (cross-pod partners), got {n_pods} x {hosts_per_pod}"
        );
        std::process::exit(2);
    }
    println!(
        "\nE3c: fabric-scale convergence — {n_pods} pods x {hosts_per_pod} hosts, \
         software spine, one learning controller{}",
        if arp_proxy { " + ARP proxy" } else { "" }
    );
    let mut net = Network::new(5);
    let mut apps: Vec<Box<dyn App>> = Vec::new();
    if arp_proxy {
        apps.push(Box::new(ArpProxy::new()));
    }
    apps.push(Box::new(LearningSwitch::new()));
    let ctrl = net.add_node(ControllerNode::new("ctrl", apps));
    // Fat pods: multi-core software switches and deep RX rings so the
    // ARP flood bursts of hundreds of hosts do not tail-drop.
    let mut pod = HarmlessSpec::new(hosts_per_pod).with_cores(8);
    pod.rx_queue = 1 << 16;
    let mut fx = FabricSpec::new(n_pods, pod)
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(arp_proxy)
        .build(&mut net)
        .expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..usize::from(n_pods) {
        hosts.push(
            (1..=hosts_per_pod)
                .map(|i| fx.attach_host(&mut net, p, i).expect("free access port"))
                .collect(),
        );
    }
    if let Some(t) = threads {
        net.set_shards(&fx.shard_map());
        net.set_threads(t);
    }
    // Read after set_threads: the threads that run, at most one per
    // shard, whatever `--threads` asked for (0 auto-detects). The
    // engine choice goes to stderr: stdout must stay byte-identical for
    // every engine/thread configuration (the determinism contract).
    let engine = match threads {
        None => "single-queue".to_string(),
        Some(_) => format!(
            "sharded, {} shards, {} thread(s)",
            n_pods + 1,
            net.threads()
        ),
    };
    eprintln!("(engine: {engine})");
    net.run_until(SimTime::from_millis(100));
    assert!(fx.all_pods_connected(&net));

    // Every host pings its partner (same port) in the next pod,
    // staggered per port index so the ARP floods do not all land in the
    // same instant. Each step's n_pods broadcasts fan out to every host
    // (pods × hosts copies through every pod's SS1/SS2/legacy), so the
    // step must scale with fabric size or the offered flood load
    // exceeds pod service capacity and queues build across the whole
    // round. 4 pods × 512 hosts (2048 hosts) sits at the knee at
    // 400 µs; scale linearly with 2× headroom from there (2048 hosts →
    // 800 µs, 8192 → 3200 µs). Fabrics of ≤ 1024 hosts keep the
    // classic 400 µs, so the recorded 2×512 baseline is unchanged.
    let total_hosts = u64::from(n_pods) * u64::from(hosts_per_pod);
    let step = SimTime::from_micros((total_hosts * 800 / 2048).max(400));
    let ping_round = |net: &mut Network, fx: &harmless::Fabric, hosts: &[Vec<NodeId>]| {
        for i in 1..=hosts_per_pod {
            for (p, pod_hosts) in hosts.iter().enumerate() {
                let target = fx.host_ip((p + 1) % usize::from(n_pods), i);
                let h = pod_hosts[usize::from(i) - 1];
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(b"fabric-scale", target);
                    h.flush(ctx);
                });
            }
            net.run_for(step);
        }
        net.run_for(SimTime::from_millis(500));
    };
    let t0 = std::time::Instant::now();
    ping_round(&mut net, &fx, &hosts);
    let wall_round1 = t0.elapsed();

    let total_pings = u64::from(n_pods) * u64::from(hosts_per_pod);
    let replies: u64 = hosts
        .iter()
        .flatten()
        .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    let (pi_round1, fm_round1, datapaths) = {
        let c = net.node_ref::<ControllerNode>(ctrl);
        (c.packet_ins(), c.flow_mods_sent(), c.ready_switches())
    };

    // Second round over the converged fabric: ARP caches are warm and
    // every MAC pair has rules installed, so the controller must stay
    // silent and the pings must ride the fast path.
    let t1 = std::time::Instant::now();
    ping_round(&mut net, &fx, &hosts);
    let wall_round2 = t1.elapsed();
    let replies2: u64 = hosts
        .iter()
        .flatten()
        .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    let pi_round2 = net.node_ref::<ControllerNode>(ctrl).packet_ins() - pi_round1;

    // Rounds 3..=rounds over the converged fabric (the CI smoke uses
    // this to stress pool reuse: every round is hundreds of `run_for`
    // windows on the same parked workers).
    let t2 = std::time::Instant::now();
    for _ in 2..rounds {
        ping_round(&mut net, &fx, &hosts);
    }
    let wall_extra = t2.elapsed();
    let replies_all: u64 = hosts
        .iter()
        .flatten()
        .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    let extra_replies = replies_all - replies2;
    let extra_pi = net.node_ref::<ControllerNode>(ctrl).packet_ins() - pi_round1 - pi_round2;

    let proxied = if arp_proxy {
        net.node_mut::<ControllerNode>(ctrl)
            .app_mut::<ArpProxy>()
            .map(|p| p.answered())
    } else {
        None
    };
    let mut rows = vec![
        vec!["datapaths (pods + spine)".into(), datapaths.to_string()],
        vec!["hosts".into(), total_pings.to_string()],
        vec!["round 1 replies".into(), format!("{replies}/{total_pings}")],
        vec!["round 1 packet-ins".into(), pi_round1.to_string()],
        vec!["round 1 flow-mods".into(), fm_round1.to_string()],
        vec![
            "round 2 replies".into(),
            format!("{}/{total_pings}", replies2 - replies),
        ],
        vec!["round 2 packet-ins".into(), pi_round2.to_string()],
    ];
    if let Some(answered) = proxied {
        rows.push(vec!["proxied ARP answers".into(), answered.to_string()]);
    }
    if rounds > 2 {
        rows.push(vec![
            format!("rounds 3-{rounds} replies"),
            format!("{extra_replies}/{}", u64::from(rounds - 2) * total_pings),
        ]);
        rows.push(vec![
            format!("rounds 3-{rounds} packet-ins"),
            extra_pi.to_string(),
        ]);
    }
    // Fabric-wide rollup on the shared counter surface the hybrid
    // engine reports through (`netsim::stats::Rollup`): E3c is pure
    // packet-level, so every delivered byte is simulated and the
    // flow-level counters must read zero. `exp_flowsim` fills them in.
    let mut rollup = netsim::stats::Rollup::new();
    rollup.absorb(
        net.delivered_frames(),
        net.delivered_bytes(),
        &Default::default(),
    );
    rollup.bytes_simulated = net.delivered_bytes();
    rows.push(vec![
        "delivered frames / bytes".into(),
        format!("{} / {}", rollup.frames, rollup.bytes),
    ]);
    rows.push(vec![
        "flows promoted / demoted".into(),
        format!("{} / {}", rollup.flows_promoted, rollup.flows_demoted),
    ]);
    rows.push(vec![
        "bytes modeled / simulated".into(),
        format!("{} / {}", rollup.bytes_modeled, rollup.bytes_simulated),
    ]);
    rows.push(vec![
        "sim events".into(),
        net.events_processed().to_string(),
    ]);
    println!(
        "{}",
        render_table(
            "cross-pod all-hosts ping, learning controller",
            &["metric", "value"],
            &rows,
        )
    );
    // Per-pod convergence rollup: every pod must account for all of its
    // hosts in every round (the controller converges *everywhere*, not
    // just in aggregate).
    let pod_rows: Vec<Vec<String>> = hosts
        .iter()
        .enumerate()
        .map(|(p, pod_hosts)| {
            let (mut r, mut ans, mut rx) = (0u64, 0u64, 0u64);
            for &h in pod_hosts {
                let host = net.node_ref::<Host>(h);
                r += host.echo_replies_received();
                ans += host.echo_requests_answered();
                rx += host.rx_frames();
            }
            assert_eq!(
                r,
                u64::from(rounds) * u64::from(hosts_per_pod),
                "pod {p} must see replies for all {rounds} rounds"
            );
            vec![
                format!("pod{p}"),
                pod_hosts.len().to_string(),
                r.to_string(),
                ans.to_string(),
                rx.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "per-pod rollup (all rounds)",
            &["pod", "hosts", "echo replies", "echo answered", "rx frames"],
            &pod_rows,
        )
    );
    // Host wall-clock varies run to run; keep stdout byte-identical
    // (the golden-file test diffs it) and report on stderr.
    let wall_s = wall_round1.as_secs_f64() + wall_round2.as_secs_f64() + wall_extra.as_secs_f64();
    let events = net.events_processed();
    eprintln!(
        "(host wall-clock: round 1 {:.2}s, round 2 {:.2}s, {:.0} events/s [{engine}])",
        wall_round1.as_secs_f64(),
        wall_round2.as_secs_f64(),
        events as f64 / wall_s
    );
    assert_eq!(replies, total_pings, "round 1 must fully converge");
    assert_eq!(replies2 - replies, total_pings, "round 2 must be lossless");
    assert_eq!(
        pi_round2, 0,
        "a converged learning fabric punts nothing to the controller"
    );
    assert_eq!(
        extra_replies,
        u64::from(rounds - 2) * total_pings,
        "every extra round must be lossless"
    );
    assert_eq!(extra_pi, 0, "extra rounds must stay off the control plane");
    if arp_proxy {
        assert!(
            pi_round1 <= total_hosts + u64::from(n_pods),
            "ARP proxy must contain round-1 floods: {pi_round1} packet-ins \
             for {total_hosts} hosts + {n_pods} pods"
        );
        assert_eq!(
            proxied,
            Some(total_hosts),
            "every host's one who-has is answered at the pod edge"
        );
    }
    println!(
        "Reading: one reactive controller converges a {n_pods}-pod fabric in a\n\
         single ping round — every cross-pod path is pinned by round 2 and\n\
         the control plane goes silent. Pods are the shard boundary the\n\
         sharded event loop exploits: all flood fan-out stays inside the\n\
         pod that triggered it, so each pod runs on its own queue (and\n\
         thread) between uplink/controller synchronization horizons."
    );
    if arp_proxy {
        println!(
            "With --arp-proxy the controller answers who-has punts at the pod\n\
             edge from the fabric-wide host table and pre-installs host routes,\n\
             so round 1 costs one packet-in per host instead of a fabric-wide\n\
             broadcast per host — O(hosts), not O(hosts^2)."
        );
    }
}

fn install_sweep() {
    println!("E3: COTS scaling limits vs software, seed 3/4");

    let mut rows = Vec::new();
    for n in [64u32, 256, 1024, 2048, 4096] {
        let (soft, soft_err) = install_latency(n, false);
        let (cots, cots_err) = install_latency(n, true);
        rows.push(vec![
            n.to_string(),
            soft.map(|t| format!("{t}")).unwrap_or_else(|| "-".into()),
            soft_err.to_string(),
            cots.map(|t| format!("{t}")).unwrap_or_else(|| "-".into()),
            cots_err.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "E3a: time to install N rules (barrier-fenced) and TABLE_FULL errors",
            &["rules", "software", "err", "cots-sdn", "err"],
            &rows,
        )
    );
}

fn forwarding_sweep() {
    let mut rows = Vec::new();
    for n in [16u32, 128, 1024, 8192, 32768] {
        let linear = throughput_with_rules(n, PipelineMode::linear());
        let tss = throughput_with_rules(n, PipelineMode::tss());
        let full = throughput_with_rules(n, PipelineMode::full());
        rows.push(vec![
            n.to_string(),
            fmt_mpps(linear),
            fmt_mpps(tss),
            fmt_mpps(full),
        ]);
    }
    println!(
        "{}",
        render_table(
            "E3b: software forwarding (Mpps, 64B, offered 2 Mpps, 512-flow mix) vs installed rules",
            &["rules", "linear", "tss", "full-caches"],
            &rows,
        )
    );
    println!(
        "Reading: the COTS management CPU needs seconds for rule sets the\n\
         software switch absorbs in milliseconds, and its TCAM rejects\n\
         everything past 2×2048 entries. On the software side the naive\n\
         linear datapath collapses with rule count while the TSS/cached\n\
         pipeline stays flat — why HARMLESS can promise 'no limitation on\n\
         the desired packet forwarding policy'."
    );
}

/// What `--threads 0` is for, with the ledger rows that show why.
const THREADS_HELP: &str = "--threads 0 auto-detects the worker count and is meant for \
     multi-core hosts: BENCH_netsim.json reads netloop/fabric_4x16 at 1.58 M events/s for \
     sharded_t1 and 0.27 M for sharded_tauto on a two-vCPU box";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` selects the sharded engine (one shard per pod + the
    // system shard) on N worker threads — `0` auto-detects via
    // `available_parallelism`; without the flag the classic single-queue
    // loop runs, so the two engines can be compared on the same
    // scenario.
    let mut threads: Option<usize> = None;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n = args.get(i + 1).and_then(|s| s.parse::<usize>().ok());
        let Some(n) = n else {
            eprintln!(
                "--threads needs a non-negative integer; omit the flag for \
                 the single-queue engine. {THREADS_HELP}"
            );
            std::process::exit(2);
        };
        threads = Some(n);
        args.drain(i..=i + 1);
    }
    // `--arp-proxy` turns on the fabric's controller-side flood
    // containment (FabricSpec::arp_proxy + the ArpProxy app).
    let mut arp_proxy = false;
    if let Some(i) = args.iter().position(|a| a == "--arp-proxy") {
        arp_proxy = true;
        args.remove(i);
    }
    // `--rounds N` (default 2, minimum 2): extra converged ping rounds —
    // the round-2-silence contract is asserted for every one of them.
    let mut rounds: u32 = 2;
    if let Some(i) = args.iter().position(|a| a == "--rounds") {
        let n = args.get(i + 1).and_then(|s| s.parse::<u32>().ok());
        let Some(n @ 2..) = n else {
            eprintln!("--rounds needs an integer ≥ 2 (the default)");
            std::process::exit(2);
        };
        rounds = n;
        args.drain(i..=i + 1);
    }
    let parse = |i: usize, default: u16| -> u16 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    match args.first().map(String::as_str) {
        Some("install") => install_sweep(),
        Some("forwarding") => forwarding_sweep(),
        Some("fabric") => {
            fabric_convergence(parse(1, 2), parse(2, 512), threads, arp_proxy, rounds)
        }
        None => {
            install_sweep();
            forwarding_sweep();
            fabric_convergence(2, 512, threads, arp_proxy, rounds);
        }
        Some(other) => {
            eprintln!(
                "unknown sub-experiment {other:?}; usage: \
                 exp_scaling [install|forwarding|fabric [pods] [hosts]] \
                 [--threads N] [--arp-proxy] [--rounds N]. {THREADS_HELP}"
            );
            std::process::exit(2);
        }
    }
}
