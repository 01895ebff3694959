//! E8 — flow-level hybrid simulation: converged traffic epochs on
//! million-host fabrics.
//!
//! Packet-level fidelity is wasted on converged traffic: once every hop
//! serves a flow from its micro/megaflow cache, each frame replays a
//! cached recipe and the event count is pure overhead. The hybrid
//! engine ([`netsim::flowsim`]) promotes station bundles out of the
//! packet engine once their whole path is cache-resident and quiet,
//! advances them as conservative-window rate/volume credits, and
//! demotes them on any disturbance. This experiment drives it with a
//! heavy-tailed elephant/mice traffic matrix
//! ([`netsim::traffic::TrafficMatrix`]) over a HARMLESS fabric:
//!
//! * each pod sources `bundles-per-pod` station bundles (one
//!   generator→sink pair each, `flows-per-bundle` host flows per pair),
//!   so `64 pods × 8 bundles × 2048 flows ≈ 1M` host flows;
//! * the epoch runs packet-level until bundles converge and promote,
//!   then the rest of the epoch is window arithmetic;
//! * the speedup claim is events: the hybrid run's event count versus
//!   the packet projection (measured events-per-frame during the run's
//!   own packet phase × total frames).
//!
//! ```text
//! cargo run --release -p bench --bin exp_flowsim -- \
//!     [pods] [hosts-per-pod] [--engine hybrid|packet] [--epoch SECS] \
//!     [--threads N] [--quick]
//! ```
//!
//! Defaults: 64 pods × 16384 hosts (8 bundles × 2048 flows per pod),
//! hybrid engine, 300 s epoch. `--threads 0` auto-detects the worker
//! count and is meant for multi-core hosts (the ledger's
//! `netloop/fabric_4x16` rows: 1.58 M events/s at `sharded_t1`, 0.27 M
//! at `sharded_tauto` on a two-vCPU box). `--quick` is the small run
//! the golden-file test pins (4 pods × 64 hosts, both engines,
//! equivalence + speedup asserted). EXPERIMENTS.md's 16 × 512 pair is
//! `16 512 --epoch 150 --engine packet` and `--engine hybrid`.

use bench::render_table;
use controller::apps::{ArpProxy, LearningSwitch};
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::flowsim::{FlowSim, HybridStats};
use netsim::stats::Rollup;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink, TrafficMatrix};
use netsim::{Network, NodeId, PortId, SimTime};

const SEED: u64 = 31;
/// Traffic starts here; the fabric (controller handshakes, proactive
/// routes) must be converged by then.
const T0: SimTime = SimTime::from_millis(500);
/// The aggregation clock of the hybrid driver.
const WINDOW: SimTime = SimTime::from_millis(250);

struct EpochResult {
    n_bundles: usize,
    total_flows: u64,
    offered_pps: f64,
    frames_sent: u64,
    frames_rx: u64,
    rx_bytes: u64,
    /// Events over the traffic phase only.
    events: u64,
    stats: HybridStats,
    all_done: bool,
    wall: std::time::Duration,
    rollup: Rollup,
}

impl EpochResult {
    /// Frames that went through the packet engine (not credited).
    fn packet_frames(&self) -> u64 {
        self.frames_sent - self.stats.frames_modeled
    }

    /// Measured events per packet-level frame during this run.
    fn events_per_frame(&self) -> f64 {
        self.events as f64 / self.packet_frames().max(1) as f64
    }

    /// Projected events of a pure packet run of the same epoch.
    fn packet_projection(&self) -> f64 {
        self.events_per_frame() * self.frames_sent as f64
    }

    /// Event-count speedup of this run versus the packet projection.
    fn speedup(&self) -> f64 {
        self.packet_projection() / self.events.max(1) as f64
    }
}

/// Build the fabric + stations for a traffic matrix, run one epoch
/// under the selected engine, and collect every observable.
fn run_epoch(
    pods: u16,
    bundles_per_pod: u16,
    flows_per_bundle: u32,
    hybrid: bool,
    threads: Option<usize>,
    epoch: SimTime,
) -> EpochResult {
    let matrix = TrafficMatrix::heavy_tailed(SEED, pods, bundles_per_pod, flows_per_bundle);
    // Port plan: sources take ports 1..=bundles_per_pod of their pod;
    // sinks take the ports above, one per inbound demand. All pods
    // share one HarmlessSpec, so the port count must cover the busiest
    // sink pod.
    let mut inbound = vec![0u16; usize::from(pods)];
    for d in matrix.demands() {
        inbound[usize::from(d.dst_pod)] += 1;
    }
    let n_ports = bundles_per_pod + inbound.iter().copied().max().unwrap_or(0);

    let mut net = Network::new(SEED);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
    ));
    let mut pod = HarmlessSpec::new(n_ports).with_cores(8);
    pod.rx_queue = 1 << 16;
    let mut fx = FabricSpec::new(pods, pod)
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true)
        .build(&mut net)
        .expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    // One station pair per demand, with the ports' fabric identities
    // and staggered starts so bundles do not tick in lockstep.
    type Pair = (NodeId, NodeId, (usize, u16), (usize, u16));
    let mut next_src = vec![1u16; usize::from(pods)];
    let mut next_sink = vec![bundles_per_pod + 1; usize::from(pods)];
    let mut pairs: Vec<Pair> = Vec::new();
    for (b, d) in matrix.demands().iter().enumerate() {
        let (sp, dp) = (usize::from(d.src_pod), usize::from(d.dst_pod));
        let src = (sp, next_src[sp]);
        next_src[sp] += 1;
        let dst = (dp, next_sink[dp]);
        next_sink[dp] += 1;
        let flows: Vec<FlowSpec> = (0..d.n_flows)
            .map(|i| {
                let mut f = FlowSpec::simple(1, 2, d.frame_len);
                f.src_mac = fx.host_mac(src.0, src.1);
                f.src_ip = fx.host_ip(src.0, src.1);
                f.dst_mac = fx.host_mac(dst.0, dst.1);
                f.dst_ip = fx.host_ip(dst.0, dst.1);
                f.src_port = 1_000 + (i % 30_000) as u16;
                f.dst_port = 20_000 + (i % 30_000) as u16;
                f
            })
            .collect();
        let start = T0 + SimTime::from_micros(13 * b as u64);
        let g = net.add_node(Generator::new(
            format!("gen{b}"),
            PortId(0),
            Pattern::Cbr { pps: d.pps },
            flows,
            start,
            start + epoch,
        ));
        let s = net.add_node(Sink::new(format!("sink{b}")));
        fx.attach_station(&mut net, src.0, src.1, g)
            .expect("free source port");
        fx.attach_station(&mut net, dst.0, dst.1, s)
            .expect("free sink port");
        pairs.push((g, s, src, dst));
    }
    if let Some(t) = threads {
        let map = fx.shard_map();
        net.set_shards(&map);
        net.set_threads(t);
    }

    net.run_until(T0);
    assert!(fx.all_pods_connected(&net), "fabric must converge by T0");
    let (e0, b0) = (net.events_processed(), net.delivered_bytes());

    let mut fs = if hybrid {
        FlowSim::new(WINDOW)
    } else {
        FlowSim::packet_level(WINDOW)
    };
    for &(_, _, src, dst) in &pairs {
        let spec = fx.flow_bundle(&net, src, dst);
        fs.add_bundle(&net, spec);
    }
    let wall = std::time::Instant::now();
    // Epoch plus a drain window for the packet-level tail.
    fs.run_until(&mut net, T0 + epoch + SimTime::from_secs(2));
    let wall = wall.elapsed();

    let mut frames_sent = 0u64;
    let mut frames_rx = 0u64;
    let mut rx_bytes = 0u64;
    for &(g, s, _, _) in &pairs {
        frames_sent += net.node_ref::<Generator>(g).sent();
        let sink = net.node_ref::<Sink>(s);
        frames_rx += sink.received();
        rx_bytes += sink.rx_bytes();
    }
    let stats = *fs.stats();
    let mut rollup = Rollup::new();
    for p in 0..fx.n_pods() {
        rollup.merge(&fx.pod_rollup(&net, p));
    }
    stats.roll_into(&mut rollup);
    rollup.bytes_simulated = net.delivered_bytes() - b0;
    EpochResult {
        n_bundles: pairs.len(),
        total_flows: matrix.total_flows(),
        offered_pps: matrix.total_pps(),
        frames_sent,
        frames_rx,
        rx_bytes,
        events: net.events_processed() - e0,
        stats,
        all_done: fs.all_done(),
        wall,
        rollup,
    }
}

fn print_epoch(title: &str, r: &EpochResult, epoch: SimTime) {
    let rows = vec![
        vec![
            "bundles x flows".into(),
            format!("{} x {}", r.n_bundles, r.total_flows / r.n_bundles as u64),
        ],
        vec!["host flows".into(), r.total_flows.to_string()],
        vec![
            "offered rate".into(),
            format!("{:.0} pps aggregate", r.offered_pps),
        ],
        vec![
            "epoch".into(),
            format!("{:.0} s + 2 s drain", epoch.as_secs_f64()),
        ],
        vec![
            "frames sent / received".into(),
            format!("{} / {}", r.frames_sent, r.frames_rx),
        ],
        vec!["payload bytes received".into(), r.rx_bytes.to_string()],
        vec![
            "promotions / demotions".into(),
            format!("{} / {}", r.stats.promotions, r.stats.demotions),
        ],
        vec![
            "flows promoted / demoted".into(),
            format!("{} / {}", r.stats.flows_promoted, r.stats.flows_demoted),
        ],
        vec!["window updates".into(), r.stats.window_updates.to_string()],
        vec![
            "bytes modeled / simulated".into(),
            format!("{} / {}", r.rollup.bytes_modeled, r.rollup.bytes_simulated),
        ],
        vec![
            "frames modeled / packet-level".into(),
            format!("{} / {}", r.stats.frames_modeled, r.packet_frames()),
        ],
        vec!["events (traffic phase)".into(), r.events.to_string()],
        vec![
            "events per packet frame".into(),
            format!("{:.1}", r.events_per_frame()),
        ],
        vec![
            "packet projection".into(),
            format!("{:.2e} events", r.packet_projection()),
        ],
        vec!["event speedup".into(), format!("{:.1}x", r.speedup())],
        vec!["all bundles retired".into(), r.all_done.to_string()],
    ];
    println!(
        "{}",
        render_table(&format!("E8: {title}"), &["metric", "value"], &rows)
    );
    // Host wall-clock varies run to run; stdout must stay byte-identical
    // (the repo's determinism check diffs it) so it goes to stderr.
    eprintln!("(host wall-clock: {:.2?})", r.wall);
}

/// CI smoke: a small fabric under both engines — the hybrid engine must
/// reproduce the packet engine's delivered totals exactly while
/// actually promoting, modeling and beating it on events.
fn quick() {
    let epoch = SimTime::from_secs(150);
    let packet = run_epoch(4, 8, 8, false, None, epoch);
    print_epoch(
        "packet engine, 4 pods x 8 bundles x 8 flows",
        &packet,
        epoch,
    );
    let hybrid = run_epoch(4, 8, 8, true, None, epoch);
    print_epoch(
        "hybrid engine, 4 pods x 8 bundles x 8 flows",
        &hybrid,
        epoch,
    );
    assert!(packet.all_done, "packet epoch must retire every bundle");
    assert!(hybrid.all_done, "hybrid epoch must retire every bundle");
    assert_eq!(packet.stats.promotions, 0, "packet arm must not promote");
    assert_eq!(
        (hybrid.frames_sent, hybrid.frames_rx, hybrid.rx_bytes),
        (packet.frames_sent, packet.frames_rx, packet.rx_bytes),
        "hybrid must reproduce the packet engine's delivered totals"
    );
    assert!(
        hybrid.stats.promotions >= hybrid.n_bundles as u64,
        "every bundle should promote on a quiet fabric: {:?}",
        hybrid.stats
    );
    assert!(
        hybrid.stats.frames_modeled > hybrid.packet_frames(),
        "most of a converged epoch should be modeled: {:?}",
        hybrid.stats
    );
    assert!(
        hybrid.events < packet.events,
        "hybrid must beat the packet engine on events: {} vs {}",
        hybrid.events,
        packet.events
    );
    println!(
        "\nE8 quick OK: equivalent totals, {} promotions, {:.1}x measured event reduction",
        hybrid.stats.promotions,
        packet.events as f64 / hybrid.events as f64
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads: Option<usize> = None;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n = args.get(i + 1).and_then(|s| s.parse::<usize>().ok());
        let Some(n) = n else {
            eprintln!("--threads needs a non-negative integer (0 = auto, for multi-core hosts)");
            std::process::exit(2);
        };
        threads = Some(n);
        args.drain(i..=i + 1);
    }
    let mut epoch = SimTime::from_secs(300);
    if let Some(i) = args.iter().position(|a| a == "--epoch") {
        let s = args.get(i + 1).and_then(|s| s.parse::<u64>().ok());
        let Some(s @ 1..) = s else {
            eprintln!("--epoch needs a positive integer (seconds)");
            std::process::exit(2);
        };
        epoch = SimTime::from_secs(s);
        args.drain(i..=i + 1);
    }
    let mut hybrid = true;
    if let Some(i) = args.iter().position(|a| a == "--engine") {
        match args.get(i + 1).map(String::as_str) {
            Some("hybrid") => hybrid = true,
            Some("packet") => hybrid = false,
            _ => {
                eprintln!("--engine needs `hybrid` or `packet`");
                std::process::exit(2);
            }
        }
        args.drain(i..=i + 1);
    }
    if let Some(i) = args.iter().position(|a| a == "--quick") {
        args.remove(i);
        quick();
        return;
    }
    let parse = |i: usize, default: u32| -> u32 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let pods = parse(0, 64) as u16;
    let hosts_per_pod = parse(1, 16_384);
    // 8 bundles per pod; hosts map to flows (64 x 16384 = 1,048,576).
    let bundles_per_pod: u16 = 8;
    let flows_per_bundle = (hosts_per_pod / u32::from(bundles_per_pod)).max(1);
    let r = run_epoch(
        pods,
        bundles_per_pod,
        flows_per_bundle,
        hybrid,
        threads,
        epoch,
    );
    print_epoch(
        &format!(
            "{} engine, {pods} pods x {hosts_per_pod} hosts",
            if hybrid { "hybrid" } else { "packet" }
        ),
        &r,
        epoch,
    );
    assert!(r.all_done, "epoch must retire every bundle");
    if hybrid && pods >= 16 {
        assert!(
            r.speedup() >= 10.0,
            "hybrid must project >= 10x fewer events at scale, got {:.1}x",
            r.speedup()
        );
    }
}
