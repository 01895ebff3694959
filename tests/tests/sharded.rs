//! Sharded-engine integration tests: thread-count determinism and
//! equivalence with the classic single-queue loop on a full fabric
//! workload (hosts, generators, sinks, learning controller, spine).
//!
//! The contract under test: `Network::set_threads` must never change
//! simulation results — per-pod rollups, latency histograms, host reply
//! counts, arrival times and the total event count are byte-identical
//! for every thread count.

use controller::apps::LearningSwitch;
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::stats::Rollup;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{Network, NodeId, PortId, SimTime};

const PODS: u16 = 3;
const PORTS: u16 = 3; // ports 1..2 carry pinging hosts, port 3 gen/sink

/// Run the scenario and render every observable the ISSUE cares about
/// into one string: per-pod `Rollup` stats, host reply counts, sink
/// arrival times and the event count. `threads = None` runs the classic
/// single-queue loop; `Some(n)` runs the sharded engine on `n` threads.
fn observables(threads: Option<usize>) -> String {
    let mut net = Network::new(11);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(PODS, HarmlessSpec::new(PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    // Ports 1..2 of every pod: pinging hosts.
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..usize::from(PODS) {
        hosts.push(
            (1..PORTS)
                .map(|i| fx.attach_host(&mut net, p, i).expect("free port"))
                .collect(),
        );
    }
    // Port 3: a stamped generator in pod 0 feeding a sink in pod 1 —
    // cross-pod measured traffic so the per-pod rollups have latency
    // histograms, not just counters.
    let g = net.add_node(Generator::new(
        "xpod-gen",
        PortId(0),
        Pattern::Cbr { pps: 20_000.0 },
        vec![{
            let mut f = FlowSpec::simple(1, 2, 128);
            f.src_mac = fx.host_mac(0, PORTS);
            f.dst_mac = fx.host_mac(1, PORTS);
            f.src_ip = fx.host_ip(0, PORTS);
            f.dst_ip = fx.host_ip(1, PORTS);
            f
        }],
        SimTime::from_millis(120),
        SimTime::from_millis(140),
    ));
    let s = net.add_node(Sink::new("xpod-sink"));
    fx.attach_node(&mut net, 0, PORTS, g).expect("free port");
    fx.attach_node(&mut net, 1, PORTS, s).expect("free port");

    if let Some(t) = threads {
        net.set_shards(&fx.shard_map());
        net.set_threads(t);
        assert_eq!(net.n_shards(), usize::from(PODS) + 1);
    }

    net.run_until(SimTime::from_millis(100));
    // Every host pings its partner in the next pod, staggered.
    for i in 1..PORTS {
        for (p, pod_hosts) in hosts.iter().enumerate() {
            let target = fx.host_ip((p + 1) % usize::from(PODS), i);
            let h = pod_hosts[usize::from(i) - 1];
            net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"determinism", target);
                h.flush(ctx);
            });
        }
        net.run_for(SimTime::from_micros(300));
    }
    net.run_until(SimTime::from_millis(400));

    let mut out = String::new();
    for (p, pod_hosts) in hosts.iter().enumerate() {
        let mut roll = Rollup::new();
        for &h in pod_hosts {
            let host = net.node_ref::<Host>(h);
            roll.absorb(host.rx_frames(), 0, &netsim::Histogram::new());
            out.push_str(&format!(
                "pod{p} host n{}: replies={} answered={} rx={}\n",
                h.0,
                host.echo_replies_received(),
                host.echo_requests_answered(),
                host.rx_frames()
            ));
        }
        if p == 1 {
            net.node_ref::<Sink>(s).roll_into(&mut roll);
        }
        let lat = &roll.latency;
        out.push_str(&format!(
            "pod{p} rollup: frames={} bytes={} lat_count={} p50={} p99={} max={} mean={:.3}\n",
            roll.frames,
            roll.bytes,
            lat.count(),
            lat.p50(),
            lat.p99(),
            lat.max(),
            lat.mean()
        ));
    }
    let sink = net.node_ref::<Sink>(s);
    out.push_str(&format!(
        "sink: received={} unstamped={} rx_pps={:.3}\n",
        sink.received(),
        sink.unstamped(),
        sink.rx_pps()
    ));
    out.push_str(&format!(
        "ctrl: packet_ins={} flow_mods={}\n",
        net.node_ref::<ControllerNode>(ctrl).packet_ins(),
        net.node_ref::<ControllerNode>(ctrl).flow_mods_sent()
    ));
    out.push_str(&format!("events={}\n", net.events_processed()));
    out
}

#[test]
fn thread_count_never_changes_results() {
    let t1 = observables(Some(1));
    let t2 = observables(Some(2));
    let t4 = observables(Some(4));
    assert_eq!(t1, t2, "threads=1 vs threads=2");
    assert_eq!(t1, t4, "threads=1 vs threads=4");
    // The workload actually converged (this is not vacuous).
    assert!(t1.contains("replies=1"), "hosts got replies:\n{t1}");
    assert!(!t1.contains("received=0"), "sink saw traffic:\n{t1}");
}

#[test]
fn sharded_engine_matches_single_queue_loop() {
    let legacy = observables(None);
    let sharded = observables(Some(2));
    assert_eq!(legacy, sharded, "engines must agree on all observables");
}

/// The persistent runtime on a full fabric stack: a staggered multi-round
/// experiment makes hundreds of `run_for` calls, and the workers must serve
/// all of them with the threads spawned at `set_threads` (the calling
/// thread is the first of the two).
#[test]
fn fabric_runs_reuse_the_worker_pool() {
    let mut net = Network::new(11);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let a = fx.attach_host(&mut net, 0, 1).expect("free port");
    let b = fx.attach_host(&mut net, 1, 1).expect("free port");
    net.set_shards(&fx.shard_map());
    net.set_threads(2);
    net.run_until(SimTime::from_millis(100));
    assert_eq!(net.runtime_stats().workers_spawned, 1);

    let mut warm = netsim::RuntimeStats::default();
    for round in 0..3 {
        for (h, peer) in [(a, fx.host_ip(1, 1)), (b, fx.host_ip(0, 1))] {
            net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"pool", peer);
                h.flush(ctx);
            });
        }
        for _ in 0..40 {
            net.run_for(SimTime::from_micros(300));
        }
        if round == 1 {
            warm = net.runtime_stats();
        }
    }
    let end = net.runtime_stats();
    assert_eq!(
        end.workers_spawned, 1,
        "3 rounds × 40 run_for calls must not spawn a single thread"
    );
    assert!(end.windows > warm.windows, "the last round ran windows");
    assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 3);
    assert_eq!(net.node_ref::<Host>(b).echo_replies_received(), 3);
}
