//! netloop — events/second of the netsim event engines on a fabric
//! workload: the classic single-queue loop vs the sharded conservative
//! engine ([`netsim::Network::set_shards`]) at several thread counts.
//!
//! The workload is a scaled-down E3c: a 4-pod × 16-host fabric behind a
//! software spine with one learning controller, every host pinging its
//! partner in the next pod, then a second (converged, fast-path) round.
//! All engines process the exact same deterministic event stream, so
//! events/second is directly comparable.
//!
//! Besides the criterion output, a single calibrated run per engine is
//! recorded to `BENCH_netsim.json` so the performance trajectory is
//! machine-readable across PRs: events and events/second, and the two
//! factors of a frame's cost in the simulator — events per delivered
//! frame (control-plane events of the ping storm included) and host ns
//! per event.
//!
//! `netloop/queue/*` isolates the event queue: nodes that only re-arm
//! timers, so an event is one queue pop, one dispatch and one push.
//! `one_in_flight_over_200_parked` is the steady fabric's regime (200
//! timers far in the future, one event due next); `4096_in_flight` the
//! opposite (every pending event is near, at scattered times).

use criterion::{criterion_group, Criterion, Throughput};

use bench::report;
use controller::apps::LearningSwitch;
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, Node, NodeCtx, NodeId, PortId, SimTime};

const PODS: u16 = 4;
const HOSTS: u16 = 16;

/// Build the fabric, run both ping rounds, return total events processed
/// and frames delivered.
fn fabric_ping_storm(threads: Option<usize>) -> (u64, u64) {
    let mut net = Network::new(5);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut pod = HarmlessSpec::new(HOSTS).with_cores(8);
    pod.rx_queue = 1 << 16;
    let mut fx = FabricSpec::new(PODS, pod)
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..usize::from(PODS) {
        hosts.push(
            (1..=HOSTS)
                .map(|i| fx.attach_host(&mut net, p, i).expect("free access port"))
                .collect(),
        );
    }
    if let Some(t) = threads {
        net.set_shards(&fx.shard_map());
        net.set_threads(t);
    }
    net.run_until(SimTime::from_millis(100));
    for _round in 0..2 {
        for i in 1..=HOSTS {
            for (p, pod_hosts) in hosts.iter().enumerate() {
                let target = fx.host_ip((p + 1) % usize::from(PODS), i);
                let h = pod_hosts[usize::from(i) - 1];
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(b"netloop", target);
                    h.flush(ctx);
                });
            }
            net.run_for(SimTime::from_micros(400));
        }
        net.run_for(SimTime::from_millis(500));
    }
    let replies: u64 = hosts
        .iter()
        .flatten()
        .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    assert_eq!(
        replies,
        2 * u64::from(PODS) * u64::from(HOSTS),
        "workload must fully converge"
    );
    (net.events_processed(), net.delivered_frames())
}

/// A node that keeps `timers` timers pending: each one, when it fires,
/// is re-armed `delay(token)` later.
struct Rearm {
    timers: u64,
    delay: fn(u64) -> SimTime,
}

impl Node for Rearm {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        for token in 0..self.timers {
            ctx.schedule((self.delay)(token), token);
        }
    }
    fn on_packet(&mut self, _: PortId, _: bytes::Bytes, _: &mut NodeCtx) {}
    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        // An LCG step, so that successive delays of one timer differ.
        let next = token
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ctx.schedule((self.delay)(next), next);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const QUEUE_EVENTS: u64 = 1_000_000;

/// Run a queue workload to `QUEUE_EVENTS` events; returns the events
/// processed.
fn queue_run(parked: u64, in_flight: u64, delay: fn(u64) -> SimTime) -> u64 {
    let mut net = Network::new(5);
    net.add_node(Rearm {
        timers: parked,
        delay: |token| SimTime::from_secs(1_000) + SimTime::from_micros(token * 7919 % 1_000),
    });
    net.add_node(Rearm {
        timers: in_flight,
        delay,
    });
    while net.events_processed() < QUEUE_EVENTS {
        net.run_for(SimTime::from_millis(1));
    }
    net.events_processed()
}

type QueueWorkload = (&'static str, u64, u64, fn(u64) -> SimTime);

fn queue_workloads() -> [QueueWorkload; 2] {
    [
        ("one_in_flight_over_200_parked", 200, 1, |_| {
            SimTime::from_micros(1)
        }),
        ("4096_in_flight", 0, 4096, |token| {
            SimTime::from_nanos(1 + (token >> 50))
        }),
    ]
}

fn engines() -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("single_queue", None),
        ("sharded_t1", Some(1)),
        ("sharded_t2", Some(2)),
        ("sharded_t4", Some(4)),
        // `Some(0)` = auto-detect (`Network::set_threads(0)` resolves it
        // via available_parallelism), the `--threads 0` default path.
        ("sharded_tauto", Some(0)),
    ]
}

fn bench_netloop(c: &mut Criterion) {
    // The event stream is deterministic and engine-independent; run once
    // to size the throughput denominator (and sanity-check equivalence).
    let (events, frames) = fabric_ping_storm(None);
    assert_eq!(
        (events, frames),
        fabric_ping_storm(Some(2)),
        "engines must agree"
    );
    let mut g = c.benchmark_group("netloop");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for (label, threads) in engines() {
        g.bench_function(label, |b| b.iter(|| fabric_ping_storm(threads)));
    }
    g.finish();

    let mut g = c.benchmark_group("netloop/queue");
    g.sample_size(10);
    g.throughput(Throughput::Elements(QUEUE_EVENTS));
    for (label, parked, in_flight, delay) in queue_workloads() {
        g.bench_function(label, |b| b.iter(|| queue_run(parked, in_flight, delay)));
    }
    g.finish();
}

criterion_group!(benches, bench_netloop);

fn main() {
    benches();
    // One calibrated run per engine into the machine-readable trajectory.
    let mut rep = report::Report::load(report::bench_file());
    for (label, threads) in engines() {
        let t0 = std::time::Instant::now();
        let (events, frames) = fabric_ping_storm(threads);
        let wall = t0.elapsed().as_secs_f64();
        rep.record(
            &format!("netloop/fabric_{PODS}x{HOSTS}/{label}"),
            &[
                ("threads", threads.unwrap_or(0) as f64),
                ("events", events as f64),
                ("wall_s", wall),
                ("events_per_sec", events as f64 / wall),
                ("events_per_frame", events as f64 / frames as f64),
                ("ns_per_event", wall * 1e9 / events as f64),
            ],
        );
    }
    for (label, parked, in_flight, delay) in queue_workloads() {
        let t0 = std::time::Instant::now();
        let events = queue_run(parked, in_flight, delay);
        let wall = t0.elapsed().as_secs_f64();
        rep.record(
            &format!("netloop/queue/{label}"),
            &[
                ("events", events as f64),
                ("wall_s", wall),
                ("ns_per_event", wall * 1e9 / events as f64),
            ],
        );
    }
    if let Err(e) = rep.save(report::bench_file()) {
        eprintln!("(could not write {}: {e})", report::BENCH_FILE);
    }
}
