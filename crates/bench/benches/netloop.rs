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
//! Every row is timed by `bench::timing`: a round builds the fabric
//! untimed and times the two ping rounds. `netloop/fabric_4x16/{engine}`
//! records host ns per event (the median over rounds) and
//! events/second, the events of one run, the median run's wall time,
//! the threads the engine ran on (0 for the single queue; auto-detection
//! records the count it chose) and events per delivered frame
//! (control-plane events of the ping storm included).
//!
//! `netloop/queue/*` isolates the event queue: nodes that only re-arm
//! timers, so an event is one queue pop, one dispatch and one push.
//! `one_in_flight_over_200_parked` is the steady fabric's regime (200
//! timers far in the future, one event due next); `4096_in_flight` the
//! opposite (every pending event is near, at scattered times).

use std::time::Instant;

use bench::timing::Ledger;
use controller::apps::LearningSwitch;
use controller::ControllerNode;
use harmless::fabric::{Fabric, FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, Node, NodeCtx, NodeId, PortId, SimTime};

const PODS: u16 = 4;
const HOSTS: u16 = 16;

/// A converged-to-be fabric: the network, its fabric and each pod's
/// hosts.
struct Storm {
    net: Network,
    fx: Fabric,
    hosts: Vec<Vec<NodeId>>,
}

/// Build the fabric on the engine `threads` names (`None`: the single
/// queue).
fn fabric(threads: Option<usize>) -> Storm {
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
    Storm { net, fx, hosts }
}

impl Storm {
    /// Run both ping rounds; returns the events processed and the
    /// frames delivered.
    fn run(&mut self) -> (u64, u64) {
        let Storm { net, fx, hosts } = self;
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
}

const QUEUE_EVENTS: u64 = 1_000_000;

/// A queue workload: `parked` far-future timers beside `in_flight`
/// timers re-armed `delay` later.
fn queue_net(parked: u64, in_flight: u64, delay: fn(u64) -> SimTime) -> Network {
    let mut net = Network::new(5);
    net.add_node(Rearm {
        timers: parked,
        delay: |token| SimTime::from_secs(1_000) + SimTime::from_micros(token * 7919 % 1_000),
    });
    net.add_node(Rearm {
        timers: in_flight,
        delay,
    });
    net
}

/// Run a queue workload to `QUEUE_EVENTS` events; returns the events
/// processed.
fn queue_run(net: &mut Network) -> u64 {
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

fn main() {
    // The event stream is deterministic and engine-independent.
    let (events, frames) = fabric(None).run();
    assert_eq!(
        (events, frames),
        fabric(Some(2)).run(),
        "engines must agree"
    );
    let mut rep = Ledger::open("netloop", "ns_per_event");
    for (label, threads) in engines() {
        let mut ran_on = 0;
        let row = rep.rounds(&format!("fabric_{PODS}x{HOSTS}/{label}"), || {
            let mut storm = fabric(threads);
            ran_on = threads.map_or(0, |_| storm.net.threads());
            let t = Instant::now();
            let (n, _) = storm.run();
            (t.elapsed(), n)
        });
        let ns = row.timing.median;
        row.with(&[
            ("threads", ran_on as f64),
            ("events", events as f64),
            ("wall_s", ns * events as f64 / 1e9),
            ("events_per_sec", 1e9 / ns),
            ("events_per_frame", events as f64 / frames as f64),
        ]);
    }
    for (label, parked, in_flight, delay) in queue_workloads() {
        let mut events = 0;
        let row = rep.rounds(&format!("queue/{label}"), || {
            let mut net = queue_net(parked, in_flight, delay);
            let t = Instant::now();
            events = queue_run(&mut net);
            (t.elapsed(), events)
        });
        let ns = row.timing.median;
        row.with(&[
            ("events", events as f64),
            ("wall_s", ns * events as f64 / 1e9),
        ]);
    }
    rep.save();
}
