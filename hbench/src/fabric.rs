//! The two `fabric_*` workloads: the whole system inside the `netsim`
//! packet engine — single queue, one thread, closed loop (the next
//! `run_for` window is issued when the previous one returns).
//!
//! * `fabric_steady` is the data plane alone: a converged 16-pod
//!   spine fabric carrying a heavy-tailed traffic matrix, zero control
//!   traffic.
//! * `fabric_ctrl` is the control plane alone: the same fabric starting
//!   legacy-only, migrated over SNMP and OpenFlow, then 256 host moves,
//!   then a master crash and the standby's resync.

use controller::apps::{ArpProxy, LearningSwitch};
use controller::{App, ControllerNode};
use harmless::fabric::{Fabric, FabricSpec, Interconnect, Spine};
use harmless::{HarmlessManager, HarmlessSpec};
use legacy_switch::LegacySwitchNode;
use netsim::host::Host;
use netsim::traffic::{Demand, FlowSpec, Generator, Pattern, Sink, TrafficMatrix};
use netsim::{Histogram, Network, NodeId, PortId, SimTime};
use openflow::ControllerRole;
use softswitch::SoftSwitchNode;

use crate::noise::Clock;
use crate::probes;
use crate::run::{speed_over, Budget, Outcome, Params, Segment};
use crate::stats::{median, op_percentile, Digest, Group, Rng};
use crate::trace::{Layer, Tracer};

/// Source bundles per pod in `fabric_steady`.
const BUNDLES_PER_POD: u16 = 8;
/// Access ports per pod in `fabric_steady`: 8 sources and room for 24
/// sinks (a pod draws 8 inbound demands on average).
const STEADY_PORTS: u16 = 32;
/// Traffic starts here; handshakes and proactive routes are done by then.
const T0: SimTime = SimTime::from_millis(500);
/// One timed group of `fabric_steady`.
const STEADY_WINDOW: SimTime = SimTime::from_millis(10);
/// One timed group of `fabric_ctrl` while rules are in flight.
const CTRL_WINDOW: SimTime = SimTime::from_millis(1);

fn apps() -> Vec<Box<dyn App>> {
    vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
}

/// Every software switch of the fabric: each pod's SS_1 and SS_2, and
/// the spine.
fn softswitches(fx: &Fabric) -> Vec<NodeId> {
    let mut v = Vec::new();
    for pod in fx.pods() {
        v.extend(pod.ss1);
        v.push(pod.ss2);
    }
    if let Some(Spine::Soft(s)) = fx.spine() {
        v.push(s);
    }
    v
}

/// Counters read from the layers' public getters.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    events: u64,
    blackholed: u64,
    ctrl_dropped: u64,
    flow_mods_sent: u64,
    packet_ins: u64,
    retransmits: u64,
    promotions: u64,
    arp_answered: u64,
    sw_packet_ins: u64,
    sw_rx_dropped: u64,
    allocs: u64,
}

impl Counters {
    fn read(net: &mut Network, fx: &Fabric, ctrls: &[NodeId]) -> Counters {
        let mut c = Counters {
            events: net.events_processed(),
            blackholed: net.blackholed_frames(),
            ctrl_dropped: net.ctrl_stats().dropped,
            allocs: bytes::buffer_allocs(),
            ..Counters::default()
        };
        for &id in ctrls {
            let n = net.node_mut::<ControllerNode>(id);
            c.flow_mods_sent += n.flow_mods_sent();
            c.packet_ins += n.packet_ins();
            c.retransmits += n.retransmits();
            c.promotions += n.promotions();
            c.arp_answered += n.app_mut::<ArpProxy>().map_or(0, |p| p.answered());
        }
        for id in softswitches(fx) {
            let sw = net.node_ref::<SoftSwitchNode>(id);
            c.sw_packet_ins += sw.packet_ins_sent();
            c.sw_rx_dropped += sw.rx_dropped();
        }
        c
    }

    fn since(&self, then: &Counters) -> Counters {
        Counters {
            events: self.events - then.events,
            blackholed: self.blackholed - then.blackholed,
            ctrl_dropped: self.ctrl_dropped - then.ctrl_dropped,
            flow_mods_sent: self.flow_mods_sent - then.flow_mods_sent,
            packet_ins: self.packet_ins - then.packet_ins,
            retransmits: self.retransmits - then.retransmits,
            promotions: self.promotions - then.promotions,
            arp_answered: self.arp_answered - then.arp_answered,
            sw_packet_ins: self.sw_packet_ins - then.sw_packet_ins,
            sw_rx_dropped: self.sw_rx_dropped - then.sw_rx_dropped,
            allocs: self.allocs - then.allocs,
        }
    }

    /// Record the control-plane and switch counters every fabric
    /// workload reports.
    fn record(&self, out: &mut Outcome) {
        out.set("controller.flow_mods_sent", self.flow_mods_sent as f64);
        out.set("controller.packet_ins", self.packet_ins as f64);
        out.set("controller.retransmits", self.retransmits as f64);
        out.set("controller.promotions", self.promotions as f64);
        out.set("controller.arp_answered", self.arp_answered as f64);
        // The messages that carry work; handshakes, echoes and
        // barriers have no public counter.
        out.set(
            "openflow.msgs",
            (self.flow_mods_sent + self.packet_ins) as f64,
        );
        out.set("softswitch.packet_ins", self.sw_packet_ins as f64);
        out.set("softswitch.rx_dropped", self.sw_rx_dropped as f64);
        out.set("netsim.blackholed_frames", self.blackholed as f64);
        out.set("netsim.ctrl_dropped", self.ctrl_dropped as f64);
        out.set("netsim.ctrl_retx", self.retransmits as f64);
        out.set("netsim.events", self.events as f64);
    }
}

/// Frames tail-dropped on any link of the fabric's own nodes.
fn link_drops(net: &Network, fx: &Fabric, stations: &[NodeId]) -> u64 {
    let mut nodes = softswitches(fx);
    nodes.extend(fx.pods().map(|p| p.legacy));
    nodes.extend_from_slice(stations);
    // Patch ports sit at 100 + access port, the highest numbers used.
    let max_port = 100 + fx.spec.pod.n_access_ports + 8;
    let mut drops = 0;
    for n in nodes {
        for p in 0..=max_port {
            if let Some(s) = net.link_stats(n, PortId(p)) {
                drops += s.dropped_frames;
            }
        }
    }
    drops
}

/// Host ns of the `run_for` windows of the traced segments.
fn record_windows(out: &mut Outcome, windows: &[Group]) {
    let each: Vec<Group> = windows.iter().map(|g| Group { ops: 1, ..*g }).collect();
    out.set(
        "netsim.run_for_ns_p50",
        op_percentile(&each, 50.0, |g| g.ref_ns),
    );
    out.set(
        "netsim.run_for_ns_p99",
        op_percentile(&each, 99.0, |g| g.ref_ns),
    );
}

// ---------------------------------------------------------------------
// fabric_steady

/// The traffic matrix: its *shape* — how many bundles are elephants, at
/// what rates and frame sizes — is the one `exp_flowsim` uses
/// (`heavy_tailed` seeded with 31), its *placement* comes from the
/// seed: which pod sources which bundle, and where each one goes. The
/// offered load and the frame mix are then the same for every seed
/// (left to the seed they move per-frame cost by 20 %: fewer elephants,
/// fewer frames to spread the fixed work of a window over), while the
/// busy pods, uplinks and sinks are not.
fn placed_demands(p: &Params) -> Vec<Demand> {
    let pods = p.scale.fabric_pods;
    let shape =
        TrafficMatrix::heavy_tailed(31, pods, BUNDLES_PER_POD, p.scale.steady_flows_per_bundle);
    let mut demands = shape.demands().to_vec();
    let mut rng = Rng::new(p.seed, 0x6d61_7472);
    for i in (1..demands.len()).rev() {
        demands.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let sinks = STEADY_PORTS - BUNDLES_PER_POD;
    let mut inbound = vec![0u16; usize::from(pods)];
    for (k, d) in demands.iter_mut().enumerate() {
        d.src_pod = k as u16 / BUNDLES_PER_POD;
        // Uniform over the other pods that still have a sink port.
        d.dst_pod = loop {
            let dst = rng.below(u64::from(pods)) as u16;
            if dst != d.src_pod && inbound[usize::from(dst)] < sinks {
                break dst;
            }
        };
        inbound[usize::from(d.dst_pod)] += 1;
    }
    demands
}

struct Steady {
    net: Network,
    fx: Fabric,
    ctrl: NodeId,
    gens: Vec<NodeId>,
    sinks: Vec<NodeId>,
}

impl Steady {
    /// Build the fabric and its stations, bring it up and run warm-up
    /// traffic until every flow has crossed every cache once.
    fn new(p: &Params, tr: &mut Tracer) -> Steady {
        let pods = p.scale.fabric_pods;
        let demands = placed_demands(p);
        // Sources take ports 1..=BUNDLES_PER_POD of their pod, sinks
        // the ports above, one per inbound demand.
        let n_ports = STEADY_PORTS;

        tr.enter(Layer::Build);
        let mut net = Network::new(p.seed);
        let ctrl = net.add_node(ControllerNode::new("ctrl", apps()));
        let mut pod = HarmlessSpec::new(n_ports).with_cores(8);
        pod.rx_queue = 1 << 16;
        let mut fx = FabricSpec::new(pods, pod)
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(&mut net)
            .expect("valid fabric spec");
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        tr.exit();

        tr.enter(Layer::Attach);
        let mut next_src = vec![1u16; usize::from(pods)];
        let mut next_sink = vec![BUNDLES_PER_POD + 1; usize::from(pods)];
        let (mut gens, mut sinks) = (Vec::new(), Vec::new());
        // The run is as long as `--seconds` allows: generators are
        // paused, not timed out.
        let never = SimTime::from_secs(1_000_000);
        for (b, d) in demands.iter().enumerate() {
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
                never,
            ));
            let s = net.add_node(Sink::new(format!("sink{b}")));
            fx.attach_station(&mut net, src.0, src.1, g)
                .expect("free source port");
            fx.attach_station(&mut net, dst.0, dst.1, s)
                .expect("free sink port");
            gens.push(g);
            sinks.push(s);
        }
        tr.exit();

        net.run_until(T0);
        assert!(fx.all_pods_connected(&net), "fabric must converge by T0");
        net.run_for(SimTime::from_millis(p.scale.steady_warmup_ms));
        Steady {
            net,
            fx,
            ctrl,
            gens,
            sinks,
        }
    }

    fn sent(&self) -> u64 {
        self.gens
            .iter()
            .map(|&g| self.net.node_ref::<Generator>(g).sent())
            .sum()
    }

    fn received(&self) -> u64 {
        self.sinks
            .iter()
            .map(|&s| self.net.node_ref::<Sink>(s).received())
            .sum()
    }

    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for &s in &self.sinks {
            h.merge(self.net.node_ref::<Sink>(s).latency());
        }
        h
    }
}

pub fn run_steady(p: &Params, tr: &mut Tracer, clock: &mut Clock) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut rig = None;
    let mut setup_host_ns = 0;
    tr.set_on(p.trace);
    for _ in 0..p.scale.steady_setups {
        // One fabric at a time, or peak memory counts two.
        drop(rig.take());
        let t = clock.now();
        rig = Some(Steady::new(p, tr));
        let done = clock.now();
        setup_host_ns += done - t;
        out.setups_s.push(clock.reference_s(t, done));
    }
    tr.set_on(false);
    let mut rig = rig.expect("at least one set-up");
    if p.trace {
        // Reference seconds per set-up, by the speed the set-ups saw.
        let t = tr.take_totals();
        let per_host_ns =
            out.setups_s.iter().sum::<f64>() / setup_host_ns as f64 / p.scale.steady_setups as f64;
        out.set(
            "core.build_s",
            t.total_of(Layer::Build) as f64 * per_host_ns,
        );
        out.set(
            "core.attach_s",
            t.total_of(Layer::Attach) as f64 * per_host_ns,
        );
    }

    let windows = p.scale.steady_segment_ms / 10;
    let c0 = Counters::read(&mut rig.net, &rig.fx, &[rig.ctrl]);
    let (sent0, rx0) = (rig.sent(), rig.received());
    let mut rx = rx0;
    let mut groups = Vec::with_capacity(windows as usize);
    let mut traced_windows = Vec::new();
    let mut events_per_s = Vec::new();
    let mut window_no = 0u32;
    let budget = Budget::new(p.seconds);
    let mut last_s = 0.0;
    while budget.more(out.segments.len(), last_s) {
        let traced = p.trace && out.segments.len() % 2 == 1;
        groups.clear();
        tr.set_on(traced);
        let e0 = rig.net.events_processed();
        clock.take_spent();
        let wall = clock.now();
        for _ in 0..windows {
            tr.set_request(window_no);
            window_no += 1;
            let t0 = clock.now();
            tr.enter(Layer::Root);
            tr.enter(Layer::RunFor);
            rig.net.run_for(STEADY_WINDOW);
            tr.exit();
            let now_rx = rig.received();
            tr.exit();
            let t1 = clock.now();
            groups.push(Group::new(t0, t1 - t0, now_rx - rx));
            clock.tick(t1);
            rx = now_rx;
        }
        let wall_ns = clock.now() - wall - clock.take_spent();
        clock.reference(&mut groups);
        last_s = wall_ns as f64 / 1e9;
        tr.set_on(false);
        let seg = Segment::from_groups(wall_ns, &groups, traced);
        out.segments.push(seg);
        if traced {
            traced_windows.extend_from_slice(&groups);
        } else {
            events_per_s.push((rig.net.events_processed() - e0) as f64 / seg.wall_s);
        }
        if out.segments.len() == 1 {
            // The first segment is the same simulated interval in
            // every run of one seed: its outcome is the digest.
            let h = rig.latency();
            let first = Counters::read(&mut rig.net, &rig.fx, &[rig.ctrl]).since(&c0);
            let mut d = Digest::new();
            for w in [
                first.events,
                rig.net.delivered_frames(),
                rx - rx0,
                h.p50(),
                h.p99(),
            ] {
                d.word(w);
            }
            for &s in &rig.sinks {
                d.word(rig.net.node_ref::<Sink>(s).received());
            }
            out.digest = Some(d.finish());
            let frames = (rx - rx0).max(1) as f64;
            out.set("netsim.delivered_frames", (rx - rx0) as f64);
            out.set("netsim.events_per_frame", first.events as f64 / frames);
            out.set("netpkt.allocs_per_frame", first.allocs as f64 / frames);
            out.set("netsim.sim_p50_ns", h.p50() as f64);
            out.set("netsim.sim_p99_ns", h.p99() as f64);
            first.record(&mut out);
        }
    }
    // Stop the sources, let the frames in flight land, then every frame
    // sent must have been received.
    for &g in &rig.gens {
        rig.net.node_mut::<Generator>(g).pause();
    }
    rig.net.run_for(SimTime::from_secs(2));
    let end = Counters::read(&mut rig.net, &rig.fx, &[rig.ctrl]).since(&c0);
    let sent = rig.sent() - sent0;
    let received = rig.received() - rx0;
    out.attempted = sent;
    out.failed = sent.saturating_sub(received) + end.blackholed + end.sw_rx_dropped;
    // Steady state means a silent control plane.
    if end.packet_ins != 0 || end.flow_mods_sent != 0 || end.promotions != 0 {
        eprintln!("hbench: fabric_steady: control plane not silent: {end:?}");
        out.correct = false;
    }

    out.set("netsim.events_per_s", median(&events_per_s));
    let stations: Vec<NodeId> = rig.gens.iter().chain(&rig.sinks).copied().collect();
    out.set(
        "netsim.link_drops",
        link_drops(&rig.net, &rig.fx, &stations) as f64,
    );
    if p.trace {
        record_windows(&mut out, &traced_windows);
        probes::run_all(&mut out, &[probes::station_frame(128)], &p.scale, clock);
    }
    out
}

// ---------------------------------------------------------------------
// fabric_ctrl

struct Ctrl {
    net: Network,
    fx: Fabric,
    primary: NodeId,
    backup: NodeId,
}

/// The host moves of the migration phase, drawn from the seed: move
/// `k` takes a host that has not moved yet to a spare port of pod
/// `k % pods` (another pod than its own), so every pod receives the
/// same number. The host on the last regular port of each pod never
/// moves: it answers the verification pings.
fn moves(p: &Params) -> Vec<((usize, u16), (usize, u16))> {
    let pods = usize::from(p.scale.fabric_pods);
    let hosts = u64::from(p.scale.ctrl_hosts_per_pod);
    let mut rng = Rng::new(p.seed, 0x6d6f7665);
    let mut moved = std::collections::BTreeSet::new();
    (0..p.scale.ctrl_migrations)
        .map(|k| {
            let to = (k % pods, p.scale.ctrl_hosts_per_pod + 1 + (k / pods) as u16);
            loop {
                let from = (
                    rng.below(pods as u64) as usize,
                    1 + rng.below(hosts - 1) as u16,
                );
                if from.0 != to.0 && moved.insert(from) {
                    return (from, to);
                }
            }
        })
        .collect()
}

impl Ctrl {
    /// The legacy-only fabric: every pod built and every host attached,
    /// no pod under SDN control yet.
    fn new(p: &Params, tr: &mut Tracer) -> Ctrl {
        let pods = p.scale.fabric_pods;
        let hosts = p.scale.ctrl_hosts_per_pod;
        let spare = p.scale.ctrl_migrations.div_ceil(usize::from(pods)) as u16;
        tr.enter(Layer::Build);
        let mut net = Network::new(p.seed);
        let primary =
            net.add_node(ControllerNode::new("ctrl", apps()).with_role(ControllerRole::Master, 1));
        let backup =
            net.add_node(ControllerNode::new("backup", apps()).with_role(ControllerRole::Slave, 2));
        let mut pod = HarmlessSpec::new(hosts + spare).with_cores(8);
        pod.rx_queue = 1 << 16;
        let mut fx = FabricSpec::new(pods, pod)
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(&mut net)
            .expect("valid fabric spec");
        tr.exit();
        tr.enter(Layer::Attach);
        for pod in 0..usize::from(pods) {
            for port in 1..=hosts {
                fx.attach_host(&mut net, pod, port)
                    .expect("free access port");
            }
        }
        tr.exit();
        Ctrl {
            net,
            fx,
            primary,
            backup,
        }
    }

    /// Control-plane operations applied so far: every flow-mod a
    /// datapath took moved its epoch by one, and every SNMP request a
    /// legacy switch served is counted by it.
    fn applied(&self) -> u64 {
        let mut n = 0;
        for id in softswitches(&self.fx) {
            n += self.net.node_ref::<SoftSwitchNode>(id).datapath().epoch();
        }
        for pod in self.fx.pods() {
            n += self
                .net
                .node_ref::<LegacySwitchNode>(pod.legacy)
                .snmp_requests();
        }
        n
    }

    /// Run windows until `done` holds and no operation has been applied
    /// for `settle` windows in a row. Returns false if that does not
    /// happen within `limit` windows.
    fn run_quiet(
        &mut self,
        (tr, clock): (&mut Tracer, &mut Clock),
        groups: &mut Vec<Group>,
        window: SimTime,
        settle: u32,
        limit: u32,
        done: impl Fn(&Ctrl) -> bool,
    ) -> bool {
        let mut last = self.applied();
        let mut quiet = 0;
        for _ in 0..limit {
            let t0 = clock.now();
            tr.enter(Layer::RunFor);
            self.net.run_for(window);
            tr.exit();
            let now = self.applied();
            let t1 = clock.now();
            groups.push(Group::new(t0, t1 - t0, now - last));
            clock.tick(t1);
            quiet = if now == last && done(self) {
                quiet + 1
            } else {
                0
            };
            last = now;
            if quiet >= settle {
                return true;
            }
        }
        false
    }

    /// `priority|match|instructions` of every rule of every software
    /// datapath, hashed and sorted per datapath.
    fn fingerprint(&self) -> Vec<Vec<u64>> {
        softswitches(&self.fx)
            .into_iter()
            .map(|id| {
                let dp = self.net.node_ref::<SoftSwitchNode>(id).datapath();
                let mut rules: Vec<u64> = dp
                    .table(0)
                    .expect("table 0")
                    .entries()
                    .iter()
                    .map(|e| {
                        let mut d = Digest::new();
                        d.bytes(
                            format!("{}|{:?}|{:?}", e.priority, e.match_, e.instructions)
                                .as_bytes(),
                        );
                        d.finish()
                    })
                    .collect();
                rules.sort_unstable();
                rules
            })
            .collect()
    }
}

/// Rules present in one fingerprint and absent from the other.
fn fingerprint_diff(a: &[Vec<u64>], b: &[Vec<u64>]) -> u64 {
    let mut diff = 0;
    for (x, y) in a.iter().zip(b) {
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        diff += (x.len() - i + y.len() - j) as u64;
    }
    diff + a.len().abs_diff(b.len()) as u64
}

/// The fault-free twin: the same fabric configured directly, its hosts
/// moved before anything ran, one controller that never crashes. Its
/// rule set is what the migrated, failed-over fabric must converge to.
fn twin_fingerprint(p: &Params) -> Vec<Vec<u64>> {
    let mut off = Tracer::new();
    let mut twin = Ctrl::new(p, &mut off);
    twin.fx.configure_direct(&mut twin.net);
    twin.fx.connect_controller(&mut twin.net, twin.primary);
    for (from, to) in moves(p) {
        twin.fx
            .migrate_host(&mut twin.net, from, to)
            .expect("valid move");
    }
    twin.net.run_until(SimTime::from_millis(200));
    twin.fingerprint()
}

/// What one repeat of the control-plane scenario measured.
struct Repeat {
    groups: Vec<Group>,
    /// Host ns of the three phases together.
    host_ns: u64,
    wave_s: f64,
    migrate_s: f64,
    failover_s: f64,
    wave_sim_ms: f64,
    counters: Counters,
    snmp_ops: u64,
    manager_flow_mods: u64,
    delivered_frames: u64,
    unanswered: u64,
    rule_diff: u64,
    quiesced: bool,
    digest: u64,
}

/// Reference seconds of a phase that took `host_ns` (canary passes
/// taken out), at the speed its own groups saw.
fn phase_s(clock: &Clock, groups: &mut [Group], host_ns: u64) -> f64 {
    clock.reference(groups);
    host_ns as f64 * speed_over(groups) / 1e9
}

fn ctrl_repeat(
    p: &Params,
    tr: &mut Tracer,
    clock: &mut Clock,
    rig: &mut Ctrl,
    twin: &[Vec<u64>],
) -> Repeat {
    let pods: Vec<usize> = (0..rig.fx.n_pods()).collect();
    let ctrls = [rig.primary, rig.backup];
    let c0 = Counters::read(&mut rig.net, &rig.fx, &ctrls);
    let mut groups = Vec::new();
    let mut quiesced = true;

    // Phase 1: the migration wave — SNMP reconfiguration of every
    // legacy switch, translator install, controller hook-up and the
    // proactive push of every host route to every datapath.
    clock.take_spent();
    let t = clock.now();
    tr.enter(Layer::Wave);
    let sim0 = rig.net.now();
    rig.fx.register_controller(&mut rig.net, rig.primary);
    let managers = rig
        .fx
        .run_migration_wave(&mut rig.net, &pods, rig.primary)
        .expect("two-switch pods");
    quiesced &= rig.run_quiet((tr, clock), &mut groups, CTRL_WINDOW, 20, 5_000, |r| {
        r.fx.wave_done(&r.net, &managers)
    });
    let wave_sim_ms = (rig.net.now() - sim0).as_secs_f64() * 1e3 - 20.0;
    // The standby joins once the pods are under control; from here on
    // the fabric mirrors every route into it.
    rig.fx.connect_backup_controller(&mut rig.net, rig.backup);
    tr.exit();
    let host_ns = clock.now() - t - clock.take_spent();
    let mut host_total = host_ns;
    let wave_s = phase_s(clock, &mut groups, host_ns);
    let wave_groups = groups.len();

    // Phase 2: host moves, each retracting and re-installing one
    // host's routes on every datapath.
    let t = clock.now();
    tr.enter(Layer::Migrate);
    for (from, to) in moves(p) {
        let before = rig.applied();
        let t0 = clock.now();
        rig.fx
            .migrate_host(&mut rig.net, from, to)
            .expect("valid move");
        tr.enter(Layer::RunFor);
        rig.net.run_for(CTRL_WINDOW);
        tr.exit();
        let t1 = clock.now();
        groups.push(Group::new(t0, t1 - t0, rig.applied() - before));
        clock.tick(t1);
    }
    quiesced &= rig.run_quiet((tr, clock), &mut groups, CTRL_WINDOW, 20, 1_000, |_| true);
    tr.exit();
    let host_ns = clock.now() - t - clock.take_spent();
    host_total += host_ns;
    let migrate_s = phase_s(clock, &mut groups[wave_groups..], host_ns);
    let migrate_groups = groups.len();

    // Phase 3: the master crashes; every switch declares it dead,
    // dials the standby, which promotes itself and rebuilds every
    // datapath's rules.
    let t = clock.now();
    tr.enter(Layer::Failover);
    let crash = rig.net.now() + CTRL_WINDOW;
    rig.net.schedule_ctrl_down(crash, rig.primary);
    let datapaths = rig.fx.n_pods() + 1;
    let window = SimTime::from_millis(10);
    quiesced &= rig.run_quiet((tr, clock), &mut groups, window, 5, 2_000, |r| {
        let b = r.net.node_ref::<ControllerNode>(r.backup);
        b.promotions() >= 1 && b.ready_switches() == datapaths
    });
    tr.exit();
    let host_ns = clock.now() - t - clock.take_spent();
    host_total += host_ns;
    let failover_s = phase_s(clock, &mut groups[migrate_groups..], host_ns);
    let counters = Counters::read(&mut rig.net, &rig.fx, &ctrls).since(&c0);

    // Verification, untimed: the rule set against the twin's, then one
    // ping from every moved host to a host that stayed.
    let rules = rig.fingerprint();
    let rule_diff = fingerprint_diff(&rules, twin);
    let mut moved = Vec::new();
    for (from, to) in moves(p) {
        let h = rig.fx.attached_node(to.0, to.1).expect("moved host");
        let partner = rig.fx.host_ip(from.0, p.scale.ctrl_hosts_per_pod);
        rig.net.with_node_ctx::<Host, _>(h, |h, ctx| {
            h.ping(b"hbench", partner);
            h.flush(ctx);
        });
        rig.net.run_for(SimTime::from_micros(200));
        moved.push(h);
    }
    rig.net.run_for(SimTime::from_millis(500));
    let answered: u64 = moved
        .iter()
        .map(|&h| rig.net.node_ref::<Host>(h).echo_replies_received())
        .sum();

    let (mut snmp_ops, mut manager_flow_mods) = (0, 0);
    for &m in &managers {
        let m = rig.net.node_ref::<HarmlessManager>(m);
        snmp_ops += m.snmp_ops();
        manager_flow_mods += m.flow_mods_sent();
    }
    let mut d = Digest::new();
    d.word(counters.events);
    d.word(groups.iter().map(|g| g.ops).sum());
    d.word(answered);
    for dp in &rules {
        for &r in dp {
            d.word(r);
        }
    }
    Repeat {
        groups,
        host_ns: host_total,
        wave_s,
        migrate_s,
        failover_s,
        wave_sim_ms,
        counters,
        snmp_ops,
        manager_flow_mods,
        delivered_frames: rig.net.delivered_frames(),
        unanswered: moved.len() as u64 - answered.min(moved.len() as u64),
        rule_diff,
        quiesced,
        digest: d.finish(),
    }
}

/// Build one legacy-only fabric. Returns it with the reference seconds
/// that took, and the reference seconds one host ns of it was worth.
fn set_up(p: &Params, tr: &mut Tracer, clock: &mut Clock) -> (Ctrl, f64, f64) {
    let t = clock.now();
    let rig = Ctrl::new(p, tr);
    let done = clock.now();
    let reference_s = clock.reference_s(t, done);
    (rig, reference_s, reference_s / (done - t) as f64)
}

pub fn run_ctrl(p: &Params, tr: &mut Tracer, clock: &mut Clock) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let twin = twin_fingerprint(p);
    for _ in 0..p.scale.cheap_setups {
        out.setups_s.push(set_up(p, tr, clock).1);
    }
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut traced_windows = Vec::new();
    let (mut build_s, mut attach_s) = (Vec::new(), Vec::new());
    let budget = Budget::new(p.seconds);
    let mut last_s = 0.0;
    while budget.more(out.segments.len(), last_s) {
        let traced = p.trace && out.segments.len() % 2 == 1;
        tr.set_on(traced);
        // A set-up that follows a whole repeat's churn of the heap is
        // not a fresh one: it stays out of `setup_s`.
        let (mut rig, _, per_host_ns) = set_up(p, tr, clock);
        let r = ctrl_repeat(p, tr, clock, &mut rig, &twin);
        tr.set_on(false);
        last_s = r.host_ns as f64 / 1e9;
        out.segments
            .push(Segment::from_groups(r.host_ns, &r.groups, traced));
        if traced {
            // Reference seconds, by the speed this repeat's set-up saw.
            let t = tr.take_totals();
            build_s.push(t.total_of(Layer::Build) as f64 * per_host_ns);
            attach_s.push(t.total_of(Layer::Attach) as f64 * per_host_ns);
            traced_windows.extend_from_slice(&r.groups);
        }
        // Operations attempted: every control operation applied plus
        // one verification ping per moved host. Failed: rules the
        // twin has and this fabric lacks (or the reverse), pings left
        // unanswered.
        out.attempted +=
            r.groups.iter().map(|g| g.ops).sum::<u64>() + p.scale.ctrl_migrations as u64;
        out.failed += r.rule_diff + r.unanswered;
        if !r.quiesced {
            eprintln!("hbench: fabric_ctrl: a phase did not reach quiescence");
            out.correct = false;
        }
        repeats.push(r);
    }
    let first = &repeats[0];
    if repeats.iter().any(|r| r.digest != first.digest) {
        eprintln!("hbench: fabric_ctrl: repeats of one seed disagree");
        out.correct = false;
    }
    out.digest = Some(first.digest);

    first.counters.record(&mut out);
    out.set("mgmt.snmp_ops", first.snmp_ops as f64);
    out.set(
        "controller.flow_mods_sent",
        (first.counters.flow_mods_sent + first.manager_flow_mods) as f64,
    );
    out.set("netsim.delivered_frames", first.delivered_frames as f64);
    out.set("core.wave_sim_ms", first.wave_sim_ms);
    let col = |f: &dyn Fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    out.set("core.wave_s", col(&|r| r.wave_s));
    out.set("core.migrate_s", col(&|r| r.migrate_s));
    out.set("core.failover_s", col(&|r| r.failover_s));
    out.set(
        "netsim.events_per_s",
        col(&|r| r.counters.events as f64 / (r.wave_s + r.migrate_s + r.failover_s)),
    );
    if p.trace {
        out.set("core.build_s", median(&build_s));
        out.set("core.attach_s", median(&attach_s));
        record_windows(&mut out, &traced_windows);
        probes::run_all(&mut out, &[probes::station_frame(128)], &p.scale, clock);
    }
    out
}
