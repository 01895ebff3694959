//! The pod rig and the four `pod_*` workloads.
//!
//! Real code, no simulator: one legacy bridge with 48 access ports and
//! a trunk, the translator SS_1 and the main switch SS_2, wired by the
//! benchmark exactly as one HARMLESS pod is. A frame enters at access
//! port *a* and must leave access port *b* byte-identical:
//!
//! ```text
//! Bridge::forward -> SS_1 (pop, dispatch) -> SS_2 -> SS_1 (push, trunk) -> Bridge::forward
//! ```
//!
//! Closed loop, one thread: the next group of 32 frames is injected
//! when the previous one has left. Every sample is the host time of
//! one group of 32 frames, so per-frame numbers compare across the
//! four workloads.

use std::net::Ipv4Addr;
use std::time::Instant;

use bytes::Bytes;
use harmless::translator::{patch_port, translator_rules, PATCH_BASE};
use harmless::PortMap;
use legacy_switch::Bridge;
use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::{BatchResult, CostModel, Datapath, DpConfig, FrameBatch};

use crate::noise::Clock;
use crate::probes;
use crate::run::{Budget, Outcome, Params, Scale, Segment};
use crate::stats::{median, Group, Rng};
use crate::trace::{Layer, Tracer};

const ACCESS_PORTS: u16 = 48;
const TRUNK: u16 = ACCESS_PORTS + 1;
/// SS_1's port toward the legacy trunk.
const SS1_TRUNK: u32 = 1;
/// Frames per timed group, in every pod workload.
const GROUP: usize = 32;
/// Distinct UDP destination ports the traffic uses: a few services,
/// many clients. Keeps SS_2's megaflow entries (which the ACL makes
/// depend on the destination port) far below its capacity.
const SERVICES: u64 = 16;
/// Never-matched ACL entries sit above this UDP port; traffic below.
const ACL_PORT_BASE: u16 = 40_000;
/// In `pod_churn`, one frame in this many carries a never-seen 5-tuple.
const FRESH_EVERY: u64 = 256;

/// What distinguishes the four workloads.
#[derive(Debug, Clone, Copy)]
struct Shape {
    flows: usize,
    frame_len: usize,
    /// Frames handed to each stage per call: 32, or 1 for the scalar
    /// regime of a `SoftSwitchNode` whose frames do not queue.
    chunk: usize,
    churn: bool,
}

fn shape(workload: &str, scale: &Scale) -> Shape {
    let base = Shape {
        flows: 64,
        frame_len: 60,
        chunk: GROUP,
        churn: false,
    };
    match workload {
        "pod_warm" => base,
        "pod_scalar" => Shape { chunk: 1, ..base },
        "pod_jumbo" => Shape {
            frame_len: 1514,
            ..base
        },
        "pod_churn" => Shape {
            flows: scale.churn_flows,
            churn: true,
            ..base
        },
        other => unreachable!("not a pod workload: {other}"),
    }
}

fn host_mac(port: u16) -> MacAddr {
    MacAddr::host(u32::from(port))
}

fn host_ip(net: u8, port: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, net, 0, port as u8)
}

/// One frame to inject and where it must come out.
#[derive(Clone)]
struct Input {
    a: u16,
    b: u16,
    frame: Bytes,
}

fn flow_frame(a: u16, b: u16, net: u8, sport: u16, dport: u16, len: usize) -> Bytes {
    builder::sized_udp_packet(
        host_mac(a),
        host_mac(b),
        host_ip(net, a),
        host_ip(0, b),
        sport,
        dport,
        len,
    )
}

/// The ACL entry the churn workload adds and deletes in turn.
fn churn_match() -> Match {
    Match::new()
        .eth_type(0x0800)
        .ip_proto(17)
        .udp_dst(ACL_PORT_BASE - 1)
}

/// Hit, miss and packet counters of one datapath, read from its public
/// getters.
#[derive(Debug, Clone, Copy, Default)]
struct DpCounters {
    packets: u64,
    memo_hits: u64,
    micro_hits: u64,
    micro_misses: u64,
    mega_hits: u64,
    mega_misses: u64,
}

impl DpCounters {
    fn read(dp: &Datapath) -> DpCounters {
        DpCounters {
            packets: dp.packets_processed(),
            memo_hits: dp.batch_memo_hits(),
            micro_hits: dp.micro_cache().hits(),
            micro_misses: dp.micro_cache().misses(),
            mega_hits: dp.mega_cache().hits(),
            mega_misses: dp.mega_cache().misses(),
        }
    }

    fn since(&self, then: &DpCounters) -> DpCounters {
        DpCounters {
            packets: self.packets - then.packets,
            memo_hits: self.memo_hits - then.memo_hits,
            micro_hits: self.micro_hits - then.micro_hits,
            micro_misses: self.micro_misses - then.micro_misses,
            mega_hits: self.mega_hits - then.mega_hits,
            mega_misses: self.mega_misses - then.mega_misses,
        }
    }
}

/// The pod: bridge, SS_1, SS_2 and the benchmark's wiring between them.
struct Rig {
    shape: Shape,
    bridge: Bridge,
    ss1: Datapath,
    ss2: Datapath,
    b1: FrameBatch,
    b2: FrameBatch,
    b3: FrameBatch,
    r1: BatchResult,
    r2: BatchResult,
    r3: BatchResult,
    egress: Vec<(u16, Bytes)>,
    inputs: Vec<Input>,
    flows: Vec<Input>,
    /// Arrival order: indices into `flows`, cycled.
    order: Vec<u32>,
    /// Frames injected so far; also the fake clock (1 µs per frame).
    injected: u64,
    fresh: u64,
    bump_every: u64,
    bumps: u64,
    /// The translator rule `bump` rewrites on SS_1.
    ss1_rule: FlowMod,
}

impl Rig {
    /// Build the pod, install its rules, generate the flow set from
    /// `seed` and warm every cache with two passes over it.
    fn new(seed: u64, shape: Shape, scale: &Scale) -> Rig {
        let map = PortMap::with_defaults(ACCESS_PORTS).expect("48 ports fit the VLAN space");
        // The legacy switch, configured as
        // `HarmlessInstance::configure_legacy_directly` does.
        let mut bridge = Bridge::new(TRUNK);
        for (port, vlan) in map.iter() {
            bridge
                .make_access_port(port, vlan)
                .expect("valid access port");
            bridge.make_trunk_port(TRUNK, &[vlan]).expect("valid trunk");
        }
        let mut ss1 = Datapath::new(DpConfig::software(1));
        ss1.add_port(SS1_TRUNK, "trunk0", 10_000_000);
        let mut ss2 = Datapath::new(DpConfig::software(2));
        for port in 1..=ACCESS_PORTS {
            ss1.add_port(patch_port(port), format!("patch{port}"), 10_000_000);
            ss2.add_port(u32::from(port), format!("p{port}"), 10_000_000);
        }
        let translator = translator_rules(&map, 1);
        for fm in &translator {
            ss1.apply_flow_mod(fm, 0).expect("translator rule");
        }
        for port in 1..=ACCESS_PORTS {
            let route = FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_dst(host_mac(port)))
                .apply(vec![Action::output(u32::from(port))]);
            ss2.apply_flow_mod(&route, 0).expect("route");
        }
        // Higher-priority ACL entries the traffic never matches, in
        // three mask shapes so the slow path walks several TSS masks.
        for i in 0..scale.acl_rules {
            let m = Match::new()
                .eth_type(0x0800)
                .ip_proto(17)
                .udp_dst(ACL_PORT_BASE + (i / 3) as u16);
            let m = match i % 3 {
                0 => m,
                1 => m.ipv4_src_masked(Ipv4Addr::new(172, 16, 0, 0), Ipv4Addr::new(255, 255, 0, 0)),
                _ => m.ipv4_dst_masked(
                    Ipv4Addr::new(172, 17, 1, 0),
                    Ipv4Addr::new(255, 255, 255, 0),
                ),
            };
            let acl = FlowMod::add(0).priority(100).match_(m).apply(vec![]);
            ss2.apply_flow_mod(&acl, 0).expect("acl entry");
        }

        let mut rng = Rng::new(seed, 0x706f64);
        let mut flows = Vec::with_capacity(shape.flows);
        for i in 0..shape.flows {
            let a = 1 + rng.below(u64::from(ACCESS_PORTS)) as u16;
            let b = 1
                + (u64::from(a) + rng.below(u64::from(ACCESS_PORTS) - 1)) % u64::from(ACCESS_PORTS);
            let b = b as u16;
            let dport = 5_000 + rng.below(SERVICES) as u16;
            // The source port makes every 5-tuple distinct.
            let sport = 10_000 + i as u16;
            flows.push(Input {
                a,
                b,
                frame: flow_frame(a, b, 0, sport, dport, shape.frame_len),
            });
        }
        let order = (0..1 << 16)
            .map(|_| rng.below(shape.flows as u64) as u32)
            .collect();
        let mut rig = Rig {
            shape,
            bridge,
            ss1,
            ss2,
            b1: FrameBatch::with_capacity(GROUP),
            b2: FrameBatch::with_capacity(GROUP),
            b3: FrameBatch::with_capacity(GROUP),
            r1: BatchResult::default(),
            r2: BatchResult::default(),
            r3: BatchResult::default(),
            egress: Vec::with_capacity(GROUP),
            inputs: Vec::with_capacity(GROUP),
            flows,
            order,
            injected: 0,
            fresh: 0,
            bump_every: scale.churn_bump_every,
            bumps: 0,
            ss1_rule: translator[0].clone(),
        };
        rig.warm_up();
        rig
    }

    /// Hosts talk both ways before anything is timed, so the bridge has
    /// learned every station; then two passes over the flow set in the
    /// workload's own chunking fill the flow caches.
    fn warm_up(&mut self) {
        let mut off = Tracer::new();
        for i in 0..self.flows.len() {
            let f = &self.flows[i];
            let back = Input {
                a: f.b,
                b: f.a,
                frame: flow_frame(f.b, f.a, 0, 5_000, 10_000 + i as u16, 60),
            };
            self.inputs.clear();
            self.inputs.push(back);
            let failed = self.forward(&mut off, 0, 1);
            assert_eq!(failed, 0, "warm-up frame lost");
        }
        for _ in 0..2 {
            for lo in (0..self.flows.len()).step_by(self.shape.chunk) {
                let hi = (lo + self.shape.chunk).min(self.flows.len());
                self.inputs.clear();
                self.inputs.extend_from_slice(&self.flows[lo..hi]);
                let failed = self.forward(&mut off, 0, hi - lo);
                assert_eq!(failed, 0, "warm-up frame lost");
            }
        }
    }

    /// Drive `inputs[lo..hi]` through the five stages as one chunk and
    /// check every frame at the far edge. Returns the frames that
    /// failed: not delivered byte-identical at the expected access
    /// port, or punted to a controller.
    fn forward(&mut self, tr: &mut Tracer, lo: usize, hi: usize) -> u64 {
        let now = self.injected * 1_000;
        let chunk = &self.inputs[lo..hi];

        tr.enter(Layer::BridgeIn);
        for inp in chunk {
            let fw = self.bridge.forward(inp.a, &inp.frame, now);
            for (port, frame) in fw.outputs {
                if port == TRUNK {
                    self.b1.push(SS1_TRUNK, frame);
                }
            }
        }
        tr.exit();

        tr.enter(Layer::Ss1Down);
        self.ss1.process_batch_into(&mut self.b1, now, &mut self.r1);
        tr.exit();
        // Patch link i of SS_1 is port i of SS_2.
        for (port, frame) in self.r1.all_outputs() {
            self.b2.push(port.wrapping_sub(PATCH_BASE), frame.clone());
        }

        tr.enter(Layer::Ss2);
        self.ss2.process_batch_into(&mut self.b2, now, &mut self.r2);
        tr.exit();
        for (port, frame) in self.r2.all_outputs() {
            self.b3.push(PATCH_BASE + port, frame.clone());
        }

        tr.enter(Layer::Ss1Up);
        self.ss1.process_batch_into(&mut self.b3, now, &mut self.r3);
        tr.exit();

        tr.enter(Layer::BridgeOut);
        for (port, frame) in self.r3.all_outputs() {
            if *port == SS1_TRUNK {
                let fw = self.bridge.forward(TRUNK, frame, now);
                self.egress.extend(fw.outputs);
            }
        }
        tr.exit();

        let mut delivered = 0;
        if self.egress.len() == chunk.len() {
            for (inp, (port, frame)) in chunk.iter().zip(&self.egress) {
                if *port == inp.b && *frame == inp.frame {
                    delivered += 1;
                }
            }
        }
        self.egress.clear();
        let punted = self.r1.all_packet_ins().len()
            + self.r2.all_packet_ins().len()
            + self.r3.all_packet_ins().len();
        (chunk.len() - delivered + punted) as u64
    }

    /// Fill `inputs` with the next group in arrival order.
    fn next_group(&mut self) {
        self.inputs.clear();
        for k in 0..GROUP as u64 {
            let n = self.injected + k;
            let f = &self.flows[self.order[n as usize % self.order.len()] as usize];
            if self.shape.churn && n % FRESH_EVERY == FRESH_EVERY - 1 {
                // A 5-tuple no cache has seen: same stations, new
                // client address and port.
                let sport = 20_000 + (self.fresh % 40_000) as u16;
                let net = 1 + (self.fresh / 40_000) as u8;
                self.fresh += 1;
                self.inputs.push(Input {
                    a: f.a,
                    b: f.b,
                    frame: flow_frame(f.a, f.b, net, sport, 5_000, self.shape.frame_len),
                });
            } else {
                self.inputs.push(f.clone());
            }
        }
    }

    /// Add or delete (in turn) one ACL entry on SS_2: the table size
    /// stays steady, the epoch moves, every cache refills. SS_1 has one
    /// translator rule written again over itself at the same moment:
    /// its exact-match cache keeps an entry per 5-tuple it has ever
    /// seen, so without a flush of its own the never-seen tuples would
    /// pile up in it until it flushed by capacity, segments later, and
    /// no two segments would be alike.
    fn bump(&mut self, tr: &mut Tracer) {
        let now = self.injected * 1_000;
        let fm = if self.bumps.is_multiple_of(2) {
            FlowMod::add(0)
                .priority(100)
                .match_(churn_match())
                .apply(vec![])
        } else {
            FlowMod::delete(0).match_(churn_match())
        };
        tr.enter(Layer::FlowModApply);
        self.ss2.apply_flow_mod(&fm, now).expect("churn flow-mod");
        tr.exit();
        self.ss1
            .apply_flow_mod(&self.ss1_rule, now)
            .expect("translator rule rewritten");
        self.bumps += 1;
    }

    /// One timed segment of `frames` frames. Appends one sample per
    /// group to `groups`; returns host ns (canary passes taken out) and
    /// failed frames.
    fn segment(
        &mut self,
        tr: &mut Tracer,
        clock: &mut Clock,
        frames: u64,
        groups: &mut Vec<Group>,
    ) -> (u64, u64) {
        clock.take_spent();
        let wall = clock.now();
        let mut failed = 0;
        for _ in 0..frames / GROUP as u64 {
            if self.shape.churn && self.injected.is_multiple_of(self.bump_every) {
                self.bump(tr);
            }
            self.next_group();
            tr.set_request((self.injected / GROUP as u64) as u32);
            let t0 = clock.now();
            tr.enter(Layer::Root);
            let mut lost = 0;
            for lo in (0..GROUP).step_by(self.shape.chunk) {
                lost += self.forward(tr, lo, lo + self.shape.chunk);
            }
            tr.exit();
            let t1 = clock.now();
            groups.push(Group::new(
                t0,
                t1 - t0,
                GROUP as u64 - lost.min(GROUP as u64),
            ));
            clock.tick(t1);
            failed += lost;
            self.injected += GROUP as u64;
        }
        let wall_ns = clock.now() - wall - clock.take_spent();
        clock.reference(groups);
        (wall_ns, failed)
    }

    /// `CostModel::cost_ns` over every `FrameResult::trace` of the three
    /// datapath passes, per frame, on `groups` untimed groups.
    fn cost_model_ns(&mut self, groups: u64) -> f64 {
        let model = CostModel::default();
        let mut off = Tracer::new();
        let mut ns = 0u64;
        for _ in 0..groups {
            self.next_group();
            for lo in (0..GROUP).step_by(self.shape.chunk) {
                self.forward(&mut off, lo, lo + self.shape.chunk);
                for r in [&self.r1, &self.r2, &self.r3] {
                    for f in r.frames() {
                        ns += f.trace.as_ref().map_or(0, |t| model.cost_ns(t));
                    }
                }
            }
            self.injected += GROUP as u64;
        }
        ns as f64 / (groups * GROUP as u64) as f64
    }
}

/// Host ns of the first frame of a flow after a flow-mod moved SS_2's
/// epoch: cache miss, slow-path walk, cache insert. The very first
/// frame also rebuilds the lookup index; it goes untimed.
fn slow_path_ns(ss2: &mut Datapath, flows: &[Input], iters: u32) -> f64 {
    let n = (iters as usize).min(flows.len() - 1);
    let mut batch = FrameBatch::with_capacity(1);
    let mut out = BatchResult::default();
    let mut first = |f: &Input| {
        batch.push(u32::from(f.a), f.frame.clone());
        ss2.process_batch_into(&mut batch, 0, &mut out);
    };
    first(&flows[0]);
    let t = Instant::now();
    flows[1..=n].iter().for_each(&mut first);
    t.elapsed().as_nanos() as f64 / n as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run one of the four pod workloads.
pub fn run(workload: &str, p: &Params, tr: &mut Tracer, clock: &mut Clock) -> Outcome {
    let shape = shape(workload, &p.scale);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut rig = None;
    for _ in 0..p.scale.cheap_setups {
        // One rig at a time, or peak memory counts two.
        drop(rig.take());
        let t = clock.now();
        rig = Some(Rig::new(p.seed, shape, &p.scale));
        let done = clock.now();
        out.setups_s.push(clock.reference_s(t, done));
    }
    let mut rig = rig.expect("at least one set-up");
    let warm_frames = rig.injected;

    let frames = p.scale.pod_segment_frames;
    let allocs0 = bytes::buffer_allocs();
    let (c1, c2) = (DpCounters::read(&rig.ss1), DpCounters::read(&rig.ss2));
    let mut groups = Vec::with_capacity((frames / GROUP as u64) as usize);
    // Per traced segment, ns per frame by layer.
    let mut layer_ns: Vec<[f64; crate::trace::N_LAYERS]> = Vec::new();
    let mut flow_mod_ns = Vec::new();
    let budget = Budget::new(p.seconds);
    let mut last_s = 0.0;
    while budget.more(out.segments.len(), last_s) {
        // A traced run alternates untraced and traced segments of the
        // same work: their difference is the tracing overhead.
        let traced = p.trace && out.segments.len() % 2 == 1;
        groups.clear();
        let before2 = DpCounters::read(&rig.ss2);
        let before1 = DpCounters::read(&rig.ss1);
        tr.set_on(traced);
        let (wall_ns, failed) = rig.segment(tr, clock, frames, &mut groups);
        tr.set_on(false);
        out.failed += failed;
        let seg = Segment::from_groups(wall_ns, &groups, traced);
        out.segments.push(seg);
        last_s = wall_ns as f64 / 1e9;
        if traced {
            let t = tr.take_totals();
            layer_ns.push(t.self_ns.map(|ns| ns as f64 * seg.speed / frames as f64));
            if t.calls_of(Layer::FlowModApply) > 0 {
                flow_mod_ns.push(
                    seg.speed
                        * ratio(
                            t.self_of(Layer::FlowModApply),
                            t.calls_of(Layer::FlowModApply),
                        ),
                );
            }
        }
        if shape.churn {
            // Each flow-mod empties the caches; nothing else may. A
            // capacity flush would show as more misses than there are
            // distinct keys between two flow-mods.
            let bumps = frames / p.scale.churn_bump_every;
            let keys = bumps * (shape.flows as u64 + p.scale.churn_bump_every / FRESH_EVERY);
            let m2 = DpCounters::read(&rig.ss2).since(&before2).micro_misses;
            let m1 = DpCounters::read(&rig.ss1).since(&before1).micro_misses;
            if m2 > keys || m1 > 2 * keys {
                eprintln!(
                    "hbench: {workload}: cache flushed by capacity \
                     (micro misses ss1 {m1} ss2 {m2}, distinct keys {keys})"
                );
                out.correct = false;
            }
        }
    }
    let timed_frames = rig.injected - warm_frames;
    out.attempted = timed_frames;
    let allocs = bytes::buffer_allocs() - allocs0;
    let (d1, d2) = (
        DpCounters::read(&rig.ss1).since(&c1),
        DpCounters::read(&rig.ss2).since(&c2),
    );

    const RATIOS: [[&str; 4]; 2] = [
        [
            "softswitch.ss1.memo_hit_ratio",
            "softswitch.ss1.micro_hit_ratio",
            "softswitch.ss1.mega_hit_ratio",
            "softswitch.ss1.slow_path_ratio",
        ],
        [
            "softswitch.ss2.memo_hit_ratio",
            "softswitch.ss2.micro_hit_ratio",
            "softswitch.ss2.mega_hit_ratio",
            "softswitch.ss2.slow_path_ratio",
        ],
    ];
    for (names, d) in RATIOS.into_iter().zip([d1, d2]) {
        let hits = [d.memo_hits, d.micro_hits, d.mega_hits, d.mega_misses];
        for (name, n) in names.into_iter().zip(hits) {
            out.set(name, ratio(n, d.packets));
        }
    }
    let segs = out.segments.len() as f64;
    out.set("netpkt.allocs_per_frame", ratio(allocs, timed_frames));
    out.set(
        "softswitch.epoch_bumps",
        if shape.churn {
            (frames / p.scale.churn_bump_every) as f64
        } else {
            0.0
        },
    );
    out.set("softswitch.refill_frames", d2.micro_misses as f64 / segs);

    if p.trace {
        let col = |l: Layer| -> f64 {
            let v: Vec<f64> = layer_ns.iter().map(|s| s[l as usize]).collect();
            median(&v)
        };
        out.set("legacy_switch.bridge_in_ns", col(Layer::BridgeIn));
        out.set("legacy_switch.bridge_out_ns", col(Layer::BridgeOut));
        out.set("softswitch.ss1_down_ns", col(Layer::Ss1Down));
        out.set("softswitch.ss2_ns", col(Layer::Ss2));
        out.set("softswitch.ss1_up_ns", col(Layer::Ss1Up));
        out.set("harness.glue_ns", col(Layer::Root));
        if !flow_mod_ns.is_empty() {
            out.set("softswitch.flow_mod_apply_ns", median(&flow_mod_ns));
        }
        let model = rig.cost_model_ns(64);
        let measured = col(Layer::Ss1Down) + col(Layer::Ss2) + col(Layer::Ss1Up);
        out.set("softswitch.costmodel_ns", model);
        out.set(
            "softswitch.costmodel_over_measured",
            if measured > 0.0 {
                model / measured
            } else {
                0.0
            },
        );
        rig.bump(tr);
        let host_ns = slow_path_ns(&mut rig.ss2, &rig.flows, p.scale.probe_iters);
        out.set("softswitch.slow_path_ns", host_ns * clock.factor_now());
        let sample: Vec<Bytes> = rig.flows.iter().map(|f| f.frame.clone()).collect();
        probes::run_all(&mut out, &sample, &p.scale, clock);
    }
    out
}
