//! Traffic generation and measurement endpoints.
//!
//! Generators stamp every frame with a sequence number and send timestamp
//! (16 bytes at the start of the UDP payload); sinks recover the stamp to
//! build one-way latency histograms, like a hardware tester's latency tags.

use bytes::Bytes;
use rand::Rng;
use std::net::Ipv4Addr;

use netpkt::wire::Cursor;
use netpkt::{builder, udp, IpProto, Layers, MacAddr};

use crate::node::{Node, NodeCtx, PortId};
use crate::stats::{Histogram, SloMeter};
use crate::time::SimTime;

/// Size of the measurement stamp embedded in generated payloads.
pub const STAMP_LEN: usize = 16;

/// The measurement stamp: sequence number + send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Monotonic per-generator sequence number.
    pub seq: u64,
    /// Send time in simulated nanoseconds.
    pub sent_ns: u64,
}

impl Stamp {
    /// Serialize into the first [`STAMP_LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..16].copy_from_slice(&self.sent_ns.to_be_bytes());
    }

    /// Recover a stamp from a payload, if long enough.
    pub fn read(mut buf: &[u8]) -> Option<Stamp> {
        Some(Stamp {
            seq: buf.u64().ok()?,
            sent_ns: buf.u64().ok()?,
        })
    }
}

/// The UDP destination port and the stamp (if the payload holds one) of
/// an Ethernet/[802.1Q]/IPv4/UDP frame — one header walk for everything
/// a [`Sink`] reads off an arrival.
fn udp_port_and_stamp(frame: &[u8]) -> Option<(u16, Option<Stamp>)> {
    let walk = Layers::parse(frame).ok()?;
    let mut l4 = walk.ipv4().filter(|v4| v4.ip.proto == IpProto::UDP)?.l4;
    let udp = udp::Header::parse(&mut l4).ok()?;
    Some((udp.dst_port, Stamp::read(l4.take(udp.payload_len()).ok()?)))
}

/// One L2/L3/L4 flow a generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Total Ethernet frame length (without FCS); at least 60.
    pub frame_len: usize,
}

impl FlowSpec {
    /// A simple host-to-host flow with standard test parameters.
    pub fn simple(src: u32, dst: u32, frame_len: usize) -> FlowSpec {
        FlowSpec {
            src_mac: MacAddr::host(src),
            dst_mac: MacAddr::host(dst),
            src_ip: Ipv4Addr::from(0x0a00_0000 | src),
            dst_ip: Ipv4Addr::from(0x0a00_0000 | dst),
            src_port: 10_000 + (src % 50_000) as u16,
            dst_port: 20_000 + (dst % 40_000) as u16,
            frame_len,
        }
    }
}

/// Inter-departure pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Constant bit rate: exactly `pps` frames per second.
    Cbr {
        /// Frames per second.
        pps: f64,
    },
    /// Poisson arrivals with mean rate `pps`.
    Poisson {
        /// Mean frames per second.
        pps: f64,
    },
    /// Pareto (heavy-tailed) inter-departure gaps with mean rate `pps`:
    /// most gaps are short, a few are very long — the burst structure of
    /// elephant flows. Requires `alpha > 1` so the mean exists.
    Pareto {
        /// Mean frames per second.
        pps: f64,
        /// Tail index; smaller = heavier tail. Must exceed 1.
        alpha: f64,
    },
}

impl Pattern {
    fn next_gap(&self, rng: &mut rand::rngs::StdRng) -> SimTime {
        match *self {
            Pattern::Cbr { pps } => SimTime::from_nanos((1e9 / pps) as u64),
            Pattern::Poisson { pps } => {
                let u: f64 = rng.gen_range(1e-12..1.0);
                SimTime::from_nanos(((-u.ln()) * 1e9 / pps) as u64)
            }
            Pattern::Pareto { pps, alpha } => {
                // Scale chosen so the mean gap is exactly 1/pps:
                // mean = alpha·x_m/(alpha-1).
                let x_m = (1e9 / pps) * (alpha - 1.0) / alpha;
                let u: f64 = rng.gen_range(1e-12..1.0);
                SimTime::from_nanos((x_m / u.powf(1.0 / alpha)) as u64)
            }
        }
    }

    /// The configured mean rate.
    pub fn pps(&self) -> f64 {
        match *self {
            Pattern::Cbr { pps } | Pattern::Poisson { pps } | Pattern::Pareto { pps, .. } => pps,
        }
    }
}

/// How a multi-flow generator picks the flow of the next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowChoice {
    /// Cycle through flows in order.
    RoundRobin,
    /// Pick uniformly at random.
    Random,
}

const TOKEN_SEND: u64 = 1;

/// A stamped UDP traffic generator attached to one port.
pub struct Generator {
    name: String,
    port: PortId,
    pattern: Pattern,
    flows: Vec<FlowSpec>,
    choice: FlowChoice,
    start: SimTime,
    stop: SimTime,
    next_flow: usize,
    seq: u64,
    sent: u64,
    sent_bytes: u64,
    running: bool,
}

impl Generator {
    /// Create a generator; it begins sending at `start` and stops at
    /// `stop` (exclusive).
    pub fn new(
        name: impl Into<String>,
        port: PortId,
        pattern: Pattern,
        flows: Vec<FlowSpec>,
        start: SimTime,
        stop: SimTime,
    ) -> Generator {
        assert!(!flows.is_empty(), "generator needs at least one flow");
        Generator {
            name: name.into(),
            port,
            pattern,
            flows,
            choice: FlowChoice::RoundRobin,
            start,
            stop,
            next_flow: 0,
            seq: 0,
            sent: 0,
            sent_bytes: 0,
            running: false,
        }
    }

    /// Select flows randomly instead of round-robin.
    pub fn with_random_flows(mut self) -> Self {
        self.choice = FlowChoice::Random;
        self
    }

    /// Frames sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Bytes sent so far (frame bytes, no wire overhead).
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// The configured inter-departure pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// How the generator picks the flow of each frame.
    pub fn choice(&self) -> FlowChoice {
        self.choice
    }

    /// The configured flows.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// When sending begins.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// When sending stops (exclusive).
    pub fn stop(&self) -> SimTime {
        self.stop
    }

    /// The sequence number of the *next* frame (== frames emitted so
    /// far, whether transmitted or credited analytically).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// A representative wire frame of flow `idx`, exactly as the
    /// generator would emit it except for the measurement stamp (zeroed
    /// here — it lives in the UDP payload and cannot change how any
    /// switch classifies the frame). The flow-level engine uses these
    /// templates to probe per-hop cache residency.
    pub fn probe_frame(&self, idx: usize) -> Bytes {
        let f = self.flows[idx];
        let overhead = 14 + 20 + 8; // eth + ipv4 + udp
        let payload_len = f.frame_len.saturating_sub(overhead).max(STAMP_LEN);
        let payload = vec![0u8; payload_len];
        builder::udp_packet(
            f.src_mac, f.dst_mac, f.src_ip, f.dst_ip, f.src_port, f.dst_port, &payload,
        )
    }

    /// Stop emitting without touching the schedule: a pending send timer
    /// will fire and find `running == false`. Used by the flow-level
    /// engine when it promotes this generator's flows; restart with
    /// [`Generator::resume`].
    pub fn pause(&mut self) {
        self.running = false;
    }

    /// Resume packet-level emission after a [`Generator::pause`], with
    /// the next frame due at its CBR slot `start + seq·gap` (strictly in
    /// the future relative to `ctx.now()` whenever the modeled credit
    /// stopped at the current instant). CBR only — it is the only
    /// pattern whose departure times are reconstructible without
    /// consuming RNG, which is what keeps pause/credit/resume invisible
    /// to every other random stream.
    ///
    /// # Panics
    /// Panics if the pattern is not [`Pattern::Cbr`].
    pub fn resume(&mut self, ctx: &mut NodeCtx) {
        let Pattern::Cbr { pps } = self.pattern else {
            panic!("resume requires a CBR generator");
        };
        self.running = true;
        if ctx.now() >= self.stop {
            return;
        }
        let gap = (1e9 / pps) as u64;
        let next = self.start + SimTime::from_nanos(self.seq * gap);
        ctx.schedule(next.saturating_sub(ctx.now()), TOKEN_SEND);
    }

    /// Credit `frames` departures (totalling `bytes`) that the
    /// flow-level engine advanced analytically: counters and round-robin
    /// position move exactly as if the frames had been built and
    /// transmitted.
    pub fn credit_modeled(&mut self, frames: u64, bytes: u64) {
        self.seq += frames;
        self.sent += frames;
        self.sent_bytes += bytes;
        let n = self.flows.len();
        self.next_flow = (self.next_flow + (frames % n as u64) as usize) % n;
    }

    fn build_frame(&mut self, now: SimTime, rng: &mut rand::rngs::StdRng) -> Bytes {
        let idx = match self.choice {
            FlowChoice::RoundRobin => {
                let i = self.next_flow;
                self.next_flow = (self.next_flow + 1) % self.flows.len();
                i
            }
            FlowChoice::Random => rng.gen_range(0..self.flows.len()),
        };
        let f = self.flows[idx];
        let overhead = 14 + 20 + 8; // eth + ipv4 + udp
        let payload_len = f.frame_len.saturating_sub(overhead).max(STAMP_LEN);
        let stamp = Stamp {
            seq: self.seq,
            sent_ns: now.as_nanos(),
        };
        self.seq += 1;
        builder::udp_packet_with(
            f.src_mac,
            f.dst_mac,
            f.src_ip,
            f.dst_ip,
            f.src_port,
            f.dst_port,
            payload_len,
            |payload| stamp.write(payload),
        )
    }
}

impl Node for Generator {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.running = true;
        let delay = self.start.saturating_sub(ctx.now());
        ctx.schedule(delay, TOKEN_SEND);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        if token != TOKEN_SEND || !self.running {
            return;
        }
        if ctx.now() >= self.stop {
            self.running = false;
            return;
        }
        let now = ctx.now();
        let frame = self.build_frame(now, ctx.rng());
        self.sent += 1;
        self.sent_bytes += frame.len() as u64;
        ctx.transmit(self.port, frame);
        let gap = self.pattern.next_gap(ctx.rng());
        ctx.schedule(gap, TOKEN_SEND);
    }

    fn on_packet(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut NodeCtx) {
        // Generators ignore return traffic.
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A measuring sink: counts everything, recovers stamps for latency.
pub struct Sink {
    name: String,
    received: u64,
    rx_bytes: u64,
    unstamped: u64,
    latency: Histogram,
    first_rx: Option<SimTime>,
    last_rx: Option<SimTime>,
    /// Received per UDP destination port — used by the LB experiment to
    /// count per-backend shares when multiple flows land on one sink.
    by_dst_port: std::collections::BTreeMap<u16, u64>,
    /// One-way latency of the most recent stamped arrival.
    last_latency_ns: Option<u64>,
    /// Optional SLO meter fed with every arrival (see [`Sink::with_slo`]).
    slo: Option<SloMeter>,
}

impl Sink {
    /// Create a named sink.
    pub fn new(name: impl Into<String>) -> Sink {
        Sink {
            name: name.into(),
            received: 0,
            rx_bytes: 0,
            unstamped: 0,
            latency: Histogram::new(),
            first_rx: None,
            last_rx: None,
            by_dst_port: std::collections::BTreeMap::new(),
            last_latency_ns: None,
            slo: None,
        }
    }

    /// Attach an [`SloMeter`]: every arrival is observed, and any
    /// service gap longer than `threshold` counts as an outage. Read
    /// the results back with [`Sink::slo`] / [`Sink::slo_mut`] (call
    /// [`SloMeter::finish`] once the measurement window closes).
    pub fn with_slo(mut self, threshold: SimTime) -> Self {
        self.slo = Some(SloMeter::new(threshold.as_nanos()));
        self
    }

    /// The SLO meter, if one was attached.
    pub fn slo(&self) -> Option<&SloMeter> {
        self.slo.as_ref()
    }

    /// Mutable SLO meter access (to `finish` the window).
    pub fn slo_mut(&mut self) -> Option<&mut SloMeter> {
        self.slo.as_mut()
    }

    /// Frames received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Bytes received.
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes
    }

    /// Frames that carried no recoverable stamp.
    pub fn unstamped(&self) -> u64 {
        self.unstamped
    }

    /// Time of the first arrival, if any — the service-establishment
    /// instant in migration-under-traffic scenarios.
    pub fn first_rx(&self) -> Option<SimTime> {
        self.first_rx
    }

    /// Credit a window of analytically advanced arrivals: `per_port`
    /// lists `(udp_dst_port, frames)` batches, each frame `frame_len`
    /// bytes with one-way latency `latency_ns`, the last of them landing
    /// at `last_arrival`. Counters, the per-port shares and the latency
    /// histogram move exactly as if the frames had been delivered.
    ///
    /// # Panics
    /// Panics if an [`SloMeter`] is attached: outage detection needs
    /// every individual arrival time, so metered sinks must stay
    /// packet-level.
    pub fn credit_modeled(
        &mut self,
        per_port: &[(u16, u64)],
        frame_len: u64,
        latency_ns: u64,
        last_arrival: SimTime,
    ) {
        assert!(
            self.slo.is_none(),
            "flow-level credit on an SLO-metered sink ({})",
            self.name
        );
        let total: u64 = per_port.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return;
        }
        self.received += total;
        self.rx_bytes += total * frame_len;
        self.latency.record_n(latency_ns, total);
        self.last_latency_ns = Some(latency_ns);
        if self.first_rx.is_none() {
            self.first_rx = Some(last_arrival);
        }
        self.last_rx = Some(self.last_rx.map_or(last_arrival, |t| t.max(last_arrival)));
        for &(port, n) in per_port {
            if n > 0 {
                *self.by_dst_port.entry(port).or_insert(0) += n;
            }
        }
    }

    /// One-way latency histogram (nanoseconds).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// One-way latency of the most recent stamped arrival, if any. A
    /// converged CBR flow repeats this value frame after frame, which is
    /// what lets the flow-level engine model a promoted flow's arrivals
    /// with a single number.
    pub fn last_latency_ns(&self) -> Option<u64> {
        self.last_latency_ns
    }

    /// Mean receive rate in frames/second over the observation window.
    pub fn rx_pps(&self) -> f64 {
        match (self.first_rx, self.last_rx) {
            (Some(a), Some(b)) if b > a => {
                self.received.saturating_sub(1) as f64 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Per-UDP-destination-port receive counts (UDP over IPv4, port 0
    /// not counted).
    pub fn by_dst_port(&self) -> &std::collections::BTreeMap<u16, u64> {
        &self.by_dst_port
    }

    /// Fold this sink's counters into a [`crate::stats::Rollup`]
    /// (per-pod/per-group aggregation in multi-pod experiments).
    pub fn roll_into(&self, rollup: &mut crate::stats::Rollup) {
        rollup.absorb(self.received, self.rx_bytes, &self.latency);
    }
}

impl Node for Sink {
    fn on_packet(&mut self, _port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        self.received += 1;
        self.rx_bytes += frame.len() as u64;
        let now = ctx.now();
        if self.first_rx.is_none() {
            self.first_rx = Some(now);
        }
        self.last_rx = Some(now);
        if let Some(slo) = self.slo.as_mut() {
            slo.observe(now.as_nanos());
        }
        let (port, stamp) = udp_port_and_stamp(&frame).unwrap_or((0, None));
        match stamp {
            Some(stamp) => {
                let lat = now.as_nanos().saturating_sub(stamp.sent_ns);
                self.latency.record(lat);
                self.last_latency_ns = Some(lat);
            }
            None => self.unstamped += 1,
        }
        if port != 0 {
            *self.by_dst_port.entry(port).or_insert(0) += 1;
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One aggregated traffic demand produced by a [`TrafficMatrix`]: a
/// bundle of `n_flows` equal-rate flows from one pod to another, sharing
/// a frame size and an aggregate rate. Fabric-agnostic — the experiment
/// layer maps pods to stations and flows to [`FlowSpec`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Pod the flows originate in.
    pub src_pod: u16,
    /// Pod the flows terminate in.
    pub dst_pod: u16,
    /// Number of distinct flows in the bundle.
    pub n_flows: u32,
    /// Aggregate rate of the whole bundle, frames per second.
    pub pps: f64,
    /// Ethernet frame length for every frame of the bundle.
    pub frame_len: usize,
    /// Whether the bundle was drawn from the elephant class.
    pub elephant: bool,
}

/// A seeded, heavy-tailed traffic matrix: a small elephant class carries
/// most of the bytes while the mice class carries most of the flows —
/// the canonical datacenter mix. Deterministic for a given seed and
/// shape, so experiments regenerate the same matrix on every run.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    demands: Vec<Demand>,
}

impl TrafficMatrix {
    /// Fraction of bundles drawn from the elephant class.
    pub const ELEPHANT_FRACTION: f64 = 0.125;

    /// Generate a matrix over `n_pods` pods with `bundles_per_pod`
    /// demands sourced in each pod, each bundling `flows_per_bundle`
    /// flows. Destinations are drawn uniformly over the *other* pods
    /// (self-pod demands only when there is a single pod). Elephants
    /// (12.5% of bundles) run 2–4 frames/s per flow at 1024 B; mice run
    /// 0.05–0.2 frames/s per flow at 128 B.
    pub fn heavy_tailed(
        seed: u64,
        n_pods: u16,
        bundles_per_pod: u16,
        flows_per_bundle: u32,
    ) -> TrafficMatrix {
        use rand::SeedableRng;
        assert!(n_pods >= 1, "need at least one pod");
        assert!(flows_per_bundle >= 1, "need at least one flow per bundle");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7261_6666_6963_6d78);
        let mut demands = Vec::new();
        for src in 0..n_pods {
            for _ in 0..bundles_per_pod {
                let dst = if n_pods == 1 {
                    0
                } else {
                    // Uniform over the other pods.
                    let d = rng.gen_range(0..n_pods - 1);
                    if d >= src {
                        d + 1
                    } else {
                        d
                    }
                };
                let elephant = rng.gen_bool(Self::ELEPHANT_FRACTION);
                let per_flow = if elephant {
                    rng.gen_range(2.0..4.0)
                } else {
                    rng.gen_range(0.05..0.2)
                };
                demands.push(Demand {
                    src_pod: src,
                    dst_pod: dst,
                    n_flows: flows_per_bundle,
                    pps: per_flow * f64::from(flows_per_bundle),
                    frame_len: if elephant { 1024 } else { 128 },
                    elephant,
                });
            }
        }
        TrafficMatrix { demands }
    }

    /// The generated demands, in (source pod, draw order).
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Total flows across all demands.
    pub fn total_flows(&self) -> u64 {
        self.demands.iter().map(|d| u64::from(d.n_flows)).sum()
    }

    /// Total offered rate in frames per second.
    pub fn total_pps(&self) -> f64 {
        self.demands.iter().map(|d| d.pps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::net::Network;
    use netpkt::vlan::{push_vlan, VlanTag};

    #[test]
    fn stamp_round_trip() {
        let mut buf = [0u8; STAMP_LEN];
        let s = Stamp {
            seq: 42,
            sent_ns: 123_456_789,
        };
        s.write(&mut buf);
        assert_eq!(Stamp::read(&buf), Some(s));
        assert_eq!(Stamp::read(&buf[..8]), None);
    }

    #[test]
    fn stamp_recoverable_from_tagged_frame() {
        let f = FlowSpec::simple(1, 2, 100);
        let mut payload = vec![0u8; 32];
        Stamp {
            seq: 7,
            sent_ns: 999,
        }
        .write(&mut payload);
        let frame = builder::udp_packet(
            f.src_mac, f.dst_mac, f.src_ip, f.dst_ip, f.src_port, f.dst_port, &payload,
        );
        let tagged = push_vlan(&frame, VlanTag::new(101)).unwrap();
        let (_, stamp) = udp_port_and_stamp(&tagged).unwrap();
        assert_eq!(stamp.unwrap().seq, 7);
    }

    #[test]
    fn cbr_generator_hits_target_rate() {
        let mut net = Network::new(7);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 10_000.0 },
            vec![FlowSpec::simple(1, 2, 128)],
            SimTime::ZERO,
            SimTime::from_millis(100),
        ));
        let s = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(200));
        let sent = net.node_ref::<Generator>(g).sent();
        let recv = net.node_ref::<Sink>(s).received();
        assert_eq!(sent, 1000); // 10 kpps for 100 ms
        assert_eq!(recv, sent);
        let sink = net.node_ref::<Sink>(s);
        assert_eq!(sink.unstamped(), 0);
        // Latency = ser (128+24 B at 1 Gbps = 1216 ns) + 1 µs prop.
        assert_eq!(sink.latency().max(), 2216);
        assert!(
            (sink.rx_pps() - 10_000.0).abs() < 150.0,
            "pps={}",
            sink.rx_pps()
        );
    }

    #[test]
    fn poisson_generator_approximates_rate() {
        let mut net = Network::new(3);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Poisson { pps: 50_000.0 },
            vec![FlowSpec::simple(1, 2, 60)],
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        let s = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_secs(2));
        let sent = net.node_ref::<Generator>(g).sent() as f64;
        assert!((sent - 50_000.0).abs() < 1_500.0, "sent={sent}");
    }

    #[test]
    fn generator_respects_start_stop_window() {
        let mut net = Network::new(3);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 1_000.0 },
            vec![FlowSpec::simple(1, 2, 60)],
            SimTime::from_millis(500),
            SimTime::from_millis(600),
        ));
        let s = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Generator>(g).sent(), 0);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.node_ref::<Generator>(g).sent(), 100);
    }

    #[test]
    fn multi_flow_round_robin_covers_all_flows() {
        let flows = vec![
            FlowSpec::simple(1, 2, 60),
            FlowSpec::simple(1, 3, 60),
            FlowSpec::simple(1, 4, 60),
        ];
        let mut net = Network::new(3);
        let g = net.add_node(Generator::new(
            "gen",
            PortId(0),
            Pattern::Cbr { pps: 3_000.0 },
            flows,
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let s = net.add_node(Sink::new("sink"));
        net.connect(g, PortId(0), s, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_millis(20));
        let sink = net.node_ref::<Sink>(s);
        // 31 sends in [0, 10ms) at 3 kpps (k·333µs for k = 0..=30), dealt
        // round-robin: flow 0 gets 11, flows 1 and 2 get 10 each.
        assert_eq!(sink.by_dst_port().len(), 3);
        assert_eq!(sink.by_dst_port()[&20002], 11);
        assert_eq!(sink.by_dst_port()[&20003], 10);
        assert_eq!(sink.by_dst_port()[&20004], 10);
    }
}
