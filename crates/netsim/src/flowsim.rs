//! Flow-level hybrid simulation: promote converged flows out of the
//! packet engine, advance them analytically, demote on any disturbance.
//!
//! At HARMLESS fabric scale (millions of host flows), steady-state
//! traffic is almost all cache-resident: every frame replays a cached
//! fast-path recipe at each soft switch and the event count is pure
//! overhead. This module exploits that. A [`FlowBundleSpec`] names one
//! CBR round-robin [`Generator`]→[`Sink`] station pair (carrying many
//! host flows), the ordered hops its frames traverse, and the links on
//! its path. The [`FlowSim`] driver slices [`Network::run_until`] into
//! fixed window multiples and, at each window boundary, runs a
//! promotion/demotion state machine per bundle:
//!
//! * **Packet → Converged** when the path has been *quiet* for
//!   `PROMOTE_AFTER` consecutive windows (no hop's quiescence counter
//!   moved, all path links up), the generator has completed at least two
//!   round-robin cycles, the sink has seen all but the in-flight tail,
//!   and every hop that can answer reports the bundle's probe frames
//!   cache-resident. Promotion pauses the generator and snapshots the
//!   last observed one-way latency.
//! * **Converged** bundles advance as pure arithmetic: each window, the
//!   departures with CBR slot `start + k·gap ≤ w_end` are credited to
//!   the generator and every hop ([`crate::Node::credit_modeled`]), and the
//!   arrivals with `start + k·gap + latency ≤ w_end` are credited to the
//!   sink — counters, byte totals, round-robin position and per-port
//!   breakdowns move exactly as if the frames had been simulated.
//! * **Converged → Packet** the moment any hop's quiescence counter
//!   moves (table mod, cache epoch bump, slow-path miss, NAT eviction,
//!   fault-induced drop, packet-in, reset) or a path link goes down.
//!   In-flight modeled frames are settled (credited at their computed
//!   arrival times if the path is still up, counted as
//!   [`HybridStats::modeled_blackholed`] otherwise) and the generator
//!   resumes at its next CBR slot — which consumes no RNG, so every
//!   other random stream in the simulation is untouched.
//!
//! Determinism for any `--threads` holds by construction: the driver
//! slices the run at fixed window multiples (and
//! [`Network::run_until`] slicing is result-neutral), reads/mutates
//! nodes only between slices on the driver thread, and draws no
//! randomness of its own.
//!
//! The one modeling assumption: converged frames do not contend with
//! packet-level traffic in switch service queues (their service cost is
//! credited, not scheduled). Equivalence suites therefore pin exact
//! counter equality at rates where queues stay shallow; see
//! `docs/ARCHITECTURE.md`.

use bytes::Bytes;

use crate::net::{Network, NodeId};
use crate::node::PortId;
use crate::stats::Rollup;
use crate::time::SimTime;
use crate::traffic::{FlowChoice, Generator, Pattern, Sink};

/// One hop on a bundle's forwarding path.
#[derive(Debug, Clone)]
pub struct FlowHop {
    /// The node the bundle's frames traverse.
    pub node: NodeId,
    /// Ingress port the frames arrive on at this hop.
    pub in_port: PortId,
    /// Representative wire frames to probe cache residency with, one
    /// per host flow (usually [`Generator::probe_frame`] templates,
    /// VLAN-tagged or rewritten to match what this hop actually sees).
    /// `None` skips the residency gate at this hop — correct for legacy
    /// switches and for hops whose ingress frames cannot be
    /// reconstructed (e.g. downstream of per-hop L3 rewrites). Shared
    /// (`Arc`) because consecutive hops usually see identical frames
    /// and bundles can carry thousands of probes.
    pub probe: Option<std::sync::Arc<[Bytes]>>,
}

/// A promotable station pair: one CBR round-robin generator feeding one
/// sink across an ordered list of hops.
#[derive(Debug, Clone)]
pub struct FlowBundleSpec {
    /// The [`Generator`] node (must be CBR + round-robin).
    pub generator: NodeId,
    /// The [`Sink`] node (must not carry an SLO meter).
    pub sink: NodeId,
    /// Hops in path order, each with an optional residency probe.
    pub hops: Vec<FlowHop>,
    /// One `(node, port)` endpoint per link on the path (either side —
    /// [`Network::link_up`] checks both directions). A down or
    /// disconnected link here blocks promotion and forces demotion.
    pub links: Vec<(NodeId, PortId)>,
}

/// Counters for the hybrid engine itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Host flows promoted to flow level (bundle flow count, summed
    /// over promotion events).
    pub flows_promoted: u64,
    /// Host flows demoted back to packet level.
    pub flows_demoted: u64,
    /// Promotion events (bundle granularity).
    pub promotions: u64,
    /// Demotion events (bundle granularity).
    pub demotions: u64,
    /// Window ticks that advanced at least one converged bundle.
    pub window_updates: u64,
    /// Frames advanced analytically instead of simulated.
    pub frames_modeled: u64,
    /// Bytes advanced analytically instead of simulated.
    pub bytes_modeled: u64,
    /// Modeled in-flight frames discarded at demotion because a path
    /// link was down (the packet engine would have blackholed them).
    pub modeled_blackholed: u64,
}

impl HybridStats {
    /// Fold these counters into a [`Rollup`]. `bytes_simulated` is not
    /// touched — fill it from [`Network::delivered_bytes`], which the
    /// engine cannot see from here.
    pub fn roll_into(&self, rollup: &mut Rollup) {
        rollup.flows_promoted += self.flows_promoted;
        rollup.flows_demoted += self.flows_demoted;
        rollup.window_updates += self.window_updates;
        rollup.bytes_modeled += self.bytes_modeled;
    }
}

/// Per-bundle lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Simulated packet-by-packet; `quiet` counts consecutive
    /// undisturbed windows.
    Packet { quiet: u32 },
    /// Advancing analytically.
    Converged(ConvergedFlow),
    /// All departures and arrivals accounted for.
    Done,
}

/// The analytic position of a converged bundle: everything needed to
/// credit departures and arrivals without simulating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConvergedFlow {
    /// Absolute index of the next departure to credit.
    dep_next: u64,
    /// Absolute index of the next arrival to credit (`≤ dep_next`; the
    /// gap is the modeled in-flight tail).
    arr_next: u64,
    /// One-way latency applied to every modeled frame, snapshotted from
    /// the sink at promotion.
    latency_ns: u64,
}

struct Bundle {
    spec: FlowBundleSpec,
    state: State,
    /// Last observed per-hop quiescence counters (`None` = hop has no
    /// signal and never blocks).
    last_q: Vec<Option<u64>>,
    // Cached CBR parameters, validated at add time.
    gap_ns: u64,
    start_ns: u64,
    n_total: u64,
    n_flows: u64,
    frame_bytes: u64,
    dst_ports: Vec<u16>,
    /// Generator/sink counters at the previous packet-level tick. The
    /// promotion gate compares per-window *deltas*, not cumulative
    /// counts — frames lost to a past fault would otherwise offset the
    /// ledger and block re-promotion forever.
    last_seq: u64,
    last_received: u64,
    /// Consecutive flat windows after the schedule finished — the
    /// lost-tail retirement path (a faulted run can never reach
    /// `received == n_total`).
    drained: u32,
}

/// Consecutive quiet windows a bundle must show before it is promoted
/// to the flow level.
pub const PROMOTE_AFTER: u32 = 2;

/// The hybrid driver: owns the window clock and every bundle's state
/// machine. See the module docs for the protocol.
pub struct FlowSim {
    window: SimTime,
    hybrid: bool,
    bundles: Vec<Bundle>,
    stats: HybridStats,
}

impl FlowSim {
    /// A hybrid driver ticking every `window` (must be positive). The
    /// window is the aggregation clock: promotion needs
    /// [`PROMOTE_AFTER`] quiet windows and converged bundles advance
    /// once per window.
    pub fn new(window: SimTime) -> FlowSim {
        assert!(window > SimTime::ZERO, "flowsim window must be positive");
        FlowSim {
            window,
            hybrid: true,
            bundles: Vec::new(),
            stats: HybridStats::default(),
        }
    }

    /// A driver with promotion disabled: every bundle stays
    /// packet-level but the run is sliced at the same window multiples.
    /// This is the packet arm of the equivalence suites — identical
    /// slicing, so the only difference under test is the modeling.
    pub fn packet_level(window: SimTime) -> FlowSim {
        let mut fs = FlowSim::new(window);
        fs.hybrid = false;
        fs
    }

    /// Register a bundle and return its index. Reads (but does not
    /// mutate) the generator to validate and cache its CBR schedule.
    ///
    /// # Panics
    /// Panics if the generator is not CBR + round-robin, its flows mix
    /// frame lengths, it has no flows, or a probe list's length does
    /// not match the flow count.
    pub fn add_bundle(&mut self, net: &Network, spec: FlowBundleSpec) -> usize {
        let gen = net.node_ref::<Generator>(spec.generator);
        let Pattern::Cbr { pps } = gen.pattern() else {
            panic!("flowsim bundles require a CBR generator");
        };
        assert_eq!(
            gen.choice(),
            FlowChoice::RoundRobin,
            "flowsim bundles require round-robin flow choice"
        );
        let flows = gen.flows();
        assert!(!flows.is_empty(), "flowsim bundle with no flows");
        assert!(
            flows.iter().all(|f| f.frame_len == flows[0].frame_len),
            "flowsim bundle flows must share one frame length"
        );
        for hop in &spec.hops {
            if let Some(probes) = &hop.probe {
                assert_eq!(
                    probes.len(),
                    flows.len(),
                    "hop probe list must cover every flow"
                );
            }
        }
        let gap_ns = (1e9 / pps) as u64;
        assert!(gap_ns > 0, "CBR rate too high for a nanosecond clock");
        let start_ns = gen.start().as_nanos();
        let d = gen.stop().saturating_sub(gen.start()).as_nanos();
        let n_total = if d == 0 { 0 } else { (d - 1) / gap_ns + 1 };
        // The wire length (VLAN tag and minimum-size padding included),
        // identical for every flow in the bundle.
        let frame_bytes = gen.probe_frame(0).len() as u64;
        let dst_ports = flows.iter().map(|f| f.dst_port).collect();
        let last_q = vec![None; spec.hops.len()];
        self.bundles.push(Bundle {
            spec,
            state: State::Packet { quiet: 0 },
            last_q,
            gap_ns,
            start_ns,
            n_total,
            n_flows: flows.len() as u64,
            frame_bytes,
            dst_ports,
            last_seq: 0,
            last_received: 0,
            drained: 0,
        });
        self.bundles.len() - 1
    }

    /// Advance the network to `until`, slicing at fixed window
    /// multiples and running the state machine at each boundary. Safe
    /// to call repeatedly; the slicing grid is absolute (multiples of
    /// the window since time zero), so split calls land on the same
    /// boundaries as one long call.
    pub fn run_until(&mut self, net: &mut Network, until: SimTime) {
        let w = self.window.as_nanos();
        while net.now() < until {
            let boundary = SimTime::from_nanos((net.now().as_nanos() / w + 1).saturating_mul(w));
            let w_end = boundary.min(until);
            net.run_until(w_end);
            self.tick(net, w_end);
        }
    }

    /// Engine counters so far.
    pub fn stats(&self) -> &HybridStats {
        &self.stats
    }

    /// True if bundle `i` is currently advancing analytically.
    pub fn bundle_modeled(&self, i: usize) -> bool {
        matches!(self.bundles[i].state, State::Converged(_))
    }

    /// True once every bundle is done.
    pub fn all_done(&self) -> bool {
        self.bundles.iter().all(|b| matches!(b.state, State::Done))
    }

    /// One state-machine step for every bundle at window boundary
    /// `w_end` (== `net.now()`).
    fn tick(&mut self, net: &mut Network, w_end: SimTime) {
        for i in 0..self.bundles.len() {
            if matches!(self.bundles[i].state, State::Done) {
                continue;
            }
            // Path signals first: quiescence deltas and link health.
            let (disturbed, links_up) = {
                let b = &mut self.bundles[i];
                let mut disturbed = false;
                for (h, hop) in b.spec.hops.iter().enumerate() {
                    let q = net.node_dyn(hop.node).quiescence();
                    if b.last_q[h].is_some() && q != b.last_q[h] {
                        disturbed = true;
                    }
                    b.last_q[h] = q;
                }
                let links_up = b
                    .spec
                    .links
                    .iter()
                    .all(|&(n, p)| net.link_up(n, p).unwrap_or(false));
                (disturbed, links_up)
            };
            match self.bundles[i].state {
                State::Packet { quiet } => {
                    self.tick_packet(net, i, quiet, disturbed, links_up);
                }
                State::Converged(cf) => {
                    self.tick_converged(net, i, cf, w_end, disturbed, links_up);
                }
                State::Done => {}
            }
        }
    }

    fn tick_packet(
        &mut self,
        net: &mut Network,
        i: usize,
        quiet: u32,
        disturbed: bool,
        links_up: bool,
    ) {
        let b = &self.bundles[i];
        let (gen_id, sink_id) = (b.spec.generator, b.spec.sink);
        let (n_total, n_flows) = (b.n_total, b.n_flows);
        let seq = net.node_ref::<Generator>(gen_id).seq();
        let received = net.node_ref::<Sink>(sink_id).received();
        let b = &mut self.bundles[i];
        let seq_delta = seq - b.last_seq;
        let rx_delta = received - b.last_received;
        b.last_seq = seq;
        b.last_received = received;
        // Finished at packet level: wait for the tail, then retire.
        // A faulted run can lose frames for good, so two consecutive
        // flat windows also count as drained.
        if seq >= n_total {
            if received >= n_total {
                b.state = State::Done;
            } else if rx_delta == 0 {
                b.drained += 1;
                if b.drained >= 2 {
                    b.state = State::Done;
                }
            } else {
                b.drained = 0;
            }
            return;
        }
        let quiet = if disturbed || !links_up { 0 } else { quiet + 1 };
        self.bundles[i].state = State::Packet { quiet };
        if !self.hybrid || quiet < PROMOTE_AFTER {
            return;
        }
        // Warm and keeping up: two full round-robin cycles emitted, and
        // this window's arrivals match its departures (deltas, not
        // cumulative counts — past losses must not block re-promotion;
        // the one-cycle margin absorbs window-boundary straddlers).
        if seq < 2 * n_flows || rx_delta == 0 || rx_delta + n_flows < seq_delta {
            return;
        }
        let Some(latency_ns) = net.node_ref::<Sink>(sink_id).last_latency_ns() else {
            return;
        };
        // Residency gate: every hop that can answer must hold every
        // probe. `None` from the node (no cache signal) does not block.
        let resident = self.bundles[i].spec.hops.iter().all(|hop| {
            hop.probe.as_ref().is_none_or(|probes| {
                probes
                    .iter()
                    .all(|p| net.node_dyn(hop.node).flow_resident(hop.in_port, p) != Some(false))
            })
        });
        if !resident {
            return;
        }
        net.node_mut::<Generator>(gen_id).pause();
        self.bundles[i].state = State::Converged(ConvergedFlow {
            dep_next: seq,
            arr_next: seq,
            latency_ns,
        });
        self.stats.promotions += 1;
        self.stats.flows_promoted += n_flows;
    }

    fn tick_converged(
        &mut self,
        net: &mut Network,
        i: usize,
        mut cf: ConvergedFlow,
        w_end: SimTime,
        disturbed: bool,
        links_up: bool,
    ) {
        if disturbed || !links_up {
            self.demote(net, i, cf, links_up);
            return;
        }
        let b = &self.bundles[i];
        let (gap, start) = (b.gap_ns, b.start_ns);
        let w = w_end.as_nanos();
        // Departures: CBR slots start + k·gap ≤ w_end, capped by the
        // schedule end.
        let dep_hi = if w < start {
            0
        } else {
            ((w - start) / gap + 1).min(b.n_total)
        };
        let n_dep = dep_hi.saturating_sub(cf.dep_next);
        if n_dep > 0 {
            let bytes = n_dep * b.frame_bytes;
            net.node_mut::<Generator>(b.spec.generator)
                .credit_modeled(n_dep, bytes);
            for h in 0..self.bundles[i].spec.hops.len() {
                let node = self.bundles[i].spec.hops[h].node;
                net.node_dyn_mut(node).credit_modeled(n_dep, bytes);
            }
            self.stats.frames_modeled += n_dep;
            self.stats.bytes_modeled += bytes;
            cf.dep_next = dep_hi;
        }
        // Arrivals: slots whose computed arrival start + k·gap + latency
        // has passed, never ahead of the credited departures.
        let b = &self.bundles[i];
        let arr_hi = if w < start + cf.latency_ns {
            0
        } else {
            ((w - start - cf.latency_ns) / gap + 1).min(cf.dep_next)
        };
        if arr_hi > cf.arr_next {
            let per_port = rr_share(&b.dst_ports, cf.arr_next, arr_hi);
            let last_arrival = SimTime::from_nanos(start + (arr_hi - 1) * gap + cf.latency_ns);
            let (frame_bytes, latency_ns) = (b.frame_bytes, cf.latency_ns);
            let sink_id = b.spec.sink;
            net.node_mut::<Sink>(sink_id).credit_modeled(
                &per_port,
                frame_bytes,
                latency_ns,
                last_arrival,
            );
            cf.arr_next = arr_hi;
        }
        self.stats.window_updates += 1;
        let b = &self.bundles[i];
        self.bundles[i].state = if cf.dep_next >= b.n_total && cf.arr_next >= b.n_total {
            State::Done
        } else {
            State::Converged(cf)
        };
        // Refresh the quiescence snapshot: the credits above moved some
        // hop counters (service completions), which must not read as a
        // disturbance next window.
        for h in 0..self.bundles[i].spec.hops.len() {
            let node = self.bundles[i].spec.hops[h].node;
            self.bundles[i].last_q[h] = net.node_dyn(node).quiescence();
        }
    }

    /// Settle the modeled in-flight tail and hand the bundle back to
    /// the packet engine.
    fn demote(&mut self, net: &mut Network, i: usize, cf: ConvergedFlow, links_up: bool) {
        let b = &self.bundles[i];
        let in_flight = cf.dep_next.saturating_sub(cf.arr_next);
        if in_flight > 0 {
            if links_up {
                // The path still forwards; the tail lands at its
                // computed (possibly future) arrival times.
                let per_port = rr_share(&b.dst_ports, cf.arr_next, cf.dep_next);
                let last_arrival =
                    SimTime::from_nanos(b.start_ns + (cf.dep_next - 1) * b.gap_ns + cf.latency_ns);
                let (frame_bytes, latency_ns) = (b.frame_bytes, cf.latency_ns);
                let sink_id = b.spec.sink;
                net.node_mut::<Sink>(sink_id).credit_modeled(
                    &per_port,
                    frame_bytes,
                    latency_ns,
                    last_arrival,
                );
            } else {
                // A down link would have blackholed the tail.
                self.stats.modeled_blackholed += in_flight;
            }
        }
        let b = &self.bundles[i];
        let (gen_id, n_flows, n_total) = (b.spec.generator, b.n_flows, b.n_total);
        self.stats.demotions += 1;
        self.stats.flows_demoted += n_flows;
        if cf.dep_next >= n_total {
            // Nothing left to emit; the schedule is complete.
            self.bundles[i].state = State::Done;
            return;
        }
        net.with_node_ctx::<Generator, _>(gen_id, |g, ctx| g.resume(ctx));
        self.bundles[i].state = State::Packet { quiet: 0 };
    }
}

/// Split the frame range `[from, to)` of a round-robin schedule over
/// the per-flow destination ports: frame `k` belongs to flow
/// `k mod F`. Returns `(dst_port, count)` pairs with deterministic
/// ordering (ascending port), ports of same-port flows merged.
fn rr_share(dst_ports: &[u16], from: u64, to: u64) -> Vec<(u16, u64)> {
    let f = dst_ports.len() as u64;
    let n = to - from;
    let base = n / f;
    let rem = (n % f) as usize;
    let first = (from % f) as usize;
    let mut counts = vec![base; dst_ports.len()];
    for j in 0..rem {
        counts[(first + j) % dst_ports.len()] += 1;
    }
    let mut by_port = std::collections::BTreeMap::new();
    for (idx, &port) in dst_ports.iter().enumerate() {
        if counts[idx] > 0 {
            *by_port.entry(port).or_insert(0u64) += counts[idx];
        }
    }
    by_port.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr_share_splits_remainder_from_rr_offset() {
        // 3 flows, frames 4..9 → 5 frames, RR position 4 % 3 == 1:
        // flows 1, 2, 0, 1, 2 → counts [1, 2, 2].
        let ports = [100u16, 200, 300];
        let share = rr_share(&ports, 4, 9);
        assert_eq!(share, vec![(100, 1), (200, 2), (300, 2)]);
    }

    #[test]
    fn rr_share_merges_duplicate_ports() {
        let ports = [100u16, 100, 300];
        let share = rr_share(&ports, 0, 6);
        assert_eq!(share, vec![(100, 4), (300, 2)]);
    }

    #[test]
    fn rr_share_empty_range() {
        let ports = [100u16, 200];
        assert!(rr_share(&ports, 5, 5).is_empty());
    }
}
