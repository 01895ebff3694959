//! The simulation event loop: a facade over one or more event
//! [`Shard`](crate::shard)s.
//!
//! An unsharded [`Network`] (the default) is a single shard running the
//! classic sequential single-queue loop — behavior, event order and RNG
//! stream are identical to the historical simulator. Call
//! [`Network::set_shards`] to split the network along a
//! [`ShardMap`] and [`Network::set_threads`] to run the shards on worker
//! threads; see the [`crate::shard`] module docs for the conservative
//! synchronization protocol.

use bytes::Bytes;
use std::any::Any;
use std::sync::Arc;

use crate::fault::{CtrlProfile, Fault, FaultPlan};
use crate::link::{LinkDir, LinkSpec, LinkStats};
use crate::node::{Node, NodeCtx, PortId};
use crate::runtime::{Runtime, RuntimeStats};
use crate::shard::{Chan, Env, Ev, FaultEv, Loc, Shard, ShardMap};
use crate::stats::CtrlStats;
use crate::time::SimTime;

/// Identifies a node within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A complete simulated network: nodes, links and the event queue(s).
///
/// Deterministic given the seed passed to [`Network::new`]; all device
/// randomness must come from [`NodeCtx::rng`]. Sharded networks are
/// additionally deterministic in the *thread count*: any `set_threads`
/// value produces bit-identical simulation results.
pub struct Network {
    now: SimTime,
    seed: u64,
    shards: Vec<Shard>,
    /// Global node id → (shard, local index).
    loc: Arc<Vec<Loc>>,
    ctrl_delay: SimTime,
    ctrl_profile: CtrlProfile,
    /// The shard workers and the inboxes, barrier and next times they
    /// share (see [`crate::runtime`]).
    runtime: Runtime,
}

impl Network {
    /// Create an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Network {
        Network {
            now: SimTime::ZERO,
            seed,
            shards: vec![Shard::new(0, Shard::rng_stream(seed, 0))],
            loc: Arc::new(Vec::new()),
            ctrl_delay: SimTime::from_micros(50),
            ctrl_profile: CtrlProfile::default(),
            runtime: Runtime::new(),
        }
    }

    fn env(&self) -> Env {
        Env {
            loc: Arc::clone(&self.loc),
            ctrl_delay: self.ctrl_delay,
            ctrl_profile: self.ctrl_profile,
        }
    }

    /// Register a device; returns its id. Nodes added after
    /// [`Network::set_shards`] land on shard 0 (the system shard) — this
    /// is where mid-run management nodes such as migration managers
    /// belong.
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        let gid = NodeId(self.loc.len());
        let idx = self.shards[0].add_node(Box::new(node), gid);
        Arc::make_mut(&mut self.loc).push(Loc { shard: 0, idx });
        gid
    }

    /// Connect `(a, pa)` to `(b, pb)` with a duplex link.
    ///
    /// # Panics
    /// Panics if either port is already connected, or `a == b` with the
    /// same port.
    pub fn connect(&mut self, a: NodeId, pa: PortId, b: NodeId, pb: PortId, spec: LinkSpec) {
        let la = self.loc[a.0];
        let lb = self.loc[b.0];
        let chan_a = self.shards[la.shard as usize].chans.len() as u32;
        self.shards[la.shard as usize].chans.push(Chan {
            dir: LinkDir::new(spec),
            peer: b,
            peer_port: pb,
            peer_shard: lb.shard,
            peer_idx: lb.idx,
        });
        self.shards[la.shard as usize].set_port(la.idx, pa, chan_a);
        let chan_b = self.shards[lb.shard as usize].chans.len() as u32;
        self.shards[lb.shard as usize].chans.push(Chan {
            dir: LinkDir::new(spec),
            peer: a,
            peer_port: pa,
            peer_shard: la.shard,
            peer_idx: la.idx,
        });
        self.shards[lb.shard as usize].set_port(lb.idx, pb, chan_b);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (for runaway detection in tests
    /// and events/second reporting). Summed across shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Frames transmitted to unconnected ports so far.
    pub fn unconnected_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.unconnected_drops).sum()
    }

    /// Frames handed to node callbacks so far, summed across shards —
    /// the packet-level delivery volume ([`crate::flowsim`] reports its
    /// modeled volume alongside this).
    pub fn delivered_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.delivered_frames).sum()
    }

    /// Bytes of frames handed to node callbacks so far, summed across
    /// shards.
    pub fn delivered_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.delivered_bytes).sum()
    }

    /// Set the out-of-band control channel delay (default 50 µs). In a
    /// sharded network this is part of the synchronization lookahead and
    /// must stay positive.
    pub fn set_ctrl_delay(&mut self, d: SimTime) {
        self.ctrl_delay = d;
    }

    /// Arm a stochastic control-channel impairment profile (see
    /// [`CtrlProfile`]): probabilistic drop, duplication, bounded
    /// reorder jitter and fixed extra delay applied to every control
    /// message from its send instant on. Call between `run_*`
    /// invocations. Extra latency is added *on top of* the base control
    /// delay, so the conservative lookahead is untouched and lossy runs
    /// stay bit-identical for any thread count.
    pub fn set_ctrl_profile(&mut self, profile: CtrlProfile) {
        self.ctrl_profile = profile;
    }

    /// Control-channel impairment counters summed over every channel
    /// (see [`CtrlStats`]; `retransmitted` is owned by the protocol
    /// layer and stays 0 here).
    pub fn ctrl_stats(&self) -> CtrlStats {
        let mut total = CtrlStats::default();
        for s in &self.shards {
            for st in s.ctrl_stats.values() {
                total.merge(st);
            }
        }
        total
    }

    /// Impairment counters of the directed control channel `from → to`
    /// (summed across shards: send-side impairments live in the
    /// sender's shard, in-flight partition drops in the receiver's).
    pub fn ctrl_channel_stats(&self, from: NodeId, to: NodeId) -> CtrlStats {
        let mut total = CtrlStats::default();
        for s in &self.shards {
            if let Some(st) = s.ctrl_stats.get(&(from.0, to.0)) {
                total.merge(st);
            }
        }
        total
    }

    /// Partition `node` from the out-of-band control plane *now*:
    /// control messages from or to it are discarded (at send time, and
    /// on delivery for messages already in flight) until
    /// [`Network::ctrl_up`]. This is the explicit control-channel
    /// teardown — unlike [`Network::disconnect`]'s dead-link
    /// tombstones, the partition cannot be silently replaced by a
    /// re-attach. Call between `run_*` invocations; scheduled variants
    /// live in [`FaultPlan::ctrl_down`](crate::FaultPlan::ctrl_down).
    pub fn ctrl_down(&mut self, node: NodeId) {
        for s in &mut self.shards {
            s.set_ctrl_blocked(node, true);
        }
    }

    /// Heal `node`'s control-plane partition *now*.
    pub fn ctrl_up(&mut self, node: NodeId) {
        for s in &mut self.shards {
            s.set_ctrl_blocked(node, false);
        }
    }

    /// Whether `node` is currently partitioned from the control plane.
    pub fn ctrl_is_down(&self, node: NodeId) -> bool {
        self.shards[0].ctrl_blocked(node)
    }

    /// Number of shards (1 unless [`Network::set_shards`] was called).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The thread count set for a sharded network (default 1; already
    /// resolved if `set_threads(0)` asked for auto-detection). At most
    /// one thread per shard runs.
    pub fn threads(&self) -> usize {
        self.runtime.threads()
    }

    /// Run shards on `n` threads. `n == 0` auto-detects via
    /// [`std::thread::available_parallelism`] and is meant for
    /// multi-core hosts: it takes every CPU it is shown whether or not
    /// the windows hold enough events to pay for the barriers (compare
    /// the ledger rows `netloop/fabric_4x16/sharded_t1` and
    /// `netloop/fabric_4x16/sharded_tauto` of a two-vCPU box); pass 1
    /// where in doubt. The thread count never changes simulation
    /// results — only wall-clock time: every thread runs the same
    /// window loop over its own block of shards, so `--threads 1` and
    /// `--threads 8` are bit-identical.
    ///
    /// The calling thread is the first of the `n`; this is where the
    /// other `min(n, shards) - 1` persistent workers are (re)created
    /// ([`Network::set_shards`] re-applies the count to the new shards).
    /// They park between runs and are joined only when the network
    /// drops or the count changes — `run_until`/`run_for` never spawn
    /// threads (see [`crate::runtime`]).
    pub fn set_threads(&mut self, n: usize) {
        let n = if n == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            n
        };
        self.runtime.configure(n, self.shards.len());
    }

    /// Resource counters of the execution runtime (worker spawns,
    /// windows executed).
    pub fn runtime_stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Split the network into the shards described by `map`: per-shard
    /// node/link/queue/RNG state with conservative barrier
    /// synchronization (see [`crate::shard`]). Typically called once,
    /// after the topology is built — derive the map from a fabric with
    /// `Fabric::shard_map` in the `harmless` crate.
    ///
    /// Pending events move to their target's shard; shard 0 keeps the
    /// current RNG stream and counters. Nodes added later default to
    /// shard 0. A thread count set earlier applies to the new shards.
    ///
    /// # Panics
    /// Panics if the network is already sharded, or if `map` assigns a
    /// node this network does not have.
    pub fn set_shards(&mut self, map: &ShardMap) {
        assert!(
            self.shards.len() == 1,
            "network is already sharded; set_shards can only be called once"
        );
        if let Some(max) = map.max_assigned_node() {
            assert!(
                max.0 < self.loc.len(),
                "shard map assigns {max}, but the network only has {} nodes \
                 (was the map built before all nodes were added?)",
                self.loc.len()
            );
        }
        let n = map.n_shards();
        let mut old = self.shards.pop().expect("single shard");
        let mut shards: Vec<Shard> = (0..n)
            .map(|k| Shard::new(k as u32, Shard::rng_stream(self.seed, k as u32)))
            .collect();
        shards[0].rng = std::mem::replace(&mut old.rng, Shard::rng_stream(self.seed, 0));
        shards[0].events_processed = old.events_processed;
        shards[0].unconnected_drops = old.unconnected_drops;
        for s in &mut shards {
            s.now = old.now;
        }
        // Every shard starts from the same replica of the partition
        // state; accumulated per-channel counters stay on shard 0.
        for s in &mut shards {
            s.ctrl_blocked = old.ctrl_blocked.clone();
        }
        shards[0].ctrl_stats = std::mem::take(&mut old.ctrl_stats);

        // Nodes (with their port rows and started flags).
        let n_nodes = old.nodes.len();
        let mut loc = Vec::with_capacity(n_nodes);
        let old_started = std::mem::take(&mut old.started);
        let old_ports = std::mem::take(&mut old.ports);
        for (i, node) in std::mem::take(&mut old.nodes).into_iter().enumerate() {
            let gid = NodeId(i);
            let target = map.shard_of(gid);
            assert!(target < n, "node {gid} assigned to out-of-range shard");
            let sh = &mut shards[target];
            let idx = sh.add_node(node, gid);
            sh.started[idx as usize] = old_started[i];
            sh.ports[idx as usize] = old_ports[i].clone();
            loc.push(Loc {
                shard: target as u32,
                idx,
            });
        }

        // Channels follow their transmitting node; peers are re-resolved
        // against the new locations.
        let mut old_chans: Vec<Option<Chan>> = std::mem::take(&mut old.chans)
            .into_iter()
            .map(Some)
            .collect();
        let mut chan_remap: Vec<Option<(u32, u32)>> = vec![None; old_chans.len()];
        for (i, l) in loc.iter().enumerate() {
            debug_assert_eq!(shards[l.shard as usize].gids[l.idx as usize], NodeId(i));
            let n_ports = shards[l.shard as usize].ports[l.idx as usize].len();
            for p in 0..n_ports {
                let Some(old_c) = shards[l.shard as usize].ports[l.idx as usize][p] else {
                    continue;
                };
                let mut chan = old_chans[old_c as usize]
                    .take()
                    .expect("each channel has exactly one owner");
                let pl = loc[chan.peer.0];
                chan.peer_shard = pl.shard;
                chan.peer_idx = pl.idx;
                let sh = &mut shards[l.shard as usize];
                let new_c = sh.chans.len() as u32;
                sh.chans.push(chan);
                sh.ports[l.idx as usize][p] = Some(new_c);
                chan_remap[old_c as usize] = Some((l.shard, new_c));
            }
        }

        // Pending events migrate to the shard of their target, keeping
        // global (time, seq) order so re-assigned sequence numbers stay
        // deterministic.
        for sched in old.drain_events() {
            let (target, ev) = match sched.ev {
                // In the old single shard, local index == global id.
                Ev::Deliver { node, port, frame } => {
                    let l = loc[node as usize];
                    (
                        l.shard,
                        Ev::Deliver {
                            node: l.idx,
                            port,
                            frame,
                        },
                    )
                }
                Ev::Timer { node, token } => {
                    let l = loc[node as usize];
                    (l.shard, Ev::Timer { node: l.idx, token })
                }
                Ev::Ctrl { node, from, data } => {
                    let l = loc[node as usize];
                    (
                        l.shard,
                        Ev::Ctrl {
                            node: l.idx,
                            from,
                            data,
                        },
                    )
                }
                Ev::Emit { node, port, frame } => {
                    let l = loc[node as usize];
                    (
                        l.shard,
                        Ev::Emit {
                            node: l.idx,
                            port,
                            frame,
                        },
                    )
                }
                Ev::TxDone { chan } => {
                    let (s, c) = chan_remap[chan as usize].expect("event references a live chan");
                    (s, Ev::TxDone { chan: c })
                }
                Ev::Fault(FaultEv::LinkDown { chan }) => {
                    let (s, c) = chan_remap[chan as usize].expect("fault references a live chan");
                    (s, Ev::Fault(FaultEv::LinkDown { chan: c }))
                }
                Ev::Fault(FaultEv::LinkUp { chan }) => {
                    let (s, c) = chan_remap[chan as usize].expect("fault references a live chan");
                    (s, Ev::Fault(FaultEv::LinkUp { chan: c }))
                }
                Ev::Fault(FaultEv::Reset { node }) => {
                    let l = loc[node as usize];
                    (l.shard, Ev::Fault(FaultEv::Reset { node: l.idx }))
                }
                Ev::Fault(f @ (FaultEv::CtrlDown { .. } | FaultEv::CtrlUp { .. })) => {
                    // Partition events are replicated: every new shard
                    // gets its own copy at the same instant.
                    for sh in shards.iter_mut() {
                        sh.push(sched.at, Ev::Fault(f));
                    }
                    continue;
                }
            };
            shards[target as usize].push(sched.at, ev);
        }

        self.shards = shards;
        self.loc = Arc::new(loc);
        self.runtime.configure(self.runtime.threads(), n);
    }

    /// Egress statistics of the link attached to `(node, port)`, if
    /// connected.
    pub fn link_stats(&self, node: NodeId, port: PortId) -> Option<LinkStats> {
        let l = self.loc.get(node.0)?;
        let shard = &self.shards[l.shard as usize];
        let chan = (*shard.ports[l.idx as usize].get(usize::from(port.0))?)?;
        Some(shard.chans[chan as usize].dir.stats)
    }

    /// Resolve the two egress channels of the duplex link attached to
    /// `(node, port)`: the endpoint's own direction and its peer's, each
    /// with the shard that owns it.
    fn link_chans(&self, node: NodeId, port: PortId) -> Option<((usize, u32), (usize, u32))> {
        let l = self.loc.get(node.0)?;
        let shard = &self.shards[l.shard as usize];
        let chan = (*shard.ports[l.idx as usize].get(usize::from(port.0))?)?;
        let c = &shard.chans[chan as usize];
        let (peer, peer_port) = (c.peer, c.peer_port);
        let pl = self.loc[peer.0];
        let pshard = &self.shards[pl.shard as usize];
        let pchan = (*pshard.ports[pl.idx as usize].get(usize::from(peer_port.0))?)?;
        Some(((l.shard as usize, chan), (pl.shard as usize, pchan)))
    }

    /// Arm every fault in `plan` (see [`crate::fault`]). Entries are
    /// scheduled in time order (ties in insertion order) as ordinary
    /// shard events, so the fault schedule is bit-identical for any
    /// thread count. Fault times must not lie in the simulated past.
    ///
    /// # Panics
    /// Panics if a link fault names an unconnected port or a fault names
    /// an unknown node.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for (at, fault) in plan.entries() {
            match fault {
                Fault::LinkDown { node, port } => self.schedule_link_down(at, node, port),
                Fault::LinkUp { node, port } => self.schedule_link_up(at, node, port),
                Fault::Reset { node } => self.schedule_reset(at, node),
                Fault::CtrlDown { node } => self.schedule_ctrl_down(at, node),
                Fault::CtrlUp { node } => self.schedule_ctrl_up(at, node),
            }
        }
    }

    /// Schedule both directions of the link at `(node, port)` to go down
    /// at `at`. Queued and in-flight frames are blackholed (see
    /// [`crate::fault`] for exact semantics).
    ///
    /// # Panics
    /// Panics if `(node, port)` has no link.
    pub fn schedule_link_down(&mut self, at: SimTime, node: NodeId, port: PortId) {
        let ((sa, ca), (sb, cb)) = self
            .link_chans(node, port)
            .unwrap_or_else(|| panic!("no link at {node}:{port}"));
        self.shards[sa].push(at, Ev::Fault(FaultEv::LinkDown { chan: ca }));
        self.shards[sb].push(at, Ev::Fault(FaultEv::LinkDown { chan: cb }));
    }

    /// Schedule both directions of the link at `(node, port)` to come
    /// back up at `at`.
    ///
    /// # Panics
    /// Panics if `(node, port)` has no link.
    pub fn schedule_link_up(&mut self, at: SimTime, node: NodeId, port: PortId) {
        let ((sa, ca), (sb, cb)) = self
            .link_chans(node, port)
            .unwrap_or_else(|| panic!("no link at {node}:{port}"));
        self.shards[sa].push(at, Ev::Fault(FaultEv::LinkUp { chan: ca }));
        self.shards[sb].push(at, Ev::Fault(FaultEv::LinkUp { chan: cb }));
    }

    /// Schedule a power cycle of `node` at `at`: its
    /// [`Node::on_reset`] hook fires at that instant.
    pub fn schedule_reset(&mut self, at: SimTime, node: NodeId) {
        let l = self.loc[node.0];
        self.shards[l.shard as usize].push(at, Ev::Fault(FaultEv::Reset { node: l.idx }));
    }

    /// Schedule a control-plane partition of `node` at `at`. The event
    /// is replicated into **every** shard's queue at that instant so
    /// each sender's replica of the blocked set flips in lockstep —
    /// the same trick [`Network::schedule_link_down`] uses with one
    /// event per link direction.
    pub fn schedule_ctrl_down(&mut self, at: SimTime, node: NodeId) {
        for s in &mut self.shards {
            s.push(at, Ev::Fault(FaultEv::CtrlDown { node }));
        }
    }

    /// Schedule the control-plane partition of `node` to heal at `at`
    /// (replicated into every shard, like
    /// [`Network::schedule_ctrl_down`]).
    pub fn schedule_ctrl_up(&mut self, at: SimTime, node: NodeId) {
        for s in &mut self.shards {
            s.push(at, Ev::Fault(FaultEv::CtrlUp { node }));
        }
    }

    /// Tear out the link at `(node, port)` right now, returning the peer
    /// endpoint. Queued frames on both directions are blackholed; frames
    /// already in flight blackhole on arrival. Both port slots become
    /// reusable — a later [`Network::connect`] on either port builds a
    /// fresh link (this is how host detach/re-attach is modelled).
    ///
    /// Returns `None` if the port has no link. Call between `run_*`
    /// invocations only; as a facade operation it is deterministic by
    /// construction.
    pub fn disconnect(&mut self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        let ((sa, ca), (sb, cb)) = self.link_chans(node, port)?;
        let peer = {
            let c = &mut self.shards[sa].chans[ca as usize];
            let p = (c.peer, c.peer_port);
            c.dir.take_down();
            c.dir.dead = true;
            p
        };
        let c = &mut self.shards[sb].chans[cb as usize];
        c.dir.take_down();
        c.dir.dead = true;
        Some(peer)
    }

    /// Whether the duplex link at `(node, port)` is currently up in both
    /// directions (and not torn out). `None` if the port has no link.
    /// The flow-level engine polls this at window boundaries: a downed
    /// hop demotes every converged flow routed over it.
    pub fn link_up(&self, node: NodeId, port: PortId) -> Option<bool> {
        let ((sa, ca), (sb, cb)) = self.link_chans(node, port)?;
        let a = &self.shards[sa].chans[ca as usize].dir;
        let b = &self.shards[sb].chans[cb as usize].dir;
        Some(!a.down && !a.dead && !b.down && !b.dead)
    }

    /// Total frames lost to downed or torn-out links so far: queued or
    /// newly transmitted frames blackholed at the egress, plus in-flight
    /// frames blackholed on arrival.
    pub fn blackholed_frames(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.blackholed_in_flight
                    + s.chans
                        .iter()
                        .map(|c| c.dir.stats.blackholed_frames)
                        .sum::<u64>()
            })
            .sum()
    }

    /// Typed shared access to a node.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.try_node_ref(id).expect("node type mismatch")
    }

    /// Typed exclusive access to a node.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Any = self.node_dyn_mut(id);
        node.downcast_mut().expect("node type mismatch")
    }

    /// Typed shared access to a node, or `None` if it is of another
    /// type (the probing sibling of [`Network::node_ref`]).
    pub fn try_node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Any = self.node_dyn(id);
        node.downcast_ref()
    }

    /// Untyped shared access to a node.
    pub(crate) fn node_dyn(&self, id: NodeId) -> &dyn Node {
        let l = self.loc[id.0];
        self.shards[l.shard as usize].nodes[l.idx as usize].as_ref()
    }

    /// Untyped exclusive access to a node.
    pub(crate) fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node {
        let l = self.loc[id.0];
        self.shards[l.shard as usize].nodes[l.idx as usize].as_mut()
    }

    /// Deliver a frame to a node as if it had arrived on `port` now
    /// (bypasses links; intended for tests).
    pub fn inject(&mut self, node: NodeId, port: PortId, frame: Bytes) {
        let at = self.now;
        let l = self.loc[node.0];
        self.shards[l.shard as usize].push(
            at,
            Ev::Deliver {
                node: l.idx,
                port,
                frame,
            },
        );
    }

    /// Invoke a closure against a node with a full [`NodeCtx`], outside any
    /// event. This is how experiment drivers poke devices "from the
    /// management plane" (e.g. ask a generator to start, or a manager to
    /// begin migration) at the current instant.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        let env = self.env();
        let l = self.loc[id.0];
        let now = self.now;
        let mut actions = Vec::new();
        let r = {
            let shard = &mut self.shards[l.shard as usize];
            shard.now = now;
            let node: &mut dyn Any = &mut *shard.nodes[l.idx as usize];
            let node = node.downcast_mut::<T>().expect("node type mismatch");
            let mut ctx = NodeCtx {
                now,
                node: id,
                actions: &mut actions,
                rng: &mut shard.rng,
            };
            f(node, &mut ctx)
        };
        self.shards[l.shard as usize].apply(l.idx, &mut actions, &env);
        self.runtime.exchange(&mut self.shards, &env);
        r
    }

    /// Run until the event queue is exhausted or `limit` is reached,
    /// whichever comes first. The clock ends at `limit` if given.
    pub fn run_until(&mut self, limit: SimTime) {
        let env = self.env();
        let now = self.now;
        for s in &mut self.shards {
            s.start_pending(now, &env);
        }
        self.runtime.exchange(&mut self.shards, &env);
        if self.shards.len() == 1 {
            self.shards[0].burn_all(limit, &env);
        } else {
            let lookahead = self.lookahead();
            assert!(
                lookahead > SimTime::ZERO,
                "sharded run needs a positive lookahead: every cross-shard \
                 link delay and the ctrl delay must be > 0"
            );
            self.runtime
                .run_windows(&mut self.shards, limit, lookahead, &env);
            self.drain_saturated(limit, &env);
        }
        // Advance and re-align the clocks. Like the classic loop, the
        // clock ends at `limit` when one is given, and at the last
        // processed event when running until idle.
        let mut t = self.now;
        for s in &self.shards {
            t = t.max(s.now);
        }
        if limit != SimTime::MAX {
            t = t.max(limit);
        }
        self.now = t;
        for s in &mut self.shards {
            s.now = t;
        }
    }

    /// Run for a duration from the current clock.
    pub fn run_for(&mut self, d: SimTime) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until completely idle (no events left). Use only for workloads
    /// that terminate; generators with no stop time never go idle.
    pub fn run_until_idle(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// The conservative synchronization lookahead: the minimum of the
    /// control-plane delay and every cross-shard link's propagation
    /// delay. Any cross-shard event generated at `t` arrives at
    /// `t + lookahead` or later.
    fn lookahead(&self) -> SimTime {
        let mut la = self.ctrl_delay;
        for s in &self.shards {
            for c in &s.chans {
                if c.peer_shard != s.id {
                    la = la.min(c.dir.spec.delay);
                }
            }
        }
        la
    }

    /// Earliest pending event across all shards.
    fn min_next_time(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::next_time)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Degenerate tail: event times so close to [`SimTime::MAX`] that a
    /// window horizon saturates (a no-op in every other case). Steps one
    /// *instant* at a time — `lookahead > 0` guarantees a cross-shard
    /// event generated at `t` arrives strictly after `t`, so burning
    /// exactly the earliest pending instant in every shard is causal.
    /// Sequential and deterministic, not parallel.
    fn drain_saturated(&mut self, limit: SimTime, env: &Env) {
        loop {
            let next = self.min_next_time();
            if next > limit || next == SimTime::MAX {
                break;
            }
            let horizon = SimTime::from_nanos(next.as_nanos() + 1); // next < MAX
            for s in &mut self.shards {
                s.burn(horizon, limit, env);
            }
            self.runtime.exchange(&mut self.shards, env);
        }
        // Anything still queued sits exactly at SimTime::MAX (with
        // limit == MAX): cross-shard arrivals saturate to that same
        // instant, so inter-shard causality is undefined there by
        // construction. Drain shard-by-shard in fixed order, like the
        // classic loop would in insertion order.
        if limit == SimTime::MAX {
            loop {
                let mut progressed = false;
                for i in 0..self.shards.len() {
                    if self.shards[i].has_events() {
                        self.shards[i].burn_all(limit, env);
                        progressed = true;
                    }
                    self.runtime.exchange(&mut self.shards, env);
                }
                if !progressed {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every frame back out the port it came in on, after `delay`.
    struct Echo {
        delay: SimTime,
        seen: u64,
    }

    impl Node for Echo {
        fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
            self.seen += 1;
            ctx.transmit_after(self.delay, port, frame);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Sends `count` frames at fixed intervals on port 0 and records the
    /// arrival times of everything it receives.
    struct Pinger {
        count: u32,
        interval: SimTime,
        arrivals: Vec<SimTime>,
        sent: u32,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            ctx.schedule(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.transmit(PortId(0), Bytes::from(vec![0u8; 100]));
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_packet(&mut self, _port: PortId, _frame: Bytes, ctx: &mut NodeCtx) {
            self.arrivals.push(ctx.now());
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    fn pinger(count: u32, interval: SimTime) -> Pinger {
        Pinger {
            count,
            interval,
            arrivals: Vec::new(),
            sent: 0,
        }
    }

    #[test]
    fn round_trip_latency_is_deterministic() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(1, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::from_micros(5),
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let arr = &net.node_ref::<Pinger>(p).arrivals;
        assert_eq!(arr.len(), 1);
        // ser = (100+24)*8ns = 992ns, prop = 1000ns, echo delay = 5000ns,
        // then the same back: 2*(992+1000) + 5000 = 8984ns.
        assert_eq!(arr[0], SimTime::from_nanos(8984));
        assert_eq!(net.node_ref::<Echo>(e).seen, 1);
    }

    #[test]
    fn queueing_delays_back_to_back_frames() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(3, SimTime::ZERO)); // 3 frames same instant
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let arr = &net.node_ref::<Pinger>(p).arrivals;
        assert_eq!(arr.len(), 3);
        // Frames serialize one after another: arrivals spaced by 992ns.
        assert_eq!(arr[1].0 - arr[0].0, 992);
        assert_eq!(arr[2].0 - arr[1].0, 992);
    }

    /// Transmits one 100-byte frame on port 0 at each instant of `at`.
    struct Sender {
        at: Vec<SimTime>,
    }

    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            for &t in &self.at {
                ctx.schedule(t, 0);
            }
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
            ctx.transmit(PortId(0), Bytes::from(vec![0u8; 100]));
        }
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
    }

    /// `n` frames from a [`Sender`] into a silent `Pinger` over a gigabit
    /// link (992 ns per frame), `gap` apart: the arrivals and the events
    /// the run took, the receiver's own start timer not counted.
    fn one_way(n: u64, gap: SimTime) -> (Vec<SimTime>, u64) {
        let mut net = Network::new(1);
        let tx = net.add_node(Sender {
            at: (0..n).map(|i| SimTime::from_nanos(i * gap.0)).collect(),
        });
        let rx = net.add_node(pinger(0, SimTime::ZERO));
        net.connect(tx, PortId(0), rx, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        assert_eq!(net.link_stats(tx, PortId(0)).unwrap().tx_frames, n);
        let arrivals = net.node_ref::<Pinger>(rx).arrivals.clone();
        (arrivals, net.events_processed() - 1)
    }

    #[test]
    fn an_idle_link_costs_one_event_per_frame() {
        // Wider apart than the serialization time: every frame finds the
        // link idle, so it is the sender's timer and one `Deliver` — no
        // serializer event at all.
        let (arrivals, events) = one_way(50, SimTime::from_micros(2));
        assert_eq!(arrivals.len(), 50);
        assert_eq!(arrivals[7], SimTime::from_nanos(7 * 2000 + 992 + 1000));
        assert_eq!(events, 2 * 50);
    }

    #[test]
    fn a_backlogged_link_wakes_once_per_waiting_frame() {
        // All at once: the first frame starts at once, each of the other
        // 49 is started by the one wake-up scheduled for it.
        let (arrivals, events) = one_way(50, SimTime::ZERO);
        assert_eq!(arrivals.len(), 50);
        assert_eq!(arrivals[49], SimTime::from_nanos(50 * 992 + 1000));
        assert_eq!(events, 2 * 50 + 49);
    }

    #[test]
    fn unconnected_port_drops() {
        let mut net = Network::new(1);
        let _p = net.add_node(pinger(2, SimTime::from_micros(1)));
        net.run_until_idle();
        assert_eq!(net.unconnected_drops(), 2);
    }

    #[test]
    fn ctrl_messages_arrive_after_ctrl_delay() {
        struct CtrlEcho {
            got_at: Option<SimTime>,
        }
        impl Node for CtrlEcho {
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_ctrl(&mut self, _from: NodeId, _d: Bytes, ctx: &mut NodeCtx) {
                self.got_at = Some(ctx.now());
            }
        }
        struct CtrlSender {
            to: NodeId,
        }
        impl Node for CtrlSender {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.ctrl_send(self.to, Bytes::from_static(b"hi"));
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        }
        let mut net = Network::new(1);
        net.set_ctrl_delay(SimTime::from_micros(123));
        let r = net.add_node(CtrlEcho { got_at: None });
        let _s = net.add_node(CtrlSender { to: r });
        net.run_until_idle();
        assert_eq!(
            net.node_ref::<CtrlEcho>(r).got_at,
            Some(SimTime::from_micros(123))
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut net = Network::new(1);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut net = Network::new(1);
        let a = net.add_node(pinger(0, SimTime::ZERO));
        let b = net.add_node(pinger(0, SimTime::ZERO));
        let c = net.add_node(pinger(0, SimTime::ZERO));
        net.connect(a, PortId(0), b, PortId(0), LinkSpec::gigabit());
        net.connect(a, PortId(0), c, PortId(0), LinkSpec::gigabit());
    }

    #[test]
    fn inject_delivers_to_node() {
        let mut net = Network::new(1);
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.inject(e, PortId(3), Bytes::from_static(b"x"));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e).seen, 1);
    }

    #[test]
    fn link_stats_track_egress() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(5, SimTime::from_micros(100)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let s = net.link_stats(p, PortId(0)).unwrap();
        assert_eq!(s.tx_frames, 5);
        assert_eq!(s.tx_bytes, 500);
        assert_eq!(s.dropped_frames, 0);
    }

    /// Two pinger↔echo pairs in separate shards plus a cross-shard pair:
    /// sharded execution must reproduce the unsharded timings exactly,
    /// for any thread count.
    fn sharded_scenario(shards: bool, threads: usize) -> (Vec<SimTime>, Vec<SimTime>, u64) {
        let mut net = Network::new(9);
        let p0 = net.add_node(pinger(4, SimTime::from_micros(3)));
        let e0 = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        let p1 = net.add_node(pinger(4, SimTime::from_micros(5)));
        let e1 = net.add_node(Echo {
            delay: SimTime::from_micros(2),
            seen: 0,
        });
        net.connect(p0, PortId(0), e0, PortId(0), LinkSpec::gigabit());
        // Cross-shard link: p1 in shard 2 talks to e1 in shard 1.
        net.connect(p1, PortId(0), e1, PortId(0), LinkSpec::gigabit());
        if shards {
            let mut map = ShardMap::new(3);
            map.assign(p0, 1);
            map.assign(e0, 1);
            map.assign(e1, 1);
            map.assign(p1, 2);
            net.set_shards(&map);
            net.set_threads(threads);
        }
        net.run_until(SimTime::from_millis(5));
        let a0 = net.node_ref::<Pinger>(p0).arrivals.clone();
        let a1 = net.node_ref::<Pinger>(p1).arrivals.clone();
        (a0, a1, net.events_processed())
    }

    #[test]
    fn sharded_run_matches_unsharded_timings() {
        let (a0, a1, ev) = sharded_scenario(false, 1);
        for threads in [1, 2, 3, 8] {
            let (b0, b1, evs) = sharded_scenario(true, threads);
            assert_eq!(a0, b0, "threads={threads}");
            assert_eq!(a1, b1, "threads={threads}");
            assert_eq!(ev, evs, "threads={threads}");
        }
        assert_eq!(a0.len(), 4);
        assert_eq!(a1.len(), 4);
    }

    /// The sharded scenario again, but driven through many short
    /// `run_for` slices — the staggered-driver shape that used to pay a
    /// thread spawn-join per slice.
    fn sliced_scenario(threads: Option<usize>, slices: u32) -> (Vec<SimTime>, Vec<SimTime>, u64) {
        let mut net = Network::new(9);
        let p0 = net.add_node(pinger(4, SimTime::from_micros(3)));
        let e0 = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        let p1 = net.add_node(pinger(4, SimTime::from_micros(5)));
        let e1 = net.add_node(Echo {
            delay: SimTime::from_micros(2),
            seen: 0,
        });
        net.connect(p0, PortId(0), e0, PortId(0), LinkSpec::gigabit());
        net.connect(p1, PortId(0), e1, PortId(0), LinkSpec::gigabit());
        if let Some(t) = threads {
            let mut map = ShardMap::new(3);
            map.assign(p0, 1);
            map.assign(e0, 1);
            map.assign(e1, 1);
            map.assign(p1, 2);
            net.set_shards(&map);
            net.set_threads(t);
        }
        for _ in 0..slices {
            net.run_for(SimTime::from_micros(5));
        }
        net.run_until(SimTime::from_millis(5));
        let a0 = net.node_ref::<Pinger>(p0).arrivals.clone();
        let a1 = net.node_ref::<Pinger>(p1).arrivals.clone();
        (a0, a1, net.events_processed())
    }

    /// Satellite contract: repeated `run_for` calls on a persistent pool
    /// produce byte-identical arrival times and event counts to a fresh
    /// single-queue engine — and to any other slicing of the same span.
    #[test]
    fn persistent_pool_multi_run_matches_single_queue() {
        let base = sliced_scenario(None, 40);
        assert_eq!(base.0.len(), 4, "workload converged");
        for threads in [1, 2, 3] {
            assert_eq!(
                sliced_scenario(Some(threads), 40),
                base,
                "threads={threads}"
            );
        }
        // A different slicing of the same simulated span changes nothing.
        assert_eq!(sliced_scenario(Some(2), 7), base);
    }

    /// A pinger and its echo, not yet sharded.
    fn two_node_net() -> Network {
        let mut net = Network::new(9);
        let p = net.add_node(pinger(500, SimTime::from_micros(4)));
        let e = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net
    }

    /// Split `net` into `shards` shards, the echo on shard 1.
    fn shard_echo(net: &mut Network, shards: usize) {
        let mut map = ShardMap::new(shards);
        map.assign(NodeId(1), 1);
        net.set_shards(&map);
    }

    /// `set_threads` is the only place worker threads are created;
    /// `run_until`/`run_for` reuse the parked workers. The calling
    /// thread is the first of the threads.
    #[test]
    fn workers_spawn_once_per_set_threads_not_per_run() {
        let mut net = two_node_net();
        shard_echo(&mut net, 3);
        assert_eq!(net.runtime_stats().workers_spawned, 0);
        net.set_threads(2);
        assert_eq!(net.runtime_stats().workers_spawned, 1);
        for _ in 0..50 {
            net.run_for(SimTime::from_micros(20));
        }
        let stats = net.runtime_stats();
        assert_eq!(
            stats.workers_spawned, 1,
            "50 run_for calls must not spawn any threads"
        );
        assert!(stats.windows > 50, "the runs actually executed windows");
        // Reconfiguring to the same count is a no-op; a new count joins
        // the old workers and spawns fresh ones.
        net.set_threads(2);
        assert_eq!(net.runtime_stats().workers_spawned, 1);
        net.set_threads(3);
        assert_eq!(net.runtime_stats().workers_spawned, 3);
        net.run_for(SimTime::from_micros(20));
        assert_eq!(net.runtime_stats().workers_spawned, 3);
    }

    /// A worker that could get no shard is never spawned, whichever of
    /// `set_threads` and `set_shards` comes first.
    #[test]
    fn workers_never_outnumber_the_shards() {
        let mut net = two_node_net();
        shard_echo(&mut net, 3);
        net.set_threads(16);
        assert_eq!(net.threads(), 16);
        assert_eq!(net.runtime_stats().workers_spawned, 2);
        net.run_for(SimTime::from_micros(200));

        let mut net = two_node_net();
        net.set_threads(16);
        assert_eq!(net.runtime_stats().workers_spawned, 0, "one shard");
        shard_echo(&mut net, 2);
        assert_eq!(net.runtime_stats().workers_spawned, 1);
    }

    #[test]
    fn auto_thread_detection_resolves_to_a_positive_count() {
        let mut net = Network::new(1);
        net.set_threads(0);
        assert!(net.threads() >= 1, "0 means auto-detect, never zero");
    }

    #[test]
    fn sharded_ctrl_crosses_shards() {
        struct CtrlEcho {
            got: Vec<(NodeId, SimTime)>,
        }
        impl Node for CtrlEcho {
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_ctrl(&mut self, from: NodeId, _d: Bytes, ctx: &mut NodeCtx) {
                self.got.push((from, ctx.now()));
            }
        }
        struct CtrlSender {
            to: NodeId,
        }
        impl Node for CtrlSender {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.ctrl_send(self.to, Bytes::from_static(b"hi"));
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        }
        let mut net = Network::new(1);
        let r = net.add_node(CtrlEcho { got: Vec::new() });
        let s1 = net.add_node(CtrlSender { to: r });
        let s2 = net.add_node(CtrlSender { to: r });
        let mut map = ShardMap::new(3);
        map.assign(s1, 1);
        map.assign(s2, 2);
        net.set_shards(&map);
        net.set_threads(2);
        net.run_until(SimTime::from_millis(1));
        let got = &net.node_ref::<CtrlEcho>(r).got;
        // Both messages arrive after the default 50 µs ctrl delay, merged
        // in deterministic (time, source shard) order.
        assert_eq!(
            got,
            &vec![
                (s1, SimTime::from_micros(50)),
                (s2, SimTime::from_micros(50))
            ]
        );
    }

    #[test]
    fn set_shards_preserves_pending_events() {
        let mut net = Network::new(5);
        let p = net.add_node(pinger(2, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        // Run mid-way so frames and timers are in flight, then shard.
        net.run_until(SimTime::from_micros(11));
        let mut map = ShardMap::new(2);
        map.assign(e, 1);
        net.set_shards(&map);
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e).seen, 2);
        assert_eq!(net.node_ref::<Pinger>(p).arrivals.len(), 2);
    }

    /// More pending timers than the event queue's near run holds, so
    /// that repartitioning drains both of its tiers: the new shard must
    /// fire them in `(time, scheduling order)` order.
    #[test]
    fn set_shards_hands_over_both_tiers_of_the_event_queue_in_order() {
        struct Timers(Vec<u64>);
        impl Node for Timers {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                for token in 0..40 {
                    ctx.schedule(SimTime::from_micros(100 - 10 * (token % 7)), token);
                }
            }
            fn on_packet(&mut self, _: PortId, _: Bytes, _: &mut NodeCtx) {}
            fn on_timer(&mut self, token: u64, _: &mut NodeCtx) {
                self.0.push(token);
            }
        }
        let mut net = Network::new(5);
        let t = net.add_node(Timers(Vec::new()));
        net.run_until(SimTime::from_micros(1));
        let mut map = ShardMap::new(2);
        map.assign(t, 1);
        net.set_shards(&map);
        net.run_until_idle();
        let mut want: Vec<u64> = (0..40).collect();
        want.sort_by_key(|token| (100 - 10 * (token % 7), *token));
        assert_eq!(net.node_ref::<Timers>(t).0, want);
    }

    #[test]
    #[should_panic(expected = "only has 1 nodes")]
    fn stale_shard_map_panics() {
        let mut net = Network::new(1);
        let _a = net.add_node(pinger(0, SimTime::ZERO));
        let mut map = ShardMap::new(2);
        // Assign a node id the network does not have (map built against
        // a larger network).
        map.assign(NodeId(7), 1);
        net.set_shards(&map);
    }

    /// Events scheduled within a lookahead of (or exactly at) the end of
    /// time exercise the saturated-horizon drain: they must still fire,
    /// in causal order, under the sharded engine.
    #[test]
    fn events_at_the_end_of_time_still_fire_when_sharded() {
        struct FarTimer {
            fire_at: SimTime,
            fired: Vec<SimTime>,
        }
        impl Node for FarTimer {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                let delay = self.fire_at.saturating_sub(ctx.now());
                ctx.schedule(delay, 0);
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
                self.fired.push(ctx.now());
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        }
        let near = SimTime::from_nanos(u64::MAX - 10);
        let mut net = Network::new(1);
        let a = net.add_node(FarTimer {
            fire_at: near,
            fired: Vec::new(),
        });
        let b = net.add_node(FarTimer {
            fire_at: SimTime::MAX,
            fired: Vec::new(),
        });
        let mut map = ShardMap::new(2);
        map.assign(b, 1);
        net.set_shards(&map);
        net.set_threads(2);
        net.run_until_idle();
        assert_eq!(net.node_ref::<FarTimer>(a).fired, vec![near]);
        assert_eq!(net.node_ref::<FarTimer>(b).fired, vec![SimTime::MAX]);
    }

    #[test]
    #[should_panic(expected = "already sharded")]
    fn resharding_panics() {
        let mut net = Network::new(1);
        let a = net.add_node(pinger(0, SimTime::ZERO));
        let mut map = ShardMap::new(2);
        map.assign(a, 1);
        net.set_shards(&map);
        net.set_shards(&map);
    }

    #[test]
    fn link_down_blackholes_then_up_restores_service() {
        // 10 pings at 100 µs spacing; the link is down for [250 µs, 450 µs):
        // pings sent at 300 and 400 µs blackhole, the rest echo back.
        let mut net = Network::new(1);
        let p = net.add_node(pinger(10, SimTime::from_micros(100)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        let plan = crate::FaultPlan::new().link_flap(
            SimTime::from_micros(250),
            SimTime::from_micros(200),
            p,
            PortId(0),
        );
        net.apply_faults(&plan);
        net.run_until_idle();
        assert_eq!(net.node_ref::<Pinger>(p).arrivals.len(), 8);
        assert_eq!(net.node_ref::<Echo>(e).seen, 8);
        assert_eq!(net.blackholed_frames(), 2);
        // Service resumed: pings from 500 µs onward arrived.
        let last = *net.node_ref::<Pinger>(p).arrivals.last().unwrap();
        assert!(last > SimTime::from_micros(900));
    }

    #[test]
    fn in_flight_frame_blackholes_on_arrival() {
        // A slow link (1 ms propagation): the frame sent at t=0 is still
        // in flight when the link drops at 500 µs, so it must be counted
        // as blackholed, not delivered.
        let mut net = Network::new(1);
        let p = net.add_node(pinger(1, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(
            p,
            PortId(0),
            e,
            PortId(0),
            LinkSpec::gigabit().with_delay(SimTime::from_millis(1)),
        );
        net.schedule_link_down(SimTime::from_micros(500), p, PortId(0));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e).seen, 0);
        assert_eq!(net.blackholed_frames(), 1);
    }

    #[test]
    fn disconnect_blackholes_and_frees_ports_for_reattach() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(3, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        let e2 = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_micros(15)); // pings 1 and 2 echoed
        let peer = net.disconnect(p, PortId(0)).expect("link existed");
        assert_eq!(peer, (e, PortId(0)));
        net.run_until(SimTime::from_micros(40)); // 3rd ping blackholes
        assert_eq!(net.blackholed_frames(), 1);
        // Re-attach the pinger's port 0 to a different echo node.
        net.connect(p, PortId(0), e2, PortId(0), LinkSpec::gigabit());
        net.with_node_ctx::<Pinger, _>(p, |n, ctx| {
            n.count += 1; // one more ping through the new link
            ctx.schedule(SimTime::ZERO, 0);
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e2).seen, 1);
        assert_eq!(net.node_ref::<Echo>(e).seen, 2);
    }

    #[test]
    fn scheduled_reset_fires_the_hook() {
        struct Resettable {
            resets: u32,
            at: Vec<SimTime>,
        }
        impl Node for Resettable {
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_reset(&mut self, ctx: &mut NodeCtx) {
                self.resets += 1;
                self.at.push(ctx.now());
            }
        }
        let mut net = Network::new(1);
        let r = net.add_node(Resettable {
            resets: 0,
            at: Vec::new(),
        });
        let plan = crate::FaultPlan::new()
            .reset(SimTime::from_millis(1), r)
            .reset(SimTime::from_millis(3), r);
        net.apply_faults(&plan);
        net.run_until_idle();
        let n = net.node_ref::<Resettable>(r);
        assert_eq!(n.resets, 2);
        assert_eq!(n.at, vec![SimTime::from_millis(1), SimTime::from_millis(3)]);
    }

    /// The sharded pinger/echo scenario with a cross-shard link flap and
    /// a node reset: results must be bit-identical for any thread count.
    fn faulted_scenario(shards: bool, threads: usize) -> (Vec<SimTime>, Vec<SimTime>, u64, u64) {
        let mut net = Network::new(9);
        let p0 = net.add_node(pinger(6, SimTime::from_micros(3)));
        let e0 = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        let p1 = net.add_node(pinger(6, SimTime::from_micros(5)));
        let e1 = net.add_node(Echo {
            delay: SimTime::from_micros(2),
            seen: 0,
        });
        net.connect(p0, PortId(0), e0, PortId(0), LinkSpec::gigabit());
        net.connect(p1, PortId(0), e1, PortId(0), LinkSpec::gigabit());
        if shards {
            let mut map = ShardMap::new(3);
            map.assign(p0, 1);
            map.assign(e0, 1);
            map.assign(e1, 1);
            map.assign(p1, 2);
            net.set_shards(&map);
            net.set_threads(threads);
        }
        let plan = crate::FaultPlan::new()
            .link_flap(
                SimTime::from_micros(8),
                SimTime::from_micros(9),
                p1,
                PortId(0), // the cross-shard link
            )
            .link_flap(
                SimTime::from_micros(4),
                SimTime::from_micros(3),
                p0,
                PortId(0),
            )
            .reset(SimTime::from_micros(12), e0);
        net.apply_faults(&plan);
        net.run_until(SimTime::from_millis(5));
        let a0 = net.node_ref::<Pinger>(p0).arrivals.clone();
        let a1 = net.node_ref::<Pinger>(p1).arrivals.clone();
        (a0, a1, net.events_processed(), net.blackholed_frames())
    }

    #[test]
    fn fault_schedule_is_bit_identical_for_any_thread_count() {
        let base = faulted_scenario(false, 1);
        assert!(base.3 > 0, "the schedule actually blackholed something");
        for threads in [1, 2, 3, 8] {
            assert_eq!(faulted_scenario(true, threads), base, "threads={threads}");
        }
    }

    /// A node that sends one ctrl message to `to` every `interval` and
    /// counts what it receives back.
    struct CtrlChatter {
        to: NodeId,
        interval: SimTime,
        remaining: u32,
        received: Vec<(NodeId, SimTime)>,
    }
    impl Node for CtrlChatter {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            ctx.schedule(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.ctrl_send(self.to, Bytes::from_static(b"m"));
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_ctrl(&mut self, from: NodeId, _d: Bytes, ctx: &mut NodeCtx) {
            self.received.push((from, ctx.now()));
        }
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
    }

    fn chatter(to: NodeId, interval: SimTime, n: u32) -> CtrlChatter {
        CtrlChatter {
            to,
            interval,
            remaining: n,
            received: Vec::new(),
        }
    }

    #[test]
    fn ctrl_partition_drops_messages_both_ways_until_healed() {
        let mut net = Network::new(3);
        let sink = NodeId(0); // self-reference placeholder, fixed below
        let a = net.add_node(chatter(sink, SimTime::from_micros(100), 10));
        let b = net.add_node(chatter(a, SimTime::from_micros(100), 10));
        net.node_mut::<CtrlChatter>(a).to = b;
        // Partition b for [250 µs, 650 µs): sends at 300/400/500/600 µs
        // in both directions die at the sender (b is an endpoint of
        // both channels), and a's 200 µs send — in flight when the
        // partition starts — dies on delivery at 250 µs.
        let plan = crate::FaultPlan::new().ctrl_partition(
            SimTime::from_micros(250),
            SimTime::from_micros(400),
            b,
        );
        net.apply_faults(&plan);
        net.run_until_idle();
        assert_eq!(net.node_ref::<CtrlChatter>(a).received.len(), 6);
        assert_eq!(net.node_ref::<CtrlChatter>(b).received.len(), 5);
        let st = net.ctrl_stats();
        assert_eq!(st.dropped, 9);
        assert_eq!(st.duplicated + st.reordered, 0);
        // Per-channel view: 4 send-side + 1 in-flight toward b, 4 back.
        assert_eq!(net.ctrl_channel_stats(a, b).dropped, 5);
        assert_eq!(net.ctrl_channel_stats(b, a).dropped, 4);
    }

    #[test]
    fn ctrl_down_facade_blocks_in_flight_delivery() {
        let mut net = Network::new(3);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(100), 1));
        net.run_until(SimTime::from_micros(20)); // message in flight (50 µs delay)
        assert!(!net.ctrl_is_down(r));
        net.ctrl_down(r);
        assert!(net.ctrl_is_down(r));
        net.run_until_idle();
        // The in-flight message was discarded on delivery.
        assert!(net.node_ref::<CtrlChatter>(r).received.is_empty());
        assert_eq!(net.ctrl_channel_stats(s, r).dropped, 1);
        net.ctrl_up(r);
        assert!(!net.ctrl_is_down(r));
        net.with_node_ctx::<CtrlChatter, _>(s, |n, ctx| {
            n.remaining = 1;
            ctx.schedule(SimTime::ZERO, 0);
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<CtrlChatter>(r).received.len(), 1);
    }

    #[test]
    fn lossy_profile_drops_dups_and_reorders() {
        let mut net = Network::new(11);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(10), 400));
        net.set_ctrl_profile(
            CtrlProfile::lossy(0.25)
                .with_dup(0.10)
                .with_reorder(0.20, SimTime::from_micros(30)),
        );
        net.run_until_idle();
        let st = net.ctrl_channel_stats(s, r);
        assert_eq!(st.sent, 400);
        assert!(
            st.dropped > 50 && st.dropped < 150,
            "dropped={}",
            st.dropped
        );
        assert!(st.duplicated > 10, "duplicated={}", st.duplicated);
        assert!(st.reordered > 30, "reordered={}", st.reordered);
        let got = net.node_ref::<CtrlChatter>(r).received.len() as u64;
        assert_eq!(got, st.sent - st.dropped + st.duplicated);
        // Reorder jitter produced at least one pair of out-of-order
        // arrivals relative to send order (arrival times not monotone
        // would be invisible here since the vec is in arrival order —
        // instead check some message took more than the base delay).
        let late = net
            .node_ref::<CtrlChatter>(r)
            .received
            .iter()
            .filter(|(_, t)| {
                !(t.as_nanos() - SimTime::from_micros(50).as_nanos()).is_multiple_of(10 * 1000)
            })
            .count();
        assert!(late > 0, "some arrivals carry reorder jitter");
    }

    #[test]
    fn extra_delay_shifts_every_ctrl_message() {
        let mut net = Network::new(1);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(100), 2));
        net.node_mut::<CtrlChatter>(r).to = s;
        net.set_ctrl_profile(CtrlProfile::lossless().with_extra_delay(SimTime::from_micros(75)));
        net.run_until_idle();
        let got = &net.node_ref::<CtrlChatter>(r).received;
        // Base 50 µs + 75 µs extra = 125 µs after each 100 µs-spaced send.
        assert_eq!(
            got.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![SimTime::from_micros(125), SimTime::from_micros(225)]
        );
    }

    /// Cross-shard ctrl chatter under a lossy profile plus a scheduled
    /// partition: bit-identical for any thread count.
    fn lossy_ctrl_scenario(threads: usize) -> (Vec<(NodeId, SimTime)>, u64, u64) {
        let mut net = Network::new(77);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s1 = net.add_node(chatter(r, SimTime::from_micros(7), 200));
        let s2 = net.add_node(chatter(r, SimTime::from_micros(11), 200));
        let mut map = ShardMap::new(3);
        map.assign(s1, 1);
        map.assign(s2, 2);
        net.set_shards(&map);
        net.set_threads(threads);
        net.set_ctrl_profile(
            CtrlProfile::lossy(0.15)
                .with_dup(0.05)
                .with_reorder(0.25, SimTime::from_micros(40)),
        );
        let plan = crate::FaultPlan::new().ctrl_partition(
            SimTime::from_micros(300),
            SimTime::from_micros(200),
            s2,
        );
        net.apply_faults(&plan);
        net.run_until(SimTime::from_millis(10));
        let got = net.node_ref::<CtrlChatter>(r).received.clone();
        let st = net.ctrl_stats();
        (got, st.dropped, net.events_processed())
    }

    #[test]
    fn lossy_ctrl_is_bit_identical_for_any_thread_count() {
        let base = lossy_ctrl_scenario(1);
        assert!(base.1 > 0, "the profile actually dropped something");
        for threads in [2, 3, 8] {
            assert_eq!(lossy_ctrl_scenario(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_defaults_to_shard_zero() {
        let mut map = ShardMap::new(4);
        map.assign(NodeId(3), 2);
        assert_eq!(map.shard_of(NodeId(0)), 0);
        assert_eq!(map.shard_of(NodeId(3)), 2);
        assert_eq!(map.shard_of(NodeId(99)), 0);
        assert_eq!(map.n_shards(), 4);
    }
}
