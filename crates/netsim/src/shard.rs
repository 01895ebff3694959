//! The sharded event engine: conservative parallel discrete-event
//! simulation.
//!
//! A [`crate::Network`] is always a collection of shards. The default
//! is a single shard, which runs the classic sequential loop and behaves
//! exactly as the historical single-queue simulator. Calling
//! [`crate::Network::set_shards`] with a [`ShardMap`] splits the nodes
//! and links of a fresh network — built, but not yet run, with no event
//! scheduled — into independent shards: in fabric terms, one shard per
//! pod plus shard 0 for the spine, the controller and management nodes.
//! Nothing is handed over between shards but nodes, their port rows and
//! their links, so a piece of per-shard state (a queue, a control
//! channel's tails and held messages, a counter) never needs a migration.
//!
//! ## The conservative window protocol
//!
//! Shards only interact through two mechanisms, both of which carry a
//! *lookahead* — a guaranteed minimum latency:
//!
//! * frames crossing an inter-shard link arrive no earlier than the
//!   link's propagation delay after they were transmitted;
//! * control-plane messages arrive no earlier than `ctrl_delay` after
//!   they were sent (a lossy profile only adds delay, and a partition
//!   holds a message where it arrives).
//!
//! With `lookahead = min(min cross-shard link delay, ctrl_delay)`, any
//! cross-shard event *generated* at time `t` *arrives* at `t + lookahead`
//! or later. The engine exploits this with a barrier loop:
//!
//! ```text
//! next    = min over shards of earliest pending event
//! horizon = next + lookahead
//! every shard burns all events with  at < horizon   (in parallel)
//! barrier: cross-shard events produced this window are exchanged,
//!          sorted by (time, source shard, source sequence)
//! repeat
//! ```
//!
//! No event below the horizon can be affected by another shard, so each
//! shard can process its window without synchronization. Cross-shard
//! events land in a per-window *outbox* and are merged into the
//! destination shard's queue at the barrier, in a deterministic order
//! that does not depend on how many OS threads executed the window.
//! Results are therefore **bit-identical for any `--threads` value**;
//! the thread count only changes wall-clock time.
//!
//! ## Determinism and randomness
//!
//! Each shard owns its own `StdRng` stream derived from the network seed
//! and the shard id, so device randomness never depends on the global
//! interleaving of events. Shard 0 uses the network seed itself, which
//! keeps the single-shard configuration bit-compatible with the
//! pre-shard simulator.
//!
//! ## The event queue
//!
//! A shard's pending events are one `EventQueue`. Its invariant is the
//! order events leave it in: ascending `(at, seq)`, where `seq` counts
//! the events the shard has scheduled — a total order, so nothing a run
//! computes depends on how the queue is built.
//!
//! It is built in two tiers: a *near run* of at most `NEAR_RUN` events,
//! kept sorted, in front of a binary heap. An event due before the
//! heap's earliest goes into the run, at the place a scan from the
//! run's end finds (events are mostly scheduled in the order they fall
//! due). A full run takes it only if it is due before the run's last
//! event, which moves to the heap. Every other event goes to the heap,
//! and a pop takes the earlier of the two tiers' heads.
//!
//! Why a run: a converged fabric (`hbench`'s `fabric_steady`) keeps
//! about 196 timers parked milliseconds ahead — generators, expiry,
//! keepalive and ageing ticks — while one frame is in flight. In a lone
//! heap each of that frame's sixteen events sifted up past those timers
//! when pushed and sifted one of them back down when popped; in the run
//! it costs a compare with the heap's head. When thousands of events
//! are in flight at one instant (a control-plane burst) the run is full,
//! or later than the heap's head, and the heap does what it did alone.
//!
//! ## The link serializer
//!
//! A frame hop over an uncontended link costs one queue event, its
//! `Deliver`, and never touches the egress queue. The idle-start rule:
//! `Shard::emit` on a direction that is up, has nothing waiting and
//! whose serializer is free (`LinkDir::idle`) admits the frame
//! (`LinkDir::admit`, the tail-drop and high-water accounting every
//! enqueue goes through) and starts it (`LinkDir::start_tx`) — exactly
//! what enqueueing it and dequeueing it at once would have done.
//! Otherwise the frame is enqueued, and `Shard::kick` starts the
//! head-of-line frame of the channel, through the same `start_tx`,
//! whenever `now >= busy_until`; it schedules a `TxDone` wake-up at the
//! new `busy_until` only while frames wait behind the one being
//! serialized. The invariant:
//! `tx_in_flight` ⇔ exactly one `TxDone` for the channel is queued, and
//! an idle link (nothing waiting) owns no event. Frame `i` offered at
//! `t_i` therefore starts at `max(t_i, done_{i-1})`, is done one
//! serialization time later and arrives one propagation delay after
//! that; a frame whose serialization starts at an instant has left the
//! egress queue for every frame offered at that instant, whichever
//! event the queue ordered first. A downed direction keeps `busy_until`
//! (the frame it was serializing still occupies the wire) and any
//! queued wake-up, which then finds nothing to start.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use crate::fault::{CtrlProfile, CTRL_RTO};
use crate::link::LinkDir;
use crate::net::NodeId;
use crate::node::{Action, Node, NodeCtx, PortId};
use crate::stats::CtrlStats;
use crate::time::SimTime;

/// Assignment of every node of a network to a shard.
///
/// Build one with [`ShardMap::new`] and [`ShardMap::assign`], then hand
/// it to [`crate::Network::set_shards`]. Nodes that are never assigned
/// default to shard 0 — by convention the *system shard* holding the
/// spine, the controller and management-plane nodes.
#[derive(Debug, Clone)]
pub struct ShardMap {
    n_shards: usize,
    assign: Vec<u32>,
}

impl ShardMap {
    /// A map with `n_shards` shards (at least 1) and every node defaulted
    /// to shard 0.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> ShardMap {
        assert!(n_shards >= 1, "a network needs at least one shard");
        ShardMap {
            n_shards,
            assign: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Put `node` into `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn assign(&mut self, node: NodeId, shard: usize) {
        assert!(
            shard < self.n_shards,
            "shard {shard} out of range (map has {})",
            self.n_shards
        );
        if self.assign.len() <= node.0 {
            self.assign.resize(node.0 + 1, 0);
        }
        self.assign[node.0] = shard as u32;
    }

    /// The shard `node` is assigned to (0 if never assigned).
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assign.get(node.0).copied().unwrap_or(0) as usize
    }

    /// The highest node id this map explicitly assigns, if any — used by
    /// [`crate::Network::set_shards`] to reject maps built against a
    /// different (larger) network.
    pub fn max_assigned_node(&self) -> Option<NodeId> {
        if self.assign.is_empty() {
            None
        } else {
            Some(NodeId(self.assign.len() - 1))
        }
    }
}

/// Where a node lives: its shard and its index within that shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Loc {
    pub shard: u32,
    pub idx: u32,
}

/// Immutable per-run context shared by every shard (and cloned into
/// worker threads): the global node→shard table and the control delay.
#[derive(Clone)]
pub(crate) struct Env {
    pub loc: Arc<Vec<Loc>>,
    pub ctrl_delay: SimTime,
    /// Stochastic control-channel impairment (see
    /// [`crate::fault::CtrlProfile`]); the default no-op profile keeps
    /// the historical fast path and RNG streams.
    pub ctrl_profile: CtrlProfile,
}

/// Events of one shard's queue. Node references are *local* indices
/// within the shard; only `Ctrl::from` keeps a global [`NodeId`] because
/// it is handed back to device code.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A frame finishes arriving at a node's port.
    Deliver {
        node: u32,
        port: PortId,
        frame: Bytes,
    },
    /// A device timer fires.
    Timer { node: u32, token: u64 },
    /// A control-plane message arrives.
    Ctrl {
        node: u32,
        from: NodeId,
        data: Bytes,
    },
    /// A link serializer wake-up: the frame being serialized finishes and
    /// others wait behind it (never scheduled for an uncontended link).
    TxDone { chan: u32 },
    /// A delayed transmit enters the egress queue.
    Emit {
        node: u32,
        port: PortId,
        frame: Bytes,
    },
    /// A scheduled fault fires (see [`crate::fault::FaultPlan`]).
    Fault(FaultEv),
}

/// Shard-local fault events. Link faults reference the egress channel
/// owned by this shard; a full link-down therefore schedules one event
/// per direction, each in the shard owning that direction, at the same
/// instant — which keeps fault processing inside the normal `(at, seq)`
/// order and bit-identical for any thread count.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultEv {
    /// Take one egress direction down (queued frames blackhole).
    LinkDown { chan: u32 },
    /// Bring one egress direction back up.
    LinkUp { chan: u32 },
    /// Power-cycle a node: fires [`Node::on_reset`].
    Reset { node: u32 },
    /// Partition a node (global id — the blocked set spans shards) from
    /// the control plane. Replicated into every shard's queue at the
    /// same instant so each sender can decide locally.
    CtrlDown { node: NodeId },
    /// Heal a node's control-plane partition (replicated likewise).
    CtrlUp { node: NodeId },
}

pub(crate) struct Sched {
    pub at: SimTime,
    pub seq: u64,
    pub ev: Ev,
}

impl Sched {
    /// The total order events pop in.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// Capacity of an [`EventQueue`]'s near run.
const NEAR_RUN: usize = 16;

/// A shard's pending events; see the module docs for the invariant.
pub(crate) struct EventQueue {
    /// At most [`NEAR_RUN`] events in ascending `(at, seq)` order.
    near: VecDeque<Sched>,
    far: BinaryHeap<Sched>,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue {
            near: VecDeque::with_capacity(NEAR_RUN),
            far: BinaryHeap::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    pub fn push(&mut self, s: Sched) {
        let key = s.key();
        if self.far.peek().is_some_and(|top| top.key() < key) || !self.make_room(key) {
            self.far.push(s);
            return;
        }
        // Events are mostly pushed in the order they fall due.
        let at = self.near.iter().rposition(|e| e.key() < key);
        self.near.insert(at.map_or(0, |i| i + 1), s);
    }

    /// True if the run has room for an event due at `key`. A full run
    /// makes room, by moving its last event to the heap, only for an
    /// event due before that one: timers that went into the run while
    /// the heap was empty then give way to the events in flight.
    fn make_room(&mut self, key: (SimTime, u64)) -> bool {
        if self.near.len() < NEAR_RUN {
            return true;
        }
        if self.near.back().is_some_and(|last| last.key() < key) {
            return false;
        }
        let last = self.near.pop_back().expect("a full run has a last event");
        self.far.push(last);
        true
    }

    /// True when the event due next is the run's head.
    fn near_is_next(&self) -> bool {
        match (self.near.front(), self.far.peek()) {
            (Some(n), Some(f)) => n.key() < f.key(),
            (n, _) => n.is_some(),
        }
    }

    pub fn peek(&self) -> Option<&Sched> {
        if self.near_is_next() {
            self.near.front()
        } else {
            self.far.peek()
        }
    }

    /// Pop the event due next if `due` says its time has come.
    pub fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<Sched> {
        let near = self.near_is_next();
        let next = if near {
            self.near.front()
        } else {
            self.far.peek()
        };
        if !due(next?.at) {
            return None;
        }
        if near {
            self.near.pop_front()
        } else {
            self.far.pop()
        }
    }
}

/// One egress channel: the transmitting half of a duplex link, owned by
/// the shard of the transmitting node. The destination may live in
/// another shard, in which case the final `Deliver` crosses via the
/// outbox.
pub(crate) struct Chan {
    pub dir: LinkDir,
    pub peer: NodeId,
    pub peer_port: PortId,
    pub peer_shard: u32,
    pub peer_idx: u32,
}

/// A cross-shard event in flight between windows. `src_shard`/`src_seq`
/// make the barrier merge order total and thread-count independent.
pub(crate) struct Remote {
    pub at: SimTime,
    pub src_shard: u32,
    pub src_seq: u64,
    pub ev: REv,
}

impl Remote {
    /// Global id of the destination node.
    pub fn dest(&self) -> NodeId {
        match self.ev {
            REv::Deliver { node, .. } | REv::Ctrl { node, .. } => node,
        }
    }

    /// The deterministic merge key used at every barrier.
    pub fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src_shard, self.src_seq)
    }
}

/// Payload of a [`Remote`]; node references are global ids, resolved to
/// local indices by the destination shard.
pub(crate) enum REv {
    /// A frame crossing an inter-shard link.
    Deliver {
        node: NodeId,
        port: PortId,
        frame: Bytes,
    },
    /// A control-plane message to a node in another shard.
    Ctrl {
        node: NodeId,
        from: NodeId,
        data: Bytes,
    },
}

/// One shard: a self-contained slice of the network with its own clock,
/// event queue, sequence counter and RNG stream.
pub(crate) struct Shard {
    pub id: u32,
    pub now: SimTime,
    seq: u64,
    queue: EventQueue,
    pub nodes: Vec<Box<dyn Node>>,
    /// Global id of each local node (parallel to `nodes`).
    pub gids: Vec<NodeId>,
    started: Vec<bool>,
    /// Per-node egress map: `ports[idx][port] = Some(chan)` — a plain
    /// vector lookup on the `emit` hot path (one per frame hop) instead
    /// of the former `HashMap<(NodeId, PortId), _>` probe.
    pub ports: Vec<Vec<Option<u32>>>,
    pub chans: Vec<Chan>,
    pub rng: StdRng,
    pub unconnected_drops: u64,
    pub events_processed: u64,
    /// Frames actually handed to a node's `on_packet` — the
    /// packet-level delivery volume the flow-level engine compares its
    /// modeled volume against.
    pub delivered_frames: u64,
    /// Bytes of those delivered frames.
    pub delivered_bytes: u64,
    /// Frames that finished their flight into a port whose link was down
    /// on arrival. Counted at the shard (not per link direction) because
    /// the transmitting direction lives in the sender's shard.
    pub blackholed_in_flight: u64,
    /// This shard's replica of the control-plane partition state,
    /// indexed by **global** node id. Every shard processes the same
    /// `CtrlDown`/`CtrlUp` events at the same instant, so the replicas
    /// agree at every window boundary.
    ctrl_blocked: Vec<bool>,
    /// Per-channel control impairment counters, keyed by the global
    /// `(from, to)` node pair. Send-side stalls accumulate in the
    /// sender's shard; partition holds in the receiver's.
    pub ctrl_stats: HashMap<(usize, usize), CtrlStats>,
    /// The arrival time of the last control message each `(from, to)`
    /// pair sent from this shard, kept only while a lossy profile is
    /// armed or one of its delays is still in flight: no later message
    /// of the pair may arrive before it.
    ctrl_tail: HashMap<(usize, usize), SimTime>,
    /// Control messages `(from, to, message)` that arrived at a node of
    /// this shard while the pair was partitioned, in arrival order:
    /// delivered when the pair heals.
    ctrl_held: Vec<(NodeId, NodeId, Bytes)>,
    pub outbox: Vec<Remote>,
    /// Action buffer lent to each callback by [`Shard::dispatch`] and
    /// drained by [`Shard::apply`], so a callback allocates none.
    scratch: Vec<Action>,
}

impl Shard {
    /// An empty shard with its own RNG stream.
    pub fn new(id: u32, rng: StdRng) -> Shard {
        Shard {
            id,
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            gids: Vec::new(),
            started: Vec::new(),
            ports: Vec::new(),
            chans: Vec::new(),
            rng,
            unconnected_drops: 0,
            events_processed: 0,
            delivered_frames: 0,
            delivered_bytes: 0,
            blackholed_in_flight: 0,
            ctrl_blocked: Vec::new(),
            ctrl_stats: HashMap::new(),
            ctrl_tail: HashMap::new(),
            ctrl_held: Vec::new(),
            outbox: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// True while nothing has happened in this shard: no node started,
    /// no event scheduled, no frame dropped at an unconnected port. All
    /// its other state then belongs to its nodes and links.
    pub fn is_fresh(&self) -> bool {
        self.seq == 0 && self.unconnected_drops == 0 && !self.started.contains(&true)
    }

    /// True when `node` is partitioned from the control plane.
    fn ctrl_blocked(&self, node: NodeId) -> bool {
        self.ctrl_blocked.get(node.0).copied().unwrap_or(false)
    }

    /// Flip `node`'s control-plane partition state in this replica.
    fn set_ctrl_blocked(&mut self, node: NodeId, blocked: bool) {
        if self.ctrl_blocked.len() <= node.0 {
            self.ctrl_blocked.resize(node.0 + 1, false);
        }
        self.ctrl_blocked[node.0] = blocked;
    }

    fn ctrl_stat(&mut self, from: NodeId, to: NodeId) -> &mut CtrlStats {
        self.ctrl_stats.entry((from.0, to.0)).or_default()
    }

    /// When a control message `from → to` sent now arrives: one control
    /// delay later, plus what an armed profile draws (a stall of one
    /// [`CTRL_RTO`], jitter), and never before the pair's previous
    /// message — a session delivers in send order. Messages that arrive
    /// at the same instant keep their send order through the event
    /// sequence (locally) or the source sequence (across shards).
    fn ctrl_arrival(&mut self, from: NodeId, to: NodeId, env: &Env) -> SimTime {
        let base = self.now + env.ctrl_delay;
        let p = env.ctrl_profile;
        if p.is_noop() && self.ctrl_tail.is_empty() {
            // Unimpaired sends all take the same delay, so they keep
            // their order by themselves.
            return base;
        }
        let mut at = base;
        if !p.is_noop() {
            // Draws come from this shard's RNG stream, at the send
            // instant — the one point where ordering is already fixed.
            self.ctrl_stat(from, to).sent += 1;
            if p.drop > 0.0 && self.rng.gen_bool(p.drop) {
                self.ctrl_stat(from, to).dropped += 1;
                at += CTRL_RTO;
            }
            if p.jitter > 0.0 && p.jitter_bound > SimTime::ZERO && self.rng.gen_bool(p.jitter) {
                at += SimTime::from_nanos(self.rng.gen_range(1..=p.jitter_bound.as_nanos()));
            }
        }
        let pair = (from.0, to.0);
        let tail = self.ctrl_tail.entry(pair).or_insert(at);
        at = at.max(*tail);
        *tail = at;
        if p.is_noop() && at == base {
            // Disarmed, and no delay drawn before is ahead any more.
            self.ctrl_tail.remove(&pair);
        }
        at
    }

    /// Deliver, in arrival order, every held control message whose pair
    /// is no longer partitioned.
    fn release_held(&mut self, env: &Env) {
        for (from, to, data) in std::mem::take(&mut self.ctrl_held) {
            if self.ctrl_blocked(from) || self.ctrl_blocked(to) {
                self.ctrl_held.push((from, to, data));
            } else {
                let idx = env.loc[to.0].idx;
                self.dispatch(idx, env, |n, ctx| n.on_ctrl(from, data, ctx));
            }
        }
    }

    /// The RNG stream of shard `id` for a network seeded with `seed`.
    /// Shard 0 uses the seed itself so a single-shard network matches the
    /// historical single-queue simulator bit for bit.
    pub fn rng_stream(seed: u64, id: u32) -> StdRng {
        if id == 0 {
            StdRng::seed_from_u64(seed)
        } else {
            // SplitMix64-style decorrelation of the per-shard streams.
            StdRng::seed_from_u64(seed ^ (u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }

    /// Register a local node; returns its local index.
    pub fn add_node(&mut self, node: Box<dyn Node>, gid: NodeId) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.gids.push(gid);
        self.started.push(false);
        self.ports.push(Vec::new());
        idx
    }

    /// Map `(local node, port)` to an egress channel.
    ///
    /// # Panics
    /// Panics if the port is already connected.
    pub fn set_port(&mut self, idx: u32, port: PortId, chan: u32) {
        let row = &mut self.ports[idx as usize];
        let p = usize::from(port.0);
        if row.len() <= p {
            row.resize(p + 1, None);
        }
        if let Some(old) = row[p] {
            // A dead channel (torn out by a host detach) may be replaced
            // on re-attach; it stays allocated as a tombstone so pending
            // TxDone events referencing it resolve safely.
            assert!(
                self.chans[old as usize].dir.dead,
                "port {port} of {} already connected",
                self.gids[idx as usize]
            );
        }
        row[p] = Some(chan);
    }

    fn chan_of(&self, idx: u32, port: PortId) -> Option<u32> {
        self.ports[idx as usize]
            .get(usize::from(port.0))
            .copied()
            .flatten()
    }

    pub fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Sched { at, seq, ev });
    }

    /// Earliest pending event ([`SimTime::MAX`] if idle).
    pub fn next_time(&self) -> SimTime {
        self.queue.peek().map(|s| s.at).unwrap_or(SimTime::MAX)
    }

    /// True while any event is queued. Distinguishes "idle" from "an
    /// event scheduled exactly at [`SimTime::MAX`]", which
    /// [`Shard::next_time`] conflates.
    pub fn has_events(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Resolve and enqueue one cross-shard event. Callers must feed
    /// remotes in sorted [`Remote::key`] order so the local sequence
    /// numbers are assigned deterministically.
    pub fn insert_remote(&mut self, r: Remote, env: &Env) {
        let ev = match r.ev {
            REv::Deliver { node, port, frame } => Ev::Deliver {
                node: env.loc[node.0].idx,
                port,
                frame,
            },
            REv::Ctrl { node, from, data } => Ev::Ctrl {
                node: env.loc[node.0].idx,
                from,
                data,
            },
        };
        self.push(r.at, ev);
    }

    /// Fire `on_start` for any nodes that have not started yet, at `now`.
    pub fn start_pending(&mut self, now: SimTime, env: &Env) {
        self.now = now;
        for i in 0..self.nodes.len() {
            if !self.started[i] {
                self.started[i] = true;
                self.dispatch(i as u32, env, |n, ctx| n.on_start(ctx));
            }
        }
    }

    /// Process every event strictly below `horizon` and at or below
    /// `limit`. Cross-shard events generated along the way accumulate in
    /// [`Shard::outbox`].
    pub fn burn(&mut self, horizon: SimTime, limit: SimTime, env: &Env) {
        while let Some(sched) = self.queue.pop_if(|at| at < horizon && at <= limit) {
            self.now = sched.at;
            self.events_processed += 1;
            self.handle(sched.ev, env);
        }
    }

    /// Process every event at or below `limit`, with no horizon — the
    /// classic single-queue loop (valid only when the whole network is
    /// one shard, or from the sequential fallback that exchanges after
    /// every shard).
    pub fn burn_all(&mut self, limit: SimTime, env: &Env) {
        while let Some(sched) = self.queue.pop_if(|at| at <= limit) {
            self.now = sched.at;
            self.events_processed += 1;
            self.handle(sched.ev, env);
        }
    }

    /// True when the link into `(node, port)` is down on arrival. The
    /// transmitting direction is owned by the sender's shard, so the
    /// check uses the receiver's *own* egress channel on the same port —
    /// the paired half of the same duplex link, which fault scheduling
    /// always downs at the same instant as its twin.
    fn ingress_down(&self, node: u32, port: PortId) -> bool {
        self.chan_of(node, port)
            .is_some_and(|c| self.chans[c as usize].dir.down)
    }

    fn handle(&mut self, ev: Ev, env: &Env) {
        match ev {
            Ev::Deliver { node, port, frame } => {
                if self.ingress_down(node, port) {
                    self.blackholed_in_flight += 1;
                    return;
                }
                self.delivered_frames += 1;
                self.delivered_bytes += frame.len() as u64;
                self.dispatch(node, env, |n, ctx| n.on_packet(port, frame, ctx));
            }
            Ev::Timer { node, token } => {
                self.dispatch(node, env, |n, ctx| n.on_timer(token, ctx));
            }
            Ev::Ctrl { node, from, data } => {
                // A partition holds the pair's messages where they
                // arrive, in order, until it heals. A pair with held
                // messages is partitioned, so nothing overtakes them.
                let to = self.gids[node as usize];
                if self.ctrl_blocked(from) || self.ctrl_blocked(to) {
                    self.ctrl_stat(from, to).dropped += 1;
                    self.ctrl_held.push((from, to, data));
                    return;
                }
                self.dispatch(node, env, |n, ctx| n.on_ctrl(from, data, ctx));
            }
            Ev::Emit { node, port, frame } => {
                self.emit(node, port, frame);
            }
            Ev::TxDone { chan } => {
                self.chans[chan as usize].dir.tx_in_flight = false;
                self.kick(chan);
            }
            Ev::Fault(f) => match f {
                FaultEv::LinkDown { chan } => self.chans[chan as usize].dir.take_down(),
                FaultEv::LinkUp { chan } => {
                    self.chans[chan as usize].dir.bring_up();
                    self.kick(chan);
                }
                FaultEv::Reset { node } => {
                    self.dispatch(node, env, |n, ctx| n.on_reset(ctx));
                }
                FaultEv::CtrlDown { node } => self.set_ctrl_blocked(node, true),
                FaultEv::CtrlUp { node } => {
                    self.set_ctrl_blocked(node, false);
                    self.release_held(env);
                }
            },
        }
    }

    fn dispatch(&mut self, idx: u32, env: &Env, f: impl FnOnce(&mut dyn Node, &mut NodeCtx)) {
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let node = self.nodes[idx as usize].as_mut();
            let mut ctx = NodeCtx {
                now: self.now,
                node: self.gids[idx as usize],
                actions: &mut actions,
                rng: &mut self.rng,
            };
            f(node, &mut ctx);
        }
        self.apply(idx, &mut actions, env);
        self.scratch = actions;
    }

    /// Apply (and drain) the deferred side effects of one callback of
    /// local node `idx`. Cross-shard control messages go to the outbox;
    /// everything else is local by construction.
    pub fn apply(&mut self, idx: u32, actions: &mut Vec<Action>, env: &Env) {
        for a in actions.drain(..) {
            match a {
                Action::Transmit { port, frame } => self.emit(idx, port, frame),
                Action::TransmitAfter { delay, port, frame } => {
                    let at = self.now + delay;
                    self.push(
                        at,
                        Ev::Emit {
                            node: idx,
                            port,
                            frame,
                        },
                    );
                }
                Action::Timer { at, token } => self.push(at, Ev::Timer { node: idx, token }),
                Action::Ctrl { to, data } => {
                    let from = self.gids[idx as usize];
                    let at = self.ctrl_arrival(from, to, env);
                    let l = env.loc[to.0];
                    if l.shard == self.id {
                        self.push(
                            at,
                            Ev::Ctrl {
                                node: l.idx,
                                from,
                                data,
                            },
                        );
                    } else {
                        let src_seq = self.seq;
                        self.seq += 1;
                        self.outbox.push(Remote {
                            at,
                            src_shard: self.id,
                            src_seq,
                            ev: REv::Ctrl {
                                node: to,
                                from,
                                data,
                            },
                        });
                    }
                }
            }
        }
    }

    /// Offer a frame to the egress channel of `(idx, port)`.
    fn emit(&mut self, idx: u32, port: PortId, frame: Bytes) {
        let Some(chan) = self.chan_of(idx, port) else {
            self.unconnected_drops += 1;
            return;
        };
        let now = self.now;
        let dir = &mut self.chans[chan as usize].dir;
        if !dir.idle(now) {
            return self.emit_queued(chan, frame);
        }
        if dir.admit(frame.len()) {
            let arrive = dir.start_tx(now, frame.len());
            self.send_to_peer(chan, arrive, frame);
        }
    }

    /// Offer a frame to `chan` through its egress queue.
    fn emit_queued(&mut self, chan: u32, frame: Bytes) {
        // A frame whose serialization starts at this instant leaves the
        // queue before the newcomer is measured against it, even if its
        // wake-up sits behind this event in the queue.
        if !self.chans[chan as usize].dir.queue.is_empty() {
            self.kick(chan);
        }
        if self.chans[chan as usize].dir.enqueue(frame) {
            self.kick(chan);
        }
    }

    /// Start the head-of-line frame of `chan` if its serializer is free,
    /// and schedule the one wake-up at `busy_until` if frames wait
    /// behind a busy serializer and none is pending.
    fn kick(&mut self, chan: u32) {
        let now = self.now;
        let dir = &mut self.chans[chan as usize].dir;
        if dir.down {
            return;
        }
        let started = if now >= dir.busy_until {
            dir.dequeue()
        } else {
            None
        };
        let started = started.map(|frame| (dir.start_tx(now, frame.len()), frame));
        let busy_until = dir.busy_until;
        let wake = !dir.tx_in_flight && !dir.queue.is_empty();
        dir.tx_in_flight |= wake;
        if wake {
            self.push(busy_until, Ev::TxDone { chan });
        }
        if let Some((arrive, frame)) = started {
            self.send_to_peer(chan, arrive, frame);
        }
    }

    /// Schedule `frame`, serialized on `chan`, to reach the far end at
    /// `arrive`.
    fn send_to_peer(&mut self, chan: u32, arrive: SimTime, frame: Bytes) {
        let c = &self.chans[chan as usize];
        if c.peer_shard == self.id {
            let ev = Ev::Deliver {
                node: c.peer_idx,
                port: c.peer_port,
                frame,
            };
            self.push(arrive, ev);
        } else {
            let ev = REv::Deliver {
                node: c.peer,
                port: c.peer_port,
                frame,
            };
            let src_seq = self.seq;
            self.seq += 1;
            self.outbox.push(Remote {
                at: arrive,
                src_shard: self.id,
                src_seq,
                ev,
            });
        }
    }
}

// The window loop, the workers that run it and the inboxes and barrier
// they share live in [`crate::runtime`]; this module only defines the
// shard state that loop executes.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkSpec, LinkStats};
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn timer(at: u64, seq: u64) -> Sched {
        Sched {
            at: SimTime(at),
            seq,
            ev: Ev::Timer {
                node: 0,
                token: seq,
            },
        }
    }

    proptest! {
        /// Random interleavings of push, burst, pop, peek, conditional
        /// pop and popping the queue empty against a plain min-heap of
        /// keys. Timestamps come from a small range, so equal ones are
        /// common; a burst overflows the run at one instant, so both
        /// tiers hold events when it is emptied; the low end of the
        /// range is earlier than everything queued.
        #[test]
        fn event_queue_pops_in_key_order_like_a_heap(
            ops in proptest::collection::vec((0u8..12, 0u64..48), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = BinaryHeap::<Reverse<(SimTime, u64)>>::new();
            let mut seq = 0;
            let mut push = |q: &mut EventQueue, model: &mut BinaryHeap<_>, at: u64| {
                q.push(timer(at, seq));
                model.push(Reverse((SimTime(at), seq)));
                seq += 1;
            };
            for (op, arg) in ops {
                match op {
                    0..=4 => push(&mut q, &mut model, 1_000 + arg),
                    5 => (0..NEAR_RUN as u64 + 1 + arg).for_each(|_| push(&mut q, &mut model, 1_000 + arg)),
                    6 => push(&mut q, &mut model, arg),
                    7 | 8 => {
                        let got = q.pop_if(|_| true).map(|s| (s.key(), matches!(s.ev, Ev::Timer { token, .. } if token == s.seq)));
                        prop_assert_eq!(got, model.pop().map(|Reverse(key)| (key, true)));
                    }
                    9 => {
                        let limit = SimTime(1_000 + arg);
                        let due = model.peek().is_some_and(|Reverse((at, _))| *at <= limit);
                        let want = if due { model.pop().map(|Reverse(key)| key) } else { None };
                        prop_assert_eq!(q.pop_if(|at| at <= limit).map(|s| s.key()), want);
                    }
                    10 => {
                        let all: Vec<_> = std::iter::from_fn(|| q.pop_if(|_| true)).map(|s| s.key()).collect();
                        let want: Vec<_> = std::mem::take(&mut model).into_sorted_vec().into_iter().rev().map(|Reverse(key)| key).collect();
                        prop_assert_eq!(all, want);
                    }
                    _ => {}
                }
                prop_assert_eq!(q.peek().map(Sched::key), model.peek().map(|Reverse(key)| *key));
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert!(q.near.len() <= NEAR_RUN);
            }
        }
    }

    #[test]
    fn a_timer_parked_in_the_run_makes_way_for_an_event_in_flight() {
        let mut q = EventQueue::new();
        for seq in 0..NEAR_RUN as u64 {
            q.push(timer(1_000_000 + seq, seq));
        }
        assert!(q.far.is_empty());
        q.push(timer(5, 99));
        assert_eq!(q.near.front().map(Sched::key), Some((SimTime(5), 99)));
        assert_eq!(q.far.len(), 1);
    }

    /// A shard with one egress channel whose far end is in another
    /// shard, so that every `Deliver` lands in the outbox with its
    /// arrival time and sequence number.
    fn one_link(spec: LinkSpec) -> Shard {
        let mut sh = Shard::new(0, Shard::rng_stream(1, 0));
        sh.ports.push(vec![Some(0)]);
        sh.chans.push(Chan {
            dir: LinkDir::new(spec),
            peer: NodeId(1),
            peer_port: PortId(0),
            peer_shard: 1,
            peer_idx: 0,
        });
        sh
    }

    type Sent = Vec<(SimTime, u64, usize)>;

    fn observe(sh: &Shard) -> (Sent, LinkStats, SimTime, u64) {
        let sent = sh
            .outbox
            .iter()
            .map(|r| match &r.ev {
                REv::Deliver { frame, .. } => (r.at, r.src_seq, frame.len()),
                REv::Ctrl { .. } => unreachable!("no control traffic here"),
            })
            .collect();
        let dir = &sh.chans[0].dir;
        (sent, dir.stats, dir.busy_until, sh.seq)
    }

    proptest! {
        /// `emit` (which starts a frame on an idle link without touching
        /// its queue) against `emit_queued` for every frame (enqueue,
        /// then `kick`): same arrivals and sequence numbers, same link
        /// counters, over a link that backs up, idles, tail-drops, goes
        /// down, comes back and is finally torn out.
        #[test]
        fn starting_on_an_idle_link_is_enqueue_then_kick(
            ops in proptest::collection::vec((0u8..16, 0u64..3_000, 1usize..1_600), 1..120),
            queue_bytes in 0usize..4_000,
        ) {
            let env = Env {
                loc: Arc::new(Vec::new()),
                ctrl_delay: SimTime::ZERO,
                ctrl_profile: CtrlProfile::default(),
            };
            let spec = LinkSpec::gigabit().with_queue_bytes(queue_bytes);
            let (mut direct, mut queued) = (one_link(spec), one_link(spec));
            let n_ops = ops.len();
            for (i, (op, dt, len)) in ops.into_iter().enumerate() {
                // Short gaps back the link up, long ones let it idle.
                let now = direct.now + SimTime(if op % 2 == 0 { dt / 8 } else { dt });
                for sh in [&mut direct, &mut queued] {
                    sh.burn_all(now, &env);
                    sh.now = now;
                }
                let frame = Bytes::from(vec![0u8; len]);
                match op {
                    14 => {
                        direct.handle(Ev::Fault(FaultEv::LinkDown { chan: 0 }), &env);
                        queued.handle(Ev::Fault(FaultEv::LinkDown { chan: 0 }), &env);
                    }
                    15 => {
                        direct.handle(Ev::Fault(FaultEv::LinkUp { chan: 0 }), &env);
                        queued.handle(Ev::Fault(FaultEv::LinkUp { chan: 0 }), &env);
                    }
                    _ => {
                        direct.emit(0, PortId(0), frame.clone());
                        queued.emit_queued(0, frame);
                    }
                }
                if i + 1 == n_ops {
                    // Torn out, as `Network::disconnect` does it.
                    for sh in [&mut direct, &mut queued] {
                        sh.chans[0].dir.take_down();
                        sh.chans[0].dir.dead = true;
                    }
                    direct.emit(0, PortId(0), Bytes::from(vec![0u8; len]));
                    queued.emit_queued(0, Bytes::from(vec![0u8; len]));
                }
                prop_assert_eq!(observe(&direct), observe(&queued));
            }
            for sh in [&mut direct, &mut queued] {
                sh.burn_all(SimTime::MAX, &env);
            }
            prop_assert_eq!(observe(&direct), observe(&queued));
            prop_assert_eq!(direct.events_processed, queued.events_processed);
        }
    }

    #[test]
    fn an_idle_link_tail_drops_a_frame_larger_than_its_queue_and_never_allocates_one() {
        let mut sh = one_link(LinkSpec::gigabit().with_queue_bytes(100));
        sh.emit(0, PortId(0), Bytes::from(vec![0u8; 101]));
        sh.emit(0, PortId(0), Bytes::from(vec![0u8; 100]));
        let dir = &sh.chans[0].dir;
        assert_eq!(dir.stats.dropped_frames, 1);
        assert_eq!(dir.stats.tx_frames, 1);
        assert_eq!(dir.stats.max_queue_bytes, 100);
        assert_eq!(dir.queue.capacity(), 0);
        // 124 bytes on the wire, 1 us of cable.
        assert_eq!(observe(&sh).0, vec![(SimTime(992 + 1_000), 0, 100)]);
    }
}
