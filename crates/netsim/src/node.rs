//! The device trait and the context handed to device callbacks.

use bytes::Bytes;
use rand::rngs::StdRng;
use std::any::Any;

use crate::net::NodeId;
use crate::time::SimTime;

/// A node-local port number. Port numbering is per-device and starts at
/// whatever the device chooses (switches in this workspace use 1-based
/// numbering to match OpenFlow, hosts use port 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u16);

impl From<u16> for PortId {
    fn from(v: u16) -> Self {
        PortId(v)
    }
}

impl core::fmt::Display for PortId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Deferred side effects collected while a device callback runs and applied
/// by the [`crate::Network`] afterwards.
#[derive(Debug)]
pub(crate) enum Action {
    /// Put a frame on the wire attached to `port` right now.
    Transmit { port: PortId, frame: Bytes },
    /// Put a frame on the wire after an internal processing delay.
    TransmitAfter {
        delay: SimTime,
        port: PortId,
        frame: Bytes,
    },
    /// Fire `on_timer(token)` at `at`.
    Timer { at: SimTime, token: u64 },
    /// Deliver `data` to `to`'s `on_ctrl` after the control-plane delay.
    Ctrl { to: NodeId, data: Bytes },
}

/// Execution context passed to every [`Node`] callback.
///
/// All mutations are buffered and applied by the simulator after the
/// callback returns, so callbacks always observe a consistent snapshot.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut StdRng,
}

impl<'a> NodeCtx<'a> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose callback is running.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Transmit `frame` on `port` immediately. If the port is not connected
    /// the frame is silently dropped (and counted by the network).
    #[inline]
    pub fn transmit(&mut self, port: PortId, frame: Bytes) {
        self.actions.push(Action::Transmit { port, frame });
    }

    /// Transmit after an internal processing `delay` (models pipeline
    /// latency without device-side timer bookkeeping).
    #[inline]
    pub fn transmit_after(&mut self, delay: SimTime, port: PortId, frame: Bytes) {
        self.actions
            .push(Action::TransmitAfter { delay, port, frame });
    }

    /// Schedule `on_timer(token)` to fire `delay` from now.
    #[inline]
    pub fn schedule(&mut self, delay: SimTime, token: u64) {
        self.actions.push(Action::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Send an out-of-band control message (OpenFlow, SNMP, ...) to another
    /// node; it arrives at `on_ctrl` after the network's control delay.
    #[inline]
    pub fn ctrl_send(&mut self, to: NodeId, data: Bytes) {
        self.actions.push(Action::Ctrl { to, data });
    }

    /// The deterministic RNG of the node's shard. An unsharded network
    /// has a single stream; a sharded one keeps one stream per shard so
    /// device randomness never depends on global event interleaving (or
    /// the thread count).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A simulated device: anything that owns ports and reacts to packets,
/// timers and control messages.
///
/// Nodes must be [`Send`]: a sharded network (see
/// [`crate::Network::set_shards`]) moves each shard's devices onto a
/// worker thread for the duration of a `run_*` call. A device is only
/// ever touched by one thread at a time, so no `Sync` bound is needed.
pub trait Node: Any + Send {
    /// A frame arrived on `port`.
    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx);

    /// A timer scheduled with [`NodeCtx::schedule`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx) {}

    /// An out-of-band control message arrived.
    fn on_ctrl(&mut self, _from: NodeId, _data: Bytes, _ctx: &mut NodeCtx) {}

    /// Called once when the simulation starts running.
    fn on_start(&mut self, _ctx: &mut NodeCtx) {}

    /// The device was power-cycled by the fault layer (see
    /// [`crate::fault::FaultPlan`]). Implementations must drop whatever
    /// state a real reboot would lose — learned tables, caches, queued
    /// work — and keep only persistent configuration (their "startup
    /// config"). Timers survive in the event queue; devices whose timers
    /// carry pre-reset context must treat stale tokens defensively. The
    /// default is a no-op: a stateless device reboots into the same
    /// behaviour.
    fn on_reset(&mut self, _ctx: &mut NodeCtx) {}

    /// Flow-residency probe for the flow-level engine
    /// ([`crate::flowsim`]): would `frame`, arriving on `port`, be
    /// served entirely from this device's fast path (flow caches, NAT
    /// table) without generating table misses or packet-ins?
    ///
    /// `None` means the device cannot answer (the default — hosts,
    /// legacy bridges); the flowsim layer then relies on the
    /// [`Node::quiescence`] signal alone for that hop. `Some(false)`
    /// vetoes promotion.
    fn flow_resident(&self, _port: PortId, _frame: &[u8]) -> Option<bool> {
        None
    }

    /// A monotonic disturbance counter for the flow-level engine: any
    /// event that could change how this device forwards an established
    /// flow (table miss, packet-in, cache-epoch bump, NAT eviction,
    /// drop, reset) must advance it. The flowsim layer promotes flows
    /// only after this value holds still across whole windows, and
    /// demotes them the moment it moves. `None` (the default) means the
    /// device never disturbs converged flows (e.g. sinks).
    fn quiescence(&self) -> Option<u64> {
        None
    }

    /// Credit this device's throughput counters with `frames`/`bytes`
    /// that the flow-level engine advanced analytically on its behalf.
    /// The default ignores the credit; devices with meaningful
    /// per-frame counters (software switches) override it.
    fn credit_modeled(&mut self, _frames: u64, _bytes: u64) {}

    /// Human-readable name used in traces.
    fn name(&self) -> &str {
        "node"
    }

    /// `self` as `&dyn Any`. [`crate::Network`] downcasts a node through
    /// trait upcasting (`Node: Any`) and never calls this; it exists only
    /// so that implementations that still define it (the frozen
    /// `hbench/src/probes.rs`'s `Echo`) compile, and goes with ROADMAP
    /// 1(b).
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// `self` as `&mut dyn Any`; see [`Node::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}
