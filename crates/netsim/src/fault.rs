//! Scheduled fault injection: link flaps, node reboots, control-plane
//! partitions and lossy control channels.
//!
//! A [`FaultPlan`] is a declarative schedule of faults built before (or
//! between) `run_*` calls and armed with
//! [`crate::Network::apply_faults`]. Each entry becomes an ordinary
//! event in the owning shard's queue, so faults ride the same
//! conservative window machinery as frames and timers: the schedule is
//! **bit-identical for any thread count**.
//!
//! Semantics:
//!
//! * **Link down** — both directions of the duplex link go down at the
//!   same instant. Frames queued on either direction are blackholed,
//!   frames transmitted into a downed direction are blackholed, and
//!   frames already in flight are blackholed *on arrival* (delivery
//!   checks the receiving port's link state). A frame transmitted
//!   before the fault whose arrival postdates the matching link-up
//!   survives — the flap was shorter than its remaining flight time.
//! * **Link up** — both directions come back; queued traffic resumes.
//! * **Reset** — the node's [`crate::Node::on_reset`] hook fires: the
//!   device drops whatever a real power cycle would lose.
//! * **Ctrl down / up** — the named node is partitioned from the
//!   out-of-band control plane. A control message from or to it that
//!   arrives while either end is partitioned is *held* where it arrives;
//!   when the last partition of the pair heals, the held messages are
//!   delivered at that instant, in send order, ahead of anything sent
//!   later. A partition that never heals (every crash scenario) keeps
//!   them for good: both ends see the session end through their own
//!   keepalive death. The partition state is replicated into **every**
//!   shard's queue at the same instant, so a receiver's shard decides
//!   locally and the schedule stays bit-identical for any thread count.
//!
//! The control channel between two nodes is one session, as OpenFlow's
//! TCP or TLS channel is (OpenFlow 1.3, §6.3): messages of an ordered
//! pair arrive in send order, or are delayed — never lost, copied or
//! overtaken on their own. A stochastic [`CtrlProfile`] (armed with
//! [`crate::Network::set_ctrl_profile`]) models what such a channel
//! suffers: a loss draw stalls its message by one retransmission
//! timeout (`CTRL_RTO`, 10 ms), and jitter delays it by a bounded
//! amount; a message never arrives before one its pair sent earlier, so
//! a stall holds up everything behind it. Decisions are drawn from the
//! **sending shard's** RNG stream at send time — the only point where
//! the message order is already deterministic — and every delay is
//! added on top of the base control delay, so the conservative
//! lookahead still holds and lossy runs remain bit-identical for any
//! thread count.
//!
//! Blackholed frames are counted (per direction in
//! [`crate::LinkStats::blackholed_frames`], in-flight losses at the
//! shard) and totalled by [`crate::Network::blackholed_frames`];
//! control-message stalls and holds are counted per channel in
//! [`crate::stats::CtrlStats`] and totalled by
//! [`crate::Network::ctrl_stats`].

use crate::net::NodeId;
use crate::node::PortId;
use crate::time::SimTime;

/// One fault. Link faults name either end of the link — `(node, port)`
/// identifies the duplex pair, and both directions are affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Take the link attached to `(node, port)` down (both directions).
    LinkDown {
        /// Either endpoint of the link.
        node: NodeId,
        /// The endpoint's port.
        port: PortId,
    },
    /// Bring the link attached to `(node, port)` back up.
    LinkUp {
        /// Either endpoint of the link.
        node: NodeId,
        /// The endpoint's port.
        port: PortId,
    },
    /// Power-cycle `node`: its [`crate::Node::on_reset`] hook fires.
    Reset {
        /// The node to reboot.
        node: NodeId,
    },
    /// Partition `node` from the out-of-band control plane: control
    /// messages from or to it are held until a matching
    /// [`Fault::CtrlUp`].
    CtrlDown {
        /// The node to partition.
        node: NodeId,
    },
    /// Heal the control-plane partition of `node`.
    CtrlUp {
        /// The node to reconnect.
        node: NodeId,
    },
}

/// The retransmission timeout of a control session: a message a loss
/// draw hits arrives this much later than it would have. Shorter than
/// the shortest keepalive death any scenario sets (two missed 50 ms
/// probes), so a loss draw alone never ends a session, as one lost
/// segment does not end a TCP connection.
pub(crate) const CTRL_RTO: SimTime = SimTime::from_millis(10);

/// A stochastic impairment profile for the out-of-band control channel,
/// armed network-wide with [`crate::Network::set_ctrl_profile`].
///
/// Each control message is (in this order) stalled with probability
/// `drop` by one retransmission timeout (10 ms), as a lost TCP segment
/// is sent again, and jittered with probability `jitter` by a uniform
/// extra delay in `(0, jitter_bound]`. Neither reorders: a message never arrives
/// before one its pair sent earlier, so everything behind a stalled
/// message waits for it. All randomness comes from the sending shard's
/// RNG stream, so an armed profile is bit-identical for any thread
/// count; a no-op profile (the default) draws nothing and leaves
/// historical RNG streams untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlProfile {
    /// Probability each message is lost once and sent again.
    pub drop: f64,
    /// Probability each message receives jitter.
    pub jitter: f64,
    /// Upper bound of the jitter (uniform in `(0, bound]`).
    pub jitter_bound: SimTime,
}

impl Default for CtrlProfile {
    fn default() -> Self {
        CtrlProfile {
            drop: 0.0,
            jitter: 0.0,
            jitter_bound: SimTime::ZERO,
        }
    }
}

impl CtrlProfile {
    /// The transparent profile: no impairment, no RNG draws.
    pub fn lossless() -> CtrlProfile {
        CtrlProfile::default()
    }

    /// A profile that loses (and so stalls) each message with
    /// probability `drop`.
    pub fn lossy(drop: f64) -> CtrlProfile {
        CtrlProfile {
            drop,
            ..CtrlProfile::default()
        }
    }

    /// Set the jitter probability and bound.
    pub fn with_jitter(mut self, jitter: f64, bound: SimTime) -> Self {
        self.jitter = jitter;
        self.jitter_bound = bound;
        self
    }

    /// True when the profile impairs nothing (the fast path: no RNG
    /// draws, no per-message accounting).
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.jitter == 0.0
    }
}

/// A deterministic schedule of [`Fault`]s.
///
/// Build with the chained constructors, then arm it with
/// [`crate::Network::apply_faults`]. Entries at the same instant fire
/// in insertion order; the whole schedule is independent of the thread
/// count.
///
/// ```
/// use netsim::{FaultPlan, NodeId, PortId, SimTime};
/// let plan = FaultPlan::new()
///     .link_flap(
///         SimTime::from_millis(10),
///         SimTime::from_millis(5),
///         NodeId(3),
///         PortId(1),
///     )
///     .reset(SimTime::from_millis(30), NodeId(7));
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a raw [`Fault`] at `at`.
    pub fn push(mut self, at: SimTime, fault: Fault) -> Self {
        self.entries.push((at, fault));
        self
    }

    /// Take the link at `(node, port)` down at `at`.
    pub fn link_down(self, at: SimTime, node: NodeId, port: PortId) -> Self {
        self.push(at, Fault::LinkDown { node, port })
    }

    /// Bring the link at `(node, port)` up at `at`.
    pub fn link_up(self, at: SimTime, node: NodeId, port: PortId) -> Self {
        self.push(at, Fault::LinkUp { node, port })
    }

    /// Flap the link at `(node, port)`: down at `at`, up again
    /// `duration` later.
    pub fn link_flap(self, at: SimTime, duration: SimTime, node: NodeId, port: PortId) -> Self {
        self.link_down(at, node, port)
            .link_up(at + duration, node, port)
    }

    /// Power-cycle `node` at `at`.
    pub fn reset(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::Reset { node })
    }

    /// Partition `node` from the control plane at `at`.
    pub fn ctrl_down(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::CtrlDown { node })
    }

    /// Heal the control-plane partition of `node` at `at`.
    pub fn ctrl_up(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::CtrlUp { node })
    }

    /// Partition `node` from the control plane for `duration` starting
    /// at `at`.
    pub fn ctrl_partition(self, at: SimTime, duration: SimTime, node: NodeId) -> Self {
        self.ctrl_down(at, node).ctrl_up(at + duration, node)
    }

    /// The scheduled entries in time order (ties keep insertion order).
    pub fn entries(&self) -> Vec<(SimTime, Fault)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|(at, _)| *at); // stable: same-instant entries keep order
        v
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_sort_by_time_keeping_insertion_order_on_ties() {
        let t = SimTime::from_millis(1);
        let plan = FaultPlan::new()
            .reset(SimTime::from_millis(2), NodeId(1))
            .link_down(t, NodeId(0), PortId(0))
            .link_up(t, NodeId(0), PortId(0));
        let e = plan.entries();
        assert_eq!(e.len(), 3);
        assert!(matches!(e[0].1, Fault::LinkDown { .. }));
        assert!(matches!(e[1].1, Fault::LinkUp { .. }));
        assert!(matches!(e[2].1, Fault::Reset { .. }));
    }

    #[test]
    fn noop_profile_detection() {
        assert!(CtrlProfile::lossless().is_noop());
        assert!(!CtrlProfile::lossy(0.1).is_noop());
        assert!(!CtrlProfile::lossless()
            .with_jitter(0.5, SimTime::from_micros(10))
            .is_noop());
    }

    #[test]
    fn flap_expands_to_down_then_up() {
        let plan = FaultPlan::new().link_flap(
            SimTime::from_millis(3),
            SimTime::from_millis(2),
            NodeId(4),
            PortId(2),
        );
        let e = plan.entries();
        assert_eq!(e[0].0, SimTime::from_millis(3));
        assert_eq!(e[1].0, SimTime::from_millis(5));
    }
}
