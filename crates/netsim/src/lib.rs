//! # netsim — deterministic discrete-event network simulator
//!
//! The simulation substrate under every HARMLESS experiment. It provides:
//!
//! * [`SimTime`] — nanosecond simulated clock,
//! * [`Network`] — the event loop: nodes, duplex links with
//!   rate/propagation/queueing models, timers and an out-of-band control
//!   channel (used for OpenFlow and SNMP),
//! * [`Node`] — the device trait implemented by switches, hosts and
//!   controllers across the workspace,
//! * [`stats`] — counters and an HDR-style log-linear histogram,
//! * [`traffic`] — stamped traffic generators and measuring sinks,
//! * [`host`] — a minimal end host (ARP responder, ICMP echo, mailbox),
//! * [`service`] — a single/multi-server service queue helper for modelling
//!   CPU-bound packet processing,
//! * [`measure`] — RFC 2544-style max-lossless-rate search,
//! * [`flowsim`] — the flow-level hybrid engine: cache-resident flows
//!   promoted out of the packet engine and advanced analytically.
//!
//! The simulator is fully deterministic: within a shard, events are
//! ordered by `(time, sequence-number)` and all randomness flows from
//! seeded per-shard RNG streams. By default a network is one shard and
//! runs the classic sequential loop; [`Network::set_shards`] splits a
//! freshly built network, before it first runs or schedules an event,
//! along a [`ShardMap`] (one shard per fabric pod plus a system shard)
//! and [`Network::set_threads`] runs the shards on worker threads with
//! conservative lookahead synchronization — see the [`shard`] module.
//! Results are bit-identical for every thread count. Faults, control
//! plane partitions included, are scheduled events ([`FaultPlan`],
//! `Network::schedule_*`).
//!
//! ## Example
//!
//! ```
//! use netsim::{LinkSpec, Network, SimTime};
//! use netsim::host::Host;
//!
//! let mut net = Network::new(42);
//! let a = net.add_node(Host::new("a", netpkt::MacAddr::host(1), "10.0.0.1".parse().unwrap()));
//! let b = net.add_node(Host::new("b", netpkt::MacAddr::host(2), "10.0.0.2".parse().unwrap()));
//! net.connect(a, 0.into(), b, 0.into(), LinkSpec::gigabit());
//! net.node_mut::<Host>(a).ping(b"hi", "10.0.0.2".parse().unwrap());
//! net.run_until(SimTime::from_millis(10));
//! assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fault;
pub mod flowsim;
pub mod host;
pub mod link;
pub mod measure;
pub mod net;
pub mod node;
pub mod runtime;
pub mod service;
pub mod shard;
pub mod stats;
pub mod time;
pub mod traffic;

pub use fault::{CtrlProfile, Fault, FaultPlan};
pub use flowsim::{FlowBundleSpec, FlowHop, FlowSim, HybridStats};
pub use link::{LinkSpec, LinkStats};
pub use net::{Network, NodeId};
pub use node::{Node, NodeCtx, PortId};
pub use runtime::RuntimeStats;
pub use shard::ShardMap;
pub use stats::{CtrlStats, Histogram, Rollup, SloMeter};
pub use time::SimTime;
