//! # softswitch — the software OpenFlow dataplane
//!
//! This crate is the workspace's stand-in for ESwitch/OVS on a DPDK
//! server: a natively-executing OpenFlow 1.3 dataplane whose per-packet
//! costs are real Rust work (parsing, hashing, header rewriting) that
//! Criterion can measure, plus an explicit cost model that feeds the
//! discrete-event simulator.
//!
//! Layering, bottom up:
//!
//! * [`actions`] — concrete packet transformations (VLAN push/pop/rewrite,
//!   set-field with checksum maintenance), the lowered
//!   [`actions::CAction`] programs that caches record, and the one
//!   stepper that executes them;
//! * [`batch`] — the [`batch::FrameBatch`]/[`batch::BatchResult`]
//!   containers behind
//!   [`Datapath::process_batch_into`](datapath::Datapath::process_batch_into),
//!   the one way a frame enters a datapath (a lone frame is a batch of
//!   one) and the one result arena it leaves in;
//! * [`trace`] — the [`trace::ProcessingTrace`] every lookup produces and
//!   the [`trace::CostModel`] that converts it to nanoseconds;
//! * [`cache`] — exact-match microflow cache and masked megaflow cache
//!   with OVS-style unwildcarding;
//! * [`nat`] — the stateful source-NAT connection table behind
//!   [`openflow::Action::Nat`];
//! * [`route`] — a standalone longest-prefix-match table (the reference
//!   structure the routing stage's masked flow entries are checked
//!   against);
//! * [`datapath`] — the multi-table pipeline: flow/group/meter tables,
//!   reserved-port semantics, IPv4 TTL/NAT stages, packet-in
//!   generation, [`PipelineMode`] selection;
//! * [`agent`] — the switch side of the OpenFlow channel (handshake,
//!   flow-mods, packet-out, stats);
//! * [`node`] — the [`netsim::Node`] wrapper: a CPU service queue in front
//!   of the datapath, driven by the cost model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// Actions rewrite frames from any host in place: no indexing or slicing
// that can panic outside tests, every offset comes from the frame walk
// (`netpkt::layers`) and every write is a checked `get_mut`.
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod actions;
pub mod agent;
pub mod batch;
pub mod cache;
pub mod datapath;
pub mod nat;
pub mod node;
pub mod route;
pub mod trace;

pub use batch::{BatchResult, FrameBatch};
pub use datapath::{Datapath, DatapathStats, DpConfig, PipelineMode};
pub use nat::{NatConfig, NatProto, NatTable};
pub use node::{FailMode, SoftSwitchNode};
pub use route::LpmTable;
pub use trace::{CostModel, ProcessingTrace};
