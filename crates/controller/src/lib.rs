//! # controller — the SDN controller and its applications
//!
//! A compact OpenFlow 1.3 controller in the Ryu mould: the
//! [`ControllerNode`] owns the channels (handshake, echo, port discovery,
//! barriers) and dispatches events to [`App`]s through a [`SwitchHandle`]
//! that queues flow-mods and packet-outs back to the switch.
//!
//! The bundled apps are the three use cases the HARMLESS demo showcases
//! (Fig. 1), plus the plumbing they share:
//!
//! * [`apps::LearningSwitch`] — classic reactive L2 learning; also used as
//!   the forwarding stage behind the policy apps;
//! * [`apps::LoadBalancer`] — use case (a): distributes ingress web
//!   traffic across backends keyed on source IP, with proxy-ARP for the
//!   VIP;
//! * [`apps::Dmz`] — use case (b): VM-level pairwise access policy in a
//!   multi-tenant segment, default-deny;
//! * [`apps::ParentalControl`] — use case (c): per-user destination
//!   blocklists, updatable on the fly;
//! * [`apps::StaticForwarder`] — proactive port-to-port wiring used by
//!   the throughput/latency experiments to keep the controller out of the
//!   steady-state path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod node;

pub use node::{App, ControllerNode, PacketInEvent, PacketInVerdict, SwitchHandle};
