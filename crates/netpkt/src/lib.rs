//! # netpkt — packet formats for the HARMLESS workspace
//!
//! The wire formats HARMLESS touches on its dataplane, each a plain
//! header struct with a `parse` and a `write`:
//!
//! * Ethernet II and its 802.1Q tags ([`frame::Header`], [`VlanTag`],
//!   [`vlan::push_vlan`] / [`vlan::pop_vlan`])
//! * ARP ([`ArpRepr`])
//! * IPv4 ([`ipv4::Header`]) and the fixed IPv6 header ([`ipv6::Header`])
//! * UDP ([`udp::Header`]), TCP ([`tcp::Header`]), ICMPv4 ([`icmp::Header`])
//!
//! The rule is the cursor's ([`wire`]): a `parse` reads its fields in
//! order from a `&mut &[u8]`, each read checked, and a `write` writes
//! the same fields in the same order to a `&mut &mut [u8]`. So each
//! header states its layout once, any bytes at all parse to a header or
//! an error, never a panic, and nothing here indexes a buffer
//! (`clippy::indexing_slicing` is denied outside tests). [`Layers`] is
//! the one walk through a frame, to the transport bytes the IPv4 total
//! length bounds; in-place rewrites patch the offsets it returns.
//! [`FlowKey::extract`] builds the OpenFlow 1.3 match tuple on it — the
//! entry point of every software-switch lookup in the workspace.
//!
//! ## Example
//!
//! ```
//! use netpkt::{builder, MacAddr, FlowKey};
//!
//! let frame = builder::udp_packet(
//!     MacAddr::new([2, 0, 0, 0, 0, 1]),
//!     MacAddr::new([2, 0, 0, 0, 0, 2]),
//!     "10.0.0.1".parse().unwrap(),
//!     "10.0.0.2".parse().unwrap(),
//!     5000,
//!     53,
//!     b"hello",
//! );
//! let key = FlowKey::extract(1, &frame).unwrap();
//! assert_eq!(key.in_port, 1);
//! assert_eq!(key.udp_dst, 53);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod arp;
pub mod builder;
pub mod checksum;
pub mod ethertype;
pub mod flowhash;
pub mod flowkey;
pub mod frame;
pub mod framebuf;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod layers;
pub mod mac;
pub mod tcp;
pub mod udp;
pub mod vlan;
pub mod wire;

pub use arp::{ArpOp, ArpRepr};
pub use ethertype::EtherType;
pub use flowkey::{FieldMask, FlowKey, VlanKey};
pub use framebuf::FrameBuf;
pub use icmp::Icmpv4Type;
pub use ipv4::{IpProto, Ipv4Addr};
pub use layers::Layers;
pub use mac::MacAddr;
pub use vlan::{VlanTag, VID_MASK};

/// Errors produced while parsing or emitting packet formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the claimed structure.
    Truncated,
    /// A field value violates the protocol (bad version, bad header length,
    /// reserved bits set where forbidden, ...).
    Malformed,
    /// A checksum did not verify.
    Checksum,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer truncated"),
            Error::Malformed => write!(f, "malformed field"),
            Error::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used across the crate.
pub type Result<T> = core::result::Result<T, Error>;
