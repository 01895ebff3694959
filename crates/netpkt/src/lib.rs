//! # netpkt — packet formats for the HARMLESS workspace
//!
//! Zero-copy wire-format views and high-level representations for the
//! protocols HARMLESS touches on its dataplane:
//!
//! * Ethernet II frames ([`EthernetFrame`] / [`EthernetRepr`])
//! * IEEE 802.1Q VLAN tags ([`VlanTag`] / [`vlan::push_vlan`] / [`vlan::pop_vlan`])
//! * ARP ([`ArpPacket`] / [`ArpRepr`])
//! * IPv4 ([`Ipv4Packet`] / [`Ipv4Repr`]) and a minimal IPv6 ([`Ipv6Packet`])
//! * UDP ([`UdpPacket`]), TCP ([`TcpPacket`]), ICMPv4 ([`Icmpv4Packet`])
//!
//! The design follows the smoltcp idiom: a *view* type wraps any
//! `AsRef<[u8]>` buffer and exposes typed accessors over the raw octets
//! without copying; a *repr* type is an owned, validated summary that can be
//! `emit`-ted back into a buffer. Views over `AsMut<[u8]>` additionally
//! allow in-place mutation, which the HARMLESS translator uses to rewrite
//! VLAN tags on the hot path.
//!
//! On top of the raw formats, [`FlowKey`] ([`flowkey`]) extracts the
//! OpenFlow 1.3 match tuple from a frame in a single pass — this is the
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
pub mod mac;
pub mod tcp;
pub mod udp;
pub mod vlan;

pub use arp::{ArpOp, ArpPacket, ArpRepr};
pub use ethertype::EtherType;
pub use flowkey::{FieldMask, FlowKey, VlanKey};
pub use frame::{EthernetFrame, EthernetRepr};
pub use framebuf::FrameBuf;
pub use icmp::{Icmpv4Packet, Icmpv4Type};
pub use ipv4::{IpProto, Ipv4Addr, Ipv4Packet, Ipv4Repr};
pub use ipv6::Ipv6Packet;
pub use mac::MacAddr;
pub use tcp::TcpPacket;
pub use udp::UdpPacket;
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
