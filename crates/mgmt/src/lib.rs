//! # mgmt — the management-plane substrate
//!
//! The HARMLESS Manager in the paper configures the legacy Ethernet switch
//! "via SNMP through NAPALM". This crate reproduces both halves:
//!
//! * **SNMPv2c subset** — [`Oid`]s, a BER TLV codec ([`ber`]), the
//!   Get/GetNext/Set/Response PDUs ([`pdu`]), an agent-side dispatcher over
//!   a [`MibStore`] ([`store`]) and a manager-side request/walk helper
//!   ([`client`]). Wire format is real BER: the bytes produced here decode
//!   with any SNMP tooling that speaks v2c.
//! * **NAPALM-like driver layer** ([`driver`]) — a vendor-neutral
//!   [`driver::VendorDialect`] trait that compiles high-level intents
//!   ("make port 3 an access port of VLAN 103") into per-vendor SNMP
//!   operation plans, with candidate/commit/rollback semantics like
//!   NAPALM's `load_merge_candidate`/`commit_config`.
//!
//! The simulated legacy switch implements [`MibStore`] over its live
//! configuration, so every management operation in the workspace crosses a
//! real encode → transport → decode → MIB boundary. Each MIB column it
//! serves is named once, by its arcs, in [`mibs`].
//!
//! Received bytes are read only through [`netpkt::wire::Cursor`], the
//! checked cursor the frame parsers and the OpenFlow codec read with:
//! a TLV's contents are a sub-cursor that ends where its length says,
//! and nothing indexes (`clippy::indexing_slicing` is denied outside
//! tests). Decoding is exact: a message, its PDU and each binding are
//! read to their end, lengths, integers and OID arcs only in the form
//! the encoder writes, so whatever [`SnmpMessage::decode`] accepts
//! [`encode`](SnmpMessage::encode)s to the bytes it was read from. The
//! one exception is an error-status outside [`ErrorStatus`]'s subset,
//! which reads as `genErr`.
//!
//! There is one reader and one writer. [`MessageRef`] checks a message
//! where it lies and borrows its community and bindings; the owned
//! decode is that view made owned. [`MessageParts`] writes a message
//! from a borrowed community and the PDU's fields, its bindings owned,
//! named as a request held them, or echoed as a request's bytes. The
//! agent and the manager work on the view and the writer: a request is
//! answered straight into the response, and nothing is cloned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod ber;
pub mod client;
pub mod driver;
pub mod mibs;
pub mod oid;
pub mod pdu;
pub mod store;

pub use client::SnmpClient;
pub use oid::{Oid, OidRef};
pub use pdu::{ErrorStatus, MessageParts, MessageRef, Pdu, PduType, SnmpMessage, Value, ValueRef};
pub use store::{agent_respond, MemoryMib, MibStore};

/// Errors from the BER codec and PDU layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Ran out of bytes.
    Truncated,
    /// Structurally invalid BER or PDU.
    Malformed(&'static str),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated BER data"),
            Error::Malformed(m) => write!(f, "malformed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<netpkt::Error> for Error {
    /// A cursor fails only where its bytes run out.
    fn from(e: netpkt::Error) -> Self {
        match e {
            netpkt::Error::Truncated => Error::Truncated,
            netpkt::Error::Malformed | netpkt::Error::Checksum => Error::Malformed("BER"),
        }
    }
}

/// Result alias.
pub type Result<T> = core::result::Result<T, Error>;
