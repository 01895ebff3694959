//! # openflow — an OpenFlow 1.3 subset
//!
//! The protocol layer between the HARMLESS software switches and the SDN
//! controller. Four concerns live here:
//!
//! 1. **Wire codec** ([`message`], [`oxm`], [`action`], [`instruction`]):
//!    OpenFlow 1.3 messages encoded/decoded byte-exactly, covering the
//!    subset a production L2/L3 deployment needs — handshake, echo,
//!    `FLOW_MOD`/`GROUP_MOD`/`METER_MOD`, `PACKET_IN`/`PACKET_OUT`,
//!    `FLOW_REMOVED`, `PORT_STATUS`, barriers, errors and the common
//!    multipart statistics. Each structure states its layout once. Every
//!    read goes through a checked cursor: there are no length prechecks,
//!    and a structure behind a length field is read from a sub-cursor
//!    that ends where that field says. Every length written on the wire
//!    is patched in from the bytes actually written; nothing predicts it.
//!    [`Error::Truncated`] means only "this frame has not fully arrived".
//!    A complete frame whose body runs short is [`Error::Malformed`],
//!    because no more bytes are coming for it.
//! 2. **Match model** ([`Match`], [`OxmField`]): OXM TLVs with masks,
//!    prerequisite validation, and lossless conversion to the
//!    [`netpkt::FlowKey`]/[`netpkt::flowkey::FieldMask`] pair the
//!    dataplanes match on.
//! 3. **Table semantics** ([`table`], [`group`], [`meter`]): flow-table
//!    priority/overlap/timeout behaviour per §5 and §6.4 of the 1.3 spec,
//!    group buckets (all/select/indirect) and token-bucket meters.
//! 4. **Channel endpoint** ([`session`]): stream reassembly and keepalive
//!    probe tracking, the connection state both ends of a channel keep.
//!
//! The split mirrors real switch implementations: the codec is shared by
//! controller and switch; the table semantics are the switch-side model
//! that both the software datapath (`softswitch`) and the TCAM-limited
//! COTS model (`legacy-switch`) build on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The wire codec reads hostile bytes: no indexing or slicing that can
// panic outside tests, every read goes through `wire::Cursor`.
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod action;
pub mod group;
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod instruction;
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod message;
pub mod meter;
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod oxm;
pub mod session;
pub mod table;
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
mod wire;

pub use action::{Action, NatDir};
pub use group::{Bucket, Group, GroupTable, GroupType};
pub use instruction::{Instruction, InstructionRef, Program};
pub use message::{ControllerRole, Message, PacketInReason, PortDesc, Xid};
pub use meter::{Meter, MeterBand, MeterTable};
pub use oxm::{Match, OxmField};
pub use session::Session;
pub use table::{FlowEntry, FlowModCommand, FlowTable, TableId};

/// OpenFlow protocol version byte for 1.3.
pub const OFP_VERSION: u8 = 0x04;

/// Port numbers, including the OF 1.3 reserved values.
pub mod port_no {
    /// Maximum physical port number.
    pub const MAX: u32 = 0xffff_ff00;
    /// Send back out the ingress port.
    pub const IN_PORT: u32 = 0xffff_fff8;
    /// Submit to the flow table (valid only in packet-out).
    pub const TABLE: u32 = 0xffff_fff9;
    /// Legacy "normal" L2 processing.
    pub const NORMAL: u32 = 0xffff_fffa;
    /// Flood within the VLAN, minus ingress.
    pub const FLOOD: u32 = 0xffff_fffb;
    /// All ports except ingress.
    pub const ALL: u32 = 0xffff_fffc;
    /// Punt to the controller.
    pub const CONTROLLER: u32 = 0xffff_fffd;
    /// The switch-local port.
    pub const LOCAL: u32 = 0xffff_fffe;
    /// Wildcard in delete/stats filters.
    pub const ANY: u32 = 0xffff_ffff;
}

/// Group numbers.
pub mod group_no {
    /// Wildcard in delete/stats filters.
    pub const ANY: u32 = 0xffff_ffff;
    /// "All groups" in delete commands.
    pub const ALL: u32 = 0xffff_fffc;
}

/// The buffer id meaning "packet not buffered".
pub const NO_BUFFER: u32 = 0xffff_ffff;

/// Errors from the codec and table layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Not enough bytes for the claimed structure.
    Truncated,
    /// A structurally invalid field (bad length, bad padding, ...).
    Malformed(&'static str),
    /// Version byte other than 1.3 where one is required.
    BadVersion(u8),
    /// Message type not implemented by this subset.
    UnsupportedType(u8),
    /// The requested table does not exist.
    BadTable(u8),
    /// Flow-mod rejected: overlap check failed.
    Overlap,
    /// Group-mod rejected (unknown group, loop, ...).
    BadGroup(&'static str),
    /// Meter-mod rejected.
    BadMeter(&'static str),
    /// Match rejected (failed prerequisite or bad value).
    BadMatch(&'static str),
    /// The table is full.
    TableFull,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated message"),
            Error::Malformed(m) => write!(f, "malformed: {m}"),
            Error::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            Error::UnsupportedType(t) => write!(f, "unsupported message type {t}"),
            Error::BadTable(t) => write!(f, "no such table {t}"),
            Error::Overlap => write!(f, "overlapping flow entry"),
            Error::BadGroup(m) => write!(f, "bad group: {m}"),
            Error::BadMeter(m) => write!(f, "bad meter: {m}"),
            Error::BadMatch(m) => write!(f, "bad match: {m}"),
            Error::TableFull => write!(f, "flow table full"),
        }
    }
}

impl std::error::Error for Error {}

impl From<netpkt::Error> for Error {
    /// A read past the end of a cursor, the only way `netpkt`'s reads
    /// fail.
    fn from(e: netpkt::Error) -> Self {
        match e {
            netpkt::Error::Truncated => Error::Truncated,
            netpkt::Error::Malformed | netpkt::Error::Checksum => Error::Malformed("frame"),
        }
    }
}

/// Codec result alias.
pub type Result<T> = core::result::Result<T, Error>;
