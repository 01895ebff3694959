//! OpenFlow 1.3 message codec.
//!
//! Every message is encoded byte-exactly per the 1.3 wire spec (header:
//! version, type, length, xid). [`Message::encode`] produces a framed
//! message and [`Message::encode_into`] appends one to a send buffer;
//! [`Message::decode`] consumes one from the front of a buffer. The
//! control channel's byte stream, which may split a message or carry
//! several, is reassembled by [`crate::Session`].
//!
//! Each body is stated once, as an ordered field list: the table of
//! [`Message`]'s bodies below, the multipart kinds' and the entries
//! they carry. The encoder writes a list's items in order and the
//! decoder reads them in the same order, each field through its type's
//! one codec (how is in the crate's `wire` module). What is not layout
//! is one check beside the walk: the version, an unknown message or
//! multipart type, a bucket or a flow-stats entry shorter than its
//! header, the meter band's type and length.
//!
//! A sender writes a flow-mod or a packet-out from borrowed parts
//! ([`FlowModParts`], [`PacketOutParts`]): the match's fields and the
//! action lists may sit on its stack. Those parts are the one writer
//! of each body: [`Message::FlowMod`] and [`Message::PacketOut`] are
//! written through them, so the bytes are the same whichever way the
//! sender holds the message.
//!
//! A switch applies a flow-mod where its frame holds it:
//! [`Message::decode_ref`] reads a `FLOW_MOD` as a [`FlowModRef`] that
//! borrows the match and the instructions, checked as it is built.
//! [`Message::decode`] builds the owned [`FlowMod`] in one walk through
//! the same readers, collecting what the view checks, so both fail at
//! the same byte with the same error.

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

use netpkt::flowkey::FieldMask;
use netpkt::FlowKey;

use crate::action::Action;
use crate::group::{Bucket, GroupModCommand, GroupType};
use crate::instruction::{ActionList, Insn, Instruction, Program, WireInstructions};
use crate::meter::{MeterBand, MeterModCommand};
use crate::oxm::{self, Match, OxmField, WireMatch};
use crate::table::FlowModCommand;
use crate::wire::{self, layout, wire_enum, wire_union, Cursor, ListItem, Str, Wire};
use crate::{Error, Result, NO_BUFFER, OFP_VERSION};

use msg_type::*;

/// Transaction id carried in every message header.
pub type Xid = u32;

/// Message type bytes (OF 1.3 `ofp_type`).
#[allow(missing_docs)]
pub mod msg_type {
    pub const HELLO: u8 = 0;
    pub const ERROR: u8 = 1;
    pub const ECHO_REQUEST: u8 = 2;
    pub const ECHO_REPLY: u8 = 3;
    pub const FEATURES_REQUEST: u8 = 5;
    pub const FEATURES_REPLY: u8 = 6;
    pub const GET_CONFIG_REQUEST: u8 = 7;
    pub const GET_CONFIG_REPLY: u8 = 8;
    pub const SET_CONFIG: u8 = 9;
    pub const PACKET_IN: u8 = 10;
    pub const FLOW_REMOVED: u8 = 11;
    pub const PORT_STATUS: u8 = 12;
    pub const PACKET_OUT: u8 = 13;
    pub const FLOW_MOD: u8 = 14;
    pub const GROUP_MOD: u8 = 15;
    pub const MULTIPART_REQUEST: u8 = 18;
    pub const MULTIPART_REPLY: u8 = 19;
    pub const BARRIER_REQUEST: u8 = 20;
    pub const BARRIER_REPLY: u8 = 21;
    pub const ROLE_REQUEST: u8 = 24;
    pub const ROLE_REPLY: u8 = 25;
    pub const METER_MOD: u8 = 29;
}

wire_enum! {
    /// Why a packet was punted to the controller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PacketInReason: u8 {
        /// Table-miss flow entry.
        NoMatch = 0,
        /// An explicit output-to-controller action.
        Action = 1,
        /// TTL exceeded.
        InvalidTtl = 2,
    } else Error::Malformed("bad packet-in reason")
}

wire_enum! {
    /// `ofp_controller_role` (OF 1.3 §7.3.9): what a controller connection
    /// is allowed to do. A `Master` receives asynchronous messages and may
    /// modify state; a `Slave` is read-only standby; `Equal` is full access
    /// without exclusivity; `NoChange` queries the current role.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ControllerRole: u32 {
        /// Don't change the role; report the current one.
        NoChange = 0,
        /// Full access, no exclusivity.
        Equal = 1,
        /// Full access; demotes the previous master to slave.
        Master = 2,
        /// Read-only standby: no async messages, no mutations.
        Slave = 3,
    } else Error::Malformed("bad controller role")
}

/// `ofp_port`: description of one switch port (64 bytes on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDesc {
    /// Port number.
    pub port_no: u32,
    /// MAC address of the port.
    pub hw_addr: netpkt::MacAddr,
    /// Human-readable name (≤ 15 bytes kept).
    pub name: String,
    /// `ofp_port_config` bits.
    pub config: u32,
    /// `ofp_port_state` bits.
    pub state: u32,
    /// Current speed in kb/s.
    pub curr_speed: u32,
    /// Maximum speed in kb/s.
    pub max_speed: u32,
}

// The 16 bytes after `state` are the curr/advertised/supported/peer
// feature bits, which this subset leaves zero.
layout! { PortDesc {
    port_no: u32, pad 4, hw_addr: netpkt::MacAddr, pad 2, name: Str<16>, config: u32, state: u32,
    pad 16, curr_speed: u32, max_speed: u32,
} }

impl ListItem for PortDesc {
    const MIN_LEN: usize = 64;
}

/// The `FLOW_MOD` payload: its fixed fields, its match, its
/// instructions.
#[derive(Clone, PartialEq)]
pub struct FlowMod {
    /// The fixed fields.
    pub header: FlowModHeader,
    /// The match.
    pub match_: Match,
    /// The instruction list.
    pub instructions: Vec<Instruction>,
}

/// Written through its [`FlowModParts`], read in the same order.
impl Wire<'_> for FlowMod {
    #[inline]
    fn put(fm: &FlowMod, out: &mut BytesMut) {
        fm.parts().put(out);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<FlowMod> {
        Ok(FlowMod {
            header: FlowModHeader::get(buf)?,
            match_: Match::get(buf)?,
            instructions: <Vec<Instruction>>::get(buf)?,
        })
    }
}

/// Prints its fields in wire order as one flat struct: a flow-mod reads
/// by its wire fields in logs and in the decoder's verdict digest, not
/// by how they are grouped.
impl fmt::Debug for FlowMod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = &self.header;
        f.debug_struct("FlowMod")
            .field("cookie", &h.cookie)
            .field("cookie_mask", &h.cookie_mask)
            .field("table_id", &h.table_id)
            .field("command", &h.command)
            .field("idle_timeout", &h.idle_timeout)
            .field("hard_timeout", &h.hard_timeout)
            .field("priority", &h.priority)
            .field("buffer_id", &h.buffer_id)
            .field("out_port", &h.out_port)
            .field("out_group", &h.out_group)
            .field("flags", &h.flags)
            .field("match_", &self.match_)
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl FlowMod {
    /// Start an `ADD` flow-mod for `table_id` (builder style).
    pub fn add(table_id: u8) -> FlowMod {
        FlowMod {
            header: FlowModHeader::add(table_id),
            match_: Match::any(),
            instructions: Vec::new(),
        }
    }

    /// The flow-mod as the parts it is written from.
    pub fn parts(&self) -> FlowModParts<'_, Vec<Action>> {
        FlowModParts {
            header: self.header,
            match_: self.match_.fields(),
            instructions: &self.instructions,
        }
    }

    /// Start a non-strict `DELETE` for `table_id`.
    pub fn delete(table_id: u8) -> FlowMod {
        FlowMod::add(table_id).command(FlowModCommand::Delete)
    }

    /// Builder: command.
    pub fn command(mut self, c: FlowModCommand) -> Self {
        self.header.command = c;
        self
    }

    /// Builder: priority.
    pub fn priority(mut self, p: u16) -> Self {
        self.header.priority = p;
        self
    }

    /// Builder: match.
    pub fn match_(mut self, m: Match) -> Self {
        self.match_ = m;
        self
    }

    /// Builder: apply-actions instruction.
    pub fn apply(mut self, actions: Vec<Action>) -> Self {
        self.instructions.push(Instruction::ApplyActions(actions));
        self
    }

    /// Builder: goto-table instruction.
    pub fn goto(mut self, table: u8) -> Self {
        self.instructions.push(Instruction::GotoTable(table));
        self
    }

    /// Builder: raw instructions.
    pub fn instructions(mut self, insns: Vec<Instruction>) -> Self {
        self.instructions = insns;
        self
    }

    /// Builder: timeouts.
    pub fn timeouts(mut self, idle: u16, hard: u16) -> Self {
        self.header.idle_timeout = idle;
        self.header.hard_timeout = hard;
        self
    }

    /// Builder: cookie.
    pub fn cookie(mut self, c: u64) -> Self {
        self.header.cookie = c;
        self
    }

    /// Builder: flags.
    pub fn flags(mut self, f: u16) -> Self {
        self.header.flags = f;
        self
    }
}

/// The fixed fields of a `FLOW_MOD`: everything in front of its match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowModHeader {
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Cookie mask for modify/delete filtering.
    pub cookie_mask: u64,
    /// Target table.
    pub table_id: u8,
    /// Add/modify/delete.
    pub command: FlowModCommand,
    /// Idle timeout, seconds.
    pub idle_timeout: u16,
    /// Hard timeout, seconds.
    pub hard_timeout: u16,
    /// Priority.
    pub priority: u16,
    /// Buffered packet to release, or [`NO_BUFFER`].
    pub buffer_id: u32,
    /// Delete filter: output port.
    pub out_port: u32,
    /// Delete filter: output group.
    pub out_group: u32,
    /// `flow_flags` bits.
    pub flags: u16,
}

layout! { FlowModHeader {
    cookie: u64, cookie_mask: u64, table_id: u8, command: FlowModCommand, idle_timeout: u16,
    hard_timeout: u16, priority: u16, buffer_id: u32, out_port: u32, out_group: u32, flags: u16,
    pad 2,
} }

impl FlowModHeader {
    /// The fixed fields of an `ADD` for `table_id`: no cookie, timeouts,
    /// priority, buffer, filters or flags. Set others with struct update
    /// syntax (`FlowModHeader { priority: 20, ..FlowModHeader::add(0) }`).
    pub fn add(table_id: u8) -> FlowModHeader {
        FlowModHeader {
            cookie: 0,
            cookie_mask: 0,
            table_id,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0,
            buffer_id: NO_BUFFER,
            out_port: crate::port_no::ANY,
            out_group: crate::group_no::ANY,
            flags: 0,
        }
    }
}

/// A `FLOW_MOD` over borrowed parts: the fixed fields, the match's
/// fields and the instructions, each holding its actions as `A`
/// ([`ActionList`]). It is the one writer of a flow-mod's body:
/// [`Message::FlowMod`] is written through [`FlowMod::parts`], and a
/// sender that builds a rule on its stack (`&[Insn<&[Action]>]`)
/// writes the same bytes without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FlowModParts<'a, A = &'a [Action]> {
    /// The fixed fields.
    pub header: FlowModHeader,
    /// The match's fields, in order.
    pub match_: &'a [OxmField],
    /// The instruction list.
    pub instructions: &'a [Insn<A>],
}

impl<A: ActionList> FlowModParts<'_, A> {
    /// Append the flow-mod, with full header, to `out` under `xid`: the
    /// bytes [`Message::encode_into`] writes for the owned flow-mod of
    /// these parts.
    pub fn encode_into(&self, out: &mut BytesMut, xid: Xid) {
        put_message(out, FLOW_MOD, xid, |out| self.put(out));
    }

    #[inline]
    fn put(&self, out: &mut BytesMut) {
        FlowModHeader::put(&self.header, out);
        oxm::put_match(self.match_, out);
        self.instructions.iter().for_each(|insn| insn.put_tlv(out));
    }
}

/// A received `FLOW_MOD`, read where its frame holds it: the fixed
/// fields, and the match and instructions as checked wire bytes. Every
/// byte was checked when the view was built, failing exactly where the
/// owned decode fails, so nothing read from it later can fail; a switch
/// turns it into a rule's key, mask, match and [`Program`] with no
/// decoded list in between.
#[derive(Debug, Clone, Copy)]
pub struct FlowModRef<'a> {
    /// The fixed fields.
    pub header: FlowModHeader,
    /// The match.
    pub match_: WireMatch<'a>,
    /// The instruction list.
    pub instructions: WireInstructions<'a>,
}

impl<'a> FlowModRef<'a> {
    /// Read a flow-mod's body, which fills `body`: [`FlowMod`]'s layout,
    /// its match and instructions checked but left in place.
    fn decode(body: &mut &'a [u8]) -> Result<FlowModRef<'a>> {
        Ok(FlowModRef {
            header: FlowModHeader::get(body)?,
            match_: WireMatch::parse(body)?,
            instructions: WireInstructions::parse(std::mem::take(body))?,
        })
    }

    /// The owned flow-mod: what [`Message::decode`] returns for it.
    pub fn to_owned(self) -> FlowMod {
        FlowMod {
            header: self.header,
            match_: self.match_.to_owned(),
            instructions: self.instructions.to_vec(),
        }
    }
}

/// What a switch reads of a flow-mod to apply it. The owned [`FlowMod`]
/// and the view [`FlowModRef`] both provide it, so one routine applies
/// either.
pub trait FlowModSource {
    /// The fixed fields.
    fn header(&self) -> FlowModHeader;
    /// The match read once: checked ([`Match::validate`]'s verdict is
    /// the error), its lookup key and mask ([`Match::to_key_mask`]),
    /// and if `keep` is set, the match a rule keeps, its fields in one
    /// exact-size block. Without `keep` nothing is allocated.
    fn checked_match(&self, keep: bool) -> Result<(FlowKey, FieldMask, Option<Match>)>;
    /// The instructions as a rule keeps them.
    fn to_program(&self) -> Program;
}

impl FlowModSource for FlowMod {
    fn header(&self) -> FlowModHeader {
        self.header
    }

    #[inline]
    fn checked_match(&self, keep: bool) -> Result<(FlowKey, FieldMask, Option<Match>)> {
        let (verdict, key, mask) = oxm::fold(self.match_.fields().iter().copied());
        verdict?;
        Ok((key, mask, keep.then(|| self.match_.clone())))
    }

    fn to_program(&self) -> Program {
        Program::new(&self.instructions)
    }
}

impl FlowModSource for FlowModRef<'_> {
    fn header(&self) -> FlowModHeader {
        self.header
    }

    #[inline]
    fn checked_match(&self, keep: bool) -> Result<(FlowKey, FieldMask, Option<Match>)> {
        self.match_.checked(keep)
    }

    fn to_program(&self) -> Program {
        Program::from_wire(&self.instructions)
    }
}

/// Multipart request bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum MultipartReq {
    /// Switch description.
    Desc,
    /// Per-flow statistics.
    Flow {
        /// Table to read, or `0xff` for all.
        table_id: u8,
        /// Output-port filter.
        out_port: u32,
        /// Output-group filter.
        out_group: u32,
        /// Cookie filter.
        cookie: u64,
        /// Cookie mask (0 = no filtering).
        cookie_mask: u64,
        /// Match filter.
        match_: Match,
    },
    /// Aggregate statistics (same filter shape as `Flow`).
    Aggregate {
        /// Table to read, or `0xff` for all.
        table_id: u8,
        /// Output-port filter.
        out_port: u32,
        /// Output-group filter.
        out_group: u32,
        /// Cookie filter.
        cookie: u64,
        /// Cookie mask.
        cookie_mask: u64,
        /// Match filter.
        match_: Match,
    },
    /// Per-table lookup/match counters.
    Table,
    /// Per-port counters.
    PortStats {
        /// Port, or `port_no::ANY` for all.
        port_no: u32,
    },
    /// Port descriptions.
    PortDesc,
}

wire_union! {
    impl<'a> MultipartReq, kind: u16, unknown _ => Error::Malformed("unsupported multipart type");
    mp_type::DESC => Desc,
    mp_type::FLOW => Flow {
        table_id: u8, pad 3, out_port: u32, out_group: u32, pad 4, cookie: u64, cookie_mask: u64,
        match_: Match,
    },
    mp_type::AGGREGATE => Aggregate {
        table_id: u8, pad 3, out_port: u32, out_group: u32, pad 4, cookie: u64, cookie_mask: u64,
        match_: Match,
    },
    mp_type::TABLE => Table,
    mp_type::PORT_STATS => PortStats { port_no: u32, pad 4 },
    mp_type::PORT_DESC => PortDesc,
}

/// One flow entry in a `Flow` multipart reply.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStatsEntry {
    /// Table the entry lives in.
    pub table_id: u8,
    /// Seconds alive.
    pub duration_sec: u32,
    /// Priority.
    pub priority: u16,
    /// Idle timeout.
    pub idle_timeout: u16,
    /// Hard timeout.
    pub hard_timeout: u16,
    /// Flags.
    pub flags: u16,
    /// Cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The match.
    pub match_: Match,
    /// The instructions.
    pub instructions: Vec<Instruction>,
}

// The length counts itself; the 4 bytes after `duration_sec` are its
// nanoseconds.
layout! { FlowStatsEntry {
    table_id: u8, pad 1, duration_sec: u32, pad 4, priority: u16, idle_timeout: u16,
    hard_timeout: u16, flags: u16, pad 4, cookie: u64, packet_count: u64, byte_count: u64,
    match_: Match, instructions: Vec<Instruction>,
} sized 2, |len| len >= 48, "flow stats entry too short" }

// Its fixed part and an empty match.
impl ListItem for FlowStatsEntry {
    const MIN_LEN: usize = 48 + 8;
}

/// One table in a `Table` multipart reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStatsEntry {
    /// Table id.
    pub table_id: u8,
    /// Entries installed.
    pub active_count: u32,
    /// Lookups performed.
    pub lookup_count: u64,
    /// Lookups that matched.
    pub matched_count: u64,
}

layout! { TableStatsEntry {
    table_id: u8, pad 3, active_count: u32, lookup_count: u64, matched_count: u64,
} }

impl ListItem for TableStatsEntry {
    const MIN_LEN: usize = 24;
}

/// One port in a `PortStats` multipart reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStatsEntry {
    /// Port number.
    pub port_no: u32,
    /// Frames received.
    pub rx_packets: u64,
    /// Frames sent.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Receive drops.
    pub rx_dropped: u64,
    /// Transmit drops.
    pub tx_dropped: u64,
}

// The last 56 bytes are the error and collision counters and the
// duration, which this subset leaves zero.
layout! { PortStatsEntry {
    port_no: u32, pad 4, rx_packets: u64, tx_packets: u64, rx_bytes: u64, tx_bytes: u64,
    rx_dropped: u64, tx_dropped: u64, pad 56,
} }

impl ListItem for PortStatsEntry {
    const MIN_LEN: usize = 112;
}

/// Multipart reply bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum MultipartRes {
    /// Switch description strings.
    Desc {
        /// Manufacturer.
        mfr: String,
        /// Hardware description.
        hw: String,
        /// Software description.
        sw: String,
        /// Serial number.
        serial: String,
        /// Datapath description.
        dp: String,
    },
    /// Flow statistics.
    Flow(Vec<FlowStatsEntry>),
    /// Aggregate statistics.
    Aggregate {
        /// Total packets.
        packet_count: u64,
        /// Total bytes.
        byte_count: u64,
        /// Number of flows.
        flow_count: u32,
    },
    /// Table statistics.
    Table(Vec<TableStatsEntry>),
    /// Port statistics.
    PortStats(Vec<PortStatsEntry>),
    /// Port descriptions.
    PortDesc(Vec<PortDesc>),
}

wire_union! {
    impl<'a> MultipartRes, kind: u16, unknown _ => Error::Malformed("unsupported multipart type");
    mp_type::DESC => Desc {
        mfr: Str<256>, hw: Str<256>, sw: Str<256>, serial: Str<32>, dp: Str<256>,
    },
    mp_type::FLOW => Flow(Vec<FlowStatsEntry>),
    mp_type::AGGREGATE => Aggregate { packet_count: u64, byte_count: u64, flow_count: u32, pad 4 },
    mp_type::TABLE => Table(Vec<TableStatsEntry>),
    mp_type::PORT_STATS => PortStats(Vec<PortStatsEntry>),
    mp_type::PORT_DESC => PortDesc(Vec<PortDesc>),
}

/// A multipart body: its kind, no flags, pad, the kind's body.
macro_rules! multipart {
    ($($ty:ident),*) => {$(
        impl Wire<'_> for $ty {
            fn put(m: &$ty, out: &mut BytesMut) {
                out.put_u16(m.kind());
                out.put_bytes(0, 6);
                m.put_body(out);
            }
            fn get(buf: &mut &[u8]) -> Result<$ty> {
                let kind = buf.u16()?;
                buf.skip(6)?;
                $ty::get_body(kind, buf)
            }
        }
    )*};
}

multipart!(MultipartReq, MultipartRes);

/// Multipart type codes.
mod mp_type {
    pub const DESC: u16 = 0;
    pub const FLOW: u16 = 1;
    pub const AGGREGATE: u16 = 2;
    pub const TABLE: u16 = 3;
    pub const PORT_STATS: u16 = 4;
    pub const PORT_DESC: u16 = 13;
}

/// A decoded OpenFlow message (without the xid, which travels beside it).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Version negotiation; we only ever speak 1.3.
    Hello,
    /// Error notification.
    Error {
        /// `ofp_error_type`.
        ty: u16,
        /// Type-specific code.
        code: u16,
        /// At least 64 bytes of the offending message.
        data: Bytes,
    },
    /// Liveness probe.
    EchoRequest(Bytes),
    /// Liveness answer (echoes the data).
    EchoReply(Bytes),
    /// Ask for datapath features.
    FeaturesRequest,
    /// Datapath features.
    FeaturesReply {
        /// Datapath id (MAC + implementer bits).
        datapath_id: u64,
        /// Packet buffer count.
        n_buffers: u32,
        /// Number of pipeline tables.
        n_tables: u8,
        /// Capability bits.
        capabilities: u32,
    },
    /// Ask for switch config.
    GetConfigRequest,
    /// Switch config.
    GetConfigReply {
        /// Fragment handling flags.
        flags: u16,
        /// Bytes of each packet sent to the controller on miss.
        miss_send_len: u16,
    },
    /// Set switch config.
    SetConfig {
        /// Fragment handling flags.
        flags: u16,
        /// Miss send length.
        miss_send_len: u16,
    },
    /// Packet punted to the controller.
    PacketIn {
        /// Buffer id or [`NO_BUFFER`].
        buffer_id: u32,
        /// Original frame length.
        total_len: u16,
        /// Why it was punted.
        reason: PacketInReason,
        /// Table that punted it.
        table_id: u8,
        /// Cookie of the flow entry.
        cookie: u64,
        /// Match metadata (carries at least IN_PORT).
        match_: Match,
        /// The (possibly truncated) frame.
        data: Bytes,
    },
    /// A flow entry died.
    FlowRemoved {
        /// Cookie.
        cookie: u64,
        /// Priority.
        priority: u16,
        /// `RemovedReason` wire value.
        reason: u8,
        /// Table it lived in.
        table_id: u8,
        /// Lifetime seconds.
        duration_sec: u32,
        /// Idle timeout.
        idle_timeout: u16,
        /// Hard timeout.
        hard_timeout: u16,
        /// Packets matched.
        packet_count: u64,
        /// Bytes matched.
        byte_count: u64,
        /// The match.
        match_: Match,
    },
    /// A port appeared/disappeared/changed.
    PortStatus {
        /// 0 = add, 1 = delete, 2 = modify.
        reason: u8,
        /// The port.
        desc: PortDesc,
    },
    /// Controller-originated packet.
    PacketOut {
        /// Buffer to release or [`NO_BUFFER`].
        buffer_id: u32,
        /// Ingress port context (or `port_no::CONTROLLER`).
        in_port: u32,
        /// Actions to apply.
        actions: Vec<Action>,
        /// Frame data when not buffered.
        data: Bytes,
    },
    /// Flow table modification.
    FlowMod(FlowMod),
    /// Group table modification.
    GroupMod {
        /// Add/modify/delete.
        command: GroupModCommand,
        /// Group behaviour.
        type_: GroupType,
        /// Group id.
        group_id: u32,
        /// Buckets.
        buckets: Vec<Bucket>,
    },
    /// Meter table modification.
    MeterMod {
        /// Add/modify/delete.
        command: MeterModCommand,
        /// Meter id.
        meter_id: u32,
        /// Rate unit is packets/s instead of kb/s.
        pktps: bool,
        /// The drop band (absent for delete).
        band: Option<MeterBand>,
    },
    /// Statistics request.
    MultipartRequest(MultipartReq),
    /// Statistics reply.
    MultipartReply(MultipartRes),
    /// Flush barrier.
    BarrierRequest,
    /// Barrier acknowledgement.
    BarrierReply,
    /// Master/slave role negotiation (controller → switch). The
    /// generation id fences stale masters: a request whose generation
    /// is behind the switch's view is refused with an error.
    RoleRequest {
        /// Requested role.
        role: ControllerRole,
        /// Monotonic master-election generation.
        generation_id: u64,
    },
    /// Role negotiation answer (switch → controller) carrying the role
    /// now in effect.
    RoleReply {
        /// Role in effect after the request.
        role: ControllerRole,
        /// The switch's current generation.
        generation_id: u64,
    },
}

// Every body, in wire order. `FeaturesReply`'s pads are its auxiliary
// id and pad, then a reserved word; `FlowRemoved`'s is its duration's
// nanoseconds.
wire_union! {
    impl<'a> Message, kind: u8, unknown ty => Error::UnsupportedType(ty);
    HELLO => Hello,
    ERROR => Error { ty: u16, code: u16, data: Bytes },
    ECHO_REQUEST => EchoRequest(Bytes),
    ECHO_REPLY => EchoReply(Bytes),
    FEATURES_REQUEST => FeaturesRequest,
    FEATURES_REPLY => FeaturesReply {
        datapath_id: u64, n_buffers: u32, n_tables: u8, pad 3, capabilities: u32, pad 4,
    },
    GET_CONFIG_REQUEST => GetConfigRequest,
    GET_CONFIG_REPLY => GetConfigReply { flags: u16, miss_send_len: u16 },
    SET_CONFIG => SetConfig { flags: u16, miss_send_len: u16 },
    PACKET_IN => PacketIn {
        buffer_id: u32, total_len: u16, reason: PacketInReason, table_id: u8, cookie: u64,
        match_: Match, pad 2, data: Bytes,
    },
    FLOW_REMOVED => FlowRemoved {
        cookie: u64, priority: u16, reason: u8, table_id: u8, duration_sec: u32, pad 4,
        idle_timeout: u16, hard_timeout: u16, packet_count: u64, byte_count: u64, match_: Match,
    },
    PORT_STATUS => PortStatus { reason: u8, pad 7, desc: PortDesc },
    PACKET_OUT => PacketOut { .. } as PacketOutBody,
    FLOW_MOD => FlowMod(FlowMod),
    GROUP_MOD => GroupMod {
        command: GroupModCommand, type_: GroupType, pad 1, group_id: u32, buckets: Vec<Bucket>,
    },
    METER_MOD => MeterMod { command: MeterModCommand, pktps: MeterFlags, meter_id: u32, band: DropBand },
    MULTIPART_REQUEST => MultipartRequest(MultipartReq),
    MULTIPART_REPLY => MultipartReply(MultipartRes),
    BARRIER_REQUEST => BarrierRequest,
    BARRIER_REPLY => BarrierReply,
    ROLE_REQUEST => RoleRequest { role: ControllerRole, pad 4, generation_id: u64 },
    ROLE_REPLY => RoleReply { role: ControllerRole, pad 4, generation_id: u64 },
}

/// A `PACKET_OUT` over borrowed parts: the one writer of a
/// packet-out's body, which [`Message::PacketOut`] is written through,
/// and what a controller sends with its actions on its stack.
#[derive(Debug, Clone, Copy)]
pub struct PacketOutParts<'a> {
    /// Buffer to release or [`NO_BUFFER`].
    pub buffer_id: u32,
    /// Ingress port context (or `port_no::CONTROLLER`).
    pub in_port: u32,
    /// Actions to apply.
    pub actions: &'a [Action],
    /// Frame data when not buffered.
    pub data: &'a [u8],
}

impl PacketOutParts<'_> {
    /// Append the packet-out, with full header, to `out` under `xid`:
    /// the bytes [`Message::encode_into`] writes for the owned
    /// packet-out of these parts.
    pub fn encode_into(&self, out: &mut BytesMut, xid: Xid) {
        put_message(out, PACKET_OUT, xid, |out| self.put(out));
    }

    /// The buffer id, the ingress port, the actions behind their length
    /// and six zero bytes, the data.
    fn put(&self, out: &mut BytesMut) {
        out.put_u32(self.buffer_id);
        out.put_u32(self.in_port);
        wire::put_sized(out, 0, 6, |out| {
            <&[Action] as wire::Put>::put(&self.actions, out)
        });
        out.put_slice(self.data);
    }
}

/// [`Message::PacketOut`]'s body: written through its
/// [`PacketOutParts`], read in the same order.
struct PacketOutBody;

impl Wire<'_, Message> for PacketOutBody {
    fn put(m: &Message, out: &mut BytesMut) {
        let Message::PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        } = m
        else {
            unreachable!("the message table writes only a packet-out through its body");
        };
        PacketOutParts {
            buffer_id: *buffer_id,
            in_port: *in_port,
            actions,
            data,
        }
        .put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Message> {
        Ok(Message::PacketOut {
            buffer_id: buf.u32()?,
            in_port: buf.u32()?,
            actions: <Vec<Action>>::get(&mut wire::get_sized(buf, 0, 6, |_| true, "")?)?,
            data: Bytes::get(buf)?,
        })
    }
}

/// A meter-mod's flags: the rate unit, and always a burst size.
struct MeterFlags;

impl Wire<'_, bool> for MeterFlags {
    fn put(pktps: &bool, out: &mut BytesMut) {
        // OFPMF_PKTPS or OFPMF_KBPS, and OFPMF_BURST
        out.put_u16(if *pktps { 0x2 } else { 0x1 } | 0x4);
    }
    fn get(buf: &mut &[u8]) -> Result<bool> {
        Ok(buf.u16()? & 0x2 != 0)
    }
}

/// A meter-mod's one band, a 16-byte drop band (`OFPMBT_DROP`), when
/// bytes follow its header; a delete has none.
struct DropBand;

impl Wire<'_, Option<MeterBand>> for DropBand {
    fn put(band: &Option<MeterBand>, out: &mut BytesMut) {
        if let Some(band) = band {
            wire::put_tlv(out, 1, |out| MeterBand::put(band, out));
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Option<MeterBand>> {
        if buf.is_empty() {
            return Ok(None);
        }
        let ty = buf.u16()?;
        let valid = |len| ty == 1 && len == 16;
        let mut band = wire::get_sized(buf, 4, 0, valid, "only 16-byte drop bands supported")?;
        MeterBand::get(&mut band).map(Some)
    }
}

/// A decoded message whose flow-mod, if it is one, is left where the
/// frame holds it.
#[derive(Debug)]
pub enum MessageRef<'a> {
    /// A `FLOW_MOD`, as a view of its frame.
    FlowMod(FlowModRef<'a>),
    /// Any other message, decoded.
    Owned(Message),
}

impl MessageRef<'_> {
    /// The owned message.
    pub fn into_owned(self) -> Message {
        match self {
            MessageRef::FlowMod(fm) => Message::FlowMod(fm.to_owned()),
            MessageRef::Owned(msg) => msg,
        }
    }
}

/// Bytes of the header every message starts with.
pub(crate) const HEADER_LEN: usize = 8;

/// The frame length the header at the front of `buf` gives, once its
/// length field has arrived.
pub(crate) fn frame_len(mut buf: &[u8]) -> Option<usize> {
    buf.skip(2).ok()?;
    buf.u16().ok().map(usize::from)
}

/// The length of the frame at the front of `buf`, once all of it has
/// arrived: [`Error::Truncated`] until then, and [`Error::Malformed`]
/// for a header whose length cannot hold the header itself.
pub(crate) fn whole_frame_len(buf: &[u8]) -> Result<usize> {
    let mut rest = buf;
    rest.skip(HEADER_LEN)?;
    let len = frame_len(buf).ok_or(Error::Truncated)?;
    if len < HEADER_LEN {
        return Err(Error::Malformed("header length below 8"));
    }
    rest.skip(len - HEADER_LEN)?;
    Ok(len)
}

/// The frame at the front of `buf`, once all of it has arrived: its
/// xid, its type, its body and its length.
fn open(buf: &[u8]) -> Result<(Xid, u8, &[u8], usize)> {
    let len = whole_frame_len(buf)?;
    let mut body = buf.get(..len).ok_or(Error::Truncated)?;
    let version = body.u8()?;
    let ty = body.u8()?;
    body.skip(2)?;
    let xid = body.u32()?;
    if version != OFP_VERSION && ty != HELLO {
        return Err(Error::BadVersion(version));
    }
    Ok((xid, ty, body, len))
}

/// A complete frame whose body runs out inside a structure is
/// malformed: no more bytes are coming for it.
fn whole<T>(body: Result<T>) -> Result<T> {
    body.map_err(|e| match e {
        Error::Truncated => Error::Malformed("body ends inside a structure"),
        e => e,
    })
}

impl Message {
    /// Encode with full header into a buffer of its own; `xid` is the
    /// transaction id.
    pub fn encode(&self, xid: Xid) -> Bytes {
        let mut out = BytesMut::with_capacity(ENCODE_CAPACITY);
        self.encode_into(&mut out, xid);
        out.freeze()
    }

    /// Append the message, with full header, to `out`: a send buffer
    /// that coalesces several messages into one channel write.
    pub fn encode_into(&self, out: &mut BytesMut, xid: Xid) {
        put_message(out, self.kind(), xid, |out| self.put_body(out));
    }

    /// Decode a single framed message from the front of `buf`. Returns the
    /// xid, the message and how many bytes were consumed.
    ///
    /// [`Error::Truncated`] means only that the frame has not fully
    /// arrived: `buf` ends inside the header, or before the length the
    /// header gives. A complete frame whose body runs out inside one of
    /// its structures is [`Error::Malformed`].
    pub fn decode(buf: &[u8]) -> Result<(Xid, Message, usize)> {
        let (xid, ty, mut body, len) = open(buf)?;
        Ok((xid, whole(Self::get_body(ty, &mut body))?, len))
    }

    /// [`Message::decode`], but a flow-mod is left where `buf` holds it,
    /// as a [`FlowModRef`].
    pub fn decode_ref(buf: &[u8]) -> Result<(Xid, MessageRef<'_>, usize)> {
        let (xid, ty, mut body, len) = open(buf)?;
        let msg = if ty == FLOW_MOD {
            FlowModRef::decode(&mut body).map(MessageRef::FlowMod)
        } else {
            Self::get_body(ty, &mut body).map(MessageRef::Owned)
        };
        Ok((xid, whole(msg)?, len))
    }
}

/// Append one message to `out`: its header (version, `kind`, the length
/// patched in from the bytes written, `xid`), then what `body` writes.
#[inline]
fn put_message(out: &mut BytesMut, kind: u8, xid: Xid, body: impl FnOnce(&mut BytesMut)) {
    out.put_u8(OFP_VERSION);
    out.put_u8(kind);
    // The length counts the whole message.
    wire::put_sized(out, 4, 0, |out| {
        out.put_u32(xid);
        body(out);
    });
}

/// Room reserved up front in [`Message::encode`]'s buffer: most messages
/// fit, a longer one grows the buffer as it is written.
const ENCODE_CAPACITY: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::MacAddr;
    use std::net::Ipv4Addr;

    fn round_trip(m: &Message) -> Message {
        let wire = m.encode(0x1234);
        let (xid, got, used) = Message::decode(&wire).unwrap();
        assert_eq!(xid, 0x1234);
        assert_eq!(used, wire.len());
        got
    }

    fn sample_match() -> Match {
        Match::new()
            .in_port(1)
            .eth_type(0x0800)
            .ipv4_dst(Ipv4Addr::new(10, 0, 0, 9))
    }

    #[test]
    fn control_messages_round_trip() {
        for m in [
            Message::Hello,
            Message::EchoRequest(Bytes::from_static(b"ping")),
            Message::EchoReply(Bytes::from_static(b"ping")),
            Message::FeaturesRequest,
            Message::FeaturesReply {
                datapath_id: 0x00aa_bb00_0000_0001,
                n_buffers: 256,
                n_tables: 4,
                capabilities: 0x47,
            },
            Message::GetConfigRequest,
            Message::GetConfigReply {
                flags: 0,
                miss_send_len: 128,
            },
            Message::SetConfig {
                flags: 0,
                miss_send_len: 0xffff,
            },
            Message::BarrierRequest,
            Message::BarrierReply,
            Message::Error {
                ty: 5,
                code: 1,
                data: Bytes::from_static(b"bad flow mod"),
            },
            Message::RoleRequest {
                role: ControllerRole::Master,
                generation_id: 7,
            },
            Message::RoleReply {
                role: ControllerRole::Slave,
                generation_id: u64::MAX,
            },
        ] {
            assert_eq!(round_trip(&m), m);
        }
    }

    #[test]
    fn controller_role_wire_values() {
        for (role, v) in [
            (ControllerRole::NoChange, 0u32),
            (ControllerRole::Equal, 1),
            (ControllerRole::Master, 2),
            (ControllerRole::Slave, 3),
        ] {
            assert_eq!(role.value(), v);
            assert_eq!(ControllerRole::from_value(v).unwrap(), role);
        }
        assert!(ControllerRole::from_value(4).is_err());
    }

    #[test]
    fn flow_mod_round_trip() {
        let fm = FlowMod::add(0)
            .priority(100)
            .match_(sample_match())
            .apply(vec![Action::set_vlan_vid(102), Action::output(7)])
            .timeouts(30, 300)
            .cookie(0xdeadbeef)
            .flags(crate::table::flow_flags::SEND_FLOW_REM);
        assert_eq!(
            round_trip(&Message::FlowMod(fm.clone())),
            Message::FlowMod(fm)
        );
    }

    #[test]
    fn flow_mod_goto_metadata_round_trip() {
        let fm = FlowMod::add(0)
            .match_(Match::new().vlan(101))
            .instructions(vec![
                Instruction::WriteMetadata {
                    metadata: 101,
                    mask: 0xfff,
                },
                Instruction::GotoTable(1),
            ]);
        assert_eq!(
            round_trip(&Message::FlowMod(fm.clone())),
            Message::FlowMod(fm)
        );
    }

    #[test]
    fn packet_in_round_trip() {
        let m = Message::PacketIn {
            buffer_id: NO_BUFFER,
            total_len: 60,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 7,
            match_: Match::new().in_port(3),
            data: Bytes::from_static(&[0xaa; 60]),
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn packet_out_round_trip() {
        let m = Message::PacketOut {
            buffer_id: NO_BUFFER,
            in_port: crate::port_no::CONTROLLER,
            actions: vec![Action::output(crate::port_no::FLOOD)],
            data: Bytes::from_static(&[0x55; 64]),
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn flow_removed_round_trip() {
        let m = Message::FlowRemoved {
            cookie: 9,
            priority: 10,
            reason: 0,
            table_id: 1,
            duration_sec: 42,
            idle_timeout: 30,
            hard_timeout: 0,
            packet_count: 1000,
            byte_count: 64000,
            match_: sample_match(),
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn port_status_round_trip() {
        let m = Message::PortStatus {
            reason: 2,
            desc: PortDesc {
                port_no: 4,
                hw_addr: MacAddr::host(4),
                name: "eth4".into(),
                config: 0,
                state: 1,
                curr_speed: 1_000_000,
                max_speed: 10_000_000,
            },
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn group_mod_round_trip() {
        let m = Message::GroupMod {
            command: GroupModCommand::Add,
            type_: GroupType::Select,
            group_id: 1,
            buckets: vec![
                Bucket::new(vec![Action::output(1)]).with_weight(3),
                Bucket::new(vec![Action::output(2)]),
            ],
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn meter_mod_round_trip() {
        let m = Message::MeterMod {
            command: MeterModCommand::Add,
            meter_id: 5,
            pktps: false,
            band: Some(MeterBand {
                rate: 10_000,
                burst: 100,
            }),
        };
        assert_eq!(round_trip(&m), m);
        let del = Message::MeterMod {
            command: MeterModCommand::Delete,
            meter_id: 5,
            pktps: false,
            band: None,
        };
        assert_eq!(round_trip(&del), del);
    }

    #[test]
    fn multipart_round_trips() {
        let reqs = vec![
            MultipartReq::Desc,
            MultipartReq::Flow {
                table_id: 0xff,
                out_port: crate::port_no::ANY,
                out_group: crate::group_no::ANY,
                cookie: 0,
                cookie_mask: 0,
                match_: Match::any(),
            },
            MultipartReq::Aggregate {
                table_id: 0,
                out_port: crate::port_no::ANY,
                out_group: crate::group_no::ANY,
                cookie: 1,
                cookie_mask: u64::MAX,
                match_: sample_match(),
            },
            MultipartReq::Table,
            MultipartReq::PortStats {
                port_no: crate::port_no::ANY,
            },
            MultipartReq::PortDesc,
        ];
        for r in reqs {
            let m = Message::MultipartRequest(r);
            assert_eq!(round_trip(&m), m);
        }

        let resps = vec![
            MultipartRes::Desc {
                mfr: "harmless".into(),
                hw: "sim".into(),
                sw: "0.1".into(),
                serial: "42".into(),
                dp: "ss2".into(),
            },
            MultipartRes::Flow(vec![FlowStatsEntry {
                table_id: 0,
                duration_sec: 10,
                priority: 5,
                idle_timeout: 0,
                hard_timeout: 0,
                flags: 0,
                cookie: 3,
                packet_count: 100,
                byte_count: 6400,
                match_: sample_match(),
                instructions: Instruction::apply(vec![Action::output(2)]),
            }]),
            MultipartRes::Aggregate {
                packet_count: 5,
                byte_count: 300,
                flow_count: 2,
            },
            MultipartRes::Table(vec![TableStatsEntry {
                table_id: 0,
                active_count: 3,
                lookup_count: 100,
                matched_count: 90,
            }]),
            MultipartRes::PortStats(vec![PortStatsEntry {
                port_no: 1,
                rx_packets: 10,
                tx_packets: 20,
                rx_bytes: 600,
                tx_bytes: 1200,
                rx_dropped: 0,
                tx_dropped: 1,
            }]),
            MultipartRes::PortDesc(vec![PortDesc {
                port_no: 1,
                hw_addr: MacAddr::host(1),
                name: "p1".into(),
                config: 0,
                state: 0,
                curr_speed: 1_000_000,
                max_speed: 1_000_000,
            }]),
        ];
        for r in resps {
            let m = Message::MultipartReply(r);
            assert_eq!(round_trip(&m), m);
        }
    }

    #[test]
    fn rejects_wrong_version_except_hello() {
        let mut wire = BytesMut::from(&Message::BarrierRequest.encode(1)[..]);
        wire[0] = 0x01;
        assert_eq!(Message::decode(&wire).unwrap_err(), Error::BadVersion(1));
        let mut hello = BytesMut::from(&Message::Hello.encode(1)[..]);
        hello[0] = 0x05; // a 1.4 hello is tolerated during negotiation
        assert!(Message::decode(&hello).is_ok());
    }

    #[test]
    fn rejects_garbage_header() {
        assert_eq!(Message::decode(&[1, 2, 3]).unwrap_err(), Error::Truncated);
        // length field below 8
        let bad = [OFP_VERSION, 0, 0, 4, 0, 0, 0, 0];
        assert!(matches!(
            Message::decode(&bad).unwrap_err(),
            Error::Malformed(_)
        ));
    }

    /// A flow-stats entry whose length covers its fixed part but not its
    /// match used to underflow `elen - 48 - consumed_match` (a debug
    /// panic, a wrapped length in release). The entry is decoded from
    /// its own length-bounded cursor now: the match runs out inside it.
    #[test]
    fn flow_stats_entry_shorter_than_its_match_is_malformed() {
        let entry = FlowStatsEntry {
            table_id: 0,
            duration_sec: 1,
            priority: 5,
            idle_timeout: 0,
            hard_timeout: 0,
            flags: 0,
            cookie: 3,
            packet_count: 1,
            byte_count: 64,
            match_: sample_match(),
            instructions: Instruction::apply(vec![Action::output(2)]),
        };
        let wire = Message::MultipartReply(MultipartRes::Flow(vec![entry])).encode(1);
        for elen in 48u16..56 {
            let mut bad = BytesMut::from(&wire[..]);
            bad[16..18].copy_from_slice(&elen.to_be_bytes());
            assert!(
                matches!(Message::decode(&bad), Err(Error::Malformed(_))),
                "entry length {elen}"
            );
        }
    }

    #[test]
    fn unknown_type_is_reported() {
        let mut wire = BytesMut::new();
        wire.put_u8(OFP_VERSION);
        wire.put_u8(77);
        wire.put_u16(8);
        wire.put_u32(0);
        assert_eq!(
            Message::decode(&wire).unwrap_err(),
            Error::UnsupportedType(77)
        );
    }
}
