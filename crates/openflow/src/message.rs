//! OpenFlow 1.3 message codec.
//!
//! Every message is encoded byte-exactly per the 1.3 wire spec (header:
//! version, type, length, xid). [`Message::encode`] produces a framed
//! message and [`Message::encode_into`] appends one to a send buffer;
//! [`Message::decode`] consumes one from the front of a buffer. The
//! control channel's byte stream, which may split a message or carry
//! several, is reassembled by [`crate::Session`].
//!
//! A flow-mod has one parser, and its product is a view:
//! [`Message::decode_ref`] reads a `FLOW_MOD` as a [`FlowModRef`] that
//! borrows the match and the instructions where the frame holds them,
//! checked as it is built. A switch applies the view; the owned
//! [`FlowMod`] that [`Message::decode`] returns is the view's
//! [`FlowModRef::to_owned`].

use bytes::{BufMut, Bytes, BytesMut};

use netpkt::flowkey::FieldMask;
use netpkt::FlowKey;

use crate::action::Action;
use crate::group::{Bucket, GroupModCommand, GroupType};
use crate::instruction::{Instruction, Program, WireInstructions};
use crate::meter::{MeterBand, MeterModCommand};
use crate::oxm::{Match, WireMatch};
use crate::table::FlowModCommand;
use crate::wire::{self, Cursor};
use crate::{Error, Result, NO_BUFFER, OFP_VERSION};

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

/// Why a packet was punted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketInReason {
    /// Table-miss flow entry.
    NoMatch,
    /// An explicit output-to-controller action.
    Action,
    /// TTL exceeded.
    InvalidTtl,
}

impl PacketInReason {
    /// Wire value.
    pub fn value(&self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
            PacketInReason::InvalidTtl => 2,
        }
    }

    /// From wire value.
    pub fn from_value(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PacketInReason::NoMatch,
            1 => PacketInReason::Action,
            2 => PacketInReason::InvalidTtl,
            _ => return Err(Error::Malformed("bad packet-in reason")),
        })
    }
}

/// `ofp_controller_role` (OF 1.3 §7.3.9): what a controller connection
/// is allowed to do. A `Master` receives asynchronous messages and may
/// modify state; a `Slave` is read-only standby; `Equal` is full access
/// without exclusivity; `NoChange` queries the current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerRole {
    /// Don't change the role; report the current one.
    NoChange,
    /// Full access, no exclusivity.
    Equal,
    /// Full access; demotes the previous master to slave.
    Master,
    /// Read-only standby: no async messages, no mutations.
    Slave,
}

impl ControllerRole {
    /// Wire value.
    pub fn value(&self) -> u32 {
        match self {
            ControllerRole::NoChange => 0,
            ControllerRole::Equal => 1,
            ControllerRole::Master => 2,
            ControllerRole::Slave => 3,
        }
    }

    /// From wire value.
    pub fn from_value(v: u32) -> Result<Self> {
        Ok(match v {
            0 => ControllerRole::NoChange,
            1 => ControllerRole::Equal,
            2 => ControllerRole::Master,
            3 => ControllerRole::Slave,
            _ => return Err(Error::Malformed("bad controller role")),
        })
    }
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

impl PortDesc {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u32(self.port_no);
        out.put_bytes(0, 4);
        out.put_slice(&self.hw_addr.octets());
        out.put_bytes(0, 2);
        put_str(out, &self.name, 16);
        out.put_u32(self.config);
        out.put_u32(self.state);
        out.put_bytes(0, 16); // curr/advertised/supported/peer features
        out.put_u32(self.curr_speed);
        out.put_u32(self.max_speed);
    }

    fn decode(buf: &mut &[u8]) -> Result<PortDesc> {
        let port_no = buf.u32()?;
        buf.skip(4)?;
        let hw_addr = netpkt::MacAddr(buf.array()?);
        buf.skip(2)?;
        let name = get_str(buf, 16)?;
        let config = buf.u32()?;
        let state = buf.u32()?;
        buf.skip(16)?;
        Ok(PortDesc {
            port_no,
            hw_addr,
            name,
            config,
            state,
            curr_speed: buf.u32()?,
            max_speed: buf.u32()?,
        })
    }
}

/// A NUL-padded string field `width` bytes wide, keeping at most
/// `width - 1` bytes of `s`.
fn put_str(out: &mut BytesMut, s: &str, width: usize) {
    let kept = s.len().min(width - 1);
    out.extend(s.bytes().take(kept));
    out.put_bytes(0, width - kept);
}

/// The string in a NUL-padded field `width` bytes wide.
fn get_str(buf: &mut &[u8], width: usize) -> Result<String> {
    let field = buf.take(width)?;
    let text = field.split(|&b| b == 0).next().unwrap_or_default();
    Ok(String::from_utf8_lossy(text).into_owned())
}

/// The `FLOW_MOD` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMod {
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
    /// The match.
    pub match_: Match,
    /// The instruction list.
    pub instructions: Vec<Instruction>,
}

impl FlowMod {
    /// Start an `ADD` flow-mod for `table_id` (builder style).
    pub fn add(table_id: u8) -> FlowMod {
        FlowMod {
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
            match_: Match::any(),
            instructions: Vec::new(),
        }
    }

    /// Start a non-strict `DELETE` for `table_id`.
    pub fn delete(table_id: u8) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Delete,
            ..FlowMod::add(table_id)
        }
    }

    /// Builder: priority.
    pub fn priority(mut self, p: u16) -> Self {
        self.priority = p;
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
        self.idle_timeout = idle;
        self.hard_timeout = hard;
        self
    }

    /// Builder: cookie.
    pub fn cookie(mut self, c: u64) -> Self {
        self.cookie = c;
        self
    }

    /// Builder: flags.
    pub fn flags(mut self, f: u16) -> Self {
        self.flags = f;
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

impl FlowModHeader {
    fn encode(&self, out: &mut BytesMut) {
        out.put_u64(self.cookie);
        out.put_u64(self.cookie_mask);
        out.put_u8(self.table_id);
        out.put_u8(self.command.value());
        out.put_u16(self.idle_timeout);
        out.put_u16(self.hard_timeout);
        out.put_u16(self.priority);
        out.put_u32(self.buffer_id);
        out.put_u32(self.out_port);
        out.put_u32(self.out_group);
        out.put_u16(self.flags);
        out.put_bytes(0, 2);
    }

    fn decode(body: &mut &[u8]) -> Result<FlowModHeader> {
        let cookie = body.u64()?;
        let cookie_mask = body.u64()?;
        let table_id = body.u8()?;
        let command = FlowModCommand::from_value(body.u8()?)?;
        let header = FlowModHeader {
            cookie,
            cookie_mask,
            table_id,
            command,
            idle_timeout: body.u16()?,
            hard_timeout: body.u16()?,
            priority: body.u16()?,
            buffer_id: body.u32()?,
            out_port: body.u32()?,
            out_group: body.u32()?,
            flags: body.u16()?,
        };
        body.skip(2)?;
        Ok(header)
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
    /// Read a flow-mod's body, which fills `body`.
    fn decode(body: &mut &'a [u8]) -> Result<FlowModRef<'a>> {
        let header = FlowModHeader::decode(body)?;
        let match_ = WireMatch::parse(body)?;
        let instructions = WireInstructions::parse(std::mem::take(body))?;
        Ok(FlowModRef {
            header,
            match_,
            instructions,
        })
    }

    /// The owned flow-mod: what [`Message::decode`] returns for it.
    pub fn to_owned(self) -> FlowMod {
        let h = self.header;
        FlowMod {
            cookie: h.cookie,
            cookie_mask: h.cookie_mask,
            table_id: h.table_id,
            command: h.command,
            idle_timeout: h.idle_timeout,
            hard_timeout: h.hard_timeout,
            priority: h.priority,
            buffer_id: h.buffer_id,
            out_port: h.out_port,
            out_group: h.out_group,
            flags: h.flags,
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
    /// Check the match's prerequisites ([`Match::validate`]).
    fn validate(&self) -> Result<()>;
    /// The match's lookup key and mask ([`Match::to_key_mask`]).
    fn to_key_mask(&self) -> (FlowKey, FieldMask);
    /// The match, owned, its fields in one exact-size block.
    fn to_match(&self) -> Match;
    /// The instructions as a rule keeps them.
    fn to_program(&self) -> Program;
}

impl FlowModSource for FlowMod {
    fn header(&self) -> FlowModHeader {
        FlowModHeader {
            cookie: self.cookie,
            cookie_mask: self.cookie_mask,
            table_id: self.table_id,
            command: self.command,
            idle_timeout: self.idle_timeout,
            hard_timeout: self.hard_timeout,
            priority: self.priority,
            buffer_id: self.buffer_id,
            out_port: self.out_port,
            out_group: self.out_group,
            flags: self.flags,
        }
    }

    fn validate(&self) -> Result<()> {
        self.match_.validate()
    }

    fn to_key_mask(&self) -> (FlowKey, FieldMask) {
        self.match_.to_key_mask()
    }

    fn to_match(&self) -> Match {
        self.match_.clone()
    }

    fn to_program(&self) -> Program {
        Program::new(&self.instructions)
    }
}

impl FlowModSource for FlowModRef<'_> {
    fn header(&self) -> FlowModHeader {
        self.header
    }

    fn validate(&self) -> Result<()> {
        self.match_.validate()
    }

    fn to_key_mask(&self) -> (FlowKey, FieldMask) {
        self.match_.to_key_mask()
    }

    fn to_match(&self) -> Match {
        self.match_.to_owned()
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

impl Message {
    /// The `ofp_type` byte of this message.
    pub fn type_byte(&self) -> u8 {
        use msg_type::*;
        match self {
            Message::Hello => HELLO,
            Message::Error { .. } => ERROR,
            Message::EchoRequest(_) => ECHO_REQUEST,
            Message::EchoReply(_) => ECHO_REPLY,
            Message::FeaturesRequest => FEATURES_REQUEST,
            Message::FeaturesReply { .. } => FEATURES_REPLY,
            Message::GetConfigRequest => GET_CONFIG_REQUEST,
            Message::GetConfigReply { .. } => GET_CONFIG_REPLY,
            Message::SetConfig { .. } => SET_CONFIG,
            Message::PacketIn { .. } => PACKET_IN,
            Message::FlowRemoved { .. } => FLOW_REMOVED,
            Message::PortStatus { .. } => PORT_STATUS,
            Message::PacketOut { .. } => PACKET_OUT,
            Message::FlowMod(_) => FLOW_MOD,
            Message::GroupMod { .. } => GROUP_MOD,
            Message::MeterMod { .. } => METER_MOD,
            Message::MultipartRequest(_) => MULTIPART_REQUEST,
            Message::MultipartReply(_) => MULTIPART_REPLY,
            Message::BarrierRequest => BARRIER_REQUEST,
            Message::BarrierReply => BARRIER_REPLY,
            Message::RoleRequest { .. } => ROLE_REQUEST,
            Message::RoleReply { .. } => ROLE_REPLY,
        }
    }

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
        let start = out.len();
        out.put_u8(OFP_VERSION);
        out.put_u8(self.type_byte());
        let len = wire::reserve_u16(out);
        out.put_u32(xid);
        self.encode_body(out);
        wire::patch_u16(out, len, start);
    }

    fn encode_body(&self, out: &mut BytesMut) {
        match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::GetConfigRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::Error { ty, code, data } => {
                out.put_u16(*ty);
                out.put_u16(*code);
                out.put_slice(data);
            }
            Message::EchoRequest(d) | Message::EchoReply(d) => out.put_slice(d),
            Message::RoleRequest {
                role,
                generation_id,
            }
            | Message::RoleReply {
                role,
                generation_id,
            } => {
                out.put_u32(role.value());
                out.put_bytes(0, 4);
                out.put_u64(*generation_id);
            }
            Message::FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
                capabilities,
            } => {
                out.put_u64(*datapath_id);
                out.put_u32(*n_buffers);
                out.put_u8(*n_tables);
                out.put_u8(0); // auxiliary_id
                out.put_bytes(0, 2);
                out.put_u32(*capabilities);
                out.put_u32(0); // reserved
            }
            Message::GetConfigReply {
                flags,
                miss_send_len,
            }
            | Message::SetConfig {
                flags,
                miss_send_len,
            } => {
                out.put_u16(*flags);
                out.put_u16(*miss_send_len);
            }
            Message::PacketIn {
                buffer_id,
                total_len,
                reason,
                table_id,
                cookie,
                match_,
                data,
            } => {
                out.put_u32(*buffer_id);
                out.put_u16(*total_len);
                out.put_u8(reason.value());
                out.put_u8(*table_id);
                out.put_u64(*cookie);
                match_.encode(out);
                out.put_bytes(0, 2);
                out.put_slice(data);
            }
            Message::FlowRemoved {
                cookie,
                priority,
                reason,
                table_id,
                duration_sec,
                idle_timeout,
                hard_timeout,
                packet_count,
                byte_count,
                match_,
            } => {
                out.put_u64(*cookie);
                out.put_u16(*priority);
                out.put_u8(*reason);
                out.put_u8(*table_id);
                out.put_u32(*duration_sec);
                out.put_u32(0); // duration_nsec
                out.put_u16(*idle_timeout);
                out.put_u16(*hard_timeout);
                out.put_u64(*packet_count);
                out.put_u64(*byte_count);
                match_.encode(out);
            }
            Message::PortStatus { reason, desc } => {
                out.put_u8(*reason);
                out.put_bytes(0, 7);
                desc.encode(out);
            }
            Message::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                out.put_u32(*buffer_id);
                out.put_u32(*in_port);
                let actions_len = wire::reserve_u16(out);
                out.put_bytes(0, 6);
                let actions_start = out.len();
                Action::encode_list(actions, out);
                wire::patch_u16(out, actions_len, actions_start);
                out.put_slice(data);
            }
            Message::FlowMod(fm) => {
                fm.header().encode(out);
                fm.match_.encode(out);
                Instruction::encode_list(&fm.instructions, out);
            }
            Message::GroupMod {
                command,
                type_,
                group_id,
                buckets,
            } => {
                out.put_u16(command.value());
                out.put_u8(type_.value());
                out.put_u8(0);
                out.put_u32(*group_id);
                for b in buckets {
                    let len = wire::reserve_u16(out); // counts itself
                    out.put_u16(b.weight);
                    out.put_u32(crate::port_no::ANY); // watch_port
                    out.put_u32(crate::group_no::ANY); // watch_group
                    out.put_bytes(0, 4);
                    Action::encode_list(&b.actions, out);
                    wire::patch_u16(out, len, len);
                }
            }
            Message::MeterMod {
                command,
                meter_id,
                pktps,
                band,
            } => {
                out.put_u16(command.value());
                let mut flags = if *pktps { 0x2 } else { 0x1 };
                flags |= 0x4; // burst
                out.put_u16(flags);
                out.put_u32(*meter_id);
                if let Some(b) = band {
                    // OFPMBT_DROP
                    wire::put_tlv(out, 1, |out| {
                        out.put_u32(b.rate);
                        out.put_u32(b.burst);
                    });
                }
            }
            Message::MultipartRequest(req) => match req {
                MultipartReq::Desc => put_mp_header(out, mp_type::DESC),
                MultipartReq::Flow {
                    table_id,
                    out_port,
                    out_group,
                    cookie,
                    cookie_mask,
                    match_,
                }
                | MultipartReq::Aggregate {
                    table_id,
                    out_port,
                    out_group,
                    cookie,
                    cookie_mask,
                    match_,
                } => {
                    let flow = matches!(req, MultipartReq::Flow { .. });
                    put_mp_header(
                        out,
                        if flow {
                            mp_type::FLOW
                        } else {
                            mp_type::AGGREGATE
                        },
                    );
                    out.put_u8(*table_id);
                    out.put_bytes(0, 3);
                    out.put_u32(*out_port);
                    out.put_u32(*out_group);
                    out.put_bytes(0, 4);
                    out.put_u64(*cookie);
                    out.put_u64(*cookie_mask);
                    match_.encode(out);
                }
                MultipartReq::Table => put_mp_header(out, mp_type::TABLE),
                MultipartReq::PortStats { port_no } => {
                    put_mp_header(out, mp_type::PORT_STATS);
                    out.put_u32(*port_no);
                    out.put_bytes(0, 4);
                }
                MultipartReq::PortDesc => put_mp_header(out, mp_type::PORT_DESC),
            },
            Message::MultipartReply(res) => match res {
                MultipartRes::Desc {
                    mfr,
                    hw,
                    sw,
                    serial,
                    dp,
                } => {
                    put_mp_header(out, mp_type::DESC);
                    for (s, width) in [(mfr, 256), (hw, 256), (sw, 256), (serial, 32), (dp, 256)] {
                        put_str(out, s, width);
                    }
                }
                MultipartRes::Flow(entries) => {
                    put_mp_header(out, mp_type::FLOW);
                    for e in entries {
                        let len = wire::reserve_u16(out); // counts itself
                        out.put_u8(e.table_id);
                        out.put_u8(0);
                        out.put_u32(e.duration_sec);
                        out.put_u32(0); // duration_nsec
                        out.put_u16(e.priority);
                        out.put_u16(e.idle_timeout);
                        out.put_u16(e.hard_timeout);
                        out.put_u16(e.flags);
                        out.put_bytes(0, 4);
                        out.put_u64(e.cookie);
                        out.put_u64(e.packet_count);
                        out.put_u64(e.byte_count);
                        e.match_.encode(out);
                        Instruction::encode_list(&e.instructions, out);
                        wire::patch_u16(out, len, len);
                    }
                }
                MultipartRes::Aggregate {
                    packet_count,
                    byte_count,
                    flow_count,
                } => {
                    put_mp_header(out, mp_type::AGGREGATE);
                    out.put_u64(*packet_count);
                    out.put_u64(*byte_count);
                    out.put_u32(*flow_count);
                    out.put_bytes(0, 4);
                }
                MultipartRes::Table(entries) => {
                    put_mp_header(out, mp_type::TABLE);
                    for e in entries {
                        out.put_u8(e.table_id);
                        out.put_bytes(0, 3);
                        out.put_u32(e.active_count);
                        out.put_u64(e.lookup_count);
                        out.put_u64(e.matched_count);
                    }
                }
                MultipartRes::PortStats(entries) => {
                    put_mp_header(out, mp_type::PORT_STATS);
                    for e in entries {
                        out.put_u32(e.port_no);
                        out.put_bytes(0, 4);
                        out.put_u64(e.rx_packets);
                        out.put_u64(e.tx_packets);
                        out.put_u64(e.rx_bytes);
                        out.put_u64(e.tx_bytes);
                        out.put_u64(e.rx_dropped);
                        out.put_u64(e.tx_dropped);
                        out.put_bytes(0, 48); // errors, collisions
                        out.put_u32(0); // duration_sec
                        out.put_u32(0); // duration_nsec
                    }
                }
                MultipartRes::PortDesc(ports) => {
                    put_mp_header(out, mp_type::PORT_DESC);
                    for p in ports {
                        p.encode(out);
                    }
                }
            },
        }
    }

    /// Decode a single framed message from the front of `buf`. Returns the
    /// xid, the message and how many bytes were consumed.
    ///
    /// [`Error::Truncated`] means only that the frame has not fully
    /// arrived: `buf` ends inside the header, or before the length the
    /// header gives. A complete frame whose body runs out inside one of
    /// its structures is [`Error::Malformed`].
    pub fn decode(buf: &[u8]) -> Result<(Xid, Message, usize)> {
        let (xid, msg, len) = Self::decode_ref(buf)?;
        Ok((xid, msg.into_owned(), len))
    }

    /// [`Message::decode`], but a flow-mod is left where `buf` holds it,
    /// as a [`FlowModRef`]: the one parser of a flow-mod.
    pub fn decode_ref(buf: &[u8]) -> Result<(Xid, MessageRef<'_>, usize)> {
        let len = whole_frame_len(buf)?;
        let mut frame = buf;
        let mut body = frame.take(len)?;
        let version = body.u8()?;
        let ty = body.u8()?;
        body.skip(2)?;
        let xid = body.u32()?;
        if version != OFP_VERSION && ty != msg_type::HELLO {
            return Err(Error::BadVersion(version));
        }
        let msg = if ty == msg_type::FLOW_MOD {
            FlowModRef::decode(&mut body).map(MessageRef::FlowMod)
        } else {
            Self::decode_body(ty, &mut body).map(MessageRef::Owned)
        };
        let msg = msg.map_err(|e| match e {
            Error::Truncated => Error::Malformed("body ends inside a structure"),
            e => e,
        })?;
        Ok((xid, msg, len))
    }

    /// The body of a message of type `ty`, which fills `body`: every
    /// type but `FLOW_MOD`, which [`FlowModRef`] reads.
    fn decode_body(ty: u8, body: &mut &[u8]) -> Result<Message> {
        use msg_type::*;
        Ok(match ty {
            HELLO => Message::Hello,
            ERROR => Message::Error {
                ty: body.u16()?,
                code: body.u16()?,
                data: Bytes::copy_from_slice(body),
            },
            ECHO_REQUEST => Message::EchoRequest(Bytes::copy_from_slice(body)),
            ECHO_REPLY => Message::EchoReply(Bytes::copy_from_slice(body)),
            ROLE_REQUEST | ROLE_REPLY => {
                let role = ControllerRole::from_value(body.u32()?)?;
                body.skip(4)?;
                let generation_id = body.u64()?;
                if ty == ROLE_REQUEST {
                    Message::RoleRequest {
                        role,
                        generation_id,
                    }
                } else {
                    Message::RoleReply {
                        role,
                        generation_id,
                    }
                }
            }
            FEATURES_REQUEST => Message::FeaturesRequest,
            FEATURES_REPLY => {
                let datapath_id = body.u64()?;
                let n_buffers = body.u32()?;
                let n_tables = body.u8()?;
                body.skip(3)?; // auxiliary_id, pad
                let capabilities = body.u32()?;
                body.skip(4)?; // reserved
                Message::FeaturesReply {
                    datapath_id,
                    n_buffers,
                    n_tables,
                    capabilities,
                }
            }
            GET_CONFIG_REQUEST => Message::GetConfigRequest,
            GET_CONFIG_REPLY | SET_CONFIG => {
                let flags = body.u16()?;
                let miss_send_len = body.u16()?;
                if ty == GET_CONFIG_REPLY {
                    Message::GetConfigReply {
                        flags,
                        miss_send_len,
                    }
                } else {
                    Message::SetConfig {
                        flags,
                        miss_send_len,
                    }
                }
            }
            PACKET_IN => {
                let buffer_id = body.u32()?;
                let total_len = body.u16()?;
                let reason = PacketInReason::from_value(body.u8()?)?;
                let table_id = body.u8()?;
                let cookie = body.u64()?;
                let match_ = Match::decode(body)?;
                body.skip(2)?;
                Message::PacketIn {
                    buffer_id,
                    total_len,
                    reason,
                    table_id,
                    cookie,
                    match_,
                    data: Bytes::copy_from_slice(body),
                }
            }
            FLOW_REMOVED => {
                let cookie = body.u64()?;
                let priority = body.u16()?;
                let reason = body.u8()?;
                let table_id = body.u8()?;
                let duration_sec = body.u32()?;
                body.skip(4)?; // duration_nsec
                Message::FlowRemoved {
                    cookie,
                    priority,
                    reason,
                    table_id,
                    duration_sec,
                    idle_timeout: body.u16()?,
                    hard_timeout: body.u16()?,
                    packet_count: body.u64()?,
                    byte_count: body.u64()?,
                    match_: Match::decode(body)?,
                }
            }
            PORT_STATUS => {
                let reason = body.u8()?;
                body.skip(7)?;
                let desc = PortDesc::decode(body)?;
                Message::PortStatus { reason, desc }
            }
            PACKET_OUT => {
                let buffer_id = body.u32()?;
                let in_port = body.u32()?;
                let actions_len = usize::from(body.u16()?);
                body.skip(6)?;
                Message::PacketOut {
                    buffer_id,
                    in_port,
                    actions: Action::decode_list(body, actions_len)?,
                    data: Bytes::copy_from_slice(body),
                }
            }
            GROUP_MOD => {
                let command = GroupModCommand::from_value(body.u16()?)?;
                let type_ = GroupType::from_value(body.u8()?)?;
                body.skip(1)?;
                let group_id = body.u32()?;
                let buckets = body.items(|body| {
                    let len = usize::from(body.u16()?); // counts itself
                    if len < 16 {
                        return Err(Error::Malformed("bucket too short"));
                    }
                    let mut bucket = body.take(len - 2)?;
                    let weight = bucket.u16()?;
                    bucket.skip(12)?; // watch_port, watch_group, pad
                    let actions = bucket.items(Action::decode)?;
                    Ok(Bucket { weight, actions })
                })?;
                Message::GroupMod {
                    command,
                    type_,
                    group_id,
                    buckets,
                }
            }
            METER_MOD => {
                let command = MeterModCommand::from_value(body.u16()?)?;
                let flags = body.u16()?;
                let meter_id = body.u32()?;
                let band = if body.is_empty() {
                    None
                } else {
                    let (band_type, band_len) = (body.u16()?, body.u16()?);
                    if band_type != 1 || band_len != 16 {
                        return Err(Error::Malformed("only 16-byte drop bands supported"));
                    }
                    let band = MeterBand {
                        rate: body.u32()?,
                        burst: body.u32()?,
                    };
                    body.skip(4)?;
                    Some(band)
                };
                Message::MeterMod {
                    command,
                    meter_id,
                    pktps: flags & 0x2 != 0,
                    band,
                }
            }
            MULTIPART_REQUEST => {
                let mpty = body.u16()?;
                body.skip(6)?; // flags, pad
                Message::MultipartRequest(match mpty {
                    mp_type::DESC => MultipartReq::Desc,
                    mp_type::FLOW | mp_type::AGGREGATE => {
                        let table_id = body.u8()?;
                        body.skip(3)?;
                        let out_port = body.u32()?;
                        let out_group = body.u32()?;
                        body.skip(4)?;
                        let cookie = body.u64()?;
                        let cookie_mask = body.u64()?;
                        let match_ = Match::decode(body)?;
                        if mpty == mp_type::FLOW {
                            MultipartReq::Flow {
                                table_id,
                                out_port,
                                out_group,
                                cookie,
                                cookie_mask,
                                match_,
                            }
                        } else {
                            MultipartReq::Aggregate {
                                table_id,
                                out_port,
                                out_group,
                                cookie,
                                cookie_mask,
                                match_,
                            }
                        }
                    }
                    mp_type::TABLE => MultipartReq::Table,
                    mp_type::PORT_STATS => {
                        let port_no = body.u32()?;
                        body.skip(4)?;
                        MultipartReq::PortStats { port_no }
                    }
                    mp_type::PORT_DESC => MultipartReq::PortDesc,
                    _ => return Err(Error::Malformed("unsupported multipart type")),
                })
            }
            MULTIPART_REPLY => {
                let mpty = body.u16()?;
                body.skip(6)?; // flags, pad
                Message::MultipartReply(match mpty {
                    mp_type::DESC => MultipartRes::Desc {
                        mfr: get_str(body, 256)?,
                        hw: get_str(body, 256)?,
                        sw: get_str(body, 256)?,
                        serial: get_str(body, 32)?,
                        dp: get_str(body, 256)?,
                    },
                    mp_type::FLOW => MultipartRes::Flow(body.items(|body| {
                        let len = usize::from(body.u16()?); // counts itself
                        if len < 48 {
                            return Err(Error::Malformed("flow stats entry too short"));
                        }
                        let mut e = body.take(len - 2)?;
                        let table_id = e.u8()?;
                        e.skip(1)?;
                        let duration_sec = e.u32()?;
                        e.skip(4)?; // duration_nsec
                        let priority = e.u16()?;
                        let idle_timeout = e.u16()?;
                        let hard_timeout = e.u16()?;
                        let flags = e.u16()?;
                        e.skip(4)?;
                        Ok(FlowStatsEntry {
                            table_id,
                            duration_sec,
                            priority,
                            idle_timeout,
                            hard_timeout,
                            flags,
                            cookie: e.u64()?,
                            packet_count: e.u64()?,
                            byte_count: e.u64()?,
                            match_: Match::decode(&mut e)?,
                            instructions: e.items(Instruction::decode)?,
                        })
                    })?),
                    mp_type::AGGREGATE => {
                        let res = MultipartRes::Aggregate {
                            packet_count: body.u64()?,
                            byte_count: body.u64()?,
                            flow_count: body.u32()?,
                        };
                        body.skip(4)?;
                        res
                    }
                    mp_type::TABLE => MultipartRes::Table(body.items(|e| -> Result<_> {
                        let table_id = e.u8()?;
                        e.skip(3)?;
                        Ok(TableStatsEntry {
                            table_id,
                            active_count: e.u32()?,
                            lookup_count: e.u64()?,
                            matched_count: e.u64()?,
                        })
                    })?),
                    mp_type::PORT_STATS => {
                        MultipartRes::PortStats(body.items(|e| -> Result<_> {
                            let port_no = e.u32()?;
                            e.skip(4)?;
                            let entry = PortStatsEntry {
                                port_no,
                                rx_packets: e.u64()?,
                                tx_packets: e.u64()?,
                                rx_bytes: e.u64()?,
                                tx_bytes: e.u64()?,
                                rx_dropped: e.u64()?,
                                tx_dropped: e.u64()?,
                            };
                            e.skip(56)?; // errors, collisions, duration
                            Ok(entry)
                        })?)
                    }
                    mp_type::PORT_DESC => MultipartRes::PortDesc(body.items(PortDesc::decode)?),
                    _ => return Err(Error::Malformed("unsupported multipart type")),
                })
            }
            BARRIER_REQUEST => Message::BarrierRequest,
            BARRIER_REPLY => Message::BarrierReply,
            other => return Err(Error::UnsupportedType(other)),
        })
    }
}

/// Room reserved up front in [`Message::encode`]'s buffer: most messages
/// fit, a longer one grows the buffer as it is written.
const ENCODE_CAPACITY: usize = 128;

/// The multipart header after the message header: kind, no flags, pad.
fn put_mp_header(out: &mut BytesMut, ty: u16) {
    out.put_u16(ty);
    out.put_bytes(0, 6);
}

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
