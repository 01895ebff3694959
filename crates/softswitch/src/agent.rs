//! The switch side of the OpenFlow control channel.
//!
//! [`OfAgent`] consumes raw channel bytes (possibly containing several
//! coalesced or split messages), applies them to a [`Datapath`] and emits
//! reply frames — each message as it decodes ([`OfAgent::handle`]), or
//! decoded now and applied when the switch gets to it
//! ([`OfAgent::push`], [`OfAgent::next_message`], [`OfAgent::apply`]).
//! It is transport-agnostic; the node layer moves the bytes over the
//! simulator's control plane.

use bytes::Bytes;

use openflow::message::{
    ControllerRole, FlowStatsEntry, Message, MultipartReq, MultipartRes, PacketInReason,
    TableStatsEntry, Xid,
};
use openflow::table::{flow_flags, FlowEntry, RemovedReason};
use openflow::{Action, Error, Session, NO_BUFFER};

use crate::batch::BatchResult;
use crate::datapath::Datapath;

/// Output of one [`OfAgent::handle`] call.
#[derive(Debug, Default)]
pub struct AgentOutput {
    /// Frames to send back to the controller.
    pub replies: Vec<Bytes>,
    /// Packets released by `PACKET_OUT`: `(port, frame)` to transmit.
    pub transmits: Vec<(u32, Bytes)>,
}

/// OpenFlow agent state for one switch.
#[derive(Debug)]
pub struct OfAgent {
    /// Stream reassembly and keepalive probe tracking for the channel.
    session: Session,
    next_xid: Xid,
    hello_done: bool,
    miss_send_len: u16,
    description: String,
    role: ControllerRole,
    generation_id: Option<u64>,
    /// Arena every `PACKET_OUT` executes into; empty between messages.
    released: BatchResult,
}

impl OfAgent {
    /// A fresh agent; `description` lands in the Desc multipart reply.
    pub fn new(description: impl Into<String>) -> OfAgent {
        OfAgent {
            session: Session::default(),
            next_xid: 1,
            hello_done: false,
            miss_send_len: 0xffff,
            description: description.into(),
            role: ControllerRole::Equal,
            generation_id: None,
            released: BatchResult::default(),
        }
    }

    fn xid(&mut self) -> Xid {
        let x = self.next_xid;
        self.next_xid += 1;
        x
    }

    /// True once HELLOs crossed.
    pub fn handshaken(&self) -> bool {
        self.hello_done
    }

    /// The switch's opening HELLO.
    pub fn hello(&mut self) -> Bytes {
        let x = self.xid();
        Message::Hello.encode(x)
    }

    /// Forget the current connection: the receive buffer, the handshake and
    /// any outstanding keepalive probes. `next_xid` keeps counting so echo
    /// replies that straggle in from the torn-down connection can never be
    /// mistaken for answers to probes sent on the new one.
    pub fn reset_connection(&mut self) {
        self.session.clear_input();
        self.session.reset();
        self.hello_done = false;
    }

    /// Build a keepalive probe; its xid is tracked until the matching
    /// [`Message::EchoReply`] comes back.
    pub fn echo_probe(&mut self) -> Bytes {
        let x = self.xid();
        self.session.probe(x)
    }

    /// Keepalive probes sent but not yet answered.
    pub fn echoes_outstanding(&self) -> usize {
        self.session.outstanding()
    }

    /// True when the controller left `max_missed` probes unanswered.
    pub fn controller_dead(&self, max_missed: u32) -> bool {
        self.session.peer_dead(max_missed as usize)
    }

    /// Echo replies whose xid matched no outstanding probe (e.g. replies
    /// from before a reconnect), counted and otherwise ignored.
    pub fn stale_echo_replies(&self) -> u64 {
        self.session.stale_replies()
    }

    /// The controller role last granted via `ROLE_REQUEST`.
    pub fn controller_role(&self) -> ControllerRole {
        self.role
    }

    /// Build an asynchronous `PACKET_IN` for a punted frame.
    pub fn packet_in(&mut self, reason: PacketInReason, in_port: u32, data: &Bytes) -> Bytes {
        let keep = usize::from(self.miss_send_len).min(data.len());
        let x = self.xid();
        Message::PacketIn {
            buffer_id: NO_BUFFER,
            total_len: data.len() as u16,
            reason,
            table_id: 0,
            cookie: 0,
            match_: openflow::Match::new().in_port(in_port),
            data: data.slice(..keep),
        }
        .encode(x)
    }

    /// Build an asynchronous `FLOW_REMOVED` for an expired/deleted entry.
    pub fn flow_removed(
        &mut self,
        table_id: u8,
        entry: &FlowEntry,
        reason: RemovedReason,
        now_ns: u64,
    ) -> Bytes {
        let x = self.xid();
        Message::FlowRemoved {
            cookie: entry.cookie,
            priority: entry.priority,
            reason: reason.value(),
            table_id,
            duration_sec: ((now_ns.saturating_sub(entry.installed_ns)) / 1_000_000_000) as u32,
            idle_timeout: entry.idle_timeout,
            hard_timeout: entry.hard_timeout,
            packet_count: entry.packets,
            byte_count: entry.bytes,
            match_: entry.match_.clone(),
        }
        .encode(x)
    }

    /// Remove `dp`'s timed-out flows; returns the `FLOW_REMOVED` frames
    /// to send for the entries that asked for one (`SEND_FLOW_REM`).
    pub fn expire_flows(&mut self, dp: &mut Datapath, now_ns: u64) -> Vec<Bytes> {
        dp.expire_flows(now_ns)
            .into_iter()
            .filter(|(_, entry, _)| entry.flags & flow_flags::SEND_FLOW_REM != 0)
            .map(|(table_id, entry, reason)| self.flow_removed(table_id, &entry, reason, now_ns))
            .collect()
    }

    /// Feed controller→switch bytes; apply each message to `dp` as it
    /// decodes.
    pub fn handle(&mut self, dp: &mut Datapath, data: Bytes, now_ns: u64) -> AgentOutput {
        let mut out = AgentOutput::default();
        self.push(data);
        while let Some(next) = self.next_message() {
            match next {
                Ok((xid, msg)) => self.apply(dp, xid, msg, now_ns, &mut out),
                Err(error) => out.replies.push(error),
            }
        }
        out
    }

    /// Feed controller→switch bytes into the channel's [`Session`], for
    /// a switch that takes the messages they complete one at a time
    /// ([`OfAgent::next_message`]) and [applies](OfAgent::apply) them
    /// later (a management CPU's queue).
    pub fn push(&mut self, data: Bytes) {
        self.session.push(data);
    }

    /// The next message the pushed bytes complete, if any. `Err` is the
    /// error frame to answer an undecodable frame with; the session
    /// dropped it and everything behind it.
    pub fn next_message(&mut self) -> Option<Result<(Xid, Message), Bytes>> {
        let next = self.session.next_message()?;
        Some(next.map_err(|e| {
            let x = self.xid();
            self.error_for(&e, x)
        }))
    }

    /// Apply one message [`OfAgent::next_message`] returned to `dp`,
    /// appending what it answers and releases to `out`.
    pub fn apply(
        &mut self,
        dp: &mut Datapath,
        xid: Xid,
        msg: Message,
        now_ns: u64,
        out: &mut AgentOutput,
    ) {
        match msg {
            Message::Hello => {
                self.hello_done = true;
            }
            Message::EchoRequest(d) => out.replies.push(Message::EchoReply(d).encode(xid)),
            Message::EchoReply(_) => self.session.ack(xid),
            Message::RoleRequest {
                role,
                generation_id,
            } => {
                // Master/Slave requests are fenced by generation_id
                // (OF 1.3 §6.3.4): a request older than the newest one seen
                // is from a deposed controller and must be refused.
                let fenced = matches!(role, ControllerRole::Master | ControllerRole::Slave);
                if fenced && self.generation_id.is_some_and(|g| generation_id < g) {
                    out.replies.push(
                        Message::Error {
                            ty: 11,  // ROLE_REQUEST_FAILED
                            code: 0, // STALE
                            data: Bytes::new(),
                        }
                        .encode(xid),
                    );
                } else {
                    if fenced {
                        self.generation_id = Some(generation_id);
                    }
                    if role != ControllerRole::NoChange {
                        self.role = role;
                    }
                    out.replies.push(
                        Message::RoleReply {
                            role: self.role,
                            generation_id: self.generation_id.unwrap_or(0),
                        }
                        .encode(xid),
                    );
                }
            }
            Message::FeaturesRequest => {
                out.replies.push(
                    Message::FeaturesReply {
                        datapath_id: dp.datapath_id(),
                        n_buffers: 0,
                        n_tables: dp.n_tables(),
                        capabilities: 0x0000_0047, // FLOW_STATS|TABLE_STATS|PORT_STATS|GROUP_STATS
                    }
                    .encode(xid),
                );
            }
            Message::GetConfigRequest => {
                out.replies.push(
                    Message::GetConfigReply {
                        flags: 0,
                        miss_send_len: self.miss_send_len,
                    }
                    .encode(xid),
                );
            }
            Message::SetConfig { miss_send_len, .. } => {
                self.miss_send_len = miss_send_len;
            }
            Message::FlowMod(fm) => match dp.apply_flow_mod(&fm, now_ns) {
                Ok(removed) => {
                    for (table_id, e) in removed {
                        if e.flags & flow_flags::SEND_FLOW_REM != 0 {
                            let m = self.flow_removed(table_id, &e, RemovedReason::Delete, now_ns);
                            out.replies.push(m);
                        }
                    }
                }
                Err(e) => out.replies.push(self.error_for(&e, xid)),
            },
            Message::GroupMod {
                command,
                type_,
                group_id,
                buckets,
            } => {
                if let Err(e) = dp.apply_group_mod(command, type_, group_id, buckets) {
                    out.replies.push(self.error_for(&e, xid));
                }
            }
            Message::MeterMod {
                command,
                meter_id,
                pktps,
                band,
            } => {
                if let Err(e) = dp.apply_meter_mod(command, meter_id, pktps, band, now_ns) {
                    out.replies.push(self.error_for(&e, xid));
                }
            }
            Message::PacketOut {
                in_port,
                actions,
                data,
                ..
            } => {
                dp.packet_out(in_port, &actions, data, now_ns, &mut self.released);
                out.transmits.extend_from_slice(self.released.all_outputs());
                self.released.clear();
            }
            Message::BarrierRequest => {
                out.replies.push(Message::BarrierReply.encode(xid));
            }
            Message::MultipartRequest(req) => {
                out.replies.push(self.multipart(dp, xid, req, now_ns));
            }
            // Switch-side agents ignore controller-only messages.
            Message::FeaturesReply { .. }
            | Message::GetConfigReply { .. }
            | Message::PacketIn { .. }
            | Message::FlowRemoved { .. }
            | Message::PortStatus { .. }
            | Message::MultipartReply(_)
            | Message::BarrierReply
            | Message::RoleReply { .. }
            | Message::Error { .. } => {}
        }
    }

    fn error_for(&mut self, e: &Error, xid: Xid) -> Bytes {
        // (type, code) pairs per OF 1.3 §7.4.
        let (ty, code) = match e {
            Error::Overlap => (5, 1),            // FLOW_MOD_FAILED / OVERLAP
            Error::TableFull => (5, 2),          // FLOW_MOD_FAILED / TABLE_FULL
            Error::BadTable(_) => (5, 3),        // FLOW_MOD_FAILED / BAD_TABLE_ID
            Error::BadMatch(_) => (4, 0),        // BAD_MATCH
            Error::BadGroup(_) => (6, 0),        // GROUP_MOD_FAILED
            Error::BadMeter(_) => (12, 0),       // METER_MOD_FAILED
            Error::BadVersion(_) => (1, 0),      // BAD_REQUEST / BAD_VERSION
            Error::UnsupportedType(_) => (1, 1), // BAD_REQUEST / BAD_TYPE
            Error::Truncated | Error::Malformed(_) => (1, 6), // BAD_REQUEST / BAD_LEN
        };
        Message::Error {
            ty,
            code,
            data: Bytes::new(),
        }
        .encode(xid)
    }

    fn multipart(&mut self, dp: &mut Datapath, xid: Xid, req: MultipartReq, now_ns: u64) -> Bytes {
        let res = match req {
            MultipartReq::Desc => MultipartRes::Desc {
                mfr: "harmless-workspace".into(),
                hw: "simulated x86 + DPDK".into(),
                sw: env!("CARGO_PKG_VERSION").into(),
                serial: format!("{:016x}", dp.datapath_id()),
                dp: self.description.clone(),
            },
            MultipartReq::Flow {
                table_id,
                out_port,
                out_group,
                match_,
                ..
            } => {
                let mut entries = Vec::new();
                for t in 0..dp.n_tables() {
                    if table_id != 0xff && table_id != t {
                        continue;
                    }
                    let table = dp.table(t).unwrap();
                    for e in table.within(&match_) {
                        if e.outputs_to(out_port) && e.outputs_to_group(out_group) {
                            entries.push(FlowStatsEntry {
                                table_id: t,
                                duration_sec: ((now_ns.saturating_sub(e.installed_ns))
                                    / 1_000_000_000)
                                    as u32,
                                priority: e.priority,
                                idle_timeout: e.idle_timeout,
                                hard_timeout: e.hard_timeout,
                                flags: e.flags,
                                cookie: e.cookie,
                                packet_count: e.packets,
                                byte_count: e.bytes,
                                match_: e.match_.clone(),
                                instructions: e.instructions.to_vec(),
                            });
                        }
                    }
                }
                MultipartRes::Flow(entries)
            }
            MultipartReq::Aggregate {
                table_id,
                out_port,
                out_group,
                match_,
                ..
            } => {
                let (mut p, mut b, mut n) = (0u64, 0u64, 0u32);
                for t in 0..dp.n_tables() {
                    if table_id != 0xff && table_id != t {
                        continue;
                    }
                    for e in dp.table(t).unwrap().within(&match_) {
                        if e.outputs_to(out_port) && e.outputs_to_group(out_group) {
                            p += e.packets;
                            b += e.bytes;
                            n += 1;
                        }
                    }
                }
                MultipartRes::Aggregate {
                    packet_count: p,
                    byte_count: b,
                    flow_count: n,
                }
            }
            MultipartReq::Table => MultipartRes::Table(
                (0..dp.n_tables())
                    .map(|t| {
                        let table = dp.table(t).unwrap();
                        TableStatsEntry {
                            table_id: t,
                            active_count: table.len() as u32,
                            lookup_count: table.lookups(),
                            matched_count: table.hits(),
                        }
                    })
                    .collect(),
            ),
            MultipartReq::PortStats { port_no } => MultipartRes::PortStats(
                dp.port_stats()
                    .into_iter()
                    .filter(|s| port_no == openflow::port_no::ANY || s.port_no == port_no)
                    .collect(),
            ),
            MultipartReq::PortDesc => MultipartRes::PortDesc(dp.port_descs()),
        };
        Message::MultipartReply(res).encode(xid)
    }
}

/// Convenience used by tests: build the `PACKET_OUT` a controller would
/// send to emit `data` out of `port`.
pub fn packet_out_msg(xid: Xid, port: u32, data: Bytes) -> Bytes {
    Message::PacketOut {
        buffer_id: NO_BUFFER,
        in_port: openflow::port_no::CONTROLLER,
        actions: vec![Action::output(port)],
        data,
    }
    .encode(xid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::tests::run_one;
    use crate::datapath::{DpConfig, PipelineMode};
    use bytes::BytesMut;
    use netpkt::{builder, MacAddr};
    use openflow::message::FlowMod;
    use openflow::table::FlowModCommand;
    use openflow::Match;
    use std::net::Ipv4Addr;

    fn dp() -> Datapath {
        let mut dp = Datapath::new(DpConfig::software(0xabc).with_mode(PipelineMode::full()));
        dp.add_port(1, "p1", 1_000_000);
        dp.add_port(2, "p2", 1_000_000);
        dp
    }

    fn frame() -> Bytes {
        builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            53,
            b"x",
        )
    }

    #[test]
    fn handshake_and_features() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&Message::Hello.encode(1));
        stream.extend_from_slice(&Message::FeaturesRequest.encode(2));
        let out = agent.handle(&mut dp, stream.freeze(), 0);
        assert!(agent.handshaken());
        assert_eq!(out.replies.len(), 1);
        let (xid, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!(xid, 2);
        match msg {
            Message::FeaturesReply {
                datapath_id,
                n_tables,
                ..
            } => {
                assert_eq!(datapath_id, 0xabc);
                assert_eq!(n_tables, 4);
            }
            other => panic!("expected FeaturesReply, got {other:?}"),
        }
    }

    #[test]
    fn flow_mod_installs_and_barrier_syncs() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let fm = FlowMod::add(0)
            .priority(5)
            .match_(Match::new().eth_type(0x0800))
            .apply(vec![Action::output(2)]);
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&Message::FlowMod(fm).encode(7));
        stream.extend_from_slice(&Message::BarrierRequest.encode(8));
        let out = agent.handle(&mut dp, stream.freeze(), 0);
        assert_eq!(out.replies.len(), 1);
        let (xid, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!((xid, msg), (8, Message::BarrierReply));
        // The rule is live.
        let r = run_one(&mut dp, 1, frame(), 0);
        assert_eq!(r.outputs_of(0)[0].0, 2);
    }

    #[test]
    fn bad_flow_mod_yields_error() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let fm = FlowMod::add(99).priority(5).apply(vec![Action::output(2)]);
        let out = agent.handle(&mut dp, Message::FlowMod(fm).encode(3), 0);
        let (xid, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!(xid, 3);
        match msg {
            Message::Error { ty, code, .. } => {
                assert_eq!(ty, 5); // FLOW_MOD_FAILED
                assert_eq!(code, 3); // BAD_TABLE_ID
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    /// OFPTT_ALL (table 0xff) is valid only in a delete: an ADD or a
    /// MODIFY for it is refused with BAD_TABLE_ID, and a delete for it
    /// still clears every table.
    #[test]
    fn flow_mod_for_all_tables_outside_a_delete_is_bad_table() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let add = FlowMod::add(0xff)
            .priority(5)
            .apply(vec![Action::output(2)]);
        let modify = FlowMod {
            command: FlowModCommand::Modify,
            ..add.clone()
        };
        for (xid, fm) in [(3, add), (4, modify)] {
            let out = agent.handle(&mut dp, Message::FlowMod(fm).encode(xid), 0);
            assert_eq!(out.replies.len(), 1);
            match Message::decode(&out.replies[0]).unwrap() {
                (x, Message::Error { ty: 5, code: 3, .. }, _) => assert_eq!(x, xid),
                other => panic!("expected FLOW_MOD_FAILED/BAD_TABLE_ID, got {other:?}"),
            }
        }
        let install = FlowMod::add(0).priority(5).apply(vec![Action::output(2)]);
        agent.handle(&mut dp, Message::FlowMod(install).encode(5), 0);
        let out = agent.handle(
            &mut dp,
            Message::FlowMod(FlowMod::delete(0xff)).encode(6),
            0,
        );
        assert!(out.replies.is_empty());
        assert!(run_one(&mut dp, 1, frame(), 0).outputs_of(0).is_empty());
    }

    /// Undecodable input is answered with BAD_REQUEST (OF 1.3 §7.4.4)
    /// and a code naming what was wrong; the stream is dropped and the
    /// next message decodes.
    #[test]
    fn undecodable_input_is_answered_with_bad_request() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let features = Message::FeaturesReply {
            datapath_id: 1,
            n_buffers: 0,
            n_tables: 4,
            capabilities: 0,
        }
        .encode(3);
        let mut short_body = features[..18].to_vec();
        short_body[3] = 18;
        for (wire, code) in [
            (vec![0x7f, 9, 0, 8, 0, 0, 0, 1], 0),  // BAD_VERSION
            (vec![0x04, 77, 0, 8, 0, 0, 0, 2], 1), // BAD_TYPE
            (short_body, 6),                       // BAD_LEN
        ] {
            let out = agent.handle(&mut dp, wire.into(), 0);
            let (_, msg, _) = Message::decode(&out.replies[0]).unwrap();
            match msg {
                Message::Error { ty, code: got, .. } => assert_eq!((ty, got), (1, code)),
                other => panic!("expected Error, got {other:?}"),
            }
            let echo = agent.handle(&mut dp, Message::EchoRequest(Bytes::new()).encode(4), 0);
            assert_eq!(echo.replies.len(), 1);
        }
    }

    /// A flow-mod that shares its chunk with a bad frame behind it is
    /// applied as it would be in a chunk of its own; then the bad frame
    /// is answered.
    #[test]
    fn a_flow_mod_ahead_of_a_bad_frame_in_its_chunk_installs() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let fm = FlowMod::add(0)
            .priority(5)
            .match_(Match::new().eth_type(0x0800))
            .apply(vec![Action::output(2)]);
        let mut chunk = BytesMut::new();
        chunk.extend_from_slice(&Message::FlowMod(fm).encode(7));
        chunk.extend_from_slice(&[0x04, 77, 0, 8, 0, 0, 0, 8]); // BAD_TYPE
        let out = agent.handle(&mut dp, chunk.freeze(), 0);
        assert_eq!(dp.table(0).unwrap().len(), 1, "the flow-mod installed");
        assert_eq!(out.replies.len(), 1);
        let (_, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert!(
            matches!(msg, Message::Error { ty: 1, code: 1, .. }),
            "{msg:?}"
        );
    }

    #[test]
    fn packet_out_transmits() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let out = agent.handle(&mut dp, packet_out_msg(1, 2, frame()), 0);
        assert_eq!(out.transmits.len(), 1);
        assert_eq!(out.transmits[0].0, 2);
    }

    #[test]
    fn echo_and_split_messages() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let echo = Message::EchoRequest(Bytes::from_static(b"abc")).encode(9);
        // Deliver in two fragments.
        let out1 = agent.handle(&mut dp, echo.slice(..5), 0);
        assert!(out1.replies.is_empty());
        let out2 = agent.handle(&mut dp, echo.slice(5..), 0);
        assert_eq!(out2.replies.len(), 1);
        let (_, msg, _) = Message::decode(&out2.replies[0]).unwrap();
        assert_eq!(msg, Message::EchoReply(Bytes::from_static(b"abc")));
    }

    #[test]
    fn flow_stats_roundtrip() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let fm = FlowMod::add(0)
            .priority(5)
            .match_(Match::new().eth_type(0x0800))
            .apply(vec![Action::output(2)])
            .cookie(0x77);
        agent.handle(&mut dp, Message::FlowMod(fm).encode(1), 0);
        run_one(&mut dp, 1, frame(), 0);
        run_one(&mut dp, 1, frame(), 0);
        let req = Message::MultipartRequest(MultipartReq::Flow {
            table_id: 0xff,
            out_port: openflow::port_no::ANY,
            out_group: openflow::group_no::ANY,
            cookie: 0,
            cookie_mask: 0,
            match_: Match::any(),
        })
        .encode(5);
        let out = agent.handle(&mut dp, req, 2_000_000_000);
        let (_, msg, _) = Message::decode(&out.replies[0]).unwrap();
        match msg {
            Message::MultipartReply(MultipartRes::Flow(entries)) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].packet_count, 2);
                assert_eq!(entries[0].cookie, 0x77);
                assert_eq!(entries[0].duration_sec, 2);
            }
            other => panic!("expected flow stats, got {other:?}"),
        }
    }

    #[test]
    fn echo_probe_reply_must_mirror_xid() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let probe = agent.echo_probe();
        let (probe_xid, _, _) = Message::decode(&probe).unwrap();
        assert_eq!(agent.echoes_outstanding(), 1);

        // A reply with the wrong xid is stale: ignored, probe still pending.
        agent.handle(&mut dp, Message::EchoReply(Bytes::new()).encode(999), 0);
        assert_eq!(agent.echoes_outstanding(), 1);
        assert_eq!(agent.stale_echo_replies(), 1);

        // The mirrored xid clears it.
        agent.handle(
            &mut dp,
            Message::EchoReply(Bytes::new()).encode(probe_xid),
            0,
        );
        assert_eq!(agent.echoes_outstanding(), 0);
        assert_eq!(agent.stale_echo_replies(), 1);
    }

    #[test]
    fn echo_reply_acks_cumulatively_and_reset_clears_pending() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        let _p1 = agent.echo_probe();
        let _p2 = agent.echo_probe();
        let p3 = agent.echo_probe();
        assert_eq!(agent.echoes_outstanding(), 3);
        let (x3, _, _) = Message::decode(&p3).unwrap();
        // Answering the newest probe proves liveness for the older ones too.
        agent.handle(&mut dp, Message::EchoReply(Bytes::new()).encode(x3), 0);
        assert_eq!(agent.echoes_outstanding(), 0);

        // After a reconnect, replies to pre-reset probes are stale.
        let p4 = agent.echo_probe();
        let (x4, _, _) = Message::decode(&p4).unwrap();
        agent.reset_connection();
        assert!(!agent.handshaken());
        assert_eq!(agent.echoes_outstanding(), 0);
        agent.handle(&mut dp, Message::EchoReply(Bytes::new()).encode(x4), 0);
        assert_eq!(agent.stale_echo_replies(), 1);
        // And new probes never reuse an old xid.
        let p5 = agent.echo_probe();
        let (x5, _, _) = Message::decode(&p5).unwrap();
        assert!(x5 > x4);
    }

    #[test]
    fn role_request_fences_stale_generations() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        assert_eq!(agent.controller_role(), ControllerRole::Equal);

        let req = Message::RoleRequest {
            role: ControllerRole::Master,
            generation_id: 5,
        };
        let out = agent.handle(&mut dp, req.encode(10), 0);
        let (xid, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!(xid, 10);
        assert_eq!(
            msg,
            Message::RoleReply {
                role: ControllerRole::Master,
                generation_id: 5
            }
        );
        assert_eq!(agent.controller_role(), ControllerRole::Master);

        // A deposed controller re-asserting mastership with an older
        // generation gets ROLE_REQUEST_FAILED/STALE and no role change.
        let stale = Message::RoleRequest {
            role: ControllerRole::Master,
            generation_id: 4,
        };
        let out = agent.handle(&mut dp, stale.encode(11), 0);
        let (xid, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!(xid, 11);
        match msg {
            Message::Error { ty, code, .. } => assert_eq!((ty, code), (11, 0)),
            other => panic!("expected Error, got {other:?}"),
        }

        // NoChange queries report without touching the role.
        let query = Message::RoleRequest {
            role: ControllerRole::NoChange,
            generation_id: 0,
        };
        let out = agent.handle(&mut dp, query.encode(12), 0);
        let (_, msg, _) = Message::decode(&out.replies[0]).unwrap();
        assert_eq!(
            msg,
            Message::RoleReply {
                role: ControllerRole::Master,
                generation_id: 5
            }
        );
    }

    #[test]
    fn packet_in_respects_miss_send_len() {
        let mut dp = dp();
        let mut agent = OfAgent::new("test");
        agent.handle(
            &mut dp,
            Message::SetConfig {
                flags: 0,
                miss_send_len: 32,
            }
            .encode(1),
            0,
        );
        let f = frame();
        let pi = agent.packet_in(PacketInReason::NoMatch, 1, &f);
        let (_, msg, _) = Message::decode(&pi).unwrap();
        match msg {
            Message::PacketIn {
                data, total_len, ..
            } => {
                assert_eq!(data.len(), 32);
                assert_eq!(usize::from(total_len), f.len());
            }
            other => panic!("{other:?}"),
        }
    }
}
