//! Concrete packet transformations.
//!
//! OpenFlow actions are declarative; this module is where they touch
//! bytes. Every transformation keeps the frame wire-valid (checksums
//! updated) and keeps the in-flight [`FlowKey`] in sync so later tables
//! match on the rewritten packet, as §5.10 of the spec requires.

use core::ops::Range;

use bytes::Bytes;

use netpkt::flowkey::OFPVID_PRESENT;
use netpkt::layers::{Ipv4, Layers};
use netpkt::{icmp, ipv4, tcp, udp, vlan, FlowKey, FrameBuf, IpProto};
use openflow::message::PacketInReason;
use openflow::oxm::OxmField;

use crate::batch::BatchResult;
use crate::nat::NatTable;
use crate::trace::ProcessingTrace;

/// A concrete (fully resolved) action, as lowered by the slow path and
/// recorded for cache replay: no groups, no reserved ports — just
/// transformations, concrete outputs and group-bucket scope markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CAction {
    /// Push an 802.1Q tag with this TPID and VID 0.
    PushVlan(u16),
    /// Pop the outermost tag.
    PopVlan,
    /// Rewrite a header field.
    SetField(OxmField),
    /// Pass through meter `id` (checked per packet at replay).
    Meter(u32),
    /// Emit the packet, as currently transformed, on this concrete port.
    Output(u32),
    /// Punt a copy to the controller, with the reason recorded at slow-
    /// path time (so replays report `NoMatch` vs `Action` faithfully).
    ToController(PacketInReason),
    /// Decrement the IPv4 TTL with an incremental checksum patch. A
    /// packet whose TTL would hit zero stops here (the datapath answers
    /// with ICMP time-exceeded); such truncated recordings are never
    /// cached.
    DecTtl,
    /// Rewrite the ICMP echo identifier (the NAT "port" of an ICMP
    /// flow) and repair the ICMP checksum. Recorded by the NAT stage;
    /// there is no OXM field for the echo ident, so set-field cannot
    /// express this.
    SetIcmpId(u16),
    /// Refresh the NAT connection identified by this token at replay
    /// time, so cache hits keep the connection's idle timer alive.
    /// Rewrites nothing — the concrete set-fields recorded next to it
    /// carry the translation.
    NatTouch(u64),
    /// Open a group-bucket scope: the bucket works on its own copy of
    /// the packet (OF 1.3 §5.6.1) — lazily, from a shared snapshot that
    /// only a rewriting action turns into a real copy.
    BucketBegin,
    /// Close the innermost bucket scope: the packet after a bucket is
    /// the packet before it.
    BucketEnd,
}

// Every megaflow's recorded program is a run of these.
const _: () = assert!(std::mem::size_of::<CAction>() == 40);

/// Outcome of [`dec_ttl`] on a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlResult {
    /// TTL decremented, checksum patched in place.
    Decremented,
    /// TTL was already ≤ 1: the frame is untouched and must not be
    /// forwarded (RFC 1812 §5.3.1 — decrement-then-discard).
    Expired,
    /// Not an IPv4 packet; nothing to do.
    NotIpv4,
}

/// Decrement the IPv4 TTL of `frame` (through any VLAN tags), patching
/// the header checksum incrementally.
pub fn dec_ttl(frame: &mut [u8]) -> TtlResult {
    let Some((at, Ipv4 { mut ip, .. })) = ipv4_in(frame) else {
        return TtlResult::NotIpv4;
    };
    if ip.ttl <= 1 {
        return TtlResult::Expired;
    }
    ip.dec_ttl();
    put_ipv4(frame, at, &ip, false);
    TtlResult::Decremented
}

/// Rewrite the echo identifier of an ICMPv4 echo request/reply and
/// repair the ICMP checksum. Returns `false` (frame untouched) for
/// anything that is not an IPv4 echo message.
pub fn set_icmp_id(frame: &mut [u8], id: u16) -> bool {
    let Some((_, v4)) = ipv4_in(frame).filter(|(_, v4)| v4.ip.proto == IpProto::ICMP) else {
        return false;
    };
    let (mut l4, range) = (v4.l4, v4.l4_range());
    let Ok(mut icmp) = icmp::Header::parse(&mut l4) else {
        return false;
    };
    if !icmp.is_echo() {
        return false;
    }
    icmp.ident = id;
    let Some(msg) = frame.get_mut(range) else {
        return false;
    };
    if icmp.write(&mut &mut *msg).is_err() {
        return false;
    }
    icmp::fill_checksum(msg);
    true
}

/// The TCI a pushed tag starts with: VID and PCP of the tag `key` has
/// already, else zero (OF 1.3 §5.12: "existing values copied").
pub(crate) fn pushed_tci(key: &FlowKey) -> u16 {
    if key.vlan_vid & OFPVID_PRESENT != 0 {
        (u16::from(key.vlan_pcp) << 13) | (key.vlan_vid & 0x0fff)
    } else {
        0
    }
}

/// Apply a set-field to the frame and key. Returns `false` when the field
/// does not apply to this packet (e.g. set-VLAN on an untagged frame);
/// such packets are left untouched, matching hardware behaviour.
pub fn set_field(frame: &mut [u8], key: &mut FlowKey, field: &OxmField) -> bool {
    match *field {
        OxmField::EthDst(mac, _) => {
            let Some(dst) = frame.get_mut(0..6) else {
                return false; // a runt has no address to rewrite
            };
            dst.copy_from_slice(&mac.octets());
            key.eth_dst = mac;
            true
        }
        OxmField::EthSrc(mac, _) => {
            let Some(src) = frame.get_mut(6..12) else {
                return false;
            };
            src.copy_from_slice(&mac.octets());
            key.eth_src = mac;
            true
        }
        OxmField::VlanVid(v, _) => {
            let vid = v & 0x0fff;
            let tci = (u16::from(key.vlan_pcp) << 13) | vid;
            if !set_outer_tci(frame, key, tci) {
                return false; // no tag to rewrite
            }
            key.vlan_vid = OFPVID_PRESENT | vid;
            true
        }
        OxmField::VlanPcp(p) => {
            let tci = (u16::from(p) << 13) | (key.vlan_vid & 0x0fff);
            if !set_outer_tci(frame, key, tci) {
                return false;
            }
            key.vlan_pcp = p;
            true
        }
        OxmField::Ipv4Src(a, _) => rewrite_ipv4(frame, key, Some(a), None),
        OxmField::Ipv4Dst(a, _) => rewrite_ipv4(frame, key, None, Some(a)),
        OxmField::TcpSrc(p) => rewrite_l4_port(frame, key, true, true, p),
        OxmField::TcpDst(p) => rewrite_l4_port(frame, key, true, false, p),
        OxmField::UdpSrc(p) => rewrite_l4_port(frame, key, false, true, p),
        OxmField::UdpDst(p) => rewrite_l4_port(frame, key, false, false, p),
        OxmField::IpDscp(d) => rewrite_dscp(frame, key, d),
        OxmField::Metadata(v, m) => {
            let m = m.unwrap_or(u64::MAX);
            key.metadata = (key.metadata & !m) | (v & m);
            true
        }
        _ => false,
    }
}

/// Overwrite the outermost tag's TCI, if `key` says the frame has one.
fn set_outer_tci(frame: &mut [u8], key: &FlowKey, tci: u16) -> bool {
    if key.vlan_vid & OFPVID_PRESENT == 0 {
        return false;
    }
    let Some(field) = frame.get_mut(vlan::OUTER_TCI) else {
        return false;
    };
    field.copy_from_slice(&tci.to_be_bytes());
    true
}

/// The IPv4 packet of `frame` and where its header starts.
fn ipv4_in(frame: &[u8]) -> Option<(usize, Ipv4<'_>)> {
    let walk = Layers::parse(frame).ok()?;
    Some((walk.l3_at, walk.ipv4()?))
}

/// Write `ip`'s fixed header back over the one at `at`; with `refill`,
/// recompute its checksum over the header as it lies, options included.
fn put_ipv4(frame: &mut [u8], at: usize, ip: &ipv4::Header, refill: bool) {
    let Some(header) = frame.get_mut(at..at + ip.header_len) else {
        return;
    };
    if ip.write(&mut &mut *header).is_ok() && refill {
        ipv4::fill_checksum(header);
    }
}

fn rewrite_ipv4(
    frame: &mut [u8],
    key: &mut FlowKey,
    src: Option<std::net::Ipv4Addr>,
    dst: Option<std::net::Ipv4Addr>,
) -> bool {
    let Some((at, v4)) = ipv4_in(frame) else {
        return false;
    };
    let (mut ip, l4) = (v4.ip, v4.l4_range());
    if let Some(a) = src {
        ip.src = a;
        key.ipv4_src = u32::from(a);
    }
    if let Some(a) = dst {
        ip.dst = a;
        key.ipv4_dst = u32::from(a);
    }
    put_ipv4(frame, at, &ip, true);
    fix_l4_checksum(frame, &ip, l4);
    true
}

fn rewrite_dscp(frame: &mut [u8], key: &mut FlowKey, dscp: u8) -> bool {
    let Some((at, Ipv4 { mut ip, .. })) = ipv4_in(frame) else {
        return false;
    };
    ip.dscp = dscp;
    put_ipv4(frame, at, &ip, true);
    key.ip_dscp = dscp;
    true
}

fn rewrite_l4_port(
    frame: &mut [u8],
    key: &mut FlowKey,
    tcp: bool,
    src_side: bool,
    port: u16,
) -> bool {
    let want = if tcp { IpProto::TCP } else { IpProto::UDP };
    let Some((_, v4)) = ipv4_in(frame).filter(|(_, v4)| v4.ip.proto == want) else {
        return false;
    };
    // Only a transport header that parses has ports to rewrite: the
    // frames the flow key reads them from, so the key and the bytes
    // agree on what a later stage (a select group) hashes.
    let mut header = v4.l4;
    let parses = if tcp {
        tcp::Header::parse(&mut header).is_ok()
    } else {
        udp::Header::parse(&mut header).is_ok()
    };
    let (ip, l4) = (v4.ip, v4.l4_range());
    // The port pair leads a TCP and a UDP header alike.
    let at = l4.start + if src_side { 0 } else { 2 };
    let Some(field) = frame.get_mut(at..at + 2).filter(|_| parses) else {
        return false;
    };
    field.copy_from_slice(&port.to_be_bytes());
    match (tcp, src_side) {
        (true, true) => key.tcp_src = port,
        (true, false) => key.tcp_dst = port,
        (false, true) => key.udp_src = port,
        (false, false) => key.udp_dst = port,
    }
    fix_l4_checksum(frame, &ip, l4);
    true
}

/// Recompute the TCP/UDP checksum of the transport bytes at `l4` (as the
/// walk bounds them: no Ethernet padding) under `ip`'s addresses.
fn fix_l4_checksum(frame: &mut [u8], ip: &ipv4::Header, l4: Range<usize>) {
    let Some(segment) = frame.get_mut(l4) else {
        return;
    };
    match ip.proto {
        IpProto::TCP => tcp::fill_checksum_v4(segment, ip.src, ip.dst),
        IpProto::UDP => udp::fill_checksum_v4(segment, ip.src, ip.dst),
        _ => {}
    }
}

/// Why a frame's action program stopped before its last action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Halt {
    /// A meter band refused the packet.
    Metered,
    /// A [`CAction::DecTtl`] found TTL ≤ 1; [`Stepper::buf`] holds the
    /// frame as it stood at expiry, for the ICMP time-exceeded reply.
    TtlExpired,
    /// The NAT stage refused the packet (set by the slow path, which
    /// owns translation state; a cached path never contains a refusal).
    NatRefused,
}

/// One frame in flight, and the only interpreter of [`CAction`]s: the
/// slow path and `packet_out` feed it each action as they lower it, a
/// cache hit feeds it the recording, so the two cannot disagree.
///
/// The ingress frame is *not* copied up front: pure-forward programs
/// emit refcounted clones of it, and a byte-rewriting action (VLAN
/// push/pop, set-field, TTL, ICMP ident) works in place when nobody
/// else holds the frame and pays exactly one copy otherwise — the
/// [`FrameBuf`] rule.
pub(crate) struct Stepper {
    /// The frame as currently transformed.
    pub(crate) buf: FrameBuf,
    /// Its flow key, kept in sync so later tables match the rewrite.
    pub(crate) key: FlowKey,
    /// Cost accounting; `step` owns the execution-side counters.
    pub(crate) trace: ProcessingTrace,
    /// Set once the program stopped early; later actions are ignored.
    pub(crate) halt: Option<Halt>,
    /// Packet state saved at each open [`CAction::BucketBegin`].
    scopes: Vec<(Bytes, FlowKey)>,
}

impl Stepper {
    /// Start executing on `frame`, whose extracted key is `key`.
    #[inline]
    pub(crate) fn new(frame: Bytes, key: FlowKey, trace: ProcessingTrace) -> Stepper {
        Stepper {
            buf: FrameBuf::from_bytes(frame),
            key,
            trace,
            halt: None,
            scopes: Vec::new(),
        }
    }

    /// Execute one action: rewrite bytes and key, consult `meters`,
    /// refresh `nat` keep-alives, emit into `out`, count in the trace.
    #[inline]
    pub(crate) fn step(
        &mut self,
        a: &CAction,
        now_ns: u64,
        meters: &mut openflow::MeterTable,
        nat: &mut NatTable,
        out: &mut BatchResult,
    ) {
        if self.halt.is_some() {
            return;
        }
        match a {
            // A frame the tag operation refuses (a runt; a pop with no
            // tag) stays as it is, key included.
            CAction::PushVlan(tpid) => {
                self.trace.vlan_ops += 1;
                let tci = pushed_tci(&self.key);
                if self.buf.push_vlan(*tpid, tci).is_ok() {
                    self.key.vlan_vid = OFPVID_PRESENT | (tci & 0x0fff);
                    self.key.vlan_pcp = (tci >> 13) as u8;
                }
            }
            CAction::PopVlan => {
                self.trace.vlan_ops += 1;
                if self.buf.pop_vlan().is_ok() {
                    // There may be an inner tag (QinQ).
                    let tag = vlan::outer_tag(&self.buf);
                    self.key.vlan_vid = tag.map_or(0, |t| OFPVID_PRESENT | t.vid);
                    self.key.vlan_pcp = tag.map_or(0, |t| t.pcp);
                }
            }
            CAction::SetField(f) => {
                self.trace.set_fields += 1;
                set_field(self.buf.make_mut(), &mut self.key, f);
            }
            CAction::DecTtl => {
                self.trace.set_fields += 1;
                if dec_ttl(self.buf.make_mut()) == TtlResult::Expired {
                    self.halt = Some(Halt::TtlExpired);
                }
            }
            CAction::SetIcmpId(id) => {
                self.trace.set_fields += 1;
                set_icmp_id(self.buf.make_mut(), *id);
            }
            CAction::Meter(id) => {
                self.trace.meter_checks += 1;
                if !meters.offer(*id, now_ns, self.buf.len()) {
                    self.halt = Some(Halt::Metered);
                }
            }
            CAction::NatTouch(token) => nat.touch(*token, now_ns),
            CAction::Output(port) => {
                self.trace.outputs += 1;
                out.push_output(*port, self.buf.snapshot());
            }
            CAction::ToController(reason) => {
                self.trace.packet_in = true;
                out.push_packet_in(*reason, self.key.in_port, self.buf.snapshot());
            }
            CAction::BucketBegin => self.scopes.push((self.buf.snapshot(), self.key)),
            CAction::BucketEnd => {
                if let Some((frame, key)) = self.scopes.pop() {
                    self.buf = FrameBuf::from_bytes(frame);
                    self.key = key;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use netpkt::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn frame_and_key() -> (BytesMut, FlowKey) {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            b"payload",
        );
        let key = FlowKey::extract(1, &f).unwrap();
        (BytesMut::from(&f[..]), key)
    }

    fn assert_checksums_ok(frame: &[u8]) {
        let (at, Ipv4 { ip, l4, l4_at }) = ipv4_in(frame).unwrap();
        let ok = netpkt::checksum::verify;
        assert!(ok(&frame[at..l4_at]), "IP checksum must hold");
        match ip.proto {
            IpProto::UDP => assert!(
                udp::verify_checksum_v4(l4, ip.src, ip.dst),
                "UDP checksum must hold"
            ),
            IpProto::TCP => assert!(
                tcp::verify_checksum_v4(l4, ip.src, ip.dst),
                "TCP checksum must hold"
            ),
            IpProto::ICMP => assert!(ok(l4), "ICMP checksum must hold"),
            _ => {}
        }
    }

    #[test]
    fn push_then_set_vid_then_pop() {
        let (f, _) = frame_and_key();
        let orig = f.freeze();
        let mut meters = openflow::MeterTable::new();
        let tag = [
            CAction::PushVlan(0x8100),
            CAction::SetField(OxmField::VlanVid(OFPVID_PRESENT | 101, None)),
        ];
        let (st, _) = run(&tag[..1], orig.clone(), &mut meters);
        assert_eq!(st.key.vlan_vid, OFPVID_PRESENT);
        let (st, _) = run(&tag, orig.clone(), &mut meters);
        assert_eq!(st.key.vlan_vid, OFPVID_PRESENT | 101);
        let reparsed = FlowKey::extract(1, &st.buf).unwrap();
        assert_eq!(reparsed.vlan_vid, OFPVID_PRESENT | 101);
        assert_eq!(reparsed.udp_dst, 2000, "payload reachable through tag");
        let (st, _) = run(
            &[tag[0].clone(), tag[1].clone(), CAction::PopVlan],
            orig.clone(),
            &mut meters,
        );
        assert_eq!(st.key.vlan_vid, 0);
        assert_eq!(&st.buf[..], &orig[..], "push+pop must be identity");
    }

    #[test]
    fn set_vlan_on_untagged_is_refused() {
        let (mut f, mut k) = frame_and_key();
        assert!(!set_field(
            &mut f,
            &mut k,
            &OxmField::VlanVid(OFPVID_PRESENT | 5, None)
        ));
    }

    #[test]
    fn pop_on_untagged_is_noop() {
        let (f, k) = frame_and_key();
        let orig = f.freeze();
        let mut meters = openflow::MeterTable::new();
        let (st, _) = run(&[CAction::PopVlan], orig.clone(), &mut meters);
        assert_eq!(&st.buf[..], &orig[..]);
        assert_eq!(st.key, k);
    }

    #[test]
    fn rewrite_macs() {
        let (mut f, mut k) = frame_and_key();
        assert!(set_field(
            &mut f,
            &mut k,
            &OxmField::EthDst(MacAddr::host(9), None)
        ));
        assert!(set_field(
            &mut f,
            &mut k,
            &OxmField::EthSrc(MacAddr::host(8), None)
        ));
        let re = FlowKey::extract(1, &f).unwrap();
        assert_eq!(re.eth_dst, MacAddr::host(9));
        assert_eq!(re.eth_src, MacAddr::host(8));
    }

    #[test]
    fn rewrite_ipv4_fixes_both_checksums() {
        let (mut f, mut k) = frame_and_key();
        assert!(set_field(
            &mut f,
            &mut k,
            &OxmField::Ipv4Dst(Ipv4Addr::new(192, 168, 9, 9), None)
        ));
        assert_eq!(k.ipv4_dst, u32::from(Ipv4Addr::new(192, 168, 9, 9)));
        assert_checksums_ok(&f);
        let re = FlowKey::extract(1, &f).unwrap();
        assert_eq!(re.ipv4_dst, k.ipv4_dst);
    }

    #[test]
    fn rewrite_udp_port_fixes_checksum() {
        let (mut f, mut k) = frame_and_key();
        assert!(set_field(&mut f, &mut k, &OxmField::UdpDst(53)));
        assert_eq!(k.udp_dst, 53);
        assert_checksums_ok(&f);
    }

    #[test]
    fn tcp_field_on_udp_packet_refused() {
        let (mut f, mut k) = frame_and_key();
        assert!(!set_field(&mut f, &mut k, &OxmField::TcpDst(80)));
    }

    #[test]
    fn rewrite_tcp_port_on_tcp_packet() {
        let f = builder::tcp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            80,
            netpkt::tcp::flags::SYN,
            b"",
        );
        let mut key = FlowKey::extract(1, &f).unwrap();
        let mut buf = BytesMut::from(&f[..]);
        assert!(set_field(&mut buf, &mut key, &OxmField::TcpDst(8080)));
        assert_eq!(key.tcp_dst, 8080);
        assert_checksums_ok(&buf);
    }

    #[test]
    fn dscp_rewrite() {
        let (mut f, mut k) = frame_and_key();
        assert!(set_field(&mut f, &mut k, &OxmField::IpDscp(46)));
        assert_eq!(k.ip_dscp, 46);
        assert_checksums_ok(&f);
    }

    #[test]
    fn metadata_set_touches_only_key() {
        let (mut f, mut k) = frame_and_key();
        let orig = f.clone();
        assert!(set_field(
            &mut f,
            &mut k,
            &OxmField::Metadata(0xab, Some(0xff))
        ));
        assert_eq!(k.metadata, 0xab);
        assert_eq!(&f[..], &orig[..]);
    }

    /// Step `program` over `frame` the way a cache hit does.
    fn run(
        program: &[CAction],
        frame: Bytes,
        meters: &mut openflow::MeterTable,
    ) -> (Stepper, BatchResult) {
        let key = FlowKey::extract(1, &frame).unwrap();
        let trace = ProcessingTrace::new(frame.len());
        let mut st = Stepper::new(frame, key, trace);
        let mut out = BatchResult::default();
        let mut nat = NatTable::new();
        for a in program {
            st.step(a, 0, meters, &mut nat, &mut out);
        }
        (st, out)
    }

    #[test]
    fn stepper_runs_translator_sequence() {
        // The HARMLESS SS_1 downstream path: pop the access VLAN then send
        // to a patch port; upstream: push + set-vid then to trunk.
        let (f, _) = frame_and_key();
        let tagged = netpkt::vlan::push_vlan(&f.freeze(), netpkt::vlan::VlanTag::new(101)).unwrap();
        let mut meters = openflow::MeterTable::new();
        let (st, out) = run(&[CAction::PopVlan, CAction::Output(7)], tagged, &mut meters);
        assert_eq!(out.all_outputs().len(), 1);
        assert_eq!(out.all_outputs()[0].0, 7);
        let rekey = FlowKey::extract(7, &out.all_outputs()[0].1).unwrap();
        assert_eq!(rekey.vlan_vid, 0, "tag must be gone on the patch side");
        assert_eq!((st.trace.vlan_ops, st.trace.outputs), (1, 1));
    }

    #[test]
    fn stepper_halts_on_meter_drop() {
        let (f, _) = frame_and_key();
        let mut meters = openflow::MeterTable::new();
        meters
            .add(1, openflow::MeterBand { rate: 1, burst: 0 }, true, 0)
            .unwrap();
        // burst 0 -> capacity max(1)... offer a couple to exhaust tokens.
        let program = [CAction::Meter(1), CAction::Output(1)];
        let _ = run(&program, f.clone().freeze(), &mut meters);
        let (st, out) = run(&program, f.freeze(), &mut meters);
        assert_eq!(st.halt, Some(Halt::Metered));
        assert!(out.all_outputs().is_empty());
    }

    #[test]
    fn bucket_scope_restores_the_packet() {
        let (f, _) = frame_and_key();
        let f = f.freeze();
        let mut meters = openflow::MeterTable::new();
        let (st, out) = run(
            &[
                CAction::BucketBegin,
                CAction::SetField(OxmField::EthDst(MacAddr::host(9), None)),
                CAction::Output(2),
                CAction::BucketEnd,
                CAction::Output(3),
            ],
            f.clone(),
            &mut meters,
        );
        let outs = out.all_outputs();
        assert_eq!(&outs[0].1[0..6], &MacAddr::host(9).octets());
        assert_eq!(outs[1], (3, f), "after the bucket: the packet before it");
        assert_eq!(st.key.eth_dst, MacAddr::host(2), "key restored too");
    }

    #[test]
    fn dec_ttl_patches_then_expires() {
        let (mut f, _) = frame_and_key();
        // builder frames start at TTL 64: 63 decrements succeed...
        for i in 0..63 {
            assert_eq!(dec_ttl(&mut f), TtlResult::Decremented, "hop {i}");
            assert_checksums_ok(&f);
        }
        // ...and the 64th refuses, leaving the frame intact at TTL 1.
        let before = f.clone();
        assert_eq!(dec_ttl(&mut f), TtlResult::Expired);
        assert_eq!(&f[..], &before[..]);
    }

    #[test]
    fn stepper_halts_at_expired_ttl() {
        let (mut f, _) = frame_and_key();
        for _ in 0..63 {
            assert_eq!(dec_ttl(&mut f), TtlResult::Decremented);
        }
        let mut meters = openflow::MeterTable::new();
        let (st, out) = run(
            &[CAction::DecTtl, CAction::Output(3)],
            f.freeze(),
            &mut meters,
        );
        assert_eq!(st.halt, Some(Halt::TtlExpired), "expiry must be reported");
        assert!(
            out.all_outputs().is_empty(),
            "expired packets are not forwarded"
        );
    }

    #[test]
    fn icmp_ident_rewrite_repairs_checksum() {
        let f = builder::icmp_echo_request(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 1),
            0x1234,
            1,
            b"ping",
        );
        let mut buf = BytesMut::from(&f[..]);
        assert!(set_icmp_id(&mut buf, 0x4000));
        let (_, v4) = ipv4_in(&buf).unwrap();
        assert_eq!(icmp::Header::parse(&mut { v4.l4 }).unwrap().ident, 0x4000);
        assert_checksums_ok(&buf);
        // Not an echo message: refused.
        let (mut udp, _) = frame_and_key();
        assert!(!set_icmp_id(&mut udp, 7));
    }

    /// Every L4 rewrite of a frame padded to the Ethernet minimum keeps
    /// a checksum that holds over the segment the IPv4 total length
    /// bounds, and leaves the padding alone: a checksum summed over the
    /// trailer too would hold over neither.
    #[test]
    fn a_padded_segment_keeps_a_valid_checksum_through_every_l4_rewrite() {
        let (inside, outside) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(8, 8, 8, 8));
        let ext = Ipv4Addr::new(198, 18, 0, 254);
        let (a, b) = (MacAddr::host(1), MacAddr::host(2));
        let tcp = builder::tcp_packet(a, b, inside, outside, 1000, 80, tcp::flags::SYN, b"");
        let udp = builder::udp_packet(a, b, inside, outside, 1000, 53, b"q");
        let icmp = builder::icmp_echo_request(a, b, inside, outside, 7, 1, b"");
        type Rewrite = fn(&mut BytesMut, &mut FlowKey, bool, Ipv4Addr) -> bool;
        let set = |f: &mut BytesMut, k: &mut FlowKey, field| set_field(f, k, &field);
        // Each rewrite, on a TCP (`true`) or UDP frame; ICMP's port is
        // its echo ident. NAT egress rewrites the source address and
        // port, ingress the destination's.
        let rewrites: [(&str, Rewrite); 5] = [
            ("src port", |f, k, tcp, _| {
                let p = 40000;
                set_field(
                    f,
                    k,
                    &if tcp {
                        OxmField::TcpSrc(p)
                    } else {
                        OxmField::UdpSrc(p)
                    },
                )
            }),
            ("dst port", |f, k, tcp, _| {
                let p = 8080;
                set_field(
                    f,
                    k,
                    &if tcp {
                        OxmField::TcpDst(p)
                    } else {
                        OxmField::UdpDst(p)
                    },
                )
            }),
            ("address", |f, k, _, ext| {
                set_field(f, k, &OxmField::Ipv4Dst(ext, None))
            }),
            ("NAT egress", |f, k, tcp, ext| {
                let p = 49152;
                set_field(f, k, &OxmField::Ipv4Src(ext, None))
                    && set_field(
                        f,
                        k,
                        &if tcp {
                            OxmField::TcpSrc(p)
                        } else {
                            OxmField::UdpSrc(p)
                        },
                    )
            }),
            ("NAT ingress", |f, k, tcp, _| {
                let (p, to) = (1000, Ipv4Addr::new(10, 0, 0, 9));
                set_field(f, k, &OxmField::Ipv4Dst(to, None))
                    && set_field(
                        f,
                        k,
                        &if tcp {
                            OxmField::TcpDst(p)
                        } else {
                            OxmField::UdpDst(p)
                        },
                    )
            }),
        ];
        for trailer in [0x00, 0xa5] {
            let padded = |f: &Bytes| {
                let mut f = BytesMut::from(&f[..]);
                f.resize(netpkt::frame::MIN_FRAME_LEN, trailer);
                f
            };
            for (frame, is_tcp) in [(&tcp, true), (&udp, false)] {
                for (what, rewrite) in &rewrites {
                    let mut f = padded(frame);
                    let mut key = FlowKey::extract(1, &f).unwrap();
                    assert!(rewrite(&mut f, &mut key, is_tcp, ext), "{what}");
                    assert_checksums_ok(&f);
                    assert_eq!(key, FlowKey::extract(1, &f).unwrap(), "{what}");
                    assert!(f[frame.len()..].iter().all(|&t| t == trailer), "{what}");
                }
            }
            for egress in [true, false] {
                let mut f = padded(&icmp);
                let mut key = FlowKey::extract(1, &f).unwrap();
                let addr = if egress {
                    OxmField::Ipv4Src(ext, None)
                } else {
                    OxmField::Ipv4Dst(inside, None)
                };
                assert!(set(&mut f, &mut key, addr) && set_icmp_id(&mut f, 0xc000));
                assert_checksums_ok(&f);
                assert!(f[icmp.len()..].iter().all(|&t| t == trailer));
            }
        }
    }
}
