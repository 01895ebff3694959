//! Concrete packet transformations.
//!
//! OpenFlow actions are declarative; this module is where they touch
//! bytes. Every transformation keeps the frame wire-valid (checksums
//! updated) and keeps the in-flight [`FlowKey`] in sync so later tables
//! match on the rewritten packet, as §5.10 of the spec requires.

use bytes::Bytes;

use netpkt::flowkey::OFPVID_PRESENT;
use netpkt::icmp::{Icmpv4Packet, Icmpv4Type};
use netpkt::vlan::VlanView;
use netpkt::{EtherType, FlowKey, FrameBuf, IpProto, Ipv4Packet, TcpPacket, UdpPacket};
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
    let Some(off) = ip_offset(frame) else {
        return TtlResult::NotIpv4;
    };
    let buf = &mut frame[off..];
    let Ok(mut ip) = Ipv4Packet::new_checked(&mut buf[..]) else {
        return TtlResult::NotIpv4;
    };
    if ip.ttl() <= 1 {
        return TtlResult::Expired;
    }
    ip.dec_ttl();
    TtlResult::Decremented
}

/// Rewrite the echo identifier of an ICMPv4 echo request/reply and
/// repair the ICMP checksum. Returns `false` (frame untouched) for
/// anything that is not an IPv4 echo message.
pub fn set_icmp_id(frame: &mut [u8], id: u16) -> bool {
    let Some(off) = ip_offset(frame) else {
        return false;
    };
    let l4 = {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[off..]) else {
            return false;
        };
        if ip.proto() != IpProto::ICMP {
            return false;
        }
        off + ip.header_len()
    };
    let Ok(mut icmp) = Icmpv4Packet::new_checked(&mut frame[l4..]) else {
        return false;
    };
    if !matches!(
        icmp.msg_type(),
        Icmpv4Type::EchoRequest | Icmpv4Type::EchoReply
    ) {
        return false;
    }
    icmp.set_echo_ident(id);
    icmp.fill_checksum();
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
            if key.vlan_vid & OFPVID_PRESENT == 0 {
                return false; // no tag to rewrite
            }
            let tci = (u16::from(key.vlan_pcp) << 13) | vid;
            frame[14..16].copy_from_slice(&tci.to_be_bytes());
            key.vlan_vid = OFPVID_PRESENT | vid;
            true
        }
        OxmField::VlanPcp(p) => {
            if key.vlan_vid & OFPVID_PRESENT == 0 {
                return false;
            }
            let tci = (u16::from(p) << 13) | (key.vlan_vid & 0x0fff);
            frame[14..16].copy_from_slice(&tci.to_be_bytes());
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

fn ip_offset(frame: &[u8]) -> Option<usize> {
    let view = VlanView::parse(frame).ok()?;
    if view.inner_ethertype != EtherType::IPV4 {
        return None;
    }
    Some(view.payload_offset)
}

fn rewrite_ipv4(
    frame: &mut [u8],
    key: &mut FlowKey,
    src: Option<std::net::Ipv4Addr>,
    dst: Option<std::net::Ipv4Addr>,
) -> bool {
    let Some(off) = ip_offset(frame) else {
        return false;
    };
    let buf = &mut frame[off..];
    let Ok(mut ip) = Ipv4Packet::new_checked(&mut buf[..]) else {
        return false;
    };
    if let Some(a) = src {
        ip.set_src(a);
        key.ipv4_src = u32::from(a);
    }
    if let Some(a) = dst {
        ip.set_dst(a);
        key.ipv4_dst = u32::from(a);
    }
    ip.fill_checksum();
    fix_l4_checksum(frame, off);
    true
}

fn rewrite_dscp(frame: &mut [u8], key: &mut FlowKey, dscp: u8) -> bool {
    let Some(off) = ip_offset(frame) else {
        return false;
    };
    let buf = &mut frame[off..];
    let Ok(mut ip) = Ipv4Packet::new_checked(&mut buf[..]) else {
        return false;
    };
    ip.set_dscp(dscp);
    ip.fill_checksum();
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
    let Some(off) = ip_offset(frame) else {
        return false;
    };
    let want = if tcp { IpProto::TCP } else { IpProto::UDP };
    {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[off..]) else {
            return false;
        };
        if ip.proto() != want {
            return false;
        }
    }
    let hl = usize::from(frame[off] & 0x0f) * 4;
    let l4_off = off + hl;
    if frame.len() < l4_off + 4 {
        return false;
    }
    let range = if src_side {
        l4_off..l4_off + 2
    } else {
        l4_off + 2..l4_off + 4
    };
    frame[range].copy_from_slice(&port.to_be_bytes());
    match (tcp, src_side) {
        (true, true) => key.tcp_src = port,
        (true, false) => key.tcp_dst = port,
        (false, true) => key.udp_src = port,
        (false, false) => key.udp_dst = port,
    }
    fix_l4_checksum(frame, off);
    true
}

/// Recompute the TCP/UDP checksum of an IPv4 packet at `off`.
fn fix_l4_checksum(frame: &mut [u8], off: usize) {
    let (src, dst, proto, hl) = {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[off..]) else {
            return;
        };
        (ip.src(), ip.dst(), ip.proto(), ip.header_len())
    };
    let l4 = off + hl;
    match proto {
        IpProto::TCP => {
            if let Ok(mut t) = TcpPacket::new_checked(&mut frame[l4..]) {
                t.fill_checksum_v4(src, dst);
            }
        }
        IpProto::UDP => {
            if let Ok(mut u) = UdpPacket::new_checked(&mut frame[l4..]) {
                u.fill_checksum_v4(src, dst);
            }
        }
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
                    let tag = VlanView::parse(&self.buf).ok().and_then(|v| v.outer);
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
        let view = VlanView::parse(frame).unwrap();
        let ip = Ipv4Packet::new_checked(&frame[view.payload_offset..]).unwrap();
        assert!(ip.verify_checksum(), "IP checksum must hold");
        if ip.proto() == IpProto::UDP {
            let u = UdpPacket::new_checked(ip.payload()).unwrap();
            assert!(
                u.verify_checksum_v4(ip.src(), ip.dst()),
                "UDP checksum must hold"
            );
        }
        if ip.proto() == IpProto::TCP {
            let t = TcpPacket::new_checked(ip.payload()).unwrap();
            assert!(
                t.verify_checksum_v4(ip.src(), ip.dst()),
                "TCP checksum must hold"
            );
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
        let view = VlanView::parse(&buf).unwrap();
        let ip = Ipv4Packet::new_checked(&buf[view.payload_offset..]).unwrap();
        let icmp = Icmpv4Packet::new_checked(ip.payload()).unwrap();
        assert_eq!(icmp.echo_ident(), 0x4000);
        assert!(icmp.verify_checksum());
        // Not an echo message: refused.
        let (mut udp, _) = frame_and_key();
        assert!(!set_icmp_id(&mut udp, 7));
    }
}
