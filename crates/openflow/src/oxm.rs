//! OXM (OpenFlow Extensible Match) TLVs and the [`Match`] structure.
//!
//! Only the `OFPXMC_OPENFLOW_BASIC` class is implemented, with the fields a
//! production L2-L4 deployment uses. Each field optionally carries a mask
//! (the `HM` bit), and [`Match`] converts losslessly to the
//! `(FlowKey, FieldMask)` pair used by every dataplane in the workspace.

use bytes::{BufMut, BytesMut};
use std::net::{Ipv4Addr, Ipv6Addr};

use netpkt::flowkey::{FieldMask, OFPVID_PRESENT};
use netpkt::{FlowKey, MacAddr};

use crate::wire::{self, Cursor};
use crate::{Error, Result};

/// `OFPXMC_OPENFLOW_BASIC`.
pub const OXM_CLASS_BASIC: u16 = 0x8000;

/// OXM basic-class field numbers (OF 1.3 §7.2.3.7).
#[allow(missing_docs)]
pub mod field_num {
    pub const IN_PORT: u8 = 0;
    pub const METADATA: u8 = 2;
    pub const ETH_DST: u8 = 3;
    pub const ETH_SRC: u8 = 4;
    pub const ETH_TYPE: u8 = 5;
    pub const VLAN_VID: u8 = 6;
    pub const VLAN_PCP: u8 = 7;
    pub const IP_DSCP: u8 = 8;
    pub const IP_PROTO: u8 = 10;
    pub const IPV4_SRC: u8 = 11;
    pub const IPV4_DST: u8 = 12;
    pub const TCP_SRC: u8 = 13;
    pub const TCP_DST: u8 = 14;
    pub const UDP_SRC: u8 = 15;
    pub const UDP_DST: u8 = 16;
    pub const ICMPV4_TYPE: u8 = 19;
    pub const ICMPV4_CODE: u8 = 20;
    pub const ARP_OP: u8 = 21;
    pub const ARP_SPA: u8 = 22;
    pub const ARP_TPA: u8 = 23;
    pub const IPV6_SRC: u8 = 26;
    pub const IPV6_DST: u8 = 27;
}

/// One OXM match field. Fields with an `Option` second element support
/// masks (`None` = exact match). Addresses are std's byte-aligned
/// `Ipv4Addr` / `Ipv6Addr`, so the widest variant, an IPv6 address and
/// its mask, sets the size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OxmField {
    /// Ingress port.
    InPort(u32),
    /// Pipeline metadata with optional mask.
    Metadata(u64, Option<u64>),
    /// Destination MAC with optional mask.
    EthDst(MacAddr, Option<MacAddr>),
    /// Source MAC with optional mask.
    EthSrc(MacAddr, Option<MacAddr>),
    /// EtherType (after VLAN tags).
    EthType(u16),
    /// VLAN id in OF encoding (`OFPVID_PRESENT | vid`) with optional mask.
    VlanVid(u16, Option<u16>),
    /// VLAN priority (requires a tagged match).
    VlanPcp(u8),
    /// IP DSCP.
    IpDscp(u8),
    /// IP protocol.
    IpProto(u8),
    /// IPv4 source with optional mask.
    Ipv4Src(Ipv4Addr, Option<Ipv4Addr>),
    /// IPv4 destination with optional mask.
    Ipv4Dst(Ipv4Addr, Option<Ipv4Addr>),
    /// TCP source port.
    TcpSrc(u16),
    /// TCP destination port.
    TcpDst(u16),
    /// UDP source port.
    UdpSrc(u16),
    /// UDP destination port.
    UdpDst(u16),
    /// ICMPv4 type.
    Icmpv4Type(u8),
    /// ICMPv4 code.
    Icmpv4Code(u8),
    /// ARP opcode.
    ArpOp(u16),
    /// ARP sender protocol address with optional mask.
    ArpSpa(Ipv4Addr, Option<Ipv4Addr>),
    /// ARP target protocol address with optional mask.
    ArpTpa(Ipv4Addr, Option<Ipv4Addr>),
    /// IPv6 source with optional mask.
    Ipv6Src(Ipv6Addr, Option<Ipv6Addr>),
    /// IPv6 destination with optional mask.
    Ipv6Dst(Ipv6Addr, Option<Ipv6Addr>),
}

// Every rule's match and action blocks, every recorded megaflow program
// and every decoded flow-mod is a run of these: a wider variant should
// fail the build, not widen them all.
const _: () = assert!(std::mem::size_of::<OxmField>() == 40);

impl OxmField {
    /// The OXM field number.
    pub fn number(&self) -> u8 {
        use field_num::*;
        match self {
            OxmField::InPort(_) => IN_PORT,
            OxmField::Metadata(..) => METADATA,
            OxmField::EthDst(..) => ETH_DST,
            OxmField::EthSrc(..) => ETH_SRC,
            OxmField::EthType(_) => ETH_TYPE,
            OxmField::VlanVid(..) => VLAN_VID,
            OxmField::VlanPcp(_) => VLAN_PCP,
            OxmField::IpDscp(_) => IP_DSCP,
            OxmField::IpProto(_) => IP_PROTO,
            OxmField::Ipv4Src(..) => IPV4_SRC,
            OxmField::Ipv4Dst(..) => IPV4_DST,
            OxmField::TcpSrc(_) => TCP_SRC,
            OxmField::TcpDst(_) => TCP_DST,
            OxmField::UdpSrc(_) => UDP_SRC,
            OxmField::UdpDst(_) => UDP_DST,
            OxmField::Icmpv4Type(_) => ICMPV4_TYPE,
            OxmField::Icmpv4Code(_) => ICMPV4_CODE,
            OxmField::ArpOp(_) => ARP_OP,
            OxmField::ArpSpa(..) => ARP_SPA,
            OxmField::ArpTpa(..) => ARP_TPA,
            OxmField::Ipv6Src(..) => IPV6_SRC,
            OxmField::Ipv6Dst(..) => IPV6_DST,
        }
    }

    fn has_mask(&self) -> bool {
        match self {
            OxmField::Metadata(_, m) => m.is_some(),
            OxmField::EthDst(_, m) | OxmField::EthSrc(_, m) => m.is_some(),
            OxmField::VlanVid(_, m) => m.is_some(),
            OxmField::Ipv4Src(_, m)
            | OxmField::Ipv4Dst(_, m)
            | OxmField::ArpSpa(_, m)
            | OxmField::ArpTpa(_, m) => m.is_some(),
            OxmField::Ipv6Src(_, m) | OxmField::Ipv6Dst(_, m) => m.is_some(),
            _ => false,
        }
    }

    /// Append the TLV to `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u16(OXM_CLASS_BASIC);
        out.put_u8((self.number() << 1) | u8::from(self.has_mask()));
        let len = out.len();
        out.put_u8(0);
        match *self {
            OxmField::InPort(v) => out.put_u32(v),
            OxmField::Metadata(v, m) => {
                out.put_u64(v);
                if let Some(m) = m {
                    out.put_u64(m);
                }
            }
            OxmField::EthDst(v, m) | OxmField::EthSrc(v, m) => {
                out.put_slice(&v.octets());
                if let Some(m) = m {
                    out.put_slice(&m.octets());
                }
            }
            OxmField::EthType(v) => out.put_u16(v),
            OxmField::VlanVid(v, m) => {
                out.put_u16(v);
                if let Some(m) = m {
                    out.put_u16(m);
                }
            }
            OxmField::VlanPcp(v) | OxmField::IpDscp(v) | OxmField::IpProto(v) => out.put_u8(v),
            OxmField::Ipv4Src(v, m) | OxmField::Ipv4Dst(v, m) => {
                out.put_slice(&v.octets());
                if let Some(m) = m {
                    out.put_slice(&m.octets());
                }
            }
            OxmField::TcpSrc(v)
            | OxmField::TcpDst(v)
            | OxmField::UdpSrc(v)
            | OxmField::UdpDst(v)
            | OxmField::ArpOp(v) => out.put_u16(v),
            OxmField::Icmpv4Type(v) | OxmField::Icmpv4Code(v) => out.put_u8(v),
            OxmField::ArpSpa(v, m) | OxmField::ArpTpa(v, m) => {
                out.put_slice(&v.octets());
                if let Some(m) = m {
                    out.put_slice(&m.octets());
                }
            }
            OxmField::Ipv6Src(v, m) | OxmField::Ipv6Dst(v, m) => {
                out.put_slice(&v.octets());
                if let Some(m) = m {
                    out.put_slice(&m.octets());
                }
            }
        }
        let value_len = out.len() - len - 1;
        if let Some(field) = out.get_mut(len) {
            *field = value_len as u8;
        }
    }

    /// Decode one TLV from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<OxmField> {
        let class = buf.u16()?;
        let header = buf.u8()?;
        let len = usize::from(buf.u8()?);
        if class != OXM_CLASS_BASIC {
            return Err(Error::Malformed("unsupported OXM class"));
        }
        let mut value = buf.take(len)?;
        let hm = header & 1 == 1;
        let field = Self::decode_value(header >> 1, hm, &mut value)?;
        if !value.is_empty() {
            return Err(Error::Malformed("bad OXM length"));
        }
        if field.has_mask() != hm {
            return Err(Error::Malformed("OXM field cannot be masked"));
        }
        Ok(field)
    }

    fn decode_value(number: u8, hm: bool, v: &mut &[u8]) -> Result<OxmField> {
        use field_num::*;
        Ok(match number {
            IN_PORT => OxmField::InPort(v.u32()?),
            METADATA => {
                let (x, m) = masked(v, hm, |c| c.u64())?;
                OxmField::Metadata(x, m)
            }
            ETH_DST | ETH_SRC => {
                let (x, m) = masked(v, hm, |c| c.array().map(MacAddr))?;
                if number == ETH_DST {
                    OxmField::EthDst(x, m)
                } else {
                    OxmField::EthSrc(x, m)
                }
            }
            ETH_TYPE => OxmField::EthType(v.u16()?),
            VLAN_VID => {
                let (x, m) = masked(v, hm, |c| c.u16())?;
                OxmField::VlanVid(x, m)
            }
            VLAN_PCP => OxmField::VlanPcp(v.u8()?),
            IP_DSCP => OxmField::IpDscp(v.u8()?),
            IP_PROTO => OxmField::IpProto(v.u8()?),
            IPV4_SRC | IPV4_DST | ARP_SPA | ARP_TPA => {
                let (x, m) = masked(v, hm, |c| c.u32().map(Ipv4Addr::from))?;
                match number {
                    IPV4_SRC => OxmField::Ipv4Src(x, m),
                    IPV4_DST => OxmField::Ipv4Dst(x, m),
                    ARP_SPA => OxmField::ArpSpa(x, m),
                    _ => OxmField::ArpTpa(x, m),
                }
            }
            TCP_SRC => OxmField::TcpSrc(v.u16()?),
            TCP_DST => OxmField::TcpDst(v.u16()?),
            UDP_SRC => OxmField::UdpSrc(v.u16()?),
            UDP_DST => OxmField::UdpDst(v.u16()?),
            ICMPV4_TYPE => OxmField::Icmpv4Type(v.u8()?),
            ICMPV4_CODE => OxmField::Icmpv4Code(v.u8()?),
            ARP_OP => OxmField::ArpOp(v.u16()?),
            IPV6_SRC | IPV6_DST => {
                let (x, m) = masked(v, hm, |c| c.array::<16>().map(Ipv6Addr::from))?;
                if number == IPV6_SRC {
                    OxmField::Ipv6Src(x, m)
                } else {
                    OxmField::Ipv6Dst(x, m)
                }
            }
            _ => return Err(Error::Malformed("unknown OXM field")),
        })
    }
}

/// A field value, and its mask when the HM bit says one follows.
fn masked<T>(
    v: &mut &[u8],
    hm: bool,
    read: impl Fn(&mut &[u8]) -> netpkt::Result<T>,
) -> Result<(T, Option<T>)> {
    let value = read(v)?;
    Ok((value, if hm { Some(read(v)?) } else { None }))
}

/// An ordered set of OXM fields: the `ofp_match` of flow mods, packet-ins
/// and flow stats.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Match {
    fields: Vec<OxmField>,
}

impl Match {
    /// The empty (match-everything) match.
    pub fn any() -> Match {
        Match::default()
    }

    /// Start an empty match for builder-style construction.
    pub fn new() -> Match {
        Match::default()
    }

    /// The fields in author order.
    pub fn fields(&self) -> &[OxmField] {
        &self.fields
    }

    /// Append a field (builder style).
    pub fn with(mut self, f: OxmField) -> Match {
        self.fields.push(f);
        self
    }

    /// Match on ingress port.
    pub fn in_port(self, p: u32) -> Match {
        self.with(OxmField::InPort(p))
    }

    /// Match on EtherType.
    pub fn eth_type(self, t: u16) -> Match {
        self.with(OxmField::EthType(t))
    }

    /// Match on destination MAC.
    pub fn eth_dst(self, m: MacAddr) -> Match {
        self.with(OxmField::EthDst(m, None))
    }

    /// Match frames tagged with a specific VLAN id.
    pub fn vlan(self, vid: u16) -> Match {
        self.with(OxmField::VlanVid(OFPVID_PRESENT | vid, None))
    }

    /// Match untagged frames.
    pub fn untagged(self) -> Match {
        self.with(OxmField::VlanVid(0, None))
    }

    /// Match any tagged frame regardless of VID.
    pub fn any_vlan(self) -> Match {
        self.with(OxmField::VlanVid(OFPVID_PRESENT, Some(OFPVID_PRESENT)))
    }

    /// Match on IP protocol (requires [`Match::eth_type`] 0x0800/0x86dd).
    pub fn ip_proto(self, p: u8) -> Match {
        self.with(OxmField::IpProto(p))
    }

    /// Match an exact IPv4 source.
    pub fn ipv4_src(self, a: Ipv4Addr) -> Match {
        self.with(OxmField::Ipv4Src(a, None))
    }

    /// Match an IPv4 source prefix.
    pub fn ipv4_src_masked(self, a: Ipv4Addr, m: Ipv4Addr) -> Match {
        self.with(OxmField::Ipv4Src(a, Some(m)))
    }

    /// Match an exact IPv4 destination.
    pub fn ipv4_dst(self, a: Ipv4Addr) -> Match {
        self.with(OxmField::Ipv4Dst(a, None))
    }

    /// Match an IPv4 destination prefix.
    pub fn ipv4_dst_masked(self, a: Ipv4Addr, m: Ipv4Addr) -> Match {
        self.with(OxmField::Ipv4Dst(a, Some(m)))
    }

    /// Match a TCP destination port.
    pub fn tcp_dst(self, p: u16) -> Match {
        self.with(OxmField::TcpDst(p))
    }

    /// Match a UDP destination port.
    pub fn udp_dst(self, p: u16) -> Match {
        self.with(OxmField::UdpDst(p))
    }

    /// Validate OF 1.3 prerequisites (§7.2.3.8) and duplicate fields.
    pub fn validate(&self) -> Result<()> {
        let mut seen = 0u64;
        let has = |fields: &[OxmField], pred: &dyn Fn(&OxmField) -> bool| fields.iter().any(pred);
        for f in &self.fields {
            let bit = 1u64 << f.number();
            if seen & bit != 0 {
                return Err(Error::BadMatch("duplicate field"));
            }
            seen |= bit;
            match f {
                OxmField::VlanPcp(_) => {
                    let tagged = has(
                        &self.fields,
                        &|g| matches!(g, OxmField::VlanVid(v, _) if v & OFPVID_PRESENT != 0),
                    );
                    if !tagged {
                        return Err(Error::BadMatch("VLAN_PCP requires tagged VLAN_VID"));
                    }
                }
                OxmField::IpProto(_) | OxmField::IpDscp(_) => {
                    let ip = has(&self.fields, &|g| {
                        matches!(g, OxmField::EthType(0x0800) | OxmField::EthType(0x86dd))
                    });
                    if !ip {
                        return Err(Error::BadMatch("IP field requires ETH_TYPE ip"));
                    }
                }
                OxmField::Ipv4Src(..) | OxmField::Ipv4Dst(..)
                    if !has(&self.fields, &|g| matches!(g, OxmField::EthType(0x0800))) =>
                {
                    return Err(Error::BadMatch("IPv4 field requires ETH_TYPE 0x0800"));
                }
                OxmField::Ipv6Src(..) | OxmField::Ipv6Dst(..)
                    if !has(&self.fields, &|g| matches!(g, OxmField::EthType(0x86dd))) =>
                {
                    return Err(Error::BadMatch("IPv6 field requires ETH_TYPE 0x86dd"));
                }
                OxmField::TcpSrc(_) | OxmField::TcpDst(_)
                    if !has(&self.fields, &|g| matches!(g, OxmField::IpProto(6))) =>
                {
                    return Err(Error::BadMatch("TCP field requires IP_PROTO 6"));
                }
                OxmField::UdpSrc(_) | OxmField::UdpDst(_)
                    if !has(&self.fields, &|g| matches!(g, OxmField::IpProto(17))) =>
                {
                    return Err(Error::BadMatch("UDP field requires IP_PROTO 17"));
                }
                OxmField::Icmpv4Type(_) | OxmField::Icmpv4Code(_)
                    if !has(&self.fields, &|g| matches!(g, OxmField::IpProto(1))) =>
                {
                    return Err(Error::BadMatch("ICMP field requires IP_PROTO 1"));
                }
                OxmField::ArpOp(_) | OxmField::ArpSpa(..) | OxmField::ArpTpa(..)
                    if !has(&self.fields, &|g| matches!(g, OxmField::EthType(0x0806))) =>
                {
                    return Err(Error::BadMatch("ARP field requires ETH_TYPE 0x0806"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Convert to the `(value, mask)` pair used for dataplane lookup.
    pub fn to_key_mask(&self) -> (FlowKey, FieldMask) {
        let mut key = FlowKey::default();
        let mut mask = FieldMask::default();
        let full_mac = MacAddr([0xff; 6]);
        for f in &self.fields {
            match *f {
                OxmField::InPort(v) => {
                    key.in_port = v;
                    mask.in_port = u32::MAX;
                }
                OxmField::Metadata(v, m) => {
                    let m = m.unwrap_or(u64::MAX);
                    key.metadata = v & m;
                    mask.metadata = m;
                }
                OxmField::EthDst(v, m) => {
                    let m = m.unwrap_or(full_mac);
                    key.eth_dst = v.masked_with(&m);
                    mask.eth_dst = m;
                }
                OxmField::EthSrc(v, m) => {
                    let m = m.unwrap_or(full_mac);
                    key.eth_src = v.masked_with(&m);
                    mask.eth_src = m;
                }
                OxmField::EthType(v) => {
                    key.eth_type = v;
                    mask.eth_type = u16::MAX;
                }
                OxmField::VlanVid(v, m) => {
                    let m = m.unwrap_or(OFPVID_PRESENT | netpkt::VID_MASK);
                    key.vlan_vid = v & m;
                    mask.vlan_vid = m;
                }
                OxmField::VlanPcp(v) => {
                    key.vlan_pcp = v;
                    mask.vlan_pcp = u8::MAX;
                }
                OxmField::IpDscp(v) => {
                    key.ip_dscp = v;
                    mask.ip_dscp = u8::MAX;
                }
                OxmField::IpProto(v) => {
                    key.ip_proto = v;
                    mask.ip_proto = u8::MAX;
                }
                OxmField::Ipv4Src(v, m) => {
                    let m = m.map(u32::from).unwrap_or(u32::MAX);
                    key.ipv4_src = u32::from(v) & m;
                    mask.ipv4_src = m;
                }
                OxmField::Ipv4Dst(v, m) => {
                    let m = m.map(u32::from).unwrap_or(u32::MAX);
                    key.ipv4_dst = u32::from(v) & m;
                    mask.ipv4_dst = m;
                }
                OxmField::TcpSrc(v) => {
                    key.tcp_src = v;
                    mask.tcp_src = u16::MAX;
                }
                OxmField::TcpDst(v) => {
                    key.tcp_dst = v;
                    mask.tcp_dst = u16::MAX;
                }
                OxmField::UdpSrc(v) => {
                    key.udp_src = v;
                    mask.udp_src = u16::MAX;
                }
                OxmField::UdpDst(v) => {
                    key.udp_dst = v;
                    mask.udp_dst = u16::MAX;
                }
                OxmField::Icmpv4Type(v) => {
                    key.icmp_type = v;
                    mask.icmp_type = u8::MAX;
                }
                OxmField::Icmpv4Code(v) => {
                    key.icmp_code = v;
                    mask.icmp_code = u8::MAX;
                }
                OxmField::ArpOp(v) => {
                    key.arp_op = v;
                    mask.arp_op = u16::MAX;
                }
                OxmField::ArpSpa(v, m) => {
                    let m = m.map(u32::from).unwrap_or(u32::MAX);
                    key.arp_spa = u32::from(v) & m;
                    mask.arp_spa = m;
                }
                OxmField::ArpTpa(v, m) => {
                    let m = m.map(u32::from).unwrap_or(u32::MAX);
                    key.arp_tpa = u32::from(v) & m;
                    mask.arp_tpa = m;
                }
                OxmField::Ipv6Src(v, m) => {
                    let m = m.map(u128::from).unwrap_or(u128::MAX);
                    key.ipv6_src = u128::from(v) & m;
                    mask.ipv6_src = m;
                }
                OxmField::Ipv6Dst(v, m) => {
                    let m = m.map(u128::from).unwrap_or(u128::MAX);
                    key.ipv6_dst = u128::from(v) & m;
                    mask.ipv6_dst = m;
                }
            }
        }
        (key, mask)
    }

    /// True if `pkt` (an extracted flow key) satisfies this match.
    pub fn matches(&self, pkt: &FlowKey) -> bool {
        let (key, mask) = self.to_key_mask();
        pkt.masked(&mask) == key
    }

    /// Encode as `ofp_match` (type=1/OXM, padded to 8 bytes).
    pub fn encode(&self, out: &mut BytesMut) {
        let start = out.len();
        out.put_u16(1); // OFPMT_OXM
        let len = wire::reserve_u16(out);
        for f in &self.fields {
            f.encode(out);
        }
        wire::patch_u16(out, len, start);
        wire::pad8(out, start);
    }

    /// Decode an `ofp_match` from the front of `buf`, consuming padding.
    pub fn decode(buf: &mut &[u8]) -> Result<Match> {
        let ty = buf.u16()?;
        let len = usize::from(buf.u16()?);
        if ty != 1 {
            return Err(Error::Malformed("only OXM matches supported"));
        }
        if len < 4 {
            return Err(Error::Malformed("match length below header"));
        }
        let fields = buf.take(len - 4)?.items(OxmField::decode)?;
        buf.skip((8 - len % 8) % 8)?;
        Ok(Match { fields })
    }
}

/// Mask helper for [`MacAddr`] used by `to_key_mask`.
trait MaskedMac {
    fn masked_with(&self, m: &MacAddr) -> MacAddr;
}

impl MaskedMac for MacAddr {
    fn masked_with(&self, m: &MacAddr) -> MacAddr {
        let mut out = self.0;
        out.iter_mut().zip(m.0).for_each(|(b, m)| *b &= m);
        MacAddr(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::builder;

    fn round_trip(m: &Match) -> Match {
        let mut buf = BytesMut::new();
        m.encode(&mut buf);
        assert_eq!(buf.len() % 8, 0, "ofp_match must be 8-byte aligned");
        let mut slice = &buf[..];
        let out = Match::decode(&mut slice).unwrap();
        assert!(slice.is_empty(), "decode must consume everything");
        out
    }

    #[test]
    fn empty_match_round_trip() {
        let m = Match::any();
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn typical_acl_match_round_trip() {
        let m = Match::new()
            .in_port(3)
            .eth_type(0x0800)
            .ipv4_src_masked(Ipv4Addr::new(10, 1, 0, 0), Ipv4Addr::new(255, 255, 0, 0))
            .ip_proto(6)
            .tcp_dst(80);
        assert_eq!(round_trip(&m), m);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn vlan_translator_match_round_trip() {
        let m = Match::new().in_port(1).vlan(101);
        assert_eq!(round_trip(&m), m);
        let any = Match::new().any_vlan();
        assert_eq!(round_trip(&any), any);
    }

    #[test]
    fn validate_rejects_missing_prereqs() {
        assert!(Match::new().tcp_dst(80).validate().is_err());
        assert!(Match::new()
            .eth_type(0x0800)
            .tcp_dst(80)
            .validate()
            .is_err());
        assert!(Match::new()
            .eth_type(0x0800)
            .ip_proto(6)
            .tcp_dst(80)
            .validate()
            .is_ok());
        assert!(Match::new()
            .ipv4_src(Ipv4Addr::new(1, 2, 3, 4))
            .validate()
            .is_err());
        assert!(Match::new().with(OxmField::VlanPcp(3)).validate().is_err());
        assert!(Match::new()
            .vlan(5)
            .with(OxmField::VlanPcp(3))
            .validate()
            .is_ok());
        // Untagged + PCP is contradictory.
        assert!(Match::new()
            .untagged()
            .with(OxmField::VlanPcp(3))
            .validate()
            .is_err());
    }

    #[test]
    fn validate_rejects_duplicates() {
        assert!(Match::new().in_port(1).in_port(2).validate().is_err());
    }

    #[test]
    fn matches_against_extracted_key() {
        let frame = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(10, 9, 9, 9),
            5555,
            53,
            b"x",
        );
        let key = FlowKey::extract(7, &frame).unwrap();
        assert!(Match::new().in_port(7).matches(&key));
        assert!(Match::new().eth_type(0x0800).udp_dst(53).matches(&key));
        assert!(!Match::new().eth_type(0x0800).udp_dst(54).matches(&key));
        assert!(Match::new()
            .ipv4_src_masked(Ipv4Addr::new(10, 1, 0, 0), Ipv4Addr::new(255, 255, 0, 0))
            .matches(&key));
        assert!(!Match::new()
            .ipv4_src_masked(Ipv4Addr::new(10, 2, 0, 0), Ipv4Addr::new(255, 255, 0, 0))
            .matches(&key));
        assert!(Match::new().untagged().matches(&key));
        assert!(!Match::new().vlan(101).matches(&key));
    }

    #[test]
    fn masked_fields_round_trip() {
        let m = Match::new()
            .with(OxmField::EthDst(
                MacAddr::host(5),
                Some(MacAddr([0xff, 0xff, 0, 0, 0, 0])),
            ))
            .with(OxmField::Metadata(0xdead_beef, Some(0xffff_ffff)))
            .with(OxmField::Ipv6Dst(
                Ipv6Addr::from(0x1234u128),
                Some(Ipv6Addr::from(u128::MAX)),
            ));
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut buf = &[0u8, 2, 0, 4][..]; // type 2 is not OXM
        assert!(Match::decode(&mut buf).is_err());
        let mut buf = &[0u8, 1][..];
        assert_eq!(Match::decode(&mut buf).unwrap_err(), Error::Truncated);
        // Claimed length beyond the buffer.
        let mut buf = &[0u8, 1, 0, 20, 0, 0][..];
        assert_eq!(Match::decode(&mut buf).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn oxm_field_decode_rejects_masked_in_port() {
        let mut buf = BytesMut::new();
        buf.put_u16(OXM_CLASS_BASIC);
        buf.put_u8(1); // IN_PORT with HM bit
        buf.put_u8(8);
        buf.put_u32(1);
        buf.put_u32(0xffff_ffff);
        let mut s = &buf[..];
        assert!(OxmField::decode(&mut s).is_err());
    }

    #[test]
    fn to_key_mask_normalizes_value_under_mask() {
        // Value bits outside the mask must be cleared so lookup works.
        let m = Match::new().with(OxmField::Ipv4Src(
            Ipv4Addr::new(10, 1, 2, 3),
            Some(Ipv4Addr::new(255, 255, 0, 0)),
        ));
        let (key, mask) = m.to_key_mask();
        assert_eq!(key.ipv4_src, u32::from(Ipv4Addr::new(10, 1, 0, 0)));
        assert_eq!(mask.ipv4_src, 0xffff_0000);
    }
}
