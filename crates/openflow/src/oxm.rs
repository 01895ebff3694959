//! OXM (OpenFlow Extensible Match) TLVs and the [`Match`] structure.
//!
//! Only the `OFPXMC_OPENFLOW_BASIC` class is implemented, with the fields a
//! production L2-L4 deployment uses. Each field optionally carries a mask
//! (the `HM` bit), and [`Match`] converts losslessly to the
//! `(FlowKey, FieldMask)` pair used by every dataplane in the workspace.

use bytes::{BufMut, BytesMut};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::BitAnd;

use netpkt::flowkey::{FieldMask, OFPVID_PRESENT};
use netpkt::{FlowKey, MacAddr};

use crate::wire::{self, Cursor, Wire};
use crate::{Error, Result};

/// `OFPXMC_OPENFLOW_BASIC`.
pub const OXM_CLASS_BASIC: u16 = 0x8000;

/// The basic-class fields (OF 1.3 §7.2.3.7) in one table: each one's
/// number, variant and value type, and `mask` where it may carry a
/// mask (the HM bit). The field numbers, [`OxmField`], its `number`
/// and both directions of its value are all read from it.
macro_rules! oxm_fields {
    ($($(#[$doc:meta])* $num:ident = $n:literal => $var:ident($t:ty $(, $mask:ident)?),)*) => {
        /// OXM basic-class field numbers (OF 1.3 §7.2.3.7).
        #[allow(missing_docs)]
        pub mod field_num {
            $(pub const $num: u8 = $n;)*
        }

        /// One OXM match field. Fields with an `Option` second element
        /// support masks (`None` = exact match). Addresses are std's
        /// byte-aligned `Ipv4Addr` / `Ipv6Addr`, so the widest variant, an
        /// IPv6 address and its mask, sets the size.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum OxmField {
            $($(#[$doc])* $var($t $(, oxm_fields!(@mask $mask $t))?),)*
        }

        impl OxmField {
            /// The OXM field number.
            pub fn number(&self) -> u8 {
                match self {
                    $(OxmField::$var(..) => field_num::$num,)*
                }
            }

            #[inline]
            fn has_mask(&self) -> bool {
                match self {
                    $(OxmField::$var(_ $(, $mask)?) => false $(|| $mask.is_some())?,)*
                }
            }

            /// The value, and its mask if it has one.
            fn put_value(&self, out: &mut BytesMut) {
                match self {
                    $(OxmField::$var(v $(, $mask)?) => {
                        <$t>::put(v, out);
                        $(if let Some(m) = $mask {
                            <$t>::put(m, out);
                        })?
                    })*
                }
            }

            /// The value of field `number`, and its mask if `hm` says
            /// one follows.
            fn get_value(number: u8, hm: bool, v: &mut &[u8]) -> Result<OxmField> {
                Ok(match number {
                    $(field_num::$num => OxmField::$var(
                        <$t>::get(v)?
                        $(, {
                            let $mask = if hm { Some(<$t>::get(v)?) } else { None };
                            $mask
                        })?
                    ),)*
                    _ => return Err(Error::Malformed("unknown OXM field")),
                })
            }
        }
    };
    (@mask $mask:ident $t:ty) => { Option<$t> };
}

oxm_fields! {
    /// Ingress port.
    IN_PORT = 0 => InPort(u32),
    /// Pipeline metadata with optional mask.
    METADATA = 2 => Metadata(u64, mask),
    /// Destination MAC with optional mask.
    ETH_DST = 3 => EthDst(MacAddr, mask),
    /// Source MAC with optional mask.
    ETH_SRC = 4 => EthSrc(MacAddr, mask),
    /// EtherType (after VLAN tags).
    ETH_TYPE = 5 => EthType(u16),
    /// VLAN id in OF encoding (`OFPVID_PRESENT | vid`) with optional mask.
    VLAN_VID = 6 => VlanVid(u16, mask),
    /// VLAN priority (requires a tagged match).
    VLAN_PCP = 7 => VlanPcp(u8),
    /// IP DSCP.
    IP_DSCP = 8 => IpDscp(u8),
    /// IP protocol.
    IP_PROTO = 10 => IpProto(u8),
    /// IPv4 source with optional mask.
    IPV4_SRC = 11 => Ipv4Src(Ipv4Addr, mask),
    /// IPv4 destination with optional mask.
    IPV4_DST = 12 => Ipv4Dst(Ipv4Addr, mask),
    /// TCP source port.
    TCP_SRC = 13 => TcpSrc(u16),
    /// TCP destination port.
    TCP_DST = 14 => TcpDst(u16),
    /// UDP source port.
    UDP_SRC = 15 => UdpSrc(u16),
    /// UDP destination port.
    UDP_DST = 16 => UdpDst(u16),
    /// ICMPv4 type.
    ICMPV4_TYPE = 19 => Icmpv4Type(u8),
    /// ICMPv4 code.
    ICMPV4_CODE = 20 => Icmpv4Code(u8),
    /// ARP opcode.
    ARP_OP = 21 => ArpOp(u16),
    /// ARP sender protocol address with optional mask.
    ARP_SPA = 22 => ArpSpa(Ipv4Addr, mask),
    /// ARP target protocol address with optional mask.
    ARP_TPA = 23 => ArpTpa(Ipv4Addr, mask),
    /// IPv6 source with optional mask.
    IPV6_SRC = 26 => Ipv6Src(Ipv6Addr, mask),
    /// IPv6 destination with optional mask.
    IPV6_DST = 27 => Ipv6Dst(Ipv6Addr, mask),
}

// Every rule's match and action blocks, every recorded megaflow program
// and every decoded flow-mod is a run of these: a wider variant should
// fail the build, not widen them all.
const _: () = assert!(std::mem::size_of::<OxmField>() == 40);

/// The TLV: class, field number and HM bit, the value's length, the
/// value. Its length and mask bit are checked after the value is read.
impl Wire<'_> for OxmField {
    fn put(f: &OxmField, out: &mut BytesMut) {
        out.put_u16(OXM_CLASS_BASIC);
        out.put_u8((f.number() << 1) | u8::from(f.has_mask()));
        let len = out.len();
        out.put_u8(0);
        f.put_value(out);
        let value_len = out.len() - len - 1;
        if let Some(field) = out.get_mut(len) {
            *field = value_len as u8;
        }
    }

    fn get(buf: &mut &[u8]) -> Result<OxmField> {
        let class = buf.u16()?;
        let header = buf.u8()?;
        let len = usize::from(buf.u8()?);
        if class != OXM_CLASS_BASIC {
            return Err(Error::Malformed("unsupported OXM class"));
        }
        let mut value = buf.take(len)?;
        let hm = header & 1 == 1;
        let field = Self::get_value(header >> 1, hm, &mut value)?;
        if !value.is_empty() {
            return Err(Error::Malformed("bad OXM length"));
        }
        if field.has_mask() != hm {
            return Err(Error::Malformed("OXM field cannot be masked"));
        }
        Ok(field)
    }
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
        fold(self.fields.iter().copied()).0
    }

    /// Convert to the `(value, mask)` pair used for dataplane lookup.
    pub fn to_key_mask(&self) -> (FlowKey, FieldMask) {
        let (_, key, mask) = fold(self.fields.iter().copied());
        (key, mask)
    }

    /// True if `pkt` (an extracted flow key) satisfies this match.
    pub fn matches(&self, pkt: &FlowKey) -> bool {
        let (key, mask) = self.to_key_mask();
        pkt.masked(&mask) == key
    }

    /// Encode as `ofp_match` (type=1/OXM, padded to 8 bytes).
    pub fn encode(&self, out: &mut BytesMut) {
        put_match(&self.fields, out);
    }

    /// Decode an `ofp_match` from the front of `buf`, consuming padding.
    pub fn decode(buf: &mut &[u8]) -> Result<Match> {
        let mut fields = Vec::new();
        WireMatch::read(buf, Some(&mut fields))?;
        Ok(Match { fields })
    }
}

/// Write `fields` as an `ofp_match` (type 1/OXM, padded to 8 bytes):
/// the one writer of a match, whether a [`Match`] holds the fields or
/// a sender lends them.
#[inline]
pub(crate) fn put_match(fields: &[OxmField], out: &mut BytesMut) {
    let start = out.len();
    out.put_u16(1); // OFPMT_OXM
                    // The length counts the type and itself, not the padding.
    wire::put_sized(out, 4, 0, |out| {
        fields.iter().for_each(|f| OxmField::put(f, out));
    });
    wire::pad8(out, start);
}

/// The shortest OXM field: its 4-byte header and a 1-byte value.
const OXM_MIN_LEN: usize = 5;

impl Wire<'_> for Match {
    fn put(m: &Match, out: &mut BytesMut) {
        m.encode(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Match> {
        Match::decode(buf)
    }
}

/// The OXM fields of an `ofp_match` where a received message holds
/// them, checked when it is parsed: every field is one the owned
/// decode reads, so reading them again cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct WireMatch<'a> {
    /// The OXM TLVs, without the match header and padding.
    tlvs: &'a [u8],
    /// How many fields they hold.
    len: usize,
}

impl<'a> WireMatch<'a> {
    /// Parse an `ofp_match` (type 1/OXM, padded to 8 bytes) from the
    /// front of `buf`, consuming padding.
    pub(crate) fn parse(buf: &mut &'a [u8]) -> Result<WireMatch<'a>> {
        Self::read(buf, None)
    }

    /// [`Self::parse`], and if `owned` is given, each field pushed to it
    /// as it decodes, the vector sized once from the fields' bytes: the
    /// one parser of a match, which [`Match::decode`] collects from.
    fn read(buf: &mut &'a [u8], mut owned: Option<&mut Vec<OxmField>>) -> Result<WireMatch<'a>> {
        let ty = buf.u16()?;
        let len = usize::from(buf.u16()?);
        if ty != 1 {
            return Err(Error::Malformed("only OXM matches supported"));
        }
        if len < 4 {
            return Err(Error::Malformed("match length below header"));
        }
        let tlvs = buf.take(len - 4)?;
        if let Some(owned) = owned.as_mut() {
            owned.reserve_exact(tlvs.len() / OXM_MIN_LEN);
        }
        let (mut rest, mut fields) = (tlvs, 0);
        while !rest.is_empty() {
            let field = OxmField::get(&mut rest)?;
            if let Some(owned) = owned.as_mut() {
                owned.push(field);
            }
            fields += 1;
        }
        buf.skip((8 - len % 8) % 8)?;
        Ok(WireMatch { tlvs, len: fields })
    }

    /// The fields, in author order, decoded as they are read.
    pub fn fields(&self) -> Fields<'a> {
        Fields(self.tlvs)
    }

    /// See [`Match::validate`].
    pub fn validate(&self) -> Result<()> {
        fold(self.fields()).0
    }

    /// See [`Match::to_key_mask`].
    pub fn to_key_mask(&self) -> (FlowKey, FieldMask) {
        let (_, key, mask) = fold(self.fields());
        (key, mask)
    }

    /// The owned match, its fields in one block of exactly their
    /// number.
    pub fn to_owned(self) -> Match {
        let mut fields = Vec::with_capacity(self.len);
        fields.extend(self.fields());
        Match { fields }
    }

    /// [`Self::validate`]'s verdict and [`Self::to_key_mask`]'s pair
    /// from one walk of the fields, and if `keep` is set, the owned
    /// match ([`Self::to_owned`]) collected in the same walk.
    pub(crate) fn checked(self, keep: bool) -> Result<(FlowKey, FieldMask, Option<Match>)> {
        let mut kept = keep.then(|| Vec::with_capacity(self.len));
        let (verdict, key, mask) = fold(self.fields().inspect(|f| {
            if let Some(kept) = kept.as_mut() {
                kept.push(*f);
            }
        }));
        verdict?;
        Ok((key, mask, kept.map(|fields| Match { fields })))
    }
}

/// The fields of a [`WireMatch`], in order.
#[derive(Debug, Clone)]
pub struct Fields<'a>(&'a [u8]);

impl Iterator for Fields<'_> {
    type Item = OxmField;

    fn next(&mut self) -> Option<OxmField> {
        // Checked when the match was parsed: a field that stopped
        // decoding would end the walk, and none does.
        (!self.0.is_empty())
            .then(|| OxmField::get(&mut self.0).ok())
            .flatten()
    }
}

/// Facts a match's fields establish for the prerequisites of others
/// (OF 1.3 §7.2.3.8), one bit each.
const TAGGED: u8 = 1;
const IPV4: u8 = 1 << 1;
const IPV6: u8 = 1 << 2;
const ARP: u8 = 1 << 3;
const TCP: u8 = 1 << 4;
const UDP: u8 = 1 << 5;
const ICMP: u8 = 1 << 6;

/// What field `number` needs: the facts any one of which meets it, and
/// the error of a match that provides none of them.
fn need(number: u8) -> Option<(u8, &'static str)> {
    use field_num::*;
    Some(match number {
        VLAN_PCP => (TAGGED, "VLAN_PCP requires tagged VLAN_VID"),
        IP_PROTO | IP_DSCP => (IPV4 | IPV6, "IP field requires ETH_TYPE ip"),
        IPV4_SRC | IPV4_DST => (IPV4, "IPv4 field requires ETH_TYPE 0x0800"),
        IPV6_SRC | IPV6_DST => (IPV6, "IPv6 field requires ETH_TYPE 0x86dd"),
        TCP_SRC | TCP_DST => (TCP, "TCP field requires IP_PROTO 6"),
        UDP_SRC | UDP_DST => (UDP, "UDP field requires IP_PROTO 17"),
        ICMPV4_TYPE | ICMPV4_CODE => (ICMP, "ICMP field requires IP_PROTO 1"),
        ARP_OP | ARP_SPA | ARP_TPA => (ARP, "ARP field requires ETH_TYPE 0x0806"),
        _ => return None,
    })
}

/// A masked field's value under its mask, and the mask (`full` if the
/// field carries none).
fn under<A: Into<T>, T: Copy + BitAnd<Output = T>>(v: A, m: Option<A>, full: T) -> (T, T) {
    let m = m.map_or(full, Into::into);
    (v.into() & m, m)
}

impl OxmField {
    /// The facts this field provides.
    fn provides(&self) -> u8 {
        match *self {
            OxmField::VlanVid(v, _) if v & OFPVID_PRESENT != 0 => TAGGED,
            OxmField::EthType(0x0800) => IPV4,
            OxmField::EthType(0x86dd) => IPV6,
            OxmField::EthType(0x0806) => ARP,
            OxmField::IpProto(6) => TCP,
            OxmField::IpProto(17) => UDP,
            OxmField::IpProto(1) => ICMP,
            _ => 0,
        }
    }

    /// Set this field's part of a match's `(value, mask)` pair.
    #[inline]
    fn key_into(self, key: &mut FlowKey, mask: &mut FieldMask) {
        let mac = |v: MacAddr, m: Option<MacAddr>| {
            let m = m.unwrap_or(MacAddr([0xff; 6]));
            let mut v = v.0;
            v.iter_mut().zip(m.0).for_each(|(b, m)| *b &= m);
            (MacAddr(v), m)
        };
        let vid = OFPVID_PRESENT | netpkt::VID_MASK;
        match self {
            OxmField::InPort(v) => (key.in_port, mask.in_port) = (v, u32::MAX),
            OxmField::Metadata(v, m) => (key.metadata, mask.metadata) = under(v, m, u64::MAX),
            OxmField::EthDst(v, m) => (key.eth_dst, mask.eth_dst) = mac(v, m),
            OxmField::EthSrc(v, m) => (key.eth_src, mask.eth_src) = mac(v, m),
            OxmField::EthType(v) => (key.eth_type, mask.eth_type) = (v, u16::MAX),
            OxmField::VlanVid(v, m) => (key.vlan_vid, mask.vlan_vid) = under(v, m, vid),
            OxmField::VlanPcp(v) => (key.vlan_pcp, mask.vlan_pcp) = (v, u8::MAX),
            OxmField::IpDscp(v) => (key.ip_dscp, mask.ip_dscp) = (v, u8::MAX),
            OxmField::IpProto(v) => (key.ip_proto, mask.ip_proto) = (v, u8::MAX),
            OxmField::Ipv4Src(v, m) => (key.ipv4_src, mask.ipv4_src) = under(v, m, u32::MAX),
            OxmField::Ipv4Dst(v, m) => (key.ipv4_dst, mask.ipv4_dst) = under(v, m, u32::MAX),
            OxmField::TcpSrc(v) => (key.tcp_src, mask.tcp_src) = (v, u16::MAX),
            OxmField::TcpDst(v) => (key.tcp_dst, mask.tcp_dst) = (v, u16::MAX),
            OxmField::UdpSrc(v) => (key.udp_src, mask.udp_src) = (v, u16::MAX),
            OxmField::UdpDst(v) => (key.udp_dst, mask.udp_dst) = (v, u16::MAX),
            OxmField::Icmpv4Type(v) => (key.icmp_type, mask.icmp_type) = (v, u8::MAX),
            OxmField::Icmpv4Code(v) => (key.icmp_code, mask.icmp_code) = (v, u8::MAX),
            OxmField::ArpOp(v) => (key.arp_op, mask.arp_op) = (v, u16::MAX),
            OxmField::ArpSpa(v, m) => (key.arp_spa, mask.arp_spa) = under(v, m, u32::MAX),
            OxmField::ArpTpa(v, m) => (key.arp_tpa, mask.arp_tpa) = under(v, m, u32::MAX),
            OxmField::Ipv6Src(v, m) => (key.ipv6_src, mask.ipv6_src) = under(v, m, u128::MAX),
            OxmField::Ipv6Dst(v, m) => (key.ipv6_dst, mask.ipv6_dst) = under(v, m, u128::MAX),
        }
    }
}

/// One walk of a match's fields: its verdict under OF 1.3
/// prerequisites (§7.2.3.8) and duplicate fields, and its `(value,
/// mask)` pair, the last of a repeated field winning. The error is the
/// first field, in author order, that repeats one before it or needs a
/// fact no field provides. A prerequisite may follow the field that
/// needs it, so the needs are judged after the walk, each field ahead
/// of the first repeat by where it stands.
pub(crate) fn fold(fields: impl Iterator<Item = OxmField>) -> (Result<()>, FlowKey, FieldMask) {
    let (mut key, mut mask) = (FlowKey::default(), FieldMask::default());
    let (mut seen, mut provided, mut first) = (0u64, 0u8, None);
    // Where each field number stands, ahead of the first repeat.
    let mut at = [0usize; 64];
    for (i, f) in fields.enumerate() {
        provided |= f.provides();
        let n = f.number();
        if first.is_none() {
            if seen & 1 << n != 0 {
                first = Some((i, "duplicate field"));
            } else if let Some(stands) = at.get_mut(usize::from(n)) {
                seen |= 1 << n;
                *stands = i;
            }
        }
        f.key_into(&mut key, &mut mask);
    }
    let mut ahead = seen;
    while ahead != 0 {
        let n = ahead.trailing_zeros();
        ahead &= ahead - 1;
        let unmet = need(n as u8).filter(|(meets, _)| provided & meets == 0);
        if let (Some((_, why)), Some(&i)) = (unmet, at.get(n as usize)) {
            if first.is_none_or(|(j, _)| i < j) {
                first = Some((i, why));
            }
        }
    }
    let verdict = first.map_or(Ok(()), |(_, why)| Err(Error::BadMatch(why)));
    (verdict, key, mask)
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
        assert!(OxmField::get(&mut s).is_err());
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
