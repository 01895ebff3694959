//! OpenFlow 1.3 actions (§7.2.5).

use bytes::BytesMut;

use crate::oxm::OxmField;
use crate::wire::{self, wire_enum, wire_union, ListItem, Wire};
use crate::{Error, Result};

/// Default `max_len` for controller output actions.
pub const DEFAULT_MAX_LEN: u16 = 0xffe5; // OFPCML_MAX

/// Experimenter id carried by this stack's experimenter actions (the
/// stateful-NAT action below). Spells "HARM" in ASCII.
pub const HARMLESS_EXPERIMENTER: u32 = 0x4841_524d;

wire_enum! {
    /// Which way the stateful NAT stage translates (see
    /// [`Action::Nat`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum NatDir: u16 {
        /// Outbound: source-translate to the datapath's external address,
        /// allocating per-connection state on first packet.
        Egress = 0,
        /// Inbound: reverse-translate the destination back to the internal
        /// host; packets with no live connection state are dropped.
        Ingress = 1,
    } else Error::Malformed("unknown NAT subtype")
}

/// An OpenFlow action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port (physical or reserved, see [`crate::port_no`]).
    Output {
        /// Egress port number.
        port: u32,
        /// Bytes to send to the controller when `port` is CONTROLLER.
        max_len: u16,
    },
    /// Process through a group.
    Group(u32),
    /// Set the egress queue.
    SetQueue(u32),
    /// Push a new outermost 802.1Q tag with the given TPID (0x8100/0x88a8).
    PushVlan(u16),
    /// Pop the outermost VLAN tag.
    PopVlan,
    /// Rewrite a header field.
    SetField(OxmField),
    /// Decrement the IPv4 TTL (incremental checksum update in the
    /// datapath); an expired packet is dropped and answered with ICMP
    /// time-exceeded instead of forwarded.
    DecNwTtl,
    /// Run the packet through the datapath's stateful NAT stage
    /// (experimenter action, id [`HARMLESS_EXPERIMENTER`]).
    Nat(NatDir),
}

// A set-field action is its field: no wider than an `OxmField`.
const _: () = assert!(std::mem::size_of::<Action>() == 40);

impl Action {
    /// Shorthand for a plain output action.
    pub fn output(port: u32) -> Action {
        Action::Output {
            port,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Shorthand for "punt the whole packet to the controller".
    pub fn to_controller() -> Action {
        Action::Output {
            port: crate::port_no::CONTROLLER,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Shorthand for setting the VLAN id of the outermost tag (OF
    /// convention: the OXM value carries the PRESENT bit).
    pub fn set_vlan_vid(vid: u16) -> Action {
        Action::SetField(OxmField::VlanVid(
            netpkt::flowkey::OFPVID_PRESENT | vid,
            None,
        ))
    }
}

/// Action type codes (`ofp_action_type`).
mod ty {
    pub const OUTPUT: u16 = 0;
    pub const PUSH_VLAN: u16 = 17;
    pub const POP_VLAN: u16 = 18;
    pub const SET_QUEUE: u16 = 21;
    pub const GROUP: u16 = 22;
    pub const DEC_NW_TTL: u16 = 24;
    pub const SET_FIELD: u16 = 25;
    pub const EXPERIMENTER: u16 = 0xffff;
}

wire_union! {
    impl<'a> Action, kind: u16, unknown _ => Error::Malformed("unknown action type");
    ty::OUTPUT => Output { port: u32, max_len: u16 },
    ty::GROUP => Group(u32),
    ty::SET_QUEUE => SetQueue(u32),
    ty::PUSH_VLAN => PushVlan(u16),
    ty::POP_VLAN => PopVlan,
    ty::DEC_NW_TTL => DecNwTtl,
    ty::SET_FIELD => SetField(OxmField),
    ty::EXPERIMENTER => Nat(Harmless),
}

impl Wire<'_> for Action {
    fn put(a: &Action, out: &mut BytesMut) {
        wire::put_tlv(out, a.kind(), |out| a.put_body(out));
    }
    fn get(buf: &mut &[u8]) -> Result<Action> {
        let (kind, mut body) = wire::get_tlv(
            buf,
            |len| len >= 8 && len % 8 == 0,
            "action length must be a positive multiple of 8",
        )?;
        Action::get_body(kind, &mut body)
    }
}

impl ListItem for Action {
    const MIN_LEN: usize = 8;
}

/// The body of this stack's one experimenter action: its experimenter
/// id, then the NAT direction.
struct Harmless;

impl Wire<'_, NatDir> for Harmless {
    fn put(dir: &NatDir, out: &mut BytesMut) {
        u32::put(&HARMLESS_EXPERIMENTER, out);
        NatDir::put(dir, out);
    }
    fn get(buf: &mut &[u8]) -> Result<NatDir> {
        if u32::get(buf)? != HARMLESS_EXPERIMENTER {
            return Err(Error::Malformed("unknown experimenter action"));
        }
        NatDir::get(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::MacAddr;

    use bytes::BufMut;

    fn round_trip(a: &Action) -> Action {
        let mut buf = BytesMut::new();
        Action::put(a, &mut buf);
        assert_eq!(buf.len() % 8, 0, "actions must be 8-byte aligned");
        let mut s = &buf[..];
        let out = Action::get(&mut s).unwrap();
        assert!(s.is_empty());
        out
    }

    #[test]
    fn all_actions_round_trip() {
        for a in [
            Action::output(7),
            Action::to_controller(),
            Action::Group(42),
            Action::SetQueue(3),
            Action::PushVlan(0x8100),
            Action::PopVlan,
            Action::set_vlan_vid(101),
            Action::SetField(OxmField::EthDst(MacAddr::host(9), None)),
            Action::SetField(OxmField::Ipv4Dst("10.0.0.9".parse().unwrap(), None)),
            Action::DecNwTtl,
            Action::Nat(NatDir::Egress),
            Action::Nat(NatDir::Ingress),
        ] {
            assert_eq!(round_trip(&a), a);
        }
    }

    #[test]
    fn foreign_experimenter_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(0xffff);
        buf.put_u16(16);
        buf.put_u32(0xdead_beef); // not our experimenter id
        buf.put_u16(0);
        buf.put_bytes(0, 6);
        let mut s = &buf[..];
        assert!(Action::get(&mut s).is_err());
    }

    #[test]
    fn list_round_trip() {
        let list = vec![
            Action::set_vlan_vid(102),
            Action::output(1),
            Action::PopVlan,
        ];
        let mut buf = BytesMut::new();
        <Vec<Action>>::put(&list, &mut buf);
        let mut s = &buf[..];
        let got = <Vec<Action>>::get(&mut s).unwrap();
        assert_eq!(got, list);
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        // length not multiple of 8
        let mut s = &[0u8, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0][..];
        assert!(Action::get(&mut s).is_err());
        // truncated
        let mut s = &[0u8, 0, 0, 16, 0, 0][..];
        assert_eq!(Action::get(&mut s).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn unknown_action_type_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(0x7777);
        buf.put_u16(8);
        buf.put_u32(0);
        let mut s = &buf[..];
        assert!(Action::get(&mut s).is_err());
    }
}
