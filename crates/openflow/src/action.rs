//! OpenFlow 1.3 actions (§7.2.5).

use bytes::{BufMut, BytesMut};

use crate::oxm::OxmField;
use crate::wire::{put_tlv, Cursor};
use crate::{Error, Result};

/// Default `max_len` for controller output actions.
pub const DEFAULT_MAX_LEN: u16 = 0xffe5; // OFPCML_MAX

/// Experimenter id carried by this stack's experimenter actions (the
/// stateful-NAT action below). Spells "HARM" in ASCII.
pub const HARMLESS_EXPERIMENTER: u32 = 0x4841_524d;

/// Which way the stateful NAT stage translates (see
/// [`Action::Nat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NatDir {
    /// Outbound: source-translate to the datapath's external address,
    /// allocating per-connection state on first packet.
    Egress,
    /// Inbound: reverse-translate the destination back to the internal
    /// host; packets with no live connection state are dropped.
    Ingress,
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

    /// Append the wire form to `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        match *self {
            Action::Output { port, max_len } => put_tlv(out, 0, |out| {
                // OFPAT_OUTPUT
                out.put_u32(port);
                out.put_u16(max_len);
            }),
            Action::Group(id) => put_tlv(out, 22, |out| out.put_u32(id)), // OFPAT_GROUP
            Action::SetQueue(id) => put_tlv(out, 21, |out| out.put_u32(id)), // OFPAT_SET_QUEUE
            Action::PushVlan(tpid) => put_tlv(out, 17, |out| out.put_u16(tpid)), // OFPAT_PUSH_VLAN
            Action::PopVlan => put_tlv(out, 18, |_| {}),                  // OFPAT_POP_VLAN
            Action::SetField(ref f) => put_tlv(out, 25, |out| f.encode(out)), // OFPAT_SET_FIELD
            Action::DecNwTtl => put_tlv(out, 24, |_| {}),                 // OFPAT_DEC_NW_TTL
            Action::Nat(dir) => put_tlv(out, 0xffff, |out| {
                // OFPAT_EXPERIMENTER
                out.put_u32(HARMLESS_EXPERIMENTER);
                out.put_u16(match dir {
                    NatDir::Egress => 0,
                    NatDir::Ingress => 1,
                });
            }),
        }
    }

    /// Decode one action from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<Action> {
        let ty = buf.u16()?;
        let len = usize::from(buf.u16()?);
        if len < 8 || len % 8 != 0 {
            return Err(Error::Malformed(
                "action length must be a positive multiple of 8",
            ));
        }
        let mut body = buf.take(len - 4)?;
        Ok(match ty {
            0 => Action::Output {
                port: body.u32()?,
                max_len: body.u16()?,
            },
            22 => Action::Group(body.u32()?),
            21 => Action::SetQueue(body.u32()?),
            17 => Action::PushVlan(body.u16()?),
            18 => Action::PopVlan,
            24 => Action::DecNwTtl,
            25 => Action::SetField(OxmField::decode(&mut body)?),
            0xffff => {
                if body.u32()? != HARMLESS_EXPERIMENTER {
                    return Err(Error::Malformed("unknown experimenter action"));
                }
                match body.u16()? {
                    0 => Action::Nat(NatDir::Egress),
                    1 => Action::Nat(NatDir::Ingress),
                    _ => return Err(Error::Malformed("unknown NAT subtype")),
                }
            }
            _ => return Err(Error::Malformed("unknown action type")),
        })
    }

    /// Encode a list of actions.
    pub fn encode_list(actions: &[Action], out: &mut BytesMut) {
        for a in actions {
            a.encode(out);
        }
    }

    /// Decode exactly `len` bytes of actions.
    pub fn decode_list(buf: &mut &[u8], len: usize) -> Result<Vec<Action>> {
        buf.take(len)?.items(Action::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::MacAddr;

    fn round_trip(a: &Action) -> Action {
        let mut buf = BytesMut::new();
        a.encode(&mut buf);
        assert_eq!(buf.len() % 8, 0, "actions must be 8-byte aligned");
        let mut s = &buf[..];
        let out = Action::decode(&mut s).unwrap();
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
        assert!(Action::decode(&mut s).is_err());
    }

    #[test]
    fn list_round_trip() {
        let list = vec![
            Action::set_vlan_vid(102),
            Action::output(1),
            Action::PopVlan,
        ];
        let mut buf = BytesMut::new();
        Action::encode_list(&list, &mut buf);
        let mut s = &buf[..];
        let got = Action::decode_list(&mut s, buf.len()).unwrap();
        assert_eq!(got, list);
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        // length not multiple of 8
        let mut s = &[0u8, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0][..];
        assert!(Action::decode(&mut s).is_err());
        // truncated
        let mut s = &[0u8, 0, 0, 16, 0, 0][..];
        assert_eq!(Action::decode(&mut s).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn unknown_action_type_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(0x7777);
        buf.put_u16(8);
        buf.put_u32(0);
        let mut s = &buf[..];
        assert!(Action::decode(&mut s).is_err());
    }
}
