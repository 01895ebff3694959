//! OpenFlow 1.3 instructions (§7.2.4).

use bytes::{BufMut, BytesMut};

use crate::action::Action;
use crate::wire::{put_tlv, Cursor};
use crate::{Error, Result};

/// An instruction attached to a flow entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Continue matching in a later table.
    GotoTable(u8),
    /// Update the pipeline metadata register:
    /// `metadata = (metadata & !mask) | (value & mask)`.
    WriteMetadata {
        /// New metadata bits.
        metadata: u64,
        /// Which bits to write.
        mask: u64,
    },
    /// Merge actions into the action set.
    WriteActions(Vec<Action>),
    /// Execute actions immediately, in order.
    ApplyActions(Vec<Action>),
    /// Empty the action set.
    ClearActions,
    /// Send the packet through a meter first.
    Meter(u32),
}

impl Instruction {
    /// Append the wire form to `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Instruction::GotoTable(t) => put_tlv(out, 1, |out| out.put_u8(*t)),
            Instruction::WriteMetadata { metadata, mask } => put_tlv(out, 2, |out| {
                out.put_bytes(0, 4);
                out.put_u64(*metadata);
                out.put_u64(*mask);
            }),
            Instruction::WriteActions(actions) => put_tlv(out, 3, |out| {
                out.put_bytes(0, 4);
                Action::encode_list(actions, out);
            }),
            Instruction::ApplyActions(actions) => put_tlv(out, 4, |out| {
                out.put_bytes(0, 4);
                Action::encode_list(actions, out);
            }),
            Instruction::ClearActions => put_tlv(out, 5, |out| out.put_bytes(0, 4)),
            Instruction::Meter(id) => put_tlv(out, 6, |out| out.put_u32(*id)),
        }
    }

    /// Decode one instruction from the front of `buf`.
    pub fn decode(buf: &mut &[u8]) -> Result<Instruction> {
        let ty = buf.u16()?;
        let len = usize::from(buf.u16()?);
        if len < 8 {
            return Err(Error::Malformed("instruction too short"));
        }
        let mut body = buf.take(len - 4)?;
        Ok(match ty {
            1 => Instruction::GotoTable(body.u8()?),
            2 => {
                body.skip(4)?;
                Instruction::WriteMetadata {
                    metadata: body.u64()?,
                    mask: body.u64()?,
                }
            }
            3 | 4 => {
                body.skip(4)?;
                let actions = body.items(Action::decode)?;
                if ty == 3 {
                    Instruction::WriteActions(actions)
                } else {
                    Instruction::ApplyActions(actions)
                }
            }
            5 => Instruction::ClearActions,
            6 => Instruction::Meter(body.u32()?),
            _ => return Err(Error::Malformed("unknown instruction type")),
        })
    }

    /// Encode a list of instructions.
    pub fn encode_list(insns: &[Instruction], out: &mut BytesMut) {
        for i in insns {
            i.encode(out);
        }
    }

    /// Decode exactly `len` bytes of instructions.
    pub fn decode_list(buf: &mut &[u8], len: usize) -> Result<Vec<Instruction>> {
        buf.take(len)?.items(Instruction::decode)
    }

    /// Convenience: a single apply-actions instruction.
    pub fn apply(actions: Vec<Action>) -> Vec<Instruction> {
        vec![Instruction::ApplyActions(actions)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(i: &Instruction) -> Instruction {
        let mut buf = BytesMut::new();
        i.encode(&mut buf);
        let mut s = &buf[..];
        let out = Instruction::decode(&mut s).unwrap();
        assert!(s.is_empty());
        out
    }

    #[test]
    fn all_instructions_round_trip() {
        for i in [
            Instruction::GotoTable(3),
            Instruction::WriteMetadata {
                metadata: 0xdead,
                mask: 0xffff,
            },
            Instruction::WriteActions(vec![Action::output(1)]),
            Instruction::ApplyActions(vec![Action::PopVlan, Action::output(2)]),
            Instruction::ApplyActions(vec![]),
            Instruction::ClearActions,
            Instruction::Meter(7),
        ] {
            assert_eq!(round_trip(&i), i);
        }
    }

    #[test]
    fn list_round_trip() {
        let list = vec![
            Instruction::ApplyActions(vec![Action::set_vlan_vid(101)]),
            Instruction::GotoTable(1),
        ];
        let mut buf = BytesMut::new();
        Instruction::encode_list(&list, &mut buf);
        let mut s = &buf[..];
        assert_eq!(Instruction::decode_list(&mut s, buf.len()).unwrap(), list);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(99);
        buf.put_u16(8);
        buf.put_u32(0);
        let mut s = &buf[..];
        assert!(Instruction::decode(&mut s).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let mut s = &[0u8, 2, 0, 24, 0][..];
        assert_eq!(Instruction::decode(&mut s).unwrap_err(), Error::Truncated);
    }
}
