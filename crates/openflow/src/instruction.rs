//! OpenFlow 1.3 instructions (§7.2.4).

use std::fmt;

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
        Ok(match Tlv::read(buf)? {
            Tlv::GotoTable(t) => Instruction::GotoTable(t),
            Tlv::WriteMetadata { metadata, mask } => Instruction::WriteMetadata { metadata, mask },
            Tlv::WriteActions(a) => Instruction::WriteActions(a.items(Action::decode)?),
            Tlv::ApplyActions(a) => Instruction::ApplyActions(a.items(Action::decode)?),
            Tlv::ClearActions => Instruction::ClearActions,
            Tlv::Meter(id) => Instruction::Meter(id),
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

/// One instruction TLV as a received message holds it, its actions
/// still wire bytes: what every reader of an instruction reads first.
#[derive(Debug, Clone, Copy)]
enum Tlv<'a> {
    GotoTable(u8),
    WriteMetadata { metadata: u64, mask: u64 },
    WriteActions(&'a [u8]),
    ApplyActions(&'a [u8]),
    ClearActions,
    Meter(u32),
}

impl<'a> Tlv<'a> {
    /// Read one instruction's TLV from the front of `buf`; its actions
    /// are not read.
    fn read(buf: &mut &'a [u8]) -> Result<Tlv<'a>> {
        let ty = buf.u16()?;
        let len = usize::from(buf.u16()?);
        if len < 8 {
            return Err(Error::Malformed("instruction too short"));
        }
        let mut body = buf.take(len - 4)?;
        Ok(match ty {
            1 => Tlv::GotoTable(body.u8()?),
            2 => {
                body.skip(4)?;
                Tlv::WriteMetadata {
                    metadata: body.u64()?,
                    mask: body.u64()?,
                }
            }
            3 | 4 => {
                body.skip(4)?;
                if ty == 3 {
                    Tlv::WriteActions(body)
                } else {
                    Tlv::ApplyActions(body)
                }
            }
            5 => Tlv::ClearActions,
            6 => Tlv::Meter(body.u32()?),
            _ => return Err(Error::Malformed("unknown instruction type")),
        })
    }
}

/// The instruction list of a received flow-mod where the message holds
/// it, checked when it is parsed: every instruction and action is one
/// [`Instruction::decode`] reads, so reading them again cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct WireInstructions<'a> {
    bytes: &'a [u8],
    /// How many instructions they hold.
    len: usize,
    /// The ops of the [`Program`] they make.
    ops: usize,
}

impl<'a> WireInstructions<'a> {
    /// Check the instructions that fill `bytes`, in order: each TLV,
    /// then its actions, failing where [`Instruction::decode`] fails.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<WireInstructions<'a>> {
        let (mut rest, mut insns, mut operands) = (bytes, 0usize, 0);
        while !rest.is_empty() {
            insns += 1;
            operands += match Tlv::read(&mut rest)? {
                Tlv::WriteActions(mut a) | Tlv::ApplyActions(mut a) => {
                    let mut n = 0;
                    while !a.is_empty() {
                        Action::decode(&mut a)?;
                        n += 1;
                    }
                    n
                }
                Tlv::WriteMetadata { .. } => 1,
                Tlv::GotoTable(_) | Tlv::ClearActions | Tlv::Meter(_) => 0,
            };
        }
        // Every instruction after the first is a head op.
        let ops = operands + insns.saturating_sub(1);
        Ok(WireInstructions {
            bytes,
            len: insns,
            ops,
        })
    }

    fn tlvs(&self) -> impl Iterator<Item = Tlv<'a>> {
        let mut rest = self.bytes;
        std::iter::from_fn(move || (!rest.is_empty()).then(|| Tlv::read(&mut rest).ok())?)
    }

    /// The owned instruction list.
    pub fn to_vec(&self) -> Vec<Instruction> {
        let mut rest = self.bytes;
        let mut insns = Vec::with_capacity(self.len);
        insns.extend(std::iter::from_fn(|| {
            (!rest.is_empty()).then(|| Instruction::decode(&mut rest).ok())?
        }));
        insns
    }
}

/// The actions in `bytes`, checked already, in order.
fn actions(mut bytes: &[u8]) -> impl Iterator<Item = Action> + '_ {
    std::iter::from_fn(move || (!bytes.is_empty()).then(|| Action::decode(&mut bytes).ok())?)
}

/// An instruction list as a flow entry keeps it: one exact-size block
/// holding every instruction's actions, with each instruction's kind
/// and action count as a small head beside them. The first head sits
/// in the program itself, so a one-instruction rule — every rule a
/// controller here installs — is that instruction's actions and
/// nothing else on the heap. Read it through [`Program::iter`].
#[derive(Clone)]
pub struct Program {
    /// The first instruction's head; `None` for an empty list.
    first: Option<Head>,
    /// The first instruction's operands, then every later instruction's
    /// head followed by its operands.
    ops: Box<[Op]>,
}

/// An instruction's kind, with the operand that fits beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Head {
    GotoTable(u8),
    /// Its operand is the [`Op::Metadata`] that follows.
    WriteMetadata,
    /// Its actions are the `n` ops that follow.
    WriteActions(u32),
    ApplyActions(u32),
    ClearActions,
    Meter(u32),
}

#[derive(Debug, Clone)]
enum Op {
    Action(Action),
    Head(Head),
    Metadata { metadata: u64, mask: u64 },
}

// A head or a metadata operand takes an action's room, not more, and
// a program's 24 bytes keep a `FlowEntry` at 192.
const _: () = assert!(std::mem::size_of::<Op>() == std::mem::size_of::<Action>());
const _: () = assert!(std::mem::size_of::<Program>() == 24);

impl Head {
    fn of(insn: &Instruction) -> Head {
        let count = |actions: &Vec<Action>| {
            u32::try_from(actions.len()).expect("fewer than 2^32 actions in an instruction")
        };
        match insn {
            Instruction::GotoTable(t) => Head::GotoTable(*t),
            Instruction::WriteMetadata { .. } => Head::WriteMetadata,
            Instruction::WriteActions(a) => Head::WriteActions(count(a)),
            Instruction::ApplyActions(a) => Head::ApplyActions(count(a)),
            Instruction::ClearActions => Head::ClearActions,
            Instruction::Meter(id) => Head::Meter(*id),
        }
    }

    /// How many ops after the head belong to its instruction.
    fn operands(self) -> usize {
        match self {
            Head::WriteActions(n) | Head::ApplyActions(n) => n as usize,
            Head::WriteMetadata => 1,
            Head::GotoTable(_) | Head::ClearActions | Head::Meter(_) => 0,
        }
    }
}

impl Program {
    /// The program of `insns`, allocated once at its exact size.
    pub fn new(insns: &[Instruction]) -> Program {
        let heads = insns.len().saturating_sub(1);
        let operands: usize = insns.iter().map(|i| Head::of(i).operands()).sum();
        let mut ops = Vec::with_capacity(heads + operands);
        for (n, insn) in insns.iter().enumerate() {
            if n > 0 {
                ops.push(Op::Head(Head::of(insn)));
            }
            match insn {
                Instruction::WriteActions(a) | Instruction::ApplyActions(a) => {
                    ops.extend(a.iter().cloned().map(Op::Action));
                }
                &Instruction::WriteMetadata { metadata, mask } => {
                    ops.push(Op::Metadata { metadata, mask });
                }
                _ => {}
            }
        }
        Program {
            first: insns.first().map(Head::of),
            ops: ops.into_boxed_slice(),
        }
    }

    /// The program of a received flow-mod's instructions, read where
    /// the message holds them and allocated once at its exact size:
    /// [`Program::new`] of their decoded list, with no list between.
    pub fn from_wire(insns: &WireInstructions<'_>) -> Program {
        let mut ops = Vec::with_capacity(insns.ops);
        let mut first = None;
        for tlv in insns.tlvs() {
            // A later instruction's head goes in front of its operands,
            // once they are counted.
            let at = ops.len();
            if first.is_some() {
                ops.push(Op::Head(Head::ClearActions));
            }
            let mut push_actions = |a| {
                let before = ops.len();
                ops.extend(actions(a).map(Op::Action));
                u32::try_from(ops.len() - before)
                    .expect("fewer than 2^32 actions in an instruction")
            };
            let head = match tlv {
                Tlv::GotoTable(t) => Head::GotoTable(t),
                Tlv::WriteMetadata { metadata, mask } => {
                    ops.push(Op::Metadata { metadata, mask });
                    Head::WriteMetadata
                }
                Tlv::WriteActions(a) => Head::WriteActions(push_actions(a)),
                Tlv::ApplyActions(a) => Head::ApplyActions(push_actions(a)),
                Tlv::ClearActions => Head::ClearActions,
                Tlv::Meter(id) => Head::Meter(id),
            };
            if first.is_none() {
                first = Some(head);
            } else if let Some(op) = ops.get_mut(at) {
                *op = Op::Head(head);
            }
        }
        Program {
            first,
            ops: ops.into_boxed_slice(),
        }
    }

    /// The instructions, in order, borrowed.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            head: self.first,
            ops: &self.ops,
        }
    }

    /// The instruction list this program was built from.
    pub fn to_vec(&self) -> Vec<Instruction> {
        self.iter().map(InstructionRef::to_instruction).collect()
    }
}

/// Prints as the `Vec<Instruction>` it was built from prints.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = InstructionRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The instructions of a [`Program`], in order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    head: Option<Head>,
    ops: &'a [Op],
}

impl<'a> Iterator for Iter<'a> {
    type Item = InstructionRef<'a>;

    fn next(&mut self) -> Option<InstructionRef<'a>> {
        let head = self.head.take()?;
        let (operands, rest) = self.ops.split_at(head.operands());
        if let [Op::Head(next), rest @ ..] = rest {
            (self.head, self.ops) = (Some(*next), rest);
        }
        Some(match (head, operands) {
            (Head::GotoTable(t), _) => InstructionRef::GotoTable(t),
            (Head::WriteMetadata, &[Op::Metadata { metadata, mask }]) => {
                InstructionRef::WriteMetadata { metadata, mask }
            }
            (Head::WriteActions(_), _) => InstructionRef::WriteActions(Actions(operands)),
            (Head::ApplyActions(_), _) => InstructionRef::ApplyActions(Actions(operands)),
            (Head::ClearActions, _) => InstructionRef::ClearActions,
            (Head::Meter(id), _) => InstructionRef::Meter(id),
            (Head::WriteMetadata, _) => unreachable!("a write-metadata head precedes its operand"),
        })
    }
}

/// One instruction of a [`Program`], borrowed: [`Instruction`] with
/// its actions in place. Its `Debug` is [`Instruction`]'s.
#[derive(Debug, Clone, Copy)]
pub enum InstructionRef<'a> {
    /// See [`Instruction::GotoTable`].
    GotoTable(u8),
    /// See [`Instruction::WriteMetadata`].
    WriteMetadata {
        /// New metadata bits.
        metadata: u64,
        /// Which bits to write.
        mask: u64,
    },
    /// See [`Instruction::WriteActions`].
    WriteActions(Actions<'a>),
    /// See [`Instruction::ApplyActions`].
    ApplyActions(Actions<'a>),
    /// See [`Instruction::ClearActions`].
    ClearActions,
    /// See [`Instruction::Meter`].
    Meter(u32),
}

impl InstructionRef<'_> {
    /// The owned instruction.
    pub fn to_instruction(self) -> Instruction {
        match self {
            InstructionRef::GotoTable(t) => Instruction::GotoTable(t),
            InstructionRef::WriteMetadata { metadata, mask } => {
                Instruction::WriteMetadata { metadata, mask }
            }
            InstructionRef::WriteActions(a) => Instruction::WriteActions(a.to_vec()),
            InstructionRef::ApplyActions(a) => Instruction::ApplyActions(a.to_vec()),
            InstructionRef::ClearActions => Instruction::ClearActions,
            InstructionRef::Meter(id) => Instruction::Meter(id),
        }
    }
}

/// The actions of one instruction of a [`Program`], in order. Its
/// `Debug` is a `Vec<Action>`'s.
#[derive(Clone, Copy)]
pub struct Actions<'a>(&'a [Op]);

impl<'a> Actions<'a> {
    /// The actions, in order.
    pub fn iter(self) -> ActionIter<'a> {
        ActionIter(self.0.iter())
    }

    /// The actions, owned.
    pub fn to_vec(self) -> Vec<Action> {
        self.iter().cloned().collect()
    }
}

/// The iterator of [`Actions`].
#[derive(Debug, Clone)]
pub struct ActionIter<'a>(std::slice::Iter<'a, Op>);

fn action(op: &Op) -> &Action {
    match op {
        Op::Action(a) => a,
        _ => unreachable!("an instruction's actions are actions"),
    }
}

impl<'a> Iterator for ActionIter<'a> {
    type Item = &'a Action;

    fn next(&mut self) -> Option<&'a Action> {
        self.0.next().map(action)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for ActionIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(action)
    }
}

impl ExactSizeIterator for ActionIter<'_> {}

impl<'a> IntoIterator for Actions<'a> {
    type Item = &'a Action;
    type IntoIter = ActionIter<'a>;

    fn into_iter(self) -> ActionIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Actions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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

    /// A one-instruction program is its actions; every later
    /// instruction adds its head, and a write-metadata its operand.
    #[test]
    fn a_program_holds_one_op_per_action_and_later_head() {
        let route = Instruction::apply(vec![Action::PopVlan, Action::output(2)]);
        let p = Program::new(&route);
        assert_eq!((p.first, p.ops.len()), (Some(Head::ApplyActions(2)), 2));
        assert_eq!(p.to_vec(), route);
        let every = vec![
            Instruction::Meter(7),
            Instruction::ApplyActions(vec![Action::output(1)]),
            Instruction::ClearActions,
            Instruction::WriteActions(vec![]),
            Instruction::WriteMetadata {
                metadata: 0xdead,
                mask: 0xffff,
            },
            Instruction::GotoTable(3),
        ];
        let p = Program::new(&every);
        assert_eq!(p.ops.len(), 5 + 1 + 1);
        assert_eq!(p.to_vec(), every);
        assert_eq!(format!("{p:?}"), format!("{every:?}"));
        let empty = Program::new(&[]);
        assert!(empty.iter().next().is_none() && empty.ops.is_empty());
        assert_eq!(format!("{empty:?}"), "[]");
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
