//! OpenFlow 1.3 instructions (§7.2.4).

use std::fmt;

use bytes::BytesMut;

use crate::action::Action;
use crate::wire::{self, wire_union, ListItem, Wire};
use crate::{Error, Result};

/// An instruction attached to a flow entry, its action lists held as
/// `A`: owned in an [`Instruction`], as wire bytes where a received
/// flow-mod holds them, borrowed (`&[Action]`) where a sender builds
/// them on its stack. One layout reads and writes all three.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Insn<A> {
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
    WriteActions(A),
    /// Execute actions immediately, in order.
    ApplyActions(A),
    /// Empty the action set.
    ClearActions,
    /// Send the packet through a meter first.
    Meter(u32),
}

/// An instruction attached to a flow entry.
pub type Instruction = Insn<Vec<Action>>;

/// One instruction as a received message holds it, its actions still
/// wire bytes: what every reader of a received instruction reads first.
type Tlv<'a> = Insn<&'a [u8]>;

/// Instruction type codes (`ofp_instruction_type`).
mod ty {
    pub const GOTO_TABLE: u16 = 1;
    pub const WRITE_METADATA: u16 = 2;
    pub const WRITE_ACTIONS: u16 = 3;
    pub const APPLY_ACTIONS: u16 = 4;
    pub const CLEAR_ACTIONS: u16 = 5;
    pub const METER: u16 = 6;
}

wire_union! {
    impl<'a, A: Wire<'a>> Insn<A>, kind: u16, unknown _ => Error::Malformed("unknown instruction type");
    ty::GOTO_TABLE => GotoTable(u8),
    ty::WRITE_METADATA => WriteMetadata { pad 4, metadata: u64, mask: u64 },
    ty::WRITE_ACTIONS => WriteActions(pad 4, A),
    ty::APPLY_ACTIONS => ApplyActions(pad 4, A),
    ty::CLEAR_ACTIONS => ClearActions { pad 4 },
    ty::METER => Meter(u32),
}

impl<A: wire::Put> Insn<A> {
    /// Append the instruction's TLV: what [`Wire`] writes for an owned
    /// one, and what a flow-mod sent from borrowed parts writes.
    #[inline]
    pub(crate) fn put_tlv(&self, out: &mut BytesMut) {
        wire::put_tlv(out, self.kind(), |out| self.put_body(out));
    }
}

impl<'a, A: Wire<'a>> Wire<'a> for Insn<A> {
    fn put(insn: &Insn<A>, out: &mut BytesMut) {
        insn.put_tlv(out);
    }
    fn get(buf: &mut &'a [u8]) -> Result<Insn<A>> {
        let (kind, mut body) = wire::get_tlv(buf, |len| len >= 8, "instruction too short")?;
        Insn::get_body(kind, &mut body)
    }
}

impl<A> ListItem for Insn<A> {
    const MIN_LEN: usize = 8;
}

/// A borrowed action list is written as the owned one is.
impl wire::Put for &[Action] {
    #[inline]
    fn put(actions: &&[Action], out: &mut BytesMut) {
        actions.iter().for_each(|a| <Action as Wire>::put(a, out));
    }
}

/// What an instruction's actions may be held as when it is sent: a
/// `Vec<Action>` (an owned [`Instruction`]) or a `&[Action]` (one a
/// sender builds on its stack, with no list allocated). Both write the
/// same bytes; nothing outside this crate implements it.
pub trait ActionList: wire::Put + Sized {}

impl ActionList for Vec<Action> {}
impl ActionList for &[Action] {}

impl Instruction {
    /// Convenience: a single apply-actions instruction.
    pub fn apply(actions: Vec<Action>) -> Vec<Instruction> {
        vec![Instruction::ApplyActions(actions)]
    }
}

/// The instruction list of a received flow-mod where the message holds
/// it, checked when it is parsed: every instruction and action is one
/// the owned decode reads, so reading them again cannot fail.
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
    /// then its actions, failing where the owned decode fails.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<WireInstructions<'a>> {
        let (mut rest, mut insns, mut operands) = (bytes, 0usize, 0);
        while !rest.is_empty() {
            insns += 1;
            operands += match Tlv::get(&mut rest)? {
                Insn::WriteActions(mut a) | Insn::ApplyActions(mut a) => {
                    let mut n = 0;
                    while !a.is_empty() {
                        Action::get(&mut a)?;
                        n += 1;
                    }
                    n
                }
                Insn::WriteMetadata { .. } => 1,
                Insn::GotoTable(_) | Insn::ClearActions | Insn::Meter(_) => 0,
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
        std::iter::from_fn(move || (!rest.is_empty()).then(|| Tlv::get(&mut rest).ok())?)
    }

    /// The owned instruction list.
    pub fn to_vec(&self) -> Vec<Instruction> {
        let mut rest = self.bytes;
        let mut insns = Vec::with_capacity(self.len);
        insns.extend(std::iter::from_fn(|| {
            (!rest.is_empty()).then(|| Instruction::get(&mut rest).ok())?
        }));
        insns
    }
}

/// The actions in `bytes`, checked already, in order.
fn actions(mut bytes: &[u8]) -> impl Iterator<Item = Action> + '_ {
    std::iter::from_fn(move || (!bytes.is_empty()).then(|| Action::get(&mut bytes).ok())?)
}

/// An instruction list as a flow entry keeps it: one exact-size block
/// holding every instruction's actions, with each instruction's kind
/// and action count as a small head beside them. The first head sits
/// in the program itself, so a one-instruction rule — every rule a
/// controller here installs — is that instruction's actions and
/// nothing else on the heap. Read it through [`Program::iter`]. Its
/// layout is a function of the list, so two programs built from one
/// list hash alike.
#[derive(Clone, Hash)]
pub struct Program {
    /// The first instruction's head; `None` for an empty list.
    first: Option<Head>,
    /// The first instruction's operands, then every later instruction's
    /// head followed by its operands.
    ops: Box<[Op]>,
}

/// An instruction's kind, with the operand that fits beside it.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
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

#[derive(Debug, Clone, Hash)]
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
                Insn::GotoTable(t) => Head::GotoTable(t),
                Insn::WriteMetadata { metadata, mask } => {
                    ops.push(Op::Metadata { metadata, mask });
                    Head::WriteMetadata
                }
                Insn::WriteActions(a) => Head::WriteActions(push_actions(a)),
                Insn::ApplyActions(a) => Head::ApplyActions(push_actions(a)),
                Insn::ClearActions => Head::ClearActions,
                Insn::Meter(id) => Head::Meter(id),
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

    use bytes::BufMut;

    fn round_trip(i: &Instruction) -> Instruction {
        let mut buf = BytesMut::new();
        Instruction::put(i, &mut buf);
        let mut s = &buf[..];
        let out = Instruction::get(&mut s).unwrap();
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
        <Vec<Instruction>>::put(&list, &mut buf);
        let mut s = &buf[..];
        assert_eq!(<Vec<Instruction>>::get(&mut s).unwrap(), list);
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
        assert!(Instruction::get(&mut s).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let mut s = &[0u8, 2, 0, 24, 0][..];
        assert_eq!(Instruction::get(&mut s).unwrap_err(), Error::Truncated);
    }
}
