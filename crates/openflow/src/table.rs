//! Flow-table semantics per OpenFlow 1.3 §5.2–5.5 and §6.4: priority
//! ordering, overlap checking, strict/non-strict modify/delete, idle and
//! hard timeouts, and per-entry counters.
//!
//! Entries live in a slab with no order: an entry's index (its *slot*)
//! is where it was pushed, and a delete moves the last entry into the
//! vacated slot — one entry moves, whatever the table's size. Table
//! order (priority descending, then FIFO) is a separate list of slots
//! sorted by each entry's *rank*; the linear lookup, `FLOW_REMOVED`
//! order and sequence-number renumbering walk it. Ranks sit in an array
//! of their own beside the slab, so a binary search of table order
//! reads eight bytes per step, not an entry.
//!
//! The table owns a tuple-space index, kept current by every mutation:
//! entries are grouped by mask, and each group maps a fingerprint of
//! (masked key, priority) straight to the entry's slot, in an
//! open-addressed array of 8-byte buckets. Flow-mods that name a match
//! are one hash probe; [`FlowTable::lookup_indexed`]
//! probes the same groups, one per distinct mask — a table of one rule
//! shape is a single probe, the specialisation ESwitch builds on.
//!
//! A mask is held once, by its group: each slot names its entry's
//! group by a small id in a third array beside the slab, and everything
//! that needs an entry's mask takes it from there. A group no entry
//! uses any more is emptied, and a new mask reuses its id.
//!
//! An index returned by a lookup names a slot, and is valid until the
//! table's next mutation ([`FlowTable::version`] moves with every one).

use netpkt::flowkey::FieldMask;
use netpkt::FlowKey;

use crate::instruction::{InstructionRef, Program};
use crate::oxm::Match;
use crate::wire::wire_enum;
use crate::{Error, Result};

/// A table number within a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TableId(pub u8);

impl core::fmt::Display for TableId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Flow-mod flags (OF 1.3 `ofp_flow_mod_flags`).
pub mod flow_flags {
    /// Send a `FLOW_REMOVED` when this entry dies.
    pub const SEND_FLOW_REM: u16 = 1 << 0;
    /// Reject the add if it overlaps an existing entry of equal priority.
    pub const CHECK_OVERLAP: u16 = 1 << 1;
}

wire_enum! {
    /// `ofp_flow_mod_command`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FlowModCommand: u8 {
        /// Insert (or replace an identical match+priority).
        Add = 0,
        /// Modify instructions of all matching entries.
        Modify = 1,
        /// Modify the entry exactly matching (match, priority).
        ModifyStrict = 2,
        /// Delete all matching entries.
        Delete = 3,
        /// Delete the entry exactly matching (match, priority).
        DeleteStrict = 4,
    } else Error::Malformed("bad flow-mod command")
}

wire_enum! {
    /// Why an entry was removed (for `FLOW_REMOVED`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum RemovedReason: u8 {
        /// Idle timeout expired.
        IdleTimeout = 0,
        /// Hard timeout expired.
        HardTimeout = 1,
        /// Deleted by a flow-mod.
        Delete = 2,
    } else Error::Malformed("bad removed reason")
}

/// One installed flow entry.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// Matching priority; higher wins.
    pub priority: u16,
    /// The authored match (kept for stats encoding).
    pub match_: Match,
    /// Lookup key (the masked value) of the match, set by
    /// [`FlowTable::add`]; its mask is held by the table.
    pub key: FlowKey,
    /// The instruction list executed on a hit, in one exact-size block.
    pub instructions: Program,
    /// Controller-chosen opaque id.
    pub cookie: u64,
    /// Seconds of inactivity before removal (0 = never).
    pub idle_timeout: u16,
    /// Seconds of lifetime before removal (0 = never).
    pub hard_timeout: u16,
    /// `flow_flags` bits.
    pub flags: u16,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
    /// Installation time (ns).
    pub installed_ns: u64,
    /// Last hit time (ns).
    pub last_used_ns: u64,
}

// The slab's slots times this size is most of what a resident rule
// costs (an entry holds no mask: that was 96 of 288 bytes). A wider
// field in an entry should fail the build, not widen every rule.
const _: () = assert!(std::mem::size_of::<FlowEntry>() <= 192);

/// Install sequence numbers occupy the low bits of a rank.
const SEQ_BITS: u32 = 48;

/// An entry's sort key: inverted priority above its install sequence
/// number, so ascending rank is priority-descending, then FIFO.
fn rank(priority: u16, seq: u64) -> u64 {
    (u64::from(!priority) << SEQ_BITS) | seq
}

impl FlowEntry {
    /// Build an entry from a flow-mod's match and program at time
    /// `now_ns`; its lookup key is filled in when a table installs it.
    pub fn new(priority: u16, match_: Match, instructions: Program, now_ns: u64) -> FlowEntry {
        FlowEntry {
            priority,
            match_,
            key: FlowKey::default(),
            instructions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            flags: 0,
            packets: 0,
            bytes: 0,
            installed_ns: now_ns,
            last_used_ns: now_ns,
        }
    }

    /// Builder-style cookie.
    pub fn with_cookie(mut self, c: u64) -> Self {
        self.cookie = c;
        self
    }

    /// Builder-style timeouts (seconds).
    pub fn with_timeouts(mut self, idle: u16, hard: u16) -> Self {
        self.idle_timeout = idle;
        self.hard_timeout = hard;
        self
    }

    /// Builder-style flags.
    pub fn with_flags(mut self, f: u16) -> Self {
        self.flags = f;
        self
    }

    /// True if the entry has an idle or a hard timeout: one that
    /// [`FlowTable::expire`] may remove.
    pub fn is_timed(&self) -> bool {
        self.idle_timeout > 0 || self.hard_timeout > 0
    }

    /// True if the entry outputs to `port` (for delete filters);
    /// `port_no::ANY` matches everything.
    pub fn outputs_to(&self, port: u32) -> bool {
        port == crate::port_no::ANY
            || self.any_action(|a| matches!(a, crate::Action::Output { port: p, .. } if *p == port))
    }

    /// True if the entry forwards to `group`; `group_no::ANY` matches all.
    pub fn outputs_to_group(&self, group: u32) -> bool {
        group == crate::group_no::ANY
            || self.any_action(|a| matches!(a, crate::Action::Group(g) if *g == group))
    }

    /// True if an action of a write- or apply-actions instruction
    /// satisfies `f`.
    fn any_action(&self, f: impl Fn(&crate::Action) -> bool) -> bool {
        self.instructions.iter().any(|i| match i {
            InstructionRef::WriteActions(a) | InstructionRef::ApplyActions(a) => a.iter().any(&f),
            _ => false,
        })
    }
}

/// Which entries a modify, a delete or a flow-stats request selects
/// (OF 1.3 §6.4, §7.3.5.2). Non-strict, every entry inside the match's
/// region — every packet it matches also matches `(key, mask)`;
/// strict, the one with exactly this match and `priority`. Of those,
/// only the entries whose cookie agrees with `cookie` on the bits of
/// `cookie_mask` (a zero mask filters nothing), and that output to
/// `out_port` and `out_group` (`ANY` filters nothing; a modify ignores
/// both).
#[derive(Debug, Clone, Copy)]
pub struct Selector {
    /// The match's lookup key.
    pub key: FlowKey,
    /// The match's mask.
    pub mask: FieldMask,
    /// Priority, for a strict selection.
    pub priority: u16,
    /// Exactly this match and priority, or everything within the match.
    pub strict: bool,
    /// Cookie the selected entries agree with on `cookie_mask`'s bits.
    pub cookie: u64,
    /// Which cookie bits must agree.
    pub cookie_mask: u64,
    /// Output-port filter.
    pub out_port: u32,
    /// Output-group filter.
    pub out_group: u32,
}

impl Selector {
    /// Every entry within `match_`, whatever its cookie and outputs.
    pub fn within(match_: &Match) -> Selector {
        let (key, mask) = match_.to_key_mask();
        Selector {
            key,
            mask,
            priority: 0,
            strict: false,
            cookie: 0,
            cookie_mask: 0,
            out_port: crate::port_no::ANY,
            out_group: crate::group_no::ANY,
        }
    }

    /// The entry with exactly `match_` and `priority`.
    pub fn strict(match_: &Match, priority: u16) -> Selector {
        Selector {
            priority,
            strict: true,
            ..Selector::within(match_)
        }
    }

    /// True if `e`'s cookie and outputs pass the filters.
    fn passes(&self, e: &FlowEntry) -> bool {
        e.cookie & self.cookie_mask == self.cookie & self.cookie_mask
            && e.outputs_to(self.out_port)
            && e.outputs_to_group(self.out_group)
    }
}

/// This crate's unit tests run with every fingerprint equal, so each
/// of them also takes the paths a collision takes; the integration
/// proptests run on whole fingerprints.
const FINGERPRINT_BITS: u64 = if cfg!(test) { 0 } else { u64::MAX };

/// Spreads a rule's priority over a fingerprint's 64 bits (2^64 / φ).
const PRIORITY_SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// An entry's index in [`FlowTable`]'s slab.
type Slot = u32;

/// The slot an empty bucket of a [`FingerprintIndex`] holds.
const VACANT: Slot = Slot::MAX;

/// Vacant buckets behind the last home bucket of a [`FingerprintIndex`],
/// where a run that reaches the end goes on: nothing wraps around.
const TAIL: usize = 8;

/// A mask group's map from tag — the high half of an entry's
/// fingerprint — to its slot: one array of 8-byte `(tag, slot)`
/// buckets, its home buckets at most three quarters full. A tag's home
/// is the tag scaled to the home buckets, so a greater tag never has an
/// earlier home, and the occupied buckets are kept in ascending tag
/// order (linear probing with ordered runs, Amble and Knuth's ordered
/// hash table). An entry sits at its home or behind it in a run of
/// occupied buckets: a probe stops at a vacant bucket or a greater tag,
/// an insert moves the rest of its run up one bucket and a removal moves
/// it back, and the array regrows in one pass that probes nothing. It
/// holds one entry per tag; what a tag names is verified on the entry.
#[derive(Debug, Default)]
struct FingerprintIndex {
    buckets: Vec<(u32, Slot)>,
    /// The buckets a tag can call home: all but the tail.
    homes: usize,
    len: usize,
}

impl FingerprintIndex {
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.homes as u64) >> 32) as usize
    }

    /// The bucket holding `tag`, or else the bucket it would go to.
    fn seek(&self, tag: u32) -> std::result::Result<usize, usize> {
        let mut i = self.home(tag);
        while let Some(&(t, slot)) = self.buckets.get(i) {
            if slot == VACANT || t > tag {
                return Err(i);
            }
            if t == tag {
                return Ok(i);
            }
            i += 1;
        }
        Err(i)
    }

    fn get(&self, tag: u32) -> Option<Slot> {
        self.seek(tag).ok().map(|i| self.buckets[i].1)
    }

    /// Index `slot` under `tag`; false if another entry holds the tag.
    fn insert(&mut self, tag: u32, slot: Slot) -> bool {
        let Err(mut at) = self.seek(tag) else {
            return false;
        };
        if (self.len + 1) * 4 > self.homes * 3 {
            self.grow();
            at = self.seek(tag).expect_err("one entry per tag");
        }
        // The run from `at` on moves up into the vacant bucket ending it.
        let end = match self.buckets[at..].iter().position(|b| b.1 == VACANT) {
            Some(n) => at + n,
            None => self.push_vacant(),
        };
        self.buckets.copy_within(at..end, at + 1);
        self.buckets[at] = (tag, slot);
        self.len += 1;
        true
    }

    /// A vacant bucket after the last, for a run that reached it.
    fn push_vacant(&mut self) -> usize {
        self.buckets.reserve_exact(TAIL);
        self.buckets.push((0, VACANT));
        self.buckets.len() - 1
    }

    /// Grow by an eighth plus 16 home buckets, as the slab does:
    /// doubling would leave a group one rule past a power of two with
    /// nearly twice the buckets its load needs. The entries keep their
    /// order, so each goes to its new home or right behind the one
    /// before it.
    fn grow(&mut self) {
        self.homes += self.homes / 8 + 16;
        let old = std::mem::replace(&mut self.buckets, vec![(0, VACANT); self.homes + TAIL]);
        let mut next = 0;
        // A vacant bucket is `(0, VACANT)`: it is written over the
        // vacant bucket at `next` and takes no room, which keeps the
        // loop free of a branch on vacancy (it halves a regrowth).
        for (tag, slot) in old {
            let at = self.home(tag).max(next);
            if at == self.buckets.len() {
                self.push_vacant();
            }
            self.buckets[at] = (tag, slot);
            next = if slot == VACANT { next } else { at + 1 };
        }
    }

    /// Take `slot` out if it is what `tag` names; false if it is not.
    fn remove(&mut self, tag: u32, slot: Slot) -> bool {
        let Some(at) = self.seek(tag).ok().filter(|&i| self.buckets[i].1 == slot) else {
            return false;
        };
        self.len -= 1;
        // The entries behind it in its run move down one, up to the
        // first that is at its home.
        let mut end = at + 1;
        while let Some(&(t, s)) = self.buckets.get(end) {
            if s == VACANT || self.home(t) == end {
                break;
            }
            end += 1;
        }
        self.buckets.copy_within(at + 1..end, at);
        self.buckets[end - 1] = (0, VACANT);
        true
    }

    /// Point `tag` at `to` if it names `from`; false if it does not.
    fn relabel(&mut self, tag: u32, from: Slot, to: Slot) -> bool {
        match self.seek(tag) {
            Ok(i) if self.buckets[i].1 == from => {
                self.buckets[i].1 = to;
                true
            }
            _ => false,
        }
    }

    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.buckets.iter().map(|b| b.1).filter(|&s| s != VACANT)
    }
}

/// An entry's mask: the index of its group in [`FlowTable`]'s groups.
type MaskId = u32;

/// True if some packet matches both `(a, a_mask)` and `(b, b_mask)`.
/// Values must agree on the intersection of the masks. Keys are already
/// normalized (masked), so cross-masking compares exactly the shared
/// bits.
fn overlap(a: &FlowKey, a_mask: &FieldMask, b: &FlowKey, b_mask: &FieldMask) -> bool {
    a.masked(b_mask) == b.masked(a_mask)
}

/// The entries sharing one mask — the "tuple" of tuple-space search —
/// and the one copy of that mask. A group with no priorities is vacant:
/// it holds the default of every field, allocates nothing, and waits
/// for a new mask to reuse its id.
#[derive(Debug, Default)]
struct MaskGroup {
    mask: FieldMask,
    /// Rank of the group's first entry in table order. Probe order is
    /// sorted by it, so it bounds every later group's entries too.
    first: u64,
    /// Distinct priorities present, highest first, with entry counts.
    prios: Vec<(u16, u32)>,
    /// Tag of (key, priority) → slot. The key itself is not stored a
    /// second time: a probe is verified on the entry it names.
    index: FingerprintIndex,
    /// Slots of entries whose tag was already another entry's.
    spill: Vec<Slot>,
}

impl MaskGroup {
    fn is_vacant(&self) -> bool {
        self.prios.is_empty()
    }
}

/// A single flow table: entries ordered by priority (descending), FIFO
/// within equal priority.
#[derive(Debug)]
pub struct FlowTable {
    id: TableId,
    /// The slab, in no order: a delete moves the last entry into the
    /// vacated slot.
    entries: Vec<FlowEntry>,
    /// The rank of the entry in each slot: see [`rank`].
    ranks: Vec<u64>,
    /// The group of the entry in each slot, which holds its mask.
    masks: Vec<MaskId>,
    /// Every slot, ascending by rank: table order.
    order: Vec<Slot>,
    /// Mask groups by [`MaskId`]: every distinct mask of the installed
    /// entries once, and vacant ids.
    groups: Vec<MaskGroup>,
    /// The ids of the non-vacant groups, ascending by `first`.
    probe_order: Vec<MaskId>,
    /// Seeds [`FlowKey::flow_hash64`] for this table's fingerprints,
    /// derived from the datapath id and the table id ([`table_seed`]).
    /// It moves which keys share a fingerprint from table to table, so
    /// no fixed set of matches spills in every table, and it is the same
    /// in every run: where the index's buckets fall, and so when its
    /// arrays grow, repeats exactly. It does not make the hash a PRF,
    /// and need not: the controller, which authors every key, is
    /// trusted, and a shared fingerprint costs a walk of the spill
    /// list, never a wrong entry.
    seed: u64,
    /// How many entries are timed ([`FlowEntry::is_timed`]): with none,
    /// [`FlowTable::expire`] has nothing to scan for.
    timed: usize,
    next_seq: u64,
    capacity: usize,
    version: u64,
    lookups: u64,
    hits: u64,
}

/// The fingerprint seed of table `id` of datapath `datapath_id`: the
/// pair, packed injectively, through SplitMix64's finalizer, so tables
/// differ in every bit of their seeds.
fn table_seed(datapath_id: u64, id: TableId) -> u64 {
    let mut z = datapath_id.rotate_left(8) ^ u64::from(id.0);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FlowTable {
    /// An unbounded table, of datapath 0.
    pub fn new(id: TableId) -> FlowTable {
        FlowTable::with_capacity(0, id, usize::MAX)
    }

    /// Table `id` of datapath `datapath_id`, refusing adds beyond
    /// `capacity` entries (models TCAM).
    pub fn with_capacity(datapath_id: u64, id: TableId, capacity: usize) -> FlowTable {
        FlowTable {
            id,
            entries: Vec::new(),
            ranks: Vec::new(),
            masks: Vec::new(),
            order: Vec::new(),
            groups: Vec::new(),
            probe_order: Vec::new(),
            seed: table_seed(datapath_id, id),
            timed: 0,
            next_seq: 0,
            capacity,
            version: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// This table's id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of installed entries with a timeout
    /// ([`FlowEntry::is_timed`]).
    pub fn timed(&self) -> usize {
        self.timed
    }

    /// Monotonic version, bumped on every mutation (drives dataplane cache
    /// invalidation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that matched an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// All entries, in no defined order; [`FlowTable::ranked`] walks
    /// them in table order.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// All entries, highest priority first, FIFO within a priority.
    pub fn ranked(&self) -> impl Iterator<Item = &FlowEntry> {
        self.order.iter().map(|&s| self.at(s))
    }

    /// The entries `sel` selects, in table order: what a flow-stats
    /// request reports.
    pub fn select(&self, sel: &Selector) -> impl Iterator<Item = &FlowEntry> {
        self.selected(sel).into_iter().map(|s| self.at(s))
    }

    /// Union of every entry's mask: the fields a lookup here can depend
    /// on.
    pub fn aggregate_mask(&self) -> FieldMask {
        // A vacant group's mask is the default, which adds nothing.
        self.groups
            .iter()
            .fold(FieldMask::default(), |m, g| m.mask_union(&g.mask))
    }

    fn at(&self, slot: Slot) -> &FlowEntry {
        &self.entries[slot as usize]
    }

    fn group(&self, id: MaskId) -> &MaskGroup {
        &self.groups[id as usize]
    }

    /// The mask of the entry in `slot`.
    fn mask_of(&self, slot: Slot) -> &FieldMask {
        &self.group(self.masks[slot as usize]).mask
    }

    /// True if `pkt` satisfies the match of the entry in `slot`.
    fn matches(&self, slot: Slot, pkt: &FlowKey) -> bool {
        pkt.masked(self.mask_of(slot)) == self.at(slot).key
    }

    fn rank_of(&self, slot: Slot) -> u64 {
        self.ranks[slot as usize]
    }

    /// Where in table order the entry ranked `rank` is, or would go.
    fn position(&self, rank: u64) -> usize {
        self.order.partition_point(|&s| self.rank_of(s) < rank)
    }

    fn key_hash(&self, key: &FlowKey) -> u64 {
        key.flow_hash64(self.seed)
    }

    /// The index tag of (key, priority): the high half of its
    /// fingerprint.
    fn tag(key_hash: u64, priority: u16) -> u32 {
        let fingerprint =
            (key_hash ^ u64::from(priority).wrapping_mul(PRIORITY_SPREAD)) & FINGERPRINT_BITS;
        (fingerprint >> 32) as u32
    }

    /// Slot of `g`'s entry with exactly this key and priority. Tags can
    /// collide, so the slot's entry is checked and the spill list is
    /// the fallback.
    fn find(&self, g: &MaskGroup, key_hash: u64, key: &FlowKey, priority: u16) -> Option<Slot> {
        let is_it = |slot: Slot| {
            let e = self.at(slot);
            (e.priority == priority && e.key == *key).then_some(slot)
        };
        g.index
            .get(Self::tag(key_hash, priority))
            .and_then(is_it)
            .or_else(|| g.spill.iter().find_map(|&s| is_it(s)))
    }

    /// The id of the non-vacant group masked by `mask`.
    fn group_of(&self, mask: &FieldMask) -> Option<MaskId> {
        self.probe_order
            .iter()
            .copied()
            .find(|&id| self.group(id).mask == *mask)
    }

    /// A vacant group (a new one if there is none), given `mask`.
    fn vacant_group(&mut self, mask: &FieldMask) -> MaskId {
        let id = self
            .groups
            .iter()
            .position(MaskGroup::is_vacant)
            .unwrap_or_else(|| {
                self.groups.push(MaskGroup::default());
                self.groups.len() - 1
            });
        self.groups[id].mask = *mask;
        MaskId::try_from(id).expect("fewer than 2^32 masks")
    }

    /// Enter the entry ranked `rank` in `slot` into group `id`.
    fn index(&mut self, key_hash: u64, id: MaskId, priority: u16, rank: u64, slot: Slot) {
        let g = &mut self.groups[id as usize];
        let was_vacant = g.is_vacant();
        match g.prios.binary_search_by(|p| priority.cmp(&p.0)) {
            Ok(i) => g.prios[i].1 += 1,
            Err(i) => g.prios.insert(i, (priority, 1)),
        }
        if !g.index.insert(Self::tag(key_hash, priority), slot) {
            g.spill.push(slot);
        }
        if was_vacant || rank < g.first {
            g.first = rank;
            if was_vacant {
                self.probe_order.push(id);
            }
            self.sort_probes();
        }
    }

    fn sort_probes(&mut self) {
        let groups = &self.groups;
        self.probe_order
            .sort_by_key(|&id| groups[id as usize].first);
    }

    /// Take the entry in `slot` out of its mask group. A group left with
    /// no entry is vacated; one that lost its first entry keeps a stale
    /// `first` until [`Self::remove_where`] renews it.
    fn unindex(&mut self, slot: Slot) {
        let e = self.at(slot);
        let (id, priority) = (self.masks[slot as usize], e.priority);
        let tag = Self::tag(self.key_hash(&e.key), priority);
        let g = &mut self.groups[id as usize];
        if !g.index.remove(tag, slot) {
            g.spill.retain(|s| *s != slot);
        }
        let i = g
            .prios
            .binary_search_by(|p| priority.cmp(&p.0))
            .expect("an installed entry's priority is counted");
        g.prios[i].1 -= 1;
        if g.prios[i].1 == 0 {
            g.prios.remove(i);
        }
        if g.is_vacant() {
            *g = MaskGroup::default();
        }
    }

    /// Take the entry in `slot`, already out of the index, out of the
    /// slab while [`Self::remove_where`] walks table order: the entries
    /// kept so far are `order[..kept]`, those not yet visited
    /// `order[next..]`, both in rank order. The last entry moves into
    /// `slot`, and its places in table order (in one of those two runs)
    /// and in the index are relabelled.
    fn swap_out(&mut self, slot: Slot, kept: usize, next: usize) -> FlowEntry {
        let last = (self.entries.len() - 1) as Slot;
        if slot != last {
            let rank = self.rank_of(last);
            let (from, to) = if rank < self.rank_of(slot) {
                (0, kept)
            } else {
                (next, self.order.len())
            };
            let pos = from + self.order[from..to].partition_point(|&s| self.rank_of(s) < rank);
            self.order[pos] = slot;
            let e = self.at(last);
            let id = self.masks[last as usize];
            let tag = Self::tag(self.key_hash(&e.key), e.priority);
            let g = &mut self.groups[id as usize];
            if !g.index.relabel(tag, last, slot) {
                let spilled = g.spill.iter_mut().find(|s| **s == last);
                *spilled.expect("an indexed entry is in its bucket or the spill") = slot;
            }
        }
        self.masks.swap_remove(slot as usize);
        self.ranks.swap_remove(slot as usize);
        let entry = self.entries.swap_remove(slot as usize);
        self.timed -= usize::from(entry.is_timed());
        entry
    }

    /// Walk table order from position `start` and remove the first
    /// `count` entries `pick` says something of (every one, for
    /// `usize::MAX`), handing each to `out`, in table order, with what
    /// `pick` said. Table order closes up behind the walk, and the
    /// tail behind the last one removed moves once; nothing is
    /// allocated.
    fn remove_where<R>(
        &mut self,
        start: usize,
        mut count: usize,
        pick: impl Fn(&Self, Slot) -> Option<R>,
        mut out: impl FnMut(FlowEntry, R),
    ) {
        let (mut kept, mut next) = (start, start);
        while count > 0 && next < self.order.len() {
            let slot = self.order[next];
            next += 1;
            if let Some(said) = pick(self, slot) {
                count -= 1;
                self.unindex(slot);
                out(self.swap_out(slot, kept, next), said);
            } else {
                self.order[kept] = slot;
                kept += 1;
            }
        }
        if kept == next {
            return;
        }
        self.order.drain(kept..next);
        let groups = &self.groups;
        self.probe_order
            .retain(|&id| !groups[id as usize].is_vacant());
        for i in 0..self.probe_order.len() {
            let id = self.probe_order[i];
            let first = self.group(id).first;
            let at = self.position(first);
            if self.order.get(at).map(|&s| self.rank_of(s)) == Some(first) {
                continue;
            }
            // The group lost its first entry: the next is the first one
            // of its id at or after where that one was.
            let next = self.order[at..]
                .iter()
                .find(|&&s| self.masks[s as usize] == id);
            self.groups[id as usize].first =
                self.rank_of(*next.expect("a non-empty group has an entry"));
        }
        self.sort_probes();
        self.version += 1;
    }

    /// The next install sequence number. When the 2^48 are spent, the
    /// installed entries are renumbered from zero in table order; each
    /// keeps its group.
    fn take_seq(&mut self) -> u64 {
        if self.next_seq >> SEQ_BITS != 0 {
            for g in &mut self.groups {
                *g = MaskGroup {
                    mask: g.mask,
                    ..MaskGroup::default()
                };
            }
            self.probe_order.clear();
            for i in 0..self.order.len() {
                let slot = self.order[i];
                let e = self.at(slot);
                let (key_hash, priority) = (self.key_hash(&e.key), e.priority);
                let id = self.masks[slot as usize];
                let rank = rank(priority, i as u64);
                self.ranks[slot as usize] = rank;
                self.index(key_hash, id, priority, rank, slot);
            }
            self.next_seq = self.order.len() as u64;
        }
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Install an entry per OF `ADD` semantics, under its match's lookup
    /// key and mask ([`Match::to_key_mask`]), which the caller computed
    /// once for the flow-mod.
    pub fn add(&mut self, mut entry: FlowEntry, key: FlowKey, mask: FieldMask) -> Result<()> {
        entry.key = key;
        if entry.flags & flow_flags::CHECK_OVERLAP != 0 {
            let p = entry.priority;
            let lo = self.order.partition_point(|&s| self.at(s).priority > p);
            let hi = self.order.partition_point(|&s| self.at(s).priority >= p);
            if self.order[lo..hi]
                .iter()
                .any(|&s| overlap(&self.at(s).key, self.mask_of(s), &entry.key, &mask))
            {
                return Err(Error::Overlap);
            }
        }
        let key_hash = self.key_hash(&entry.key);
        let group = self.group_of(&mask);
        let installed =
            group.and_then(|id| self.find(self.group(id), key_hash, &entry.key, entry.priority));
        if let Some(slot) = installed {
            // Identical match + priority: replace in place (counters reset).
            self.timed += usize::from(entry.is_timed());
            let old = std::mem::replace(&mut self.entries[slot as usize], entry);
            self.timed -= usize::from(old.is_timed());
        } else {
            if self.entries.len() >= self.capacity {
                return Err(Error::TableFull);
            }
            self.reserve_slot();
            // Ranked after every entry of its priority (stable order).
            let rank = rank(entry.priority, self.take_seq());
            let slot = Slot::try_from(self.entries.len())
                .ok()
                .filter(|&s| s != VACANT)
                .expect("fewer than 2^32 - 1 entries");
            let id = group.unwrap_or_else(|| self.vacant_group(&mask));
            self.index(key_hash, id, entry.priority, rank, slot);
            self.order.insert(self.position(rank), slot);
            self.ranks.push(rank);
            self.masks.push(id);
            self.timed += usize::from(entry.is_timed());
            self.entries.push(entry);
        }
        self.version += 1;
        Ok(())
    }

    /// Make room for one more entry in each per-slot vector. A full
    /// vector grows by an eighth of the table plus 16 slots, never past
    /// the table's capacity: doubling would leave a table one rule past
    /// a power of two holding nearly twice its rules in slots.
    fn reserve_slot(&mut self) {
        let len = self.entries.len();
        let room = (len / 8 + 16).min(self.capacity - len);
        fn grow<T>(v: &mut Vec<T>, room: usize) {
            if v.len() == v.capacity() {
                v.reserve_exact(room);
            }
        }
        grow(&mut self.entries, room);
        grow(&mut self.ranks, room);
        grow(&mut self.masks, room);
        grow(&mut self.order, room);
    }

    /// True if `sel` selects the entry in `slot`.
    fn picks(&self, sel: &Selector, slot: Slot) -> bool {
        let (e, mask) = (self.at(slot), self.mask_of(slot));
        let within = if sel.strict {
            e.priority == sel.priority && *mask == sel.mask && e.key == sel.key
        } else {
            mask.mask_union(&sel.mask) == *mask && e.key.masked(&sel.mask) == sel.key
        };
        within && sel.passes(e)
    }

    /// Call `f` with the slot of each entry `sel` selects, found through
    /// the index, in no defined order.
    fn for_each_selected(&self, sel: &Selector, mut f: impl FnMut(Slot)) {
        let key_hash = self.key_hash(&sel.key);
        // A vacant group has no entries to visit.
        for g in &self.groups {
            if g.mask == sel.mask {
                // Within a filter of the group's own mask means an equal
                // key: one probe per priority.
                let prios = g.prios.iter().map(|p| p.0);
                prios
                    .filter(|&p| !sel.strict || p == sel.priority)
                    .filter_map(|p| self.find(g, key_hash, &sel.key, p))
                    .filter(|&s| sel.passes(self.at(s)))
                    .for_each(&mut f);
            } else if !sel.strict && g.mask.mask_union(&sel.mask) == g.mask {
                // Entries narrower than the filter: walk the group.
                let group = g.index.slots().chain(g.spill.iter().copied());
                group.filter(|&s| self.picks(sel, s)).for_each(&mut f);
            }
        }
    }

    /// Slots, in table order, of the entries `sel` selects.
    fn selected(&self, sel: &Selector) -> Vec<Slot> {
        let mut slots = Vec::new();
        self.for_each_selected(sel, |s| slots.push(s));
        // Bucket order differs from table to table (the seed moves it).
        slots.sort_unstable_by_key(|&s| self.rank_of(s));
        slots
    }

    /// Give the entries `sel` selects, whatever they output to, `program`
    /// as their instructions; returns how many changed.
    pub fn modify(&mut self, sel: &Selector, program: &Program) -> usize {
        let any_output = Selector {
            out_port: crate::port_no::ANY,
            out_group: crate::group_no::ANY,
            ..*sel
        };
        let slots = self.selected(&any_output);
        for &slot in &slots {
            self.entries[slot as usize].instructions = program.clone();
        }
        if !slots.is_empty() {
            self.version += 1;
        }
        slots.len()
    }

    /// Delete the entries `sel` selects, handing each to `removed` in
    /// table order (their reason is `Delete`), so the caller can emit
    /// `FLOW_REMOVED` for those that asked. Allocates nothing: the index
    /// finds how many there are and where the first one stands, and the
    /// removal walks table order from there until it has them all.
    pub fn delete(&mut self, sel: &Selector, mut removed: impl FnMut(FlowEntry)) {
        let (mut count, mut head) = (0, u64::MAX);
        self.for_each_selected(sel, |s| {
            count += 1;
            head = head.min(self.rank_of(s));
        });
        if count > 0 {
            let start = self.position(head);
            let pick = |t: &Self, s| t.picks(sel, s).then_some(());
            self.remove_where(start, count, pick, |e, ()| removed(e));
        }
    }

    /// Highest-priority entry matching `pkt`, if any, by linear scan —
    /// the oracle [`FlowTable::lookup_indexed`] is tested against.
    /// Counters are *not* bumped here; call [`FlowTable::hit`] with the
    /// returned index.
    pub fn lookup(&mut self, pkt: &FlowKey) -> Option<usize> {
        self.lookup_counting(pkt).0
    }

    /// Like [`FlowTable::lookup`] but also counts packets scanned before
    /// the hit, for cost modelling.
    pub fn lookup_counting(&mut self, pkt: &FlowKey) -> (Option<usize>, usize) {
        self.lookups += 1;
        // Table order is priority order, so the first match wins.
        let scan = self.order.iter().position(|&s| self.matches(s, pkt));
        self.hits += u64::from(scan.is_some());
        match scan {
            Some(i) => (Some(self.order[i] as usize), i + 1),
            None => (None, self.order.len()),
        }
    }

    /// The entry [`FlowTable::lookup`] finds, by tuple-space search: one
    /// probe per mask group, best group first, until a hit precedes
    /// every entry of the groups left. Also returns the groups probed,
    /// for cost modelling.
    pub fn lookup_indexed(&mut self, pkt: &FlowKey) -> (Option<usize>, u32) {
        self.lookups += 1;
        // The hit so far, as (rank, slot).
        let mut best: Option<(u64, Slot)> = None;
        let mut probes = 0;
        for &id in &self.probe_order {
            let g = self.group(id);
            // Nothing in this group or a later one precedes `g.first`.
            if best.is_some_and(|(rank, _)| rank < g.first) {
                break;
            }
            probes += 1;
            let key = pkt.masked(&g.mask);
            let key_hash = self.key_hash(&key);
            let mut prios = g.prios.iter();
            if let Some(slot) = prios.find_map(|p| self.find(g, key_hash, &key, p.0)) {
                let rank = self.rank_of(slot);
                if best.is_none_or(|(r, _)| rank < r) {
                    best = Some((rank, slot));
                }
            }
        }
        self.hits += u64::from(best.is_some());
        (best.map(|(_, s)| s as usize), probes)
    }

    /// Record a hit on entry `idx`.
    pub fn hit(&mut self, idx: usize, bytes: u64, now_ns: u64) {
        let e = &mut self.entries[idx];
        e.packets += 1;
        e.bytes += bytes;
        e.last_used_ns = now_ns;
    }

    /// Entry accessor by index.
    pub fn entry(&self, idx: usize) -> &FlowEntry {
        &self.entries[idx]
    }

    /// Remove timed-out entries; returns them, in table order, with
    /// their reasons. A table with no timed entry is not scanned.
    pub fn expire(&mut self, now_ns: u64) -> Vec<(FlowEntry, RemovedReason)> {
        if self.timed == 0 {
            return Vec::new();
        }
        let due = |timeout: u16, since_ns: u64| {
            timeout > 0 && now_ns >= since_ns + u64::from(timeout) * 1_000_000_000
        };
        let reason = |t: &Self, slot| {
            let e = t.at(slot);
            if due(e.hard_timeout, e.installed_ns) {
                Some(RemovedReason::HardTimeout)
            } else if due(e.idle_timeout, e.last_used_ns) {
                Some(RemovedReason::IdleTimeout)
            } else {
                None
            }
        };
        let mut expired = Vec::new();
        self.remove_where(0, usize::MAX, reason, |e, r| expired.push((e, r)));
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Instruction};
    use netpkt::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn udp_key(dst_port: u16) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            b"x",
        );
        FlowKey::extract(1, &f).unwrap()
    }

    fn entry(priority: u16, m: Match, out: u32) -> FlowEntry {
        let insns = Instruction::apply(vec![Action::output(out)]);
        FlowEntry::new(priority, m, Program::new(&insns), 0)
    }

    impl FlowTable {
        /// `add` under the entry's own match's key and mask.
        fn install(&mut self, e: FlowEntry) -> Result<()> {
            let (key, mask) = e.match_.to_key_mask();
            self.add(e, key, mask)
        }

        /// `delete` of what `m` selects, filtered by outputs only.
        fn delete_match(
            &mut self,
            m: &Match,
            priority: u16,
            strict: bool,
            out_port: u32,
            out_group: u32,
        ) -> Vec<FlowEntry> {
            let sel = if strict {
                Selector::strict(m, priority)
            } else {
                Selector::within(m)
            };
            let mut removed = Vec::new();
            let sel = Selector {
                out_port,
                out_group,
                ..sel
            };
            self.delete(&sel, |e| removed.push(e));
            removed
        }
    }

    fn udp_match(port: u16) -> Match {
        Match::new().eth_type(0x0800).ip_proto(17).udp_dst(port)
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(10, Match::any(), 1)).unwrap();
        t.install(entry(100, udp_match(53), 2)).unwrap();
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert_eq!(t.entry(idx).priority, 100);
        let idx = t.lookup(&udp_key(80)).unwrap();
        assert_eq!(t.entry(idx).priority, 10);
        assert_eq!(t.lookups(), 2);
        assert_eq!(t.hits(), 2);
    }

    #[test]
    fn equal_priority_is_fifo() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(50, udp_match(53), 1)).unwrap();
        t.install(entry(50, Match::new().eth_type(0x0800).ip_proto(17), 2))
            .unwrap();
        // Both match; the first-installed must win.
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(1));
    }

    #[test]
    fn add_replaces_identical_match_priority() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        t.install(entry(5, udp_match(53), 9)).unwrap();
        assert_eq!(t.len(), 1);
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(9));
    }

    #[test]
    fn check_overlap_rejects() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        // Overlapping at same priority (any UDP includes dst 53).
        let e = entry(5, Match::new().eth_type(0x0800).ip_proto(17), 2)
            .with_flags(flow_flags::CHECK_OVERLAP);
        assert_eq!(t.install(e).unwrap_err(), Error::Overlap);
        // Same match at different priority is fine.
        let e = entry(6, Match::new().eth_type(0x0800).ip_proto(17), 2)
            .with_flags(flow_flags::CHECK_OVERLAP);
        t.install(e).unwrap();
        // Disjoint matches at same priority are fine.
        let e = entry(5, udp_match(54), 3).with_flags(flow_flags::CHECK_OVERLAP);
        t.install(e).unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::with_capacity(0, TableId(0), 2);
        t.install(entry(1, udp_match(1), 1)).unwrap();
        t.install(entry(1, udp_match(2), 1)).unwrap();
        assert_eq!(
            t.install(entry(1, udp_match(3), 1)).unwrap_err(),
            Error::TableFull
        );
        // Replacement still allowed at capacity.
        t.install(entry(1, udp_match(2), 9)).unwrap();
    }

    #[test]
    fn nonstrict_delete_uses_subset_semantics() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        t.install(entry(5, udp_match(80), 1)).unwrap();
        t.install(entry(5, Match::new().eth_type(0x0806), 1))
            .unwrap();
        // Filter: all UDP — removes both UDP entries, leaves ARP.
        let removed = t.delete_match(
            &Match::new().eth_type(0x0800).ip_proto(17),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        // Empty filter removes everything.
        let removed = t.delete_match(
            &Match::any(),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn strict_delete_needs_exact_match_and_priority() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        let removed = t.delete_match(
            &udp_match(53),
            6,
            true,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert!(removed.is_empty());
        let removed = t.delete_match(
            &udp_match(53),
            5,
            true,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 1);
    }

    #[test]
    fn delete_out_port_filter() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        t.install(entry(5, udp_match(80), 2)).unwrap();
        let removed = t.delete_match(&Match::any(), 0, false, 2, crate::group_no::ANY);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].outputs_to(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn modify_rewrites_instructions_keeps_counters() {
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        let idx = t.lookup(&udp_key(53)).unwrap();
        t.hit(idx, 100, 1);
        let program = Program::new(&Instruction::apply(vec![Action::output(7)]));
        let n = t.modify(&Selector::strict(&udp_match(53), 5), &program);
        assert_eq!(n, 1);
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(7));
        assert_eq!(t.entry(idx).packets, 1, "modify must not reset counters");
    }

    #[test]
    fn timeouts_expire() {
        let sec = 1_000_000_000u64;
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1).with_timeouts(0, 10))
            .unwrap();
        t.install(entry(5, udp_match(80), 1).with_timeouts(3, 0))
            .unwrap();
        assert!(t.expire(2 * sec).is_empty());
        // Keep the idle entry alive by hitting it at t=2s.
        let idx = t.lookup(&udp_key(80)).unwrap();
        t.hit(idx, 1, 2 * sec);
        let out = t.expire(4 * sec);
        assert!(out.is_empty(), "idle clock restarted at 2s");
        let out = t.expire(5 * sec);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, RemovedReason::IdleTimeout);
        let out = t.expire(10 * sec);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, RemovedReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut t = FlowTable::new(TableId(0));
        let v0 = t.version();
        t.install(entry(5, udp_match(53), 1)).unwrap();
        let v1 = t.version();
        assert!(v1 > v0);
        t.lookup(&udp_key(53));
        assert_eq!(t.version(), v1, "lookups must not invalidate caches");
        t.delete_match(
            &Match::any(),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert!(t.version() > v1);
    }

    /// Both lookups agree on which rule `dst_port` hits: the one
    /// outputting to `out`, or none.
    fn assert_hits(t: &mut FlowTable, dst_port: u16, out: Option<u32>) {
        let hit = t.lookup_indexed(&udp_key(dst_port)).0;
        assert_eq!(hit, t.lookup(&udp_key(dst_port)));
        assert_eq!(hit.is_some(), out.is_some(), "udp_dst {dst_port}");
        if let (Some(idx), Some(out)) = (hit, out) {
            assert!(t.entry(idx).outputs_to(out), "udp_dst {dst_port}");
        }
    }

    #[test]
    fn indexed_lookup_probes_one_group_per_mask_and_stops_early() {
        let mut t = FlowTable::new(TableId(0));
        for port in 1..100u16 {
            t.install(entry(10, udp_match(port), u32::from(port)))
                .unwrap();
        }
        // One rule shape = one group: the ESwitch template case.
        let (hit, probes) = t.lookup_indexed(&udp_key(42));
        assert!(t.entry(hit.unwrap()).outputs_to(42));
        assert_eq!(probes, 1);
        t.install(entry(1, Match::any(), 999)).unwrap();
        assert_eq!(
            t.lookup_indexed(&udp_key(42)).1,
            1,
            "hit outranks the catch-all"
        );
        let (hit, probes) = t.lookup_indexed(&udp_key(7000));
        assert!(t.entry(hit.unwrap()).outputs_to(999));
        assert_eq!(probes, 2);
        assert_eq!((t.lookups(), t.hits()), (3, 3));
    }

    #[test]
    fn colliding_fingerprints_never_hit_the_wrong_rule() {
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        let mut t = FlowTable::new(TableId(0));
        for (port, out) in [(53, 1), (80, 2), (443, 3)] {
            t.install(entry(5, udp_match(port), out)).unwrap();
        }
        // One indexed, two spilled entries (`FINGERPRINT_BITS` is 0
        // here); each is replaced on its own.
        assert_eq!((t.groups[0].index.len, t.groups[0].spill.len()), (1, 2));
        t.install(entry(5, udp_match(80), 9)).unwrap();
        assert_eq!(t.len(), 3);
        for (port, out) in [(53, 1), (80, 9), (443, 3)] {
            assert_hits(&mut t, port, Some(out));
        }
        // Deleting the slot's holder leaves the spilled ones reachable,
        // and the vacated slot is not mistaken for them.
        let removed = t.delete_match(&udp_match(53), 5, true, any.0, any.1);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].outputs_to(1));
        assert_hits(&mut t, 53, None);
        assert_hits(&mut t, 80, Some(9));
        let program = Program::new(&Instruction::apply(vec![Action::output(7)]));
        assert_eq!(t.modify(&Selector::strict(&udp_match(443), 5), &program), 1);
        assert_hits(&mut t, 443, Some(7));
        t.install(entry(5, udp_match(53), 4)).unwrap();
        let removed = t.delete_match(&udp_match(80), 0, false, any.0, any.1);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].outputs_to(9));
        assert_hits(&mut t, 80, None);
        assert_hits(&mut t, 53, Some(4));
        assert_hits(&mut t, 443, Some(7));
    }

    #[test]
    fn a_delete_moves_only_the_last_entry_and_relabels_it() {
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        let outs = |t: &FlowTable| -> Vec<bool> {
            [1, 2, 3, 9]
                .iter()
                .map(|&o| t.entries()[0].outputs_to(o))
                .collect()
        };
        let mut t = FlowTable::new(TableId(0));
        // Slot 0 holds the group's index bucket, 1 and 2 spill (every
        // fingerprint is equal here); slot 3 is the catch-all's group.
        for (port, out) in [(53, 1), (80, 2), (443, 3)] {
            t.install(entry(5, udp_match(port), out)).unwrap();
        }
        t.install(entry(1, Match::any(), 9)).unwrap();
        // The catch-all moves into slot 0 and keeps its group's bucket.
        assert_eq!(
            t.delete_match(&udp_match(53), 5, true, any.0, any.1).len(),
            1
        );
        assert_eq!(outs(&t), [false, false, false, true]);
        assert_hits(&mut t, 53, Some(9));
        assert_hits(&mut t, 80, Some(2));
        // The spilled 443 moves into slot 0 and keeps its spill entry.
        assert_eq!(
            t.delete_match(&Match::any(), 1, true, any.0, any.1).len(),
            1
        );
        assert_eq!(outs(&t), [false, false, true, false]);
        assert_hits(&mut t, 443, Some(3));
        assert_hits(&mut t, 80, Some(2));
        assert_hits(&mut t, 53, None);
        let order: Vec<bool> = t.ranked().map(|e| e.outputs_to(2)).collect();
        assert_eq!(order, [true, false], "table order is install order");
    }

    #[test]
    fn spent_sequence_space_renumbers_in_table_order() {
        let mut t = FlowTable::new(TableId(0));
        t.next_seq = (1 << SEQ_BITS) - 2;
        t.install(entry(5, udp_match(1), 1)).unwrap();
        t.install(entry(9, udp_match(2), 2)).unwrap();
        // The 2^48th install: survivors take sequence numbers 0 and 1.
        t.install(entry(5, udp_match(3), 3)).unwrap();
        t.install(entry(9, Match::any(), 4)).unwrap();
        assert_eq!(t.next_seq, 4);
        let outs = [2, 4, 1, 3];
        for (e, out) in t.ranked().zip(outs) {
            assert!(e.outputs_to(out), "priority, then FIFO, order kept");
        }
        let ranks: Vec<u64> = t.order.iter().map(|&s| t.rank_of(s)).collect();
        assert_eq!(ranks, [rank(9, 0), rank(9, 3), rank(5, 1), rank(5, 2)]);
        // The rebuilt index still names every entry.
        assert_hits(&mut t, 2, Some(2));
        assert_hits(&mut t, 1, Some(4));
        t.install(entry(5, udp_match(1), 8)).unwrap();
        assert_eq!(t.len(), 4, "replaced, not duplicated");
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        assert_eq!(
            t.delete_match(&udp_match(3), 5, true, any.0, any.1).len(),
            1
        );
    }

    fn slot_capacities(t: &FlowTable) -> [usize; 4] {
        [
            t.entries.capacity(),
            t.ranks.capacity(),
            t.masks.capacity(),
            t.order.capacity(),
        ]
    }

    /// Every per-slot vector's capacity is within the bound the growth
    /// helper keeps: the rules plus an eighth plus 16.
    fn assert_slack(t: &FlowTable) {
        let len = t.len();
        let bound = len + len / 8 + 16;
        let caps = slot_capacities(t);
        assert!(
            caps.iter().all(|&c| c <= bound),
            "{len} rules in slots {caps:?}, bound {bound}"
        );
    }

    /// One rule past a doubling (2 049) holds at most 2 321 slots, not
    /// 4 096, and stays inside the bound through deletes and re-adds.
    #[test]
    fn slots_grow_by_an_eighth_not_a_doubling() {
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        let mut t = FlowTable::new(TableId(0));
        for port in 0..2049 {
            t.install(entry(5, udp_match(port), 1)).unwrap();
            assert_slack(&t);
        }
        // Every 64th rule goes, then comes back with 300 new ones.
        let victims = (0..2049).step_by(64);
        for port in victims.clone() {
            assert_eq!(
                t.delete_match(&udp_match(port), 5, true, any.0, any.1)
                    .len(),
                1
            );
            assert_slack(&t);
        }
        for port in victims.chain(2049..2349) {
            t.install(entry(5, udp_match(port), 1)).unwrap();
            assert_slack(&t);
        }
        assert_eq!(t.len(), 2349);
    }

    #[test]
    fn a_bounded_table_never_reserves_past_its_capacity() {
        let mut t = FlowTable::with_capacity(0, TableId(0), 40);
        for port in 0..40 {
            t.install(entry(5, udp_match(port), 1)).unwrap();
            assert_slack(&t);
        }
        assert_eq!(t.install(entry(5, udp_match(40), 1)), Err(Error::TableFull));
        assert_eq!(slot_capacities(&t), [40; 4]);
    }

    #[test]
    fn a_mask_no_entry_uses_is_released_and_its_id_reused() {
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        let mut t = FlowTable::new(TableId(0));
        t.install(entry(5, udp_match(53), 1)).unwrap();
        t.install(entry(5, udp_match(80), 2)).unwrap();
        t.install(entry(1, Match::any(), 9)).unwrap();
        assert_eq!(t.groups.len(), 2, "one group per distinct mask");
        let udp = t.masks[0];
        assert_eq!(t.masks[1], udp);
        let all_udp = Match::new().eth_type(0x0800).ip_proto(17);
        assert_eq!(t.delete_match(&all_udp, 0, false, any.0, any.1).len(), 2);
        let vacated = &t.groups[udp as usize];
        assert!(vacated.is_vacant() && vacated.index.buckets.capacity() == 0);
        assert_eq!(vacated.mask, FieldMask::default());
        assert_eq!(t.probe_order.len(), 1);
        assert_eq!(t.aggregate_mask(), FieldMask::default());
        // A new mask takes the vacant id.
        t.install(entry(7, Match::new().eth_type(0x0806), 3))
            .unwrap();
        assert_eq!(t.groups.len(), 2);
        let arp = t.order[0];
        assert!(t.at(arp).outputs_to(3));
        assert_eq!(t.masks[arp as usize], udp);
        assert_hits(&mut t, 53, Some(9));
    }

    /// xorshift: the same tags from run to run.
    fn tags(mut state: u64) -> impl FnMut() -> u32 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u32
        }
    }

    /// One entry past a doubling (2 049) takes 2 880 home buckets and
    /// the tail, not a `HashMap`'s 4 096: never past three quarters
    /// full, and never more than half again its entries plus 16, the
    /// slack growth by an eighth leaves right after a growth.
    #[test]
    fn the_index_grows_by_an_eighth_not_a_doubling() {
        let mut next = tags(0x9e37_79b9_7f4a_7c15);
        let mut index = FingerprintIndex::default();
        for slot in 0..2049 {
            assert!(index.insert(next(), slot), "distinct tags");
            let (len, homes) = (index.len, index.homes);
            assert!(len * 4 <= homes * 3, "{len} entries in {homes} homes");
            assert!(homes <= len * 3 / 2 + 16, "{len} entries in {homes} homes");
        }
        assert_eq!(index.homes, 2880);
        assert_eq!(index.buckets.len(), 2880 + TAIL, "no run left the tail");
        assert_eq!(
            index.buckets.capacity(),
            2880 + TAIL,
            "allocated at its size"
        );
        assert_ordered(&index);
    }

    /// Ascending tags, each at its home or behind it in a run of
    /// occupied buckets.
    fn assert_ordered(index: &FingerprintIndex) {
        let occupied = |i: usize| index.buckets[i].1 != VACANT;
        let mut last = None;
        for i in (0..index.buckets.len()).filter(|&i| occupied(i)) {
            let tag = index.buckets[i].0;
            assert!(
                last < Some(tag),
                "tag {tag:#x} in bucket {i} after {last:x?}"
            );
            let home = index.home(tag);
            assert!(
                home <= i,
                "tag {tag:#x} in bucket {i} before its home {home}"
            );
            assert!((home..i).all(occupied), "bucket {i} is off its run");
            last = Some(tag);
        }
    }

    /// The index against a map, over tags crowded into the first and
    /// the last few home buckets, so runs grow long, reach past the
    /// tail and close up behind a removal.
    #[test]
    fn the_index_agrees_with_a_map_through_inserts_removals_and_relabels() {
        let mut rand = tags(0x2545_f491_4f6c_dd1d);
        let mut index = FingerprintIndex::default();
        let mut model: std::collections::HashMap<u32, Slot> = Default::default();
        // The 12 greatest tags share the last home: their run goes on
        // past the tail.
        for (slot, tag) in (0..12).map(|k| (k, u32::MAX - k)) {
            assert!(index.insert(tag, slot));
            model.insert(tag, slot);
        }
        assert!(
            index.buckets.len() > index.homes + TAIL,
            "a run left the tail"
        );
        assert_ordered(&index);
        for step in 0..20_000u32 {
            // 56 tags: 12 that share the first home, 12 the last, and
            // 32 spread evenly, a home or two apart, so runs meet.
            let r = rand();
            let tag = match r % 4 {
                0 => r % 12,
                1 => u32::MAX - r % 12,
                _ => (r % 32) << 27,
            };
            let slot = rand() % 64;
            match rand() % 3 {
                0 => {
                    let fresh = !model.contains_key(&tag);
                    assert_eq!(index.insert(tag, slot), fresh, "step {step}");
                    model.entry(tag).or_insert(slot);
                }
                1 => {
                    let named = model.get(&tag) == Some(&slot);
                    assert_eq!(index.remove(tag, slot), named, "step {step}");
                    if named {
                        model.remove(&tag);
                    }
                }
                _ => {
                    let from = model.get(&tag).copied().unwrap_or(slot);
                    let named = model.contains_key(&tag);
                    assert_eq!(index.relabel(tag, from, slot), named, "step {step}");
                    if named {
                        model.insert(tag, slot);
                    }
                }
            }
            assert_eq!(index.get(tag), model.get(&tag).copied(), "step {step}");
            assert_eq!(index.len, model.len());
            assert_ordered(&index);
        }
        for (&tag, &slot) in &model {
            assert_eq!(index.get(tag), Some(slot));
        }
        let mut slots: Vec<Slot> = index.slots().collect();
        let mut want: Vec<Slot> = model.values().copied().collect();
        slots.sort_unstable();
        want.sort_unstable();
        assert_eq!(slots, want);
    }

    #[test]
    fn table_miss_entry_catches_all() {
        let mut t = FlowTable::new(TableId(0));
        // Priority-0 any match = the OF 1.3 table-miss entry.
        t.install(FlowEntry::new(
            0,
            Match::any(),
            Program::new(&Instruction::apply(vec![Action::to_controller()])),
            0,
        ))
        .unwrap();
        assert!(t.lookup(&udp_key(1)).is_some());
        assert!(t.lookup(&FlowKey::default()).is_some());
    }
}
