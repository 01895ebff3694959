//! Flow caches in front of the pipeline, OVS-style: a megaflow store,
//! a signature index over it, and one probe loop under both.
//!
//! * [`MegaflowCache`]: `(mask, masked key)` → recorded actions, where the
//!   mask is the *unwildcarded* set of fields the slow path actually
//!   consulted. One entry covers an entire rule region, so the cache stays
//!   small under flow churn. The entries live in one addressable store,
//!   append-only between flushes; each mask's wildcard subtable holds
//!   ids into it, not keys.
//! * [`MicroflowCache`] (a [`SignatureIndex`]): exact 5-tuple → megaflow,
//!   as one `(full-key fingerprint, store id)` slot — eight bytes, no
//!   key. A fingerprint match is verified against the megaflow it names
//!   (`(key & mask) == masked`, compiled per mask: [`CompiledMask`]),
//!   data every 5-tuple of that megaflow shares and so keeps hot; a hit
//!   is exact, never probabilistic.
//!
//! No 5-tuple's key is kept anywhere: the only keys stored are the
//! masked ones of the megaflows. Both layers verify fingerprint matches
//! of one open-addressed probe loop (`Index`), and nothing sits in
//! front of them — a batch probes per frame exactly as a lone frame
//! does. Everything is tagged with the datapath's mutation epoch: any
//! table/group/meter change bumps it, implicitly flushing the store —
//! and the signature index empties whenever the store it points into
//! has flushed, by epoch or by capacity.
//!
//! The fingerprint is [`FlowKey::flow_hash`], the OVS-style mix, not
//! SipHash (which over the 96-byte [`FlowKey`] costs more than the
//! probe it feeds; EXPERIMENTS.md, `flowhash`). The datapath hashes a
//! frame's key once, where it parses it, for the signature index (the
//! `*_hashed` forms); a wildcard subtable hashes the key as masked.

use netpkt::flowkey::{CompiledMask, FieldMask};
use netpkt::FlowKey;

use openflow::oxm::OxmField;

use crate::actions::CAction;

/// The one tag operation a [`Plan`] performs before its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagOp {
    /// Pop the outermost tag.
    Pop,
    /// Push a tag with this TPID; `vid` is the set-field(VLAN_VID) that
    /// directly followed the push, folded into the pushed tag.
    Push {
        /// TPID of the new tag.
        tpid: u16,
        /// 12-bit VID the new tag is given, if the program sets one.
        vid: Option<u16>,
    },
}

/// A program simple enough to replay without the action interpreter:
/// at most one tag operation up front, then concrete outputs (read off
/// [`CachedPath::actions`] at replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// What happens to the frame before it is emitted.
    pub tag: Option<TagOp>,
    /// How many `Output`s the program holds.
    pub outputs: u32,
}

impl Plan {
    /// Compile `actions`, if they are `[tag op] outputs…`: `PopVlan`, or
    /// `PushVlan` optionally followed by `SetField(VlanVid)`, may lead;
    /// only `Output`s follow, bare or inside group buckets (a bucket of
    /// plain outputs has nothing to scope). Anything else — another
    /// rewrite, a meter, a packet-in, NAT state, a tag operation inside
    /// a bucket — is the interpreter's.
    fn compile(actions: &[CAction]) -> Option<Plan> {
        let (tag, rest) = match actions {
            [CAction::PopVlan, rest @ ..] => (Some(TagOp::Pop), rest),
            [CAction::PushVlan(tpid), CAction::SetField(OxmField::VlanVid(v, _)), rest @ ..] => {
                let vid = Some(v & 0x0fff);
                (Some(TagOp::Push { tpid: *tpid, vid }), rest)
            }
            [CAction::PushVlan(tpid), rest @ ..] => (
                Some(TagOp::Push {
                    tpid: *tpid,
                    vid: None,
                }),
                rest,
            ),
            _ => (None, actions),
        };
        let mut outputs = 0;
        for a in rest {
            match a {
                CAction::Output(_) => outputs += 1,
                CAction::BucketBegin | CAction::BucketEnd => {}
                _ => return None,
            }
        }
        Some(Plan { tag, outputs })
    }
}

/// A cached, fully resolved processing recipe.
///
/// Owned by the megaflow store, which lends it to every hit: a replay
/// never copies the recorded action list.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPath {
    /// The lowered action program, as the slow path stepped it.
    pub actions: Vec<CAction>,
    /// `(table, entry index)` pairs whose counters this path bumps. An
    /// entry index is valid until its table's next mutation, and every
    /// mutation bumps the epoch that retires this path.
    pub hits: Vec<(usize, usize)>,
    /// Datapath epoch this was recorded at.
    pub epoch: u64,
    /// Precompiled replay for forward and tag-and-forward programs —
    /// the overwhelmingly common case on a switch's fast path, and
    /// every frame a HARMLESS translator sees. A hit on such a path
    /// emits the ingress frame (tagged or untagged in place if nobody
    /// else holds it) with no action interpretation and no key copy.
    /// `None` when the program does anything else.
    plan: Option<Plan>,
}

impl CachedPath {
    /// Record a path, compiling its replay plan (one action scan, paid
    /// once per resolved path).
    pub fn new(mut actions: Vec<CAction>, mut hits: Vec<(usize, usize)>, epoch: u64) -> CachedPath {
        // A path lives in the store for an epoch: drop the growth slack
        // of the recording it was built from.
        actions.shrink_to_fit();
        hits.shrink_to_fit();
        let plan = Plan::compile(&actions);
        CachedPath {
            actions,
            hits,
            epoch,
            plan,
        }
    }

    /// The precompiled replay plan, if this path has one.
    #[inline]
    pub fn plan(&self) -> Option<Plan> {
        self.plan
    }
}

/// The one probe loop: open-addressed `(32-bit fingerprint, id)` slots
/// over somebody else's storage (power-of-two slots, linear probing, at
/// most half full, doubled on demand from 16 and never pre-sized to a
/// cap). A probe walks 8-byte slots and asks its caller to verify an id
/// only on a fingerprint match, so a miss costs what a hit does.
/// Nothing is removed singly: an index empties wholesale, keeping its
/// allocation.
///
/// The fingerprint is the caller's — [`FlowKey::flow_hash`]`(0)` in the
/// datapath, anything in tests; a key must simply arrive with the same
/// hash every time.
#[derive(Debug, Default)]
struct Index {
    /// `(fingerprint, id + 1)`; 0 = vacant.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Index {
    /// Walk `hash`'s probe sequence to the first slot that carries the
    /// fingerprint and whose id passes `verify`: `Ok(id)`, or
    /// `Err(vacant slot)` where the chain ends (`Err(0)` on an index
    /// not allocated yet). A fingerprint match that fails verification
    /// probes on.
    #[inline]
    fn probe(&self, hash: u32, mut verify: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut s = hash as usize & mask;
        while let Some(&(fp, id)) = self.slots.get(s) {
            if id == 0 {
                break;
            }
            let i = id as usize - 1;
            if fp == hash && verify(i) {
                return Ok(i);
            }
            s = (s + 1) & mask;
        }
        Err(s)
    }

    /// Make room for one more slot: call before the [`Index::probe`]
    /// whose vacant slot [`Index::set`] is to fill.
    fn reserve(&mut self) {
        if (self.len + 1) * 2 > self.slots.len() {
            // Double, re-placing every slot by its fingerprint (nothing
            // behind an id is read).
            let n = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); n]);
            for slot in old.into_iter().filter(|s| s.1 != 0) {
                let mut s = slot.0 as usize & (n - 1);
                while self.slots[s].1 != 0 {
                    s = (s + 1) & (n - 1);
                }
                self.slots[s] = slot;
            }
        }
    }

    /// Fill the vacant slot `s` a probe for `hash` ended at.
    fn set(&mut self, s: usize, hash: u32, id: usize) {
        self.len += 1;
        let id = u32::try_from(id + 1).expect("memory bounds the ids");
        self.slots[s] = (hash, id);
    }

    fn clear(&mut self) {
        // An empty index is already vacant: a flow-mod burst bumps the
        // epoch many times between frames.
        if self.len != 0 {
            self.slots.fill((0, 0));
            self.len = 0;
        }
    }
}

/// One cached megaflow: a masked key and the path every key it covers
/// takes.
#[derive(Debug)]
struct Megaflow {
    /// Position of the mask's subtable in [`MegaflowCache::masks`].
    mask: usize,
    masked: FlowKey,
    path: CachedPath,
}

/// One mask's wildcard subtable: the ids of its megaflows, indexed by
/// the hash of their masked keys.
#[derive(Debug)]
struct Subtable {
    mask: CompiledMask,
    index: Index,
}

/// Masked cache: one addressable store of megaflows, append-only
/// between flushes, under a list of per-mask subtables. An id
/// ([`MegaflowCache::lookup`], [`MegaflowCache::insert`]) is good for
/// [`MegaflowCache::path`] until the next flush; the microflow layer
/// holds nothing else.
#[derive(Debug, Default)]
pub struct MegaflowCache {
    store: Vec<Megaflow>,
    masks: Vec<Subtable>,
    epoch: u64,
    /// Flushes so far: what a [`SignatureIndex`] remembers to know
    /// whether its ids still mean anything.
    generation: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl MegaflowCache {
    /// A cache bounded to `capacity` total entries.
    pub fn new(capacity: usize) -> MegaflowCache {
        MegaflowCache {
            capacity,
            ..MegaflowCache::default()
        }
    }

    fn flush(&mut self) {
        self.store.clear();
        self.masks.clear();
        self.generation += 1;
    }

    /// Validate against the datapath epoch: megaflows recorded under
    /// another epoch are dropped wholesale.
    #[inline]
    fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.flush();
            self.epoch = epoch;
        }
    }

    /// Does the megaflow `id` cover `key`? Exact: a signature match that
    /// passes cannot be a false positive.
    #[inline]
    fn covers(&self, id: usize, key: &FlowKey) -> bool {
        let flow = &self.store[id];
        self.masks[flow.mask].mask.covers(key, &flow.masked)
    }

    /// The id of the first megaflow covering `key`, subtables in
    /// insertion order, and the number of them probed.
    fn find(&self, key: &FlowKey) -> (Option<usize>, u32) {
        let mut probes = 0;
        for table in &self.masks {
            probes += 1;
            let masked = key.masked(table.mask.mask());
            let verify = |i: usize| self.store[i].masked == masked;
            if let Ok(id) = table.index.probe(masked.flow_hash(0), verify) {
                return (Some(id), probes);
            }
        }
        (None, probes)
    }

    /// Look up `key`; returns the covering megaflow's id and the number
    /// of masks probed.
    pub fn lookup(&mut self, key: &FlowKey, epoch: u64) -> (Option<usize>, u32) {
        self.ensure_epoch(epoch);
        let (found, probes) = self.find(key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        (found, probes)
    }

    /// The path of megaflow `id`, lent.
    #[inline]
    pub fn path(&self, id: usize) -> &CachedPath {
        &self.store[id].path
    }

    /// Record a path for `key` under `mask` (the unwildcarded field
    /// set), flushing first if the cache is full; returns the
    /// megaflow's id. An equal masked key keeps its id and takes the
    /// new path.
    pub fn insert(&mut self, key: &FlowKey, mask: FieldMask, path: CachedPath) -> usize {
        self.ensure_epoch(path.epoch);
        if self.store.len() >= self.capacity {
            self.flush();
        }
        let t = match self.masks.iter().position(|t| *t.mask.mask() == mask) {
            Some(t) => t,
            None => {
                self.masks.push(Subtable {
                    mask: CompiledMask::new(mask),
                    index: Index::default(),
                });
                self.masks.len() - 1
            }
        };
        let table = &mut self.masks[t];
        let masked = key.masked(&mask);
        let hash = masked.flow_hash(0);
        table.index.reserve();
        match table.index.probe(hash, |i| self.store[i].masked == masked) {
            Ok(id) => {
                self.store[id].path = path;
                id
            }
            Err(s) => {
                self.store.push(Megaflow {
                    mask: t,
                    masked,
                    path,
                });
                table.index.set(s, hash, self.store.len() - 1);
                self.store.len() - 1
            }
        }
    }

    /// Non-mutating residency probe: would `key` hit at `epoch` right
    /// now? Unlike [`MegaflowCache::lookup`] this neither flushes a
    /// stale cache (a stale epoch simply answers `false`) nor moves the
    /// hit/miss counters — the flow-level engine polls it without
    /// disturbing the statistics the promotion decision itself reads.
    pub fn contains(&self, key: &FlowKey, epoch: u64) -> bool {
        self.epoch == epoch && self.find(key).0.is_some()
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Distinct masks.
    pub fn mask_count(&self) -> usize {
        self.masks.len()
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The microflow layer: per 5-tuple, one `(full-key fingerprint,
/// megaflow id)` slot into a [`MegaflowCache`], verified against the
/// megaflow it names, so a hit is exact; two 5-tuples with one
/// fingerprint under one megaflow share a slot and both hit.
///
/// Every call names the store the ids live in. The index empties when
/// it holds `cap` slots (like the kernel datapath's emergency flush)
/// and whenever that store has flushed since, so no slot outlives the
/// megaflow it points at.
#[derive(Debug, Default)]
pub struct SignatureIndex {
    index: Index,
    /// The store's flush count the slots were admitted under.
    generation: u64,
    cap: usize,
    hits: u64,
    misses: u64,
}

/// Exact-match cache: a [`SignatureIndex`] over the megaflow store.
pub type MicroflowCache = SignatureIndex;

impl SignatureIndex {
    /// An empty index that flushes at `cap` slots.
    pub fn new(cap: usize) -> SignatureIndex {
        SignatureIndex {
            cap,
            ..SignatureIndex::default()
        }
    }

    /// Drop every slot if `store` flushed since they were admitted.
    #[inline]
    fn sync(&mut self, store: &MegaflowCache) {
        if self.generation != store.generation {
            self.index.clear();
            self.generation = store.generation;
        }
    }

    /// Look up an exact key at `epoch` (moving `store` to that epoch
    /// first): the id of a megaflow in `store` that covers it, if this
    /// 5-tuple — or one sharing its fingerprint and megaflow — was
    /// admitted. `hash` is the key's fingerprint.
    #[inline]
    pub fn lookup_hashed(
        &mut self,
        hash: u32,
        key: &FlowKey,
        epoch: u64,
        store: &mut MegaflowCache,
    ) -> Option<usize> {
        store.ensure_epoch(epoch);
        self.sync(store);
        let found = self.index.probe(hash, |id| store.covers(id, key)).ok();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Admit the 5-tuple with fingerprint `hash` as served by megaflow
    /// `id` of `store` (an id `store` just handed out for it), flushing
    /// first if the index is full. Call after a miss: a 5-tuple admitted
    /// twice holds two slots.
    pub fn insert_hashed(&mut self, hash: u32, id: usize, store: &MegaflowCache) {
        self.sync(store);
        if self.index.len >= self.cap {
            self.index.clear(); // emergency flush
        }
        self.index.reserve();
        let s = self
            .index
            .probe(hash, |_| false)
            .expect_err("nothing verifies: the walk ends at the vacant slot");
        self.index.set(s, hash, id);
    }

    /// Slots currently admitted.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True if no slot is admitted.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn key(src: u32, dst_port: u16) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::from(0x0a000000 + src),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            b"x",
        );
        FlowKey::extract(1, &f).unwrap()
    }

    fn path(epoch: u64) -> CachedPath {
        CachedPath::new(vec![CAction::Output(1)], vec![(0, 0)], epoch)
    }

    /// Admit `key` into `store` under `mask`, then into `c`.
    fn admit(c: &mut MicroflowCache, store: &mut MegaflowCache, key: FlowKey, mask: FieldMask) {
        let id = store.insert(&key, mask, path(1));
        c.insert_hashed(key.flow_hash(0), id, store);
    }

    fn hit(c: &mut MicroflowCache, store: &mut MegaflowCache, key: FlowKey, epoch: u64) -> bool {
        c.lookup_hashed(key.flow_hash(0), &key, epoch, store)
            .is_some()
    }

    #[test]
    fn microflow_hit_and_epoch_flush() {
        let (mut c, mut store) = (MicroflowCache::new(100), MegaflowCache::new(100));
        admit(&mut c, &mut store, key(1, 53), FlowKey::exact_mask());
        assert!(hit(&mut c, &mut store, key(1, 53), 1));
        assert!(
            !hit(&mut c, &mut store, key(2, 53), 1),
            "different src = different microflow"
        );
        // Epoch bump flushes the store, and the index with it.
        assert!(!hit(&mut c, &mut store, key(1, 53), 2));
        assert_eq!((c.len(), store.len()), (0, 0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn microflow_capacity_flush() {
        let (mut c, mut store) = (MicroflowCache::new(2), MegaflowCache::new(100));
        for src in 1..=3 {
            admit(&mut c, &mut store, key(src, 1), FlowKey::exact_mask()); // third flushes first
        }
        assert_eq!((c.len(), store.len()), (1, 3));
        assert!(hit(&mut c, &mut store, key(3, 1), 1));
        assert!(!hit(&mut c, &mut store, key(1, 1), 1), "its megaflow stays");
        assert!(store.contains(&key(1, 1), 1));
    }

    #[test]
    fn store_flush_empties_the_index_that_points_into_it() {
        let (mut c, mut store) = (MicroflowCache::new(100), MegaflowCache::new(2));
        for src in 1..=3 {
            admit(&mut c, &mut store, key(src, 1), FlowKey::exact_mask()); // third flushes the store
        }
        assert_eq!((c.len(), store.len()), (1, 1));
        assert!(hit(&mut c, &mut store, key(3, 1), 1));
        assert!(!hit(&mut c, &mut store, key(1, 1), 1));
    }

    #[test]
    fn microflow_hit_is_verified_against_the_megaflow() {
        let (mut c, mut store) = (MicroflowCache::new(100), MegaflowCache::new(100));
        let mut mask = FlowKey::empty_mask();
        mask.udp_dst = u16::MAX;
        admit(&mut c, &mut store, key(1, 53), mask);
        // Only an admitted 5-tuple hits, whatever its megaflow covers …
        assert!(!hit(&mut c, &mut store, key(2, 53), 1));
        // … and one fingerprint over two megaflows serves each its own.
        let (a, b) = (key(1, 53), key(1, 80));
        let ib = store.insert(&b, mask, path(1));
        let ia = store.lookup(&a, 1).0.unwrap();
        assert_ne!(ia, ib);
        c.insert_hashed(7, ia, &store);
        c.insert_hashed(7, ib, &store);
        assert_eq!(c.lookup_hashed(7, &a, 1, &mut store), Some(ia));
        assert_eq!(c.lookup_hashed(7, &b, 1, &mut store), Some(ib));
        assert_eq!(c.lookup_hashed(7, &key(1, 81), 1, &mut store), None);
    }

    #[test]
    fn megaflow_one_entry_covers_many_microflows() {
        let mut c = MegaflowCache::new(100);
        // Unwildcarded mask: only udp_dst matters.
        let mut mask = FlowKey::empty_mask();
        mask.udp_dst = u16::MAX;
        c.insert(&key(1, 53), mask, path(1));
        // Every src hits the same megaflow.
        for src in 1..50 {
            let (hit, probes) = c.lookup(&key(src, 53), 1);
            assert_eq!(hit, Some(0), "src {src} must hit");
            assert_eq!(probes, 1);
        }
        let (miss, _) = c.lookup(&key(1, 80), 1);
        assert!(miss.is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.hits(), 49);
    }

    #[test]
    fn megaflow_multiple_masks_probe_in_order() {
        let mut c = MegaflowCache::new(100);
        let mut m1 = FlowKey::empty_mask();
        m1.udp_dst = u16::MAX;
        let mut m2 = FlowKey::empty_mask();
        m2.ipv4_src = u32::MAX;
        c.insert(&key(1, 53), m1, path(1));
        c.insert(&key(7, 99), m2, path(1));
        assert_eq!(c.mask_count(), 2);
        let (hit, probes) = c.lookup(&key(7, 99), 1);
        assert!(hit.is_some());
        assert_eq!(probes, 2, "second mask group needs a second probe");
    }

    #[test]
    fn megaflow_epoch_flush() {
        let mut c = MegaflowCache::new(100);
        let mask = FlowKey::exact_mask();
        c.insert(&key(1, 53), mask, path(1));
        let (hit, _) = c.lookup(&key(1, 53), 2);
        assert!(hit.is_none());
        assert!(c.is_empty());
    }
}
