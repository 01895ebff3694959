//! Flow caches in front of the pipeline, OVS-style.
//!
//! * [`ExactTable`]: exact [`FlowKey`] → recorded actions, an
//!   open-addressed index of 32-bit fingerprints over `(key, path)`
//!   entries. One probe, but every distinct microflow occupies an
//!   entry. The [`MicroflowCache`] is one; the batch memo (`batch.rs`)
//!   holds another under its own admission rule.
//! * [`MegaflowCache`]: `(mask, masked key)` → recorded actions, where the
//!   mask is the *unwildcarded* set of fields the slow path actually
//!   consulted. One entry covers an entire rule region, so the cache stays
//!   small under flow churn.
//!
//! Both are tagged with the datapath's mutation epoch; any
//! table/group/meter change bumps the epoch, implicitly flushing them.
//!
//! Both hash with the OVS-style mix ([`FlowKey::flow_hash`],
//! [`FlowHashBuilder`]) instead of the standard library's SipHash: a
//! SipHash probe over the 96-byte [`FlowKey`] (`size_of`; 91 bytes of
//! fields) costs about as much as an entire memoised replay (see
//! EXPERIMENTS.md's `flowhash` group). The datapath hashes a frame's
//! key once per pass and hands that hash to every exact-match probe and
//! insert (the `*_hashed` forms).

use std::collections::HashMap;
use std::sync::Arc;

use netpkt::flowkey::FieldMask;
use netpkt::{FlowHashBuilder, FlowKey};

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
/// Stored behind an [`Arc`] everywhere (both caches, the per-batch
/// memo): resolving a hit hands out a reference-count bump, never a
/// deep copy of the recorded action list. A path is immutable once
/// recorded, so sharing is safe by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPath {
    /// The lowered action program, as the slow path stepped it.
    pub actions: Vec<CAction>,
    /// `(table, entry index)` pairs whose counters this path bumps.
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
        // A path lives for an epoch in up to three caches: drop the
        // growth slack of the recording it was built from.
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

/// The exact-match table: `(key, path)` entries stored once, in
/// insertion order, under an open-addressed index of 32-bit
/// fingerprints (power-of-two slots, linear probing, at most half
/// full, doubled on demand from 16 and never pre-sized to the cap). A
/// probe walks 8-byte slots and reads a key only on a fingerprint
/// match, so a miss costs what a hit does. Nothing is removed singly:
/// the table empties wholesale (epoch move, or full), keeping its
/// allocations.
///
/// The fingerprint is the caller's — [`FlowKey::flow_hash`]`(0)` in the
/// datapath, anything in tests; a key must simply arrive with the same
/// hash every time. [`ExactTable::find`] / [`ExactTable::put`] are the
/// bare table (the batch memo's side); `lookup` / `insert` / `contains`
/// add the microflow cache's policy: epoch-validated on every call,
/// flushed when full, hits and misses counted.
#[derive(Debug, Default)]
pub struct ExactTable {
    entries: Vec<(FlowKey, Arc<CachedPath>)>,
    /// `(fingerprint, entry position + 1)`; 0 = vacant.
    slots: Vec<(u32, u32)>,
    epoch: u64,
    cap: usize,
    hits: u64,
    misses: u64,
}

/// Exact-match cache: an [`ExactTable`] bounded to its capacity by full
/// flush, like the kernel datapath's emergency flush.
pub type MicroflowCache = ExactTable;

impl ExactTable {
    /// An empty table that is [`ExactTable::is_full`] at `cap` entries.
    pub fn new(cap: usize) -> ExactTable {
        ExactTable {
            cap,
            ..ExactTable::default()
        }
    }

    /// Walk `key`'s probe sequence: `Ok(entry position)` if present,
    /// `Err(vacant slot)` where it would go (`Err(0)` on an index not
    /// allocated yet).
    fn probe(&self, hash: u32, key: &FlowKey) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut s = hash as usize & mask;
        while let Some(&(fp, entry)) = self.slots.get(s) {
            if entry == 0 {
                break;
            }
            let i = entry as usize - 1;
            if fp == hash && self.entries[i].0 == *key {
                return Ok(i);
            }
            s = (s + 1) & mask;
        }
        Err(s)
    }

    /// Position of `key`'s entry, good for [`ExactTable::entry`] until
    /// the next flush. No epoch check, no counter.
    #[inline]
    pub fn find(&self, hash: u32, key: &FlowKey) -> Option<usize> {
        self.probe(hash, key).ok()
    }

    /// The entry at position `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> Option<&(FlowKey, Arc<CachedPath>)> {
        self.entries.get(i)
    }

    /// Record `path` for `key` (replacing the path of an equal key) and
    /// return the entry's position. No epoch check, no flush.
    pub fn put(&mut self, hash: u32, key: FlowKey, path: Arc<CachedPath>) -> usize {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(hash, &key) {
            Ok(i) => {
                self.entries[i].1 = path;
                i
            }
            Err(s) => {
                self.entries.push((key, path));
                let n = u32::try_from(self.entries.len()).expect("memory bounds the entries");
                self.slots[s] = (hash, n);
                self.entries.len() - 1
            }
        }
    }

    /// Double the index, re-placing every slot by its fingerprint (no
    /// key is read).
    fn grow(&mut self) {
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

    /// Validate against the datapath epoch: entries recorded under
    /// another epoch are dropped wholesale (their paths may reference
    /// reordered table entries).
    #[inline]
    pub fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.clear();
            self.epoch = epoch;
        }
    }

    fn clear(&mut self) {
        // An empty table's index is already vacant: a flow-mod burst
        // bumps the epoch many times between frames.
        if !self.entries.is_empty() {
            self.entries.clear();
            self.slots.fill((0, 0));
        }
    }

    /// True once `cap` entries are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.cap
    }

    /// Look up an exact key at `epoch`. Cloning the returned handle is
    /// a refcount bump.
    pub fn lookup(&mut self, key: &FlowKey, epoch: u64) -> Option<&Arc<CachedPath>> {
        self.lookup_hashed(key.flow_hash(0), key, epoch)
    }

    /// [`ExactTable::lookup`] with the key's hash already in hand.
    #[inline]
    pub fn lookup_hashed(
        &mut self,
        hash: u32,
        key: &FlowKey,
        epoch: u64,
    ) -> Option<&Arc<CachedPath>> {
        self.ensure_epoch(epoch);
        let found = self.probe(hash, key).ok();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found.map(|i| &self.entries[i].1)
    }

    /// Record a path for `key`, flushing first if the table is full.
    pub fn insert(&mut self, key: FlowKey, path: Arc<CachedPath>) {
        self.insert_hashed(key.flow_hash(0), key, path);
    }

    /// [`ExactTable::insert`] with the key's hash already in hand.
    pub fn insert_hashed(&mut self, hash: u32, key: FlowKey, path: Arc<CachedPath>) {
        self.ensure_epoch(path.epoch);
        if self.is_full() {
            self.clear(); // emergency flush
        }
        self.put(hash, key, path);
    }

    /// Non-mutating residency probe: would `key` hit at `epoch` right
    /// now? Unlike [`ExactTable::lookup`] this neither flushes a stale
    /// cache (a stale epoch simply answers `false`) nor moves the
    /// hit/miss counters — the flow-level engine polls it without
    /// disturbing the statistics the promotion decision itself reads.
    pub fn contains(&self, key: &FlowKey, epoch: u64) -> bool {
        self.contains_hashed(key.flow_hash(0), key, epoch)
    }

    /// [`ExactTable::contains`] with the key's hash already in hand.
    pub fn contains_hashed(&self, hash: u32, key: &FlowKey, epoch: u64) -> bool {
        self.epoch == epoch && self.probe(hash, key).is_ok()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

/// One mask's exact map of masked keys to shared paths.
type MaskGroup = (
    FieldMask,
    HashMap<FlowKey, Arc<CachedPath>, FlowHashBuilder>,
);

/// Masked cache: a list of masks, each with an exact map of masked keys.
#[derive(Debug, Default)]
pub struct MegaflowCache {
    groups: Vec<MaskGroup>,
    epoch: u64,
    capacity: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

impl MegaflowCache {
    /// A cache bounded to `capacity` total entries.
    pub fn new(capacity: usize) -> MegaflowCache {
        MegaflowCache {
            groups: Vec::new(),
            epoch: 0,
            capacity,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn flush(&mut self) {
        self.groups.clear();
        self.len = 0;
    }

    /// Look up `key`; returns the path and the number of masks probed.
    pub fn lookup(&mut self, key: &FlowKey, epoch: u64) -> (Option<&Arc<CachedPath>>, u32) {
        if self.epoch != epoch {
            self.flush();
            self.epoch = epoch;
        }
        let mut probes = 0u32;
        let mut found = None;
        for (mask, map) in &self.groups {
            probes += 1;
            found = map.get(&key.masked(mask));
            if found.is_some() {
                break;
            }
        }
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        (found, probes)
    }

    /// Record a path for `key` under `mask` (the unwildcarded field set).
    pub fn insert(&mut self, key: &FlowKey, mask: FieldMask, path: Arc<CachedPath>) {
        if self.epoch != path.epoch {
            self.flush();
            self.epoch = path.epoch;
        }
        if self.len >= self.capacity {
            self.flush();
        }
        let masked = key.masked(&mask);
        let group = match self.groups.iter_mut().position(|(m, _)| *m == mask) {
            Some(i) => &mut self.groups[i].1,
            None => {
                self.groups.push((mask, HashMap::default()));
                &mut self.groups.last_mut().unwrap().1
            }
        };
        if group.insert(masked, path).is_none() {
            self.len += 1;
        }
    }

    /// Non-mutating residency probe: would `key` hit at `epoch` right
    /// now? Stale epochs answer `false` without flushing; no counters
    /// move (see [`ExactTable::contains`]).
    pub fn contains(&self, key: &FlowKey, epoch: u64) -> bool {
        self.epoch == epoch
            && self
                .groups
                .iter()
                .any(|(mask, map)| map.contains_key(&key.masked(mask)))
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct masks.
    pub fn mask_count(&self) -> usize {
        self.groups.len()
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

    fn path(epoch: u64) -> Arc<CachedPath> {
        Arc::new(CachedPath::new(
            vec![CAction::Output(1)],
            vec![(0, 0)],
            epoch,
        ))
    }

    #[test]
    fn microflow_hit_and_epoch_flush() {
        let mut c = MicroflowCache::new(100);
        c.insert(key(1, 53), path(1));
        assert!(c.lookup(&key(1, 53), 1).is_some());
        assert!(
            c.lookup(&key(2, 53), 1).is_none(),
            "different src = different microflow"
        );
        // Epoch bump flushes.
        assert!(c.lookup(&key(1, 53), 2).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn microflow_capacity_flush() {
        let mut c = MicroflowCache::new(2);
        c.insert(key(1, 1), path(1));
        c.insert(key(2, 1), path(1));
        c.insert(key(3, 1), path(1)); // triggers flush then insert
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&key(3, 1), 1).is_some());
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
            assert!(hit.is_some(), "src {src} must hit");
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
