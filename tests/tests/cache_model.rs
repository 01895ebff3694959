//! Model-based tests for the probe loop behind the flow caches
//! (`softswitch::cache`), driven through its hash-injecting entry points:
//! the microflow layer — a signature index of `(fingerprint, megaflow
//! id)` slots — together with the megaflow store it points into,
//! operation by operation against a model whose hit rule is "some
//! admitted slot with this fingerprint points at a stored megaflow that
//! covers the key".
//!
//! The hash is the caller's, so the tests choose it: every key on one
//! slot, every key on one full 32-bit fingerprint (a fingerprint match
//! must still be verified against the megaflow), probe chains that wrap
//! around the end of the index. CI also runs this suite in `--release`:
//! slot arithmetic is mask-and-wrap and must hold without overflow
//! checks.

use netpkt::flowkey::FieldMask;
use netpkt::{builder, FlowKey, MacAddr};
use proptest::prelude::*;
use softswitch::actions::CAction;
use softswitch::cache::{CachedPath, MegaflowCache, MicroflowCache};

fn key(i: u32) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(i),
        MacAddr::host(2),
        std::net::Ipv4Addr::from(0x0a00_0000 + i),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        1000 + (i % 7) as u16,
        53,
        b"x",
    );
    FlowKey::extract(1 + i % 3, &f).unwrap()
}

/// The megaflow key number `i` is cached under — the test's slow path.
/// Three keys in four share one of 21 `(in_port, udp_src)` megaflows
/// (which cover the fourth kind too); every fourth gets one of its own.
fn mask(i: u32) -> FieldMask {
    if i.is_multiple_of(4) {
        return FlowKey::exact_mask();
    }
    let mut m = FlowKey::empty_mask();
    m.in_port = u32::MAX;
    m.udp_src = u16::MAX;
    m
}

/// How the test hashes key number `i` — one rule per run, so a key
/// always arrives with the same hash.
fn hash(mode: u8, i: u32) -> u32 {
    match mode {
        // The datapath's own.
        0 => key(i).flow_hash(0),
        // One slot, one fingerprint: only the key compare tells keys apart.
        1 => 0xdead_beef,
        // One slot (for any index below 2^20 slots), distinct fingerprints.
        2 => i << 20,
        // Three fingerprints on three neighbouring slots: chains overlap.
        3 => i % 3,
        // The last two slots of any index: every chain wraps to slot 0.
        _ => u32::MAX - (i % 2),
    }
}

fn path(id: u32, epoch: u64) -> CachedPath {
    CachedPath::new(vec![CAction::Output(id)], vec![], epoch)
}

fn id_of(p: &CachedPath) -> u32 {
    match p.actions[..] {
        [CAction::Output(id)] => id,
        _ => unreachable!("test paths are one output"),
    }
}

/// The contract of a [`MicroflowCache`] over a [`MegaflowCache`], on
/// two vectors.
#[derive(Default)]
struct Model {
    /// `(mask, masked key, path id)`; position = megaflow id.
    store: Vec<(FieldMask, FlowKey, u32)>,
    /// Admitted `(fingerprint, megaflow id)` slots.
    slots: Vec<(u32, usize)>,
    epoch: u64,
    micro_cap: usize,
    mega_cap: usize,
    hits: u64,
    misses: u64,
}

impl Model {
    fn flush(&mut self) {
        self.store.clear();
        self.slots.clear(); // they point into the store
    }

    fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.flush();
            self.epoch = epoch;
        }
    }

    /// Path ids a lookup of `key` under fingerprint `hash` may answer
    /// with; empty = miss.
    fn lookup(&mut self, hash: u32, key: &FlowKey, epoch: u64) -> Vec<u32> {
        self.ensure_epoch(epoch);
        let served: Vec<u32> = (self.slots.iter())
            .filter(|&&(fp, _)| fp == hash)
            .map(|&(_, id)| self.store[id])
            .filter(|(mask, masked, _)| key.masked(mask) == *masked)
            .map(|(_, _, path)| path)
            .collect();
        match served.is_empty() {
            false => self.hits += 1,
            true => self.misses += 1,
        }
        served
    }

    /// The slow path's two inserts: the megaflow, then the slot.
    fn insert(&mut self, hash: u32, key: &FlowKey, mask: FieldMask, path: u32, epoch: u64) {
        self.ensure_epoch(epoch);
        if self.store.len() >= self.mega_cap {
            self.flush();
        }
        let masked = key.masked(&mask);
        let id = match (self.store.iter()).position(|(m, k, _)| (*m, *k) == (mask, masked)) {
            Some(id) => {
                self.store[id].2 = path;
                id
            }
            None => {
                self.store.push((mask, masked, path));
                self.store.len() - 1
            }
        };
        if self.slots.len() >= self.micro_cap {
            self.slots.clear(); // emergency flush, then admit
        }
        self.slots.push((hash, id));
    }
}

/// Run `ops` — `(kind, key number, epoch selector)` — through an index
/// of `micro_cap` over a store of `mega_cap` and the model, comparing
/// after every step. Returns the peak slot count.
fn run(
    ops: &[(u8, u16, u8)],
    mode: u8,
    micro_cap: usize,
    mega_cap: usize,
) -> Result<usize, TestCaseError> {
    let mut cache = MicroflowCache::new(micro_cap);
    let mut store = MegaflowCache::new(mega_cap);
    let mut model = Model {
        micro_cap,
        mega_cap,
        ..Model::default()
    };
    let (mut epoch, mut peak) = (1u64, 0usize);
    for (step, &(kind, k, e)) in ops.iter().enumerate() {
        let (k, id) = (u32::from(k), step as u32);
        let (fk, h) = (key(k), hash(mode, k));
        // One op in sixteen moves the epoch first.
        epoch += u64::from(e == 0);
        match kind {
            0..=3 => {
                let at = store.insert(&fk, mask(k), path(id, epoch));
                cache.insert_hashed(h, at, &store);
                model.insert(h, &fk, mask(k), id, epoch);
            }
            _ => {
                let got = cache.lookup_hashed(h, &fk, epoch, &mut store);
                let got = got.map(|at| id_of(store.path(at)));
                let want = model.lookup(h, &fk, epoch);
                prop_assert!(
                    got.map_or(want.is_empty(), |p| want.contains(&p)),
                    "lookup of key {} at step {}: {:?}, model {:?}",
                    k,
                    step,
                    got,
                    want
                );
            }
        }
        prop_assert_eq!(cache.len(), model.slots.len(), "slots after step {}", step);
        prop_assert_eq!(cache.is_empty(), model.slots.is_empty());
        prop_assert_eq!(store.len(), model.store.len(), "store after step {}", step);
        prop_assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
        peak = peak.max(cache.len());
    }
    // Every key of the universe, admitted or not — and the store's own
    // wildcard lookup, which needs no slot.
    for k in 0..400 {
        let fk = key(k);
        let got = cache.lookup_hashed(hash(mode, k), &fk, epoch, &mut store);
        let want = model.lookup(hash(mode, k), &fk, epoch);
        prop_assert_eq!(got.is_some(), !want.is_empty(), "final sweep, key {}", k);
        let covered = (model.store.iter()).any(|(m, masked, _)| fk.masked(m) == *masked);
        prop_assert_eq!(
            store.contains(&fk, epoch),
            covered,
            "store sweep, key {}",
            k
        );
        prop_assert!(
            !store.contains(&fk, epoch + 1),
            "a stale epoch holds nothing"
        );
    }
    Ok(peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random insert / lookup / epoch-move sequences, under every hash
    /// rule, through indexes that never fill (the slots double 16 → 32
    /// → … → 512 and beyond), fill now and then, and flush on nearly
    /// every insert — over a store that never fills, or fills and takes
    /// the index with it.
    #[test]
    fn microflow_cache_agrees_with_hashmap_model(
        ops in proptest::collection::vec((0u8..8, 0u16..400, 0u8..16), 1..700),
        mode in 0u8..5,
        cap_sel in 0usize..5,
        small_store in 0u8..3,
    ) {
        let micro_cap = [0, 1, 7, 40, 100_000][cap_sel];
        let mega_cap = if small_store == 0 { 30 } else { 100_000 };
        run(&ops, mode, micro_cap, mega_cap)?;
    }
}

/// Insert-heavy, no epoch moves, room for everything: the index must
/// double at least three times under every hash rule and lose nobody.
#[test]
fn growth_crosses_doublings_under_every_hash_rule() {
    for mode in 0..5 {
        // Each key admitted once, then looked up.
        let ops: Vec<(u8, u16, u8)> = (0..800u16)
            .map(|n| (4 * u8::from(n >= 400), n % 400, 5))
            .collect();
        let peak =
            run(&ops, mode, 100_000, 100_000).unwrap_or_else(|e| panic!("mode {mode}: {e:?}"));
        // 16 slots hold 8 ids; 400 ids took 6 doublings.
        assert_eq!(peak, 400, "mode {mode}");
    }
}

/// An index filled exactly to its cap keeps all of it; one more insert
/// flushes and admits, and the flushed slots are gone — their megaflows
/// are not.
#[test]
fn filled_to_cap_then_flushed() {
    for mode in 0..5 {
        let (mut c, mut store) = (MicroflowCache::new(64), MegaflowCache::new(1000));
        let ids: Vec<usize> = (0..64)
            .map(|k| store.insert(&key(k), FlowKey::exact_mask(), path(k, 1)))
            .collect();
        for k in 0..64 {
            c.insert_hashed(hash(mode, k), ids[k as usize], &store);
        }
        assert_eq!(c.len(), 64);
        for k in 0..64 {
            let got = c.lookup_hashed(hash(mode, k), &key(k), 1, &mut store);
            assert_eq!(got, Some(ids[k as usize]), "mode {mode}");
        }
        // A 5-tuple already admitted still trips the flush: the capacity
        // check comes before the probe, as it always has.
        c.insert_hashed(hash(mode, 3), ids[3], &store);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.lookup_hashed(hash(mode, 3), &key(3), 1, &mut store),
            Some(ids[3])
        );
        assert_eq!(c.lookup_hashed(hash(mode, 4), &key(4), 1, &mut store), None);
        assert!(store.contains(&key(4), 1));
        assert_eq!((c.hits(), c.misses()), (65, 1));
    }
}

/// What a table of private keys could not do. Two 5-tuples with one
/// fingerprint under *different* megaflows are each served their own
/// path (the verify probes on past the other's slot); two under the
/// *same* megaflow share a slot, so the second hits before it was ever
/// admitted — and nothing that megaflow does not cover hits, same
/// fingerprint or not.
#[test]
fn one_fingerprint_is_told_apart_by_the_megaflow_not_by_a_key() {
    let (mut c, mut store) = (MicroflowCache::new(64), MegaflowCache::new(64));
    const FP: u32 = 0xdead_beef;
    // Keys 1 and 22 fall under one `(in_port, udp_src)` megaflow, key 2
    // under another, key 4 under its own exact one.
    assert_eq!(key(1).masked(&mask(1)), key(22).masked(&mask(22)));
    let (a, b, d) = (
        store.insert(&key(1), mask(1), path(10, 1)),
        store.insert(&key(2), mask(2), path(20, 1)),
        store.insert(&key(4), mask(4), path(40, 1)),
    );
    for id in [a, b, d] {
        c.insert_hashed(FP, id, &store);
    }
    let mut served = |k: u32| {
        let at = c.lookup_hashed(FP, &key(k), 1, &mut store);
        at.map(|at| id_of(store.path(at)))
    };
    assert_eq!(served(1), Some(10));
    assert_eq!(served(2), Some(20));
    assert_eq!(served(4), Some(40));
    assert_eq!(served(22), Some(10), "shares key 1's slot");
    assert_eq!(served(8), None, "key 8's megaflow is nobody's");
    assert_eq!(c.len(), 3);
    // Under another fingerprint the shared megaflow is not a microflow hit.
    assert_eq!(c.lookup_hashed(FP + 1, &key(22), 1, &mut store), None);
}
