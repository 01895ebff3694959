//! Model-based tests for the exact-match table behind the batch memo
//! and the microflow cache (`softswitch::cache::ExactTable`), driven
//! through its hash-injecting entry points with the microflow cache's
//! policy against a `HashMap<FlowKey, _>` model, operation by operation.
//!
//! The hash is the caller's, so the tests choose it: every key on one
//! slot, every key on one full 32-bit fingerprint (a fingerprint match
//! must still compare the whole key), probe chains that wrap around the
//! end of the index. CI also runs this suite in `--release`: slot
//! arithmetic is mask-and-wrap and must hold without overflow checks.

use std::collections::HashMap;
use std::sync::Arc;

use netpkt::{builder, FlowKey, MacAddr};
use proptest::prelude::*;
use softswitch::actions::CAction;
use softswitch::cache::{CachedPath, ExactTable, MicroflowCache};

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

fn path(id: u32, epoch: u64) -> Arc<CachedPath> {
    Arc::new(CachedPath::new(vec![CAction::Output(id)], vec![], epoch))
}

fn id_of(p: &CachedPath) -> u32 {
    match p.actions[..] {
        [CAction::Output(id)] => id,
        _ => unreachable!("test paths are one output"),
    }
}

/// [`MicroflowCache`]'s contract, on a `HashMap`.
#[derive(Default)]
struct Model {
    map: HashMap<FlowKey, u32>,
    epoch: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Model {
    fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.map.clear();
            self.epoch = epoch;
        }
    }

    fn lookup(&mut self, key: &FlowKey, epoch: u64) -> Option<u32> {
        self.ensure_epoch(epoch);
        let found = self.map.get(key).copied();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: FlowKey, id: u32, epoch: u64) {
        self.ensure_epoch(epoch);
        if self.map.len() >= self.capacity {
            self.map.clear(); // emergency flush, then admit
        }
        self.map.insert(key, id);
    }

    fn contains(&self, key: &FlowKey, epoch: u64) -> bool {
        self.epoch == epoch && self.map.contains_key(key)
    }
}

/// Run `ops` — `(kind, key number, epoch selector)` — through a cache
/// of `capacity` and the model, comparing after every step.
fn run(ops: &[(u8, u16, u8)], mode: u8, capacity: usize) -> Result<usize, TestCaseError> {
    let mut cache = MicroflowCache::new(capacity);
    let mut model = Model {
        capacity,
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
                cache.insert_hashed(h, fk, path(id, epoch));
                model.insert(fk, id, epoch);
            }
            4..=5 => {
                let got = cache.lookup_hashed(h, &fk, epoch).map(|p| id_of(p));
                prop_assert_eq!(
                    got,
                    model.lookup(&fk, epoch),
                    "lookup of key {} at step {}",
                    k,
                    step
                );
            }
            _ => {
                // Now and then with the epoch the cache left behind:
                // stale answers false, and flushes nothing.
                let at = if e == 1 { epoch - 1 } else { epoch };
                let before = (cache.len(), cache.hits(), cache.misses());
                prop_assert_eq!(
                    cache.contains_hashed(h, &fk, at),
                    model.contains(&fk, at),
                    "contains of key {} at step {}",
                    k,
                    step
                );
                prop_assert_eq!(before, (cache.len(), cache.hits(), cache.misses()));
            }
        }
        prop_assert_eq!(cache.len(), model.map.len(), "len after step {}", step);
        prop_assert_eq!(cache.is_empty(), model.map.is_empty());
        prop_assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
        peak = peak.max(cache.len());
    }
    // Every key of the universe, resident or not.
    for k in 0..400 {
        prop_assert_eq!(
            cache.contains_hashed(hash(mode, k), &key(k), epoch),
            model.contains(&key(k), epoch),
            "final sweep, key {}",
            k
        );
    }
    Ok(peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random insert / lookup / contains / epoch-move sequences, under
    /// every hash rule, through caches that never fill (the index
    /// doubles 16 → 32 → … → 512 and beyond), fill now and then, and
    /// flush on nearly every insert.
    #[test]
    fn microflow_cache_agrees_with_hashmap_model(
        ops in proptest::collection::vec((0u8..8, 0u16..400, 0u8..16), 1..700),
        mode in 0u8..5,
        cap_sel in 0usize..5,
    ) {
        let capacity = [0, 1, 7, 40, 100_000][cap_sel];
        run(&ops, mode, capacity)?;
    }
}

/// Insert-heavy, no epoch moves, room for everything: the index must
/// double at least three times under every hash rule and lose nobody.
#[test]
fn growth_crosses_doublings_under_every_hash_rule() {
    for mode in 0..5 {
        let ops: Vec<(u8, u16, u8)> = (0..1200u16)
            .map(|n| (if n % 3 == 2 { 4 } else { 0 }, n * 7 % 400, 5))
            .collect();
        let peak = run(&ops, mode, 100_000).unwrap_or_else(|e| panic!("mode {mode}: {e:?}"));
        // 16 slots hold 8 entries; 400 entries took 6 doublings.
        assert_eq!(peak, 400, "mode {mode}");
    }
}

/// A cache filled exactly to its cap keeps all of it; one more insert
/// flushes and admits, and the flushed keys are gone.
#[test]
fn filled_to_cap_then_flushed() {
    for mode in 0..5 {
        let mut c = MicroflowCache::new(64);
        for k in 0..64 {
            c.insert_hashed(hash(mode, k), key(k), path(k, 1));
        }
        assert_eq!(c.len(), 64);
        for k in 0..64 {
            let got = c.lookup_hashed(hash(mode, k), &key(k), 1).map(|p| id_of(p));
            assert_eq!(got, Some(k), "mode {mode}");
        }
        // A key already resident still trips the flush: the capacity
        // check comes before the probe, as it always has.
        c.insert_hashed(hash(mode, 3), key(3), path(99, 1));
        assert_eq!(c.len(), 1);
        assert!(c.contains_hashed(hash(mode, 3), &key(3), 1));
        assert!(!c.contains_hashed(hash(mode, 4), &key(4), 1));
        assert_eq!((c.hits(), c.misses()), (64, 0));
    }
}

/// The bare table, as the batch memo drives it: positions are insertion
/// order, an equal key is replaced in place, `is_full` is advice.
#[test]
fn exact_table_positions_are_insertion_order() {
    for mode in 0..5 {
        let mut t = ExactTable::new(3);
        assert_eq!(t.find(hash(mode, 0), &key(0)), None, "no index yet");
        for k in 0..5 {
            assert_eq!(t.is_full(), k >= 3);
            assert_eq!(t.put(hash(mode, k), key(k), path(k, 0)), k as usize);
        }
        assert_eq!(t.put(hash(mode, 1), key(1), path(77, 0)), 1);
        assert_eq!(t.len(), 5);
        let (k1, p1) = t.entry(1).unwrap();
        assert_eq!((*k1, id_of(p1)), (key(1), 77));
        assert!(t.entry(5).is_none());
        assert_eq!(t.find(hash(mode, 4), &key(4)), Some(4));
        assert_eq!(t.find(hash(mode, 9), &key(9)), None);
        t.ensure_epoch(0);
        assert_eq!(t.len(), 5, "same epoch keeps entries");
        t.ensure_epoch(5);
        assert!(t.is_empty());
        assert_eq!(t.find(hash(mode, 4), &key(4)), None);
        assert_eq!(t.put(hash(mode, 4), key(4), path(4, 5)), 0);
    }
}
