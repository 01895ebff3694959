//! Property tests for flow-table semantics: priority ordering, the
//! non-strict subset relation, and overlap symmetry — checked against
//! brute-force oracles — and the indexed table against a scan-based
//! model of itself, operation by operation.

use proptest::prelude::*;

use netpkt::flowkey::FieldMask;
use netpkt::{builder, FlowKey, MacAddr};
use openflow::table::{flow_flags, FlowEntry, FlowTable, RemovedReason, Selector, TableId};
use openflow::{group_no, port_no, Action, Error, Instruction, Match, Program};

/// A small universe of match shapes so collisions actually happen.
fn arb_rule_match() -> impl Strategy<Value = Match> {
    prop_oneof![
        Just(Match::any()),
        (0u16..8).prop_map(|p| Match::new().eth_type(0x0800).ip_proto(17).udp_dst(p)),
        (0u32..4).prop_map(|s| {
            Match::new().eth_type(0x0800).ipv4_src_masked(
                std::net::Ipv4Addr::from(0x0a00_0000 + (s << 8)),
                std::net::Ipv4Addr::new(255, 255, 255, 0),
            )
        }),
        Just(Match::new().eth_type(0x0806)),
        (1u32..5).prop_map(|p| Match::new().in_port(p)),
    ]
}

/// True if every packet `e` matches also matches `(fkey, fmask)`: the
/// non-strict filter relation, from the entry's own match.
fn within_filter(e: &FlowEntry, fkey: &FlowKey, fmask: &FieldMask) -> bool {
    let (key, mask) = e.match_.to_key_mask();
    mask.mask_union(fmask) == mask && key.masked(fmask) == *fkey
}

/// True if some packet matches both entries: their keys agree on the
/// bits both masks cover.
fn overlaps(a: &FlowEntry, b: &FlowEntry) -> bool {
    let ((ak, am), (bk, bm)) = (a.match_.to_key_mask(), b.match_.to_key_mask());
    ak.masked(&bm) == bk.masked(&am)
}

fn packet_key(in_port: u32, src_low: u32, dport: u16) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(src_low),
        MacAddr::host(99),
        std::net::Ipv4Addr::from(0x0a00_0000 + src_low),
        std::net::Ipv4Addr::new(10, 0, 0, 99),
        1000,
        dport,
        b"x",
    );
    FlowKey::extract(in_port, &f).unwrap()
}

/// `add` under the entry's own match's key and mask.
trait Install {
    fn install(&mut self, e: FlowEntry) -> Result<(), Error>;
}

impl Install for FlowTable {
    fn install(&mut self, e: FlowEntry) -> Result<(), Error> {
        let (key, mask) = e.match_.to_key_mask();
        self.add(e, key, mask)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `lookup` must return the first (highest-priority, FIFO within
    /// priority) matching entry — cross-checked against a brute-force
    /// scan of the unordered rule list.
    #[test]
    fn lookup_matches_bruteforce_oracle(
        rules in proptest::collection::vec((arb_rule_match(), 0u16..4), 1..15),
        probes in proptest::collection::vec((1u32..5, 0u32..1024, 0u16..8), 1..20),
    ) {
        let mut table = FlowTable::new(TableId(0));
        // Shadow list in insertion order for the oracle.
        let mut oracle: Vec<(u16, Match, usize)> = Vec::new();
        for (i, (m, prio)) in rules.iter().enumerate() {
            let e = FlowEntry::new(
                *prio,
                m.clone(),
                Program::new(&Instruction::apply(vec![Action::output(i as u32 + 1)])),
                0,
            );
            // `add` replaces identical (match, priority); mirror that.
            let (key, mask) = m.to_key_mask();
            oracle.retain(|(p, om, _)| {
                let (ok, omask) = om.to_key_mask();
                !(*p == *prio && ok == key && omask == mask)
            });
            table.install(e).unwrap();
            oracle.push((*prio, m.clone(), i + 1));
        }
        for (in_port, src, dport) in probes {
            let key = packet_key(in_port, src, dport);
            let got = table.lookup(&key).map(|idx| table.entry(idx).priority);
            // Oracle: max priority among matching; FIFO tie-break.
            let want = oracle
                .iter()
                .filter(|(_, m, _)| m.matches(&key))
                .map(|(p, _, _)| *p)
                .max();
            prop_assert_eq!(got, want, "priority winner mismatch for {:?}", key);
        }
    }

    /// Non-strict delete removes exactly the entries whose match region
    /// is contained in the filter region.
    #[test]
    fn nonstrict_delete_is_subset_semantics(
        rules in proptest::collection::vec((arb_rule_match(), 0u16..4), 1..12),
        filter in arb_rule_match(),
    ) {
        let mut table = FlowTable::new(TableId(0));
        for (i, (m, prio)) in rules.iter().enumerate() {
            let _ = table.install(FlowEntry::new(
                *prio,
                m.clone(),
                Program::new(&Instruction::apply(vec![Action::output(i as u32 + 1)])),
                0,
            ));
        }
        let before = table.len();
        let (fkey, fmask) = filter.to_key_mask();
        let should_go: usize = table
            .entries()
            .iter()
            .filter(|e| within_filter(e, &fkey, &fmask))
            .count();
        let removed = table.delete(&Selector::within(&filter));
        prop_assert_eq!(removed.len(), should_go);
        prop_assert_eq!(table.len(), before - should_go);
        // Survivors must not be within the filter.
        for e in table.entries() {
            prop_assert!(!within_filter(e, &fkey, &fmask));
        }
    }

    /// The table's `CHECK_OVERLAP` test is symmetric, and a witness
    /// packet matching both entries makes it refuse (soundness
    /// direction).
    #[test]
    fn overlap_symmetric_and_sound(
        m1 in arb_rule_match(),
        m2 in arb_rule_match(),
        probes in proptest::collection::vec((1u32..5, 0u32..64, 0u16..8), 0..20),
    ) {
        // Whether a table holding `a` refuses `b` for overlapping it.
        let refuses = |a: &Match, b: &Match| {
            let entry = |m: &Match| FlowEntry::new(1, m.clone(), Program::new(&[]), 0);
            let mut table = FlowTable::new(TableId(0));
            table.install(entry(a)).unwrap();
            match table.install(entry(b).with_flags(flow_flags::CHECK_OVERLAP)) {
                Err(Error::Overlap) => true,
                other => {
                    assert_eq!(other, Ok(()));
                    false
                }
            }
        };
        let overlap = refuses(&m1, &m2);
        prop_assert_eq!(overlap, refuses(&m2, &m1), "overlap must be symmetric");
        for (in_port, src, dport) in probes {
            let key = packet_key(in_port, src, dport);
            if m1.matches(&key) && m2.matches(&key) {
                prop_assert!(overlap, "witness packet but the add was not refused");
            }
        }
    }

    /// Timeout processing never removes a permanent entry and always
    /// removes one whose hard deadline has passed.
    #[test]
    fn expiry_boundaries(
        idle in 0u16..5,
        hard in 0u16..5,
        advance_secs in 0u64..10,
    ) {
        let mut table = FlowTable::new(TableId(0));
        table
            .install(
                FlowEntry::new(1, Match::any(), Program::new(&[]), 0)
                    .with_timeouts(idle, hard),
            )
            .unwrap();
        let now = advance_secs * 1_000_000_000;
        let removed = table.expire(now);
        let hard_due = hard > 0 && advance_secs >= u64::from(hard);
        let idle_due = idle > 0 && advance_secs >= u64::from(idle);
        prop_assert_eq!(removed.len() == 1, hard_due || idle_due);
        if hard == 0 && idle == 0 {
            prop_assert_eq!(table.len(), 1, "permanent entries never expire");
        }
    }
}

/// The flow table as it was before it owned an index: one sorted entry
/// list, every operation a scan of it. The model [`FlowTable`] must
/// agree with after every step.
struct ScanTable {
    entries: Vec<FlowEntry>,
    capacity: usize,
    version: u64,
}

impl ScanTable {
    fn add(&mut self, entry: FlowEntry) -> Result<(), Error> {
        let same_prio = |e: &&FlowEntry| e.priority == entry.priority;
        if entry.flags & flow_flags::CHECK_OVERLAP != 0
            && self
                .entries
                .iter()
                .filter(same_prio)
                .any(|e| overlaps(e, &entry))
        {
            return Err(Error::Overlap);
        }
        let key_mask = entry.match_.to_key_mask();
        let identical =
            |e: &FlowEntry| e.priority == entry.priority && e.match_.to_key_mask() == key_mask;
        if let Some(pos) = self.entries.iter().position(identical) {
            self.entries[pos] = entry;
        } else {
            if self.entries.len() >= self.capacity {
                return Err(Error::TableFull);
            }
            let pos = self
                .entries
                .iter()
                .position(|e| e.priority < entry.priority)
                .unwrap_or(self.entries.len());
            self.entries.insert(pos, entry);
        }
        self.version += 1;
        Ok(())
    }

    /// The match and cookie half of a selection, from the entry's own
    /// match: the outputs are the caller's.
    fn selects(e: &FlowEntry, m: &Match, priority: u16, strict: bool, cookie: (u64, u64)) -> bool {
        let (fkey, fmask) = m.to_key_mask();
        let (value, mask) = cookie;
        let region = if strict {
            e.priority == priority && e.match_.to_key_mask() == (fkey, fmask)
        } else {
            within_filter(e, &fkey, &fmask)
        };
        region && e.cookie & mask == value & mask
    }

    fn modify(
        &mut self,
        m: &Match,
        priority: u16,
        strict: bool,
        cookie: (u64, u64),
        insns: &[Instruction],
    ) -> usize {
        let mut changed = 0;
        for e in &mut self.entries {
            if Self::selects(e, m, priority, strict, cookie) {
                e.instructions = Program::new(insns);
                changed += 1;
            }
        }
        self.version += u64::from(changed > 0);
        changed
    }

    /// Take out every entry `gone` selects, in table order.
    fn remove(&mut self, gone: impl Fn(&FlowEntry) -> bool) -> Vec<FlowEntry> {
        let (removed, kept) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition(|e| gone(e));
        self.entries = kept;
        self.version += u64::from(!Vec::is_empty(&removed));
        removed
    }

    fn expire(&mut self, now_ns: u64) -> Vec<(FlowEntry, RemovedReason)> {
        let due = |timeout: u16, since: u64| {
            timeout > 0 && now_ns >= since + u64::from(timeout) * 1_000_000_000
        };
        let reason = |e: &FlowEntry| {
            if due(e.hard_timeout, e.installed_ns) {
                Some(RemovedReason::HardTimeout)
            } else if due(e.idle_timeout, e.last_used_ns) {
                Some(RemovedReason::IdleTimeout)
            } else {
                None
            }
        };
        let removed = self.remove(|e| reason(e).is_some());
        removed
            .into_iter()
            .map(|e| {
                let r = reason(&e).expect("removed because due");
                (e, r)
            })
            .collect()
    }

    fn lookup(&self, pkt: &FlowKey) -> Option<usize> {
        self.entries.iter().position(|e| e.match_.matches(pkt))
    }

    /// Tuple-space search over an index built from scratch: one group
    /// per mask holding the best entry per key, groups in the order of
    /// their first entries, probed until the hit so far precedes the
    /// next group's first entry. Returns the hit and the probe count
    /// the cost model charges for.
    fn lookup_tss(&self, pkt: &FlowKey) -> (Option<usize>, u32) {
        struct Group {
            mask: FieldMask,
            first: usize,
            best_by_key: Vec<(FlowKey, usize)>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (idx, e) in self.entries.iter().enumerate() {
            let (key, mask) = e.match_.to_key_mask();
            let gi = groups
                .iter()
                .position(|g| g.mask == mask)
                .unwrap_or_else(|| {
                    groups.push(Group {
                        mask,
                        first: idx,
                        best_by_key: Vec::new(),
                    });
                    groups.len() - 1
                });
            if !groups[gi].best_by_key.iter().any(|(k, _)| *k == key) {
                groups[gi].best_by_key.push((key, idx));
            }
        }
        let (mut best, mut probes) = (None::<usize>, 0);
        for g in &groups {
            if best.is_some_and(|b| b < g.first) {
                break;
            }
            probes += 1;
            let masked = pkt.masked(&g.mask);
            if let Some((_, idx)) = g.best_by_key.iter().find(|(k, _)| *k == masked) {
                best = Some(best.map_or(*idx, |b| b.min(*idx)));
            }
        }
        (best, probes)
    }
}

/// Match shapes that nest: each mask has narrower and wider relatives
/// in the universe, so a non-strict filter meets groups of its own
/// mask, of wider masks (skipped) and of narrower ones (walked).
fn model_match(shape: u8, v: u8) -> Match {
    let v4 = |x: u32| std::net::Ipv4Addr::from(0x0a00_0000 + x);
    let ip = || Match::new().eth_type(0x0800);
    match shape % 9 {
        0 => Match::any(),
        1 => ip(),
        2 => ip().ip_proto(17),
        3 => ip().ip_proto(17).udp_dst(u16::from(v % 3)),
        4 => ip().ipv4_src_masked(
            v4(u32::from(v % 2) << 8),
            std::net::Ipv4Addr::new(255, 255, 255, 0),
        ),
        5 => ip().ipv4_src(v4((u32::from(v % 2) << 8) + u32::from(v / 2 % 3))),
        6 => Match::new().eth_dst(MacAddr::host(u32::from(v % 4))),
        7 => Match::new().in_port(1 + u32::from(v % 2)),
        _ => Match::new()
            .in_port(1 + u32::from(v % 2))
            .eth_dst(MacAddr::host(u32::from(v / 2 % 2))),
    }
}

/// What identifies an entry and its state in a comparison: cookies are
/// unique per add, so equal views mean the same entry in the same
/// state. The model's entries are never installed, so their lookup key
/// is the match's.
fn view(e: &FlowEntry) -> (u16, u64, FlowKey, Match, Vec<Instruction>, u64) {
    (
        e.priority,
        e.cookie,
        e.match_.to_key_mask().0,
        e.match_.clone(),
        e.instructions.to_vec(),
        e.packets,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operation sequences on a small table: the indexed table
    /// and the scan model agree on every result (removed lists in
    /// order), on the entries in table order, `version()` and the table
    /// counters, and indexed lookup returns the linear lookup's entry
    /// with the probe count of a freshly built index. Modifies and
    /// deletes filter by cookie under a mask (or not) and by outputs,
    /// which a modify ignores. The table's slab has no order, so
    /// entries and hits are compared as views.
    #[test]
    fn indexed_table_agrees_with_scan_model(
        capacity in 3usize..12,
        ops in proptest::collection::vec((0u8..12, 0u8..9, any::<u8>(), 0u16..3, any::<u8>()), 1..60),
    ) {
        let mut table = FlowTable::with_capacity(0, TableId(0), capacity);
        let mut model = ScanTable { entries: Vec::new(), capacity, version: 0 };
        let probes: Vec<FlowKey> = (0..24u32)
            .map(|i| {
                let f = builder::udp_packet(
                    MacAddr::host(9),
                    MacAddr::host(i % 4),
                    std::net::Ipv4Addr::from(0x0a00_0000 + ((i % 2) << 8) + i / 2 % 3),
                    std::net::Ipv4Addr::new(10, 0, 0, 99),
                    1000,
                    (i / 6 % 4) as u16,
                    b"x",
                );
                FlowKey::extract(1 + i % 2, &f).unwrap()
            })
            .collect();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for (step, (op, shape, v, priority, aux)) in ops.into_iter().enumerate() {
            let now_ns = step as u64 * 1_000_000_000;
            let m = model_match(shape, v);
            let strict = aux & 1 != 0;
            let action = if aux & 2 != 0 {
                Action::Group(u32::from(aux >> 6))
            } else {
                Action::output(u32::from(aux >> 6))
            };
            let insns = Instruction::apply(vec![action]);
            // Cookies are add steps: filter by a step's low bits, or not.
            let cookie = match v >> 6 {
                0 | 1 => (0, 0),
                2 => (u64::from(v & 3), 3),
                _ => (u64::from(v & 1), 1),
            };
            let out_port = if aux & 12 == 4 { u32::from(aux >> 6) } else { port_no::ANY };
            let out_group = if aux & 12 == 8 { u32::from(aux >> 6) } else { group_no::ANY };
            let (key, mask) = m.to_key_mask();
            let sel = Selector {
                key,
                mask,
                priority,
                strict,
                cookie: cookie.0,
                cookie_mask: cookie.1,
                out_port,
                out_group,
            };
            match op {
                // Adds dominate so the table fills, replaces and overflows.
                0..=5 => {
                    let flags = if aux & 12 == 12 { flow_flags::CHECK_OVERLAP } else { 0 };
                    let e = FlowEntry::new(priority, m.clone(), Program::new(&insns), now_ns)
                        .with_cookie(step as u64)
                        .with_flags(flags)
                        .with_timeouts(u16::from(aux >> 4 & 3) * 4, u16::from(aux >> 2 & 3) * 6);
                    prop_assert_eq!(table.install(e.clone()), model.add(e), "add, step {}", step);
                }
                // A modify ignores the output filters.
                6 => prop_assert_eq!(
                    table.modify(&sel, &Program::new(&insns)),
                    model.modify(&m, priority, strict, cookie, &insns),
                    "modify, step {}", step
                ),
                7..=9 => {
                    let got = table.delete(&sel);
                    let want = model.remove(|e| {
                        ScanTable::selects(e, &m, priority, strict, cookie)
                            && e.outputs_to(out_port)
                            && e.outputs_to_group(out_group)
                    });
                    prop_assert_eq!(
                        got.iter().map(view).collect::<Vec<_>>(),
                        want.iter().map(view).collect::<Vec<_>>(),
                        "delete, step {}", step
                    );
                }
                10 => {
                    let got = table.expire(now_ns);
                    let want = model.expire(now_ns);
                    prop_assert_eq!(
                        got.iter().map(|(e, r)| (view(e), *r)).collect::<Vec<_>>(),
                        want.iter().map(|(e, r)| (view(e), *r)).collect::<Vec<_>>(),
                        "expire, step {}", step
                    );
                }
                // A packet: moves counters and the idle clock.
                _ => {
                    let key = &probes[usize::from(v) % probes.len()];
                    let hit = table.lookup_indexed(key).0;
                    let want = model.lookup(key);
                    prop_assert_eq!(
                        hit.map(|i| view(table.entry(i))),
                        want.map(|i| view(&model.entries[i])),
                        "hit, step {}", step
                    );
                    lookups += 1;
                    if let (Some(idx), Some(want)) = (hit, want) {
                        hits += 1;
                        table.hit(idx, 64, now_ns);
                        let e = &mut model.entries[want];
                        e.packets += 1;
                        e.last_used_ns = now_ns;
                    }
                }
            }
            prop_assert_eq!(
                table.ranked().map(view).collect::<Vec<_>>(),
                model.entries.iter().map(view).collect::<Vec<_>>(),
                "entries in table order, step {}", step
            );
            // Table order names every entry of the slab once.
            let mut slab: Vec<u64> = table.entries().iter().map(|e| e.cookie).collect();
            let mut ranked: Vec<u64> = table.ranked().map(|e| e.cookie).collect();
            slab.sort_unstable();
            ranked.sort_unstable();
            prop_assert_eq!(slab, ranked, "slab, step {}", step);
            for e in table.entries() {
                prop_assert_eq!(e.key, e.match_.to_key_mask().0, "installed key, step {}", step);
            }
            prop_assert_eq!(table.version(), model.version, "version, step {}", step);
            let model_view = |i: Option<usize>| i.map(|i| view(&model.entries[i]));
            for key in &probes {
                let want = model.lookup(key);
                let linear = table.lookup(key);
                prop_assert_eq!(
                    linear.map(|i| view(table.entry(i))),
                    model_view(want),
                    "linear, step {}", step
                );
                let (indexed, probed) = table.lookup_indexed(key);
                let (tss, tss_probed) = model.lookup_tss(key);
                prop_assert_eq!(
                    (indexed.map(|i| view(table.entry(i))), probed),
                    (model_view(tss), tss_probed),
                    "indexed, step {}", step
                );
                prop_assert_eq!(tss, want, "the model's own index");
                lookups += 2;
                hits += 2 * u64::from(want.is_some());
            }
            prop_assert_eq!((table.lookups(), table.hits()), (lookups, hits));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table's count of timed entries follows every operation: adds
    /// of timed and untimed rules, replacements in place that switch a
    /// rule between the two, modifies, deletes and expiries. After each
    /// step it is the number of installed entries with a timeout, and
    /// an expiry (which scans nothing when the count is zero) removes
    /// exactly what the scan model's does, in order, with the same
    /// reasons.
    #[test]
    fn the_timed_count_follows_every_operation(
        ops in proptest::collection::vec((0u8..10, 0u8..9, 0u8..4, 0u16..2, any::<u8>()), 1..60),
    ) {
        let mut table = FlowTable::with_capacity(0, TableId(0), 8);
        let mut model = ScanTable { entries: Vec::new(), capacity: 8, version: 0 };
        for (step, (op, shape, v, priority, aux)) in ops.into_iter().enumerate() {
            let now_ns = step as u64 * 1_000_000_000;
            let m = model_match(shape, v);
            let strict = aux & 1 != 0;
            let insns = Instruction::apply(vec![Action::output(u32::from(aux >> 6))]);
            match op {
                0..=4 => {
                    // Most rules are permanent, as a route is.
                    let (idle, hard) = match aux >> 1 & 7 {
                        0 => (2, 0),
                        1 => (0, 3),
                        2 => (1, 4),
                        _ => (0, 0),
                    };
                    let e = FlowEntry::new(priority, m, Program::new(&insns), now_ns)
                        .with_cookie(step as u64)
                        .with_timeouts(idle, hard);
                    prop_assert_eq!(table.install(e.clone()), model.add(e), "add, step {}", step);
                }
                5 => {
                    let sel = Selector { strict, priority, ..Selector::within(&m) };
                    prop_assert_eq!(
                        table.modify(&sel, &Program::new(&insns)),
                        model.modify(&m, priority, strict, (0, 0), &insns),
                        "modify, step {}", step
                    );
                }
                6 | 7 => {
                    let sel = Selector { strict, priority, ..Selector::within(&m) };
                    let got = table.delete(&sel);
                    let want = model.remove(|e| ScanTable::selects(e, &m, priority, strict, (0, 0)));
                    prop_assert_eq!(
                        got.iter().map(view).collect::<Vec<_>>(),
                        want.iter().map(view).collect::<Vec<_>>(),
                        "delete, step {}", step
                    );
                }
                _ => {
                    let got = table.expire(now_ns);
                    let want = model.expire(now_ns);
                    prop_assert_eq!(
                        got.iter().map(|(e, r)| (view(e), *r)).collect::<Vec<_>>(),
                        want.iter().map(|(e, r)| (view(e), *r)).collect::<Vec<_>>(),
                        "expire, step {}", step
                    );
                }
            }
            let timed = table.entries().iter().filter(|e| e.is_timed()).count();
            prop_assert_eq!(table.timed(), timed, "timed entries, step {}", step);
            let modelled = model.entries.iter().filter(|e| e.is_timed()).count();
            prop_assert_eq!(timed, modelled, "the model's timed entries, step {}", step);
        }
    }
}
