//! Flow-table, cache and MIB microbenchmarks: the raw lookup and update
//! structures under the datapath and the SNMP agent (complements
//! `pipeline.rs`, whose `datapath/*` rows measure the composed pipeline).
//!
//! Every benchmark is timed by `bench::timing` and recorded as a
//! `tables/*` row of `BENCH_netsim.json`. Flow-mods change the table
//! they are timed on, so a flow-mod benchmark is a *round* that times a
//! fixed number of operations and then restores its table untimed; the
//! lookups and probes leave their structure as they found it and are
//! timed call by call. A delete round restores the entries it deleted
//! at the tail of the table order, so the flow-mod rounds track that
//! order and spread their victims over it as it stands: every round
//! deletes from the middle of the table, as a controller does.

use std::hint::black_box;
use std::time::Instant;

use bench::timing::Ledger;
use legacy_switch::bridge::Bridge;
use legacy_switch::mib::{BridgeMib, SysInfo};
use mgmt::pdu::MessageRef;
use mgmt::{mibs, MibStore, Oid, SnmpClient};
use netpkt::{builder, FlowKey, MacAddr};
use openflow::table::{FlowEntry, FlowTable, Selector, TableId};
use openflow::{Action, Instruction, Match, Program};
use softswitch::cache::{CachedPath, MegaflowCache, MicroflowCache};

fn key(src: u32, dst_port: u16) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(src),
        MacAddr::host(2),
        std::net::Ipv4Addr::from(0x0a00_0000 + src),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        1000,
        dst_port,
        b"x",
    );
    FlowKey::extract(1, &f).unwrap()
}

fn acl(dst_port: u32) -> FlowEntry {
    FlowEntry::new(
        10,
        Match::new()
            .eth_type(0x0800)
            .ip_proto(17)
            .udp_dst((dst_port % 30000) as u16),
        Program::new(&Instruction::apply(vec![Action::output(2)])),
        0,
    )
}

/// Install `e` under its match's key and mask, computed here as a
/// flow-mod's are.
fn install(t: &mut FlowTable, e: FlowEntry) {
    let (key, mask) = e.match_.to_key_mask();
    t.add(e, key, mask).unwrap();
}

fn table_with(n: u32) -> FlowTable {
    let mut t = FlowTable::new(TableId(0));
    for i in 0..n {
        install(&mut t, acl(i));
    }
    t
}

fn bench_lookup(rep: &mut Ledger) {
    for n in [16u32, 256, 4096] {
        let mut t = table_with(n);
        let k = key(1, (n - 1) as u16); // worst case: last rule
        rep.calls(&format!("flowtable_linear_lookup/{n}"), 1, || {
            black_box(t.lookup(&k));
        });
        rep.calls(&format!("indexed_lookup/{n}"), 1, || {
            black_box(t.lookup_indexed(&k));
        });
    }
    // What a slow-path frame pays right after a flow-mod: the index is
    // maintained by the flow-mod, not rebuilt by the lookup.
    let mut t = table_with(4096);
    let k = key(1, 4095);
    rep.calls("lookup_after_flow_mod/4096", 1, || {
        install(&mut t, acl(7));
        black_box(t.lookup_indexed(&k));
    });
}

/// An L2 host route as the ARP proxy installs it.
fn route_match(host: u32) -> Match {
    Match::new().eth_dst(MacAddr::host(host))
}

fn route(host: u32, out: u32) -> FlowEntry {
    let (m, insns) = route_parts(host, out);
    FlowEntry::new(100, m, Program::new(&insns), 0)
}

/// A route's match and instructions, built (and allocated) ahead of a
/// timed round, which then times the entry built from them (its
/// program is allocated there) and its install under the key and mask
/// computed from the match.
fn route_parts(host: u32, out: u32) -> (Match, Vec<Instruction>) {
    let insns = Instruction::apply(vec![Action::output(out)]);
    (route_match(host), insns)
}

fn bench_flow_mod(rep: &mut Ledger) {
    /// Operations per round; the table grows or shrinks by at most this.
    const BATCH: u32 = 256;
    for n in [256u32, 4096] {
        let mut t = FlowTable::new(TableId(0));
        for host in 0..n {
            install(&mut t, route(host, 1));
        }
        // The hosts in table order: one priority, so install order. A
        // delete round re-adds its victims at the tail, so every round
        // spreads its victims over the order as it is now, not over
        // host numbers.
        let mut order: Vec<u32> = (0..n).collect();
        let spread = |order: &[u32]| -> Vec<u32> {
            let step = order.len() / BATCH as usize;
            order
                .iter()
                .copied()
                .step_by(step)
                .take(BATCH as usize)
                .collect()
        };
        rep.rounds(&format!("flow_mod/add/{n}"), || {
            let fresh: Vec<_> = (n..n + BATCH).map(|h| route_parts(h, 1)).collect();
            let start = Instant::now();
            for (m, insns) in fresh {
                install(&mut t, FlowEntry::new(100, m, Program::new(&insns), 0));
            }
            let took = start.elapsed();
            for host in n..n + BATCH {
                t.delete(&Selector::strict(&route_match(host), 100));
            }
            (took, BATCH.into())
        });
        rep.rounds(&format!("flow_mod/replace/{n}"), || {
            let again: Vec<_> = spread(&order)
                .into_iter()
                .map(|h| route_parts(h, 2))
                .collect();
            let start = Instant::now();
            for (m, insns) in again {
                install(&mut t, FlowEntry::new(100, m, Program::new(&insns), 0));
            }
            (start.elapsed(), BATCH.into())
        });
        for (name, strict) in [("delete_nonstrict_eq_mask", false), ("delete_strict", true)] {
            rep.rounds(&format!("flow_mod/{name}/{n}"), || {
                let victims = spread(&order);
                let start = Instant::now();
                for &h in &victims {
                    let m = route_match(h);
                    let sel = if strict {
                        Selector::strict(&m, 100)
                    } else {
                        Selector::within(&m)
                    };
                    let gone = t.delete(&sel);
                    assert_eq!(gone.len(), 1);
                }
                let took = start.elapsed();
                for &h in &victims {
                    install(&mut t, route(h, 1));
                }
                // The victims are a subsequence of the order.
                let mut gone = victims.iter().peekable();
                order.retain(|h| gone.next_if_eq(&h).is_none());
                order.extend(victims);
                (took, BATCH.into())
            });
        }
    }
}

fn bench_snmp_get(rep: &mut Ledger) {
    // A migrated legacy switch: every port an access port of its own VLAN.
    for n in [48u16, 144] {
        let mut bridge = Bridge::new(n);
        for p in 1..=n {
            bridge.make_access_port(p, 100 + p).unwrap();
        }
        let sys = SysInfo::default();
        let mib = BridgeMib {
            bridge: &mut bridge,
            sys: &sys,
            uptime_cs: 1,
        };
        // The Manager's verification reads: one PVID, one VLAN row, each
        // name read where its request holds it.
        let mut client = SnmpClient::new("public");
        let wire = client.get(&[
            Oid::instance(mibs::PVID, n.into()),
            Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, u32::from(100 + n)),
        ]);
        let request = MessageRef::decode(&wire).unwrap();
        let names: Vec<_> = request.bindings.iter().map(|vb| vb.name).collect();
        let mut i = 0;
        rep.calls(&format!("snmp_get/{n}_ports"), 1, || {
            i ^= 1;
            black_box(mib.get(names[i]));
        });
    }
}

fn bench_caches(rep: &mut Ledger) {
    let path = CachedPath::new(
        vec![softswitch::actions::CAction::Output(2)],
        vec![(0, 0)],
        1,
    );
    // A datapath's microflow layer with `keys` admitted, under 64
    // megaflows of four fields — about what a leaf's routes come to.
    let mut route_mask = FlowKey::empty_mask();
    route_mask.in_port = u32::MAX;
    route_mask.eth_type = u16::MAX;
    route_mask.ipv4_dst = u32::MAX;
    route_mask.ipv4_src = 0x3f;
    let warm = |keys: &[FlowKey]| {
        let (mut micro, mut mega) = (MicroflowCache::new(65536), MegaflowCache::new(8192));
        for k in keys {
            let id = mega.insert(k, route_mask, path.clone());
            micro.insert_hashed(k.flow_hash(0), id, &mega);
        }
        (micro, mega)
    };
    let hit = |(micro, mega): &mut (MicroflowCache, MegaflowCache), k: &FlowKey| {
        black_box(micro.lookup_hashed(k.flow_hash(0), k, 1, mega).is_some());
    };

    let keys: Vec<FlowKey> = (0..1000).map(|s| key(s, 53)).collect();
    let mut caches = warm(&keys);
    rep.calls("caches/microflow_hit", 1, || hit(&mut caches, &keys[500]));

    // The churn working set (2048 resident flows + the never-seen
    // tuples of one epoch), visited in random order: what a microflow
    // probe costs when neither the key nor its slot is the hot one.
    let resident: Vec<FlowKey> = (0..2304).map(|s| key(s, 53)).collect();
    let mut caches = warm(&resident);
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut order = move |n: usize| -> Vec<usize> {
        (0..4096)
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                (lcg >> 33) as usize % n
            })
            .collect()
    };
    let (visits, mut i) = (order(resident.len()), 0);
    rep.calls("caches/microflow_hit_2k", 1, || {
        i = (i + 1) % visits.len();
        hit(&mut caches, &resident[visits[i]]);
    });

    // The fabric's regime: 33 datapaths of 1024 flows each, one probe
    // per datapath per turn, so no table is warm when its turn comes.
    let keys: Vec<FlowKey> = (0..33 * 1024).map(|s| key(s, 53)).collect();
    let mut fabric: Vec<_> = keys.chunks(1024).map(warm).collect();
    let (visits, mut turn) = (order(1024), 0);
    rep.calls("caches/microflow_hit_33x1k", 1, || {
        turn += 1;
        let (dp, flow) = (turn % 33, visits[turn / 33 % visits.len()]);
        hit(&mut fabric[dp], &keys[dp * 1024 + flow]);
    });

    // A working set the size of `pod_warm`'s (128 keys), in random
    // order: the probe a warm pod's frames pay, slot and megaflow both
    // in the first-level cache but never the previous frame's.
    let pod = &resident[..128];
    let mut caches = warm(pod);
    let visits = order(pod.len());
    rep.calls("caches/microflow_hit_128", 1, || {
        i = (i + 1) % visits.len();
        hit(&mut caches, &pod[visits[i]]);
    });

    let mut mega = MegaflowCache::new(8192);
    // 4 distinct masks, hit in the last one.
    for (i, field) in [0u8, 1, 2, 3].iter().enumerate() {
        let mut mask = FlowKey::empty_mask();
        match field {
            0 => mask.eth_type = u16::MAX,
            1 => mask.ipv4_dst = u32::MAX,
            2 => mask.udp_src = u16::MAX,
            _ => mask.udp_dst = u16::MAX,
        }
        let mut kk = key(i as u32 + 1, 53);
        kk.udp_dst = 9999; // keep earlier masks from matching the probe key
        mega.insert(&kk, mask, path.clone());
    }
    let mut probe = key(77, 53);
    probe.udp_dst = 9999;
    rep.calls("caches/megaflow_hit_4_masks", 1, || {
        black_box(mega.lookup(&probe, 1).0.is_some());
    });
}

fn main() {
    let mut rep = Ledger::open("tables", "ns_per_iter");
    bench_lookup(&mut rep);
    bench_flow_mod(&mut rep);
    bench_snmp_get(&mut rep);
    bench_caches(&mut rep);
    rep.save();
}
