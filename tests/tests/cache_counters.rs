//! Counter-equivalence pin for the lookup layers in front of the
//! pipeline (microflow → megaflow → slow path).
//!
//! A deterministic churn script runs through one [`Datapath`] and the
//! test records which layer served every frame: the microflow /
//! megaflow hit and miss counters, plus an FNV fold of each frame's
//! [`LookupPath`], drop decision and outputs. A change to how long a
//! probe takes must leave every one of the constants below alone, and
//! the benchmark's pinned hit ratios with them. A change that means to
//! move admission, eviction or counter placement re-records them and
//! says so.

use bytes::Bytes;
use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::trace::LookupPath;
use softswitch::{BatchResult, Datapath, DpConfig, FrameBatch, ProcessingTrace};
use std::net::Ipv4Addr;

const PORTS: u32 = 48;
const FLOWS: usize = 2048;
const GROUP: usize = 32;
/// One frame in this many carries a never-seen 5-tuple.
const FRESH_EVERY: u64 = 256;
/// A flow-mod (ACL entry added, then deleted, in turn) this often.
const BUMP_EVERY: u64 = 8192;
const BATCHED_FRAMES: u64 = 1 << 16;
/// Then this many as batches of one frame each.
const SINGLE_FRAMES: u64 = 1 << 14;

/// What the script observed, in the order the constants list it.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    micro: (u64, u64),
    mega: (u64, u64),
    fold: u64,
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    fn frame(&mut self, trace: Option<ProcessingTrace>, dropped: bool, outputs: &[(u32, Bytes)]) {
        match trace.expect("every frame is traced").path {
            LookupPath::MicroHit => self.word(2),
            LookupPath::MegaHit { probes } => {
                self.word(3);
                self.word(probes);
            }
            LookupPath::SlowPath {
                tables,
                entries_scanned,
                tss_probes,
            } => {
                self.word(4);
                self.word(tables);
                self.word(entries_scanned);
                self.word(tss_probes);
            }
        }
        self.word(u32::from(dropped));
        for (port, frame) in outputs {
            self.word(*port);
            self.bytes(frame);
        }
    }
}

fn frame(a: u32, b: u32, net: u8, sport: u16, dport: u16) -> Bytes {
    builder::udp_packet(
        MacAddr::host(a),
        MacAddr::host(b),
        Ipv4Addr::new(10, net, 0, a as u8),
        Ipv4Addr::new(10, 0, 0, b as u8),
        sport,
        dport,
        b"harmless",
    )
}

fn churn_entry() -> Match {
    Match::new().eth_type(0x0800).ip_proto(17).udp_dst(39_999)
}

/// An SS_2-like switch: one route per station, and higher-priority ACL
/// entries of three mask shapes that the traffic never matches.
fn switch(cfg: DpConfig) -> Datapath {
    let mut dp = Datapath::new(cfg);
    for p in 1..=PORTS {
        dp.add_port(p, format!("p{p}"), 10_000_000);
        let route = FlowMod::add(0)
            .priority(10)
            .match_(Match::new().eth_dst(MacAddr::host(p)))
            .apply(vec![Action::output(p)]);
        dp.apply_flow_mod(&route, 0).unwrap();
    }
    for i in 0..30u16 {
        let m = Match::new()
            .eth_type(0x0800)
            .ip_proto(17)
            .udp_dst(40_000 + i / 3);
        let m = match i % 3 {
            0 => m,
            1 => m.ipv4_src_masked(Ipv4Addr::new(172, 16, 0, 0), Ipv4Addr::new(255, 255, 0, 0)),
            _ => m.ipv4_dst_masked(
                Ipv4Addr::new(172, 17, 1, 0),
                Ipv4Addr::new(255, 255, 255, 0),
            ),
        };
        let acl = FlowMod::add(0).priority(100).match_(m).apply(vec![]);
        dp.apply_flow_mod(&acl, 0).unwrap();
    }
    dp
}

/// 2048 resident flows in batches of 32, one never-seen 5-tuple in 256,
/// a flow-mod every 8192 frames; then the same flows one frame per call.
fn run_script(cfg: DpConfig) -> Observed {
    let mut dp = switch(cfg);
    let mut rng = Lcg(0x4841_524d_4c45_5353);
    let flows: Vec<(u32, u32, Bytes)> = (0..FLOWS)
        .map(|i| {
            let a = 1 + rng.below(u64::from(PORTS)) as u32;
            let b = 1 + (u64::from(a) + rng.below(u64::from(PORTS) - 1)) as u32 % PORTS;
            let dport = 5_000 + rng.below(16) as u16;
            (a, b, frame(a, b, 0, 10_000 + i as u16, dport))
        })
        .collect();

    let mut fold = Fnv(0xcbf2_9ce4_8422_2325);
    let mut batch = FrameBatch::with_capacity(GROUP);
    let mut out = BatchResult::default();
    let (mut fresh, mut bumps) = (0u64, 0u64);
    for n in 0..BATCHED_FRAMES + SINGLE_FRAMES {
        let now = n * 1_000;
        if n % BUMP_EVERY == BUMP_EVERY - 1 {
            let fm = if bumps % 2 == 0 {
                FlowMod::add(0)
                    .priority(100)
                    .match_(churn_entry())
                    .apply(vec![])
            } else {
                FlowMod::delete(0).match_(churn_entry())
            };
            dp.apply_flow_mod(&fm, now).unwrap();
            bumps += 1;
        }
        let (a, b, f) = &flows[rng.below(FLOWS as u64) as usize];
        let f = if n % FRESH_EVERY == FRESH_EVERY - 1 {
            // Same stations, a client address and port no cache has seen.
            fresh += 1;
            frame(*a, *b, 1, 20_000 + fresh as u16, 5_000)
        } else {
            f.clone()
        };
        batch.push(*a, f);
        if n >= BATCHED_FRAMES || batch.len() == GROUP {
            dp.process_batch_into(&mut batch, now, &mut out);
            for i in 0..out.len() {
                fold.frame(out.frame(i).trace, out.frame(i).dropped, out.outputs_of(i));
            }
        }
    }
    assert!(batch.is_empty(), "frame counts are multiples of the group");
    Observed {
        micro: (dp.micro_cache().hits(), dp.micro_cache().misses()),
        mega: (dp.mega_cache().hits(), dp.mega_cache().misses()),
        fold: fold.0,
    }
}

/// Re-recorded once, when the batch memo in front of the microflow
/// layer was deleted, by rule: the 3972 frames the memo served are
/// microflow hits (57563 + 3972 = 61535) and nothing else moves; the
/// fold is the one the commit before read with a memo hit folded as a
/// microflow hit.
#[test]
fn churn_script_counters_are_pinned() {
    assert_eq!(
        run_script(DpConfig::software(2)),
        Observed {
            micro: (61535, 20385),
            mega: (429, 19956),
            fold: 2528542271570569232,
        }
    );
}

/// The same script through caches small enough to flush by capacity
/// many times over: the emergency-flush policy is part of the pin.
///
/// Re-recorded once, when the microflow cache became a signature index
/// over the megaflow store: a capacity flush of the store (1500) now
/// empties the index that points into it, so some frames the old
/// private-key table would have served are megaflow hits or slow-path
/// walks instead (micro hits 10295 → 9988; the frames reaching each
/// layer still add up: 9988 + 67960 = 10295 + 67653). The
/// default-capacity pin above, where the store never fills, did not
/// move.
///
/// Re-recorded a second time with the batch memo's deletion: the memo
/// outlived a capacity flush of the store, so a frame it served after
/// one now re-resolves (and re-fills the small store sooner). Every
/// frame probes the microflow layer once: hits + misses = 81920 frames.
#[test]
fn churn_script_counters_are_pinned_under_capacity_flushes() {
    let mut cfg = DpConfig::software(2);
    cfg.micro_capacity = 512;
    cfg.mega_capacity = 1500;
    assert_eq!(
        run_script(cfg),
        Observed {
            micro: (10125, 71795),
            mega: (26919, 44876),
            fold: 8256994312023821008,
        }
    );
}
