//! The software datapath's per-frame cost, stage by stage and end to end
//! — the native face of E11 (`exp_ablation`).
//!
//! Every row is timed by `bench::timing` and recorded as a `datapath/*`
//! row of `BENCH_netsim.json`:
//!
//! - `datapath/pipeline/*`: one iteration is the standard 32-frame burst
//!   (8 flows × 4 frames, TCP-ish trains) against a 1k-rule ACL, with
//!   `ns_per_frame` and `mpps` beside it. Each stage of the batch path
//!   stands alone — parse (`parse_key_32`), RSS steering
//!   (`steer_rss_32`) — then the cached path as one burst
//!   (`cached_batch32`, the headline zero-copy number) and as 32 batches
//!   of one frame (`cached_scalar_32`), and the uncached tail, a full
//!   TSS walk per frame, the same two ways (`slow_path_tss_batch32`,
//!   `slow_path_tss_32`). Every frame pays its own microflow probe in a
//!   burst or alone, so what a burst wins is the per-call setup and,
//!   for a train, the parse and the hash.
//! - the ablation axes, one frame per iteration: lookup machinery at 1k
//!   rules (`pipeline_mode_1k_rules/{linear,tss,full}`), rule-set size
//!   with the flow on the last rule (`{linear_scan,tss}_vs_rules/{16,
//!   256,4096}`), SS_1's two translator rule shapes
//!   (`translator/{downstream_pop_dispatch,upstream_push_tag}`) and the
//!   frame size through the full pipeline
//!   (`frame_size_full_pipeline/{60,512,1514}`).

use std::hint::black_box;

use bench::timing::Ledger;
use bytes::Bytes;
use netpkt::flowhash::rss_hash;
use netpkt::vlan::{push_vlan, VlanTag};
use netpkt::{builder, FlowKey, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use softswitch::{BatchResult, FrameBatch};

/// One frame per call, the way a node with nothing queued submits it: a
/// batch of one through a batch buffer and a result arena recycled
/// across calls.
#[derive(Default)]
struct OneFrame {
    batch: FrameBatch,
    out: BatchResult,
    now_ns: u64,
}

impl OneFrame {
    /// Run `frame` through `dp` one simulated nanosecond after the last
    /// call; returns the outputs it produced.
    fn run(&mut self, dp: &mut Datapath, in_port: u32, frame: Bytes) -> usize {
        self.now_ns += 1;
        self.batch.push(in_port, frame);
        dp.process_batch_into(&mut self.batch, self.now_ns, &mut self.out);
        self.out.total_outputs()
    }
}

fn udp_frame(src: u32, dst_port: u16, len: usize) -> Bytes {
    let overhead = 14 + 20 + 8;
    let payload = vec![0u8; len.saturating_sub(overhead)];
    builder::udp_packet(
        MacAddr::host(src),
        MacAddr::host(99),
        std::net::Ipv4Addr::from(0x0a00_0000 + src),
        std::net::Ipv4Addr::new(10, 9, 9, 9),
        1000,
        dst_port,
        &payload,
    )
}

fn burst_frames() -> Vec<Bytes> {
    let mut frames = Vec::with_capacity(32);
    for flow in 0..8u32 {
        for _ in 0..4 {
            frames.push(udp_frame(flow + 1, 512, 60));
        }
    }
    frames
}

fn acl_dp(mode: PipelineMode, n_rules: u32) -> Datapath {
    let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
    dp.add_port(1, "p1", 10_000_000);
    dp.add_port(2, "p2", 10_000_000);
    for i in 0..n_rules {
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(
                    Match::new()
                        .eth_type(0x0800)
                        .ip_proto(17)
                        .udp_dst((i % 30000) as u16),
                )
                .apply(vec![Action::output(2)]),
            0,
        )
        .unwrap();
    }
    dp
}

/// Record `datapath/pipeline/{name}`: `f` handles the 32-frame burst.
fn burst(rep: &mut Ledger, name: &str, f: impl FnMut()) {
    let row = rep.calls(&format!("pipeline/{name}"), 1, f);
    let ns = row.timing.median;
    row.with(&[("ns_per_frame", ns / 32.0), ("mpps", 32_000.0 / ns)]);
}

fn bench_stages(rep: &mut Ledger) {
    let frames = burst_frames();
    burst(rep, "parse_key_32", || {
        let mut acc = 0u64;
        for f in &frames {
            acc = acc.wrapping_add(u64::from(FlowKey::extract_lossy(1, f).udp_dst));
        }
        black_box(acc);
    });
    // The RSS hash plus the slot reduction, exactly what
    // `SoftSwitchNode::submit_rx` computes per frame.
    burst(rep, "steer_rss_32", || {
        let mut acc = 0usize;
        for f in &frames {
            acc += rss_hash(f) as usize % 4;
        }
        black_box(acc);
    });

    // The result arena is reused across iterations the way
    // `SoftSwitchNode` reuses it across service periods; the cached rows
    // start with every flow warm in the cache hierarchy.
    for (batch32, scalar_32, mode) in [
        ("cached_batch32", "cached_scalar_32", PipelineMode::full()),
        (
            "slow_path_tss_batch32",
            "slow_path_tss_32",
            PipelineMode::tss(),
        ),
    ] {
        let mut one = OneFrame::default();
        let mut dp = acl_dp(mode, 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone());
        }
        let (mut batch, mut out, mut t) = (FrameBatch::default(), BatchResult::default(), 0);
        burst(rep, batch32, || {
            t += 1;
            for f in &frames {
                batch.push(1, f.clone());
            }
            dp.process_batch_into(&mut batch, t, &mut out);
            black_box(out.total_outputs());
        });
        let mut dp = acl_dp(mode, 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone());
        }
        burst(rep, scalar_32, || {
            let outs: usize = frames.iter().map(|f| one.run(&mut dp, 1, f.clone())).sum();
            black_box(outs);
        });
    }
}

/// Record `datapath/{name}`: `frame` through `dp` on `in_port`, one
/// frame per iteration.
fn per_frame(rep: &mut Ledger, name: &str, dp: &mut Datapath, in_port: u32, frame: &Bytes) {
    let mut one = OneFrame::default();
    one.run(dp, in_port, frame.clone());
    rep.calls(name, 1, || {
        black_box(one.run(dp, in_port, frame.clone()));
    });
}

fn bench_ablation(rep: &mut Ledger) {
    let frame = udp_frame(1, 512, 60);
    for (name, mode) in [
        ("linear", PipelineMode::linear()),
        ("tss", PipelineMode::tss()),
        ("full", PipelineMode::full()),
    ] {
        let mut dp = acl_dp(mode, 1024);
        per_frame(
            rep,
            &format!("pipeline_mode_1k_rules/{name}"),
            &mut dp,
            1,
            &frame,
        );
    }
    for (name, mode) in [
        ("linear_scan", PipelineMode::linear()),
        ("tss", PipelineMode::tss()),
    ] {
        for n in [16u32, 256, 4096] {
            let mut dp = acl_dp(mode, n);
            let frame = udp_frame(1, (n - 1) as u16, 60);
            per_frame(rep, &format!("{name}_vs_rules/{n}"), &mut dp, 1, &frame);
        }
    }
    for len in [60usize, 512, 1514] {
        let mut dp = acl_dp(PipelineMode::full(), 256);
        let frame = udp_frame(1, 128, len);
        per_frame(
            rep,
            &format!("frame_size_full_pipeline/{len}"),
            &mut dp,
            1,
            &frame,
        );
    }
}

/// SS_1's two rule shapes, as installed by the HARMLESS manager.
fn bench_translator(rep: &mut Ledger) {
    let map = harmless::PortMap::with_defaults(48).unwrap();
    let mut dp = Datapath::new(DpConfig::software(0x51));
    dp.add_port(1, "trunk", 10_000_000);
    for p in 1..=48u16 {
        dp.add_port(
            harmless::translator::patch_port(p),
            format!("patch{p}"),
            10_000_000,
        );
    }
    for fm in harmless::translator::translator_rules(&map, 1) {
        dp.apply_flow_mod(&fm, 0).unwrap();
    }
    let tagged = push_vlan(&udp_frame(1, 53, 60), VlanTag::new(117)).unwrap();
    per_frame(
        rep,
        "translator/downstream_pop_dispatch",
        &mut dp,
        1,
        &tagged,
    );
    let port = harmless::translator::patch_port(17);
    let untagged = udp_frame(1, 53, 60);
    per_frame(
        rep,
        "translator/upstream_push_tag",
        &mut dp,
        port,
        &untagged,
    );
}

fn main() {
    let mut rep = Ledger::open("datapath", "ns_per_iter");
    bench_stages(&mut rep);
    bench_ablation(&mut rep);
    bench_translator(&mut rep);
    rep.save();
}
