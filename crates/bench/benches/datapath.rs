//! The native face of E11 (`exp_ablation`) — real per-packet cost of the
//! software datapath, measured with Criterion (this is what ESwitch/NFPA
//! would measure on the paper's testbed, modulo the hardware
//! generation).
//!
//! Benchmarks cover the ablation axes: lookup machinery (linear / TSS /
//! microflow / full), rule-set size, the HARMLESS translator path
//! (pop+output, push+set+output), and the batched fast path (one
//! `process_batch_into` burst vs. the same frames as batches of one;
//! the `scalar` series keep their ledger names).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use bytes::Bytes;
use netpkt::vlan::{push_vlan, VlanTag};
use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use softswitch::{BatchResult, FrameBatch};

mod common;
use common::OneFrame;

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

fn bench_pipeline_modes(c: &mut Criterion) {
    let mut one = OneFrame::default();
    let mut g = c.benchmark_group("pipeline_mode_1k_rules");
    g.throughput(Throughput::Elements(1));
    for (name, mode) in [
        ("linear", PipelineMode::linear()),
        ("tss", PipelineMode::tss()),
        ("full", PipelineMode::full()),
    ] {
        let mut dp = acl_dp(mode, 1024);
        let frame = udp_frame(1, 512, 60);
        // Warm the caches with the benched flow.
        one.run(&mut dp, 1, frame.clone(), 0);
        let mut t = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                t += 1;
                std::hint::black_box(one.run(&mut dp, 1, frame.clone(), t).total_outputs())
            })
        });
    }
    g.finish();
}

fn bench_rule_count_scaling(c: &mut Criterion) {
    let mut one = OneFrame::default();
    let mut g = c.benchmark_group("linear_scan_vs_rules");
    g.throughput(Throughput::Elements(1));
    for n in [16u32, 256, 4096] {
        let mut dp = acl_dp(PipelineMode::linear(), n);
        // Miss-positioned flow: matches the LAST rule to show O(n).
        let frame = udp_frame(1, (n - 1) as u16, 60);
        let mut t = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                std::hint::black_box(one.run(&mut dp, 1, frame.clone(), t).total_outputs())
            })
        });
    }
    g.finish();
    let mut g = c.benchmark_group("tss_vs_rules");
    g.throughput(Throughput::Elements(1));
    for n in [16u32, 256, 4096] {
        let mut dp = acl_dp(PipelineMode::tss(), n);
        let frame = udp_frame(1, (n - 1) as u16, 60);
        let mut t = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                std::hint::black_box(one.run(&mut dp, 1, frame.clone(), t).total_outputs())
            })
        });
    }
    g.finish();
}

fn bench_translator_paths(c: &mut Criterion) {
    let mut one = OneFrame::default();
    // SS_1's two rule shapes, as installed by the HARMLESS manager.
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
    let mut g = c.benchmark_group("translator");
    g.throughput(Throughput::Elements(1));
    let tagged = push_vlan(&udp_frame(1, 53, 60), VlanTag::new(117)).unwrap();
    let mut t = 0u64;
    g.bench_function("downstream_pop_dispatch", |b| {
        b.iter(|| {
            t += 1;
            std::hint::black_box(one.run(&mut dp, 1, tagged.clone(), t).total_outputs())
        })
    });
    let untagged = udp_frame(1, 53, 60);
    g.bench_function("upstream_push_tag", |b| {
        b.iter(|| {
            t += 1;
            let port = harmless::translator::patch_port(17);
            std::hint::black_box(one.run(&mut dp, port, untagged.clone(), t).total_outputs())
        })
    });
    g.finish();
}

fn bench_frame_sizes(c: &mut Criterion) {
    let mut one = OneFrame::default();
    let mut g = c.benchmark_group("frame_size_full_pipeline");
    for len in [60usize, 512, 1514] {
        let mut dp = acl_dp(PipelineMode::full(), 256);
        let frame = udp_frame(1, 128, len);
        one.run(&mut dp, 1, frame.clone(), 0);
        g.throughput(Throughput::Bytes(len as u64));
        let mut t = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| {
                t += 1;
                std::hint::black_box(one.run(&mut dp, 1, frame.clone(), t).total_outputs())
            })
        });
    }
    g.finish();
}

/// The cached-flow / slow-path workloads behind the batched-vs-scalar
/// comparison: a 32-frame burst of 8 flows arriving as 4-frame trains
/// (TCP-ish bursts), against the usual 1k-rule ACL.
fn burst_frames() -> Vec<Bytes> {
    let mut frames = Vec::with_capacity(32);
    for flow in 0..8u32 {
        for _ in 0..4 {
            frames.push(udp_frame(flow + 1, 512, 60));
        }
    }
    frames
}

fn bench_batched_vs_scalar(c: &mut Criterion) {
    let mut one = OneFrame::default();
    // Cached-flow workload: every flow is warm in the full cache
    // hierarchy. One iteration = 32 frames, so the per-element numbers
    // of `scalar` (32 batches of one frame) and `batch32` are directly
    // comparable; every frame pays its own microflow probe either way,
    // so what the burst wins is the per-call setup (and, for a packet
    // train, the parse and the hash).
    let mut g = c.benchmark_group("batched_vs_scalar_cached");
    g.throughput(Throughput::Elements(32));
    let frames = burst_frames();
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        g.bench_function("scalar", |b| {
            b.iter(|| {
                t += 1;
                let mut outs = 0usize;
                for f in &frames {
                    outs += one.run(&mut dp, 1, f.clone(), t).total_outputs();
                }
                std::hint::black_box(outs)
            })
        });
    }
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        let mut batch = FrameBatch::with_capacity(frames.len());
        let mut out = BatchResult::default();
        g.bench_function("batch32", |b| {
            b.iter(|| {
                t += 1;
                for f in &frames {
                    batch.push(1, f.clone());
                }
                dp.process_batch_into(&mut batch, t, &mut out);
                std::hint::black_box(out.total_outputs())
            })
        });
    }
    g.finish();

    // Cache-less (TSS) workload: without micro/megaflow caches every
    // frame pays a full pipeline walk, in a batch or alone.
    let mut g = c.benchmark_group("batched_vs_scalar_tss");
    g.throughput(Throughput::Elements(32));
    let frames = burst_frames();
    {
        let mut dp = acl_dp(PipelineMode::tss(), 1024);
        let mut t = 0u64;
        g.bench_function("scalar", |b| {
            b.iter(|| {
                t += 1;
                let mut outs = 0usize;
                for f in &frames {
                    outs += one.run(&mut dp, 1, f.clone(), t).total_outputs();
                }
                std::hint::black_box(outs)
            })
        });
    }
    {
        let mut dp = acl_dp(PipelineMode::tss(), 1024);
        let mut t = 0u64;
        let mut batch = FrameBatch::with_capacity(frames.len());
        let mut out = BatchResult::default();
        g.bench_function("batch32", |b| {
            b.iter(|| {
                t += 1;
                for f in &frames {
                    batch.push(1, f.clone());
                }
                dp.process_batch_into(&mut batch, t, &mut out);
                std::hint::black_box(out.total_outputs())
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_pipeline_modes, bench_rule_count_scaling, bench_translator_paths, bench_frame_sizes, bench_batched_vs_scalar
}
criterion_main!(benches);
