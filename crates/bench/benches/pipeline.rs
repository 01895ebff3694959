//! Stage-by-stage cost of the run-to-completion datapath pipeline.
//!
//! Each group isolates one stage of the staged batch path — parse,
//! RSS steering, cached probe+replay, slow path — so a regression in
//! any stage is visible on its own, not just in the end-to-end number.
//! One iteration processes the standard 32-frame burst (8 flows × 4
//! frames), matching `batched_vs_scalar_cached` in the `datapath`
//! bench, so per-element numbers are directly comparable across files.

use criterion::{criterion_group, Criterion, Throughput};
use std::time::Duration;

use bench::report;

use bytes::Bytes;
use netpkt::flowhash::rss_hash;
use netpkt::{builder, FlowKey, MacAddr};
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

/// Stage 1 in isolation: flow-key extraction over the burst.
fn bench_parse_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(32));
    let frames = burst_frames();
    g.bench_function("parse_key_32", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for f in &frames {
                let key = FlowKey::extract_lossy(1, f);
                acc = acc.wrapping_add(u64::from(key.udp_dst));
            }
            std::hint::black_box(acc)
        })
    });

    // RX steering stage: the RSS hash plus the slot reduction, exactly
    // what `SoftSwitchNode::submit_rx` computes per frame.
    g.bench_function("steer_rss_32", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in &frames {
                acc += rss_hash(f) as usize % 4;
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

/// The full cached path, as one burst and as 32 batches of one frame
/// (the `scalar` series), with the result arena reused across
/// iterations the way `SoftSwitchNode` reuses it across service
/// periods. This is the headline zero-copy number.
fn bench_cached_stage(c: &mut Criterion) {
    let mut one = OneFrame::default();
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(32));
    let frames = burst_frames();
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        let mut batch = FrameBatch::with_capacity(frames.len());
        let mut out = BatchResult::default();
        g.bench_function("cached_batch32", |b| {
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
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        g.bench_function("cached_scalar_32", |b| {
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
    g.finish();
}

/// The uncached tail: a full TSS pipeline walk per frame (no micro or
/// megaflow caches), the cost every first-of-flow frame pays, one frame
/// per batch.
fn bench_slow_stage(c: &mut Criterion) {
    let mut one = OneFrame::default();
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(32));
    let frames = burst_frames();
    let mut dp = acl_dp(PipelineMode::tss(), 1024);
    let mut t = 0u64;
    g.bench_function("slow_path_tss_32", |b| {
        b.iter(|| {
            t += 1;
            let mut outs = 0usize;
            for f in &frames {
                outs += one.run(&mut dp, 1, f.clone(), t).total_outputs();
            }
            std::hint::black_box(outs)
        })
    });
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
    targets = bench_parse_stage, bench_cached_stage, bench_slow_stage
}

/// A single calibrated measurement (mean ns/iteration) for the
/// machine-readable trajectory, matching the `netloop` bench's idiom.
fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    for _ in 0..5_000 {
        f();
    }
    const ITERS: u32 = 100_000;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

fn main() {
    benches();
    let mut one = OneFrame::default();
    // Record the headline batch-vs-scalar cached numbers into
    // BENCH_netsim.json so perf PRs can diff them without parsing
    // criterion output.
    let frames = burst_frames();
    let mut rep = report::Report::load(report::bench_file());
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        let mut batch = FrameBatch::with_capacity(frames.len());
        let mut out = BatchResult::default();
        let ns = ns_per_iter(|| {
            t += 1;
            for f in &frames {
                batch.push(1, f.clone());
            }
            dp.process_batch_into(&mut batch, t, &mut out);
            std::hint::black_box(out.total_outputs());
        });
        rep.record(
            "datapath/pipeline/cached_batch32",
            &[
                ("ns_per_iter", ns),
                ("ns_per_frame", ns / 32.0),
                ("mpps", 32_000.0 / ns),
            ],
        );
    }
    {
        let mut dp = acl_dp(PipelineMode::full(), 1024);
        for f in &frames {
            one.run(&mut dp, 1, f.clone(), 0);
        }
        let mut t = 0u64;
        let ns = ns_per_iter(|| {
            t += 1;
            let mut outs = 0usize;
            for f in &frames {
                outs += one.run(&mut dp, 1, f.clone(), t).total_outputs();
            }
            std::hint::black_box(outs);
        });
        rep.record(
            "datapath/pipeline/cached_scalar_32",
            &[
                ("ns_per_iter", ns),
                ("ns_per_frame", ns / 32.0),
                ("mpps", 32_000.0 / ns),
            ],
        );
    }
    if let Err(e) = rep.save(report::bench_file()) {
        eprintln!("(could not write {}: {e})", report::BENCH_FILE);
    }
}
