//! E11 — the design ablation docs/ARCHITECTURE.md calls out: the paper's
//! two-switch layout (dedicated translator SS_1 + policy switch SS_2)
//! versus a merged single-datapath pipeline.
//!
//! The two-switch design buys controller transparency with an extra
//! software hop; here we price that hop in throughput and latency.
//!
//! `cargo run --release -p bench --bin exp_ablation`

use bench::{
    fmt_mpps, fmt_us, forwarding_trial, max_lossless_pps, render_table, System, TrialSpec,
};
use harmless::instance::Variant;
use netsim::{LinkSpec, SimTime};
use softswitch::datapath::PipelineMode;

fn main() {
    println!("E11: two-switch (paper) vs merged single-datapath, seed 42");

    let variants = [
        (
            "two-switch",
            System::HarmlessWith(Variant::TwoSwitch, PipelineMode::full()),
        ),
        (
            "merged",
            System::HarmlessWith(Variant::Merged, PipelineMode::full()),
        ),
    ];

    let mut rows = Vec::new();
    for (name, sys) in variants {
        // Ceiling measured on 10G access so the CPU is the limit.
        let ceiling = max_lossless_pps(sys, 60, LinkSpec::ten_gigabit());
        let lat = forwarding_trial(
            sys,
            TrialSpec {
                frame_len: 60,
                pps: 100_000.0,
                duration: SimTime::from_millis(100),
                warmup: SimTime::from_millis(20),
                access_link: LinkSpec::gigabit(),
                seed: 42,
            },
        );
        rows.push(vec![
            name.to_string(),
            fmt_mpps(ceiling),
            fmt_us(lat.p50_ns),
            fmt_us(lat.p99_ns),
        ]);
    }
    println!(
        "{}",
        render_table(
            "64B frames, single core per switch instance",
            &["variant", "ceiling Mpps", "p50 µs", "p99 µs"],
            &rows,
        )
    );

    // The cache ablation (the simulated face of the `datapath` bench's
    // pipeline-mode groups): pipeline modes on the two-switch design.
    let mut rows = Vec::new();
    for (name, mode) in [
        ("linear", PipelineMode::linear()),
        ("tss", PipelineMode::tss()),
        ("full", PipelineMode::full()),
    ] {
        let sys = System::HarmlessWith(Variant::TwoSwitch, mode);
        let ceiling = max_lossless_pps(sys, 60, LinkSpec::ten_gigabit());
        rows.push(vec![name.to_string(), fmt_mpps(ceiling)]);
    }
    println!(
        "{}",
        render_table(
            "lookup-machinery ablation (two-switch, 64B ceiling, 1 flow)",
            &["pipeline", "ceiling Mpps"],
            &rows,
        )
    );
    println!(
        "Reading: merging SS_1 into SS_2 buys roughly the cost of one\n\
         datapath pass, at the price of VLAN-aware (non-portable)\n\
         controller programs — the trade-off §2 of the paper resolves in\n\
         favour of the translator."
    );
}
