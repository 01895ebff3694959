//! Shared harness for the experiment binaries: system-under-test
//! builders, RFC 2544-style trials and table rendering.
//!
//! Every experiment binary in `src/bin/` regenerates one row/figure of
//! EXPERIMENTS.md using only public workspace APIs. The four systems the
//! paper compares are built here so all experiments agree on their
//! construction:
//!
//! * **legacy** — the plain Ethernet switch (pre-migration baseline);
//! * **harmless** — legacy + SS_1 + SS_2 (the paper's design);
//! * **software** — a bare software OpenFlow switch (port-density-limited
//!   alternative);
//! * **cots** — the hardware OpenFlow switch (rip-and-replace
//!   alternative).

#![forbid(unsafe_code)]

pub mod report;
pub mod timing;

use harmless::fabric::FabricSpec;
use harmless::instance::{HarmlessSpec, Variant};
use legacy_switch::{CotsConfig, CotsSwitchNode, LegacySwitchNode};
use netsim::measure::TrialResult;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{LinkSpec, Network, NodeId, PortId, SimTime};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::datapath::{DpConfig, PipelineMode};
use softswitch::{CostModel, SoftSwitchNode};

/// Which system forwards the packets in a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Plain legacy Ethernet switch.
    Legacy,
    /// Full HARMLESS stack (two-switch, full caches).
    Harmless,
    /// HARMLESS with a given variant/pipeline (ablations).
    HarmlessWith(Variant, PipelineMode),
    /// Bare software OpenFlow switch.
    Software,
    /// Software switch with an explicit pipeline mode.
    SoftwareWith(PipelineMode),
    /// Software switch with an explicit service batch size (`Software`
    /// uses the node's default burst; 1 shows the queueing of E2).
    SoftwareBatched(usize),
    /// Software switch with RSS flow steering across N datapath cores
    /// (`SoftSwitchNode::with_datapath_cores`); N=1 is bit-identical to
    /// `Software`.
    SoftwareSteered(usize),
    /// COTS hardware OpenFlow switch.
    Cots,
}

impl System {
    /// Label used in result tables.
    pub fn label(&self) -> String {
        match self {
            System::Legacy => "legacy".into(),
            System::Harmless => "harmless".into(),
            System::HarmlessWith(Variant::TwoSwitch, _) => "harmless/2sw".into(),
            System::HarmlessWith(Variant::Merged, _) => "harmless/merged".into(),
            System::Software => "software".into(),
            System::SoftwareWith(m) => format!(
                "software/{}",
                if *m == PipelineMode::linear() {
                    "linear"
                } else if *m == PipelineMode::full() {
                    "full"
                } else {
                    "tss"
                }
            ),
            System::SoftwareBatched(n) => format!("software/b{n}"),
            System::SoftwareSteered(n) => format!("software/c{n}"),
            System::Cots => "cots-sdn".into(),
        }
    }
}

/// Parameters of a forwarding trial: one generator on "access port 1",
/// one sink on "access port 2", fixed offered load.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Frame length (FCS excluded), ≥ 60.
    pub frame_len: usize,
    /// Offered load, frames/second.
    pub pps: f64,
    /// Measured window (after warm-up).
    pub duration: SimTime,
    /// Warm-up (caches, ARP-free static wiring settle).
    pub warmup: SimTime,
    /// Access link model.
    pub access_link: LinkSpec,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrialSpec {
    fn default() -> Self {
        TrialSpec {
            frame_len: 60,
            pps: 10_000.0,
            duration: SimTime::from_millis(200),
            warmup: SimTime::from_millis(20),
            access_link: LinkSpec::gigabit(),
            seed: 42,
        }
    }
}

/// Result of one forwarding trial.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingResult {
    /// Frames offered in the window.
    pub sent: u64,
    /// Frames delivered.
    pub received: u64,
    /// p50 one-way latency, ns.
    pub p50_ns: u64,
    /// p99 one-way latency, ns.
    pub p99_ns: u64,
    /// p999 one-way latency, ns.
    pub p999_ns: u64,
    /// Max latency, ns.
    pub max_ns: u64,
}

impl ForwardingResult {
    /// As an RFC 2544 trial outcome.
    pub fn trial(&self) -> TrialResult {
        TrialResult {
            sent: self.sent,
            received: self.received,
        }
    }
}

/// Wire port 1 → port 2 and 2 → 1 in a datapath, directly.
fn wire_datapath(dp: &mut softswitch::Datapath) {
    for (a, b) in [(1u32, 2u32), (2, 1)] {
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().in_port(a))
                .apply(vec![Action::output(b)]),
            0,
        )
        .expect("wiring rule");
    }
}

/// Run one port-1 → port-2 forwarding trial through `system`.
pub fn forwarding_trial(system: System, spec: TrialSpec) -> ForwardingResult {
    let mut net = Network::new(spec.seed);
    let gen_node = Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps: spec.pps },
        vec![FlowSpec::simple(1, 2, spec.frame_len)],
        spec.warmup,
        spec.warmup + spec.duration,
    );
    let (gen, sink): (NodeId, NodeId) = match system {
        System::Legacy => {
            let sw = net.add_node(LegacySwitchNode::new("legacy", 4));
            let g = net.add_node(gen_node);
            let s = net.add_node(Sink::new("sink"));
            net.connect(g, PortId(0), sw, PortId(1), spec.access_link);
            net.connect(s, PortId(0), sw, PortId(2), spec.access_link);
            // Pre-learn the sink's MAC so unknown-unicast flooding does
            // not skew counts: send one frame backwards first.
            (g, s)
        }
        System::Harmless | System::HarmlessWith(..) => {
            let (variant, mode) = match system {
                System::HarmlessWith(v, m) => (v, m),
                _ => (Variant::TwoSwitch, PipelineMode::full()),
            };
            let mut fx = FabricSpec::single(
                HarmlessSpec::new(2)
                    .with_variant(variant)
                    .with_pipeline_mode(mode)
                    .with_access_link(spec.access_link),
            )
            .build(&mut net)
            .expect("single-pod trial spec is valid");
            fx.configure_direct(&mut net);
            let hx = fx.pod(0);
            match variant {
                Variant::TwoSwitch => {
                    let dp = net.node_mut::<SoftSwitchNode>(hx.ss2).datapath_mut();
                    wire_datapath(dp);
                }
                Variant::Merged => {
                    let r12 = hx.merged_wiring_rule(1, 2);
                    let r21 = hx.merged_wiring_rule(2, 1);
                    let dp = net.node_mut::<SoftSwitchNode>(hx.ss2).datapath_mut();
                    dp.apply_flow_mod(&r12, 0).unwrap();
                    dp.apply_flow_mod(&r21, 0).unwrap();
                }
            }
            let g = net.add_node(gen_node);
            let s = net.add_node(Sink::new("sink"));
            fx.attach_node(&mut net, 0, 1, g).expect("port 1 free");
            fx.attach_node(&mut net, 0, 2, s).expect("port 2 free");
            (g, s)
        }
        System::Software
        | System::SoftwareWith(_)
        | System::SoftwareBatched(_)
        | System::SoftwareSteered(_) => {
            let mode = match system {
                System::SoftwareWith(m) => m,
                _ => PipelineMode::full(),
            };
            let mut sw = SoftSwitchNode::new(
                "ss",
                DpConfig::software(1).with_mode(mode),
                1,
                4096,
                CostModel::default(),
            );
            if let System::SoftwareBatched(n) = system {
                sw = sw.with_batch_size(n);
            }
            if let System::SoftwareSteered(n) = system {
                sw = sw.with_datapath_cores(n);
            }
            sw.add_port(1, "p1", 1_000_000);
            sw.add_port(2, "p2", 1_000_000);
            wire_datapath(sw.datapath_mut());
            let sw = net.add_node(sw);
            let g = net.add_node(gen_node);
            let s = net.add_node(Sink::new("sink"));
            net.connect(g, PortId(0), sw, PortId(1), spec.access_link);
            net.connect(s, PortId(0), sw, PortId(2), spec.access_link);
            (g, s)
        }
        System::Cots => {
            let mut sw = CotsSwitchNode::new("cots", 4, CotsConfig::default());
            wire_datapath(sw.datapath_mut());
            let sw = net.add_node(sw);
            let g = net.add_node(gen_node);
            let s = net.add_node(Sink::new("sink"));
            net.connect(g, PortId(0), sw, PortId(1), spec.access_link);
            net.connect(s, PortId(0), sw, PortId(2), spec.access_link);
            (g, s)
        }
    };
    // For the legacy system the bridge floods until it learns; send one
    // priming frame from the sink side before the generator starts.
    if system == System::Legacy {
        let prime = netpkt::builder::udp_packet(
            netpkt::MacAddr::host(2),
            netpkt::MacAddr::host(1),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            9,
            9,
            b"prime",
        );
        net.with_node_ctx::<Sink, _>(sink, move |_s, ctx| {
            ctx.transmit(PortId(0), prime);
        });
    }
    // Drain: the window plus generous tail for queued frames.
    net.run_until(spec.warmup + spec.duration + SimTime::from_millis(200));
    let sent = net.node_ref::<Generator>(gen).sent();
    let s = net.node_ref::<Sink>(sink);
    ForwardingResult {
        sent,
        received: s.received(),
        p50_ns: s.latency().p50(),
        p99_ns: s.latency().p99(),
        p999_ns: s.latency().p999(),
        max_ns: s.latency().max(),
    }
}

/// RFC 2544 §26.1-style search for the max lossless rate of `system` at
/// one frame length. Returns frames/second.
///
/// Trials use shallow (64 KiB) egress buffers so that short trials
/// cannot hide a sustained overload in queue occupancy — the standard's
/// long-trial requirement, traded for buffer realism.
pub fn max_lossless_pps(system: System, frame_len: usize, access_link: LinkSpec) -> f64 {
    let link = access_link.with_queue_bytes(64 * 1024);
    let hi = netsim::measure::line_rate_pps(link.rate_bps, frame_len);
    netsim::measure::find_max_lossless_rate(1_000.0, hi, 12, 0.0, |pps| {
        let r = forwarding_trial(
            system,
            TrialSpec {
                frame_len,
                pps,
                duration: SimTime::from_millis(60),
                warmup: SimTime::from_millis(20),
                access_link: link,
                seed: 42,
            },
        );
        r.trial()
    })
}

/// Render a results table: header + rows of equal arity.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Mpps with 2 decimals.
pub fn fmt_mpps(pps: f64) -> String {
    format!("{:.3}", pps / 1e6)
}

/// Microseconds with 1 decimal from nanoseconds.
pub fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Jain's fairness index over shares.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 0.0;
    }
    (sum * sum) / (n * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_forward_at_modest_load() {
        for system in [
            System::Legacy,
            System::Harmless,
            System::Software,
            System::Cots,
            System::HarmlessWith(Variant::Merged, PipelineMode::full()),
            System::SoftwareWith(PipelineMode::linear()),
            System::SoftwareBatched(1),
            System::SoftwareBatched(64),
        ] {
            let r = forwarding_trial(
                system,
                TrialSpec {
                    pps: 5_000.0,
                    duration: SimTime::from_millis(50),
                    ..TrialSpec::default()
                },
            );
            assert_eq!(
                r.received,
                r.sent,
                "{}: {} of {}",
                system.label(),
                r.received,
                r.sent
            );
            assert!(r.p50_ns > 0);
        }
    }

    #[test]
    fn harmless_latency_exceeds_legacy_but_same_order() {
        let spec = TrialSpec {
            pps: 1_000.0,
            duration: SimTime::from_millis(50),
            ..TrialSpec::default()
        };
        let legacy = forwarding_trial(System::Legacy, spec);
        let harmless = forwarding_trial(System::Harmless, spec);
        assert!(harmless.p50_ns > legacy.p50_ns);
        assert!(
            harmless.p50_ns < legacy.p50_ns + 30_000,
            "penalty must stay in the tens of µs: {} vs {}",
            harmless.p50_ns,
            legacy.p50_ns
        );
    }

    #[test]
    fn jain() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn table_rendering() {
        let t = render_table("T", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("== T =="));
        assert!(t.contains("bb"));
    }
}
