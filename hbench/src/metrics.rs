//! The metric names this benchmark reports, and the report built from
//! a workload's outcome. `BENCHMARK.json` lists the same names; a test
//! holds the two together.

use crate::json::Json;
use crate::noise::Clock;
use crate::run::{Outcome, Segment};
use crate::stats::{median, summarize, Summary};

/// End-to-end metrics, reported with tracing off, on every workload.
/// An *operation* is what the workload counts as attempted: a frame
/// delivered at the far edge (`pod_*`, `fabric_steady`), or a
/// control-plane operation applied to a device (`fabric_ctrl`). The
/// 99th percentile is not among them: it carries no bound, because on
/// a shared machine the neighbours set it (see `harness.op_ns_p99`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ns_p50", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("legacy_switch.bridge_in_ns", "ns"),
    ("legacy_switch.bridge_out_ns", "ns"),
    ("softswitch.ss1_down_ns", "ns"),
    ("softswitch.ss2_ns", "ns"),
    ("softswitch.ss1_up_ns", "ns"),
    ("harness.glue_ns", "ns"),
    ("softswitch.ss1.memo_hit_ratio", "ratio"),
    ("softswitch.ss1.micro_hit_ratio", "ratio"),
    ("softswitch.ss1.mega_hit_ratio", "ratio"),
    ("softswitch.ss1.slow_path_ratio", "ratio"),
    ("softswitch.ss2.memo_hit_ratio", "ratio"),
    ("softswitch.ss2.micro_hit_ratio", "ratio"),
    ("softswitch.ss2.mega_hit_ratio", "ratio"),
    ("softswitch.ss2.slow_path_ratio", "ratio"),
    ("softswitch.slow_path_ns", "ns"),
    ("softswitch.flow_mod_apply_ns", "ns"),
    ("softswitch.flow_mod_apply_ns_8k", "ns"),
    ("softswitch.epoch_bumps", "count"),
    ("softswitch.refill_frames", "count"),
    ("softswitch.costmodel_ns", "ns"),
    ("softswitch.costmodel_over_measured", "ratio"),
    ("softswitch.packet_ins", "count"),
    ("softswitch.rx_dropped", "count"),
    ("netpkt.parse_ns", "ns"),
    ("netpkt.flow_hash_ns", "ns"),
    ("netpkt.vlan_push_ns", "ns"),
    ("netpkt.vlan_pop_ns", "ns"),
    ("netpkt.allocs_per_frame", "count"),
    ("netsim.events", "count"),
    ("netsim.events_per_frame", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.run_for_ns_p50", "ns"),
    ("netsim.run_for_ns_p99", "ns"),
    ("netsim.event_idle_ns", "ns"),
    ("netsim.delivered_frames", "count"),
    ("netsim.link_drops", "count"),
    ("netsim.blackholed_frames", "count"),
    ("netsim.ctrl_dropped", "count"),
    ("netsim.ctrl_retx", "count"),
    ("netsim.sim_p50_ns", "ns"),
    ("netsim.sim_p99_ns", "ns"),
    ("openflow.flow_mod_encode_ns", "ns"),
    ("openflow.flow_mod_decode_ns", "ns"),
    ("openflow.packet_in_encode_ns", "ns"),
    ("openflow.packet_in_decode_ns", "ns"),
    ("openflow.msgs", "count"),
    ("controller.flow_mods_sent", "count"),
    ("controller.packet_ins", "count"),
    ("controller.retransmits", "count"),
    ("controller.promotions", "count"),
    ("controller.arp_answered", "count"),
    ("mgmt.snmp_ops", "count"),
    ("mgmt.snmp_encode_ns", "ns"),
    ("mgmt.snmp_decode_ns", "ns"),
    ("core.build_s", "s"),
    ("core.attach_s", "s"),
    ("core.wave_s", "s"),
    ("core.migrate_s", "s"),
    ("core.failover_s", "s"),
    ("core.wave_sim_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.canary_ns", "ns"),
    ("harness.cpu_share", "ratio"),
    ("harness.runq_wait_ms", "ms"),
    ("harness.segments", "count"),
    ("harness.speed", "ratio"),
    ("harness.op_ns_p50_traced", "ns"),
    ("harness.op_ns_p50_untraced", "ns"),
    ("harness.op_ns_p50_host", "ns"),
    ("harness.op_ns_p99", "ns"),
];

/// True for a per-layer metric that is counted or simulated, never
/// timed: it must repeat exactly between two runs of one seed. Counts
/// are taken over the first fixed segment or as per-frame ratios over
/// whole segments, so the run's duration does not move them.
pub fn is_exact(name: &str, unit: &str) -> bool {
    let counted = matches!(unit, "count" | "ratio")
        && !name.starts_with("harness.")
        && name != "softswitch.costmodel_over_measured";
    counted
        || matches!(
            name,
            "netsim.sim_p50_ns" | "netsim.sim_p99_ns" | "core.wave_sim_ms"
        )
}

/// One reported number with the quartiles of the segments behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What the machine did around the workload.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// Median host ns of a canary pass.
    pub canary_ns: f64,
    /// 5th, 50th and 95th percentile of the processor's speed over the
    /// canary passes, 1 being the reference.
    pub speed: [f64; 3],
    /// Speed over the last five canary passes ÷ speed over the first
    /// five: the canary after the workload against the canary before.
    pub drift: f64,
    /// On-CPU share and run-queue wait of the timed thread.
    pub cpu_share: f64,
    pub runq_wait_ms: f64,
    pub peak_rss_mib: f64,
}

impl Noise {
    pub fn new(clock: &Clock, cpu_share: f64, runq_wait_ms: f64) -> Noise {
        let mut f = clock.factors();
        let ends = f.len().min(5);
        let drift = median(&f[f.len() - ends..]) / median(&f[..ends]);
        f.sort_by(f64::total_cmp);
        let pct = |p: usize| f[(f.len() - 1) * p / 100];
        Noise {
            canary_ns: clock.canary_ns(),
            // A factor above 1 stretches host ns: a faster processor.
            speed: [pct(5), pct(50), pct(95)],
            drift,
            cpu_share,
            runq_wait_ms,
            peak_rss_mib: crate::noise::peak_rss_mib(),
        }
    }

    /// The machine ended the workload more than a tenth faster or
    /// slower than it began it. Reference times take that out as far
    /// as the workload's cost follows what the canary follows; a reader
    /// should still know.
    pub fn unstable(&self) -> bool {
        !(1.0 / 1.10..=1.10).contains(&self.drift)
    }
}

/// Everything one invocation reports.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub unstable: bool,
    pub speed: [f64; 3],
    pub drift: f64,
    pub digest: Option<u64>,
    pub metrics: Vec<Metric>,
    /// The timed segments behind the medians, in run order.
    pub segments: Vec<Segment>,
}

fn single(v: f64) -> Summary {
    Summary {
        value: v,
        q1: v,
        q3: v,
        n: 1,
    }
}

impl Report {
    /// Build the report of an untraced (`end_to_end`) or traced
    /// (`per_layer`) run.
    pub fn new(workload: &str, seed: u64, trace: bool, out: &Outcome, noise: &Noise) -> Report {
        let of = |traced: bool, f: &dyn Fn(&Segment) -> f64| -> Vec<f64> {
            out.segments
                .iter()
                .filter(|s| s.traced == traced)
                .map(f)
                .collect()
        };
        let mut metrics = Vec::new();
        if !trace {
            // Reported: the median over the segments (over the fresh
            // set-ups for `setup_s`), with their quartiles beside it.
            let e2e = [
                summarize(&out.setups_s),
                summarize(&of(false, &|s| s.ops as f64 / s.wall_s)),
                summarize(&of(false, &|s| s.p50)),
                single(noise.peak_rss_mib),
            ];
            for ((name, unit), summary) in END_TO_END.into_iter().zip(e2e) {
                metrics.push(Metric {
                    name,
                    unit,
                    summary,
                });
            }
        } else {
            let mut layers = out.layers.clone();
            let untraced = median(&of(false, &|s| s.p50));
            let traced = median(&of(true, &|s| s.p50));
            layers.insert(
                "harness.trace_overhead_pct",
                (traced / untraced - 1.0) * 100.0,
            );
            layers.insert("harness.op_ns_p50_traced", traced);
            layers.insert("harness.op_ns_p50_untraced", untraced);
            layers.insert("harness.op_ns_p99", median(&of(false, &|s| s.p99)));
            layers.insert("harness.segments", out.segments.len() as f64);
            layers.insert("harness.canary_ns", noise.canary_ns);
            layers.insert("harness.speed", noise.speed[1]);
            layers.insert(
                "harness.op_ns_p50_host",
                median(&of(false, &|s| s.host_p50)),
            );
            layers.insert("harness.cpu_share", noise.cpu_share);
            layers.insert("harness.runq_wait_ms", noise.runq_wait_ms);
            for name in layers.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "workload reported an unlisted layer metric {name}"
                );
            }
            for (name, unit) in PER_LAYER {
                metrics.push(Metric {
                    name,
                    unit,
                    summary: single(layers.get(name).copied().unwrap_or(0.0)),
                });
            }
        }
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            correct: out.correct && out.failed == 0,
            attempted: out.attempted,
            failed: out.failed,
            unstable: noise.unstable(),
            speed: noise.speed,
            drift: noise.drift,
            digest: out.digest,
            metrics,
            segments: out.segments.clone(),
        }
    }

    /// The metrics as a JSON object: value and unit, and for the detail
    /// document the quartiles and sample count behind the value.
    fn metrics_json(&self, quartiles: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value", Json::Num(m.summary.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ];
                    if quartiles {
                        fields.push(("q1", Json::Num(m.summary.q1)));
                        fields.push(("q3", Json::Num(m.summary.q3)));
                        fields.push(("n", Json::Num(m.summary.n as f64)));
                    }
                    (m.name.to_string(), Json::object(fields))
                })
                .collect(),
        )
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Json::object(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .to_string()
    }

    /// The same run with everything a reader needs to judge it:
    /// quartiles and sample counts, the digest, the stability flag.
    pub fn detail(&self) -> Json {
        Json::object(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_ratio",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("unstable", Json::Bool(self.unstable)),
            ("speed_after_over_before", Json::Num(self.drift)),
            (
                "speed_p05_p50_p95",
                Json::Arr(self.speed.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "sim_digest",
                match self.digest {
                    Some(d) => Json::Str(format!("{d:016x}")),
                    None => Json::Null,
                },
            ),
            ("metrics", self.metrics_json(true)),
            (
                "segments",
                Json::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Json::object(vec![
                                ("traced", Json::Bool(s.traced)),
                                ("wall_s", Json::Num(s.wall_s)),
                                ("ops", Json::Num(s.ops as f64)),
                                ("op_ns_p50", Json::Num(s.p50)),
                                ("op_ns_p99", Json::Num(s.p99)),
                                ("host_op_ns_p50", Json::Num(s.host_p50)),
                                ("speed", Json::Num(s.speed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
