//! What every workload is given and what it hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{op_percentile, Group};

/// The six workloads. Names are final: later changes refer to them.
pub const WORKLOADS: [&str; 6] = [
    "pod_warm",
    "pod_scalar",
    "pod_jumbo",
    "pod_churn",
    "fabric_steady",
    "fabric_ctrl",
];

/// Sizes of the fixed work. `full` is what the benchmark measures;
/// `quick` is the same code at sizes a debug build finishes in about a
/// second, for the tests and for a smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Frames per timed pod segment (a multiple of `churn_bump_every`).
    pub pod_segment_frames: u64,
    /// Never-matched ACL entries in SS_2.
    pub acl_rules: u32,
    /// Resident flows of `pod_churn`.
    pub churn_flows: usize,
    /// Frames between two flow-mods on SS_2 in `pod_churn`.
    pub churn_bump_every: u64,
    /// Fresh set-ups whose median is `setup_s`, where one costs
    /// milliseconds (the pod rigs, the legacy-only fabric).
    pub cheap_setups: usize,
    /// Pods of both fabric workloads.
    pub fabric_pods: u16,
    /// Flows per station bundle in `fabric_steady`.
    pub steady_flows_per_bundle: u32,
    /// Simulated milliseconds of warm-up traffic before timing.
    pub steady_warmup_ms: u64,
    /// Simulated milliseconds per timed `fabric_steady` segment.
    pub steady_segment_ms: u64,
    /// Fresh `fabric_steady` set-ups whose median is `setup_s`.
    pub steady_setups: usize,
    /// Hosts per pod in `fabric_ctrl`.
    pub ctrl_hosts_per_pod: u16,
    /// Hosts moved in the migration phase of `fabric_ctrl`.
    pub ctrl_migrations: usize,
    /// Iterations of each isolated probe.
    pub probe_iters: u32,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            pod_segment_frames: 1 << 20,
            acl_rules: 1024,
            churn_flows: 2048,
            churn_bump_every: 1 << 16,
            cheap_setups: 15,
            fabric_pods: 16,
            steady_flows_per_bundle: 64,
            steady_warmup_ms: 20_000,
            steady_segment_ms: 30_000,
            steady_setups: 3,
            ctrl_hosts_per_pod: 128,
            ctrl_migrations: 256,
            probe_iters: 200_000,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            pod_segment_frames: 1 << 12,
            acl_rules: 64,
            churn_flows: 512,
            churn_bump_every: 1 << 10,
            cheap_setups: 1,
            fabric_pods: 4,
            steady_flows_per_bundle: 8,
            steady_warmup_ms: 2_000,
            steady_segment_ms: 2_000,
            steady_setups: 1,
            ctrl_hosts_per_pod: 8,
            ctrl_migrations: 8,
            probe_iters: 200,
        }
    }
}

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
}

/// Decides when the timed part has run long enough. The work is cut
/// into equal segments; a run stops at the segment boundary nearest to
/// the requested duration, after at least three segments.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

/// Fewest segments a run measures: a median with quartiles needs
/// three, and a traced run then has an untraced segment on either side
/// of its traced one.
const MIN_SEGMENTS: usize = 3;

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// True while another segment should run, `done` being finished
    /// and the last one having taken `last_s` host seconds.
    pub fn more(&self, done: usize, last_s: f64) -> bool {
        done < MIN_SEGMENTS || self.start.elapsed().as_secs_f64() + last_s / 2.0 < self.seconds
    }
}

/// Reference ns per host ns over `groups`: the processor's speed while
/// they ran, 1 being the reference.
pub fn speed_over(groups: &[Group]) -> f64 {
    let host: f64 = groups.iter().map(|g| g.ns as f64).sum();
    let reference: f64 = groups.iter().map(|g| g.ref_ns).sum();
    if host > 0.0 {
        reference / host
    } else {
        1.0
    }
}

/// One equal share of the timed part. Times are reference ns and
/// seconds unless they say host.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Seconds it took, harness glue included, canary passes excluded.
    pub wall_s: f64,
    /// Operations completed correctly.
    pub ops: u64,
    /// Per-operation ns: median and 99th percentile over its timed
    /// groups.
    pub p50: f64,
    pub p99: f64,
    /// The median again, in host ns as the clock read them.
    pub host_p50: f64,
    /// Reference ns per host ns over its groups: the processor's speed
    /// while it ran, 1 being the reference.
    pub speed: f64,
    /// Whether spans were recorded while it ran.
    pub traced: bool,
}

impl Segment {
    /// Close a segment that took `host_wall_ns` (canary passes already
    /// taken out) and whose groups the clock has referenced.
    pub fn from_groups(host_wall_ns: u64, groups: &[Group], traced: bool) -> Segment {
        let speed = speed_over(groups);
        Segment {
            wall_s: host_wall_ns as f64 * speed / 1e9,
            ops: groups.iter().map(|g| g.ops).sum(),
            p50: op_percentile(groups, 50.0, |g| g.ref_ns),
            p99: op_percentile(groups, 99.0, |g| g.ref_ns),
            host_p50: op_percentile(groups, 50.0, |g| g.ns as f64),
            speed,
            traced,
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of each fresh set-up.
    pub setups_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// Operations attempted and failed over the whole run, set-up and
    /// verification included.
    pub attempted: u64,
    pub failed: u64,
    /// False when an invariant other than a failed operation broke
    /// (a digest that did not repeat, a cache that flushed).
    pub correct: bool,
    /// Digest of the deterministic part of a simulated run.
    pub digest: Option<u64>,
    /// Per-layer values by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}
