//! A quick-sized pass of every workload, and the checks that hold the
//! benchmark's own contract together. Debug build, about a second per
//! workload.

use crate::compare::{compare, judge, Verdict};
use crate::json::Json;
use crate::metrics::{is_exact, Noise, Report, END_TO_END, PER_LAYER};
use crate::noise::Clock;
use crate::run::{Params, Scale, WORKLOADS};
use crate::trace::Tracer;

/// `bytes::buffer_allocs()` counts for the whole process, so two
/// workloads measured at once would see each other's allocations.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn quick(workload: &str, seed: u64, trace: bool) -> Report {
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let p = Params {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::quick(),
    };
    let mut clock = Clock::new();
    let out = crate::measure(workload, &p, &mut Tracer::new(), &mut clock);
    Report::new(workload, seed, trace, &out, &Noise::new(&clock, 1.0, 0.0))
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .summary
        .value
}

/// Every workload, untraced and traced: no operation fails, every
/// end-to-end metric is non-zero, every per-layer metric is reported,
/// and what is counted or simulated repeats for one seed.
fn check_workload(workload: &str) {
    let plain = quick(workload, 7, false);
    assert!(plain.correct, "{workload}: incorrect");
    assert_eq!(plain.failed, 0, "{workload}: failed operations");
    assert!(plain.attempted > 0);
    assert_eq!(plain.metrics.len(), END_TO_END.len());
    for (name, _) in END_TO_END {
        assert!(value(&plain, name) > 0.0, "{workload}: {name} is zero");
    }
    let line = Json::parse(&plain.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let a = quick(workload, 7, true);
    let b = quick(workload, 7, true);
    assert!(
        a.correct && a.failed == 0,
        "{workload}: traced run incorrect"
    );
    assert_eq!(a.metrics.len(), PER_LAYER.len());
    assert_eq!(a.digest, b.digest, "{workload}: digest must repeat");
    assert_eq!(a.attempted, b.attempted);
    for (name, unit) in PER_LAYER {
        if is_exact(name, unit) {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{workload}: {name} is exact and must repeat"
            );
        }
    }
    if workload.starts_with("fabric") {
        let other = quick(workload, 8, true);
        assert!(a.digest.is_some());
        assert_ne!(
            a.digest, other.digest,
            "{workload}: digest ignores the seed"
        );
        assert!(value(&a, "netsim.events") > 0.0);
    } else {
        assert_eq!(value(&a, "netpkt.allocs_per_frame").round(), 6.0);
        assert!(value(&a, "softswitch.ss2_ns") > 0.0);
        assert!(value(&a, "harness.glue_ns") > 0.0);
    }
}

#[test]
fn pod_warm_quick() {
    check_workload("pod_warm");
    let r = quick("pod_warm", 7, true);
    assert!(value(&r, "softswitch.ss1.memo_hit_ratio") >= 0.99);
    assert!(value(&r, "softswitch.ss2.memo_hit_ratio") >= 0.99);
}

#[test]
fn pod_scalar_quick() {
    check_workload("pod_scalar");
    // One frame per call: the batch memo is never consulted.
    let r = quick("pod_scalar", 7, true);
    assert_eq!(value(&r, "softswitch.ss2.memo_hit_ratio"), 0.0);
    assert!(value(&r, "softswitch.ss2.micro_hit_ratio") >= 0.99);
}

#[test]
fn pod_jumbo_quick() {
    check_workload("pod_jumbo");
}

#[test]
fn pod_churn_quick() {
    check_workload("pod_churn");
    let r = quick("pod_churn", 7, true);
    assert!(value(&r, "softswitch.ss2.memo_hit_ratio") < 0.5);
    assert!(value(&r, "softswitch.ss2.slow_path_ratio") > 0.0);
    assert_eq!(value(&r, "softswitch.epoch_bumps"), 4.0);
    assert!(value(&r, "softswitch.flow_mod_apply_ns") > 0.0);
}

#[test]
fn fabric_steady_quick() {
    check_workload("fabric_steady");
    let r = quick("fabric_steady", 7, true);
    for silent in [
        "controller.packet_ins",
        "controller.flow_mods_sent",
        "openflow.msgs",
        "softswitch.rx_dropped",
        "netsim.blackholed_frames",
    ] {
        assert_eq!(value(&r, silent), 0.0, "{silent} on a converged fabric");
    }
    assert!(value(&r, "netsim.events_per_frame") > 1.0);
}

#[test]
fn fabric_ctrl_quick() {
    check_workload("fabric_ctrl");
    let r = quick("fabric_ctrl", 7, true);
    assert_eq!(value(&r, "controller.promotions"), 1.0);
    assert!(value(&r, "mgmt.snmp_ops") > 0.0);
    assert!(value(&r, "controller.flow_mods_sent") > value(&r, "netsim.delivered_frames"));
    assert!(value(&r, "core.wave_s") > 0.0);
}

fn bench_json() -> Json {
    Json::parse(crate::compare::BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let bench = bench_json();
    let names = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    // The benchmark contract caps a bound at a quarter.
    for m in bench.get("end_to_end").unwrap().as_array() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn judge_applies_the_bound_in_the_bad_direction_only() {
    assert_eq!(judge(100.0, 109.0, 0.01, true, 0.1), Verdict::Ok);
    assert_eq!(judge(100.0, 111.0, 0.01, true, 0.1), Verdict::Worse);
    assert_eq!(judge(100.0, 50.0, 0.01, true, 0.1), Verdict::Ok);
    assert_eq!(judge(100.0, 91.0, 0.01, false, 0.1), Verdict::Ok);
    assert_eq!(judge(100.0, 89.0, 0.01, false, 0.1), Verdict::Worse);
    assert_eq!(judge(100.0, 200.0, 0.01, false, 0.1), Verdict::Ok);
    // A spread wider than the bound resolves nothing, either way.
    assert_eq!(judge(100.0, 150.0, 0.2, true, 0.1), Verdict::Unresolved);
    assert_eq!(judge(100.0, 100.0, 0.2, true, 0.1), Verdict::Unresolved);
}

/// A run set as `--all` writes it, every end-to-end metric reading
/// `value` with its quartiles `spread` of it apart.
fn run_set_spread(seed: &str, value: f64, spread: f64, bumps: f64, digest: &str) -> Json {
    let metric = |v: f64, unit: &str| {
        Json::object(vec![
            ("value", Json::Num(v)),
            ("unit", Json::Str(unit.into())),
            ("q1", Json::Num(v * (1.0 - spread / 2.0))),
            ("q3", Json::Num(v * (1.0 + spread / 2.0))),
            ("n", Json::Num(5.0)),
        ])
    };
    let mut runs = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let metrics = if trace {
                vec![
                    ("softswitch.epoch_bumps".to_string(), metric(bumps, "count")),
                    ("softswitch.ss2_ns".to_string(), metric(value, "ns")),
                ]
            } else {
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), metric(value, u)))
                    .collect()
            };
            runs.push(Json::object(vec![
                ("workload", Json::Str(w.into())),
                ("trace", Json::Bool(trace)),
                ("failed_ratio", Json::Num(0.0)),
                ("sim_digest", Json::Str(digest.into())),
                ("metrics", Json::Obj(metrics)),
            ]));
        }
    }
    let set = Json::object(vec![
        ("seed", Json::Str(seed.into())),
        ("runs", Json::Arr(runs)),
    ]);
    // Through text, as the files on disk go.
    Json::parse(&crate::compare::pretty(&set)).expect("a run set parses back")
}

fn run_set(seed: &str, value: f64, bumps: f64, digest: &str) -> Json {
    run_set_spread(seed, value, 0.0, bumps, digest)
}

#[test]
fn compare_accepts_a_set_against_itself_and_rejects_a_worse_one() {
    // The workloads and metrics of BENCHMARK.json under bounds of the
    // test's own, so that a retuned bound does not move its verdicts.
    let bench = Json::object(vec![
        ("workloads", bench_json().get("workloads").unwrap().clone()),
        (
            "end_to_end",
            Json::Arr(
                [
                    ("setup_s", "lower", 0.25),
                    ("ops_per_s", "higher", 0.1),
                    ("op_ns_p50", "lower", 0.1),
                    ("peak_rss_mib", "lower", 0.1),
                ]
                .into_iter()
                .map(|(name, better, bound)| {
                    Json::object(vec![
                        ("name", Json::Str(name.into())),
                        ("better", Json::Str(better.into())),
                        ("bound", Json::Num(bound)),
                    ])
                })
                .collect(),
            ),
        ),
    ]);
    let a = run_set("3", 100.0, 4.0, "00ff");
    let (report, accept) = compare(&a, &a, &bench).unwrap();
    assert!(accept, "{report}");
    assert!(!report.contains("worse"), "{report}");
    assert_eq!(
        report.matches(" ok ").count(),
        WORKLOADS.len() * END_TO_END.len()
    );

    // Every metric 20 % up: worse where lower is better, fine where
    // higher is (setup_s tolerates 25 %).
    let (report, accept) = compare(&a, &run_set("3", 120.0, 4.0, "00ff"), &bench).unwrap();
    assert!(!accept);
    assert!(
        report.contains("pod_warm       op_ns_p50     worse"),
        "{report}"
    );
    assert!(
        report.contains("pod_warm       ops_per_s     ok"),
        "{report}"
    );
    assert!(
        report.contains("pod_warm       setup_s       ok"),
        "{report}"
    );

    // Segments whose quartiles lie 15 % apart resolve nothing under a
    // bound of 10 %, whichever set they are in and whatever the medians
    // say; under the 25 % of setup_s they do.
    let wide = run_set_spread("3", 100.0, 0.15, 4.0, "00ff");
    for (x, y) in [(&a, &wide), (&wide, &a)] {
        let (report, accept) = compare(x, y, &bench).unwrap();
        assert!(accept, "{report}");
        assert!(
            report.contains("pod_churn      op_ns_p50     unresolved"),
            "{report}"
        );
        assert!(
            report.contains("pod_churn      setup_s       ok"),
            "{report}"
        );
    }

    // One seed: a moved exact count or digest is a defect, timings are not.
    let (report, accept) = compare(&a, &run_set("3", 101.0, 5.0, "00ff"), &bench).unwrap();
    assert!(!accept);
    assert!(
        report.contains("softswitch.epoch_bumps is exact and differs"),
        "{report}"
    );
    assert!(!report.contains("ss2_ns"), "{report}");
    let (report, accept) = compare(&a, &run_set("3", 100.0, 4.0, "00fe"), &bench).unwrap();
    assert!(!accept);
    assert!(report.contains("sim_digest    differs"), "{report}");
    // Another seed: counts and digests are not comparable.
    let (_, accept) = compare(&a, &run_set("4", 100.0, 5.0, "00fe"), &bench).unwrap();
    assert!(accept);
}
