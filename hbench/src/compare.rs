//! `hbench compare A.json B.json`: judge run set B against run set A
//! with the bounds `BENCHMARK.json` fixes.
//!
//! For every end-to-end metric of every workload it prints `ok`,
//! `worse` (B's median moved in the bad direction by more than the
//! bound) or `unresolved` (in either set the distance between the
//! quartiles of the segments, as a share of their median, is wider
//! than the bound, so the comparison cannot tell), with the ratio B/A
//! and its base. For two sets of one seed it also checks that
//! every exact count and every `sim_digest` repeats. Exits non-zero on
//! any `worse` or any count that should repeat and does not.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::is_exact;
use crate::stats::Summary;

/// One run per line, so two run sets diff line by line.
pub fn pretty(doc: &Json) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in doc.fields().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n{}: ", Json::Str(k.clone())));
        match v {
            Json::Arr(items) => {
                s.push('[');
                for (j, item) in items.iter().enumerate() {
                    s.push_str(if j > 0 { ",\n" } else { "\n" });
                    s.push_str(&item.to_string());
                }
                s.push_str("\n]");
            }
            other => s.push_str(&other.to_string()),
        }
    }
    s.push_str("\n}\n");
    s
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn sample(run: &Json, metric: &str) -> Option<Summary> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Summary {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

/// The rule of the benchmark: a spread wider than the bound resolves
/// nothing; otherwise B is worse when it moved in the bad direction by
/// more than the bound, as a share of A.
pub fn judge(a: f64, b: f64, spread: f64, lower_is_better: bool, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if (lower_is_better && b > a * (1.0 + bound))
        || (!lower_is_better && b < a * (1.0 - bound))
    {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn find_run<'a>(set: &'a Json, workload: &str, trace: bool) -> Option<&'a Json> {
    set.get("runs")?.as_array().iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_bool) == Some(trace)
    })
}

/// The benchmark's description, with the bounds: the copy at the root
/// of the repository, as it was when this program was built.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Compare two run sets under the workloads, metrics and bounds of
/// `bench`; returns the report and whether B is acceptable.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut accept = true;
    let same_seed = a.get("seed") == b.get("seed");
    let workloads = bench
        .get("workloads")
        .ok_or("BENCHMARK.json has no workloads")?;
    for w in workloads.as_array() {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let (ra, rb) = match (find_run(a, name, false), find_run(b, name, false)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => return Err(format!("{name}: missing from a run set")),
        };
        for m in bench.get("end_to_end").map_or(&[][..], Json::as_array) {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (sa, sb) = match (sample(ra, metric), sample(rb, metric)) {
                (Some(sa), Some(sb)) => (sa, sb),
                _ => return Err(format!("{name}: {metric} missing from a run")),
            };
            let spread = sa.spread().max(sb.spread());
            let v = judge(sa.value, sb.value, spread, lower, bound);
            accept &= v != Verdict::Worse;
            report.push_str(&format!(
                "{name:14} {metric:13} {:10}  B/A {:.4}  (A {:.6}, B {:.6}, spread {spread:.3}, bound {bound})\n",
                v.word(),
                sb.value / sa.value,
                sa.value,
                sb.value,
            ));
        }
        // Failed operations may not increase, whatever the seed.
        let failed = |r: &Json| r.get("failed_ratio").and_then(Json::as_f64).unwrap_or(1.0);
        if failed(rb) > failed(ra) {
            accept = false;
            report.push_str(&format!(
                "{name:14} failed_ratio  worse       A {} B {}\n",
                failed(ra),
                failed(rb)
            ));
        }
        if !same_seed {
            continue;
        }
        // One seed: what is simulated or counted must repeat exactly.
        for trace in [false, true] {
            let (Some(ra), Some(rb)) = (find_run(a, name, trace), find_run(b, name, trace)) else {
                continue;
            };
            if ra.get("sim_digest") != rb.get("sim_digest") {
                accept = false;
                report.push_str(&format!("{name:14} sim_digest    differs\n"));
            }
            for (metric, ma) in ra.get("metrics").map_or(&[][..], Json::fields) {
                let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
                if !is_exact(metric, unit) {
                    continue;
                }
                let va = ma.get("value");
                let vb = rb.get("metrics").and_then(|m| m.get(metric)?.get("value"));
                if va != vb {
                    accept = false;
                    report.push_str(&format!(
                        "{name:14} {metric} is exact and differs: A {va:?} B {vb:?}\n"
                    ));
                }
            }
        }
    }
    if same_seed {
        report.push_str("exact counts and digests of the two sets were compared\n");
    } else {
        report.push_str("seeds differ: exact counts and digests were not compared\n");
    }
    Ok((report, accept))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: hbench compare <A.json> <B.json>".into());
    };
    let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (report, accept) = compare(&load(a)?, &load(b)?, &bench)?;
    print!("{report}");
    Ok(if accept {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
