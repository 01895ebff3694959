//! `hbench` — one benchmark for the whole pod, the fabric and the
//! control plane, with per-layer attribution. See `README.md` beside
//! this package for the workloads, the metric glossary and how to read
//! a result.
//!
//! ```text
//! hbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>] [--quick]
//! hbench --all --seed <u64> [--seconds <n>] [--out <file>] [--trace-out <prefix>] [--quick]
//! hbench compare <A.json> <B.json>
//! ```

mod compare;
mod fabric;
mod json;
mod metrics;
mod noise;
mod pod;
mod probes;
mod run;
mod stats;
mod trace;

use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use metrics::{Noise, Report};
use noise::Clock;
use run::{Outcome, Params, Scale, WORKLOADS};
use trace::Tracer;

/// Run one workload in this process.
fn measure(workload: &str, p: &Params, tr: &mut Tracer, clock: &mut Clock) -> Outcome {
    match workload {
        "fabric_steady" => fabric::run_steady(p, tr, clock),
        "fabric_ctrl" => fabric::run_ctrl(p, tr, clock),
        _ => pod::run(workload, p, tr, clock),
    }
}

/// Measure one workload and report it with what the machine did
/// meanwhile.
fn run_workload(workload: &str, p: &Params, tr: &mut Tracer) -> Report {
    let mut clock = Clock::new();
    let (cpu0, wait0) = noise::schedstat();
    let wall = Instant::now();
    let out = measure(workload, p, tr, &mut clock);
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let (cpu1, wait1) = noise::schedstat();
    let noise = Noise::new(
        &clock,
        (cpu1 - cpu0) as f64 / wall_ns,
        (wait1 - wait0) as f64 / 1e6,
    );
    Report::new(workload, p.seed, p.trace, &out, &noise)
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&a.workload, a.all) {
        (Some(w), false) if WORKLOADS.contains(&w.as_str()) => Ok(a),
        (Some(w), false) => Err(format!(
            "unknown workload {w}; one of {}",
            WORKLOADS.join(", ")
        )),
        (None, true) => Ok(a),
        _ => Err("give either --workload <name> or --all".into()),
    }
}

/// `--workload`: measure in this process; print the detail document,
/// then, as the last line, the contract's result object.
fn single(a: &Args, workload: &str) -> Result<ExitCode, String> {
    let p = Params {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: if a.quick {
            Scale::quick()
        } else {
            Scale::full()
        },
    };
    let mut tr = Tracer::new();
    let report = run_workload(workload, &p, &mut tr);
    if let Some(path) = &a.trace_out {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        );
        tr.write_kept(&mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if report.unstable {
        eprintln!("hbench: {workload}: the machine's speed drifted by more than 10 % from start to end: unstable");
    }
    println!("{}", report.detail());
    println!("{}", report.result_line());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hbench: {workload}: incorrect: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    })
}

/// `--all`: every workload, untraced then traced, each in a child
/// process of its own so that peak memory is per workload. Collects
/// the children's detail documents into one.
fn all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()]);
            if a.quick {
                cmd.arg("--quick");
            }
            if let (Some(prefix), "1") = (&a.trace_out, trace) {
                cmd.args(["--trace-out", &format!("{prefix}.{workload}.json")]);
            }
            eprintln!("hbench: {workload} (trace {trace})");
            // `output` waits for the child to end.
            let child = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            ok &= child.status.success();
            let stdout = String::from_utf8_lossy(&child.stdout);
            let detail = stdout
                .lines()
                .rev()
                .nth(1)
                .ok_or_else(|| format!("{workload}: no result from the child process"))?;
            runs.push(Json::parse(detail).map_err(|e| format!("{workload}: {e}"))?);
        }
    }
    let doc = Json::object(vec![
        ("benchmark", Json::Str("hbench".into())),
        ("seed", Json::Str(a.seed.to_string())),
        ("seconds", Json::Num(a.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    let text = compare::pretty(&doc);
    match &a.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match a.workload.clone() {
            Some(w) => single(&a, &w),
            None => all(&a),
        })
    };
    result.unwrap_or_else(|e| {
        eprintln!("hbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
