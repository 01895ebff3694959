//! Run every experiment binary in sequence — regenerates all of
//! EXPERIMENTS.md's measured numbers in one go.
//!
//! `cargo run --release -p bench --bin run_all`

use std::process::Command;

fn main() {
    let exps = [
        "exp_throughput",
        "exp_latency",
        "exp_scaling",
        "exp_resilience",
        "exp_usecases",
        "exp_migration",
        "exp_l3",
        "exp_flowsim",
        "exp_cost",
        "exp_ablation",
        "exp_trunk",
    ];
    // Binaries live next to run_all in the same target directory.
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir");
    for exp in exps {
        println!("\n########## {exp} ##########");
        let status = Command::new(dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            eprintln!("{exp} exited with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
