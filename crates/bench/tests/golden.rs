//! Every bounded `exp_*` run prints exactly the stdout recorded under
//! `tests/golden/`.
//!
//! The simulator is seeded and its stdout deterministic, so the numbers
//! EXPERIMENTS.md reports are pinned byte for byte: one file per
//! invocation, named after its words (`exp_l3 --quick` is
//! `exp_l3_quick.txt`). `--threads N` is left out of the name, since the
//! thread count must not change stdout; the 4 × 64 fabric runs at one
//! and at two threads against one file. A run must also exit 0, so the
//! assertions inside the binaries still hold.
//!
//! The test builds the release binaries first (a no-op after
//! `cargo build --release`). On a mismatch it writes the actual stdout
//! under `CARGO_TARGET_TMPDIR` and prints the first differing lines and
//! the `cp` that re-records the file. A change that is meant to move a
//! number re-records its files and says why.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `target/release` of this build, after building the `exp_*` binaries
/// there once per test process.
fn release_dir() -> &'static Path {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(|| {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(workspace_root())
            .args(["build", "--release", "--offline", "-p", "bench", "--bins"])
            .status()
            .expect("failed to spawn cargo");
        assert!(status.success(), "building the exp_* binaries failed");
        // CARGO_TARGET_TMPDIR is `<target dir>/tmp`.
        Path::new(env!("CARGO_TARGET_TMPDIR"))
            .parent()
            .expect("the tmp dir lives in the target dir")
            .join("release")
    })
}

/// The golden file's stem for `cmd`: its words without `--threads N`,
/// dashes dropped from flags and the rest joined by `_`.
fn golden_name(cmd: &str) -> String {
    let mut words = Vec::new();
    let mut args = cmd.split_whitespace();
    while let Some(w) = args.next() {
        if w == "--threads" {
            args.next();
        } else {
            words.push(w.trim_start_matches("--").replace('-', "_"));
        }
    }
    words.join("_")
}

/// Up to `CONTEXT` lines of both texts from the first line they differ in.
fn first_difference(expected: &str, actual: &str) -> String {
    const CONTEXT: usize = 6;
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let at = e
        .iter()
        .zip(&a)
        .position(|(x, y)| x != y)
        .unwrap_or(e.len().min(a.len()));
    let mut out = format!("first difference at line {}:\n", at + 1);
    for (sign, lines) in [('-', &e), ('+', &a)] {
        for line in lines.iter().skip(at).take(CONTEXT) {
            out.push_str(&format!("{sign} {line}\n"));
        }
    }
    out
}

/// Run `cmd` (a binary name and its arguments) and compare its stdout
/// with its golden file.
fn golden(cmd: &str) {
    let mut words = cmd.split_whitespace();
    let bin = words.next().expect("a command names its binary");
    let output = Command::new(release_dir().join(bin))
        .current_dir(workspace_root())
        .args(words)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `{cmd}`: {e}"));
    assert!(
        output.status.success(),
        "`{cmd}` exited with {}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr),
    );
    let name = format!("{}.txt", golden_name(cmd));
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(&name);
    let expected = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("`{cmd}`: cannot read {}: {e}", file.display()));
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if actual != expected {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let written = dir.join(&name);
        std::fs::write(&written, &actual).unwrap();
        panic!(
            "`{cmd}` printed other than {}\n{}\nre-record it with\n  cp {} {}",
            file.display(),
            first_difference(&expected, &actual),
            written.display(),
            file.display(),
        );
    }
}

#[test]
fn exp_latency() {
    golden("exp_latency");
}

#[test]
fn exp_cost() {
    golden("exp_cost");
}

#[test]
fn exp_trunk() {
    golden("exp_trunk");
}

#[test]
fn exp_ablation() {
    golden("exp_ablation");
}

#[test]
fn exp_usecases() {
    golden("exp_usecases");
}

#[test]
fn exp_migration() {
    golden("exp_migration");
}

#[test]
fn exp_scaling_fabric_2_16() {
    golden("exp_scaling fabric 2 16");
}

#[test]
fn exp_scaling_fabric_4_64_rounds_3_threads_1() {
    golden("exp_scaling fabric 4 64 --rounds 3 --threads 1");
}

#[test]
fn exp_scaling_fabric_4_64_rounds_3_threads_2() {
    golden("exp_scaling fabric 4 64 --rounds 3 --threads 2");
}

#[test]
fn exp_scaling_fabric_4_16_arp_proxy() {
    golden("exp_scaling fabric 4 16 --arp-proxy");
}

#[test]
fn exp_resilience_quick() {
    golden("exp_resilience --quick");
}

#[test]
fn exp_l3_quick() {
    golden("exp_l3 --quick");
}

#[test]
fn exp_flowsim_quick() {
    golden("exp_flowsim --quick");
}

#[test]
fn exp_throughput_quick_datapath_cores_2() {
    golden("exp_throughput --quick --datapath-cores 2");
}
