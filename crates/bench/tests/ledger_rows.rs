//! Every bench row of `BENCH_netsim.json` carries its spread.
//!
//! A row under a bench prefix (`codec/`, `datapath/`, `flowhash/`,
//! `netloop/`, `parse/`, `tables/`) is written by `bench::timing`, which
//! records the median over rounds beside `ns_iqr` (their interquartile
//! range) and `rounds`. This test fails on a bench row without at least
//! three rounds or without a finite, non-negative `ns_iqr`: a row
//! written some other way, or a ledger not re-recorded since.
//!
//! The `exp_scaling` (`scaling/`) and `exp_flowsim` (`flowsim/`) rows
//! are single runs of a deterministic simulation, timed once; they carry
//! no spread and are not checked here.

use bench::report::{self, Report};

const BENCH_PREFIXES: [&str; 6] = [
    "codec/",
    "datapath/",
    "flowhash/",
    "netloop/",
    "parse/",
    "tables/",
];

#[test]
fn every_bench_row_records_its_spread() {
    let ledger = Report::load(report::bench_file());
    let bench_rows: Vec<&str> = ledger
        .scenarios()
        .filter(|name| BENCH_PREFIXES.iter().any(|p| name.starts_with(p)))
        .collect();
    assert!(!bench_rows.is_empty(), "no bench rows in the ledger");
    let bad: Vec<String> = bench_rows
        .iter()
        .filter_map(|&name| {
            let rounds = ledger.get(name, "rounds").unwrap_or(0.0);
            let iqr = ledger.get(name, "ns_iqr").unwrap_or(f64::NAN);
            let ok = rounds >= 3.0 && iqr.is_finite() && iqr >= 0.0;
            (!ok).then(|| format!("{name}: rounds {rounds}, ns_iqr {iqr}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "bench rows without a spread:\n{}",
        bad.join("\n")
    );
}
