//! Every row of `BENCH_netsim.json` carries its spread.
//!
//! Every row is written by `bench::timing`, which records the median
//! over rounds beside `ns_iqr` (their interquartile range) and
//! `rounds`. This test fails on a row without at least three rounds or
//! without a finite, non-negative `ns_iqr`: a row written some other
//! way, or a ledger not re-recorded since.

use bench::report::{self, Report};

#[test]
fn every_bench_row_records_its_spread() {
    let ledger = Report::load(report::bench_file());
    assert!(ledger.scenarios().next().is_some(), "no rows in the ledger");
    let bad: Vec<String> = ledger
        .scenarios()
        .filter_map(|name| {
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
