//! The one timing loop behind every bench row of `BENCH_netsim.json`.
//!
//! A row is measured in **rounds**: after a warm-up of [`WARM_UP`], the
//! loop runs rounds of at least [`ROUND`] of timed work each until
//! [`BUDGET`] has been timed and at least [`MIN_ROUNDS`] rounds have
//! run, and takes one ns-per-operation figure from each round. A row
//! records the median of those figures in its time field
//! (`ns_per_iter`, or `ns_per_event` for the simulator's rows), their
//! interquartile range as `ns_iqr` and their number as `rounds`, and
//! prints one line:
//!
//! ```text
//! flowhash/flow_hash/latency                     15.6 ns/iter  IQR 0.2  (50 rounds)
//! ```
//!
//! Two entry points feed the same loop:
//!
//! - [`Ledger::calls`] times a closure that does a fixed number of
//!   operations per call, in batches sized so that one timed batch takes
//!   about a millisecond;
//! - [`Ledger::rounds`] takes a step that times its own section and
//!   returns that time with the operations in it, so it can put back
//!   untimed whatever the section used up (a flow-mod's table, a popped
//!   tag, a finished simulation).
//!
//! [`Ledger`] also owns the ledger file: it loads it when a bench opens
//! it and writes it back on [`Ledger::save`], replacing only the rows
//! the bench re-recorded.

use std::time::{Duration, Instant};

use crate::report::{self, Report};

/// Untimed warm-up before the first round.
pub const WARM_UP: Duration = Duration::from_millis(100);
/// Timed work a row accumulates before it stops, given enough rounds.
pub const BUDGET: Duration = Duration::from_millis(500);
/// Timed work in one round, at least.
pub const ROUND: Duration = Duration::from_millis(10);
/// Rounds a row runs, at least, however long a round takes.
pub const MIN_ROUNDS: usize = 10;
/// A [`Ledger::calls`] batch is doubled until it takes this long.
const BATCH: Duration = Duration::from_millis(1);

/// What one row measured: the median and interquartile range of its
/// rounds' ns per operation, and how many rounds there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median ns per operation.
    pub median: f64,
    /// Third quartile minus first quartile of ns per operation.
    pub iqr: f64,
    /// Rounds measured.
    pub rounds: usize,
}

impl Timing {
    /// Summarise per-round ns-per-operation figures (sorted in place).
    fn of(per_op: &mut [f64]) -> Timing {
        per_op.sort_by(f64::total_cmp);
        Timing {
            median: quantile(per_op, 0.5),
            iqr: quantile(per_op, 0.75) - quantile(per_op, 0.25),
            rounds: per_op.len(),
        }
    }
}

/// The `q` quantile of sorted `xs`, interpolated between the two
/// nearest ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The loop: `step` runs some operations and returns the time it
/// measured and how many operations that was.
fn measure(mut step: impl FnMut() -> (Duration, u64)) -> Timing {
    let mut warm = Duration::ZERO;
    while warm < WARM_UP {
        warm += step().0;
    }
    let (mut timed, mut per_op) = (Duration::ZERO, Vec::new());
    while timed < BUDGET || per_op.len() < MIN_ROUNDS {
        let (mut t, mut ops) = (Duration::ZERO, 0u64);
        while t < ROUND {
            let (dt, n) = step();
            t += dt;
            ops += n;
        }
        timed += t;
        per_op.push(t.as_nanos() as f64 / ops as f64);
    }
    Timing::of(&mut per_op)
}

/// The ledger as one bench sees it: rows it times go in under
/// `{prefix}/`, with their median in `field`.
pub struct Ledger {
    report: Report,
    prefix: &'static str,
    field: &'static str,
}

impl Ledger {
    /// Load `BENCH_netsim.json` (a missing file reads as empty) for a
    /// bench whose rows are `{prefix}/...` and whose median field is
    /// `field` (`"ns_per_iter"` or `"ns_per_event"`).
    pub fn open(prefix: &'static str, field: &'static str) -> Ledger {
        Ledger {
            report: Report::load(report::bench_file()),
            prefix,
            field,
        }
    }

    /// Time `f`, which does `ops` operations per call, and record it as
    /// row `name`.
    pub fn calls(&mut self, name: &str, ops: u64, mut f: impl FnMut()) -> Row<'_> {
        let mut batch = |calls: u64| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed()
        };
        let mut calls = 1;
        while batch(calls) < BATCH {
            calls *= 2;
        }
        let timing = measure(|| (batch(calls), calls * ops));
        self.record(name, timing)
    }

    /// Time `step`, which returns the time of the section it timed and
    /// the operations in that section, and record it as row `name`.
    pub fn rounds(&mut self, name: &str, step: impl FnMut() -> (Duration, u64)) -> Row<'_> {
        let timing = measure(step);
        self.record(name, timing)
    }

    fn record(&mut self, name: &str, timing: Timing) -> Row<'_> {
        let name = format!("{}/{name}", self.prefix);
        let unit = self.field.trim_start_matches("ns_per_");
        println!(
            "{name:<50} {:>12.1} ns/{unit}  IQR {:.1}  ({} rounds)",
            timing.median, timing.iqr, timing.rounds
        );
        // Tenths of a ns: finer digits are noise and make the file unreadable.
        let tenths = |ns: f64| (ns * 10.0).round() / 10.0;
        let fields = [
            (self.field, tenths(timing.median)),
            ("ns_iqr", tenths(timing.iqr)),
            ("rounds", timing.rounds as f64),
        ];
        self.report.record(&name, &fields);
        Row {
            report: &mut self.report,
            name,
            timing,
        }
    }

    /// Write the ledger back; a failure is reported, not fatal.
    pub fn save(self) {
        if let Err(e) = self.report.save(report::bench_file()) {
            eprintln!("(could not write {}: {e})", report::BENCH_FILE);
        }
    }
}

/// A row just recorded, to which a bench may add fields of its own.
pub struct Row<'a> {
    report: &'a mut Report,
    name: String,
    /// What the row measured.
    pub timing: Timing,
}

impl Row<'_> {
    /// Add `fields` to the row.
    pub fn with(self, fields: &[(&str, f64)]) {
        for &(field, value) in fields {
            self.report.set(&self.name, field, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_iqr_of_a_known_sample() {
        // Sorted: 1 2 3 4 5 6 7 8 9; quartiles at ranks 2 and 6.
        let t = Timing::of(&mut [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((t.median, t.iqr, t.rounds), (5.0, 4.0, 9));
        // An even count interpolates: ranks 1.5 and 0.75 / 2.25 of 0..4.
        let t = Timing::of(&mut [10.0, 40.0, 20.0, 30.0]);
        assert_eq!((t.median, t.iqr), (25.0, 15.0));
        let t = Timing::of(&mut [3.0]);
        assert_eq!((t.median, t.iqr, t.rounds), (3.0, 0.0, 1));
    }

    #[test]
    fn a_step_longer_than_the_budget_still_runs_the_minimum_rounds() {
        let mut steps = 0;
        let t = measure(|| {
            steps += 1;
            (BUDGET * 2, 4)
        });
        assert_eq!(t.rounds, MIN_ROUNDS);
        // One warm-up step, then one step per round.
        assert_eq!(steps, 1 + MIN_ROUNDS);
        assert_eq!(t.median, (BUDGET * 2).as_nanos() as f64 / 4.0);
    }

    #[test]
    fn short_steps_fill_rounds_until_the_budget() {
        let t = measure(|| (Duration::from_millis(1), 1000));
        assert_eq!(t.rounds, (BUDGET.as_millis() / ROUND.as_millis()) as usize);
        assert_eq!((t.median, t.iqr), (1000.0, 0.0));
    }
}
