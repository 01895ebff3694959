//! Machine-readable benchmark trajectory: `BENCH_netsim.json`.
//!
//! The benches record `(scenario, numeric fields)` rows through
//! [`crate::timing`] so that performance can be diffed without parsing
//! stdout tables; the `exp_*` binaries write nothing but stdout. The
//! file is plain JSON — one object whose keys are scenario ids and
//! whose values are flat objects of `f64` fields:
//!
//! ```json
//! {
//!   "flowhash/flow_hash/latency": {"ns_iqr": 0.2, "ns_per_iter": 15.6, "rounds": 50.0},
//!   "netloop/fabric_4x16/single_queue": {"events": 28328.0, "ns_iqr": 26.1, "ns_per_event": 327.9, "rounds": 30.0}
//! }
//! ```
//!
//! Re-recording a scenario replaces its row and keeps everything else,
//! so the file accumulates a trajectory across PRs. The reader is
//! deliberately restricted to the exact shape the writer produces (one
//! scenario per line); foreign JSON is not a goal — this avoids growing
//! a JSON parser in a benches-only crate.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Default file name, written at the repository root.
pub const BENCH_FILE: &str = "BENCH_netsim.json";

/// Absolute path of [`BENCH_FILE`] at the repository root — stable no
/// matter the working directory the caller runs under (`cargo run`
/// uses the workspace root, `cargo bench` the package root).
pub fn bench_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BENCH_FILE)
}

/// An ordered set of scenario rows, each a flat map of numeric fields.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    entries: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Load `path`, tolerating a missing file (starts empty) and
    /// skipping lines the line-oriented reader does not understand.
    pub fn load(path: impl AsRef<Path>) -> Report {
        match std::fs::read_to_string(path) {
            Ok(text) => Report::parse(&text),
            Err(_) => Report::new(),
        }
    }

    /// Parse the writer's own line-oriented JSON rendering.
    pub fn parse(text: &str) -> Report {
        let mut r = Report::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            // A scenario row looks like:  "name": {"f": 1.0, "g": 2.0}
            let Some((name_part, fields_part)) = line.split_once(": {") else {
                continue;
            };
            let name = name_part.trim().trim_matches('"');
            if name.is_empty() || name_part.trim() == "{" {
                continue;
            }
            let fields_part = fields_part.trim_end_matches('}');
            let mut fields = BTreeMap::new();
            for kv in fields_part.split(", ") {
                let Some((k, v)) = kv.split_once(": ") else {
                    continue;
                };
                let k = k.trim().trim_matches('"');
                if let Ok(v) = v.trim().parse::<f64>() {
                    fields.insert(k.to_string(), v);
                }
            }
            if !fields.is_empty() {
                r.entries.insert(name.to_string(), fields);
            }
        }
        r
    }

    /// Insert or replace one scenario row.
    pub fn record(&mut self, scenario: &str, fields: &[(&str, f64)]) {
        let row = fields
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect::<BTreeMap<_, _>>();
        self.entries.insert(scenario.to_string(), row);
    }

    /// Set one field of a scenario row, creating the row if need be.
    pub fn set(&mut self, scenario: &str, field: &str, value: f64) {
        self.entries
            .entry(scenario.to_string())
            .or_default()
            .insert(field.to_string(), value);
    }

    /// The recorded scenario names, in order.
    pub fn scenarios(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// One field of one scenario, if recorded.
    pub fn get(&self, scenario: &str, field: &str) -> Option<f64> {
        self.entries.get(scenario)?.get(field).copied()
    }

    /// Number of scenario rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no scenario has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as JSON (one scenario per line, keys sorted).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|(name, fields)| {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", fmt_f64(*v)))
                    .collect();
                format!("  \"{name}\": {{{}}}", inner.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n}\n");
        out
    }

    /// Write to `path` (whole-file replace).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// `f64` rendering that always round-trips through [`Report::parse`]:
/// finite, with a decimal point or exponent so it stays a JSON number.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut r = Report::new();
        r.record(
            "scaling/fabric_2x16/sharded_t2",
            &[("events", 81234.0), ("wall_s", 0.125), ("threads", 2.0)],
        );
        r.record("netloop/x", &[("events_per_sec", 1.25e6)]);
        let text = r.render();
        let back = Report::parse(&text);
        assert_eq!(back, r);
        assert_eq!(back.get("netloop/x", "events_per_sec"), Some(1.25e6));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn re_recording_replaces_only_that_row() {
        let mut r = Report::new();
        r.record("a", &[("x", 1.0)]);
        r.record("b", &[("x", 2.0)]);
        r.record("a", &[("x", 3.0)]);
        assert_eq!(r.get("a", "x"), Some(3.0));
        assert_eq!(r.get("b", "x"), Some(2.0));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parse_tolerates_garbage() {
        let r = Report::parse("not json at all\n{\"weird\"}\n");
        assert!(r.is_empty());
    }

    #[test]
    fn load_missing_file_is_empty() {
        let r = Report::load("/nonexistent/definitely/missing.json");
        assert!(r.is_empty());
    }
}
