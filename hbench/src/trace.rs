//! In-memory spans around the benchmark's calls into each layer.
//!
//! The spans live in the benchmark's own files: nothing inside the
//! crates under test is instrumented. A span records which layer was
//! called, when, and which span it ran inside; the spans of one group
//! of operations share a request id. They stay in memory and are folded
//! into per-layer self times; the first spans recorded are kept and can
//! be written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// The layers a span can belong to. `Root` is the benchmark's own span
/// around one timed group; its self time is the harness's glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Root,
    BridgeIn,
    Ss1Down,
    Ss2,
    Ss1Up,
    BridgeOut,
    FlowModApply,
    RunFor,
    Build,
    Attach,
    Wave,
    Migrate,
    Failover,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 13;

impl Layer {
    /// Span name as written to the trace file: crate, then call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Root => "harness.group",
            Layer::BridgeIn => "legacy_switch.Bridge::forward.in",
            Layer::Ss1Down => "softswitch.ss1.process_batch_into.down",
            Layer::Ss2 => "softswitch.ss2.process_batch_into",
            Layer::Ss1Up => "softswitch.ss1.process_batch_into.up",
            Layer::BridgeOut => "legacy_switch.Bridge::forward.out",
            Layer::FlowModApply => "softswitch.ss2.apply_flow_mod",
            Layer::RunFor => "netsim.Network::run_for",
            Layer::Build => "core.FabricSpec::build",
            Layer::Attach => "core.Fabric::attach",
            Layer::Wave => "core.Fabric::run_migration_wave",
            Layer::Migrate => "core.Fabric::migrate_host",
            Layer::Failover => "core.failover",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;
/// Spans held before they are folded away, and spans kept for the
/// trace file. Bounds the traced run's memory on the scalar workload,
/// which opens six spans per frame.
const FOLD_AT: usize = 1 << 18;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span in the same buffer.
    pub parent: u32,
    /// Group or window number the call belongs to.
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals of folded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Self time: duration minus the part child spans cover.
    pub self_ns: [u64; N_LAYERS],
    /// Full duration.
    pub total_ns: [u64; N_LAYERS],
    /// Spans folded.
    pub calls: [u64; N_LAYERS],
}

impl Totals {
    pub fn self_of(&self, l: Layer) -> u64 {
        self.self_ns[l as usize]
    }

    pub fn total_of(&self, l: Layer) -> u64 {
        self.total_ns[l as usize]
    }

    pub fn calls_of(&self, l: Layer) -> u64 {
        self.calls[l as usize]
    }
}

/// Span recorder. Switched off it costs one predictable branch per
/// call, so the untraced run measures the same code.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
    totals: Totals,
    kept: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            totals: Totals::default(),
            kept: Vec::new(),
        }
    }

    /// Switch recording on or off (between groups only).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    /// Request id stamped on the spans opened from now on.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests inside the span open right now.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent,
            req: self.req,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let i = self.open.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = end_ns;
        if self.open.is_empty() && self.spans.len() >= FOLD_AT {
            self.fold();
        }
    }

    /// Fold the buffered spans into the totals and drop them, keeping
    /// the first [`FOLD_AT`] of the run for the trace file.
    fn fold(&mut self) {
        assert!(self.open.is_empty(), "fold inside a span");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = s.layer as usize;
            self.totals.total_ns[l] += dur;
            self.totals.self_ns[l] += dur.saturating_sub(*children);
            self.totals.calls[l] += 1;
        }
        // Parents precede their children, so a kept prefix is closed
        // under the parent relation; indices shift by what is kept.
        let base = self.kept.len() as u32;
        let room = FOLD_AT.saturating_sub(self.kept.len());
        for s in self.spans.iter().take(room) {
            let mut s = *s;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            self.kept.push(s);
        }
        self.spans.clear();
    }

    /// Totals of every span closed so far, resetting them.
    pub fn take_totals(&mut self) -> Totals {
        self.fold();
        std::mem::take(&mut self.totals)
    }

    /// Write the kept spans as one JSON document.
    pub fn write_kept(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":["
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == self.kept.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\",{},{},{},{}]{comma}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.req
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let mut x = 1u64;
        for i in 0..2_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
    }

    #[test]
    fn self_times_sum_to_the_root_spans() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        for req in 0..50 {
            tr.set_request(req);
            tr.enter(Layer::Root);
            spin();
            tr.enter(Layer::Ss2);
            spin();
            tr.exit();
            tr.enter(Layer::BridgeOut);
            spin();
            tr.exit();
            spin();
            tr.exit();
        }
        let t = tr.take_totals();
        assert_eq!(t.calls_of(Layer::Root), 50);
        assert_eq!(t.calls_of(Layer::Ss2), 50);
        let self_sum: u64 = t.self_ns.iter().sum();
        assert_eq!(self_sum, t.total_of(Layer::Root));
        assert!(t.self_of(Layer::Root) > 0);
        assert!(t.self_of(Layer::Root) < t.total_of(Layer::Root));
        // Layer spans have no children: self time is their duration.
        assert_eq!(t.self_of(Layer::Ss2), t.total_of(Layer::Ss2));
        let mut doc = Vec::new();
        tr.write_kept(&mut doc).unwrap();
        let doc = String::from_utf8(doc).unwrap();
        assert_eq!(doc.matches("harness.group").count(), 50);
        assert!(doc.contains("\"softswitch.ss2.process_batch_into\""));
    }

    #[test]
    fn switched_off_it_records_nothing() {
        let mut tr = Tracer::new();
        tr.enter(Layer::Root);
        tr.exit();
        let t = tr.take_totals();
        assert_eq!(t.calls.iter().sum::<u64>(), 0);
    }
}
