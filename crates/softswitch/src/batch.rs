//! Batched frame processing: the containers behind
//! [`Datapath::process_batch_into`].
//!
//! A [`FrameBatch`] collects `(ingress port, frame)` pairs; the datapath
//! drains it in one call. A batch changes what the call costs, never
//! what a frame gets: each frame resolves microflow → megaflow → slow
//! path exactly as it would as a batch of its own — same outputs, same
//! counters, same [`ProcessingTrace`]. What a batch earns is one call's
//! fixed cost (detaching caches and scratch, the caller's queue and TX
//! walk) spread over N frames, and one parse and one hash per packet
//! train: a frame bit-identical to its predecessor copies both (see
//! `benches/pipeline.rs`, the `datapath/pipeline/cached_*` rows).
//!
//! [`BatchResult`] is a *flat arena*: all output frames and packet-ins
//! of a batch live in two contiguous vectors, with each frame owning a
//! range into them. A result object is reusable across batches
//! ([`BatchResult::clear`] keeps the allocations), so a steady-state
//! service loop emits thousands of batches without allocating per
//! frame; frame `i`'s share is read back with
//! [`BatchResult::outputs_of`], [`BatchResult::packet_ins_of`] and
//! [`BatchResult::frame`].
//!
//! [`Datapath::process_batch_into`]: crate::Datapath::process_batch_into

use bytes::Bytes;
use std::collections::BTreeMap;

use crate::trace::ProcessingTrace;
use openflow::message::PacketInReason;

/// A batch of `(ingress port, frame)` pairs awaiting processing.
///
/// Reusable: [`Datapath::process_batch_into`] drains the batch, leaving
/// it empty (capacity retained) for the next fill.
///
/// [`Datapath::process_batch_into`]: crate::Datapath::process_batch_into
#[derive(Debug, Default)]
pub struct FrameBatch {
    frames: Vec<(u32, Bytes)>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// An empty batch with room for `n` frames.
    pub fn with_capacity(n: usize) -> FrameBatch {
        FrameBatch {
            frames: Vec::with_capacity(n),
        }
    }

    /// Append a frame received on `in_port`.
    #[inline]
    pub fn push(&mut self, in_port: u32, frame: Bytes) {
        self.frames.push((in_port, frame));
    }

    /// Number of frames currently batched.
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if no frames are batched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drop all batched frames, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Iterate over the batched `(port, frame)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &(u32, Bytes)> {
        self.frames.iter()
    }

    /// Drain the frames out, keeping the allocation for the next fill
    /// (used by the datapath).
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (u32, Bytes)> {
        self.frames.drain(..)
    }
}

impl FromIterator<(u32, Bytes)> for FrameBatch {
    fn from_iter<I: IntoIterator<Item = (u32, Bytes)>>(iter: I) -> FrameBatch {
        FrameBatch {
            frames: iter.into_iter().collect(),
        }
    }
}

/// Per-frame summary inside a [`BatchResult`]: the drop decision, the
/// cost-accounting trace, and (privately) the frame's ranges into the
/// shared output / packet-in arenas.
#[derive(Debug, Clone, Copy)]
pub struct FrameResult {
    /// True if the pipeline dropped the packet (miss, meter, TTL, NAT).
    pub dropped: bool,
    /// Cost-accounting trace.
    pub trace: Option<ProcessingTrace>,
    out_start: u32,
    out_end: u32,
    pi_start: u32,
    pi_end: u32,
}

/// Arena positions at the start of a frame's processing; closed into a
/// [`FrameResult`] by [`BatchResult::finish_frame`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameMark {
    out: u32,
    pi: u32,
}

/// Everything one [`Datapath::process_batch_into`] call produced, as a
/// flat arena.
///
/// Output frames and packet-ins are stored contiguously in emission
/// order; each processed frame records its sub-range, in input order
/// (so callers can pair results with what they submitted — the
/// simulator node does, for cost accounting). The `Bytes` handles are
/// reference-counted: on pure-forward and flood paths they share
/// storage with the ingress frame.
///
/// Reusable: [`BatchResult::clear`] empties the arenas but keeps their
/// allocations, so a service loop can recycle one result object across
/// service periods.
///
/// [`Datapath::process_batch_into`]: crate::Datapath::process_batch_into
#[derive(Debug, Default)]
pub struct BatchResult {
    outputs: Vec<(u32, Bytes)>,
    packet_ins: Vec<(PacketInReason, u32, Bytes)>,
    frames: Vec<FrameResult>,
}

impl BatchResult {
    /// Number of frames processed into this result.
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if no frames were processed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The per-frame summaries, in input order.
    #[inline]
    pub fn frames(&self) -> &[FrameResult] {
        &self.frames
    }

    /// The `i`-th frame's summary (input order).
    #[inline]
    pub fn frame(&self, i: usize) -> &FrameResult {
        &self.frames[i]
    }

    /// The `(port, frame)` outputs the `i`-th input frame produced.
    #[inline]
    pub fn outputs_of(&self, i: usize) -> &[(u32, Bytes)] {
        let f = &self.frames[i];
        &self.outputs[f.out_start as usize..f.out_end as usize]
    }

    /// Move the `i`-th input frame's outputs out of the arena, leaving
    /// empty frames behind: the caller becomes the holder of each buffer
    /// without a reference-count round trip, so a sole holder stays one.
    pub(crate) fn take_outputs_of(&mut self, i: usize) -> impl Iterator<Item = (u32, Bytes)> + '_ {
        let f = &self.frames[i];
        self.outputs[f.out_start as usize..f.out_end as usize]
            .iter_mut()
            .map(|(port, frame)| (*port, std::mem::take(frame)))
    }

    /// The `(reason, in_port, frame)` packet-ins the `i`-th input frame
    /// produced.
    #[inline]
    pub fn packet_ins_of(&self, i: usize) -> &[(PacketInReason, u32, Bytes)] {
        let f = &self.frames[i];
        &self.packet_ins[f.pi_start as usize..f.pi_end as usize]
    }

    /// All outputs of the batch, in emission order.
    #[inline]
    pub fn all_outputs(&self) -> &[(u32, Bytes)] {
        &self.outputs
    }

    /// All packet-ins of the batch, in emission order.
    #[inline]
    pub fn all_packet_ins(&self) -> &[(PacketInReason, u32, Bytes)] {
        &self.packet_ins
    }

    /// Output frames grouped per egress port, in emission order. The
    /// `Bytes` handles are reference-counted, so grouping does not copy
    /// payloads.
    pub fn outputs_by_port(&self) -> BTreeMap<u32, Vec<Bytes>> {
        let mut by_port: BTreeMap<u32, Vec<Bytes>> = BTreeMap::new();
        for (port, frame) in &self.outputs {
            by_port.entry(*port).or_default().push(frame.clone());
        }
        by_port
    }

    /// Total output frames emitted across the batch.
    #[inline]
    pub fn total_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Empty the arenas, keeping their allocations for the next batch.
    #[inline]
    pub fn clear(&mut self) {
        self.outputs.clear();
        self.packet_ins.clear();
        self.frames.clear();
    }

    /// Arena positions right now — the start marker of the next frame.
    pub(crate) fn mark(&self) -> FrameMark {
        FrameMark {
            out: self.outputs.len() as u32,
            pi: self.packet_ins.len() as u32,
        }
    }

    /// Append one output for the frame currently being processed.
    pub(crate) fn push_output(&mut self, port: u32, frame: Bytes) {
        self.outputs.push((port, frame));
    }

    /// Append one packet-in for the frame currently being processed.
    pub(crate) fn push_packet_in(&mut self, reason: PacketInReason, in_port: u32, frame: Bytes) {
        self.packet_ins.push((reason, in_port, frame));
    }

    /// The outputs emitted since `mark` (the current frame's, while it
    /// is still open).
    pub(crate) fn outputs_from(&self, mark: FrameMark) -> &[(u32, Bytes)] {
        &self.outputs[mark.out as usize..]
    }

    /// True if no packet-in was emitted since `mark`.
    pub(crate) fn no_packet_ins_from(&self, mark: FrameMark) -> bool {
        self.packet_ins.len() == mark.pi as usize
    }

    /// Close the current frame: record its arena ranges, drop decision
    /// and trace.
    pub(crate) fn finish_frame(
        &mut self,
        mark: FrameMark,
        dropped: bool,
        trace: Option<ProcessingTrace>,
    ) {
        self.frames.push(FrameResult {
            dropped,
            trace,
            out_start: mark.out,
            out_end: self.outputs.len() as u32,
            pi_start: mark.pi,
            pi_end: self.packet_ins.len() as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::CAction;
    use crate::cache::CachedPath;

    #[test]
    fn frame_batch_fills_and_clears() {
        let mut b = FrameBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(1, Bytes::from_static(b"a"));
        b.push(2, Bytes::from_static(b"bb"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().count(), 2);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn frame_batch_drain_keeps_capacity_for_reuse() {
        let mut b = FrameBatch::with_capacity(8);
        for i in 0..8 {
            b.push(i, Bytes::from_static(b"x"));
        }
        assert_eq!(b.drain().count(), 8);
        assert!(b.is_empty());
        assert!(
            b.frames.capacity() >= 8,
            "drained batch must keep its allocation"
        );
    }

    #[test]
    fn plans_compile_only_for_forward_and_single_tag_paths() {
        use crate::cache::{Plan, TagOp};
        use netpkt::flowkey::OFPVID_PRESENT;
        use openflow::OxmField;

        let plan = |actions: Vec<CAction>| CachedPath::new(actions, vec![(0, 0)], 1).plan();
        let forward = |tag| Some(Plan { tag, outputs: 2 });
        let outputs = [CAction::Output(2), CAction::Output(3)];
        assert_eq!(plan(outputs.to_vec()), forward(None));
        // An ALL group of plain outputs scopes nothing: still a plan.
        let grouped = vec![
            CAction::BucketBegin,
            CAction::Output(2),
            CAction::BucketEnd,
            CAction::BucketBegin,
            CAction::Output(3),
            CAction::BucketEnd,
        ];
        assert_eq!(plan(grouped.clone()), forward(None));

        // The translator's two shapes, and a bare push.
        let set_vid = CAction::SetField(OxmField::VlanVid(OFPVID_PRESENT | 101, None));
        for (lead, tag) in [
            (vec![CAction::PopVlan], TagOp::Pop),
            (
                vec![CAction::PushVlan(0x8100), set_vid.clone()],
                TagOp::Push {
                    tpid: 0x8100,
                    vid: Some(101),
                },
            ),
            (
                vec![CAction::PushVlan(0x88a8)],
                TagOp::Push {
                    tpid: 0x88a8,
                    vid: None,
                },
            ),
        ] {
            let program = |tail: &[CAction]| [&lead[..], tail].concat();
            assert_eq!(plan(program(&outputs)), forward(Some(tag)));
            assert_eq!(plan(program(&grouped)), forward(Some(tag)));
        }

        for other in [
            // A second rewrite, or a tag operation anywhere but first
            // (inside a bucket it is scoped to the bucket).
            vec![CAction::PopVlan, CAction::PopVlan],
            vec![CAction::PopVlan, CAction::PushVlan(0x8100)],
            vec![CAction::PopVlan, set_vid.clone()],
            vec![CAction::PushVlan(0x8100), set_vid.clone(), set_vid.clone()],
            vec![set_vid],
            vec![CAction::Output(3), CAction::PopVlan],
            vec![CAction::BucketBegin, CAction::PopVlan, CAction::BucketEnd],
            vec![CAction::Meter(1)],
            vec![CAction::ToController(
                openflow::message::PacketInReason::NoMatch,
            )],
            // Routed/NAT'd paths rewrite bytes or touch per-connection
            // state.
            vec![CAction::DecTtl],
            vec![CAction::SetIcmpId(7)],
            vec![CAction::NatTouch(0)],
        ] {
            let p = CachedPath::new([other, vec![CAction::Output(2)]].concat(), vec![], 1);
            assert!(p.plan().is_none(), "{:?}", p.actions);
        }
    }

    #[test]
    fn batch_result_arena_keeps_per_frame_ranges() {
        let mut r = BatchResult::default();
        // Frame 0: two outputs.
        let m0 = r.mark();
        r.push_output(2, Bytes::from_static(b"a"));
        r.push_output(3, Bytes::from_static(b"b"));
        r.finish_frame(m0, false, None);
        // Frame 1: dropped, nothing emitted.
        let m1 = r.mark();
        r.finish_frame(m1, true, None);
        // Frame 2: one output, one packet-in.
        let m2 = r.mark();
        r.push_output(2, Bytes::from_static(b"c"));
        r.push_packet_in(PacketInReason::NoMatch, 1, Bytes::from_static(b"c"));
        r.finish_frame(m2, false, None);

        assert_eq!(r.len(), 3);
        assert_eq!(r.outputs_of(0).len(), 2);
        assert!(r.outputs_of(1).is_empty());
        assert_eq!(r.outputs_of(2), &[(2, Bytes::from_static(b"c"))]);
        assert_eq!(r.packet_ins_of(2).len(), 1);
        let by_port = r.outputs_by_port();
        assert_eq!(by_port[&2].len(), 2);
        assert_eq!(by_port[&3].len(), 1);
        assert_eq!(&by_port[&2][1][..], b"c");
        assert_eq!(r.total_outputs(), 3);
        let dropped: Vec<bool> = r.frames().iter().map(|f| f.dropped).collect();
        assert_eq!(dropped, [false, true, false]);
        assert!(r.packet_ins_of(0).is_empty() && r.packet_ins_of(1).is_empty());
        // Clearing keeps the allocations but empties the arenas.
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_outputs(), 0);
    }
}
