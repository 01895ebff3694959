//! Integration-test-only package: the tests live in `tests/`; this
//! library holds the one helper they share.

use bytes::Bytes;
use softswitch::{BatchResult, Datapath, FrameBatch};

/// One frame as a batch of its own into a fresh arena: frame 0 of the
/// result is the frame.
pub fn run_one(dp: &mut Datapath, in_port: u32, frame: Bytes, now_ns: u64) -> BatchResult {
    let mut batch: FrameBatch = [(in_port, frame)].into_iter().collect();
    let mut out = BatchResult::default();
    dp.process_batch_into(&mut batch, now_ns, &mut out);
    out
}
