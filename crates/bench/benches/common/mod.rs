//! What the `datapath` and `pipeline` benches share.

use bytes::Bytes;
use softswitch::{BatchResult, Datapath, FrameBatch};

/// One frame per call, the way a node with nothing queued submits it: a
/// batch of one through a batch buffer and a result arena recycled
/// across calls.
#[derive(Default)]
pub struct OneFrame {
    batch: FrameBatch,
    out: BatchResult,
}

impl OneFrame {
    /// Run `frame` through `dp`; frame 0 of the returned arena is it.
    pub fn run(
        &mut self,
        dp: &mut Datapath,
        in_port: u32,
        frame: Bytes,
        now_ns: u64,
    ) -> &BatchResult {
        self.batch.push(in_port, frame);
        dp.process_batch_into(&mut self.batch, now_ns, &mut self.out);
        &self.out
    }
}
