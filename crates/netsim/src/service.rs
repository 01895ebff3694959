//! A bounded multi-server service queue for modelling CPU-bound packet
//! processing inside a device.
//!
//! Each server slot serves a *batch* of one or more items per service
//! period (a DPDK-style burst). Devices own a [`ServiceQueue`] and drive
//! it with their timer callbacks:
//!
//! ```text
//! on_packet:  match sq.submit(work) {
//!                 Submit::Start(slot) => schedule(svc_time, TOKEN + slot),
//!                 Submit::Queued | Submit::Dropped => {}
//!             }
//! on_timer:   ... emit results of `sq.batch(slot)` ...
//!             sq.finish(slot);
//!             if sq.start_queued_batch(slot, max_batch) > 0 {
//!                 schedule(svc_time, TOKEN + slot)
//!             }
//! ```
//!
//! This yields an M/G/k queue whose service times the device computes
//! per batch (e.g. by summing per-frame costs from the
//! `ProcessingTrace`s of its pipeline). Single-item service is a
//! `max_batch` of one.

use std::collections::VecDeque;

/// Outcome of [`ServiceQueue::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// A server slot was free; service starts now in slot `.0`. The caller
    /// must schedule a completion timer for it.
    Start(usize),
    /// All servers busy; the item waits in the queue.
    Queued,
    /// The queue was full; the item was dropped.
    Dropped,
}

/// Bounded FIFO queue in front of `k` parallel servers, each serving
/// batches of items.
///
/// Two submission disciplines coexist:
///
/// * [`submit`](ServiceQueue::submit) — work-conserving: any idle slot
///   takes the item, overflow waits in one shared queue;
/// * [`submit_to`](ServiceQueue::submit_to) — *steered*: the caller
///   pins the item to a slot (e.g. by RSS flow hash), and overflow
///   waits in that slot's private ring. Per-flow FIFO order is then
///   guaranteed, since one flow only ever visits one slot.
///
/// A slot refilled by
/// [`start_queued_batch`](ServiceQueue::start_queued_batch) drains
/// its private ring before the shared queue, so both
/// disciplines can be mixed. With one server and only `submit_to(0,
/// ..)` submissions, behaviour is identical to `submit` — the ring is
/// just the shared queue under another name.
#[derive(Debug)]
pub struct ServiceQueue<T> {
    /// In-service batches; an empty vector means the slot is idle. The
    /// vectors keep their storage across service periods.
    slots: Vec<Vec<T>>,
    queue: VecDeque<T>,
    /// Per-slot steering rings for `submit_to`.
    rings: Vec<VecDeque<T>>,
    capacity: usize,
    drops: u64,
}

impl<T> ServiceQueue<T> {
    /// `servers` parallel workers with a waiting room of `capacity` items.
    pub fn new(servers: usize, capacity: usize) -> ServiceQueue<T> {
        assert!(servers >= 1, "need at least one server");
        ServiceQueue {
            slots: (0..servers).map(|_| Vec::new()).collect(),
            queue: VecDeque::new(),
            rings: (0..servers).map(|_| VecDeque::new()).collect(),
            capacity,
            drops: 0,
        }
    }

    /// Number of server slots.
    pub fn servers(&self) -> usize {
        self.slots.len()
    }

    /// Drop everything in flight: the waiting queues (shared and
    /// per-slot) and every in-service batch (a device power cycle).
    /// The drop counter survives — it models the observer, not the
    /// device. Completion timers for the flushed batches may still
    /// fire; callers must recognise them as stale.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
        for r in &mut self.rings {
            r.clear();
        }
        self.queue.clear();
    }

    /// Offer an item for service.
    pub fn submit(&mut self, item: T) -> Submit {
        if let Some(free) = self.slots.iter().position(Vec::is_empty) {
            self.slots[free].push(item);
            return Submit::Start(free);
        }
        if self.queue.len() >= self.capacity {
            self.drops += 1;
            return Submit::Dropped;
        }
        self.queue.push_back(item);
        Submit::Queued
    }

    /// Offer an item for service on a specific slot (RSS-style flow
    /// steering). The item starts immediately if the slot is idle with
    /// nothing steered ahead of it; otherwise it waits in the slot's
    /// private ring, bounded by the same `capacity` as the shared
    /// queue.
    pub fn submit_to(&mut self, slot: usize, item: T) -> Submit {
        if self.slots[slot].is_empty() && self.rings[slot].is_empty() {
            self.slots[slot].push(item);
            return Submit::Start(slot);
        }
        if self.rings[slot].len() >= self.capacity {
            self.drops += 1;
            return Submit::Dropped;
        }
        self.rings[slot].push_back(item);
        Submit::Queued
    }

    /// The whole batch currently served in `slot` (empty slice = idle).
    pub fn batch(&self, slot: usize) -> &[T] {
        &self.slots[slot]
    }

    /// The batch in `slot`, for a device that moves the payload out of
    /// its items when service starts instead of cloning it. The items
    /// stay: the slot is busy, and counts, by their number.
    pub fn batch_mut(&mut self, slot: usize) -> &mut [T] {
        &mut self.slots[slot]
    }

    /// Finish the batch in `slot`: its items are dropped in place and the
    /// slot becomes idle. Read them with [`ServiceQueue::batch`] first.
    ///
    /// # Panics
    /// Panics if the slot is idle.
    pub fn finish(&mut self, slot: usize) {
        let items = &mut self.slots[slot];
        assert!(!items.is_empty(), "finish on idle slot");
        items.clear();
    }

    /// Pull up to `max` queued items into the (idle) `slot` as one
    /// batched service period — the slot's own steering ring first,
    /// then the shared queue. Returns the number of items started
    /// (0 = slot busy or nothing waiting); if any, the caller must
    /// schedule the period's timer.
    pub fn start_queued_batch(&mut self, slot: usize, max: usize) -> usize {
        if !self.slots[slot].is_empty() {
            return 0;
        }
        let from_ring = max.min(self.rings[slot].len());
        self.slots[slot].extend(self.rings[slot].drain(..from_ring));
        let from_shared = (max - from_ring).min(self.queue.len());
        self.slots[slot].extend(self.queue.drain(..from_shared));
        from_ring + from_shared
    }

    /// Items dropped because the waiting room was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finish the batch in `slot` and return what it held.
    fn take(sq: &mut ServiceQueue<u32>, slot: usize) -> Vec<u32> {
        let items = sq.batch(slot).to_vec();
        sq.finish(slot);
        items
    }

    #[test]
    fn single_server_flow() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(1, 2);
        assert_eq!(sq.submit(1), Submit::Start(0));
        assert_eq!(sq.submit(2), Submit::Queued);
        assert_eq!(sq.submit(3), Submit::Queued);
        assert_eq!(sq.submit(4), Submit::Dropped);
        assert_eq!(sq.drops(), 1);
        assert_eq!(sq.batch(0), &[1]);
        assert_eq!(take(&mut sq, 0), vec![1]);
        assert_eq!(sq.start_queued_batch(0, 1), 1);
        assert_eq!(sq.batch(0), &[2]);
        assert_eq!(take(&mut sq, 0), vec![2]);
        assert_eq!(sq.start_queued_batch(0, 1), 1);
        assert_eq!(take(&mut sq, 0), vec![3]);
        assert_eq!(sq.start_queued_batch(0, 1), 0);
        assert_eq!(sq.drops(), 1);
    }

    #[test]
    fn multi_server_fills_all_slots() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(3, 0);
        assert_eq!(sq.submit(1), Submit::Start(0));
        assert_eq!(sq.submit(2), Submit::Start(1));
        assert_eq!(sq.submit(3), Submit::Start(2));
        assert_eq!(sq.submit(4), Submit::Dropped);
        assert_eq!(take(&mut sq, 1), vec![2]);
        assert_eq!(sq.submit(5), Submit::Start(1));
        assert_eq!([sq.batch(0), sq.batch(1), sq.batch(2)], [&[1], &[5], &[3]]);
    }

    #[test]
    fn queued_items_drain_in_batches() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(1, 16);
        assert_eq!(sq.submit(1), Submit::Start(0));
        for i in 2..=9 {
            assert_eq!(sq.submit(i), Submit::Queued);
        }
        assert_eq!(take(&mut sq, 0), vec![1]);
        // Drain the backlog four at a time.
        assert_eq!(sq.start_queued_batch(0, 4), 4);
        assert_eq!(sq.batch(0), &[2, 3, 4, 5]);
        // A busy slot refuses a second batch.
        assert_eq!(sq.start_queued_batch(0, 4), 0);
        assert_eq!(take(&mut sq, 0), vec![2, 3, 4, 5]);
        assert_eq!(sq.start_queued_batch(0, 100), 4);
        assert_eq!(take(&mut sq, 0), vec![6, 7, 8, 9]);
        assert_eq!(sq.start_queued_batch(0, 100), 0);
    }

    #[test]
    fn steered_submit_with_one_server_equals_shared_submit() {
        // The N=1 bit-identity guarantee behind `--datapath-cores 1`.
        let mut a: ServiceQueue<u32> = ServiceQueue::new(1, 2);
        let mut b: ServiceQueue<u32> = ServiceQueue::new(1, 2);
        for i in 1..=4 {
            assert_eq!(a.submit(i), b.submit_to(0, i), "item {i}");
        }
        assert_eq!(a.drops(), b.drops());
        assert_eq!(take(&mut a, 0), take(&mut b, 0));
        assert_eq!(
            a.start_queued_batch(0, 8),
            b.start_queued_batch(0, 8),
            "refill order must match"
        );
        assert_eq!(take(&mut a, 0), take(&mut b, 0));
        assert_eq!(a.start_queued_batch(0, 8), 0);
        assert_eq!(b.start_queued_batch(0, 8), 0);
    }

    #[test]
    fn steered_items_stay_on_their_slot() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(2, 4);
        // Flow A → slot 0, flow B → slot 1; interleaved arrivals.
        assert_eq!(sq.submit_to(0, 10), Submit::Start(0));
        assert_eq!(sq.submit_to(1, 20), Submit::Start(1));
        assert_eq!(sq.submit_to(0, 11), Submit::Queued);
        assert_eq!(sq.submit_to(1, 21), Submit::Queued);
        assert_eq!(sq.submit_to(0, 12), Submit::Queued);
        // Slot 0 finishes: its refill sees only its own flow, in order.
        assert_eq!(take(&mut sq, 0), vec![10]);
        assert_eq!(sq.start_queued_batch(0, 8), 2);
        assert_eq!(sq.batch(0), &[11, 12]);
        // Slot 1 likewise.
        assert_eq!(take(&mut sq, 1), vec![20]);
        assert_eq!(sq.start_queued_batch(1, 8), 1);
        assert_eq!(sq.batch(1), &[21]);
    }

    #[test]
    fn steering_ring_is_bounded_and_drains_before_shared() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(1, 2);
        assert_eq!(sq.submit_to(0, 1), Submit::Start(0));
        assert_eq!(sq.submit_to(0, 2), Submit::Queued);
        assert_eq!(sq.submit_to(0, 3), Submit::Queued);
        assert_eq!(sq.submit_to(0, 4), Submit::Dropped, "ring bounded");
        assert_eq!(sq.drops(), 1);
        // A shared-queue item waits behind the steered ones.
        assert_eq!(sq.submit(99), Submit::Queued);
        assert_eq!(take(&mut sq, 0), vec![1]);
        assert_eq!(sq.start_queued_batch(0, 10), 3);
        assert_eq!(take(&mut sq, 0), vec![2, 3, 99]);
        // An idle slot whose ring holds items must not let a newcomer
        // jump the line.
        assert_eq!(sq.submit_to(0, 5), Submit::Start(0));
        assert_eq!(sq.submit_to(0, 6), Submit::Queued);
        assert_eq!(take(&mut sq, 0), vec![5]);
        assert_eq!(sq.submit_to(0, 7), Submit::Queued, "FIFO behind ring");
        assert_eq!(sq.start_queued_batch(0, 8), 2);
        assert_eq!(sq.batch(0), &[6, 7]);
    }

    #[test]
    fn clear_flushes_steering_rings() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(2, 4);
        sq.submit_to(0, 1);
        sq.submit_to(0, 2);
        sq.submit_to(1, 3);
        sq.clear();
        assert_eq!(sq.servers(), 2);
        for slot in 0..2 {
            assert!(sq.batch(slot).is_empty(), "slot {slot} idle");
            assert_eq!(sq.start_queued_batch(slot, 8), 0, "ring {slot} empty");
        }
        assert_eq!(sq.submit_to(0, 4), Submit::Start(0));
    }

    #[test]
    #[should_panic(expected = "idle slot")]
    fn finish_idle_slot_panics() {
        let mut sq: ServiceQueue<u32> = ServiceQueue::new(1, 1);
        sq.finish(0);
    }
}
