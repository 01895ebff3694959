//! Point-to-point duplex links with rate, propagation delay and a bounded
//! tail-drop egress queue per direction.

use bytes::Bytes;
use std::collections::VecDeque;

use crate::time::SimTime;

/// Per-frame wire overhead of real Ethernet in bytes: preamble (7) +
/// SFD (1) + FCS (4) + inter-frame gap (12). Included in serialization
/// time so that RFC 2544-style numbers line up with hardware testers.
pub const ETHERNET_WIRE_OVERHEAD: u32 = 24;

/// Static parameters of one link (applied to both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second. `0` means infinitely fast.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Egress queue capacity in bytes per direction; frames that would
    /// overflow it are tail-dropped.
    pub queue_bytes: usize,
    /// Extra bytes charged per frame on the wire (preamble/FCS/IFG).
    pub overhead_bytes: u32,
}

impl LinkSpec {
    /// 1 Gbit/s, 1 µs delay, 512 KiB queue — a typical copper access link.
    pub fn gigabit() -> LinkSpec {
        LinkSpec {
            rate_bps: 1_000_000_000,
            delay: SimTime::from_micros(1),
            queue_bytes: 512 * 1024,
            overhead_bytes: ETHERNET_WIRE_OVERHEAD,
        }
    }

    /// 10 Gbit/s, 1 µs delay, 2 MiB queue — server/trunk link.
    pub fn ten_gigabit() -> LinkSpec {
        LinkSpec {
            rate_bps: 10_000_000_000,
            delay: SimTime::from_micros(1),
            queue_bytes: 2 * 1024 * 1024,
            overhead_bytes: ETHERNET_WIRE_OVERHEAD,
        }
    }

    /// An idealized instantaneous link (used for patch ports and tests).
    pub fn instant() -> LinkSpec {
        LinkSpec {
            rate_bps: 0,
            delay: SimTime::ZERO,
            queue_bytes: usize::MAX,
            overhead_bytes: 0,
        }
    }

    /// Builder-style delay override.
    pub fn with_delay(mut self, delay: SimTime) -> Self {
        self.delay = delay;
        self
    }

    /// Builder-style queue override.
    pub fn with_queue_bytes(mut self, q: usize) -> Self {
        self.queue_bytes = q;
        self
    }

    /// Serialization time of one frame of `len` bytes on this link.
    pub fn ser_time(&self, len: usize) -> SimTime {
        SimTime::tx_time(len + self.overhead_bytes as usize, self.rate_bps)
    }
}

/// Counters kept per link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted onto the wire.
    pub tx_frames: u64,
    /// Payload bytes accepted (excluding wire overhead).
    pub tx_bytes: u64,
    /// Frames tail-dropped at the egress queue.
    pub dropped_frames: u64,
    /// Frames lost to a downed or disconnected link: queued or in flight
    /// when it went down, or transmitted into it while it was down.
    pub blackholed_frames: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_queue_bytes: usize,
}

/// One direction of a link: an egress queue feeding a serializer.
#[derive(Debug)]
pub(crate) struct LinkDir {
    pub spec: LinkSpec,
    /// Frames waiting for the serializer.
    pub queue: VecDeque<Bytes>,
    /// Bytes currently queued.
    pub queued_bytes: usize,
    /// Time the serializer becomes free; at or before the current
    /// instant means it is idle.
    pub busy_until: SimTime,
    /// Whether a `TxDone` wake-up is queued for this direction. One is
    /// scheduled (at `busy_until`) only while frames wait behind the one
    /// being serialized, so an uncontended link owns no event.
    pub tx_in_flight: bool,
    /// Administratively/faulted down: frames offered to (or queued on)
    /// the direction are blackholed instead of delivered.
    pub down: bool,
    /// The link was torn out (host detach): it stays as a tombstone so
    /// late events referencing it resolve safely, and its port slot may
    /// be reused by a later re-attach.
    pub dead: bool,
    pub stats: LinkStats,
}

impl LinkDir {
    pub fn new(spec: LinkSpec) -> LinkDir {
        LinkDir {
            spec,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy_until: SimTime::ZERO,
            tx_in_flight: false,
            down: false,
            dead: false,
            stats: LinkStats::default(),
        }
    }

    /// Take the direction down: everything queued is blackholed and
    /// further enqueues blackhole until [`LinkDir::bring_up`].
    pub fn take_down(&mut self) {
        self.down = true;
        self.stats.blackholed_frames += self.queue.len() as u64;
        self.queue.clear();
        self.queued_bytes = 0;
    }

    /// Bring the direction back up. The serializer state is untouched:
    /// `busy_until` in the past simply means it is idle.
    pub fn bring_up(&mut self) {
        self.down = false;
    }

    /// True when a frame offered at `now` would start at once: the
    /// direction is up, nothing waits and the serializer is free.
    pub fn idle(&self, now: SimTime) -> bool {
        !self.down && self.queue.is_empty() && now >= self.busy_until
    }

    /// Decide whether a frame of `len` bytes offered to the egress
    /// queue gets in — it is blackholed on a downed direction and
    /// tail-dropped over `queue_bytes` — and count it either way.
    pub fn admit(&mut self, len: usize) -> bool {
        if self.down {
            self.stats.blackholed_frames += 1;
            return false;
        }
        let occupancy = self.queued_bytes + len;
        if occupancy > self.spec.queue_bytes {
            self.stats.dropped_frames += 1;
            return false;
        }
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(occupancy);
        true
    }

    /// Try to enqueue a frame; returns false on tail drop.
    pub fn enqueue(&mut self, frame: Bytes) -> bool {
        let admitted = self.admit(frame.len());
        if admitted {
            self.queued_bytes += frame.len();
            self.queue.push_back(frame);
        }
        admitted
    }

    /// Pop the next frame for serialization, if any.
    pub fn dequeue(&mut self) -> Option<Bytes> {
        let f = self.queue.pop_front()?;
        self.queued_bytes -= f.len();
        Some(f)
    }

    /// Put a frame of `len` bytes on the wire at `now`: the serializer
    /// is busy for its serialization time, and the frame reaches the
    /// far end at the returned instant.
    pub fn start_tx(&mut self, now: SimTime, len: usize) -> SimTime {
        self.stats.tx_frames += 1;
        self.stats.tx_bytes += len as u64;
        self.busy_until = now + self.spec.ser_time(len);
        self.busy_until + self.spec.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ser_time_includes_overhead() {
        let spec = LinkSpec::gigabit();
        // 60-byte frame + 24 bytes overhead = 84 bytes = 672 ns at 1 Gbps.
        assert_eq!(spec.ser_time(60), SimTime::from_nanos(672));
    }

    #[test]
    fn tail_drop_when_full() {
        let spec = LinkSpec::gigabit().with_queue_bytes(100);
        let mut dir = LinkDir::new(spec);
        assert!(dir.enqueue(Bytes::from(vec![0u8; 60])));
        assert!(!dir.enqueue(Bytes::from(vec![0u8; 60])));
        assert_eq!(dir.stats.dropped_frames, 1);
        assert_eq!(dir.queued_bytes, 60);
    }

    #[test]
    fn dequeue_updates_counters() {
        let mut dir = LinkDir::new(LinkSpec::gigabit());
        dir.enqueue(Bytes::from(vec![0u8; 100]));
        let f = dir.dequeue().unwrap();
        assert_eq!(f.len(), 100);
        assert_eq!(dir.queued_bytes, 0);
        assert!(dir.dequeue().is_none());
        // 124 bytes on the wire at 1 Gbit/s, then 1 us of cable.
        let arrive = dir.start_tx(SimTime::from_micros(5), f.len());
        assert_eq!(arrive, SimTime::from_nanos(5_000 + 992 + 1_000));
        assert_eq!(dir.busy_until, SimTime::from_nanos(5_992));
        assert_eq!(dir.stats.tx_frames, 1);
        assert_eq!(dir.stats.tx_bytes, 100);
    }

    #[test]
    fn instant_link_serializes_in_zero_time() {
        assert_eq!(LinkSpec::instant().ser_time(9000), SimTime::ZERO);
    }
}
