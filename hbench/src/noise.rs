//! What the machine did while the benchmark ran — and the clock that
//! takes it out of the numbers.
//!
//! The box this benchmark was written on moves its processor clock
//! between three speeds (ratios 0.79 : 0.94 : 1), for seconds at a
//! time, whatever the program does, and at times slows everything by a
//! quarter more (a busy neighbour on the same core): the same code
//! measures up to 30 % apart from one second to the next. A small fixed
//! kernel — the canary — measures the machine's speed every 50 ms, and
//! every host time is reported in *reference nanoseconds*: host ns ×
//! (the canary's reference duration ÷ its duration around the same
//! moment). On a quiet machine whose clock stands still this is a
//! constant factor; raw host times are reported beside it.

use std::time::Instant;

use crate::stats::{median, Group};

/// Steps of one canary pass: about 0.45 ms.
const CANARY_STEPS: u64 = 250_000;
/// Words of the canary's table: 16 KiB, resident in the first-level
/// cache.
const CANARY_WORDS: usize = 2048;
/// The canary's reference speed, ns per step: what the box this was
/// written on does at its slowest (and most common) clock with the
/// core to itself. It fixes the unit of every reported time, nothing
/// more.
const REF_NS_PER_STEP: f64 = 1.75;
/// Host ns between two canary passes while groups are being timed.
const SAMPLE_EVERY_NS: u64 = 50_000_000;

/// One pass of the canary: two multiply-add chains, two table loads
/// and two stores at addresses they produce, and a branch on loaded
/// data, per step. It is ordinary code in miniature — arithmetic,
/// first-level cache traffic, unpredictable branches — so that what
/// slows ordinary code on this machine (a lower clock, a busy sibling
/// thread on the same core) slows it about as much; it touches neither
/// the programs under test nor their data.
fn canary_ns(table: &mut [u64; CANARY_WORDS]) -> u64 {
    let t = Instant::now();
    let (mut a, mut b, mut acc) = (1u64, 2u64, 0u64);
    for i in 0..CANARY_STEPS {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b = b.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        let i1 = (a >> 40) as usize % CANARY_WORDS;
        let i2 = (b >> 40) as usize % CANARY_WORDS;
        let (x, y) = (table[i1], table[i2]);
        if x & 4 == 0 {
            acc = acc.wrapping_add(x ^ y);
        } else {
            acc ^= y.rotate_left(7);
        }
        table[i1] = y.wrapping_add(acc);
        table[i2] = x ^ i;
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// The benchmark's clock: host time since it was made, and the canary
/// passes taken along the way.
pub struct Clock {
    origin: Instant,
    /// `(host ns, reference ÷ canary duration)`, in time order.
    samples: Vec<(u64, f64)>,
    next_due: u64,
    /// Host ns spent in canary passes since the last `take_spent`.
    spent_ns: u64,
    table: Box<[u64; CANARY_WORDS]>,
}

impl Clock {
    pub fn new() -> Clock {
        let mut c = Clock {
            origin: Instant::now(),
            samples: Vec::new(),
            next_due: 0,
            spent_ns: 0,
            table: Box::new([0; CANARY_WORDS]),
        };
        // The first pass wakes the processor up and goes unrecorded.
        canary_ns(&mut c.table);
        c.sample();
        c
    }

    /// Host ns since the clock was made.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run the canary once and record the speed it saw.
    fn sample(&mut self) {
        let at = self.now();
        let ns = canary_ns(&mut self.table);
        let factor = CANARY_STEPS as f64 * REF_NS_PER_STEP / ns as f64;
        self.samples.push((at, factor));
        self.spent_ns += ns;
        self.next_due = at + ns + SAMPLE_EVERY_NS;
    }

    /// Run the canary and return the factor that turns host ns taken
    /// just before into reference ns: the median of the last three
    /// passes, so that one interrupted pass cannot rescale a probe.
    pub fn factor_now(&mut self) -> f64 {
        self.sample();
        self.smooth(self.samples.len().saturating_sub(2))
    }

    /// At a group boundary, `now` being the time just read: run the
    /// canary if the last pass is 50 ms old.
    #[inline]
    pub fn tick(&mut self, now: u64) {
        if now >= self.next_due {
            self.sample();
        }
    }

    /// Host ns the canary took since the last call; the caller takes
    /// them out of its wall time.
    pub fn take_spent(&mut self) -> u64 {
        std::mem::take(&mut self.spent_ns)
    }

    /// The factor of sample `i`, as the median with its two neighbours
    /// (one pass hit by an interrupt must not rescale a whole 50 ms).
    fn smooth(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(1);
        let hi = (i + 1).min(self.samples.len() - 1);
        let near: Vec<f64> = self.samples[lo..=hi].iter().map(|s| s.1).collect();
        median(&near)
    }

    /// Index of the sample nearest in time to `at`.
    fn nearest(&self, at: u64) -> usize {
        let after = self.samples.partition_point(|s| s.0 < at);
        if after == 0 {
            return 0;
        }
        if after == self.samples.len() {
            return after - 1;
        }
        if at - self.samples[after - 1].0 <= self.samples[after].0 - at {
            after - 1
        } else {
            after
        }
    }

    /// The factor that turns host ns taken at `at` into reference ns.
    pub fn factor_at(&self, at: u64) -> f64 {
        self.smooth(self.nearest(at))
    }

    /// Fill in the reference ns of every group from the canary pass
    /// nearest to it.
    pub fn reference(&self, groups: &mut [Group]) {
        for g in groups {
            g.ref_ns = g.ns as f64 * self.factor_at(g.at + g.ns / 2);
        }
    }

    /// Reference seconds of the host interval `from..to` (clock ns),
    /// taking one canary pass at its end so that a short interval has a
    /// speed of its own.
    pub fn reference_s(&mut self, from: u64, to: u64) -> f64 {
        self.sample();
        let first = self.nearest(from);
        let last = self.nearest(to);
        let factors: Vec<f64> = (first..=last).map(|i| self.smooth(i)).collect();
        (to - from) as f64 * median(&factors) / 1e9
    }

    /// Every speed factor seen so far.
    pub fn factors(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Median duration of a canary pass, host ns.
    pub fn canary_ns(&self) -> f64 {
        CANARY_STEPS as f64 * REF_NS_PER_STEP / median(&self.factors())
    }
}

/// On-CPU and run-queue nanoseconds of this thread so far, from
/// `/proc/thread-self/schedstat`; zeros where the file is missing.
pub fn schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|w| w.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` does not say.
pub fn peak_rss_mib() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_take_the_speed_of_the_nearest_smoothed_pass() {
        let mut c = Clock::new();
        // Passes at 0, 100, 200, 300, 400: the one at 200 was hit by
        // an interrupt and reads half speed; from 300 on the processor
        // runs a quarter faster.
        c.samples = vec![(0, 1.0), (100, 1.0), (200, 0.5), (300, 1.25), (400, 1.25)];
        assert_eq!(c.factor_at(0), 1.0);
        assert_eq!(c.factor_at(190), 1.0, "the outlier is voted down");
        assert_eq!(c.factor_at(320), 1.25);
        assert_eq!(c.factor_at(10_000), 1.25);
        let mut groups = [Group::new(80, 40, 32), Group::new(380, 40, 32)];
        c.reference(&mut groups);
        assert_eq!(groups[0].ref_ns, 40.0);
        assert_eq!(groups[1].ref_ns, 50.0);
    }

    #[test]
    fn ticking_samples_only_when_a_pass_is_due() {
        let mut c = Clock::new();
        let n = c.samples.len();
        c.tick(c.now());
        assert_eq!(c.samples.len(), n, "the first pass is still fresh");
        c.tick(c.now() + SAMPLE_EVERY_NS + 10_000_000);
        assert_eq!(c.samples.len(), n + 1);
        assert!(c.take_spent() > 0);
        assert_eq!(c.take_spent(), 0);
        assert!(c.canary_ns() > 0.0);
    }
}
