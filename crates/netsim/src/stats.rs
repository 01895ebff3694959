//! Measurement primitives: a log-linear histogram and the rollups and
//! meters built on it.

/// Number of linear sub-buckets per power-of-two bucket. 32 gives ~3%
/// relative error, plenty for latency percentiles.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// An HDR-style log-linear histogram of `u64` samples (typically
/// nanoseconds).
///
/// Values are bucketed with bounded relative error (~1/`SUB_BUCKETS`), so
/// percentiles stay accurate from nanoseconds to hours without configuring
/// a range up front.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            // 64 powers of two × SUB_BUCKETS linear sub-buckets.
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) - SUB_BUCKETS as u64) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_low(i: usize) -> u64 {
        let tier = i / SUB_BUCKETS;
        let sub = (i % SUB_BUCKETS) as u64;
        if tier == 0 {
            return sub;
        }
        let shift = (tier - 1) as u32;
        (SUB_BUCKETS as u64 + sub) << shift
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical samples in one step. Used by the flow-level
    /// engine to credit a whole window of modeled arrivals without
    /// looping per frame; a no-op when `n` is zero.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` in `[0, 100]`. Returns the lower bound of the
    /// bucket containing the rank, clamped to the observed min/max.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_low(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Shorthand for the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Control-channel impairment counters for one channel (an ordered
/// `(from, to)` node pair) or an aggregate of channels, filled by the
/// simulator's control fault model (see [`crate::fault`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Messages sent while a lossy profile was armed.
    pub sent: u64,
    /// Messages that did not arrive on their first try: each loss draw,
    /// which stalls its message one retransmission timeout, and each
    /// message a control partition held (until it healed, or for good).
    pub dropped: u64,
}

impl CtrlStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &CtrlStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
    }
}

/// An aggregated view over a group of measurement points — e.g. all the
/// sinks of one fabric pod, rolled up into a per-pod row.
///
/// Rollups compose: merge per-sink rollups into a per-pod rollup, then
/// per-pod rollups into a fabric total.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Frames observed.
    pub frames: u64,
    /// Bytes observed.
    pub bytes: u64,
    /// Merged latency samples (nanoseconds).
    pub latency: Histogram,
    /// Flows promoted from packet-level to flow-level simulation.
    pub flows_promoted: u64,
    /// Flows demoted back to packet-level simulation.
    pub flows_demoted: u64,
    /// Conservative-window rate/volume updates applied to modeled flows.
    pub window_updates: u64,
    /// Bytes advanced analytically while flows were cache-resident.
    pub bytes_modeled: u64,
    /// Bytes carried by per-frame Deliver events (packet-level).
    pub bytes_simulated: u64,
    /// Control-channel impairment counters (messages sent under a lossy
    /// profile, stalls and partition holds) for the channels this
    /// rollup covers.
    pub ctrl: CtrlStats,
}

impl Rollup {
    /// An empty rollup.
    pub fn new() -> Rollup {
        Rollup::default()
    }

    /// Fold one measurement point into the rollup.
    pub fn absorb(&mut self, frames: u64, bytes: u64, latency: &Histogram) {
        self.frames += frames;
        self.bytes += bytes;
        self.latency.merge(latency);
    }

    /// Fold another rollup into this one.
    pub fn merge(&mut self, other: &Rollup) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.latency.merge(&other.latency);
        self.flows_promoted += other.flows_promoted;
        self.flows_demoted += other.flows_demoted;
        self.window_updates += other.window_updates;
        self.bytes_modeled += other.bytes_modeled;
        self.bytes_simulated += other.bytes_simulated;
        self.ctrl.merge(&other.ctrl);
    }
}

/// One service interruption observed by an [`SloMeter`]: the half-open
/// interval (nanoseconds) during which a flow received nothing for
/// longer than the outage threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// When service was last seen before the gap (ns).
    pub start_ns: u64,
    /// When service resumed — or the measurement window closed (ns).
    pub end_ns: u64,
}

impl Outage {
    /// Length of the interruption in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-flow service-level meter: turns a stream of arrival timestamps
/// into downtime, outage intervals and time-to-reconverge.
///
/// Feed it every arrival with [`SloMeter::observe`] and close the
/// window with [`SloMeter::finish`]. Any inter-arrival gap longer than
/// the threshold counts as an outage from the last arrival before the
/// gap to the arrival that ended it; a flow still dark at `finish`
/// accrues a trailing outage to the end of the window. Fully
/// deterministic — it only folds over simulated timestamps.
#[derive(Debug, Clone)]
pub struct SloMeter {
    threshold_ns: u64,
    first_rx_ns: Option<u64>,
    last_rx_ns: Option<u64>,
    outages: Vec<Outage>,
    finished: bool,
}

impl SloMeter {
    /// A meter that calls any service gap longer than `threshold_ns` an
    /// outage.
    pub fn new(threshold_ns: u64) -> SloMeter {
        SloMeter {
            threshold_ns,
            first_rx_ns: None,
            last_rx_ns: None,
            outages: Vec::new(),
            finished: false,
        }
    }

    /// Record one arrival at `now_ns` (must be fed in nondecreasing
    /// time order).
    pub fn observe(&mut self, now_ns: u64) {
        if let Some(last) = self.last_rx_ns {
            if now_ns.saturating_sub(last) > self.threshold_ns {
                self.outages.push(Outage {
                    start_ns: last,
                    end_ns: now_ns,
                });
            }
        }
        if self.first_rx_ns.is_none() {
            self.first_rx_ns = Some(now_ns);
        }
        self.last_rx_ns = Some(now_ns);
    }

    /// Close the measurement window at `end_ns`: a flow that went dark
    /// before the end accrues one trailing outage. Idempotent per
    /// window; further arrivals are not expected afterwards.
    pub fn finish(&mut self, end_ns: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        if let Some(last) = self.last_rx_ns {
            if end_ns.saturating_sub(last) > self.threshold_ns {
                self.outages.push(Outage {
                    start_ns: last,
                    end_ns,
                });
            }
        }
    }

    /// The recorded outage intervals, in time order.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Total downtime in nanoseconds (sum of all outages).
    pub fn downtime_ns(&self) -> u64 {
        self.outages.iter().map(Outage::duration_ns).sum()
    }

    /// The longest single outage in nanoseconds (0 if none).
    pub fn worst_outage_ns(&self) -> u64 {
        self.outages
            .iter()
            .map(Outage::duration_ns)
            .max()
            .unwrap_or(0)
    }

    /// When the flow last recovered: the end of the final outage, i.e.
    /// the time-to-reconverge measured from time zero. `None` if the
    /// flow never suffered an outage.
    pub fn reconverged_at_ns(&self) -> Option<u64> {
        self.outages.last().map(|o| o.end_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_composes() {
        let mut h = Histogram::new();
        h.record(100);
        let mut pod = Rollup::new();
        pod.absorb(2, 128, &h);
        pod.absorb(1, 64, &h);
        assert_eq!(pod.frames, 3);
        assert_eq!(pod.bytes, 192);
        assert_eq!(pod.latency.count(), 2);
        let mut total = Rollup::new();
        total.merge(&pod);
        total.merge(&pod);
        assert_eq!(total.frames, 6);
        assert_eq!(total.latency.count(), 4);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.percentile(100.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1µs .. 10ms in ns
        }
        let p50 = h.p50();
        let p99 = h.p99();
        // log-linear bucketing: within ~4% of the true value
        assert!(
            (p50 as f64 - 5_000_000.0).abs() / 5_000_000.0 < 0.04,
            "p50={p50}"
        );
        assert!(
            (p99 as f64 - 9_900_000.0).abs() / 9_900_000.0 < 0.04,
            "p99={p99}"
        );
        assert!((h.mean() - 5_000_500.0 * 1.0).abs() / 5_000_500.0 < 0.001);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.p50(), h.percentile(100.0));
        assert!(h.p50() <= 777 && h.p50() >= 752, "p50={}", h.p50());
        assert_eq!(h.max(), 777);
        assert_eq!(h.min(), 777);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn slo_meter_detects_gaps_and_reconvergence() {
        let mut m = SloMeter::new(1_000); // 1 µs threshold
        for t in [0u64, 500, 1_000, 5_000, 5_500, 6_000] {
            m.observe(t);
        }
        m.finish(10_000);
        // One mid-stream outage (1_000 → 5_000) and one trailing outage
        // (6_000 → 10_000).
        assert_eq!(m.outages().len(), 2);
        assert_eq!(m.downtime_ns(), 4_000 + 4_000);
        assert_eq!(m.worst_outage_ns(), 4_000);
        assert_eq!(m.reconverged_at_ns(), Some(10_000));
    }

    #[test]
    fn slo_meter_clean_flow_has_no_outages() {
        let mut m = SloMeter::new(2_000);
        for t in (0..10).map(|i| i * 1_000) {
            m.observe(t);
        }
        m.finish(10_000);
        assert!(m.outages().is_empty());
        assert_eq!(m.downtime_ns(), 0);
        assert_eq!(m.reconverged_at_ns(), None);
    }

    #[test]
    fn slo_meter_finish_is_idempotent() {
        let mut m = SloMeter::new(100);
        m.observe(0);
        m.finish(1_000);
        m.finish(2_000);
        assert_eq!(m.outages().len(), 1);
        assert_eq!(m.downtime_ns(), 1_000);
    }

    #[test]
    fn bucket_index_monotonic() {
        let mut last = 0usize;
        for v in (0..10_000_000u64).step_by(997) {
            let i = Histogram::index(v);
            assert!(i >= last, "index must be monotonic in value");
            last = i;
        }
    }
}
