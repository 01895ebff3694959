//! Order statistics used for every reported number.

/// Median and quartiles of a set of per-segment values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median: the value that is reported.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values summarised.
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes
/// them (the exclusive method), so a spread computed here equals the
/// one the acceptance script computes from the same values. One value
/// is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        value: quartile(2),
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).value
}

/// A timed group of operations: `ops` operations that together took
/// `ns` host nanoseconds. Every operation of a group is assigned the
/// group's mean cost.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// When it started, ns on the benchmark's clock.
    pub at: u64,
    /// Host nanoseconds the group took.
    pub ns: u64,
    /// The same in reference nanoseconds (see `noise::Clock`); equal
    /// to `ns` until the clock has filled it in.
    pub ref_ns: f64,
    /// Operations completed in it (groups with none carry no sample).
    pub ops: u64,
}

impl Group {
    pub fn new(at: u64, ns: u64, ops: u64) -> Group {
        Group {
            at,
            ns,
            ref_ns: ns as f64,
            ops,
        }
    }
}

/// Nearest-rank percentile over *operations*: the per-operation cost
/// (`cost` of a group ÷ its operations) below which `p` percent of the
/// operations fall, each operation costing its group's mean. With
/// equal-sized groups this is the plain percentile over groups.
/// Returns 0 when no group has an operation.
pub fn op_percentile(groups: &[Group], p: f64, cost: impl Fn(&Group) -> f64) -> f64 {
    let mut costs: Vec<(f64, u64)> = groups
        .iter()
        .filter(|g| g.ops > 0)
        .map(|g| (cost(g) / g.ops as f64, g.ops))
        .collect();
    costs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = costs.iter().map(|c| c.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (cost, ops) in &costs {
        seen += ops;
        if seen >= rank {
            return *cost;
        }
    }
    costs.last().map_or(0.0, |c| c.0)
}

/// FNV-1a over 64-bit words: the digest of a deterministic run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a byte string in.
    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`. The programs under test see the frames it shapes, never
/// the generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label (so two uses of one
    /// seed do not correlate).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.value, s.q3), (7.5, 15.0, 22.5));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.value, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn op_percentile_weights_groups_by_their_operations() {
        let host = |g: &Group| g.ns as f64;
        let equal: Vec<Group> = (1..=100).map(|i| Group::new(0, i * 32, 32)).collect();
        assert_eq!(op_percentile(&equal, 50.0, host), 50.0);
        assert_eq!(op_percentile(&equal, 99.0, host), 99.0);
        assert_eq!(op_percentile(&equal, 100.0, host), 100.0);
        assert_eq!(op_percentile(&equal, 50.0, |g| g.ref_ns * 2.0), 100.0);
        // 990 cheap operations in one group, 10 dear ones in another:
        // the 99th percentile is still cheap, the 99.5th is dear.
        let mixed = [
            Group::new(0, 990, 990),
            Group::new(0, 1000, 10),
            Group::new(0, 7, 0),
        ];
        assert_eq!(op_percentile(&mixed, 50.0, host), 1.0);
        assert_eq!(op_percentile(&mixed, 99.0, host), 1.0);
        assert_eq!(op_percentile(&mixed, 99.5, host), 100.0);
        assert_eq!(op_percentile(&[], 50.0, host), 0.0);
    }

    #[test]
    fn rng_and_digest_are_deterministic() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let (x, y, z) = (a.next(), b.next(), c.next());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(a.below(10) < 10);
        let mut d = Digest::new();
        d.word(1);
        d.bytes(b"abc");
        let mut e = Digest::new();
        e.word(1);
        e.bytes(b"abd");
        assert_ne!(d.finish(), e.finish());
    }
}
