//! Meter table (OF 1.3 §5.7): per-flow rate limiting with drop bands,
//! implemented as token buckets over simulated time.

use std::collections::BTreeMap;

use crate::wire::{layout, wire_enum};
use crate::{Error, Result};

/// A meter band. Only the `drop` band type is modelled; DSCP remark is out
/// of scope for an L2 migration shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterBand {
    /// Rate in kilobits per second (or packets per second when the meter
    /// has [`Meter::pktps`] set).
    pub rate: u32,
    /// Burst size in kilobits (or packets).
    pub burst: u32,
}

layout! { MeterBand { rate: u32, burst: u32 } }

/// One installed meter: a token bucket refilled at `band.rate`.
#[derive(Debug, Clone)]
pub struct Meter {
    /// Meter id.
    pub id: u32,
    /// The single drop band.
    pub band: MeterBand,
    /// Rate is packets/s rather than kb/s.
    pub pktps: bool,
    /// Tokens currently available, in millibits (or micropackets) for
    /// precision.
    tokens: u64,
    /// Last refill time, ns.
    last_ns: u64,
    /// Packets passed.
    pub passed: u64,
    /// Packets dropped by the band.
    pub dropped: u64,
}

impl Meter {
    fn capacity(&self) -> u64 {
        // Same scale factor either way: micro-packets for pktps meters,
        // millibits (1 kb = 1e6 mbit) for kbps meters.
        u64::from(self.band.burst.max(1)) * 1_000_000
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        // rate kb/s = rate millibits/µs; dt ns -> µs
        let add = (u128::from(dt) * u128::from(self.band.rate)) / 1_000;
        self.tokens = (self.tokens as u128 + add).min(u128::from(self.capacity())) as u64;
    }

    /// Offer a packet of `bytes` to the meter at `now_ns`. Returns `true`
    /// if it passes, `false` if the drop band fires.
    pub fn offer(&mut self, now_ns: u64, bytes: usize) -> bool {
        self.refill(now_ns);
        let cost = if self.pktps {
            1_000_000 // one micropacket-million = 1 packet
        } else {
            bytes as u64 * 8 * 1_000 // bits -> millibits
        };
        if self.tokens >= cost {
            self.tokens -= cost;
            self.passed += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }
}

wire_enum! {
    /// `ofp_meter_mod` command.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MeterModCommand: u16 {
        /// Create.
        Add = 0,
        /// Replace.
        Modify = 1,
        /// Remove.
        Delete = 2,
    } else Error::Malformed("bad meter-mod command")
}

/// The meter table of one switch.
#[derive(Debug, Default)]
pub struct MeterTable {
    meters: BTreeMap<u32, Meter>,
}

impl MeterTable {
    /// Empty table.
    pub fn new() -> MeterTable {
        MeterTable::default()
    }

    /// Number of meters.
    pub fn len(&self) -> usize {
        self.meters.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.meters.is_empty()
    }

    /// Install a meter.
    pub fn add(&mut self, id: u32, band: MeterBand, pktps: bool, now_ns: u64) -> Result<()> {
        if self.meters.contains_key(&id) {
            return Err(Error::BadMeter("meter exists"));
        }
        let mut m = Meter {
            id,
            band,
            pktps,
            tokens: 0,
            last_ns: now_ns,
            passed: 0,
            dropped: 0,
        };
        m.tokens = m.capacity(); // start full
        self.meters.insert(id, m);
        Ok(())
    }

    /// Replace a meter's band.
    pub fn modify(&mut self, id: u32, band: MeterBand, pktps: bool) -> Result<()> {
        let m = self
            .meters
            .get_mut(&id)
            .ok_or(Error::BadMeter("no such meter"))?;
        m.band = band;
        m.pktps = pktps;
        Ok(())
    }

    /// Remove a meter; true if it existed.
    pub fn delete(&mut self, id: u32) -> bool {
        self.meters.remove(&id).is_some()
    }

    /// Offer a packet to meter `id`; unknown meters pass everything (the
    /// spec says the flow entry would not have installed, but be lenient).
    pub fn offer(&mut self, id: u32, now_ns: u64, bytes: usize) -> bool {
        match self.meters.get_mut(&id) {
            Some(m) => m.offer(now_ns, bytes),
            None => true,
        }
    }

    /// Read-only meter access for stats.
    pub fn get(&self, id: u32) -> Option<&Meter> {
        self.meters.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn meter_limits_byte_rate() {
        let mut mt = MeterTable::new();
        // 8000 kb/s = 1 MB/s, burst 80 kb = 10 KB.
        mt.add(
            1,
            MeterBand {
                rate: 8_000,
                burst: 80,
            },
            false,
            0,
        )
        .unwrap();
        // Offer 1500-byte packets every 1 ms = 1.5 MB/s: ~2/3 should pass.
        let mut passed = 0;
        for i in 0..1000 {
            if mt.offer(1, i * SEC / 1000, 1500) {
                passed += 1;
            }
        }
        let share = passed as f64 / 1000.0;
        assert!((share - 0.667).abs() < 0.05, "passed share = {share}");
    }

    #[test]
    fn meter_passes_under_rate() {
        let mut mt = MeterTable::new();
        mt.add(
            1,
            MeterBand {
                rate: 8_000,
                burst: 80,
            },
            false,
            0,
        )
        .unwrap();
        // 0.5 MB/s offered against a 1 MB/s meter: everything passes.
        for i in 0..100 {
            assert!(mt.offer(1, i * SEC / 333, 1500));
        }
    }

    #[test]
    fn pktps_meter_counts_packets() {
        let mut mt = MeterTable::new();
        mt.add(
            1,
            MeterBand {
                rate: 100,
                burst: 10,
            },
            true,
            0,
        )
        .unwrap();
        // 200 pps offered against 100 pps: about half pass.
        let mut passed = 0;
        for i in 0..400 {
            if mt.offer(1, i * SEC / 200, 60) {
                passed += 1;
            }
        }
        assert!((150..=250).contains(&passed), "passed={passed}");
    }

    #[test]
    fn unknown_meter_passes() {
        let mut mt = MeterTable::new();
        assert!(mt.offer(9, 0, 1500));
    }

    #[test]
    fn add_modify_delete() {
        let mut mt = MeterTable::new();
        mt.add(1, MeterBand { rate: 1, burst: 1 }, false, 0)
            .unwrap();
        assert!(mt
            .add(1, MeterBand { rate: 1, burst: 1 }, false, 0)
            .is_err());
        mt.modify(1, MeterBand { rate: 2, burst: 2 }, false)
            .unwrap();
        assert!(mt
            .modify(2, MeterBand { rate: 2, burst: 2 }, false)
            .is_err());
        assert!(mt.delete(1));
        assert!(!mt.delete(1));
    }
}
