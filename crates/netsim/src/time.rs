//! Simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// Also used for durations; the arithmetic saturates rather than wraps so
/// "never" can be represented as [`SimTime::MAX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// From nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Nanosecond count.
    #[inline]
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds, truncating.
    #[inline]
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds, truncating.
    #[inline]
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The serialization time of `bytes` at `rate_bps` bits/second.
    pub fn tx_time(bytes: usize, rate_bps: u64) -> SimTime {
        if rate_bps == 0 {
            return SimTime::ZERO;
        }
        // Bit-nanoseconds fit a u64 for anything up to 2.3 GB: every frame.
        const BIT_NS: u64 = 8 * 1_000_000_000;
        match (bytes as u64).checked_mul(BIT_NS) {
            Some(bit_ns) => SimTime(bit_ns / rate_bps),
            None => SimTime((bytes as u128 * BIT_NS as u128 / rate_bps as u128) as u64),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
    }

    #[test]
    fn tx_time_gigabit() {
        // 1500 bytes at 1 Gbps = 12 microseconds.
        assert_eq!(
            SimTime::tx_time(1500, 1_000_000_000),
            SimTime::from_micros(12)
        );
        // 64 bytes at 10 Gbps = 51.2 ns.
        assert_eq!(
            SimTime::tx_time(64, 10_000_000_000),
            SimTime::from_nanos(51)
        );
    }

    #[test]
    fn tx_time_is_the_same_on_both_sides_of_the_u64_boundary() {
        let last_u64 = (u64::MAX / 8_000_000_000) as usize;
        for bytes in [60, 1514, last_u64 - 1, last_u64, last_u64 + 1, usize::MAX] {
            for rate in [1, 7, 1_000_000_000, 10_000_000_000, u64::MAX] {
                let wide = bytes as u128 * 8_000_000_000 / rate as u128;
                assert_eq!(
                    SimTime::tx_time(bytes, rate),
                    SimTime(wide as u64),
                    "{bytes} B at {rate} bit/s"
                );
            }
        }
    }

    #[test]
    fn tx_time_zero_rate_is_instant() {
        assert_eq!(SimTime::tx_time(1500, 0), SimTime::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_secs(1)),
            SimTime::ZERO
        );
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }
}
