//! Measurement harnesses: RFC 2544-style maximum lossless throughput
//! search and rate helpers.

/// Outcome of one fixed-rate trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Frames offered by the generator(s).
    pub sent: u64,
    /// Frames delivered to the sink(s).
    pub received: u64,
}

impl TrialResult {
    /// Fraction of offered frames lost.
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - (self.received as f64 / self.sent as f64)
    }
}

/// Binary-search the highest rate (frames/s) whose loss stays within
/// `loss_tolerance`, in the spirit of RFC 2544 §26.1.
///
/// `trial` runs a complete simulation at the offered rate and reports
/// sent/received counts. The search runs `iters` halvings after bracketing;
/// 12 iterations resolve the rate to ~0.02% of the span.
///
/// Returns the highest passing rate found (`min_pps` if even that loses
/// traffic).
pub fn find_max_lossless_rate(
    min_pps: f64,
    max_pps: f64,
    iters: usize,
    loss_tolerance: f64,
    mut trial: impl FnMut(f64) -> TrialResult,
) -> f64 {
    assert!(min_pps > 0.0 && max_pps > min_pps);
    // Fast path: the whole range passes.
    if trial(max_pps).loss() <= loss_tolerance {
        return max_pps;
    }
    let mut lo = min_pps; // assumed passing (verified lazily)
    let mut hi = max_pps; // known failing
    let mut best = 0.0f64;
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        let r = trial(mid);
        if r.loss() <= loss_tolerance {
            best = best.max(mid);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if best == 0.0 {
        // Even the smallest probe failed or was never verified; check it.
        if trial(min_pps).loss() <= loss_tolerance {
            return min_pps;
        }
        return 0.0;
    }
    best
}

/// Theoretical line-rate in frames/second of an Ethernet link.
///
/// `frame_len` is the frame as buffered in this workspace (FCS already
/// stripped); the 24 bytes of preamble + FCS + inter-frame gap are added
/// here. E.g. `line_rate_pps(1e9, 60)` is the classic 1.488 Mpps
/// "64-byte" line rate.
pub fn line_rate_pps(rate_bps: u64, frame_len: usize) -> f64 {
    rate_bps as f64 / ((frame_len + 24) as f64 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_computation() {
        assert_eq!(
            TrialResult {
                sent: 100,
                received: 100
            }
            .loss(),
            0.0
        );
        assert!(
            (TrialResult {
                sent: 100,
                received: 90
            }
            .loss()
                - 0.1)
                .abs()
                < 1e-9
        );
        assert_eq!(
            TrialResult {
                sent: 0,
                received: 0
            }
            .loss(),
            0.0
        );
    }

    #[test]
    fn search_converges_on_step_function() {
        // A system that forwards losslessly below 1.0 Mpps and drops above.
        let capacity = 1_000_000.0;
        let found = find_max_lossless_rate(1_000.0, 10_000_000.0, 24, 0.0, |pps| {
            let sent = 1_000_000u64;
            let received = if pps <= capacity {
                sent
            } else {
                (sent as f64 * capacity / pps) as u64
            };
            TrialResult { sent, received }
        });
        assert!((found - capacity).abs() / capacity < 0.01, "found={found}");
    }

    #[test]
    fn search_saturates_at_max() {
        let found = find_max_lossless_rate(1.0, 100.0, 8, 0.0, |_| TrialResult {
            sent: 10,
            received: 10,
        });
        assert_eq!(found, 100.0);
    }

    #[test]
    fn search_returns_zero_when_everything_fails() {
        let found = find_max_lossless_rate(1.0, 100.0, 8, 0.0, |_| TrialResult {
            sent: 10,
            received: 0,
        });
        assert_eq!(found, 0.0);
    }

    #[test]
    fn line_rate_64b_gigabit() {
        // Classic number: 1.488 Mpps for 64-byte frames at 1 Gbps (the
        // 64 includes FCS, so the buffered length is 60).
        let pps = line_rate_pps(1_000_000_000, 60);
        assert!((pps - 1_488_095.0).abs() < 1.0, "pps={pps}");
    }
}
