//! Processing traces and the cost model that turns them into service
//! times for the simulator.
//!
//! Constants are calibrated to the single-core numbers reported for
//! DPDK-era software switches (ESwitch [Molnár et al., SIGCOMM'16], OVS
//! with megaflows): a microflow hit lands near 100 ns/packet (~10 Mpps),
//! megaflow hits in the 150–250 ns range depending on probe count, and a
//! slow-path traversal grows linearly in entries scanned.

/// Which path a packet took through the dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPath {
    /// Exact-match microflow cache hit.
    MicroHit,
    /// Megaflow cache hit after probing `probes` masks.
    MegaHit {
        /// Masks probed before the hit.
        probes: u32,
    },
    /// Full pipeline walk.
    SlowPath {
        /// Tables visited.
        tables: u32,
        /// Flow entries compared (linear mode) across all tables.
        entries_scanned: u32,
        /// Hash probes (TSS mode) across all tables.
        tss_probes: u32,
    },
}

/// Everything a single packet's processing did, for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingTrace {
    /// The lookup path taken.
    pub path: LookupPath,
    /// VLAN pushes/pops performed.
    pub vlan_ops: u32,
    /// Set-field rewrites performed.
    pub set_fields: u32,
    /// Group table executions.
    pub group_hops: u32,
    /// Meter bucket checks.
    pub meter_checks: u32,
    /// Copies emitted (unicast = 1, flood = N).
    pub outputs: u32,
    /// Whether a packet-in was generated.
    pub packet_in: bool,
    /// Frame length in bytes (drives the per-byte touch cost).
    pub frame_len: u32,
}

impl ProcessingTrace {
    /// A fresh trace for a frame of `len` bytes, before lookup.
    pub fn new(len: usize) -> ProcessingTrace {
        ProcessingTrace {
            path: LookupPath::SlowPath {
                tables: 0,
                entries_scanned: 0,
                tss_probes: 0,
            },
            vlan_ops: 0,
            set_fields: 0,
            group_hops: 0,
            meter_checks: 0,
            outputs: 0,
            packet_in: false,
            frame_len: len as u32,
        }
    }
}

/// Per-operation costs in nanoseconds (fractional; totals are rounded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost: RX, parse, flow-key extraction.
    pub parse: f64,
    /// Microflow cache probe + hit.
    pub micro_hit: f64,
    /// Megaflow probe (per mask tried).
    pub mega_probe: f64,
    /// Per-table fixed cost on the slow path.
    pub table_visit: f64,
    /// Per-entry compare on a linear-scan table.
    pub entry_scan: f64,
    /// Per-mask hash probe in a TSS-indexed table.
    pub tss_probe: f64,
    /// Cache population after a slow-path walk.
    pub cache_install: f64,
    /// One VLAN push or pop (includes the memmove).
    pub vlan_op: f64,
    /// One set-field (includes checksum fixes).
    pub set_field: f64,
    /// One group execution.
    pub group_hop: f64,
    /// One meter check.
    pub meter_check: f64,
    /// Per output copy (descriptor + enqueue).
    pub output: f64,
    /// Building and sending a packet-in.
    pub packet_in: f64,
    /// Per payload byte touched (memcpy-ish).
    pub per_byte: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            parse: 45.0,
            micro_hit: 35.0,
            mega_probe: 55.0,
            table_visit: 40.0,
            entry_scan: 18.0,
            tss_probe: 30.0,
            cache_install: 120.0,
            vlan_op: 28.0,
            set_field: 32.0,
            group_hop: 45.0,
            meter_check: 30.0,
            output: 30.0,
            packet_in: 900.0,
            per_byte: 0.18,
        }
    }
}

impl CostModel {
    /// A model for a faster machine (scales every constant).
    pub fn scaled(factor: f64) -> CostModel {
        let d = CostModel::default();
        CostModel {
            parse: d.parse * factor,
            micro_hit: d.micro_hit * factor,
            mega_probe: d.mega_probe * factor,
            table_visit: d.table_visit * factor,
            entry_scan: d.entry_scan * factor,
            tss_probe: d.tss_probe * factor,
            cache_install: d.cache_install * factor,
            vlan_op: d.vlan_op * factor,
            set_field: d.set_field * factor,
            group_hop: d.group_hop * factor,
            meter_check: d.meter_check * factor,
            output: d.output * factor,
            packet_in: d.packet_in * factor,
            per_byte: d.per_byte * factor,
        }
    }

    /// Service time for a trace, in nanoseconds.
    pub fn cost_ns(&self, t: &ProcessingTrace) -> u64 {
        let mut ns = self.parse + self.per_byte * f64::from(t.frame_len);
        ns += match t.path {
            LookupPath::MicroHit => self.micro_hit,
            LookupPath::MegaHit { probes } => self.mega_probe * f64::from(probes.max(1)),
            LookupPath::SlowPath {
                tables,
                entries_scanned,
                tss_probes,
            } => {
                self.table_visit * f64::from(tables)
                    + self.entry_scan * f64::from(entries_scanned)
                    + self.tss_probe * f64::from(tss_probes)
                    + self.cache_install
            }
        };
        ns += self.vlan_op * f64::from(t.vlan_ops);
        ns += self.set_field * f64::from(t.set_fields);
        ns += self.group_hop * f64::from(t.group_hops);
        ns += self.meter_check * f64::from(t.meter_checks);
        ns += self.output * f64::from(t.outputs);
        if t.packet_in {
            ns += self.packet_in;
        }
        ns.round() as u64
    }

    /// Single-core saturation throughput for a fixed trace, packets/s.
    pub fn pps(&self, t: &ProcessingTrace) -> f64 {
        1e9 / self.cost_ns(t) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd_trace(path: LookupPath) -> ProcessingTrace {
        ProcessingTrace {
            path,
            vlan_ops: 0,
            set_fields: 0,
            group_hops: 0,
            meter_checks: 0,
            outputs: 1,
            packet_in: false,
            frame_len: 60,
        }
    }

    #[test]
    fn micro_hit_is_roughly_8mpps() {
        let m = CostModel::default();
        let pps = m.pps(&fwd_trace(LookupPath::MicroHit));
        assert!((6e6..14e6).contains(&pps), "micro path = {pps:.0} pps");
    }

    #[test]
    fn paths_are_ordered_micro_mega_slow() {
        let m = CostModel::default();
        let micro = m.cost_ns(&fwd_trace(LookupPath::MicroHit));
        let mega = m.cost_ns(&fwd_trace(LookupPath::MegaHit { probes: 2 }));
        let slow = m.cost_ns(&fwd_trace(LookupPath::SlowPath {
            tables: 2,
            entries_scanned: 10,
            tss_probes: 0,
        }));
        assert!(micro < mega, "{micro} < {mega}");
        assert!(mega < slow, "{mega} < {slow}");
    }

    #[test]
    fn tss_beats_linear_scan_on_big_tables() {
        let m = CostModel::default();
        let linear = m.cost_ns(&fwd_trace(LookupPath::SlowPath {
            tables: 1,
            entries_scanned: 1000,
            tss_probes: 0,
        }));
        let tss = m.cost_ns(&fwd_trace(LookupPath::SlowPath {
            tables: 1,
            entries_scanned: 0,
            tss_probes: 3,
        }));
        assert!(tss * 10 < linear, "tss {tss} vs linear {linear}");
    }

    #[test]
    fn bigger_frames_cost_more() {
        let m = CostModel::default();
        let mut small = fwd_trace(LookupPath::MicroHit);
        let mut big = small;
        small.frame_len = 60;
        big.frame_len = 1514;
        assert!(m.cost_ns(&big) > m.cost_ns(&small));
    }

    #[test]
    fn scaling_scales() {
        let fast = CostModel::scaled(0.5);
        let t = fwd_trace(LookupPath::MicroHit);
        let base = CostModel::default().cost_ns(&t);
        let scaled = fast.cost_ns(&t);
        assert!((scaled as f64 - base as f64 / 2.0).abs() <= 1.0);
    }
}
